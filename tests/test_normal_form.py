"""The coarsest canonical normal form.

Equality is checked against an oracle from another theory, the Leavitt path
algebra basis (helpers.lpa_coefficients), on the six fixtures and on random
small graphs.  Canonicity is checked against its definition: no stored term
nests inside another of its degree, and no complete set of refine_children
carries one coefficient, so equal elements have equal term maps.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckcalc.bimodule import cyl_contains
from ckcalc.ckalg import (
    AlgElement,
    CKMono,
    evaluate,
    gauge,
    identity,
    normalize,
    phi_m,
    range_projection,
    refine_children,
    support_spectrum,
)
from ckcalc.graph import underlying
from ckcalc.paths import FinPath, GroupoidPoint, empty_path, ev, fpath
from ckcalc.scalars import GaussianRational

from helpers import (
    all_monos,
    lpa_coefficients,
    lpa_equal,
    make_rng,
    rand_coeff,
    small_ordered_graphs,
)

FIXTURES = ("o2", "single_loop", "c2", "loop3", "loop3e", "e2")


def _parent(g, m):
    """The basic set one level up from m, or None if m is a root."""
    a, b = m.alpha.edges, m.beta.edges
    if not (a and b and a[-1] == b[-1]):
        return None
    up = empty_path(g.range_of(a[-1]))
    return CKMono(FinPath(a[:-1]) if a[:-1] else up, FinPath(b[:-1]) if b[:-1] else up)


def assert_canonical(a):
    g = a.graph
    for m, c in a.terms.items():
        assert not c.is_zero(), m
        for other in a.terms:
            if other != m and other.degree == m.degree:
                assert not cyl_contains(g, m, other), (m, other)
        parent = _parent(g, m)
        if parent is not None:
            siblings = refine_children(g, parent)
            assert not all(a.terms.get(s) == c for s in siblings), (parent, c)


def _random_pairs(g, rng, monos, n_max=8):
    """Random terms, some of them with their siblings at one coefficient, so
    that collapses happen."""
    pairs = []
    for _ in range(rng.randint(1, n_max)):
        m, c = rng.choice(monos), rand_coeff(rng)
        if rng.random() < 0.3:
            pairs.extend((child, c) for child in refine_children(g, m))
        else:
            pairs.append((m, c))
    return pairs


def _relisted(g, rng, monos, pairs):
    """Another listing of the same element: terms split into their
    refine_children or into two coefficients, a cancelling pair added, and
    the order shuffled."""
    out = []
    for m, c in pairs:
        r = rng.random()
        if r < 0.3:
            out.extend((child, c) for child in refine_children(g, m))
        elif r < 0.5:
            half = c * Fraction(1, 2)
            out.extend([(m, half), (m, c - half)])
        else:
            out.append((m, c))
    m, c = rng.choice(monos), rand_coeff(rng)
    out.extend([(m, c), (m, -c)])
    rng.shuffle(out)
    return out


def _check_graph(g, rng, rounds):
    g = underlying(g)
    monos = all_monos(g, 2)
    for _ in range(rounds):
        pairs = _random_pairs(g, rng, monos)
        a = AlgElement(g, pairs)
        assert lpa_coefficients(g, pairs) == lpa_coefficients(g, a.terms.items())
        assert_canonical(a)

        same = AlgElement(g, _relisted(g, rng, monos, pairs))
        assert a == same and lpa_equal(a, same)
        assert a.terms == same.terms

        other = a + AlgElement(g, _random_pairs(g, rng, monos, 2))
        assert (a == other) == lpa_equal(a, other) == (a.terms == other.terms)

        x = AlgElement(g, _random_pairs(g, rng, monos, 3))
        y = AlgElement(g, _random_pairs(g, rng, monos, 3))
        for z in (x * y, y * x, a * x + y, (a * x) * y, a - a, a.adjoint() * a):
            assert_canonical(z)
        assert (a * x) * y == a * (x * y) and lpa_equal((a * x) * y, a * (x * y))
        assert (x * y == y * x) == lpa_equal(x * y, y * x)


@pytest.mark.parametrize("name", FIXTURES)
def test_lpa_oracle_agrees_with_equality_on_fixtures(name, request):
    _check_graph(request.getfixturevalue(name), make_rng(FIXTURES.index(name)), 25)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(small_ordered_graphs(), st.integers(0, 2**32).map(make_rng))
def test_lpa_oracle_agrees_with_equality_on_random_graphs(og, rng):
    _check_graph(og, rng, 6)


def test_lpa_oracle_sees_the_ck_relation(o2):
    # p_v = R_a + R_b, and R_a = R_aa + R_ab: one basis vector each side.
    v = CKMono(empty_path("v"), empty_path("v"))
    ra, rb = CKMono(fpath("a"), fpath("a")), CKMono(fpath("b"), fpath("b"))
    assert lpa_coefficients(o2, [(v, 1)]) == lpa_coefficients(o2, [(ra, 1), (rb, 1)])
    aa, ab = CKMono(fpath("a", "a"), fpath("a", "a")), CKMono(fpath("a", "b"), fpath("a", "b"))
    assert lpa_coefficients(o2, [(ra, 1)]) == lpa_coefficients(o2, [(aa, 1), (ab, 1)])
    assert lpa_coefficients(o2, [(ra, 1)]) != lpa_coefficients(o2, [(rb, 1)])


@pytest.mark.parametrize("name", FIXTURES)
def test_canonical_operations_stay_canonical(name, request):
    """adjoint, negation, scaling, gauge and phi_m keep the listing; they
    give the same terms as building the result anew."""
    g = underlying(request.getfixturevalue(name))
    rng = make_rng(7)
    monos = all_monos(g, 2)
    for _ in range(20):
        a = AlgElement(g, _random_pairs(g, rng, monos))
        c = rand_coeff(rng)
        rebuilt = {
            "adjoint": [(m.adjoint(), x.conjugate()) for m, x in a.terms.items()],
            "neg": [(m, -x) for m, x in a.terms.items()],
            "scale": [(m, c * x) for m, x in a.terms.items()],
            "gauge": [(m, x.times_i_power(m.degree)) for m, x in a.terms.items()],
            "phi_0": [(m, x) for m, x in a.terms.items() if m.degree == 0],
        }
        got = {"adjoint": a.adjoint(), "neg": -a, "scale": a.scale(c),
               "gauge": gauge(a, 4, 1), "phi_0": phi_m(a, 0)}
        for op, z in got.items():
            assert_canonical(z)
            assert z.terms == AlgElement(g, rebuilt[op]).terms, op
        assert a.scale(0).is_zero()


def test_refined_listing_reaches_the_deepest_leaf(o2):
    x = identity(o2) + range_projection(o2, fpath("a", "a"))
    assert len(x.terms) == 3
    for depth in (0, 1, 2, 3):
        listing = normalize(x, beta_depth=depth)
        target = max(depth, 2)
        assert len(listing.terms) == 2 ** target
        assert all(len(m.beta) == target for m in listing.terms)
        assert listing == x


def _diagonal_point(edges, cycle):
    y = ev(edges, cycle)
    return GroupoidPoint(y, 0, y)


def test_insertion_splits_only_the_path_nodes(o2):
    """identity + R_{a^n} on O2 has n+1 terms, not 2^n; so has its square,
    and both are supported on all of p_v."""
    n = 24
    word = ("a",) * n
    x = identity(o2) + range_projection(o2, FinPath(word))
    assert len(x.terms) == n + 1
    assert_canonical(x)
    square = x * x
    assert len(square.terms) == n + 1
    assert_canonical(square)
    rng = make_rng(24)
    for _ in range(40):
        k = rng.randint(0, n + 2)
        prefix = ("a",) * k + (rng.choice("ab"),)
        point = _diagonal_point(prefix, (rng.choice("ab"),))
        inside = (point.x.prefix + point.x.cycle * (n + 1))[:n] == word
        assert evaluate(x, point) == GaussianRational(2 if inside else 1)
        assert evaluate(square, point) == GaussianRational(4 if inside else 1)
    shifted = GroupoidPoint(ev(("a",), ("a",)), 1, ev((), ("a",)))
    assert evaluate(square, shifted).is_zero()
    whole = [CKMono(empty_path("v"), empty_path("v"))]
    assert support_spectrum(x).sorted_cylinders() == whole
    assert support_spectrum(square).sorted_cylinders() == whole
