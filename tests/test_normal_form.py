"""The coarsest canonical normal form.

Equality is checked against an oracle from another theory, the Leavitt path
algebra basis (helpers.lpa_coefficients), on the six fixtures and on random
small graphs.  Canonicity is checked against its definition: no stored term
nests inside another of its degree, and no complete set of refine_children
carries one coefficient, so equal elements have equal term maps.  Keys cut
down by a long common suffix, where the coarsening climbs deep trees, are
checked the same way, and as spectra against their union of basic sets.
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ckcalc
from ckcalc.bimodule import SpectrumSet
from ckcalc.ckalg import (
    AlgElement,
    CKMono,
    evaluate,
    gauge,
    identity,
    normalize,
    phi_m,
    range_projection,
    support_spectrum,
)
from ckcalc.graph import underlying
from ckcalc.paths import FinPath, GroupoidPoint, _path, empty_path, ev, fpath, path_source
from ckcalc.scalars import GaussianRational

from helpers import (
    all_monos,
    cyl_contains,
    lpa_coefficients,
    lpa_equal,
    make_rng,
    rand_coeff,
    random_graph,
    refine_children,
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
    """For an element, or for a spectrum read with the value True."""
    g = a.graph
    terms = a.terms if isinstance(a, AlgElement) else dict.fromkeys(a.cylinders, True)
    for m, c in terms.items():
        assert c is True or not c.is_zero(), m
        for other in terms:
            if other != m and other.degree == m.degree:
                assert not cyl_contains(g, m, other), (m, other)
        parent = _parent(g, m)
        if parent is not None:
            siblings = refine_children(g, parent)
            assert not all(terms.get(s) == c for s in siblings), (parent, c)


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


def _window(g, v, n, rng):
    """A random path of length n into v, read from v: its edges and its source."""
    word = []
    for _ in range(n):
        e = rng.choice(g.in_edges(v))
        word.append(e.id)
        v = e.source
    return tuple(word), v


def _deep(g, m, rng, lo=6, hi=10):
    """m with a random common suffix of length lo..hi put on both paths."""
    w, v = _window(g, path_source(g, m.alpha), rng.randint(lo, hi), rng)
    return CKMono(_path(m.alpha.edges + w, v), _path(m.beta.edges + w, v))


def _deep_pairs(g, rng, monos):
    """Terms deep in the trees of random stems: a lone term, whose parents
    may have it as their only child; a complete set of siblings at one
    coefficient under a term a few levels up; and a term with its children
    at the opposite coefficient, which cancel."""
    pairs = []
    for _ in range(rng.randint(1, 3)):
        top = _deep(g, rng.choice(monos), rng)
        r = rng.random()
        if r < 0.4:
            pairs.append((top, rand_coeff(rng)))
        elif r < 0.8:
            node = _deep(g, top, rng, 0, 3)
            pairs.append((top, rand_coeff(rng)))
            c = rand_coeff(rng)
            pairs.extend((child, c) for child in refine_children(g, node))
        else:
            c = rand_coeff(rng)
            pairs.append((top, c))
            pairs.extend((child, -c) for child in refine_children(g, top))
    return pairs


def _same_union(g, left, right):
    """Whether two families of basic sets cover one union: each is tiled by
    the sets of one beta length per degree, the longest in either family."""
    level = {}
    for m in [*left, *right]:
        level[m.degree] = max(level.get(m.degree, 0), len(m.beta))

    def atoms(monos):
        out, work = set(), list(monos)
        while work:
            m = work.pop()
            if len(m.beta) < level[m.degree]:
                work.extend(refine_children(g, m))
            else:
                out.add(m)
        return out

    return atoms(left) == atoms(right)


def _check_deep(g, rng, rounds):
    g = underlying(g)
    monos = all_monos(g, 2)
    for _ in range(rounds):
        pairs = _deep_pairs(g, rng, monos)
        a = AlgElement(g, pairs)
        assert lpa_coefficients(g, pairs) == lpa_coefficients(g, a.terms.items())
        assert_canonical(a)
        relisted = _relisted(g, rng, monos, pairs)
        assert AlgElement(g, relisted).terms == a.terms
        assert (AlgElement(g, relisted) - a).is_zero()
        x = AlgElement(g, _random_pairs(g, rng, monos, 3))
        for z in (a * x, x * a, a * a.adjoint() - a.adjoint() * a, a + x):
            assert_canonical(z)
        assert (a * x) * a == a * (x * a) and lpa_equal((a * x) * a, a * (x * a))
        family = [m for m, _ in pairs]
        spectrum = SpectrumSet(g, family)
        assert_canonical(spectrum)
        assert _same_union(g, spectrum.cylinders, family)


@pytest.mark.parametrize("name", ("o2", "c2", "loop3", "loop3e"))
def test_deep_common_suffixes_on_fixtures(name, request):
    _check_deep(request.getfixturevalue(name), make_rng(40 + len(name)), 12)


def test_deep_common_suffixes_on_random_graphs():
    rng = make_rng(41)
    for _ in range(20):
        _check_deep(random_graph(rng, max_vertices=3, max_in=2, sources=False), rng, 4)


def test_a_lone_term_climbs_only_its_one_child_parents(c2, loop3e):
    # On c2 every vertex is the range of one edge, so R_{f2 f1} is p_2.
    r = CKMono(fpath("f2", "f1"), fpath("f2", "f1"))
    s = CKMono(fpath("f1"), empty_path("2"))
    x = AlgElement(c2, [(r, 3), (s, 1)])
    assert x.terms == {CKMono(empty_path("2"), empty_path("2")): GaussianRational(3),
                       s: GaussianRational(1)}
    # On loop3e, u is the range of e1 and h: the climb stops below it.
    word = ("e1", "e2", "e3") * 2 + ("e1", "e2")
    deep = CKMono(FinPath(("h",) + word), FinPath(word))
    assert AlgElement(loop3e, [(deep, 5)]).terms == {
        CKMono(FinPath(("h",) + word[:-1]), FinPath(word[:-1])): GaussianRational(5)}


_ORDER_SCRIPT = """
from ckcalc.ckalg import normalize
from helpers import make_rng, rand_element, random_graph
rng = make_rng(5)
for _ in range(60):
    g = random_graph(rng, max_vertices=3, max_in=2, sources=False)
    a = rand_element(g, rng, max_len=2)
    x = a * a + a
    print(list(x.terms), list(normalize(x, beta_depth=2).terms))
"""


def test_term_order_does_not_follow_string_hashing():
    """.terms lists the same elements in the same order under any hash seed."""
    src = os.path.dirname(os.path.dirname(ckcalc.__file__))
    path = os.pathsep.join([src, os.path.dirname(__file__)])

    def listing(seed):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        return subprocess.run([sys.executable, "-c", _ORDER_SCRIPT], env=env, check=True,
                              capture_output=True, text=True).stdout

    assert listing(1) == listing(2)
