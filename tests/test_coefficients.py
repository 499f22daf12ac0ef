"""Inside an element every coefficient is a canonical nonzero integer triple.

The family core holds each coefficient as (re_num, im_num, den) with
den > 0 and gcd(re_num, im_num, den) == 1, and builds a GaussianRational
only for .terms, coefficient and evaluate.  Each operation below runs on
seeded random graphs without sources, with coefficients whose denominators
run from 1 to 7 and with operands built so that terms cancel exactly: in
the product loop (c1 M + c2 p_r)(d1 p_s + d2 M) with c1 d1 = -c2 d2 sums
M p_s and p_r M to zero, and a sum meets the negatives of some terms.  The
results are checked against helpers.value_at and helpers.convolve at points
drawn with helpers.point_in, which read the public term maps only.
coefficient reads one key of the core and agrees with .terms on any monomial.
"""

import math
from fractions import Fraction

from ckcalc.ckalg import AlgElement, CKMono, adjoint, evaluate, gauge, normalize
from ckcalc.nest import commutator
from ckcalc.paths import _path, empty_path, fpath, inverse, path_range, path_source
from ckcalc.scalars import ZERO, GaussianRational

from helpers import (
    all_monos,
    convolve,
    make_rng,
    paths_up_to,
    point_in,
    rand_element,
    random_graph,
    value_at,
)

GRAPHS = 25
I_POWERS = [GaussianRational(1), GaussianRational(0, 1), GaussianRational(-1),
            GaussianRational(0, -1)]


def coeff(rng):
    """A nonzero coefficient whose parts have denominators 1 to 7."""
    while True:
        c = GaussianRational(Fraction(rng.randint(-6, 6), rng.randint(1, 7)),
                             Fraction(rng.randint(-6, 6), rng.randint(1, 7)))
        if not c.is_zero():
            return c


def projection(g, v):
    return CKMono(_path((), v), _path((), v))


def cancelling_operands(g, rng):
    """x = c1 M + c2 p_r and y = d1 p_s + d2 M, M of nonzero degree from r
    to s, with d2 chosen so that M p_s and p_r M cancel in x y."""
    m = rng.choice([m for m in all_monos(g, 2) if m.degree != 0])
    r, s = path_range(g, m.alpha), path_source(g, m.alpha)
    c1, c2, d1 = coeff(rng), coeff(rng), coeff(rng)
    d2 = -(c1 * d1 * c2.conjugate() * GaussianRational(1 / c2.modulus_squared()))
    assert c1 * d1 + c2 * d2 == ZERO
    x = AlgElement(g, [(m, c1), (projection(g, r), c2)])
    y = AlgElement(g, [(projection(g, s), d1), (m, d2)])
    return x, y


def cases(seed):
    rng = make_rng(seed)
    for _ in range(GRAPHS):
        g = random_graph(rng, max_vertices=3, max_in=2, sources=False)
        monos = all_monos(g, 2)
        z = AlgElement(g, [(rng.choice(monos), coeff(rng)) for _ in range(rng.randint(2, 6))])
        yield g, rng, z, cancelling_operands(g, rng)


def assert_canonical(a):
    for c in a._keys.values():
        assert type(c) is tuple and len(c) == 3 and all(type(n) is int for n in c)
        x, y, d = c
        assert d > 0 and math.gcd(x, y, d) == 1 and c != (0, 0, 1)
    assert all(type(c) is GaussianRational for c in a.terms.values())
    assert all(type(a.coefficient(m)) is GaussianRational for m in a.terms)


def points(rng, *elements):
    return [point_in(e.graph, m, rng) for e in elements for m in e.terms for _ in range(2)]


def test_products_and_commutators_keep_canonical_triples():
    for g, rng, z, (x, y) in cases(91):
        for left, right in ((x, y), (y, x), (z, y), (x, z)):
            ab = left * right
            assert_canonical(ab)
            for p in points(rng, left, right, ab):
                assert type(evaluate(ab, p)) is GaussianRational
                assert evaluate(ab, p) == value_at(ab, p) == convolve(left, right, p)
        for left, right in ((x, y), (z, x), (z, z)):
            c = commutator(left, right)
            assert_canonical(c)
            for p in points(rng, left, right, c):
                assert evaluate(c, p) == convolve(left, right, p) - convolve(right, left, p)


def test_sums_and_differences_keep_canonical_triples():
    for g, rng, z, (x, y) in cases(92):
        assert (x - x).is_zero() and not (x - x)._keys
        assert_canonical(x - x)
        kept = [(m, c) for m, c in z.terms.items() if rng.random() < 0.5]
        cancel = AlgElement(g, [(m, -c) for m, c in kept])
        for a, b in ((z, cancel), (x, y), (z, x)):
            s = a + b
            assert_canonical(s)
            assert_canonical(a - b)
            for p in points(rng, a, b, s):
                assert evaluate(s, p) == value_at(s, p) == value_at(a, p) + value_at(b, p)
                assert evaluate(a - b, p) == value_at(a, p) - value_at(b, p)


def test_scale_gauge_and_adjoint_keep_canonical_triples():
    for g, rng, z, (x, _) in cases(93):
        for a in (z, x):
            c, j = coeff(rng), rng.randint(-3, 3)
            scaled, rotated, star = a.scale(c), gauge(a, 4, j), adjoint(a)
            for b in (scaled, rotated, star):
                assert_canonical(b)
            for p in points(rng, a, scaled, rotated, star):
                assert evaluate(scaled, p) == value_at(a, p) * c
                assert evaluate(rotated, p) == value_at(a, p) * I_POWERS[j * p.k % 4]
                assert evaluate(star, p) == value_at(a, inverse(p)).conjugate()


def test_coefficient_reads_what_terms_holds():
    """coefficient(m) is .terms.get(m, ZERO) for every pair of paths, those
    with different sources, an unknown edge or an unknown anchor included."""
    rng, hits = make_rng(94), 0
    for _ in range(GRAPHS):
        g = random_graph(rng, max_vertices=3, max_in=2, sources=False)
        z = rand_element(g, rng, n_terms=6, max_len=2)
        sides = paths_up_to(g, 2) + [fpath("zz"), empty_path("zz")]
        for a in (z, normalize(z, beta_depth=2)):
            terms = a.terms
            for alpha in sides:
                for beta in sides:
                    m = CKMono(alpha, beta)
                    assert a.coefficient(m) == terms.get(m, ZERO)
            hits += len(terms)
            assert all(a.coefficient(m) == c for m, c in terms.items())
    assert hits > 2 * GRAPHS
