"""The groupoid model as an independent oracle of the algebra.

An element is a function on the path groupoid, and the product is the
groupoid convolution.  Each identity below is checked at points drawn from
the basic sets of the operands' and the results' terms, on seeded random
graphs without sources, against helpers.value_at and helpers.convolve,
which read the public term maps with their own basic-set test.  The
evaluate tests reach the cases its single read of the point must get right:
refined listings, isotropy points, prefixes longer than every term, and
terms with an empty path, whose vertex the point's range must match.
"""

import pytest

from ckcalc.ckalg import (
    AlgElement,
    CKMono,
    adjoint,
    evaluate,
    gauge,
    normalize,
    phi_m,
    support_spectrum,
)
from ckcalc.nest import commutator
from ckcalc.paths import (
    EvPath,
    FinPath,
    GroupoidPoint,
    _path,
    inverse,
    join_paths,
    path_source,
    prepend,
)
from ckcalc.scalars import ZERO, GaussianRational

from helpers import (
    convolve,
    in_basic_set,
    make_rng,
    point_in,
    rand_coeff,
    rand_element,
    random_graph,
    random_tail,
    value_at,
)

GRAPHS = 30

# i**t for t mod 4, written out rather than read from the scalar layer.
I_POWERS = [GaussianRational(1), GaussianRational(0, 1), GaussianRational(-1),
            GaussianRational(0, -1)]


def cases(seed):
    """Two random elements on each of GRAPHS random graphs without sources,
    with a random generator for the points."""
    rng = make_rng(seed)
    for _ in range(GRAPHS):
        g = random_graph(rng, max_vertices=3, max_in=2, sources=False)
        yield rand_element(g, rng, max_len=2), rand_element(g, rng, max_len=2), rng


def points(rng, *elements, per_term=2):
    """Points drawn from the basic sets of every term of the elements."""
    return [point_in(e.graph, m, rng) for e in elements for m in e.terms
            for _ in range(per_term)]


@pytest.mark.parametrize("seed", [71, 72])
def test_product_is_the_convolution(seed):
    for a, b, rng in cases(seed):
        ab = a * b
        for p in points(rng, a, b, ab):
            assert evaluate(ab, p) == value_at(ab, p) == convolve(a, b, p)


def test_commutator_is_the_convolution_difference():
    for a, b, rng in cases(73):
        c = commutator(a, b)
        for p in points(rng, a, b, c):
            assert evaluate(c, p) == convolve(a, b, p) - convolve(b, a, p)


def test_adjoint_conjugates_at_the_inverse_point():
    for a, _, rng in cases(74):
        star = adjoint(a)
        for p in points(rng, a, star):
            assert evaluate(star, p) == value_at(a, inverse(p)).conjugate()


def test_refined_listings_keep_the_values():
    for a, b, rng in cases(75):
        x = a + b * a
        for depth in range(3):
            listing = normalize(x, beta_depth=depth)
            for p in points(rng, x, listing, per_term=1):
                assert value_at(listing, p) == value_at(x, p) == evaluate(x, p)


def test_support_spectrum_covers_the_nonzero_points():
    for a, b, rng in cases(76):
        x = a + b
        spectrum = support_spectrum(x)
        for p in points(rng, a, b, x):
            covered = any(in_basic_set(x.graph, p, c) for c in spectrum.cylinders)
            assert covered == (not value_at(x, p).is_zero())


def test_gauge_rotates_each_point_by_its_degree():
    for a, _, rng in cases(77):
        for n, j in ((1, 3), (2, 1), (4, 1), (4, -3), (4, 6)):
            rotated = gauge(a, n, j)
            for p in points(rng, a, rotated, per_term=1):
                want = value_at(a, p) * I_POWERS[(4 // n) * j * p.k % 4]
                assert evaluate(rotated, p) == value_at(rotated, p) == want


def test_graded_part_restricts_to_one_degree():
    for a, b, rng in cases(78):
        x = a + b * a
        parts = {m: phi_m(x, m) for m in range(-3, 4)}
        for p in points(rng, x, *parts.values()):
            for m, part in parts.items():
                want = value_at(x, p) if p.k == m else ZERO
                assert evaluate(part, p) == value_at(part, p) == want


def graphs(seed, min_vertices=1):
    """GRAPHS random graphs without sources, with at least min_vertices."""
    rng = make_rng(seed)
    count = 0
    while count < GRAPHS:
        g = random_graph(rng, max_vertices=3, max_in=2, sources=False)
        if len(g.vertices) >= min_vertices:
            count += 1
            yield g, rng


def test_evaluate_is_the_term_scan_on_refined_listings():
    for g, rng in graphs(79):
        a = rand_element(g, rng, max_len=2)
        listings = [a] + [normalize(a, beta_depth=d) for d in range(3)]
        for p in points(rng, *listings, per_term=1):
            for x in listings:
                assert evaluate(x, p) == value_at(x, p) == value_at(a, p)


def test_evaluate_at_isotropy_points():
    # Terms (c^j w, w) and (w, c^j w) for the prefixes w of z = c c c ...
    # hold (z, j|c|, z) and (z, -j|c|, z); the range check meets the empty w.
    for g, rng in graphs(80):
        z = EvPath((), random_tail(g, rng.choice(g.vertices), rng).cycle)
        n = len(z.cycle)
        terms = []
        for j in (1, 2):
            for m in range(n + 2):
                src = g.source_of(z.edge_at(m + j * n))
                long, short = FinPath(z.truncation(m + j * n)), _path(z.truncation(m), src)
                terms += [(CKMono(long, short), rand_coeff(rng)),
                          (CKMono(short, long), rand_coeff(rng))]
        a = AlgElement(g, terms) + rand_element(g, rng, max_len=2)
        for x in (a, normalize(a, beta_depth=1)):
            for j in (1, 2, 3):
                for p in (GroupoidPoint(z, j * n, z), GroupoidPoint(z, -j * n, z)):
                    assert evaluate(x, p) == value_at(x, p)


def test_evaluate_walks_back_from_long_prefixes():
    # (alpha c w, |alpha| - |beta|, beta c w) with c longer than every term:
    # both prefixes pass every term, and the tails agree from |alpha| on.
    for g, rng in graphs(81):
        a = rand_element(g, rng, max_len=2)
        for m in a.terms:
            c = FinPath(random_tail(g, path_source(g, m.alpha), rng).truncation(rng.randint(3, 5)))
            w = random_tail(g, g.source_of(c.edges[-1]), rng)
            p = GroupoidPoint(prepend(join_paths(m.alpha, c), w), m.degree,
                              prepend(join_paths(m.beta, c), w))
            assert in_basic_set(g, p, m)
            assert evaluate(a, p) == value_at(a, p)


def test_evaluate_matches_the_vertex_of_empty_paths():
    # Each p_v with its own coefficient: at (x, 0, x) only the range of x counts.
    for g, rng in graphs(82, min_vertices=2):
        weight = {v: GaussianRational(i + 1) for i, v in enumerate(g.vertices)}
        weights = AlgElement(g, [(CKMono(_path((), v), _path((), v)), c)
                                 for v, c in weight.items()])
        a = weights + rand_element(g, rng, max_len=2)
        for v in g.vertices:
            x = random_tail(g, v, rng)
            p = GroupoidPoint(x, 0, x)
            assert evaluate(weights, p) == weight[v]
            assert evaluate(a, p) == value_at(a, p)
        for p in points(rng, a):
            assert evaluate(a, p) == value_at(a, p)


def test_evaluate_sums_every_term_of_a_nested_listing():
    # A listing kept as is (as a pickle keeps one) may nest basic sets; each
    # term that holds the point counts, not only the first one met.
    for g, rng in graphs(83):
        a = rand_element(g, rng, max_len=1)
        nested = AlgElement._trusted(g, {**a._keys, **normalize(a, beta_depth=2)._keys})
        for p in points(rng, a, per_term=3):
            assert evaluate(nested, p) == value_at(nested, p) == value_at(a, p) * 2
