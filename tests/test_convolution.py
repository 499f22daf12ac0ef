"""The groupoid model as an independent oracle of the algebra.

An element is a function on the path groupoid, and the product is the
groupoid convolution.  Each identity below is checked at points drawn from
the basic sets of the operands' and the results' terms, on seeded random
graphs without sources, against helpers.value_at and helpers.convolve,
which read the public term maps with their own basic-set test.
"""

import pytest

from ckcalc.ckalg import adjoint, evaluate, gauge, normalize, phi_m, support_spectrum
from ckcalc.nest import commutator
from ckcalc.paths import inverse
from ckcalc.scalars import ZERO, GaussianRational

from helpers import (
    convolve,
    in_basic_set,
    make_rng,
    point_in,
    rand_element,
    random_graph,
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
