"""GaussianRational against a reference model on pairs of Fractions.

The model keeps the real and imaginary parts as two Fractions and applies
the textbook formulas, which is how the class itself was once written.  The
integer-triple class must agree with it on every operation and keep its
triple in lowest terms.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckcalc.scalars import ONE, ZERO, GaussianRational, as_gaussian


class RefGaussian:
    """a + b*i as two Fractions, with the formulas of the old scalar class."""

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, other):
        other = _ref(other)
        return RefGaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _ref(other)
        return RefGaussian(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = _ref(other)
        return RefGaussian(self.re * other.re - self.im * other.im,
                           self.re * other.im + self.im * other.re)

    def __neg__(self):
        return RefGaussian(-self.re, -self.im)

    def conjugate(self):
        return RefGaussian(self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def modulus_squared(self):
        return self.re * self.re + self.im * self.im

    def times_i_power(self, t):
        return [self, RefGaussian(-self.im, self.re), RefGaussian(-self.re, -self.im),
                RefGaussian(self.im, -self.re)][t % 4]

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (self.re, self.im)


def _ref(value):
    return value if isinstance(value, RefGaussian) else RefGaussian(value)


def assert_matches(got, want):
    assert type(got) is GaussianRational
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert (got.re, got.im) == (want.re, want.im)
    assert repr(got) == repr(want)
    a, b, d = got._triple
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and math.gcd(a, b, d) == 1


SMALL = st.integers(-50, 50)
RATIONALS = st.fractions(max_denominator=60).filter(lambda q: abs(q.numerator) < 10**6)
# Real operands as a caller may pass them: an int or a Fraction.
REALS = st.one_of(SMALL, RATIONALS)
# Constructor inputs: int, Fraction, or the text "p/q" Fraction parses.
PART_INPUTS = st.one_of(SMALL, RATIONALS, RATIONALS.map(lambda q: "%d/%d" % (
    q.numerator, q.denominator)))


@st.composite
def scalars(draw):
    re, im = draw(PART_INPUTS), draw(PART_INPUTS)
    return GaussianRational(re, im), RefGaussian(re, im)


@settings(max_examples=300, deadline=None)
@given(scalars(), scalars())
def test_arithmetic_matches_fraction_pairs(x, y):
    (gx, rx), (gy, ry) = x, y
    assert_matches(gx, rx)
    assert_matches(gx + gy, rx + ry)
    assert_matches(gx - gy, rx - ry)
    assert_matches(gx * gy, rx * ry)
    assert_matches(-gx, -rx)
    assert_matches(gx.conjugate(), rx.conjugate())
    for t in range(-5, 6):
        assert_matches(gx.times_i_power(t), rx.times_i_power(t))
    ms = gx.modulus_squared()
    assert type(ms) is Fraction and ms == rx.modulus_squared()
    assert gx.is_zero() == rx.is_zero()
    assert (gx == gy) == (rx == ry)
    assert (gx - gx).is_zero() and gx - gx == ZERO


@settings(max_examples=200, deadline=None)
@given(scalars(), REALS)
def test_mixed_operands_match(x, r):
    gx, rx = x
    assert_matches(gx + r, rx + r)
    assert_matches(r + gx, rx + r)
    assert_matches(gx - r, rx - r)
    assert_matches(gx * r, rx * r)
    assert_matches(r * gx, rx * r)
    assert_matches(as_gaussian(r), RefGaussian(r))


@settings(max_examples=100, deadline=None)
@given(st.lists(scalars(), min_size=1, max_size=8))
def test_sum_uses_radd(xs):
    want = RefGaussian()
    for _, r in xs:
        want = want + r
    assert_matches(sum(g for g, _ in xs), want)


@settings(max_examples=200, deadline=None)
@given(RATIONALS, RATIONALS, st.integers(1, 30))
def test_equal_values_are_equal_and_hash_equal(re, im, k):
    # The same value through three inputs, one of them unreduced text.
    a = GaussianRational(re, im)
    b = GaussianRational("%d/%d" % (re.numerator * k, re.denominator * k),
                         Fraction(im.numerator * k, im.denominator * k))
    c = GaussianRational(re + 1, im) - ONE
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert a._triple == b._triple == c._triple


def test_constructor_inputs_and_constants():
    assert_matches(GaussianRational(), RefGaussian())
    assert_matches(GaussianRational(3), RefGaussian(3))
    assert_matches(GaussianRational("6/4", "-2/8"), RefGaussian("3/2", "-1/4"))
    assert_matches(GaussianRational(Fraction(1, 2), 5), RefGaussian(Fraction(1, 2), 5))
    assert_matches(GaussianRational(True, 0), RefGaussian(1, 0))
    assert ZERO._triple == (0, 0, 1) and ONE._triple == (1, 0, 1)
    assert repr(GaussianRational("1/2", -3)) == "GaussianRational(1/2, -3)"
    assert GaussianRational(1) != 1
    with pytest.raises(ValueError):
        GaussianRational("x")
    with pytest.raises(ZeroDivisionError):
        GaussianRational("1/0")


def test_immutable():
    x = GaussianRational(1, 2)
    for name in ("re", "im", "_triple", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
    assert x == GaussianRational(1, 2)
