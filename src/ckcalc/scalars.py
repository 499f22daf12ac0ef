"""Exact Gaussian-rational scalars.

Coefficients in the monomial algebra are complex numbers with rational real
and imaginary parts, held exactly as a pair of fractions.Fraction values.
No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadInputError


def parse_rational(text) -> Fraction:
    """Parse "p/q" or "p" into an exact Fraction."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise BadInputError("not a rational: %r" % (text,)) from exc


def rational_from_json_obj(value) -> Fraction:
    """parse_rational for JSON input, where a rational must be a string."""
    if not isinstance(value, str):
        raise BadInputError("rationals must be strings like \"1/2\", not %r" % (value,))
    return parse_rational(value)


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" (or "p" when integral) rendering."""
    return str(Fraction(value))


class GaussianRational:
    """Immutable a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # Fraction(x) of an exact Fraction is a costly copy.
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (self.re, self.im)

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        other = as_gaussian(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = as_gaussian(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = as_gaussian(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def modulus_squared(self) -> Fraction:
        """|a + bi|^2, always an exact rational."""
        return self.re * self.re + self.im * self.im

    def times_i_power(self, t):
        """Multiply by i**t exactly."""
        t = t % 4
        if t == 0:
            return self
        if t == 1:
            return GaussianRational(-self.im, self.re)
        if t == 2:
            return GaussianRational(-self.re, -self.im)
        return GaussianRational(self.im, -self.re)


ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)


def as_gaussian(value) -> GaussianRational:
    """Coerce int / Fraction / GaussianRational to GaussianRational."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value, 0)
    raise BadInputError("cannot coerce %r to a Gaussian rational" % (value,))


def rational_sqrt(value: Fraction):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn = _isqrt_exact(num)
    rd = _isqrt_exact(den)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _isqrt_exact(n):
    import math

    r = math.isqrt(n)
    return r if r * r == n else None
