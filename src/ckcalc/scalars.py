"""Exact Gaussian-rational scalars.

Coefficients in the monomial algebra are complex numbers with rational real
and imaginary parts.  Each is held exactly as one integer triple
(re_num, im_num, den), the value (re_num + im_num*i) / den, with den > 0 and
gcd(re_num, im_num, den) == 1.  That form is canonical, so equal values have
equal triples, and arithmetic is integer arithmetic plus one gcd.  The parts
read back as fractions.Fraction values.  No floating point anywhere.
"""

from __future__ import annotations

import math
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

    __slots__ = ("_triple",)

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            _set_triple(self, (re, im, 1))
            return
        # Fraction(x) of an exact Fraction is a costly copy.
        re = re if type(re) is Fraction else Fraction(re)
        im = im if type(im) is Fraction else Fraction(im)
        # Parts in lowest terms over the lcm of their denominators leave no
        # common factor with it.
        den = math.lcm(re.denominator, im.denominator)
        _set_triple(self, (re.numerator * (den // re.denominator),
                           im.numerator * (den // im.denominator), den))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return _trusted, self._triple

    @property
    def re(self) -> Fraction:
        a, _, d = self._triple
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._triple
        return Fraction(b, d)

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (self.re, self.im)

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._triple == other._triple

    def __hash__(self):
        return hash(self._triple)

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = as_gaussian(other)
        a, b, d = self._triple
        c, e, f = other._triple
        if d == f:
            return _lowest(a + c, b + e, d)
        return _lowest(a * f + c * d, b * f + e * d, d * f)

    def __sub__(self, other):
        return self + -as_gaussian(other)

    def __neg__(self):
        a, b, d = self._triple
        return _trusted(-a, -b, d)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = as_gaussian(other)
        a, b, d = self._triple
        c, e, f = other._triple
        return _lowest(a * c - b * e, a * e + b * c, d * f)

    __radd__ = __add__
    __rmul__ = __mul__

    def conjugate(self):
        a, b, d = self._triple
        return _trusted(a, -b, d)

    def is_zero(self):
        return self._triple == (0, 0, 1)

    def modulus_squared(self) -> Fraction:
        """|a + bi|^2, always an exact rational."""
        a, b, d = self._triple
        return Fraction(a * a + b * b, d * d)

    def times_i_power(self, t):
        """Multiply by i**t exactly."""
        t = t % 4
        if t == 0:
            return self
        a, b, d = self._triple
        if t == 1:
            return _trusted(-b, a, d)
        if t == 2:
            return _trusted(-a, -b, d)
        return _trusted(b, -a, d)


_set_triple = GaussianRational._triple.__set__


def _trusted(a, b, d):
    """The scalar with triple (a, b, d), which must already be canonical."""
    z = object.__new__(GaussianRational)
    _set_triple(z, (a, b, d))
    return z


def _lowest(a, b, d):
    """The scalar (a + b*i) / d for any d > 0, brought to lowest terms."""
    if d == 1:
        return _trusted(a, b, 1)
    g = math.gcd(a, b, d)
    if g == 1:
        return _trusted(a, b, d)
    return _trusted(a // g, b // g, d // g)


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
    r = math.isqrt(n)
    return r if r * r == n else None
