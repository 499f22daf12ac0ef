"""Exact Gaussian-rational scalars.

Coefficients in the monomial algebra are complex numbers with rational real
and imaginary parts.  Each is held exactly as one integer triple
(re_num, im_num, den), the value (re_num + im_num*i) / den, with den > 0 and
gcd(re_num, im_num, den) == 1.  That form is canonical, so equal values have
equal triples, and arithmetic is integer arithmetic plus one gcd.  The parts
read back as fractions.Fraction values.  No floating point anywhere.

The algebra layer keeps the bare triples as its coefficients and builds a
GaussianRational only for its callers; _add, _mul and _times_i_power are the
arithmetic on triples, and the operators of GaussianRational wrap them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BadInputError, _Immutable


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


class GaussianRational(_Immutable):
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

    def __reduce__(self):
        return _of_triple, (self._triple,)

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
        return _of_triple(_add(self._triple, other._triple))

    def __sub__(self, other):
        return self + -as_gaussian(other)

    def __neg__(self):
        a, b, d = self._triple
        return _of_triple((-a, -b, d))

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = as_gaussian(other)
        return _of_triple(_mul(self._triple, other._triple))

    __radd__ = __add__
    __rmul__ = __mul__

    def conjugate(self):
        a, b, d = self._triple
        return _of_triple((a, -b, d))

    def is_zero(self):
        return self._triple == _ZERO

    def modulus_squared(self) -> Fraction:
        """|a + bi|^2, always an exact rational."""
        return _modulus_squared(self._triple)

    def times_i_power(self, t):
        """Multiply by i**t exactly."""
        return _of_triple(_times_i_power(self._triple, t))


_set_triple = GaussianRational._triple.__set__
_ZERO = (0, 0, 1)  # the triple of zero


def _of_triple(x):
    """The scalar with the triple x, which must already be canonical."""
    z = object.__new__(GaussianRational)
    _set_triple(z, x)
    return z


def _lowest(x):
    """The triple (a, b, d), any d > 0, brought to lowest terms."""
    a, b, d = x
    if d == 1:
        return x
    g = math.gcd(a, b, d)
    return x if g == 1 else (a // g, b // g, d // g)


def _add(x, y):
    """The triple of the sum of the values of two triples."""
    a, b, d = x
    c, e, f = y
    if d == f:
        return _lowest((a + c, b + e, d))
    return _lowest((a * f + c * d, b * f + e * d, d * f))


def _mul(x, y):
    """The triple of the product of the values of two triples."""
    a, b, d = x
    c, e, f = y
    return _lowest((a * c - b * e, a * e + b * c, d * f))


def _times_i_power(x, t):
    """The triple of the value of x times i**t."""
    a, b, d = x
    t = t % 4
    if t == 0:
        return x
    if t == 1:
        return -b, a, d
    if t == 2:
        return -a, -b, d
    return b, -a, d


def _modulus_squared(x) -> Fraction:
    a, b, d = x
    return Fraction(a * a + b * b, d * d)


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
