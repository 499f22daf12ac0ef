"""Exception hierarchy, the integer-argument check and the immutable bases.

Every domain error carries a stable machine-readable code."""

from operator import attrgetter


class CkError(Exception):
    """Base for all domain errors raised by this package."""

    code = "error"

    def __init__(self, message):
        super().__init__(message)
        self.message = message


class BadInputError(CkError):
    """Malformed JSON or structurally invalid input data."""

    code = "bad_input"


class InvalidGraphError(CkError):
    code = "invalid_graph"


class InvalidPathError(CkError):
    """Edge sequence is not a path of the given graph."""

    code = "invalid_path"


class ComposeMismatchError(CkError):
    """Concatenation endpoints do not match."""

    code = "compose_mismatch"


class LengthMismatchError(CkError):
    """Lexicographic comparison of finite paths of different lengths."""

    code = "length_mismatch"


class NotComposableError(CkError):
    """Groupoid composition with mismatched middle points."""

    code = "not_composable"


class InvalidPointError(CkError):
    """Triple (x, k, y) fails shift-tail equivalence."""

    code = "invalid_point"


class UnsupportedRootError(CkError):
    """Gauge rotation order without exact rational representation."""

    code = "unsupported_root"


class UnsupportedNormError(CkError):
    """Restricted norm outside the orthogonal-sum form it supports."""

    code = "unsupported_norm"


class SearchFailureError(CkError):
    """Separating-projection search exhausted its candidate space."""

    code = "search_failure"


class WindowTooShortError(CkError):
    """Tailed pair whose shared window is shorter than the function depth."""

    code = "window_too_short"


class NotEqualizableError(CkError):
    """Loops that cannot be brought to a common base and length."""

    code = "not_equalizable"


class InvalidFunctionError(CkError):
    """Locally constant function table missing a required entry."""

    code = "invalid_function"


class OutOfRangeError(CkError):
    """Index (nest level cut position, grading degree bound) out of range."""

    code = "out_of_range"


class PreconditionError(CkError):
    """Operation called outside its documented domain."""

    code = "precondition_violation"


class TooLargeError(CkError):
    """A request whose answer or working set does not fit in memory."""

    code = "too_large"


def _int_arg(name, value, nonnegative=False):
    """value, if it is an int (a bool counts) and, when asked, not negative;
    otherwise BadInputError naming the parameter.  The public functions
    check their integer arguments with it."""
    if not isinstance(value, int) or nonnegative and value < 0:
        kind = "a nonnegative integer" if nonnegative else "an integer"
        raise BadInputError("%s must be %s, not %r" % (name, kind, value))
    return value


class _Immutable:
    """Base whose instances refuse to assign or delete an attribute."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__


class _Record(_Immutable):
    """Base of the immutable value and report classes.

    A subclass names its fields in __slots__ and sets each one once in
    __init__, through object.__setattr__ or _init.  An instance equals only
    an instance of its own class with equal fields, hashes as the tuple of
    its fields, and reprs, copies and pickles by its fields (so loading
    runs __init__ and its checks again).  Each class reads its fields
    through one getter, _fields, built once: _fields(x) is the tuple of
    x's fields.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__match_args__ = cls.__slots__
        # An attrgetter of one name returns the bare value, not a 1-tuple.
        cls._fields = attrgetter(*names) if len(names) > 1 else staticmethod(
            lambda x: tuple(getattr(x, name) for name in names))

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), self._fields(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))
