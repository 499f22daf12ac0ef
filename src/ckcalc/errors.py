"""Exception hierarchy. Every domain error carries a stable machine-readable code."""


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


def _int_arg(name, value, nonnegative=False):
    """value, if it is an int (a bool counts) and, when asked, not negative;
    otherwise BadInputError naming the parameter.  The public functions
    check their integer arguments with it."""
    if not isinstance(value, int) or nonnegative and value < 0:
        kind = "a nonnegative integer" if nonnegative else "an integer"
        raise BadInputError("%s must be %s, not %r" % (name, kind, value))
    return value
