"""Cocycles induced by locally constant functions on the path space.

A depth-N function reads the first N edges of an infinite path.  The
induced cocycle at a point (x, k, y) is the telescoping sum

    sum_{j=0}^{k-1} f(S^j x)  +  sum_{j>=k} [ f(S^j x) - f(S^{j-k} y) ]

for k >= 0 (and minus the value at the inverse point for k < 0); beyond
the stabilization index the shifted paths coincide and the tail vanishes,
so the sum is finite and exact.  All values are plain rationals.  One
evaluator (_telescope) serves both signs of k, points, tailed pairs and pieces.
"""

from __future__ import annotations

from fractions import Fraction

from .ckalg import AlgElement, _refine
from .errors import (
    BadInputError,
    InvalidFunctionError,
    NotEqualizableError,
    PreconditionError,
    WindowTooShortError,
    _Immutable,
    _int_arg,
    _Record,
)
from .graph import _require_no_sources, strings_from_json_obj
from .paths import (
    EvPath,
    FinPath,
    GroupoidPoint,
    _agree_from,
    _walk,
    check_finpath,
    path_range,
    path_source,
)
from .scalars import format_rational, parse_rational, rational_from_json_obj


class LocallyConstantFn(_Immutable):
    """Depth-N function given by a total table on length-N edge words."""

    __slots__ = ("depth", "table")

    def __init__(self, depth, table):
        _int_arg("depth", depth, nonnegative=True)
        clean = {}
        try:
            for word, value in dict(table).items():
                word = tuple(word)
                if len(word) != depth:
                    raise BadInputError("table key %r does not have length %d" % (word, depth))
                clean[word] = parse_rational(value)
        except (TypeError, ValueError):  # no map of words, or an unhashable edge id
            raise BadInputError("table must map words of edge ids to values, not %r"
                                % (table,)) from None
        if depth == 0 and () not in clean:
            raise BadInputError("depth-0 function needs a value at the empty word")
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "table", clean)

    def __reduce__(self):
        return LocallyConstantFn, (self.depth, self.table)

    @classmethod
    def constant(cls, value) -> "LocallyConstantFn":
        return cls(0, {(): value})

    @classmethod
    def from_weights(cls, weights) -> "LocallyConstantFn":
        """Depth-1 function from an edge-id -> value map."""
        if not isinstance(weights, dict):
            raise BadInputError("weights must map edge ids to values, not %r" % (weights,))
        return cls(1, {(e,): v for e, v in weights.items()})

    def value_at(self, word) -> Fraction:
        word = tuple(word)
        if len(word) < self.depth:
            raise InvalidFunctionError(
                "word of length %d is shorter than depth %d" % (len(word), self.depth)
            )
        key = word[: self.depth]
        try:
            return self.table[key]
        except (KeyError, TypeError):  # TypeError: an unhashable edge id
            raise InvalidFunctionError("no table entry for %r" % (key,)) from None

    def value_on(self, x: EvPath) -> Fraction:
        return self.value_at(x.truncation(self.depth))

    def __repr__(self):
        return "LocallyConstantFn(depth=%d, %d entries)" % (self.depth, len(self.table))


def validate_total(g, f: LocallyConstantFn):
    """Make sure every length-depth path of the graph has a table entry."""
    for v in sorted(g.vertices):
        for word in _walk(g, v, f.depth):
            if word not in f.table:
                raise InvalidFunctionError("table misses path %r" % (word,))


class TailedPair(_Record):
    """Two paths sharing an unspecified tail after a common window.

    Represents x = prefix_x . window . T and y = prefix_y . window . T for
    an arbitrary common continuation T; cocycle values do not depend on T
    once the window is at least as long as the function depth.  The parts
    are plain edge words; graph validity is the caller's concern.
    """

    __slots__ = ("prefix_x", "prefix_y", "window")

    def __init__(self, prefix_x, prefix_y, window):
        self._init(prefix_x, prefix_y, window)

    @property
    def k(self):
        return len(self.prefix_x) - len(self.prefix_y)


def _telescope(f, xw, yw, k, stop) -> Fraction:
    """sum_{j<stop} f(x_j) - sum_{j<stop-k} f(y_j) for the depth-long windows x_j, y_j of xw,
    yw at j: the cocycle, for either sign of k, once x, y agree k apart past stop."""
    d = f.depth
    total = Fraction(0)
    for j in range(stop):
        total += f.value_at(xw[j: j + d])
    for j in range(stop - k):
        total -= f.value_at(yw[j: j + d])
    return total


def eval_cocycle_tailed(f: LocallyConstantFn, tp: TailedPair) -> Fraction:
    """Exact cocycle value on the family of points a tailed pair describes."""
    if len(tp.window) < f.depth:
        raise WindowTooShortError(
            "window %d shorter than depth %d" % (len(tp.window), f.depth)
        )
    w = tp.window.edges
    return _telescope(f, tp.prefix_x.edges + w, tp.prefix_y.edges + w, tp.k, len(tp.prefix_x))


def eval_cocycle(f: LocallyConstantFn, point: GroupoidPoint) -> Fraction:
    """Exact cocycle value at an eventually periodic groupoid point.

    From index stop on, x and y agree k steps apart, so the tail vanishes.
    """
    x, k, y = point.x, point.k, point.y
    stop = _agree_from(x, k, y)
    return _telescope(
        f, x.truncation(stop + f.depth), y.truncation(stop - k + f.depth), k, stop
    )


def reconstruct_f(g, f: LocallyConstantFn):
    """Check f(x) == cocycle(x, 1, Sx) at every infinite path x, exactly.

    Each x is e.w.T for an edge e and a depth-long window w into s(e): the
    points (e.w.T, 1, w.T) form the basic set of (e, s(e)) refined by w, and
    both sides are constant there, so one check per piece covers every x.
    Returns (ok, failures) where failures lists (FinPath e.w, expected, got).
    A graph with sources is refused, as everywhere in the algebra.
    """
    _require_no_sources(g, "the cocycle layer")
    failures = []
    for e in g.edges:
        for (_, word, _), got in _cocycle_pieces(g, f, (e.source, (e.id,), ())):
            expected = f.value_at(word)
            if got != expected:
                failures.append((FinPath(word), expected, got))
    return not failures, failures


class LoopGrowthReport(_Record):
    __slots__ = ("base", "verified", "unbounded")

    def __init__(self, base, verified, unbounded):
        self._init(base, verified, unbounded)


def loop_growth(f: LocallyConstantFn, x: EvPath, period) -> LoopGrowthReport:
    """Linear growth of the cocycle along the powers of a periodic point.

    `base` is the exact cycle sum c(x, period, x); the telescope makes
    c(x, k*period, x) = k * base for every k, so `verified` always holds.
    """
    if x.prefix:
        raise PreconditionError("loop growth needs a purely periodic path")
    if _int_arg("period", period) < 1 or period % len(x.cycle) != 0:
        raise PreconditionError(
            "period must be a positive multiple of the primitive cycle length"
        )
    n = len(x.cycle)
    base = period // n * eval_cocycle(f, GroupoidPoint(x, n, x))
    return LoopGrowthReport(base=base, verified=True, unbounded=base != 0)


def acyclic_weights(edge_ids):
    """Geometric weights 3^-i on a loop-free edge list, largest first.

    Each weight strictly dominates the sum of all smaller ones, which is
    what forces cocycle values built from them to be nonzero whenever the
    two prefixes differ as edge multisets.  That needs no check: the
    weights after 3^-(i+1) sum to less than 3^-(i+1) / 2.
    """
    edge_ids = strings_from_json_obj(edge_ids, "edge ids")
    if len(set(edge_ids)) != len(edge_ids):
        raise BadInputError("edge ids must be distinct")
    if not edge_ids:
        raise BadInputError("need at least one edge")
    return {e: Fraction(1, 3 ** (i + 1)) for i, e in enumerate(edge_ids)}


class ObstructionWitness(_Record):
    """Pair of paths witnessing the integer-multiple window obstruction."""

    __slots__ = ("x", "y", "window", "loop_alpha", "loop_beta")

    def __init__(self, x, y, window, loop_alpha, loop_beta):
        self._init(x, y, window, loop_alpha, loop_beta)


def _bfs_connector(g, start, goal) -> FinPath:
    """Shortest path with range start and source goal != start, in edge-list order."""
    frontier = [(start, ())]
    seen = {start}
    while frontier:
        nxt = []
        for v, word in frontier:
            for eid, source in g._in_ids[v]:
                if source in seen:
                    continue
                w2 = word + (eid,)
                if source == goal:
                    return FinPath(w2)
                seen.add(source)
                nxt.append((source, w2))
        frontier = nxt
    raise NotEqualizableError("no path from %r to %r" % (start, goal))


def _loop_check(g, p: FinPath, name):
    check_finpath(g, p)
    if p.is_empty or path_range(g, p) != path_source(g, p):
        raise PreconditionError("%s must be a nonempty loop" % name)


def equalize_loops(g, alpha: FinPath, beta: FinPath):
    """Bring two loops to a common base vertex and a common length."""
    _loop_check(g, alpha, "alpha")
    _loop_check(g, beta, "beta")
    if path_range(g, alpha) != path_range(g, beta):
        gam = _bfs_connector(g, path_range(g, alpha), path_range(g, beta))
        gam2 = _bfs_connector(g, path_range(g, beta), path_range(g, alpha))
        beta = FinPath(gam.edges + beta.edges + gam2.edges)
    la, lb = len(alpha), len(beta)
    if la != lb:
        alpha, beta = FinPath(alpha.edges * lb), FinPath(beta.edges * la)
    return alpha, beta


def integer_obstruction_witness(g, alpha: FinPath, beta: FinPath, ell) -> ObstructionWitness:
    """Construct the path pair on which every depth-N telescoping sum dies.

    N = ell * k where k is the common loop length after equalization; the
    witness is x = a^ell a b a^ell b^inf against y = a^ell b a a^ell b^inf.
    """
    if _int_arg("multiplicity ell", ell) < 2:
        raise PreconditionError("multiplicity ell must be at least 2")
    alpha, beta = equalize_loops(g, alpha, beta)
    if not (set(beta.edges) - set(alpha.edges)):
        raise PreconditionError("beta must contain an edge alpha lacks")
    a, b = alpha.edges, beta.edges
    k = len(a)
    x = EvPath(a * ell + a + b + a * ell, b)
    y = EvPath(a * ell + b + a + a * ell, b)
    return ObstructionWitness(
        x=x, y=y, window=ell * k, loop_alpha=alpha, loop_beta=beta
    )


def _cocycle_pieces(g, f: LocallyConstantFn, key):
    """Refine the basic set of a monomial key by every window w of the
    function depth into its source, yielding (the piece's key, the cocycle's
    value on it): the value of the tailed pair (alpha, beta, w)."""
    _, a, b = key
    for piece in _refine(g, key, f.depth):
        yield piece, _telescope(f, piece[1], piece[2], len(a) - len(b), len(a))


def cocycle_graded_projection(f: LocallyConstantFn, a, value) -> AlgElement:
    """Part of an element supported where the cocycle equals the given value.

    Refines each monomial by continuation windows of the function depth;
    the cocycle is constant on each refined piece, so the projection is an
    exact selection of pieces.  With f constant 1 this is the usual grading.
    """
    value = parse_rational(value)
    # Distinct keys refine into distinct pieces, so none is listed twice.
    return AlgElement._of_merged(a.graph, {
        piece: coeff for key, coeff in a._keys.items()
        for piece, piece_value in _cocycle_pieces(a.graph, f, key) if piece_value == value})


def fn_to_json_obj(f: LocallyConstantFn):
    table = [
        {"path": list(word), "value": format_rational(v)}
        for word, v in sorted(f.table.items())
    ]
    return {"depth": f.depth, "table": table}


def fn_from_json_obj(obj) -> LocallyConstantFn:
    if not isinstance(obj, dict) or "depth" not in obj or not isinstance(obj.get("table"), list):
        raise BadInputError("function JSON needs depth and table")
    depth = obj["depth"]
    if not isinstance(depth, int) or isinstance(depth, bool):
        raise BadInputError("function depth must be an integer, not %r" % (depth,))
    table = {}
    for item in obj["table"]:
        if not isinstance(item, dict) or "path" not in item or "value" not in item:
            raise BadInputError("table entries need path and value")
        word = strings_from_json_obj(item["path"], "table path")
        if word in table:
            raise BadInputError("table repeats path %r" % (word,))
        table[word] = rational_from_json_obj(item["value"])
    return LocallyConstantFn(depth, table)
