"""Finite paths, eventually periodic infinite paths, and groupoid points.

Infinite paths are represented exactly by a finite prefix plus a repeating
cycle of edge ids.  The representation is canonical: the cycle is primitive
(not a power of a shorter word) and the prefix cannot be shortened by
rotating the cycle.  With that normal form, equality of infinite paths is
equality of representations.

A groupoid point is a triple (x, k, y) of two infinite paths and an integer
such that x and y agree k steps apart far enough out; the constructor
checks that invariant, so every GroupoidPoint in circulation is a genuine
point of the shift groupoid.
"""

from __future__ import annotations

import math

from .errors import (
    BadInputError,
    ComposeMismatchError,
    InvalidPathError,
    InvalidPointError,
    LengthMismatchError,
    NotComposableError,
    _int_arg,
    _Record,
)
from .graph import OrderedGraph, _require_no_sources, _require_order, strings_from_json_obj


class FinPath(_Record):
    """A finite edge word; empty paths carry the vertex they sit at."""

    __slots__ = ("edges", "anchor")

    def __init__(self, edges, anchor=None):
        edges = tuple(edges)
        if edges and anchor is not None:
            raise BadInputError("anchor is only for empty paths")
        if not edges and anchor is None:
            raise BadInputError("empty path needs an anchor vertex")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "anchor", anchor)

    def __len__(self):
        return len(self.edges)

    @property
    def is_empty(self):
        return not self.edges

    def word_starts_with(self, other: "FinPath") -> bool:
        """Word-level prefix test; an empty path is a prefix of anything."""
        if other.is_empty:
            return True
        return self.edges[: len(other.edges)] == other.edges

    def __repr__(self):
        if self.is_empty:
            return "FinPath(()@%s)" % self.anchor
        return "FinPath(%s)" % ("".join(self.edges) if all(
            len(e) == 1 for e in self.edges) else ",".join(self.edges))


def fpath(*edge_ids) -> FinPath:
    return FinPath(tuple(edge_ids))


def empty_path(vertex) -> FinPath:
    return FinPath((), vertex)


def _path(edges, vertex) -> FinPath:
    """The path with these edges, or the empty path at vertex if none."""
    return FinPath(edges) if edges else FinPath((), vertex)


def _primitive_root(word):
    """The shortest word whose power is word."""
    n = len(word)
    for d in range(1, n):
        if n % d == 0 and word[:d] * (n // d) == word:
            return word[:d]
    return word


def join_paths(left: FinPath, tail: FinPath) -> FinPath:
    """left then tail, for a tail whose range is the source of left."""
    if tail.is_empty:
        return left
    if left.is_empty:
        return tail
    return FinPath(left.edges + tail.edges)


def _check_chain(g, word):
    """Raise unless every edge exists and each one chains onto the next.

    An unknown edge is reported before a break in the chain.  Each edge is
    one dict lookup: evaluate and the nest spectrum check every point."""
    edges = g._edge_by_id
    try:
        known = edges.keys() >= set(word)
    except TypeError:  # an unhashable id, which g.edge reports
        known = False
    if not known:
        for eid in word:
            g.edge(eid)  # raises at the first unknown id
    prev = None
    for eid in word:
        e = edges[eid]
        if prev is not None and e.range != prev.source:
            raise InvalidPathError("edges %r then %r do not chain" % (prev.id, eid))
        prev = e


def check_finpath(g, p: FinPath):
    """Raise InvalidPathError unless p is a path of g."""
    if p.is_empty:
        if p.anchor not in g.vertex_set:
            raise InvalidPathError("anchor %r is not a vertex" % p.anchor)
    _check_chain(g, p.edges)


def path_range(g, p: FinPath):
    return p.anchor if p.is_empty else g.range_of(p.edges[0])


def path_source(g, p: FinPath):
    return p.anchor if p.is_empty else g.source_of(p.edges[-1])


def concat(g, a: FinPath, b: FinPath) -> FinPath:
    """a followed by b; requires source(a) == range(b)."""
    if path_source(g, a) != path_range(g, b):
        raise ComposeMismatchError(
            "cannot concatenate: source %r != range %r"
            % (path_source(g, a), path_range(g, b))
        )
    return join_paths(a, b)


class EvPath(_Record):
    """Canonical eventually periodic infinite path."""

    __slots__ = ("prefix", "cycle")

    def __init__(self, prefix, cycle):
        prefix = tuple(prefix)
        cycle = tuple(cycle)
        if not cycle:
            raise BadInputError("eventually periodic path needs a nonempty cycle")
        prefix = list(prefix)
        cycle = list(_primitive_root(cycle))
        while prefix and prefix[-1] == cycle[-1]:
            prefix.pop()
            cycle = [cycle[-1]] + cycle[:-1]
        object.__setattr__(self, "prefix", tuple(prefix))
        object.__setattr__(self, "cycle", tuple(cycle))

    def __repr__(self):
        return "EvPath(%r + %r*)" % (list(self.prefix), list(self.cycle))

    def edge_at(self, i) -> str:
        """1-indexed edge id of the infinite word."""
        if i < 1:
            raise BadInputError("positions are 1-indexed")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.cycle[(i - len(self.prefix) - 1) % len(self.cycle)]

    def truncation(self, n) -> tuple:
        """The first n edges (none for n <= 0), sliced from enough cycles."""
        if n <= 0:
            return ()
        return (self.prefix + self.cycle * (n // len(self.cycle) + 1))[:n]


def ev(prefix, cycle) -> EvPath:
    return EvPath(prefix, cycle)


def check_evpath(g, x: EvPath):
    _check_chain(g, x.prefix + x.cycle + x.cycle[:1])


def ev_range(g, x: EvPath):
    return g.range_of(x.edge_at(1))


def shift(x: EvPath) -> EvPath:
    """Drop the first edge."""
    return shift_n(x, 1)


def shift_n(x: EvPath, n) -> EvPath:
    if _int_arg("shift", n, nonnegative=True) <= len(x.prefix):
        return EvPath(x.prefix[n:], x.cycle)
    m = (n - len(x.prefix)) % len(x.cycle)
    return EvPath((), x.cycle[m:] + x.cycle[:m])


def prepend(p: FinPath, x: EvPath) -> EvPath:
    """The infinite path reading p then x."""
    return EvPath(p.edges + x.prefix, x.cycle)


def _s_extremal(og: OrderedGraph, word, side) -> bool:
    """Whether the nonempty path p with this edge word is s-minimal (side 0)
    or s-maximal (side 1), in any edge order on a graph without sources.
    The least (greatest) peer starts with f, the least (greatest) in-edge of
    s(p), and takes the least (greatest) in-edge at each step.  So unless p
    starts with f, its first edge decides against f; if it does, p is closed,
    and is that peer iff each edge is the least (greatest) in-edge of its range."""
    extreme, position = og._extreme_in, og._position
    first = extreme[og._edge_by_id[word[-1]].source][side]
    if word[0] != first:
        return (position[word[0]] < position[first]) == (side == 0)
    return all(extreme[og._range[e]][side] == e for e in word)


def _s_word(og: OrderedGraph, p: FinPath):
    """The edges of p, a nonempty path of an ordered graph without sources."""
    if p.is_empty:
        raise BadInputError("s-extremal tests need a nonempty path")
    _require_order(og, "the s-extremal tests")
    _require_no_sources(og, "the s-extremal tests")
    _check_chain(og, p.edges)
    return p.edges


def is_s_minimal(og: OrderedGraph, p: FinPath) -> bool:
    """Whether p comes first among equal-length paths into its source.

    The competitors are the paths of length |p| whose range is s(p): the
    paths p can be extended by.  A graph with sources raises
    PreconditionError, and a word that is no path of og InvalidPathError.
    """
    return _s_extremal(og, _s_word(og, p), 0)


def is_s_maximal(og: OrderedGraph, p: FinPath) -> bool:
    """Whether p comes last among equal-length paths into its source."""
    return _s_extremal(og, _s_word(og, p), 1)


def sim_k(x: EvPath, k, y: EvPath) -> bool:
    """True iff x[i+k] == y[i] for all large i."""
    n0 = max(len(x.prefix) - _int_arg("degree k", k), len(y.prefix), 0) + 1
    span = math.lcm(len(x.cycle), len(y.cycle))
    return all(x.edge_at(i + k) == y.edge_at(i) for i in range(n0, n0 + span))


def _agree_from(x: EvPath, k, y: EvPath):
    """The least n >= max(k, 0) with S^n x == S^(n-k) y, for x ~k y: walk
    back from past both prefixes while the edges before n agree."""
    n, low = max(k, 0, len(x.prefix), len(y.prefix) + k), max(k, 0)
    while n > low and x.edge_at(n) == y.edge_at(n - k):
        n -= 1
    return n


class GroupoidPoint(_Record):
    __slots__ = ("x", "k", "y")

    def __init__(self, x, k, y):
        if not sim_k(x, k, y):
            raise InvalidPointError("paths are not shift-equivalent at degree %d" % k)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "y", y)


def compose(g1: GroupoidPoint, g2: GroupoidPoint) -> GroupoidPoint:
    if g1.y != g2.x:
        raise NotComposableError("middle paths differ")
    return GroupoidPoint(g1.x, g1.k + g2.k, g2.y)


def inverse(g: GroupoidPoint) -> GroupoidPoint:
    return GroupoidPoint(g.y, -g.k, g.x)


def _level_key(og: OrderedGraph, word, anchor):
    """Sort key of a level atom given as a raw edge word, or as the vertex
    anchoring an empty word: the atoms of one level sort as their keys."""
    if word:
        return tuple(og.pos(e) for e in word)
    return og.vertex_pos(anchor)


def lex_compare(x, y, og: OrderedGraph) -> int:
    """-1/0/1 comparison in the edge order; paths must be the same kind.

    The edges of both are checked against og first.  Finite
    paths must have equal length; empty paths compare by the vertex block
    order their anchors occupy.  Eventually periodic paths compare
    edgewise past both prefixes for p + q - gcd(p, q) more edges, p and q
    the cycle lengths: two words of periods p and q that agree that far
    agree forever (Fine and Wilf), so no later edge can differ.
    A graph without an edge order raises PreconditionError.
    """
    _require_order(og, "lex compare")
    if isinstance(x, FinPath) and isinstance(y, FinPath):
        _check_chain(og, x.edges)
        _check_chain(og, y.edges)
        if len(x) != len(y):
            raise LengthMismatchError("lex compare needs equal lengths")
        if x.is_empty:
            a, b = _level_key(og, (), x.anchor), _level_key(og, (), y.anchor)
            return (a > b) - (a < b)
        pairs = zip(x.edges, y.edges)
    elif isinstance(x, EvPath) and isinstance(y, EvPath):
        check_evpath(og, x)
        check_evpath(og, y)
        p, q = len(x.cycle), len(y.cycle)
        bound = max(len(x.prefix), len(y.prefix)) + p + q - math.gcd(p, q)
        pairs = zip(x.truncation(bound), y.truncation(bound))
    else:
        raise BadInputError("lex compare needs two paths of the same kind")
    for a, b in pairs:
        if a != b:
            return -1 if og.pos(a) < og.pos(b) else 1
    return 0


def _walk(g, v, length):
    """The edge words of the paths of the given length whose range is v, one
    at a time: depth first over the in-edge lists, so in in-edge order."""
    if length == 0:
        yield ()
        return
    ins = g._in_ids
    word, frames = [], [iter(ins[v])]
    while frames:
        step = next(frames[-1], None)
        if step is None:
            frames.pop()
            if word:
                word.pop()
        elif len(frames) == length:
            yield (*word, step[0])
        else:
            word.append(step[0])
            frames.append(iter(ins[step[1]]))


def continuations(g, v, length):
    """All paths of the given length whose range is v, in edge-list order."""
    _int_arg("path length", length, nonnegative=True)  # else _walk never stops
    v = g._vertex(v)
    return [_path(w, v) for w in _walk(g, v, length)]


def all_finpaths(g, length):
    """All paths of the given length, grouped by range vertex in vertex order."""
    _int_arg("path length", length, nonnegative=True)
    return [p for v in sorted(g.vertices) for p in continuations(g, v, length)]


def primitive_loops(g, max_len):
    """All primitive loops (range == source, not a proper power), length <= max_len."""
    return [FinPath(w) for n in range(1, _int_arg("loop length bound", max_len) + 1)
            for v in sorted(g.vertices) for w in _walk(g, v, n)
            if g.source_of(w[-1]) == v and len(_primitive_root(w)) == n]


def enumerate_evpaths(g, max_prefix_len, max_cycle_len):
    """All canonical eventually periodic paths within the given size bounds:
    each prefix walked out of each vertex, then each primitive loop based at
    the prefix's source."""
    loops = {}
    for loop in primitive_loops(g, max_cycle_len):
        loops.setdefault(g.range_of(loop.edges[0]), []).append(loop.edges)
    out = set()
    for plen in range(_int_arg("prefix length bound", max_prefix_len) + 1):
        for v in g.vertices:
            for pre in _walk(g, v, plen):
                base = g.source_of(pre[-1]) if pre else v
                out.update(EvPath(pre, cycle) for cycle in loops.get(base, ()))
    return sorted(out, key=lambda x: (len(x.prefix), x.prefix, len(x.cycle), x.cycle))


def in_cylinder(g, x: EvPath, alpha: FinPath) -> bool:
    """True iff x starts with alpha (empty alpha: range match).

    Both are checked against g first, as evaluate checks its point: an edge
    g lacks raises InvalidGraphError, and a break in a path InvalidPathError.
    """
    check_evpath(g, x)
    check_finpath(g, alpha)
    if alpha.is_empty:
        return ev_range(g, x) == alpha.anchor
    return x.truncation(len(alpha)) == alpha.edges


def point_in_Z(g, point: GroupoidPoint, alpha: FinPath, beta: FinPath) -> bool:
    """Membership of (x,k,y) in the basic set determined by (alpha, beta).

    Both cylinder tests run, so the point and both paths are checked against
    g before any answer."""
    x, k, y = point.x, point.k, point.y
    in_x, in_y = in_cylinder(g, x, alpha), in_cylinder(g, y, beta)
    return k == len(alpha) - len(beta) and in_x and in_y and len(alpha) >= _agree_from(x, k, y)


def finpath_to_json_obj(p: FinPath):
    obj = {"edges": list(p.edges)}
    if p.is_empty:
        obj["anchor"] = p.anchor
    return obj


def evpath_to_json_obj(x: EvPath):
    return {"prefix": list(x.prefix), "cycle": list(x.cycle)}


def evpath_from_json_obj(obj) -> EvPath:
    if not isinstance(obj, dict) or "cycle" not in obj:
        raise BadInputError("eventually periodic path JSON needs 'cycle'")
    return EvPath(
        strings_from_json_obj(obj.get("prefix", []), "prefix"),
        strings_from_json_obj(obj["cycle"], "cycle"),
    )


def parse_edge_word(text) -> tuple:
    """Parse a comma-separated edge id list; empty string means no edges."""
    text = text.strip()
    if not text:
        return ()
    return tuple(part.strip() for part in text.split(","))
