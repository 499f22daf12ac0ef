"""Nest projections over an ordered graph and the triangularity tests.

A level-j atom is the range projection of a length-j path; the atoms are
totally ordered by the lexicographic order the edge order induces, with
length-0 atoms (vertex projections) ordered by their in-edge blocks.  A
nest projection is a sum over an initial segment of one level.  Membership
of a monomial in the algebra leaving all these projections invariant has a
five-clause path characterization; an independent symbolic check with a
finite level bound serves as its oracle.
"""

from __future__ import annotations

from .ckalg import (
    AlgElement,
    CKMono,
    _product_keys,
    _same_graph,
    check_mono,
    mono_source,
)
from .errors import OutOfRangeError, PreconditionError, _int_arg, _Record
from .graph import OrderedGraph, _require_no_sources, _require_order
from .paths import (
    FinPath,
    GroupoidPoint,
    _level_key,
    _path,
    _s_extremal,
    _walk,
    all_finpaths,
    lex_compare,
    path_range,
    path_source,
)
from .scalars import ONE


def _check_nest_graph(og):
    """Raise unless og is an OrderedGraph with an adapted order and no sources."""
    _require_order(og, "the nest layer")
    if not og.adapted:
        raise PreconditionError("edge order is not adapted: in-edges of %s are not an "
                                "interval" % ", ".join(og.order_violations))
    _require_no_sources(og, "the nest layer")


def level_atoms(og: OrderedGraph, level):
    """All length-`level` paths, smallest first in the level order."""
    _check_nest_graph(og)
    atoms = all_finpaths(og, _int_arg("level", level, nonnegative=True))
    atoms.sort(key=lambda p: _level_key(og, p.edges, p.anchor))
    return atoms


def _atom_place(og: OrderedGraph, atom: FinPath):
    """1-based place of a level atom in its level, counted without listing
    the level.  The order is adapted, so an atom before it either has a
    range whose in-edge block comes earlier, or agrees with it for some
    steps and then takes an earlier in-edge of the vertex reached; each
    such edge e starts as many atoms as there are paths of the remaining
    length into s(e).  The word is read from its end, so one table of
    path counts, lengthened by one edge per step, serves every step."""
    place = 1
    count = dict.fromkeys(og.vertices, 1)  # count[u]: paths into u as long as the rest
    for eid in reversed(atom.edges):
        place += sum(count[e.source] for e in og.in_edges(og.range_of(eid))
                     if og.pos(e.id) < og.pos(eid))
        count = {u: sum(count[e.source] for e in og.in_edges(u)) for u in og.vertices}
    block = og.vertex_pos(path_range(og, atom))
    return place + sum(n for u, n in count.items() if og.vertex_pos(u) < block)


def nest_projection(og: OrderedGraph, level, cutpos) -> AlgElement:
    """Diagonal projection summing the first cutpos atoms of one level."""
    atoms = level_atoms(og, level)
    if not 0 <= _int_arg("cut", cutpos) <= len(atoms):
        raise OutOfRangeError(
            "cut %d outside 0..%d at level %d" % (cutpos, len(atoms), level)
        )
    return AlgElement._of_merged(
        og.graph, {(path_source(og, p), p.edges, p.edges): ONE._triple for p in atoms[:cutpos]})


def in_alg_n(og: OrderedGraph, m: CKMono):
    """Five-clause membership test; returns (member, clause name or None).

    One comparison of the heads, the first n edges of each word for n the
    shorter length, decides: alpha's head above beta's is never a member,
    equal lengths are then a member, and otherwise a smaller alpha head is
    one (head_precedes if alpha is longer, head_follows if beta is), while
    equal heads leave it to the longer word's tail."""
    _check_nest_graph(og)
    check_mono(og, m)
    a, b = m.alpha, m.beta
    n = min(len(a), len(b))
    ka = _level_key(og, a.edges[:n], path_range(og, a))
    kb = _level_key(og, b.edges[:n], path_range(og, b))
    if ka > kb:
        return False, None
    if len(a) == len(b):
        return True, "equal_length_le"
    if ka < kb:
        return True, "head_precedes" if len(a) > len(b) else "head_follows"
    tail, side = (a.edges[n:], 0) if len(a) > len(b) else (b.edges[n:], 1)
    if _s_extremal(og, tail, side):
        return True, ("s_minimal_tail", "s_maximal_tail")[side]
    return False, None


class NestViolation(_Record):
    """A compression witnessing non-membership: the projection cutting the
    level just below `row` maps the monomial across the cut from `col`."""

    __slots__ = ("level", "cutpos", "row", "col")

    def __init__(self, level, cutpos, row, col):
        self._init(level, cutpos, row, col)


def default_level_bound(og, m: CKMono):
    return len(m.alpha) + len(m.beta) + 2 * og.max_loop_length


def in_alg_n_oracle(og: OrderedGraph, m: CKMono, level_bound=None):
    """Symbolic triangularity check against every nest cut up to a bound.

    At level j the nonzero compressions R_row * m * R_col are exactly the
    pairs row = (alpha w)_j, col = (beta w)_j over the continuations w that
    stretch the shorter path to length j.  The monomial passes iff no such
    pair has row after col, which is the same as passing every initial-
    segment projection.  Returns (member, violation or None).
    """
    _check_nest_graph(og)
    check_mono(og, m)
    if level_bound is None:
        level_bound = default_level_bound(og, m)
    else:
        _int_arg("level bound", level_bound, nonnegative=True)
    src = mono_source(og, m)
    ra = path_range(og, m.alpha)
    rb = path_range(og, m.beta)
    for level in range(0, level_bound + 1):
        depth = max(0, level - min(len(m.alpha), len(m.beta)))
        for w in _walk(og, src, depth):
            row = (m.alpha.edges + w)[:level]
            col = (m.beta.edges + w)[:level]
            if _level_key(og, row, ra) > _level_key(og, col, rb):
                col_path = _path(col, rb)
                return False, NestViolation(level, _atom_place(og, col_path),
                                            _path(row, ra), col_path)
    return True, None


def point_in_spectrum_alg_n(og: OrderedGraph, point: GroupoidPoint):
    """Clause test for a groupoid point against the nest-algebra spectrum.

    Besides the strictly-below and unit clauses, an isotropy point (x,k,x)
    belongs iff its cycle is s-minimal (k > 0) or s-maximal (k < 0) by the
    closed-path case of paths._s_extremal.  Returns (member, clause name or
    None).
    """
    _check_nest_graph(og)
    x, k, y = point.x, point.k, point.y
    cmp = lex_compare(x, y, og)
    if cmp < 0:
        return True, "strict_below"
    if cmp != 0:
        return False, None
    if k == 0:
        return True, "unit"
    if _s_extremal(og, x.cycle, 0 if k > 0 else 1):
        return True, "s_minimal_block" if k > 0 else "s_maximal_block"
    return False, None


def in_radical_spectrum(og: OrderedGraph, point: GroupoidPoint) -> bool:
    """Spectrum membership with x strictly below y."""
    _, clause = point_in_spectrum_alg_n(og, point)
    return clause == "strict_below"


def commutator(a: AlgElement, b: AlgElement) -> AlgElement:
    """ab - ba: both products merged into one map and coarsened once."""
    _same_graph(a, b)
    return AlgElement._of_merged(a.graph, _product_keys(
        a.graph, (a._keys, b._keys, 1), (b._keys, a._keys, -1)))
