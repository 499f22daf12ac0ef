"""Shared builders and independent references for the randomized tests.

Every random object is drawn from a caller-supplied random.Random, so each
test controls its own seed.  Random graphs come from small_ordered_graphs
or random_graph.  The reference_* functions are the slower designs that
the library's code replaced: list-and-filter path enumeration, the
full-scan nest oracle, the sampled cocycle round trip, the prefix-key
product index, the all-pairs overlap scan, the lcm bound of lex_compare,
the clause-by-clause nest membership, the every-rotation spectrum clause,
and the peer listing for the s-extremal tests, which the last two read.
lpa_coefficients decides equality in a basis that shares no code with the
normal form.  point_in, value_at and convolve read an element as a
function on the path groupoid with their own basic-set test.
refine_children, cyl_contains, cylinders_disjoint and swapped are helpers
the tests read and the library no longer needs.
"""

import functools
import math
import random
from fractions import Fraction

from hypothesis import strategies as st

from ckcalc import bimodule, ckalg
from ckcalc.ckalg import AlgElement, CKMono
from ckcalc.cocycle import LocallyConstantFn, TailedPair, eval_cocycle
from ckcalc.graph import Edge, Graph, OrderedGraph, _require_no_sources, underlying
from ckcalc.nest import NestViolation, _atom_place, default_level_bound
from ckcalc.paths import (
    EvPath,
    FinPath,
    GroupoidPoint,
    _level_key,
    _path,
    all_finpaths,
    empty_path,
    enumerate_evpaths,
    ev_range,
    lex_compare,
    path_range,
    path_source,
    prepend,
    shift,
    shift_n,
    sim_k,
)
from ckcalc.scalars import ZERO, GaussianRational


def make_rng(seed=20260816):
    return random.Random(seed)


def counting_check_mono(monkeypatch):
    """Count check_mono calls, under each module's name for it; returns the
    list of monomials checked."""
    calls = []
    check = ckalg.check_mono

    def counting(g, m):
        calls.append(m)
        return check(g, m)

    monkeypatch.setattr(ckalg, "check_mono", counting)
    monkeypatch.setattr(bimodule, "check_mono", counting)
    return calls


def rand_rational(rng, lo=-9, hi=9):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 9))


def rand_coeff(rng):
    while True:
        c = GaussianRational(rand_rational(rng), rand_rational(rng))
        if not c.is_zero():
            return c


def paths_up_to(g, max_len):
    g = underlying(g)
    return [p for n in range(max_len + 1) for p in all_finpaths(g, n)]


def all_monos(g, max_len):
    """Every monomial with both path lengths at most max_len."""
    g = underlying(g)
    paths = paths_up_to(g, max_len)
    by_source = {}
    for p in paths:
        by_source.setdefault(path_source(g, p), []).append(p)
    return [CKMono(a, b) for a in paths for b in by_source[path_source(g, a)]]


@functools.lru_cache(maxsize=8)
def _monos_of(g, max_len):
    """all_monos of a plain graph, listed once for the draws over it."""
    return tuple(all_monos(g, max_len))


def rand_element(g, rng, n_terms=4, max_len=3):
    monos = _monos_of(underlying(g), max_len)
    pairs = [(rng.choice(monos), rand_coeff(rng)) for _ in range(rng.randint(1, n_terms))]
    return AlgElement(underlying(g), pairs)


def rand_diagonal(g, rng, n_terms=2, max_len=2):
    g = underlying(g)
    paths = paths_up_to(g, max_len)
    pairs = []
    for _ in range(rng.randint(1, n_terms)):
        p = rng.choice(paths)
        pairs.append((CKMono(p, p), rand_coeff(rng)))
    return AlgElement(g, pairs)


def rand_point(g, rng, max_side=3, max_cycle=2):
    """A random groupoid point built from a shared eventually periodic tail."""
    g = underlying(g)
    tails = enumerate_evpaths(g, 2, max_cycle)
    z = rng.choice(tails)
    v = ev_range(g, z)
    m = rng.randint(0, max_side)
    n = rng.randint(0, max_side)
    xs = reference_paths_with_source(g, v, m)
    ys = reference_paths_with_source(g, v, n)
    if not xs or not ys:
        return GroupoidPoint(z, 0, z)
    x = prepend(rng.choice(xs), z)
    y = prepend(rng.choice(ys), z)
    return GroupoidPoint(x, m - n, y)


def rand_fn(g, rng, depth):
    g = underlying(g)
    table = {p.edges: rand_rational(rng) for p in all_finpaths(g, depth)}
    if depth == 0:
        table = {(): rand_rational(rng)}
    return LocallyConstantFn(depth, table)


@st.composite
def small_ordered_graphs(draw, max_vertices=4):
    """An OrderedGraph with at most max_vertices vertices, each the range of
    one or two edges (so there are no sources), and an adapted order: the
    blocks of in-edges, and the edges inside each block, are shuffled."""
    vertices = ["v%d" % i for i in range(draw(st.integers(1, max_vertices)))]
    blocks = {}
    for v in vertices:
        sources = draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=2))
        blocks[v] = [Edge("e%s%d" % (v[1:], i), v, s) for i, s in enumerate(sources)]
    order = []
    for v in draw(st.permutations(vertices)):
        order.extend(draw(st.permutations([e.id for e in blocks[v]])))
    edges = [e for v in vertices for e in blocks[v]]
    return OrderedGraph(Graph(vertices, edges), order)


def lpa_coefficients(g, pairs):
    """Coefficients of sum(c * S_alpha S_beta*) over the (monomial, c) pairs
    in the Leavitt path algebra basis of Alahmadi, Alsulami, Jain and
    Zelmanov (2012), keyed by (source, alpha edges, beta edges).

    The first in-edge of each vertex is its special edge.
    By the Cuntz-Krieger relation S_m S_n* = sum over the in-edges e of
    their source of S_{me} S_{ne}*, a word S_{ms} S_{ns}* that ends in the
    special edge s on both sides is rewritten as S_m S_n* minus its other
    children, until no word does.  The remaining words form a basis, so two
    elements are equal iff these maps are.
    """
    g = underlying(g)
    special = {v: g.in_edges(v)[0].id for v in g.vertices}
    work = [((path_source(g, m.alpha), m.alpha.edges, m.beta.edges), c) for m, c in pairs]
    out = {}
    while work:
        (src, alpha, beta), c = work.pop()
        last = alpha[-1] if alpha and beta and alpha[-1] == beta[-1] else None
        if last is not None and special[g.range_of(last)] == last:
            v = g.range_of(last)
            work.append(((v, alpha[:-1], beta[:-1]), c))
            for e in g.in_edges(v):
                if e.id != last:
                    work.append(((e.source, alpha[:-1] + (e.id,), beta[:-1] + (e.id,)), -c))
        else:
            key = (src, alpha, beta)
            out[key] = out.get(key, ZERO) + c
    return {k: c for k, c in out.items() if not c.is_zero()}


def lpa_equal(a, b):
    """a == b decided in the Leavitt path algebra basis."""
    return lpa_coefficients(a.graph, a.terms.items()) == lpa_coefficients(
        b.graph, b.terms.items())


def random_graph(rng, max_vertices=4, max_in=3, sources=True):
    """A Graph whose vertices are each the range of 0..max_in edges (at
    least one unless sources) drawn from uniform sources, so parallel edges
    and self-loops occur."""
    vertices = ["v%d" % i for i in range(rng.randint(1, max_vertices))]
    edges = [Edge("e%s%d" % (v[1:], i), v, rng.choice(vertices))
             for v in vertices for i in range(rng.randint(0 if sources else 1, max_in))]
    return Graph(vertices, edges)


def adapted_order(rng, g):
    """g under an adapted order: its in-edge blocks, and the edges inside
    each block, shuffled."""
    blocks = [[e.id for e in g.in_edges(v)] for v in g.vertices]
    rng.shuffle(blocks)
    order = []
    for block in blocks:
        rng.shuffle(block)
        order.extend(block)
    return OrderedGraph(g, order)


def reference_continuations(g, v, length):
    """Every path of the given length whose range is v, breadth first."""
    acc = [()]
    cur_sources = [v]
    for _ in range(length):
        nxt, nxt_src = [], []
        for word, src in zip(acc, cur_sources):
            for e in g.in_edges(src):
                nxt.append(word + (e.id,))
                nxt_src.append(e.source)
        acc, cur_sources = nxt, nxt_src
    if length == 0:
        return [empty_path(v)]
    return [FinPath(w) for w in acc]


def reference_all_finpaths(g, length):
    return [p for v in sorted(g.vertices) for p in reference_continuations(g, v, length)]


def reference_paths_with_source(g, v, length):
    return [p for p in reference_all_finpaths(g, length) if path_source(g, p) == v]


def reference_primitive_loops(g, max_len):
    """Every path of each length that is a loop and no power of a shorter word."""
    out = []
    for n in range(1, max_len + 1):
        for p in reference_all_finpaths(g, n):
            if path_range(g, p) != path_source(g, p):
                continue
            w = p.edges
            if not any(n % d == 0 and w[:d] * (n // d) == w for d in range(1, n)):
                out.append(p)
    return out


def reference_enumerate_evpaths(g, max_prefix_len, max_cycle_len):
    """Each primitive loop under each prefix ending at its base, listed by
    filtering all paths of the prefix length."""
    seen = set()
    out = []
    for loop in reference_primitive_loops(g, max_cycle_len):
        base = path_range(g, loop)
        for plen in range(0, max_prefix_len + 1):
            for pre in reference_paths_with_source(g, base, plen):
                x = EvPath(pre.edges, loop.edges)
                if x not in seen:
                    seen.add(x)
                    out.append(x)
    out.sort(key=lambda x: (len(x.prefix), x.prefix, len(x.cycle), x.cycle))
    return out


def reference_oracle(og, m, level_bound=None):
    """in_alg_n_oracle by a full scan: every continuation of every level is
    listed, and the first row after its col is the witness."""
    if level_bound is None:
        level_bound = default_level_bound(og, m)
    src = path_source(og, m.alpha)
    ra = path_range(og, m.alpha)
    rb = path_range(og, m.beta)
    for level in range(0, level_bound + 1):
        depth = max(0, level - min(len(m.alpha), len(m.beta)))
        for w in reference_continuations(og, src, depth):
            row = (m.alpha.edges + w.edges)[:level]
            col = (m.beta.edges + w.edges)[:level]
            if _level_key(og, row, ra) > _level_key(og, col, rb):
                col_path = _path(col, rb)
                return False, NestViolation(level, _atom_place(og, col_path),
                                            _path(row, ra), col_path)
    return True, None


def reference_reconstruct_f(g, f, max_prefix_len=None, max_cycle_len=None):
    """f(x) == cocycle(x, 1, Sx) checked on a sample: every eventually
    periodic path with a prefix of at most max_prefix_len edges and a
    primitive cycle of at most max_cycle_len, both bounds read by default
    from the longest simple cycle.  Returns (ok, [(x, expected, got)])."""
    _require_no_sources(g, "the cocycle layer")
    if max_cycle_len is None:
        max_cycle_len = max(2, g.max_loop_length)
    if max_prefix_len is None:
        max_prefix_len = f.depth + max_cycle_len
    failures = []
    for x in enumerate_evpaths(g, max_prefix_len, max_cycle_len):
        expected = f.value_on(x)
        got = eval_cocycle(f, GroupoidPoint(x, 1, shift(x)))
        if got != expected:
            failures.append((x, expected, got))
    return not failures, failures


def random_tail(g, v, rng):
    """A random eventually periodic infinite path with range v: random
    in-edges until a vertex repeats, which closes the cycle."""
    word, seen, cur = [], {v: 0}, v
    while True:
        e = rng.choice(g.in_edges(cur))
        word.append(e.id)
        cur = e.source
        if cur in seen:
            return EvPath(word[:seen[cur]], word[seen[cur]:])
        seen[cur] = len(word)


def point_in(g, mono, rng):
    """A random eventually periodic point of the basic set Z(alpha, beta):
    (alpha w, |alpha| - |beta|, beta w) for a random tail w into the source."""
    g = underlying(g)
    w = random_tail(g, path_source(g, mono.alpha), rng)
    return GroupoidPoint(prepend(mono.alpha, w), mono.degree, prepend(mono.beta, w))


def in_basic_set(g, point, mono):
    """Whether point lies in Z(alpha, beta), read off the infinite words."""
    a, b, x, y = mono.alpha, mono.beta, point.x, point.y
    return (point.k == len(a) - len(b)
            and x.truncation(len(a)) == a.edges and ev_range(g, x) == path_range(g, a)
            and y.truncation(len(b)) == b.edges and ev_range(g, y) == path_range(g, b)
            and shift_n(x, len(a)) == shift_n(y, len(b)))


def value_at(a, point):
    """The element as a groupoid function: the coefficients of the terms
    whose basic sets hold the point, summed."""
    return sum((c for m, c in a.terms.items() if in_basic_set(a.graph, point, m)), ZERO)


def convolve(a, b, point):
    """(a b)(x, k, y) as the groupoid convolution: the sum over the splits
    (x, j, z)(z, k - j, y) of a(x, j, z) b(z, k - j, y).  a is nonzero at
    (x, j, z) only inside a term's basic set, so z = beta S^|alpha| x and
    j = |alpha| - |beta| for a term (alpha, beta) of a whose alpha starts x."""
    g, x, k, y = a.graph, point.x, point.k, point.y
    splits = {(prepend(m.beta, shift_n(x, len(m.alpha))), m.degree) for m in a.terms
              if x.truncation(len(m.alpha)) == m.alpha.edges
              and ev_range(g, x) == path_range(g, m.alpha)}
    return sum((value_at(a, GroupoidPoint(x, j, z)) * value_at(b, GroupoidPoint(z, k - j, y))
                for z, j in splits if sim_k(z, k - j, y)), ZERO)


def refine_children(g, m):
    """The one-step child expansion of a monomial: (alpha e, beta e) over
    the in-edges e of the common source, in in-edge order."""
    return [CKMono(FinPath(m.alpha.edges + (e.id,)), FinPath(m.beta.edges + (e.id,)))
            for e in g.in_edges(path_source(g, m.alpha))]


def cyl_contains(g, inner, outer):
    """True iff the basic set of inner sits inside that of outer."""
    t1 = ckalg.path_tail_of(g, inner.alpha, outer.alpha)
    if t1 is None:
        return False
    t2 = ckalg.path_tail_of(g, inner.beta, outer.beta)
    return t2 is not None and t1 == t2


def cylinders_disjoint(g, p, q):
    """Whether the one-sided sets of infinite paths through p and q miss."""
    return ckalg.path_tail_of(g, p, q) is None and ckalg.path_tail_of(g, q, p) is None


def swapped(tp):
    """The tailed pair with its two prefixes exchanged."""
    return TailedPair(tp.prefix_y, tp.prefix_x, tp.window)


def reference_product_pairs(g, left, right):
    """The pairs (left key, right key) of two key maps whose left beta and
    right alpha are prefix-comparable, found with the prefix-key index the
    library's sorted sweep replaced: each right alpha is indexed by its
    (range, edges) key and by every proper prefix of it."""
    rng = g._range
    exact, extending = {}, {}
    for key in right:
        s2, a2, _ = key
        v = rng[a2[0]] if a2 else s2
        exact.setdefault((v, a2), []).append(key)
        for i in range(len(a2)):
            extending.setdefault((v, a2[:i]), []).append(key)
    pairs = []
    for key in left:
        s1, _, b1 = key
        v = rng[b1[0]] if b1 else s1
        pairs += [(key, k2) for k2 in extending.get((v, b1), ())]
        for i in range(len(b1) + 1):
            pairs += [(key, k2) for k2 in exact.get((v, b1[:i]), ())]
    return pairs


def reference_overlapping_side(a):
    """The all-pairs scan the library's sweep replaced: "initial" or
    "final" for the first pair of distinct terms in listing order whose
    betas, or else alphas, have overlapping cylinders; None if none do."""
    legs = [(_path(al, src), _path(be, src))
            for src, al, be in sorted(a._keys, key=ckalg._key_order)]
    for i, (a1, b1) in enumerate(legs):
        for a2, b2 in legs[i + 1:]:
            if not cylinders_disjoint(a.graph, b1, b2):
                return "initial"
            if not cylinders_disjoint(a.graph, a1, a2):
                return "final"
    return None


@functools.lru_cache(maxsize=4096)
def reference_s_extremal(og, p):
    """(is_s_minimal, is_s_maximal) of p, comparing it with every peer: the
    equal-length words into s(p) sort as their tuples of edge positions.
    Kept per graph and path, since the spectrum reference asks again for
    the blocks every point with the same cycle shares."""
    def key(q):
        return tuple(og.pos(e) for e in q.edges)

    keys = [key(q) for q in reference_continuations(og, path_source(og, p), len(p))]
    return key(p) <= min(keys), key(p) >= max(keys)


def reference_spectrum_clause(og, point):
    """point_in_spectrum_alg_n with every rotation of the cycle as a
    candidate block: the length-|k| words that start at each place of the
    periodic tail of x are tested one at a time."""
    x, k, y = point.x, point.k, point.y
    cmp = lex_compare(x, y, og)
    if cmp < 0:
        return True, "strict_below"
    if cmp != 0:
        return False, None
    if k == 0:
        return True, "unit"
    size = abs(k)
    if size % len(x.cycle) != 0:
        return False, None
    start = len(x.prefix)
    for t in range(len(x.cycle)):
        block = FinPath(tuple(x.edge_at(start + t + i) for i in range(1, size + 1)))
        if k > 0 and reference_s_extremal(og, block)[0]:
            return True, "s_minimal_block"
        if k < 0 and reference_s_extremal(og, block)[1]:
            return True, "s_maximal_block"
    return False, None


def reference_lex_compare(x, y, og):
    """lex_compare of two eventually periodic paths, read out to both
    prefixes plus the lcm of the cycle lengths, where both are periodic
    with one common period."""
    bound = len(x.prefix) + len(y.prefix) + math.lcm(len(x.cycle), len(y.cycle))
    for a, b in zip(x.truncation(bound), y.truncation(bound)):
        if a != b:
            return -1 if og.pos(a) < og.pos(b) else 1
    return 0


def reference_in_alg_n(og, m):
    """in_alg_n on a checked monomial, trying the five clauses in turn, each
    with its own head cut and lex_compare."""
    def head(p, length):
        return _path(p.edges[:length], path_range(og, p))

    a, b = m.alpha, m.beta
    if len(a) == len(b) and lex_compare(a, b, og) <= 0:
        return True, "equal_length_le"
    if len(a) >= len(b) and lex_compare(head(a, len(b)), b, og) < 0:
        return True, "head_precedes"
    if len(a) > len(b):
        tail = ckalg.path_tail_of(og, a, b)
        if tail is not None and not tail.is_empty and reference_s_extremal(og, tail)[0]:
            return True, "s_minimal_tail"
    if len(b) >= len(a) and lex_compare(a, head(b, len(a)), og) < 0:
        return True, "head_follows"
    if len(b) > len(a):
        tail = ckalg.path_tail_of(og, b, a)
        if tail is not None and not tail.is_empty and reference_s_extremal(og, tail)[1]:
            return True, "s_maximal_tail"
    return False, None
