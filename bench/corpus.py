"""Seeded op lists for the four workloads.

`build(workload, lib, seed, tiny, workdir)` returns the fixed list of ops
for one pass.  An op holds a no-argument callable (the timed library call),
a check of its answer against the reference in `reference.py` (run outside
the timed region) and the input sizes recorded next to its time.  The same
seed gives the same op list.  The library only ever sees the generated inputs, which
meet its standing hypotheses: no sources, and an adapted edge order for
every nest call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import reference as ref
from reference import ONE, RefGraph

FIXTURES = {
    "O2": RefGraph(["v"], [("a", "v", "v"), ("b", "v", "v")], ["a", "b"]),
    "e2": RefGraph(
        ["u", "v"], [("c", "u", "v"), ("h", "u", "u"), ("d", "v", "u")], ["c", "h", "d"]
    ),
    "loop3e": RefGraph(
        ["u", "v", "w"],
        [("e1", "u", "v"), ("e2", "v", "w"), ("e3", "w", "u"), ("h", "u", "u")],
        ["e1", "h", "e2", "e3"],
    ),
    "c2": RefGraph(["1", "2"], [("f1", "1", "2"), ("f2", "2", "1")]),
}

WORKLOADS = ("normal_form", "products", "groupoid", "cli")


class Op:
    __slots__ = ("kind", "fn", "check", "sizes")

    def __init__(self, kind, fn, check, sizes):
        self.kind = kind
        self.fn = fn
        self.check = check
        self.sizes = sizes


class Lib:
    """The library's modules plus converters from reference data."""

    def __init__(self, modules):
        for name, mod in modules.items():
            setattr(self, name, mod)

    def graph(self, rg):
        g = self.graph_mod.Graph(
            rg.vertices, [self.graph_mod.Edge(e, r, s) for e, r, s in rg.edges]
        )
        if rg.order is not None:
            return self.graph_mod.OrderedGraph(g, rg.order)
        return g

    def path(self, word, anchor):
        if word:
            return self.paths.FinPath(word)
        return self.paths.empty_path(anchor)

    def mono(self, alpha, beta, anchor):
        return self.ckalg.CKMono(self.path(alpha, anchor), self.path(beta, anchor))

    def pairs(self, terms):
        gr = self.scalars.GaussianRational
        return [(self.mono(a, b, v), gr(c[0], c[1])) for a, b, v, c in terms]

    def element(self, g, terms):
        return self.ckalg.AlgElement(g, self.pairs(terms))

    def evpath(self, x):
        return self.paths.EvPath(x[0], x[1])

    def point(self, p):
        return self.paths.GroupoidPoint(self.evpath(p[0]), p[1], self.evpath(p[2]))

    def fn(self, table, depth):
        return self.cocycle.LocallyConstantFn(depth, table)


# -- seeded generators ------------------------------------------------------


def walk(rnd, rg, v, length):
    """Random word of the given length with range v; returns (word, source)."""
    word = []
    cur = v
    for _ in range(length):
        e, cur = rnd.choice(rg.ins[cur])
        word.append(e)
    return tuple(word), cur


def tail(rnd, rg, v):
    """Random eventually periodic path with range v."""
    pre, cur = walk(rnd, rg, v, rnd.randint(0, 3))
    seen = {cur: 0}
    word = []
    while True:
        e, cur = rnd.choice(rg.ins[cur])
        word.append(e)
        if cur in seen:
            cut = seen[cur]
            return pre + tuple(word[:cut]), tuple(word[cut:])
        seen[cur] = len(word)


def unit_points(rnd, rg, count):
    return [ref.unit_point(tail(rnd, rg, rnd.choice(rg.vertices))) for _ in range(count)]


def sample_points(rnd, rg, terms_fn, nterm=3, nunit=2):
    """Points fixed by a seed drawn now, generated on first use."""
    seed = rnd.getrandbits(32)

    def make():
        local = random.Random(seed)
        return term_points(local, rg, terms_fn(), nterm) + unit_points(local, rg, nunit)

    return lazy(make)


def term_points(rnd, rg, terms, count):
    """Points inside the basic sets of a sample of the terms."""
    picks = [terms[rnd.randrange(len(terms))] for _ in range(count)]
    return [ref.tail_point(a, b, tail(rnd, rg, v)) for a, b, v, _ in picks]


def coefficient(rnd):
    while True:
        re = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
        im = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
        if re or im:
            return (re, im)


def identity_terms(rg):
    return [((), (), v, ONE) for v in rg.vertices]


def refine_terms(rg, terms):
    """One step of the Cuntz-Krieger relation on every term."""
    return [
        (a + (e,), b + (e,), s, c)
        for a, b, v, c in terms
        for e, s in rg.ins[v]
    ]


def monomial_words(rg, max_len):
    """Every (alpha, beta, source) with |alpha|, |beta| <= max_len."""
    by_source = {}
    for v in rg.vertices:
        for n in range(max_len + 1):
            for w in rg.paths_into(v, n):
                src = rg.word_source(w, v)
                by_source.setdefault(src, []).append((w, v))
    out = []
    for src in rg.vertices:
        words = by_source.get(src, [])
        for a, _ in words:
            for b, _ in words:
                out.append((a, b, src))
    return out


# No-source shapes with at most 4 vertices and in-degree at most 2, as
# (range, source) pairs of vertex indices.  The oracle's cost grows like
# the branching rate to the power of its level bound, which grows with the
# longest simple loop; a freely drawn graph would make the workload's cost
# swing several-fold with the seed, so the seed draws labels, edge ids and
# the adapted order of these fixed shapes instead.
GRAPH_SHAPES = (
    ((0, 0), (0, 1), (1, 0)),                              # e2: loop plus 2-cycle
    ((0, 1), (1, 2), (2, 0), (0, 0)),                      # loop3e: 3-cycle plus loop
    ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)),              # 4-cycle plus chord
    ((0, 1), (0, 2), (1, 0), (1, 1), (2, 0)),              # two 2-cycles and a loop
)


def random_adapted_graph(rnd, index):
    """A seeded relabelling of one shape, with a random adapted order."""
    shape = GRAPH_SHAPES[index % len(GRAPH_SHAPES)]
    nv = 1 + max(max(e) for e in shape)
    names = ["v%d" % i for i in range(nv)]
    rnd.shuffle(names)
    shape = list(shape)
    rnd.shuffle(shape)
    edges = [("g%d_%d" % (index, k), names[r], names[s]) for k, (r, s) in enumerate(shape)]
    vertices = sorted(names)
    blocks = list(vertices)
    rnd.shuffle(blocks)
    order = []
    for v in blocks:
        ids = [e for e, r, _ in edges if r == v]
        rnd.shuffle(ids)
        order.extend(ids)
    return RefGraph(vertices, edges, order)


# -- checks -----------------------------------------------------------------


def lazy(compute):
    """Memoised expected value, computed on first use (outside timing)."""
    box = []

    def get():
        if not box:
            box.append(compute())
        return box[0]

    return get


def value_check(lib, rg, expected_terms, points):
    """The answer evaluates, at every sample point, to the reference value."""
    expected = lazy(lambda: [ref.value_at(rg, expected_terms(), p) for p in points()])
    lib_points = lazy(lambda: [lib.point(p) for p in points()])

    def check(result):
        for p, want in zip(lib_points(), expected()):
            got = lib.ckalg.evaluate(result, p)
            if got.re != want[0] or got.im != want[1]:
                return False
        return True

    return check


def spectrum_check(lib, rg, gen_terms, points):
    """A point lies in the spectrum's basic sets iff some generator is
    nonzero there."""
    expected = lazy(lambda: [
        any(ref.value_at(rg, t, p) != ref.ZERO for t in gen_terms()) for p in points()
    ])

    def check(result):
        cyls = [
            (tuple(c["alpha"]), tuple(c["beta"]), c["anchor"])
            for c in lib.bimodule.spectrum_to_json_obj(result)
        ]
        for p, want in zip(points(), expected()):
            got = any(ref.point_in_basic_set(rg, p, a, b, v) for a, b, v in cyls)
            if got != want:
                return False
        return True

    return check


def equals(want):
    return lambda result: result == want


# -- normal_form --------------------------------------------------------------


def normal_form(lib, rnd, tiny):
    ops = []
    graphs = {name: lib.graph(FIXTURES[name]) for name in ("O2", "e2", "loop3e")}

    def plus_r(rg, n):
        v = rnd.choice(rg.vertices)
        w, src = walk(rnd, rg, v, n)
        return identity_terms(rg) + [(w, w, src, ONE)], w

    def points_for(rg, terms):
        return sample_points(rnd, rg, lambda: terms, 2, 2)

    def construct(gname, terms, n, beta_depth=None):
        rg, g = FIXTURES[gname], graphs[gname]
        pairs = lib.pairs(terms)
        kind = "construct" if beta_depth is None else "normalize_depth"
        if beta_depth is None:
            fn = lambda: lib.ckalg.AlgElement(g, pairs)
        else:
            x = lib.ckalg.AlgElement(g, pairs)
            fn = lambda: lib.ckalg.normalize(x, beta_depth=beta_depth)
        ops.append(Op(kind, fn, value_check(lib, rg, lambda: terms, points_for(rg, terms)),
                      {"graph": gname, "n": n, "terms_in": len(terms), "beta_depth": beta_depth}))

    sweeps = {
        "O2": (4, 6, 8) if tiny else tuple(range(1, 13)) + tuple(range(1, 10)),
        "e2": (5, 7) if tiny else (2, 4, 6, 8, 10, 12, 14),
        "loop3e": (6, 8) if tiny else (5, 8, 11, 14, 17),
    }
    for gname, ns in sweeps.items():
        for n in ns:
            construct(gname, plus_r(FIXTURES[gname], n)[0], n)

    o2 = FIXTURES["O2"]

    def deep_sum(depth, degree):
        lengths = sorted({depth, max(depth - 3, 1), max(depth - 6, 1), 1}, reverse=True)
        terms = []
        for bl in lengths:
            al = bl + degree
            a, _ = walk(rnd, o2, "v", al)
            b, _ = walk(rnd, o2, "v", bl)
            terms.append((a, b, "v", coefficient(rnd)))
        return terms

    depths = (4, 6, 8) if tiny else tuple(range(4, 15))
    for i, depth in enumerate(depths):
        construct("O2", deep_sum(depth, (0, 1, -1)[i % 3]), depth)
    for depth in ((3,) if tiny else (3, 5, 7, 9)):
        construct("O2", deep_sum(depth, 0), depth, beta_depth=depth + 2)
    for n in ((4,) if tiny else (6, 8, 10)):
        construct("O2", plus_r(o2, n)[0], n, beta_depth=n + 1)

    # sums, differences and semantic equality of deep sums
    g = graphs["O2"]
    for depth in ((5,) if tiny else (4, 5, 6, 7, 8)):
        xt, yt = deep_sum(depth, 0), deep_sum(depth, 0)
        x, y = lib.element(g, xt), lib.element(g, yt)
        pts = points_for(o2, xt + yt)
        size = {"graph": "O2", "n": depth, "terms_in": len(xt) + len(yt)}
        ops.append(Op("add", lambda x=x, y=y: x + y,
                      value_check(lib, o2, lambda xt=xt, yt=yt: xt + yt, pts), size))
        ops.append(Op("sub", lambda x=x, y=y: x - y,
                      value_check(lib, o2, lambda xt=xt, yt=yt: xt + ref.scale(yt, (-1, 0)), pts),
                      size))
        same = lib.element(g, refine_terms(o2, refine_terms(o2, xt)))
        u, _ = walk(rnd, o2, "v", depth + 1)
        other = lib.element(g, xt + [(u, u, "v", ONE)])
        ops.append(Op("eq", lambda x=x, s=same: x == s, equals(True), size))
        ops.append(Op("eq", lambda x=x, o=other: x == o, equals(False), size))

    # x*x for x = identity + R_w
    for n in ((3, 4) if tiny else range(1, 10)):
        terms, _ = plus_r(o2, n)
        x = lib.element(g, terms)
        ops.append(Op("square", lambda x=x: x * x,
                      value_check(lib, o2, lambda t=terms: ref.product(o2, t, t),
                                  points_for(o2, terms)),
                      {"graph": "O2", "n": n, "terms_in": len(terms), "pairs": (2 ** n) ** 2}))
    for gname, n in ((("e2", 4),) if tiny else (("e2", 5), ("e2", 7), ("e2", 9),
                                                 ("loop3e", 8), ("loop3e", 10))):
        rg = FIXTURES[gname]
        terms, _ = plus_r(rg, n)
        x = lib.element(graphs[gname], terms)
        ops.append(Op("square", lambda x=x: x * x,
                      value_check(lib, rg, lambda t=terms, rg=rg: ref.product(rg, t, t),
                                  points_for(rg, terms)),
                      {"graph": gname, "n": n, "terms_in": len(terms)}))

    # spectra: the full family coarsens to one set; a random 3/4 family does not
    for n in ((4, 5) if tiny else (3, 4, 5, 6, 7, 8)):
        terms, _ = plus_r(o2, n)
        x = lib.element(g, terms)
        off = [((), ("a",), "v", ONE)]  # a degree -1 point lies outside
        pts = sample_points(rnd, o2, lambda t=terms: t + off, 4, 4)
        ops.append(Op("support_spectrum", lambda x=x: lib.ckalg.support_spectrum(x),
                      spectrum_check(lib, o2, lambda t=terms: [t], pts),
                      {"graph": "O2", "n": n, "cylinders": 2 ** n}))

    def subfamily(n):
        words = o2.paths_into("v", n)
        rnd.shuffle(words)
        keep, drop = words[: 3 * len(words) // 4], words[3 * len(words) // 4:]
        return [(w, w, "v", ONE) for w in keep], drop

    for n in ((4,) if tiny else (5, 6, 7, 8)):
        fams = [subfamily(n)[0] for _ in range(2)]
        gens = [lib.element(g, f) for f in fams]
        pts = sample_points(rnd, o2, lambda: [((), (), "v", ONE)], 0, 8)
        ops.append(Op("generated_spectrum",
                      lambda gens=gens: lib.bimodule.generated_spectrum(gens),
                      spectrum_check(lib, o2, lambda f=fams: f, pts),
                      {"graph": "O2", "n": n, "cylinders": sum(len(f) for f in fams)}))

    for n in ((4,) if tiny else (4, 5, 6, 7)):
        fam, drop = subfamily(n)
        gens = [lib.element(g, fam)]
        inside = fam[rnd.randrange(len(fam))][0]
        deeper, _ = walk(rnd, o2, "v", 2)
        u2 = fam[rnd.randrange(len(fam))][0]
        cases = (
            ([(inside + deeper, inside + deeper, "v", ONE)], True),
            ([(drop[0], drop[0], "v", ONE)], False),
            ([(inside, u2 if u2 != inside else drop[0], "v", ONE)], False),
            ([(inside, inside[:-1], "v", ONE)], False),
        )
        for terms, want in cases:
            a = lib.element(g, terms)
            ops.append(Op("bimodule_member",
                          lambda a=a, gens=gens: lib.bimodule.bimodule_member(a, gens),
                          equals(want), {"graph": "O2", "n": n, "cylinders": len(fam)}))
    return ops


# -- products -------------------------------------------------------------------


# (|alpha|, |beta|) of the j-th term.  The shapes and the source vertices
# follow a fixed schedule and only the edges and coefficients are drawn, so
# normal-form sizes, and with them the cost of each op, do not swing with
# the seed.
SHAPES = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1),
          (1, 3), (3, 2), (2, 3), (3, 3), (2, 0), (0, 2), (3, 0), (0, 3))


def random_terms(rnd, rg, count):
    """Shallow random terms: |alpha|, |beta| <= 3, common source."""
    terms = []
    for j in range(count):
        la, lb = SHAPES[j % len(SHAPES)]
        src = rg.vertices[j % len(rg.vertices)]
        a = rnd.choice(rg.paths_from_source(src, la))
        b = rnd.choice(rg.paths_from_source(src, lb))
        terms.append((a, b, src, coefficient(rnd)))
    return terms


def normalizer_terms(rnd, rg, length, count, coeffs):
    """Partial isometry: distinct same-length alphas and betas per source."""
    by_src = {}
    for v in rg.vertices:
        for w in rg.paths_into(v, length):
            by_src.setdefault(rg.word_source(w, v), []).append(w)
    terms = []
    for src, words in sorted(by_src.items()):
        betas = list(words)
        rnd.shuffle(betas)
        for a, b in list(zip(words, betas))[: max(1, count // len(by_src))]:
            terms.append((a, b, src, rnd.choice(coeffs)))
    return terms


I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i ** k as (re, im)
UNIMODULAR = [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)),
              (Fraction(0), Fraction(1)), (Fraction(3, 5), Fraction(-4, 5))]


def products(lib, rnd, tiny):
    ops = []
    for gname in ("O2", "e2", "loop3e", "c2"):
        products_on(lib, rnd, tiny, gname, ops)
    return ops


def products_on(lib, rnd, tiny, gname, ops):
    sizes = (4, 8) if tiny else tuple(range(10, 61, 5))
    rg = FIXTURES[gname]
    g = lib.graph(rg)
    elems = []
    for s in sizes:
        xt, yt = random_terms(rnd, rg, s), random_terms(rnd, rg, s)
        elems.append((s, xt, yt, lib.element(g, xt), lib.element(g, yt)))

    def pts(terms_fn):
        return sample_points(rnd, rg, terms_fn)

    for s, xt, yt, x, y in elems:
        size = {"graph": gname, "terms_in": 2 * s, "pairs": s * s}
        ops.append(Op("mul", lambda x=x, y=y: x * y,
                      value_check(lib, rg, lambda xt=xt, yt=yt: ref.product(rg, xt, yt),
                                  pts(lambda xt=xt, yt=yt: ref.product(rg, xt, yt) or xt)), size))
    for s, xt, yt, x, y in [e for e in elems if e[0] <= 30]:
        size = {"graph": gname, "terms_in": 2 * s, "pairs": 2 * s * s}
        ops.append(Op("commutator", lambda x=x, y=y: lib.nest.commutator(x, y),
                      value_check(lib, rg, lambda xt=xt, yt=yt: ref.product(rg, xt, yt)
                                  + ref.scale(ref.product(rg, yt, xt), (-1, 0)),
                                  pts(lambda xt=xt, yt=yt: xt + yt)), size))
    for s, xt, yt, x, y in elems:
        size = {"graph": gname, "terms_in": s}
        ops.append(Op("adjoint", lambda x=x: lib.ckalg.adjoint(x),
                      value_check(lib, rg, lambda xt=xt: ref.adjoint(xt),
                                  pts(lambda xt=xt: ref.adjoint(xt))), size))
        j = rnd.randint(1, 3)
        ops.append(Op("gauge", lambda x=x, j=j: lib.ckalg.gauge(x, 4, j),
                      value_check(lib, rg, lambda xt=xt, j=j: [
                          (a, b, v, ref.cmul(c, I_POWERS[(j * (len(a) - len(b))) % 4]))
                          for a, b, v, c in xt], pts(lambda xt=xt: xt)), size))
        m = len(xt[0][0]) - len(xt[0][1])
        ops.append(Op("phi_m", lambda x=x, m=m: lib.ckalg.phi_m(x, m),
                      value_check(lib, rg, lambda xt=xt, m=m: [
                          t for t in xt if len(t[0]) - len(t[1]) == m], pts(lambda xt=xt: xt)), size))
        for p in term_points(rnd, rg, xt, 2) + unit_points(rnd, rg, 1):
            want = lazy(lambda xt=xt, p=p: ref.value_at(rg, xt, p))
            lp = lib.point(p)
            ops.append(Op("evaluate", lambda x=x, lp=lp: lib.ckalg.evaluate(x, lp),
                          lambda r, want=want: (r.re, r.im) == want(), size))
    for length, count in ((2, 3), (3, 6)):
        nt = normalizer_terms(rnd, rg, length, count, UNIMODULAR)
        u = lib.element(g, nt)
        twice = lib.element(g, ref.scale(nt, (Fraction(2), Fraction(0))))
        size = {"graph": gname, "terms_in": len(nt)}
        ops.append(Op("is_normalizing_pi", lambda u=u: lib.ckalg.is_normalizing_pi(u),
                      equals(True), size))
        ops.append(Op("is_normalizing_pi", lambda t=twice: lib.ckalg.is_normalizing_pi(t),
                      equals(False), size))
        c, norm = rnd.choice((((3, 4), 5), ((Fraction(3, 5), Fraction(4, 5)), 1), ((2, 0), 2)))
        scaled = lib.element(g, ref.scale(nt, (Fraction(c[0]), Fraction(c[1]))))
        ops.append(Op("restricted_norm", lambda s=scaled: lib.ckalg.restricted_norm(s),
                      equals(norm), size))
    if gname != "c2":  # a loop without an entrance has no separating pair
        for s, xt, yt, x, y in elems[:: 5 if not tiny else 2]:
            a0, _ = walk(rnd, rg, rnd.choice(rg.vertices), 1)
            e_src = rg.word_source(a0, None)
            b0 = rnd.choice(rg.paths_from_source(e_src, 1))
            e = lib.mono(a0, b0, e_src)
            ops.append(Op("check_proj_afpart",
                          lambda x=x, e=e: lib.ckalg.check_proj_afpart(x, e, 3),
                          equals(True), {"graph": gname, "terms_in": s, "k": 3}))


# -- groupoid --------------------------------------------------------------------


def shortest_loops(rg):
    """Every loop word of the smallest length the graph has."""
    for n in range(1, len(rg.vertices) + 1):
        loops = [w for v in rg.vertices for w in rg.paths_into(v, n)
                 if rg.word_source(w, v) == v]
        if loops:
            return loops
    raise ValueError("graph has no loop")


def random_table(rnd, rg, depth):
    words = [w for v in rg.vertices for w in rg.paths_into(v, depth)]
    return {w: Fraction(rnd.randint(-3, 3), rnd.randint(1, 2)) for w in words}


def random_point(rnd, rg):
    """Random point (p.T, |p|-|q|, q.T) for a shared random tail T."""
    v = rnd.choice(rg.vertices)
    t = tail(rnd, rg, v)
    options_p = [w for n in range(3) for w in rg.paths_from_source(v, n)]
    p = rnd.choice(options_p) if options_p else ()
    q = rnd.choice(options_p) if options_p else ()
    if not p and not q:
        return ref.unit_point(t)
    return ref.tail_point(p, q, t)


def groupoid(lib, rnd, tiny):
    ops = []
    graphs = [("O2", FIXTURES["O2"]), ("e2", FIXTURES["e2"])]
    graphs += [("rand%d" % i, random_adapted_graph(rnd, i)) for i in range(2 if tiny else 4)]
    for gname, rg in graphs:
        og = lib.graph(rg)
        max_len = 1 if tiny else 3
        loop_bound = len(rg.vertices)
        for a, b, src in monomial_words(rg, max_len):
            m = lib.mono(a, b, src)
            size = {"graph": gname, "n": len(a) + len(b),
                    "level_bound": len(a) + len(b) + 2 * loop_bound}
            # the clause test and the oracle must agree; each checks the other
            by_clause = lazy(lambda og=og, m=m: lib.nest.in_alg_n(og, m)[0])
            by_oracle = lazy(lambda og=og, m=m: lib.nest.in_alg_n_oracle(og, m)[0])
            ops.append(Op("in_alg_n", lambda og=og, m=m: lib.nest.in_alg_n(og, m),
                          lambda r, want=by_oracle: r[0] is want(), size))
            ops.append(Op("in_alg_n_oracle", lambda og=og, m=m: lib.nest.in_alg_n_oracle(og, m),
                          lambda r, want=by_clause: r[0] is want(), size))
        for _ in range(3 if tiny else 12):
            p = random_point(rnd, rg)
            lp = lib.point(p)
            want = lazy(lambda p=p, rg=rg: ref.nest_spectrum_member(rg, p))
            below = ref.ev_compare(rg, p[0], p[2]) < 0
            size = {"graph": gname, "k": p[1]}
            ops.append(Op("point_in_spectrum_alg_n",
                          lambda og=og, lp=lp: lib.nest.point_in_spectrum_alg_n(og, lp),
                          lambda r, want=want: r[0] == want(), size))
            ops.append(Op("in_radical_spectrum",
                          lambda og=og, lp=lp: lib.nest.in_radical_spectrum(og, lp),
                          lambda r, want=want, below=below: r == (want() and below), size))
        # isotropy points exercise the s-extremal block clause
        for _ in range(2 if tiny else 6):
            x = tail(rnd, rg, rnd.choice(rg.vertices))
            k = len(x[1]) * rnd.choice((-2, -1, 1, 2))
            p = (x, k, x)
            lp = lib.point(p)
            want = lazy(lambda p=p, rg=rg: ref.nest_spectrum_member(rg, p))
            ops.append(Op("point_in_spectrum_alg_n",
                          lambda og=og, lp=lp: lib.nest.point_in_spectrum_alg_n(og, lp),
                          lambda r, want=want: r[0] == want(), {"graph": gname, "k": k}))
        for depth in ((1, 2) if tiny else (1, 2, 3)):
            table = random_table(rnd, rg, depth)
            f = lib.fn(table, depth)
            size = {"graph": gname, "depth": depth}
            for _ in range(2 if tiny else 6):
                p = random_point(rnd, rg)
                lp = lib.point(p)
                want = lazy(lambda t=table, d=depth, p=p: ref.cocycle_value(t, d, p))
                ops.append(Op("eval_cocycle", lambda f=f, lp=lp: lib.cocycle.eval_cocycle(f, lp),
                              lambda r, want=want: r == want(), size))
            ops.append(Op("reconstruct_f", lambda og=og, f=f: lib.cocycle.reconstruct_f(og, f),
                          lambda r: r[0] is True and not r[1], size))
            # the cost grows with the period, so it is fixed per graph
            x = ((), rnd.choice(shortest_loops(rg)))
            period = 2 * len(x[1])
            base = sum(table[ref.window(x, j, depth)] for j in range(period))
            lx = lib.evpath(x)
            ops.append(Op("loop_growth",
                          lambda f=f, lx=lx, period=period: lib.cocycle.loop_growth(f, lx, period),
                          lambda r, base=base: (r.base == base and r.verified
                                                and r.unbounded == (base != 0)), size))
            for a, b, src in rnd.sample(monomial_words(rg, 2), 4):
                m = lib.mono(a, b, src)
                want = all(
                    ref.tailed_value(table, depth, a, b, w) >= 0
                    for w in rg.paths_into(src, depth)
                )
                ops.append(Op("ck_in_analytic",
                              lambda og=og, f=f, m=m: lib.bimodule.ck_in_analytic(og, f, m),
                              equals(want), size))
    rnd_o2 = FIXTURES["O2"]
    o2 = lib.graph(rnd_o2)
    e2 = lib.graph(FIXTURES["e2"])
    for g, rg, loops in ((o2, rnd_o2, ((("a",), ("b",)), (("a", "a"), ("b",)), (("b",), ("a",)))),
                         (e2, FIXTURES["e2"], ((("h",), ("c", "d")), (("c", "d"), ("h",))))):
        for alpha, beta in loops:
            for ell in (2, 3):
                ops.append(Op(
                    "integer_obstruction_witness",
                    lambda g=g, a=lib.path(alpha, None), b=lib.path(beta, None), ell=ell:
                        lib.cocycle.integer_obstruction_witness(g, a, b, ell),
                    obstruction_check(rnd, rg, ell), {"graph": "e2" if g is e2 else "O2",
                                                      "ell": ell}))
        for k in (1, 2):
            for _ in range(3):
                n = rnd.randint(0, 2)
                a, src = walk(rnd, rg, rnd.choice(rg.vertices), n)
                b = rnd.choice(rg.paths_from_source(src, n))
                e = lib.mono(a, b, src)
                ops.append(Op("separating_projections",
                              lambda g=g, e=e, k=k: lib.ckalg.separating_projections(g, e, k),
                              separating_check(a, b, k), {"k": k, "n": n}))
    return ops


def obstruction_check(rnd, rg, ell):
    seed = rnd.random()

    def check(w):
        x = (tuple(w.x.prefix), tuple(w.x.cycle))
        y = (tuple(w.y.prefix), tuple(w.y.cycle))
        k = len(w.loop_alpha)
        if w.window != ell * k or x == y or len(w.loop_beta) != k:
            return False
        if not ref.shifts_agree(x, len(x[0]) + len(y[0]), y, len(x[0]) + len(y[0])):
            return False
        local = random.Random(seed)
        for depth in range(1, min(w.window, 3) + 1):
            table = {wd: Fraction(local.randint(-3, 3))
                     for v in rg.vertices for wd in rg.paths_into(v, depth)}
            if ref.cocycle_value(table, depth, (x, 0, y)) != 0:
                return False
        return True

    return check


def separating_check(alpha, beta, k):
    def check(s):
        pi, w = tuple(s.pi.edges), tuple(s.w.edges)
        lvl = s.level
        if lvl < k or len(pi) != 2 * lvl or len(w) != lvl:
            return False
        if any(pi[-d:] == w[:d] for d in range(1, lvl + 1)):
            return False
        return (tuple(s.p.alpha.edges) == beta + pi + w
                and tuple(s.q.alpha.edges) == alpha + pi + w)

    return check


# -- cli ------------------------------------------------------------------------


def cli(lib, rnd, tiny, workdir):
    """Requests to cli.main over every subcommand; stdout is captured."""
    ops = []
    os.makedirs(workdir, exist_ok=True)
    counter = [0]

    def save(obj):
        counter[0] += 1
        path = os.path.join(workdir, "in%03d.json" % counter[0])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def elem_json(terms):
        return [{"alpha": list(a), "beta": list(b), "anchor": v,
                 "re": str(c[0]), "im": str(c[1])} for a, b, v, c in terms]

    def fn_json(table, depth):
        return {"depth": depth,
                "table": [{"path": list(w), "value": str(v)} for w, v in table.items()]}

    def request(argv, expect, error=None):
        """expect(out_obj) -> bool, evaluated outside timing."""
        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = lib.cli.main(argv)
            return code, buf.getvalue()

        def check(result):
            code, text = result
            lines = text.splitlines()
            if len(lines) != 1:
                return False
            out = json.loads(lines[0])
            if error is not None:
                return code == 1 and out.get("ok") is False and out["error"]["code"] == error
            return code == 0 and out.get("ok") is True and expect(out)

        ops.append(Op("cli:" + argv[0], call, check,
                      {"argv_len": len(argv), "error": error}))

    def same_element(g, want):
        return lambda out: lib.ckalg.element_from_json_obj(g, out["element"]) == want()

    variants = 1 if tiny else 3
    for gname in ("O2", "e2"):
        rg = FIXTURES[gname]
        g = lib.graph(rg)
        gpath = save(rg.spec())
        for _ in range(variants):
            xt, yt = random_terms(rnd, rg, 4), random_terms(rnd, rg, 4)
            x, y = lib.element(g, xt), lib.element(g, yt)
            xp, yp = save(elem_json(xt)), save(elem_json(yt))
            gens_p = save([elem_json(yt)])
            depth = 2
            table = random_table(rnd, rg, depth)
            fp = save(fn_json(table, depth))
            f = lib.fn(table, depth)
            a, b, src = rnd.choice(monomial_words(rg, 2))
            m = lib.mono(a, b, src)
            mono_args = ["--alpha", ",".join(a), "--beta", ",".join(b), "--anchor", src]
            p = random_point(rnd, rg)
            lp = lib.point(p)
            point_args = ["--x-prefix", ",".join(p[0][0]), "--x-cycle", ",".join(p[0][1]),
                          "--k", str(p[1]),
                          "--y-prefix", ",".join(p[2][0]), "--y-cycle", ",".join(p[2][1])]
            base = ["--graph", gpath]
            request(["validate"] + base, lambda o: o["valid"] is True)
            request(["masa-check"] + base,
                    lambda o, g=g: o["masa"] == lib.graph_mod.every_loop_has_entrance(g))
            request(["normalize"] + base + ["--element", xp],
                    same_element(g, lambda x=x: x))
            request(["normalize"] + base + ["--element", xp, "--depth", "4"],
                    same_element(g, lambda x=x: x))
            request(["mul"] + base + ["--left", xp, "--right", yp],
                    same_element(g, lambda x=x, y=y: x * y))
            request(["phi"] + base + ["--element", xp, "--degree", "0"],
                    same_element(g, lambda x=x: lib.ckalg.phi_m(x, 0)))
            request(["phi"] + base + ["--element", xp, "--fn", fp, "--value", "0"],
                    same_element(g, lambda x=x, f=f: lib.cocycle.cocycle_graded_projection(f, x, 0)))
            request(["gauge"] + base + ["--element", xp, "--root", "4", "--power", "1"],
                    same_element(g, lambda x=x: lib.ckalg.gauge(x, 4, 1)))
            request(["eval"] + base + ["--element", xp] + point_args,
                    lambda o, x=x, lp=lp: o["value"] == _coeff(lib, lib.ckalg.evaluate(x, lp)))
            request(["spectrum"] + base + ["--element", xp],
                    lambda o, g=g, x=x: lib.bimodule.spectrum_from_json_obj(g, o["spectrum"])
                    == lib.ckalg.support_spectrum(x))
            request(["bimodule-member"] + base + ["--element", xp, "--gens", gens_p],
                    lambda o, x=x, y=y: o["member"] == lib.bimodule.bimodule_member(x, [y]))
            request(["analytic-member"] + base + ["--fn", fp] + mono_args,
                    lambda o, g=g, f=f, m=m: o["member"] == lib.bimodule.ck_in_analytic(g, f, m))
            request(["nest-member"] + base + mono_args,
                    lambda o, g=g, m=m: [o["member"], o["clause"]] == list(lib.nest.in_alg_n(g, m)))
            request(["nest-oracle"] + base + mono_args,
                    lambda o, g=g, m=m: o["member"] == lib.nest.in_alg_n_oracle(g, m)[0])
            request(["nest-spectrum"] + base + point_args,
                    lambda o, g=g, lp=lp: [o["member"], o["clause"]]
                    == list(lib.nest.point_in_spectrum_alg_n(g, lp)))
            request(["radical-member"] + base + point_args,
                    lambda o, g=g, lp=lp: o["member"] == lib.nest.in_radical_spectrum(g, lp))
            request(["commutator"] + base + ["--left", xp, "--right", yp],
                    same_element(g, lambda x=x, y=y: x * y - y * x))
            request(["cocycle-eval"] + base + ["--fn", fp] + point_args,
                    lambda o, t=table, p=p: o["value"] == str(ref.cocycle_value(t, depth, p)))
            request(["cocycle-check"] + base + ["--fn", fp],
                    lambda o: o["consistent"] is True and o["failures"] == 0)
            x_loop = tail(rnd, rg, rnd.choice(rg.vertices))
            request(["loop-growth"] + base + ["--fn", fp, "--cycle", ",".join(x_loop[1]),
                                              "--period", str(len(x_loop[1]))],
                    lambda o, t=table, c=x_loop[1]: o["base"] == str(sum(
                        t[ref.window(((), c), j, depth)] for j in range(len(c)))))
            ids = [e for e, _, _ in rg.edges]
            request(["weights", "--edges", ",".join(ids)],
                    lambda o, ids=ids: o["weights"] == {
                        e: str(Fraction(1, 3 ** (i + 1))) for i, e in enumerate(ids)})
            loops = (("a",), ("b",)) if gname == "O2" else (("h",), ("c", "d"))
            request(["obstruction"] + base + ["--alpha", ",".join(loops[0]),
                                              "--beta", ",".join(loops[1]), "--ell", "2"],
                    lambda o, g=g, lo=loops: o == _obstruction(lib, g, lo))
            norm_t = normalizer_terms(rnd, rg, 2, 3, UNIMODULAR)
            request(["normalizer-check"] + base + ["--element", save(elem_json(norm_t))],
                    lambda o: o["normalizing"] is True)
            n = rnd.randint(0, 2)
            sa, ssrc = walk(rnd, rg, rnd.choice(rg.vertices), n)
            sb = rnd.choice(rg.paths_from_source(ssrc, n))
            request(["separating-proj"] + base + ["--alpha", ",".join(sa), "--beta", ",".join(sb),
                                                  "--anchor", ssrc, "--level", "1"],
                    lambda o, s=separating_check(sa, sb, 1): s(_Sep(lib, o)))
            # domain errors with their stable codes
            request(["gauge"] + base + ["--element", xp, "--root", "3", "--power", "1"],
                    None, error="unsupported_root")
            request(["phi"] + base + ["--element", xp, "--fn", fp], None, error="bad_input")
            request(["obstruction"] + base + ["--alpha", ",".join(loops[0]),
                                              "--beta", ",".join(loops[1]), "--ell", "1"],
                    None, error="precondition_violation")
            request(["loop-growth"] + base + ["--fn", fp, "--cycle", ",".join(x_loop[1]),
                                              "--period", str(len(x_loop[1]) + 1)]
                    if len(x_loop[1]) > 1 else
                    ["loop-growth"] + base + ["--fn", fp, "--cycle", ",".join(x_loop[1]),
                                              "--period", "0"],
                    None, error="precondition_violation")
            one, one_src = walk(rnd, rg, rnd.choice(rg.vertices), 1)
            request(["separating-proj"] + base + ["--alpha", one[0], "--beta", "",
                                                  "--anchor", one_src, "--level", "1"],
                    None, error="precondition_violation")
            request(["weights", "--edges", "%s,%s" % (ids[0], ids[0])], None,
                    error="bad_input")
    return ops


def _coeff(lib, c):
    return {"re": lib.scalars.format_rational(c.re), "im": lib.scalars.format_rational(c.im)}


def _obstruction(lib, g, loops):
    w = lib.cocycle.integer_obstruction_witness(
        g, lib.paths.FinPath(loops[0]), lib.paths.FinPath(loops[1]), 2)
    return {"ok": True, "x": lib.paths.evpath_to_json_obj(w.x),
            "y": lib.paths.evpath_to_json_obj(w.y), "window": w.window}


class _Sep:
    """The separating-proj JSON read back into the fields the check uses."""

    def __init__(self, lib, o):
        fp = lib.paths.FinPath
        self.pi, self.w, self.level = fp(tuple(o["pi"])), fp(tuple(o["w"])), o["level"]
        self.p = _Diag(fp(tuple(o["p"]["edges"])))
        self.q = _Diag(fp(tuple(o["q"]["edges"])))


class _Diag:
    def __init__(self, path):
        self.alpha = path


def build(workload, lib, seed, tiny=False, workdir=None):
    rnd = random.Random("%s:%d" % (workload, seed))
    if workload == "normal_form":
        return normal_form(lib, rnd, tiny)
    if workload == "products":
        return products(lib, rnd, tiny)
    if workload == "groupoid":
        return groupoid(lib, rnd, tiny)
    if workload == "cli":
        return cli(lib, rnd, tiny, workdir)
    raise ValueError("unknown workload %r" % workload)
