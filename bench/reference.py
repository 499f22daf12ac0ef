"""Independent reference semantics used to check the library's answers.

Everything here works on plain tuples, never on library objects, so a check
built from it does not depend on how the library represents an element.

- A graph is a `RefGraph` built from the same spec the library graph is.
- A finite path is `(word, anchor)`: a tuple of edge ids plus the vertex an
  empty word sits at (the anchor is ignored for nonempty words).
- An eventually periodic path is `(prefix, cycle)` of edge-id tuples.
- A groupoid point is `(x, k, y)`.
- A term of an element is `(alpha_word, beta_word, anchor, (re, im))` with
  Fraction parts; the anchor is the common source vertex.
- An element is a list of terms; its value at a point is the sum of the
  coefficients of the terms whose basic set holds the point, which is true
  of any listing, canonical or not.
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cconj(a):
    return (a[0], -a[1])


class RefGraph:
    """Edges as (id, range, source); `order` lists every edge id when given."""

    def __init__(self, vertices, edges, order=None):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.order = tuple(order) if order is not None else None
        self.rng = {e: r for e, r, _ in edges}
        self.src = {e: s for e, _, s in edges}
        self.ins = {v: [(e, s) for e, r, s in edges if r == v] for v in vertices}
        self.pos = {e: i for i, e in enumerate(self.order or ())}

    def spec(self):
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e, "range": r, "source": s} for e, r, s in self.edges],
            **({"order": list(self.order)} if self.order is not None else {}),
        }

    def word_range(self, word, anchor):
        return self.rng[word[0]] if word else anchor

    def word_source(self, word, anchor):
        return self.src[word[-1]] if word else anchor

    def paths_into(self, v, length):
        """All words of the given length whose range is v."""
        acc = [((), v)]
        for _ in range(length):
            acc = [(w + (e,), s) for w, cur in acc for e, s in self.ins[cur]]
        return [w for w, _ in acc]

    def paths_from_source(self, v, length):
        """All words of the given length whose source is v."""
        return [
            w
            for u in self.vertices
            for w in self.paths_into(u, length)
            if self.word_source(w, u) == v
        ]


def edge_at(x, i):
    """1-indexed edge of an eventually periodic path."""
    pre, cyc = x
    if i <= len(pre):
        return pre[i - 1]
    return cyc[(i - len(pre) - 1) % len(cyc)]


def window(x, start, length):
    """Edges start+1 .. start+length of x."""
    return tuple(edge_at(x, start + i) for i in range(1, length + 1))


def shifts_agree(x, a, y, b):
    """Whether S^a x == S^b y as infinite words."""
    span = math.lcm(len(x[1]), len(y[1]))
    n0 = max(len(x[0]) - a, len(y[0]) - b, 0)
    return all(edge_at(x, a + i) == edge_at(y, b + i) for i in range(1, n0 + span + 1))


def in_cylinder(g, x, word, anchor):
    if not word:
        return g.rng[edge_at(x, 1)] == anchor
    return window(x, 0, len(word)) == word


def point_in_basic_set(g, point, alpha, beta, anchor):
    x, k, y = point
    if k != len(alpha) - len(beta):
        return False
    if not in_cylinder(g, x, alpha, anchor) or not in_cylinder(g, y, beta, anchor):
        return False
    return shifts_agree(x, len(alpha), y, len(beta))


def value_at(g, terms, point):
    total = ZERO
    for alpha, beta, anchor, c in terms:
        if point_in_basic_set(g, point, alpha, beta, anchor):
            total = cadd(total, c)
    return total


def _tail(g, whole, whole_anchor, prefix, prefix_anchor):
    """t with whole == prefix . t as words, or None (empty prefix: range test)."""
    if not prefix:
        if g.word_range(whole, whole_anchor) != prefix_anchor:
            return None
        return whole
    if whole[: len(prefix)] != prefix:
        return None
    return whole[len(prefix):]


def mono_mul(g, t1, t2):
    """S_a S_b* . S_c S_d* by the Cuntz-Krieger relations, or None."""
    a, b, v1, c1 = t1
    c, d, v2, c2 = t2
    coeff = cmul(c1, c2)
    t = _tail(g, c, v2, b, v1)
    if t is not None:
        return (a + t, d, v2, coeff)
    t = _tail(g, b, v1, c, v2)
    if t is not None:
        return (a, d + t, v1, coeff)
    return None


def product(g, xs, ys):
    out = []
    for t1 in xs:
        for t2 in ys:
            p = mono_mul(g, t1, t2)
            if p is not None:
                out.append(p)
    return out


def scale(terms, c):
    return [(a, b, v, cmul(c, k)) for a, b, v, k in terms]


def adjoint(terms):
    return [(b, a, v, cconj(k)) for a, b, v, k in terms]


def unit_point(x):
    return (x, 0, x)


def tail_point(alpha, beta, tail):
    """A point of the basic set of (alpha, beta): (alpha T, |a|-|b|, beta T)."""
    x = (alpha + tail[0], tail[1])
    y = (beta + tail[0], tail[1])
    return (x, len(alpha) - len(beta), y)


def lex_key(g, x, length):
    return tuple(g.pos[edge_at(x, i)] for i in range(1, length + 1))


def ev_compare(g, x, y):
    n = len(x[0]) + len(y[0]) + math.lcm(len(x[1]), len(y[1]))
    kx, ky = lex_key(g, x, n), lex_key(g, y, n)
    return (kx > ky) - (kx < ky)


def s_extremal(g, block, smallest):
    """Whether the word is the first (last) of its length into its source."""
    key = tuple(g.pos[e] for e in block)
    peers = [
        tuple(g.pos[e] for e in w)
        for w in g.paths_into(g.src[block[-1]], len(block))
    ]
    return key == (min(peers) if smallest else max(peers))


def nest_spectrum_member(g, point):
    """Membership of a point in the spectrum of the nest algebra."""
    x, k, y = point
    cmp = ev_compare(g, x, y)
    if cmp != 0:
        return cmp < 0
    if k == 0:
        return True
    pre, cyc = x
    if abs(k) % len(cyc):
        return False
    return any(
        s_extremal(g, window(x, len(pre) + t, abs(k)), k > 0)
        for t in range(len(cyc))
    )


def cocycle_value(table, depth, point):
    """sum_j f(S^j x) - f(S^(j-k) y), truncated where the shifts coincide."""
    x, k, y = point
    if k < 0:
        return -cocycle_value(table, depth, (y, -k, x))
    span = math.lcm(len(x[1]), len(y[1]))
    horizon = max(len(x[0]) - k, len(y[0]), 0) + span + k
    total = Fraction(0)
    for j in range(horizon):
        total += table[window(x, j, depth)]
        if j >= k:
            total -= table[window(y, j - k, depth)]
    return total


def tailed_value(table, depth, alpha, beta, w):
    """Cocycle on points alpha.w.T versus beta.w.T for any common tail T."""
    xw, yw = alpha + w, beta + w
    return sum(table[xw[j: j + depth]] for j in range(len(alpha))) - sum(
        table[yw[j: j + depth]] for j in range(len(beta))
    )
