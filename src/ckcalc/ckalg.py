"""Normal-form arithmetic for generator monomials.

An element is a finite linear combination of monomials (alpha, beta) of
finite paths with a common source, with exact Gaussian-rational
coefficients, read as a function on the groupoid: the sum of coefficient
times the indicator of the basic set Z(alpha, beta).  Within one degree
these sets are disjoint or nested, and they form a forest under the child
expansion that replaces (alpha, beta) by its one-edge extensions
(alpha e, beta e) over the in-edges of the common source.
Every operation reads and writes plain keys (common source, alpha edges,
beta edges) with plain values: each coefficient is its canonical integer
triple (re_num, im_num, den), as scalars holds it.  .terms, monomials(),
coefficient and evaluate build CKMono and GaussianRational views on each
read.

The stored form is the coarsest one (the reduced decision-diagram rule):
per degree, the largest basic sets on which the function is a constant
nonzero value.  They are disjoint, so evaluation is a coefficient sum, and
equal elements have equal term maps.  R_{a^n} under p_v splits only the n
sets on its path: n+1 terms, not 2^n.  normalize(a, beta_depth=d) gives an
explicit refined listing instead.  Coarsening works on each tree alone: a
key's stem, the key without its longest common alpha/beta suffix, is the
root of its tree.  A key alone in its tree only climbs the parents it is
the only child of; a tree of several keys reads the child lists the keys
built climbing, and lists a child it lacks only under a node that is not
constant.  The stored order follows the inputs, not string hashing.

A product of monomials is nonzero only when the left beta and the right
alpha are prefix-comparable, and the projections of two terms of a
normalizer are orthogonal only when neither pair of legs is.  One sorted
sweep finds those pairs: each path is the tuple (range,) + edges, with an
empty path at v a prefix of every path of range v, and in sorted order
the prefixes of the current path form a stack.  The products of one key are
summed unreduced, over the lcm of their denominators, and each sum is
brought to lowest terms once.  A commutator merges both of its products,
the second with its sign, into one map and coarsens it once.

evaluate reads a point (x, k, y) once, as n0, the least n >= max(k, 0) with
S^n x = S^(n-k) y, and a truncation each of x and y, lengthened only when a
longer alpha comes up; in one pass over the terms it sums those of degree
k with |alpha| >= n0 whose alpha and beta start the truncations.

Element equality is semantic: a == b iff a - b normalizes to zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (
    BadInputError,
    PreconditionError,
    SearchFailureError,
    UnsupportedNormError,
    UnsupportedRootError,
    _Immutable,
    _int_arg,
    _Record,
)
from .graph import (
    _require_no_sources,
    every_loop_has_entrance,
    strings_from_json_obj,
    underlying,
)
from .paths import (
    FinPath,
    GroupoidPoint,
    _agree_from,
    _path,
    _walk,
    check_evpath,
    check_finpath,
    empty_path,
    ev_range,
    join_paths,
    path_range,
    path_source,
)
from .scalars import (
    GaussianRational,
    ZERO,
    _ZERO,
    _add,
    _lowest,
    _modulus_squared,
    _mul,
    _of_triple,
    _times_i_power,
    as_gaussian,
    format_rational,
    rational_from_json_obj,
    rational_sqrt,
)


class CKMono(_Record):
    """Monomial indexed by a pair of paths with a common source."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha, beta):
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def degree(self):
        return len(self.alpha) - len(self.beta)

    def adjoint(self) -> "CKMono":
        return CKMono(self.beta, self.alpha)

    def is_diagonal(self):
        return self.alpha == self.beta

    def __repr__(self):
        return "CKMono(%r, %r)" % (self.alpha, self.beta)


def check_mono(g, m: CKMono):
    check_finpath(g, m.alpha)
    check_finpath(g, m.beta)
    if path_source(g, m.alpha) != path_source(g, m.beta):
        raise BadInputError("monomial paths must share a source vertex")


def mono_source(g, m: CKMono):
    return path_source(g, m.alpha)


def path_tail_of(g, whole: FinPath, prefix: FinPath):
    """The tail t with whole == prefix . t, or None.

    For an empty prefix the match requires range(whole) == anchor, which is
    the basic-set containment reading.
    """
    if prefix.is_empty:
        if path_range(g, whole) != prefix.anchor:
            return None
        return whole
    if len(prefix) > len(whole):
        return None
    if whole.edges[: len(prefix)] != prefix.edges:
        return None
    return _path(whole.edges[len(prefix):], path_source(g, whole))


def mono_product(g, m1: CKMono, m2: CKMono):
    """Product of two monomials: a single monomial or None (zero)."""
    t = path_tail_of(g, m2.alpha, m1.beta)
    if t is not None:
        return CKMono(join_paths(m1.alpha, t), m2.beta)
    t = path_tail_of(g, m1.beta, m2.alpha)
    if t is not None:
        return CKMono(m1.alpha, join_paths(m2.beta, t))
    return None


def _refine(g, key, depth):
    """The basic set of key cut by every window w of the given length into
    its source: the keys (source of w, alpha w, beta w), in in-edge order."""
    src, a, b = key
    edges = g._edge_by_id
    for w in _walk(g, src, depth):
        yield edges[w[-1]].source if w else src, a + w, b + w


def _key(g, m: CKMono):
    """A monomial as plain tuples: (common source, alpha edges, beta edges)."""
    return path_source(g, m.alpha), m.alpha.edges, m.beta.edges


def _from_key(key) -> CKMono:
    src, a, b = key
    return CKMono(_path(a, src), _path(b, src))


def _degree(key):
    _, a, b = key
    return len(a) - len(b)


def _key_order(key):
    """Listing order: by degree, then beta, then alpha; an empty beta by its vertex."""
    src, a, b = key
    return _degree(key), len(b), b, "" if b else src, a


_ROUGH = object()  # the value of a node the function is not constant on


def _coarsest_keys(g, merged, add):
    """Coarsest listing of the function a map from monomial keys to values
    (None for a zero sum) gives: the basic sets on which it is a constant
    nonzero value, but not constant on their parent set, keyed the same way
    (merged is only read).

    The parent of a key with a common last edge e is the key cut by e; it
    has one child per in-edge of its source.  Cutting keeps |alpha| - |beta|
    and stops at the key's stem, which has no common last edge, so each
    stem is the root of its own tree and keys with different stems never
    interact.  A key alone in its tree is output as is, after climbing the
    parents it is the only child of.  The keys of a shared tree go to
    _forest.  The output follows the order in which merged first meets each
    stem, so it does not depend on string hashing.
    """
    rng, ins = g._range, g._in_ids
    trees = {}  # stem -> its one key, or the list of its keys
    for key, v in merged.items():
        if v is None:
            continue
        _, a, b = key
        if a and b and a[-1] == b[-1]:
            d, n = 1, min(len(a), len(b))
            while d < n and a[-d - 1] == b[-d - 1]:
                d += 1
            stem = rng[a[-d]], a[:-d], b[:-d]
        else:
            stem = key
        seen = trees.setdefault(stem, key)
        if seen is not key:
            if type(seen) is list:
                seen.append(key)
            else:
                trees[stem] = [seen, key]
    out = {}
    for stem, key in trees.items():
        if type(key) is list:
            _forest(g, stem, key, merged, add, out)
            continue
        src, a, b = key
        while a and b and a[-1] == b[-1] and len(ins[rng[a[-1]]]) == 1:
            src, a, b = rng[a[-1]], a[:-1], b[:-1]
        out[src, a, b] = merged[key]
    return out


def _forest(g, stem, keys, merged, add, out):
    """Add to out the coarsest listing of the keys of the tree under stem.

    Each key climbs to the first node already in the tree, and the nodes it
    passes join top down, so every node follows its parent and records its
    children in the order met.  Going down, a node's total adds its
    parent's.  Going up, a node is flat when its children are flat with one
    value, its value then replacing its total; a child the tree lacks has
    its parent's total.  A rough node lists its flat children, the lacking
    ones through _refine only when that total is nonzero.
    """
    rng, ins = g._range, g._in_ids
    kids, val = {stem: []}, {stem: merged.get(stem)}
    for node in keys:
        chain = []
        while node not in kids:
            chain.append(node)
            _, a, b = node
            node = rng[a[-1]], a[:-1], b[:-1]
        t = val[node]
        for c in reversed(chain):
            kids[node].append(c)
            kids[c], v = [], merged.get(c)
            t = val[c] = v if t is None else t if v is None else add(t, v)
            node = c
    for node in reversed(kids):
        cs = kids[node]
        if not cs:
            continue  # a leaf is flat at its total
        t, first = val[node], val[cs[0]]
        lacking = len(cs) < len(ins[node[0]])
        if (first is not _ROUGH and (not lacking or first == t)
                and all(val[c] == first for c in cs)):
            val[node] = first
            continue
        val[node] = _ROUGH
        for c in cs:
            v = val[c]
            if v is not _ROUGH and v is not None:
                out[c] = v
        if lacking and t is not None:
            out.update((c, t) for c in _refine(g, node, 1) if c not in kids)
    if val[stem] is not _ROUGH and val[stem] is not None:
        out[stem] = val[stem]


def _leg(rng, src, p):
    """The path with edges p and source src as the tuple (range,) + edges.
    An empty path is (src,), a prefix of every path of range src, so one
    path is a prefix of another exactly when its cylinder holds the other's."""
    return (rng[p[0]] if p else src,) + p


def _sweep(items):
    """Sort items (path, side, ...), a _leg path and a side 0 or 1, and
    yield each with the two stacks of the items before it, one per side,
    whose paths are prefixes of its own.  The consumer reads the stacks
    before the item joins its side's.

    If p is a prefix of q, every path sorted between them also starts with
    p.  So the prefixes of the current path form a stack, and each stack
    pops while its top is not a prefix of the current path.  Each pair of
    comparable paths is met once, at the one sorted later; of two equal
    paths, side 0 sorts first."""
    stacks = [], []
    items.sort()
    for item in items:
        path = item[0]
        for stack in stacks:
            while stack and path[:len(stack[-1][0])] != stack[-1][0]:
                stack.pop()
        yield item, stacks
        stacks[item[1]].append(item)


def _product_keys(g, *products):
    """The key map of the sum of sign * left * right over the products
    (left, right, sign), with left and right key maps and sign 1 or -1: its
    coefficients in lowest terms, and its zero sums dropped.

    A pair of terms (s1, a1, b1) and (s2, a2, b2) has a nonzero product
    only when the left beta b1 and the right alpha a2 are prefix-comparable.
    One _sweep over the right alphas (side 0) and the left betas (side 1)
    meets each such pair once, each item carrying its key and value.  The
    pair's key is (s2, a1 + a2[len(b1):], b2) when b1 is shorter than a2,
    met at the right alpha, and (s1, a1, b2 + b1[len(a2):]) otherwise, met
    at the left beta.  The products of a key are summed unreduced over the
    lcm of their denominators, so no sum's denominator is a product of
    theirs, and each sum is reduced once at the end.
    """
    rng, merged = g._range, {}
    get = merged.get
    for left, right, sign in products:
        items = [(_leg(rng, s, a), 0, s, a, b, c if sign > 0 else (-c[0], -c[1], c[2]))
                 for (s, a, b), c in right.items()]
        items += [(_leg(rng, s, b), 1, s, a, b, c) for (s, a, b), c in left.items()]
        for (_, side, s, a, b, (p, q, d)), (rights, lefts) in _sweep(items):
            if side and rights:  # a left beta b, after the right alphas a2 that start it
                hits = [((s, a, b2 + b[len(a2):]), c2) for _, _, _, a2, b2, c2 in rights]
            elif not side and lefts:  # a right alpha a, after the left betas b1 that start it
                hits = [((s, a1 + a[len(b1):], b), c1) for _, _, _, a1, b1, c1 in lefts]
            else:
                continue
            for key, (r, t, f) in hits:
                x, y, e = p * r - q * t, p * t + q * r, d * f
                old = get(key)
                if old is not None:
                    x0, y0, e0 = old
                    if e0 == e:
                        x, y = x + x0, y + y0
                    else:
                        k = gcd(e, e0)
                        m, m0 = e0 // k, e // k
                        x, y, e = x * m + x0 * m0, y * m + y0 * m0, e * m
                merged[key] = x, y, e
    return {key: _lowest(c) for key, c in merged.items() if c[0] or c[1]}


def _add_values(x, y):
    s = _add(x, y)
    return None if s == _ZERO else s


def _add_into(merged, pairs):
    """Add the (key, triple) pairs into merged (None for a zero sum)."""
    for key, c in pairs:
        old = merged.get(key)
        merged[key] = c if old is None else _add_values(old, c)
    return merged


class _Family(_Immutable):
    """A canonical finite family of basic sets with values over a plain graph
    without sources, held as one map _keys from monomial keys to values
    (coefficient triples for an element, True for a spectrum).  A
    subclass sets the layer its guard names (_layer) and _canonical(graph,
    merged), the coarsest listing of a key map (None for a zero sum)."""

    __slots__ = ("graph", "_keys")

    @classmethod
    def _plain(cls, graph, monos=()):
        """The plain graph, guarded, with the monomials monos checked."""
        graph = underlying(graph)
        # A basic set at a source is empty and has no children to refine into.
        _require_no_sources(graph, cls._layer)
        for m in monos:
            check_mono(graph, m)
        return graph

    def _init(self, graph, keys):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "_keys", keys)

    @classmethod
    def _trusted(cls, graph, keys):
        """The object of a key map already canonical over a plain graph."""
        s = object.__new__(cls)
        s._init(graph, keys)
        return s

    @classmethod
    def _of_merged(cls, graph, merged):
        """The object of a key map of checked monomials (None for a zero sum)."""
        return cls._trusted(graph, cls._canonical(graph, merged))

    def __reduce__(self):
        # Through _trusted, so a refined listing from normalize is kept as is.
        return self._trusted, (self.graph, self._keys)


class AlgElement(_Family):
    """Finite linear combination of monomials, kept in normal form."""

    __slots__ = ()
    _layer = "the algebra"

    def __init__(self, graph, terms=()):
        pairs = list(terms.items() if isinstance(terms, dict) else terms)
        # Each monomial is checked before anything hashes it.
        graph = self._plain(graph, [m for m, _ in pairs])
        coerced = ((_key(graph, m), as_gaussian(c)._triple) for m, c in pairs)
        self._init(graph, self._canonical(
            graph, _add_into({}, ((key, c) for key, c in coerced if c != _ZERO))))

    @staticmethod
    def _canonical(graph, merged):
        return _coarsest_keys(graph, merged, _add_values)

    @property
    def terms(self):
        """The terms as a new map from CKMono to coefficient on each read."""
        return {_from_key(key): _of_triple(c) for key, c in self._keys.items()}

    def is_zero(self):
        return not self._keys

    def monomials(self):
        return [_from_key(key) for key in sorted(self._keys, key=_key_order)]

    def coefficient(self, mono) -> GaussianRational:
        """The value .terms holds at mono (ZERO if none), read from its key."""
        a = mono.alpha
        e = None if a.is_empty else self.graph._edge_by_id.get(a.edges[-1])
        key = (a.anchor if e is None else e.source, a.edges, mono.beta.edges)
        c = self._keys.get(key)
        # The key drops an empty beta's anchor, which must be the source too.
        return ZERO if c is None or _from_key(key) != mono else _of_triple(c)

    def degrees(self):
        return sorted({_degree(key) for key in self._keys})

    def __add__(self, other):
        _same_graph(self, other)
        return AlgElement._of_merged(
            self.graph, _add_into(dict(self._keys), other._keys.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgElement._trusted(
            self.graph, {key: (-x, -y, d) for key, (x, y, d) in self._keys.items()})

    def scale(self, scalar):
        c0 = as_gaussian(scalar)._triple
        if c0 == _ZERO:
            return zero(self.graph)
        return AlgElement._trusted(self.graph, {key: _mul(c0, c) for key, c in self._keys.items()})

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            _same_graph(self, other)
            return AlgElement._of_merged(
                self.graph, _product_keys(self.graph, (self._keys, other._keys, 1)))
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def adjoint(self):
        return AlgElement._trusted(
            self.graph, {(src, b, a): (x, -y, d) for (src, a, b), (x, y, d) in self._keys.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        if self.is_zero():
            return "AlgElement(0)"
        return "AlgElement(%d terms, degrees %s)" % (len(self._keys), self.degrees())


def _same_graph(a, b):
    if not (isinstance(a, AlgElement) and isinstance(b, AlgElement)):
        raise BadInputError("expected two elements, not %r and %r" % (a, b))
    if a.graph is not b.graph:
        raise BadInputError("elements live over different graphs")


def element(g, pairs) -> AlgElement:
    return AlgElement(g, pairs)


def zero(g) -> AlgElement:
    return AlgElement(g, ())


def mono_element(g, m: CKMono, coeff=1) -> AlgElement:
    return AlgElement(g, [(m, coeff)])


def vertex_projection(g, v) -> AlgElement:
    return AlgElement(g, [(CKMono(empty_path(v), empty_path(v)), as_gaussian(1))])


def identity(g) -> AlgElement:
    return AlgElement(
        g,
        [
            (CKMono(empty_path(v), empty_path(v)), as_gaussian(1))
            for v in g.vertices
        ],
    )


def path_isometry(g, p: FinPath) -> AlgElement:
    check_finpath(g, p)
    return mono_element(g, CKMono(p, empty_path(path_source(g, p))))


def range_projection(g, p: FinPath) -> AlgElement:
    check_finpath(g, p)
    return mono_element(g, CKMono(p, p))


def diagonal_element(g, weighted_paths) -> AlgElement:
    """Sum of coeff * R_path over (path, coeff) pairs."""
    return AlgElement(g, [(CKMono(p, p), c) for p, c in weighted_paths])


def normalize(a: AlgElement, beta_depth=None) -> AlgElement:
    """The canonical form, or with beta_depth=d a refined listing: each
    degree's coarse terms refined to beta length max(d, the longest beta
    among them).  The listing is the same element, not a canonical form."""
    if beta_depth is not None:
        _int_arg("beta depth", beta_depth, nonnegative=True)
    canonical = AlgElement._canonical(a.graph, a._keys)
    if beta_depth is None:
        return AlgElement._trusted(a.graph, canonical)
    target = {}
    for key in canonical:
        d = _degree(key)
        target[d] = max(target.get(d, beta_depth), len(key[2]))
    return AlgElement._trusted(a.graph, {
        piece: c for key, c in canonical.items()
        for piece in _refine(a.graph, key, target[_degree(key)] - len(key[2]))})


def adjoint(a):
    return a.adjoint()


def phi_m(a: AlgElement, m) -> AlgElement:
    """Degree-m graded part."""
    _int_arg("degree", m)
    return AlgElement._trusted(
        a.graph, {key: c for key, c in a._keys.items() if _degree(key) == m}
    )


def gauge(a: AlgElement, n, j) -> AlgElement:
    """Rotation by the j-th power of the order-n root of unity.

    Only n in {1, 2, 4} keeps coefficients Gaussian rational.
    """
    if n not in (1, 2, 4):
        raise UnsupportedRootError("rotation order %r has no exact representation" % n)
    step = 4 // n * _int_arg("rotation power", j)
    return AlgElement._trusted(
        a.graph,
        {key: _times_i_power(c, step * _degree(key)) for key, c in a._keys.items()},
    )


def evaluate(a: AlgElement, point: GroupoidPoint) -> GaussianRational:
    """Exact value of the element, as a groupoid function, at the point."""
    g, x, k, y = a.graph, point.x, point.k, point.y
    check_evpath(g, x)
    check_evpath(g, y)
    n0, m, total = _agree_from(x, k, y), -1, None
    for (v, al, be), c in a._keys.items():
        n = len(al)
        if n < n0 or n - len(be) != k:
            continue
        if n > m:  # truncations as long as the longest alpha met
            m, xt, yt = n, x.truncation(n), y.truncation(n - k)
        if (xt[:n] == al and yt[:n - k] == be and (al or v == ev_range(g, x))
                and (be or v == ev_range(g, y))):
            total = c if total is None else _add(total, c)
    return ZERO if total is None else _of_triple(total)


def support_spectrum(a: AlgElement):
    """Canonical basic-set family supporting the element."""
    from .bimodule import SpectrumSet

    return SpectrumSet._of_merged(a.graph, dict.fromkeys(a._keys, True))


def _overlapping_side(a: AlgElement):
    """Which projections of the first overlapping pair of distinct terms in
    _key_order overlap: "initial" (beta, asked first) or "final" (alpha);
    None if none do.  Two projections overlap when their paths are
    prefix-comparable.

    A _sweep of each leg flags every term that meets a nonempty stack, and
    the stack's top, a partner of it.  That flags every term with a
    partner: a term with a prefix meets it on the stack, and a term that
    starts a later path is the top when the next path in sorted order
    comes, since that path starts with it too.  So the first pair's first
    term is the least flagged, and all its partners follow it."""
    rng = a.graph._range
    keys = sorted(a._keys, key=_key_order)
    legs = (("initial", [_leg(rng, src, be) for src, _, be in keys]),
            ("final", [_leg(rng, src, al) for src, al, _ in keys]))
    flagged = [i for _, leg in legs
               for (_, _, j), (stack, _) in _sweep([(p, 0, j) for j, p in enumerate(leg)])
               if stack for i in (j, stack[-1][2])]
    if not flagged:
        return None
    i = min(flagged)
    for j in range(i + 1, len(keys)):
        for side, leg in legs:
            p, q = leg[i], leg[j]
            if q[:len(p)] == p or p[:len(q)] == q:
                return side


def is_normalizing_pi(a: AlgElement) -> bool:
    """Structural test: unimodular coefficients, orthogonal initial and
    final projections across distinct terms."""
    if any(_modulus_squared(c) != 1 for c in a._keys.values()):
        return False
    return _overlapping_side(a) is None


def restricted_norm(a: AlgElement) -> Fraction:
    """Norm of an orthogonal sum of scaled monomials: max coefficient modulus."""
    if a.is_zero():
        return Fraction(0)
    side = _overlapping_side(a)
    if side is not None:
        raise UnsupportedNormError("%s projections overlap" % side)
    best = max(map(_modulus_squared, a._keys.values()))
    root = rational_sqrt(best)
    if root is None:
        raise UnsupportedNormError("norm is not rational")
    return root


class SeparatingProjections(_Record):
    """Diagonal projections p, q = e p e* built from a connector path pair."""

    __slots__ = ("p", "q", "pi", "w", "level")

    def __init__(self, p, q, pi, w, level):
        self._init(p, q, pi, w, level)


def _connector_condition(pi, w, k) -> bool:
    """No initial segment of the word w equals the matching final segment
    of the word pi."""
    return all(pi[-d:] != w[:d] for d in range(1, k + 1))


def separating_projections(g, e: CKMono, k) -> SeparatingProjections:
    """Find (pi, w) making p = R_{beta pi w}, q = R_{alpha pi w} separate e.

    pi has length 2k and w length k (lengths escalate if no candidate pair
    satisfies the segment condition at the stated lengths).  The returned
    projections satisfy q (S_g M) p = q (M S_g) p = 0 for every path g with
    1 <= |g| <= k and every monomial M with equal path lengths <= k.
    """
    check_mono(g, e)
    if len(e.alpha) != len(e.beta):
        raise PreconditionError("separating projections need equal path lengths")
    if _int_arg("level k", k) < 1:
        raise PreconditionError("level k must be at least 1")
    src = mono_source(g, e)
    cap = k + len(g.vertices) + len(g.edges) + 2
    for k_eff in range(k, cap + 1):
        for pi in _walk(g, src, 2 * k_eff):
            for w in _walk(g, g.source_of(pi[-1]), k_eff):
                if _connector_condition(pi, w, k_eff):
                    pi_w = FinPath(pi + w)
                    p_path = join_paths(e.beta, pi_w)
                    q_path = join_paths(e.alpha, pi_w)
                    return SeparatingProjections(
                        p=CKMono(p_path, p_path),
                        q=CKMono(q_path, q_path),
                        pi=FinPath(pi),
                        w=FinPath(w),
                        level=k_eff,
                    )
    raise SearchFailureError(
        "no connector pair up to level %d (every loop has an entrance: %s)"
        % (cap, every_loop_has_entrance(g))
    )


def af_compression_projections(g, e: CKMono, k):
    """Chain two separating-projection searches: the returned pair (p, q)
    compresses any bounded element to its degree-zero part, q a p = q phi_0(a) p."""
    first = separating_projections(g, e, k)
    bridge = CKMono(first.p.alpha, first.q.alpha)  # p e* = S_{beta pi w} S_{alpha pi w}*
    second = separating_projections(g, bridge, k)
    return second.q, second.p


def check_proj_afpart(a: AlgElement, e: CKMono, k) -> bool:
    """Verify q a p == q phi_0(a) p for the chained projection pair."""
    _int_arg("level k", k)
    if any(len(al) > k or len(be) > k for _, al, be in a._keys):
        raise PreconditionError("element exceeds the stated path-length bound")
    p_mono, q_mono = af_compression_projections(a.graph, e, k)
    p = mono_element(a.graph, p_mono)
    q = mono_element(a.graph, q_mono)
    return q * a * p == q * phi_m(a, 0) * p


def _key_to_json_obj(key):
    src, a, b = key
    return {"alpha": list(a), "beta": list(b), "anchor": src}


def element_to_json_obj(a: AlgElement):
    out = []
    for key in sorted(a._keys, key=_key_order):
        x, y, d = a._keys[key]
        out.append(dict(_key_to_json_obj(key), re=format_rational(Fraction(x, d)),
                        im=format_rational(Fraction(y, d))))
    return out


def mono_from_words(g, alpha, beta, anchor=None) -> CKMono:
    """The checked monomial of two edge words; an empty word sits at anchor.

    When exactly one word is empty, the anchor defaults to the source of the
    other, so it is needed only when both are empty.  A given anchor must be
    the common source.  The CLI flags and the JSON terms both read here.
    """
    if anchor is None and bool(alpha) != bool(beta):
        anchor = g.source_of((alpha or beta)[-1])
    m = CKMono(_path(alpha, anchor), _path(beta, anchor))
    check_mono(g, m)
    src = mono_source(g, m)
    if anchor is not None and anchor != src:
        raise BadInputError("anchor %r is not the common source %r" % (anchor, src))
    return m


def mono_from_json_obj(g, item) -> CKMono:
    if not isinstance(item, dict) or "alpha" not in item or "beta" not in item:
        raise BadInputError("monomial JSON needs alpha and beta")
    anchor = item.get("anchor")
    if anchor is not None and not isinstance(anchor, str):
        raise BadInputError("anchor must be a string")
    return mono_from_words(g, strings_from_json_obj(item["alpha"], "alpha"),
                           strings_from_json_obj(item["beta"], "beta"), anchor)


def element_from_json_obj(g, obj) -> AlgElement:
    if not isinstance(obj, list):
        raise BadInputError("element JSON must be a list of terms")
    pairs = []
    for item in obj:
        key = _key(g, mono_from_json_obj(g, item))
        c = GaussianRational(
            rational_from_json_obj(item.get("re", "0")),
            rational_from_json_obj(item.get("im", "0")),
        )._triple
        if c != _ZERO:
            pairs.append((key, c))
    # The monomials are checked, so only the graph's guard is left.
    return AlgElement._of_merged(AlgElement._plain(g), _add_into({}, pairs))
