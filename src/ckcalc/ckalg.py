"""Normal-form arithmetic for generator monomials.

An element is a finite linear combination of monomials (alpha, beta) of
finite paths with a common source, with exact Gaussian-rational
coefficients.  The stored form is canonical per degree: every monomial of
degree m is refined, via the child expansion that replaces (alpha, beta)
by its one-edge extensions (alpha e, beta e) over the in-edges of the
common source, until all beta-lengths in that degree equal the maximal one
occurring.  Distinct monomials at one level then have disjoint basic sets,
so evaluation against groupoid points is a plain coefficient sum and the
zero element is detected exactly.

A product of monomials is nonzero only when the left beta and the right
alpha are prefix-comparable, so the product looks up just those pairs:
each path is keyed by (range, edges), with an empty path at v a prefix of
every path of range v, and the right factor's terms are indexed by the key
of alpha and by every proper prefix of it.

Element equality is semantic: a == b iff a - b normalizes to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadInputError,
    PreconditionError,
    SearchFailureError,
    UnsupportedNormError,
    UnsupportedRootError,
)
from .graph import every_loop_has_entrance, strings_from_json_obj, underlying
from .paths import (
    FinPath,
    GroupoidPoint,
    check_finpath,
    continuations,
    empty_path,
    path_range,
    path_source,
    point_in_Z,
)
from .scalars import (
    GaussianRational,
    ZERO,
    as_gaussian,
    format_rational,
    rational_from_json_obj,
    rational_sqrt,
)


@dataclass(frozen=True)
class CKMono:
    """Monomial indexed by a pair of paths with a common source."""

    alpha: FinPath
    beta: FinPath

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
    rest = whole.edges[len(prefix):]
    if not rest:
        return empty_path(path_source(g, whole))
    return FinPath(rest)


def _path_key(g, p: FinPath):
    """(range, edges): p is a prefix of q, in the sense of path_tail_of,
    exactly when p's key is a prefix of q's key."""
    return path_range(g, p), p.edges


def join_paths(left: FinPath, tail: FinPath) -> FinPath:
    if tail.is_empty:
        return left
    if left.is_empty:
        return tail
    return FinPath(left.edges + tail.edges)


def mono_product(g, m1: CKMono, m2: CKMono):
    """Product of two monomials: a single monomial or None (zero)."""
    t = path_tail_of(g, m2.alpha, m1.beta)
    if t is not None:
        return CKMono(join_paths(m1.alpha, t), m2.beta)
    t = path_tail_of(g, m1.beta, m2.alpha)
    if t is not None:
        return CKMono(m1.alpha, join_paths(m2.beta, t))
    return None


def refine_children(g, m: CKMono):
    """One-step child expansion over the in-edges of the common source."""
    src = mono_source(g, m)
    return [
        CKMono(FinPath(m.alpha.edges + (e.id,)), FinPath(m.beta.edges + (e.id,)))
        for e in g.in_edges(src)
    ]


def _refine_to(g, m: CKMono, beta_len):
    out = [m]
    while len(out[0].beta) < beta_len:
        out = [child for mono in out for child in refine_children(g, mono)]
        if not out:
            break
    return out


def _accumulate(acc, mono, c):
    # A first occurrence is stored as is: scalars are immutable, so sharing
    # c is safe and saves building ZERO + c.
    old = acc.get(mono)
    acc[mono] = c if old is None else old + c


def _normal_terms(g, pairs, beta_depth=None):
    by_degree = {}
    for mono, coeff in pairs:
        c = as_gaussian(coeff)
        if c.is_zero():
            continue
        _accumulate(by_degree.setdefault(mono.degree, {}), mono, c)
    out = {}
    for bucket in by_degree.values():
        live = {m: c for m, c in bucket.items() if not c.is_zero()}
        if not live:
            continue
        target = max(len(m.beta) for m in live)
        if beta_depth is not None:
            target = max(target, beta_depth)
        level = {}
        for mono, c in live.items():
            for child in _refine_to(g, mono, target):
                _accumulate(level, child, c)
        for mono, c in level.items():
            if not c.is_zero():
                out[mono] = c
    return out


class AlgElement:
    """Finite linear combination of monomials, kept in normal form."""

    __slots__ = ("graph", "terms")

    def __init__(self, graph, terms=(), beta_depth=None):
        graph = underlying(graph)
        if graph.sources:
            # Refinement below a source would drop terms without a trace.
            raise PreconditionError(
                "the algebra needs a graph without sources; %s is the range of no edge"
                % ", ".join(graph.sources)
            )
        pairs = terms.items() if isinstance(terms, dict) else terms
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "terms", _normal_terms(graph, pairs, beta_depth))

    def __setattr__(self, name, value):
        raise AttributeError("AlgElement is immutable")

    def is_zero(self):
        return not self.terms

    def monomials(self):
        return sorted(self.terms, key=_mono_sort_key)

    def coefficient(self, mono) -> GaussianRational:
        return self.terms.get(mono, ZERO)

    def degrees(self):
        return sorted({m.degree for m in self.terms})

    def __add__(self, other):
        _same_graph(self, other)
        pairs = list(self.terms.items()) + list(other.terms.items())
        return AlgElement(self.graph, pairs)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgElement(self.graph, [(m, -c) for m, c in self.terms.items()])

    def scale(self, scalar):
        c0 = as_gaussian(scalar)
        return AlgElement(self.graph, [(m, c0 * c) for m, c in self.terms.items()])

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            _same_graph(self, other)
            g = self.graph
            exact, extending = {}, {}
            for m2, c2 in other.terms.items():
                v, edges = _path_key(g, m2.alpha)
                exact.setdefault((v, edges), []).append((m2, c2))
                for i in range(len(edges)):
                    extending.setdefault((v, edges[:i]), []).append((m2, c2))
            pairs = []
            for m1, c1 in self.terms.items():
                v, edges = key = _path_key(g, m1.beta)
                candidates = list(extending.get(key, ()))
                for i in range(len(edges) + 1):
                    candidates.extend(exact.get((v, edges[:i]), ()))
                for m2, c2 in candidates:
                    p = mono_product(g, m1, m2)
                    if p is not None:
                        pairs.append((p, c1 * c2))
            return AlgElement(g, pairs)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def adjoint(self):
        return AlgElement(
            self.graph, [(m.adjoint(), c.conjugate()) for m, c in self.terms.items()]
        )

    def __eq__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        if self.is_zero():
            return "AlgElement(0)"
        return "AlgElement(%d terms, degrees %s)" % (len(self.terms), self.degrees())


def _same_graph(a, b):
    if a.graph is not b.graph:
        raise BadInputError("elements live over different graphs")


def _mono_sort_key(m: CKMono):
    return (
        m.degree,
        len(m.beta),
        m.beta.edges,
        m.beta.anchor or "",
        m.alpha.edges,
        m.alpha.anchor or "",
    )


def element(g, pairs) -> AlgElement:
    return AlgElement(g, pairs)


def zero(g) -> AlgElement:
    return AlgElement(g, ())


def mono_element(g, m: CKMono, coeff=1) -> AlgElement:
    check_mono(g, m)
    return AlgElement(g, [(m, as_gaussian(coeff))])


def vertex_projection(g, v) -> AlgElement:
    if v not in g.vertex_set:
        raise BadInputError("unknown vertex %r" % (v,))
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
    pairs = []
    for p, c in weighted_paths:
        check_finpath(g, p)
        pairs.append((CKMono(p, p), as_gaussian(c)))
    return AlgElement(g, pairs)


def mul_mono(g, m1: CKMono, m2: CKMono) -> AlgElement:
    check_mono(g, m1)
    check_mono(g, m2)
    p = mono_product(g, m1, m2)
    return zero(g) if p is None else mono_element(g, p)


def normalize(a: AlgElement, beta_depth=None) -> AlgElement:
    if beta_depth is not None and beta_depth < 0:
        raise BadInputError("beta depth must be nonnegative")
    return AlgElement(a.graph, list(a.terms.items()), beta_depth)


def adjoint(a):
    return a.adjoint()


def phi_m(a: AlgElement, m) -> AlgElement:
    """Degree-m graded part."""
    return AlgElement(
        a.graph, [(mono, c) for mono, c in a.terms.items() if mono.degree == m]
    )


def gauge(a: AlgElement, n, j) -> AlgElement:
    """Rotation by the j-th power of the order-n root of unity.

    Only n in {1, 2, 4} keeps coefficients Gaussian rational.
    """
    if n not in (1, 2, 4):
        raise UnsupportedRootError("rotation order %r has no exact representation" % n)
    step = 4 // n
    return AlgElement(
        a.graph,
        [
            (mono, c.times_i_power(step * j * mono.degree))
            for mono, c in a.terms.items()
        ],
    )


def evaluate(a: AlgElement, point: GroupoidPoint) -> GaussianRational:
    """Exact value of the element, as a groupoid function, at the point."""
    total = ZERO
    for mono, c in a.terms.items():
        if point_in_Z(a.graph, point, mono.alpha, mono.beta):
            total = total + c
    return total


def support_spectrum(a: AlgElement):
    """Canonical basic-set family supporting the element."""
    from .bimodule import SpectrumSet

    return SpectrumSet.from_cylinders(a.graph, a.monomials())


def cylinders_disjoint(g, p: FinPath, q: FinPath) -> bool:
    """Whether the one-sided sets of infinite paths through p and q miss."""
    return path_tail_of(g, p, q) is None and path_tail_of(g, q, p) is None


def _overlapping_side(a: AlgElement):
    """Which projections of the first overlapping pair of distinct terms
    overlap: "initial" (beta) or "final" (alpha); None if none do."""
    monos = a.monomials()
    for i, m1 in enumerate(monos):
        for m2 in monos[i + 1:]:
            if not cylinders_disjoint(a.graph, m1.beta, m2.beta):
                return "initial"
            if not cylinders_disjoint(a.graph, m1.alpha, m2.alpha):
                return "final"
    return None


def is_normalizing_pi(a: AlgElement) -> bool:
    """Structural test: unimodular coefficients, orthogonal initial and
    final projections across distinct terms."""
    if any(c.modulus_squared() != 1 for c in a.terms.values()):
        return False
    return _overlapping_side(a) is None


def restricted_norm(a: AlgElement) -> Fraction:
    """Norm of an orthogonal sum of scaled monomials: max coefficient modulus."""
    if a.is_zero():
        return Fraction(0)
    side = _overlapping_side(a)
    if side is not None:
        raise UnsupportedNormError("%s projections overlap" % side)
    best = max(c.modulus_squared() for c in a.terms.values())
    root = rational_sqrt(best)
    if root is None:
        raise UnsupportedNormError("norm is not rational")
    return root


@dataclass(frozen=True)
class SeparatingProjections:
    """Diagonal projections p, q = e p e* built from a connector path pair."""

    p: CKMono
    q: CKMono
    pi: FinPath
    w: FinPath
    level: int


def _connector_condition(pi: FinPath, w: FinPath, k) -> bool:
    """No initial segment of w equals the matching final segment of pi."""
    for d in range(1, k + 1):
        if pi.edges[-d:] == w.edges[:d]:
            return False
    return True


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
    if k < 1:
        raise PreconditionError("level k must be at least 1")
    src = mono_source(g, e)
    cap = k + len(g.vertices) + len(g.edges) + 2
    for k_eff in range(k, cap + 1):
        for pi in continuations(g, src, 2 * k_eff):
            for w in continuations(g, path_source(g, pi), k_eff):
                if _connector_condition(pi, w, k_eff):
                    pi_w = FinPath(pi.edges + w.edges)
                    p_path = join_paths(e.beta, pi_w)
                    q_path = join_paths(e.alpha, pi_w)
                    return SeparatingProjections(
                        p=CKMono(p_path, p_path),
                        q=CKMono(q_path, q_path),
                        pi=pi,
                        w=w,
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
    bridge = mono_product(g, first.p, e.adjoint())
    second = separating_projections(g, bridge, k)
    return second.q, second.p


def check_proj_afpart(a: AlgElement, e: CKMono, k) -> bool:
    """Verify q a p == q phi_0(a) p for the chained projection pair."""
    for mono in a.terms:
        if len(mono.alpha) > k or len(mono.beta) > k:
            raise PreconditionError("element exceeds the stated path-length bound")
    p_mono, q_mono = af_compression_projections(a.graph, e, k)
    p = mono_element(a.graph, p_mono)
    q = mono_element(a.graph, q_mono)
    return q * a * p == q * phi_m(a, 0) * p


def element_to_json_obj(a: AlgElement):
    out = []
    for m in a.monomials():
        c = a.terms[m]
        out.append(
            {
                "alpha": list(m.alpha.edges),
                "beta": list(m.beta.edges),
                "anchor": mono_source(a.graph, m),
                "re": format_rational(c.re),
                "im": format_rational(c.im),
            }
        )
    return out


def _finpath_from_parts(edges, anchor):
    edges = tuple(edges)
    if edges:
        return FinPath(edges)
    if anchor is None:
        raise BadInputError("empty path needs an anchor vertex")
    return empty_path(anchor)


def mono_from_json_obj(g, item) -> CKMono:
    if not isinstance(item, dict) or "alpha" not in item or "beta" not in item:
        raise BadInputError("monomial JSON needs alpha and beta")
    anchor = item.get("anchor")
    if anchor is not None and not isinstance(anchor, str):
        raise BadInputError("anchor must be a string")
    m = CKMono(
        _finpath_from_parts(strings_from_json_obj(item["alpha"], "alpha"), anchor),
        _finpath_from_parts(strings_from_json_obj(item["beta"], "beta"), anchor),
    )
    check_mono(g, m)
    src = mono_source(g, m)
    if anchor is not None and anchor != src:
        raise BadInputError("anchor %r is not the common source %r" % (anchor, src))
    return m


def element_from_json_obj(g, obj) -> AlgElement:
    if not isinstance(obj, list):
        raise BadInputError("element JSON must be a list of terms")
    pairs = []
    for item in obj:
        m = mono_from_json_obj(g, item)
        c = GaussianRational(
            rational_from_json_obj(item.get("re", "0")),
            rational_from_json_obj(item.get("im", "0")),
        )
        pairs.append((m, c))
    return AlgElement(g, pairs)
