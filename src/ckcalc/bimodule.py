"""Basic-set spectra of diagonal bimodules.

A spectrum is held as a finite family of basic sets, each indexed by a pair
of paths exactly like a monomial.  The family is kept canonical: no member
contains another, and whenever every one-edge refinement of a pair is
present the family is coarsened back to the parent.  Basic sets of a fixed
degree are disjoint or nested, so membership of a candidate set in a union
is decidable by refining to the family's depth.

The basic sets strictly containing (alpha, beta) are exactly its
common-suffix truncations, got by dropping a common last edge of alpha and
beta again and again.  Containment is therefore found by looking those few
sets up, never by testing the family against itself pair by pair.
"""

from __future__ import annotations

from .ckalg import (
    AlgElement,
    CKMono,
    check_mono,
    mono_source,
    path_tail_of,
    refine_children,
    _refine_to,
    _same_graph,
)
from .cocycle import LocallyConstantFn, _cocycle_pieces
from .errors import BadInputError
from .graph import underlying
from .paths import FinPath, empty_path, path_range


def cyl_contains(g, inner: CKMono, outer: CKMono) -> bool:
    """True iff the basic set of `inner` sits inside that of `outer`."""
    t1 = path_tail_of(g, inner.alpha, outer.alpha)
    if t1 is None:
        return False
    t2 = path_tail_of(g, inner.beta, outer.beta)
    return t2 is not None and t1 == t2


def _drop_last(g, p: FinPath) -> FinPath:
    rest = p.edges[:-1]
    if rest:
        return FinPath(rest)
    return empty_path(path_range(g, p))


def _ancestors(g, c: CKMono):
    """The basic sets strictly containing that of c, smallest first: the
    truncations of c by a common suffix of alpha and beta."""
    alpha, beta = c.alpha, c.beta
    while alpha.edges and beta.edges and alpha.edges[-1] == beta.edges[-1]:
        alpha, beta = _drop_last(g, alpha), _drop_last(g, beta)
        yield CKMono(alpha, beta)


class SpectrumSet:
    """Canonical finite family of basic sets."""

    __slots__ = ("graph", "cylinders")

    def __init__(self, graph, cylinders):
        object.__setattr__(self, "graph", underlying(graph))
        object.__setattr__(self, "cylinders", frozenset(cylinders))

    def __setattr__(self, name, value):
        raise AttributeError("SpectrumSet is immutable")

    @classmethod
    def from_cylinders(cls, g, cylinders) -> "SpectrumSet":
        work = set(cylinders)
        changed = True
        while changed:
            changed = False
            drop = {c for c in work if any(a in work for a in _ancestors(g, c))}
            if drop:
                work -= drop
                changed = True
            parents = {}
            for c in work:
                parent = next(_ancestors(g, c), None)
                if parent is not None:
                    parents.setdefault(parent, set()).add(c.alpha.edges[-1])
            for parent, have in parents.items():
                need = {e.id for e in g.in_edges(mono_source(g, parent))}
                if need and have >= need:
                    for child in refine_children(g, parent):
                        work.discard(child)
                    work.add(parent)
                    changed = True
        return cls(g, work)

    def sorted_cylinders(self):
        from .ckalg import _mono_sort_key

        return sorted(self.cylinders, key=_mono_sort_key)

    def __eq__(self, other):
        if not isinstance(other, SpectrumSet):
            return NotImplemented
        return self.cylinders == other.cylinders

    def __hash__(self):
        return hash(self.cylinders)

    def __len__(self):
        return len(self.cylinders)

    def __iter__(self):
        return iter(self.sorted_cylinders())

    def __repr__(self):
        return "SpectrumSet(%d basic sets)" % len(self.cylinders)


def member(g, m: CKMono, spectrum: SpectrumSet) -> bool:
    """Whether the basic set of m is covered by the spectrum family.

    Refines m to the maximal beta-depth among same-degree members; each
    refined piece must then sit inside a single member, because basic sets
    of one degree are disjoint or nested: the piece itself or one of its
    ancestors.
    """
    peers = {c for c in spectrum.cylinders if c.degree == m.degree}
    if not peers:
        return False
    depth = max(len(m.beta), max(len(c.beta) for c in peers))
    for piece in _refine_to(g, m, depth):
        if piece not in peers and not any(a in peers for a in _ancestors(g, piece)):
            return False
    return True


def generated_spectrum(gens) -> SpectrumSet:
    """Spectrum of the bimodule generated by the given elements: the union
    of the basic sets of all graded parts of all generators."""
    gens = list(gens)
    if not gens:
        raise BadInputError("need at least one generator")
    g = gens[0].graph
    cyls = []
    for a in gens:
        if a.graph is not g:
            raise BadInputError("generators live over different graphs")
        cyls.extend(a.monomials())
    return SpectrumSet.from_cylinders(g, cyls)


def bimodule_member(a: AlgElement, gens) -> bool:
    """Whether a lies in the closed diagonal bimodule the generators span."""
    spectrum = generated_spectrum(gens)
    _same_graph(a, spectrum)
    return all(member(a.graph, m, spectrum) for m in a.monomials())


def ck_in_analytic(g, f: LocallyConstantFn, m: CKMono) -> bool:
    """Whether the monomial lies in the analytic subalgebra of the cocycle
    induced by f: the cocycle must be nonnegative across its basic set.

    The basic set is refined by all continuation windows of length equal to
    the function depth; the cocycle is constant on each refined piece and
    its value there is computable from the finite data alone.
    """
    check_mono(g, m)
    return all(value >= 0 for _, value in _cocycle_pieces(g, f, m))


def spectrum_to_json_obj(s: SpectrumSet):
    out = []
    for c in s.sorted_cylinders():
        out.append(
            {
                "alpha": list(c.alpha.edges),
                "beta": list(c.beta.edges),
                "anchor": mono_source(s.graph, c),
            }
        )
    return out


def spectrum_from_json_obj(g, obj) -> SpectrumSet:
    from .ckalg import mono_from_json_obj

    if not isinstance(obj, list):
        raise BadInputError("spectrum JSON must be a list")
    return SpectrumSet.from_cylinders(
        g, [mono_from_json_obj(g, item) for item in obj]
    )
