"""Basic-set spectra of diagonal bimodules.

A spectrum is a finite family of basic sets, keyed like an element's terms
and valued True: the support of an element with indicator values.  It
shares the element's family core (ckalg._Family): the same guarded build and
the same coarsest listing, with union in place of sum.  So no member
contains another, and no complete set of one-edge refinements is present
without being coarsened back to its parent.

A set is covered by a family exactly when adding it leaves the canonical
family unchanged, so membership is one more canonical listing, never a
test of the family against itself pair by pair.
"""

from __future__ import annotations

import operator

from .ckalg import (
    AlgElement,
    CKMono,
    check_mono,
    mono_from_json_obj,
    _Family,
    _coarsest_keys,
    _from_key,
    _key,
    _key_order,
    _key_to_json_obj,
    _same_graph,
)
from .cocycle import LocallyConstantFn, _cocycle_pieces
from .errors import BadInputError
from .graph import _require_no_sources, underlying


class SpectrumSet(_Family):
    """Canonical finite family of basic sets: the coarsest one covering the
    union of the given sets, so equal unions give equal families."""

    __slots__ = ()
    _layer = "a spectrum"

    def __init__(self, graph, cylinders):
        cylinders = list(cylinders)
        # Each monomial is checked before anything hashes it.
        graph = self._plain(graph, cylinders)
        self._init(graph, self._canonical(graph, {_key(graph, c): True for c in cylinders}))

    @staticmethod
    def _canonical(graph, merged):
        return _coarsest_keys(graph, merged, operator.or_)

    @classmethod
    def from_cylinders(cls, g, cylinders) -> "SpectrumSet":
        """The canonical family covering the union of the basic sets."""
        return cls(g, cylinders)

    @property
    def cylinders(self):
        """A new frozenset of CKMono on each read."""
        return frozenset(map(_from_key, self._keys))

    def sorted_cylinders(self):
        return [_from_key(key) for key in sorted(self._keys, key=_key_order)]

    def __eq__(self, other):
        if not isinstance(other, SpectrumSet):
            return NotImplemented
        return self.graph is other.graph and self._keys == other._keys

    def __hash__(self):
        return hash(frozenset(self._keys))

    def __len__(self):
        return len(self._keys)

    def __iter__(self):
        return iter(self.sorted_cylinders())

    def __repr__(self):
        return "SpectrumSet(%d basic sets)" % len(self._keys)


def _covers(spectrum: SpectrumSet, keys) -> bool:
    """Whether adding the basic sets of keys leaves the spectrum as it was."""
    family = spectrum._keys
    merged = {**family, **dict.fromkeys(keys, True)}
    return SpectrumSet._canonical(spectrum.graph, merged) == family


def member(g, m: CKMono, spectrum: SpectrumSet) -> bool:
    """Whether the basic set of m is covered by the spectrum family.  g must
    be the spectrum's graph."""
    if underlying(g) is not spectrum.graph:
        raise BadInputError("the spectrum lives over a different graph")
    check_mono(spectrum.graph, m)
    return _covers(spectrum, [_key(spectrum.graph, m)])


def generated_spectrum(gens) -> SpectrumSet:
    """Spectrum of the bimodule generated by the given elements: the union
    of the basic sets of all graded parts of all generators, which is also
    the spectrum of its spectral closure (see bimodule_member)."""
    gens = list(gens)
    if not gens:
        raise BadInputError("need at least one generator")
    for a in gens:
        _same_graph(gens[0], a)
    return SpectrumSet._of_merged(gens[0].graph, {key: True for a in gens for key in a._keys})


def bimodule_member(a: AlgElement, gens) -> bool:
    """Whether a lies in the spectral closure of the generators: the largest
    closed diagonal bimodule with spectrum generated_spectrum(gens).  That is
    their span whenever the span is determined by its spectrum, as when every
    loop has an entrance.  Otherwise it can be larger: on one vertex v with
    one loop a, S_a, p_v and p_v - S_a all lie in it for the generator p_v + S_a."""
    gens = list(gens)
    spectrum = generated_spectrum(gens)
    _same_graph(a, gens[0])
    return _covers(spectrum, a._keys)


def ck_in_analytic(g, f: LocallyConstantFn, m: CKMono) -> bool:
    """Whether the monomial lies in the analytic subalgebra of the cocycle
    induced by f: the cocycle must be nonnegative across its basic set.

    The basic set is refined by all continuation windows of length equal to
    the function depth; the cocycle is constant on each refined piece and
    its value there is computable from the finite data alone.  Graphs with
    sources are refused: a basic set at a source is empty, so any answer
    there would be vacuous.
    """
    _require_no_sources(g, "the cocycle layer")
    check_mono(g, m)
    return all(value >= 0 for _, value in _cocycle_pieces(g, f, _key(g, m)))


def spectrum_to_json_obj(s: SpectrumSet):
    return [_key_to_json_obj(key) for key in sorted(s._keys, key=_key_order)]


def spectrum_from_json_obj(g, obj) -> SpectrumSet:
    if not isinstance(obj, list):
        raise BadInputError("spectrum JSON must be a list")
    keys = [_key(g, mono_from_json_obj(g, item)) for item in obj]
    # The monomials are checked, so only the graph's guard is left.
    return SpectrumSet._of_merged(SpectrumSet._plain(g), dict.fromkeys(keys, True))
