"""copy, deepcopy and pickle of the immutable value classes."""

import copy
import pickle

import pytest

from ckcalc import bimodule, ckalg
from ckcalc.bimodule import SpectrumSet
from ckcalc.ckalg import CKMono, identity, normalize, path_isometry
from ckcalc.cocycle import LocallyConstantFn
from ckcalc.paths import EvPath, fpath
from ckcalc.scalars import GaussianRational

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


def values(g):
    return [
        GaussianRational(3, -2) * GaussianRational(1, 7),
        EvPath(("a", "b"), ("b", "a")),
        SpectrumSet(g, [CKMono(fpath("a"), fpath("b")), CKMono(fpath("b"), fpath("b"))]),
        LocallyConstantFn(1, {("a",): 1, ("b",): "-1/2"}),
    ]


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
def test_values_survive_copy_and_pickle(o2, how):
    for x in values(o2.graph):
        y = ROUND_TRIPS[how](x)
        if isinstance(x, SpectrumSet):
            # Spectra compare only over one graph; a deep copy has its own.
            assert (y.graph is x.graph) == (how == "copy")
            assert y.cylinders == x.cylinders
        elif isinstance(x, LocallyConstantFn):
            assert (y.depth, y.table) == (x.depth, x.table)
        else:
            assert y == x and hash(y) == hash(x)
        with pytest.raises(AttributeError, match="immutable"):
            y.depth = 0


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
def test_elements_survive_copy_and_pickle(o2, how):
    a = identity(o2) + path_isometry(o2, fpath("a")).scale(GaussianRational(1, 2))
    # A refined listing is not canonical; the copy keeps it term for term.
    for x in (a, normalize(a, beta_depth=2)):
        y = ROUND_TRIPS[how](x)
        assert y.terms == x.terms
        with pytest.raises(AttributeError, match="immutable"):
            y.terms = {}
        if how == "copy":
            assert y.graph is x.graph and y == x
        else:
            assert y.graph is not x.graph
            assert y.graph.vertices == x.graph.vertices and y.graph.edges == x.graph.edges


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
def test_families_copy_without_rebuilding(o2, how, monkeypatch):
    s = values(o2.graph)[2]
    a = identity(o2) + path_isometry(o2, fpath("a"))

    def refuse(*args):
        raise AssertionError("rebuilt a family already canonical")

    for module in (bimodule, ckalg):
        monkeypatch.setattr(module, "check_mono", refuse)
        monkeypatch.setattr(module, "_coarsest_keys", refuse)
    assert ROUND_TRIPS[how](s).cylinders == s.cylinders
    assert ROUND_TRIPS[how](a).terms == a.terms
