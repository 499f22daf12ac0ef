"""copy, deepcopy and pickle of the immutable value classes, and the
fields, reprs and equality of the record classes."""

import copy
import pickle
from fractions import Fraction

import pytest

from ckcalc import bimodule, ckalg
from ckcalc.bimodule import SpectrumSet
from ckcalc.ckalg import CKMono, SeparatingProjections, identity, normalize, path_isometry
from ckcalc.cocycle import (
    LocallyConstantFn,
    LoopGrowthReport,
    ObstructionWitness,
    TailedPair,
)
from ckcalc.errors import _Record
from ckcalc.graph import Edge, ValidationReport
from ckcalc.nest import NestViolation
from ckcalc.paths import EvPath, GroupoidPoint, empty_path, ev, fpath
from ckcalc.scalars import GaussianRational

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


def records():
    """One instance of each record class, with its pinned repr."""
    a_inf = ev((), ("a",))
    return [
        (Edge("a", "v", "v"), "Edge(id='a', range='v', source='v')"),
        (ValidationReport(False, ("u",)),
         "ValidationReport(ok=False, no_source_violations=('u',), isolated_vertices=(), "
         "order_violations=())"),
        (fpath("a", "b"), "FinPath(ab)"),
        (empty_path("v"), "FinPath(()@v)"),
        (GroupoidPoint(ev(("b",), ("a",)), 1, a_inf),
         "GroupoidPoint(x=EvPath(['b'] + ['a']*), k=1, y=EvPath([] + ['a']*))"),
        (CKMono(fpath("a"), empty_path("v")), "CKMono(FinPath(a), FinPath(()@v))"),
        (SeparatingProjections(CKMono(fpath("a"), fpath("a")), CKMono(fpath("b"), fpath("b")),
                               fpath("a", "b"), fpath("b"), 1),
         "SeparatingProjections(p=CKMono(FinPath(a), FinPath(a)), "
         "q=CKMono(FinPath(b), FinPath(b)), pi=FinPath(ab), w=FinPath(b), level=1)"),
        (TailedPair(fpath("a"), empty_path("v"), fpath("b")),
         "TailedPair(prefix_x=FinPath(a), prefix_y=FinPath(()@v), window=FinPath(b))"),
        (LoopGrowthReport(Fraction(3, 2), True, True),
         "LoopGrowthReport(base=Fraction(3, 2), verified=True, unbounded=True)"),
        (ObstructionWitness(ev(("a", "b"), ("b",)), ev(("b", "a"), ("b",)), 2, fpath("a"),
                            fpath("b")),
         "ObstructionWitness(x=EvPath(['a'] + ['b']*), y=EvPath(['b', 'a'] + ['b']*), "
         "window=2, loop_alpha=FinPath(a), loop_beta=FinPath(b))"),
        (NestViolation(1, 2, fpath("b"), fpath("a")),
         "NestViolation(level=1, cutpos=2, row=FinPath(b), col=FinPath(a))"),
    ]


def values(g):
    return [
        GaussianRational(3, -2) * GaussianRational(1, 7),
        EvPath(("a", "b"), ("b", "a")),
        SpectrumSet(g, [CKMono(fpath("a"), fpath("b")), CKMono(fpath("b"), fpath("b"))]),
        LocallyConstantFn(1, {("a",): 1, ("b",): "-1/2"}),
    ] + [x for x, _ in records()]


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
        # The first field, which a spectrum inherits from the family core.
        name = next(n for c in type(y).__mro__ for n in getattr(c, "__slots__", ()))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(y, name)
        assert hasattr(y, name)


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
def test_elements_survive_copy_and_pickle(o2, how):
    a = identity(o2) + path_isometry(o2, fpath("a")).scale(GaussianRational(1, 2))
    # A refined listing is not canonical; the copy keeps it term for term.
    for x in (a, normalize(a, beta_depth=2)):
        y = ROUND_TRIPS[how](x)
        assert y.terms == x.terms
        with pytest.raises(AttributeError, match="immutable"):
            y.terms = {}
        with pytest.raises(AttributeError, match="immutable"):
            del y.graph
        assert y.graph.vertices == x.graph.vertices
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


def fields(x):
    return tuple(getattr(x, name) for name in type(x).__slots__)


def test_records_keep_their_reprs_and_field_hashes():
    for x, text in records():
        assert repr(x) == text
        assert hash(x) == hash(fields(x))
        assert x == type(x)(*fields(x))


def test_records_refuse_assignment_and_deletion():
    for x in [x for x, _ in records()] + [ev(("b",), ("a",))]:
        name = type(x).__slots__[0]
        with pytest.raises(AttributeError, match="immutable"):
            setattr(x, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(x, name)
        with pytest.raises(AttributeError, match="immutable"):
            x.extra = 1
        assert not hasattr(x, "__dict__")


def test_records_equal_only_within_their_class():
    xs = [x for x, _ in records()]
    for x in xs:
        assert x != fields(x)
        for y in xs:
            assert (x == y) == (x is y)
    # Equal field tuples do not make records of two classes equal.
    assert Edge("a", "v", "v") != LoopGrowthReport("a", "v", "v")
    assert len({Edge("a", "v", "v"), LoopGrowthReport("a", "v", "v")}) == 2


class Single(_Record):
    """A record of one field, whose fields are still a 1-tuple."""

    __slots__ = ("value",)

    def __init__(self, value):
        self._init(value)


def test_one_field_records_use_the_tuple_of_their_field():
    x = Single(fpath("a"))
    assert fields(x) == (fpath("a"),) and Single._fields(x) == (fpath("a"),)
    assert hash(x) == hash((fpath("a"),)) != hash(fpath("a"))
    assert x == Single(fpath("a")) and x != Single(fpath("b"))
    assert x != (fpath("a"),) and x != fpath("a")
    for how in ROUND_TRIPS.values():
        y = how(x)
        assert type(y) is Single and y == x and hash(y) == hash(x)
    assert repr(x) == "Single(value=FinPath(a))"
    match x:
        case Single(value):
            assert value == fpath("a")
        case _:
            pytest.fail("no positional match")


def test_records_match_by_position():
    x, y = ev(("b",), ("a",)), ev((), ("a",))
    match GroupoidPoint(x, 1, y):
        case GroupoidPoint(px, k, py):
            assert (px, k, py) == (x, 1, y)
        case _:
            pytest.fail("no positional match")
