import itertools
from collections import Counter

import pytest
from hypothesis import given, settings

from ckcalc.ckalg import (
    CKMono,
    identity,
    mono_element,
    path_isometry,
    range_projection,
    vertex_projection,
    zero,
)
from ckcalc.errors import (
    BadInputError,
    InvalidGraphError,
    InvalidPointError,
    OutOfRangeError,
    PreconditionError,
)
from ckcalc.graph import OrderedGraph, max_simple_loop_length, validate_order
from ckcalc.nest import (
    NestViolation,
    _atom_place,
    commutator,
    default_level_bound,
    in_alg_n,
    in_alg_n_oracle,
    in_radical_spectrum,
    level_atoms,
    nest_projection,
    point_in_spectrum_alg_n,
)
from ckcalc.paths import (
    EvPath,
    GroupoidPoint,
    empty_path,
    enumerate_evpaths,
    ev,
    fpath,
    path_source,
    prepend,
)

from conftest import build_graph
from helpers import (
    adapted_order,
    all_monos,
    in_basic_set,
    make_rng,
    point_in,
    random_graph,
    random_tail,
    reference_in_alg_n,
    reference_oracle,
    reference_spectrum_clause,
    small_ordered_graphs,
)


def test_level_atoms_order(o2, e2):
    assert level_atoms(o2, 1) == [fpath("a"), fpath("b")]
    assert level_atoms(o2, 2) == [
        fpath("a", "a"),
        fpath("a", "b"),
        fpath("b", "a"),
        fpath("b", "b"),
    ]
    assert level_atoms(e2, 0) == [empty_path("u"), empty_path("v")]
    assert level_atoms(e2, 1) == [fpath("c"), fpath("h"), fpath("d")]
    with pytest.raises(BadInputError):
        level_atoms(o2, -1)


def test_level_refuses_a_non_integer(o2):
    # Unrefused, a float level is never reached by the path walk.
    for level in (1.5, 2.0, "1"):
        with pytest.raises(BadInputError, match="integer"):
            level_atoms(o2, level)
        with pytest.raises(BadInputError, match="integer"):
            nest_projection(o2, level, 1)


def test_nest_projection_examples(o2):
    assert nest_projection(o2, 1, 1) == range_projection(o2, fpath("a"))
    assert nest_projection(o2, 2, 2) == range_projection(o2, fpath("a", "a")) + range_projection(o2, fpath("a", "b"))
    assert nest_projection(o2, 2, 4) == identity(o2)
    assert nest_projection(o2, 0, 1) == identity(o2)
    assert nest_projection(o2, 1, 0).is_zero()
    with pytest.raises(OutOfRangeError):
        nest_projection(o2, 1, 3)
    with pytest.raises(OutOfRangeError):
        nest_projection(o2, 1, -1)


def test_nest_projections_are_nested(o2, e2):
    for og in (o2, e2):
        for level in (0, 1, 2):
            atoms = level_atoms(og, level)
            projs = [nest_projection(og, level, c) for c in range(len(atoms) + 1)]
            for i, small in enumerate(projs):
                for big in projs[i:]:
                    assert small * big == small
                    assert big * small == small


def test_levels_refine_initial_segments(o2, e2):
    # Every cut at one level reappears verbatim one level down, so the whole
    # family is a single increasing chain of diagonal projections.
    for og in (o2, e2):
        for level in (0, 1):
            atoms = level_atoms(og, level)
            finer = level_atoms(og, level + 1)
            for cut in range(len(atoms) + 1):
                head = set(atoms[:cut])
                finer_cut = sum(1 for q in finer if _head_of(og, q, level) in head)
                assert nest_projection(og, level, cut) == nest_projection(og, level + 1, finer_cut)


def _head_of(og, p, length):
    if length == 0:
        return empty_path(_range_of(og, p))
    from ckcalc.paths import FinPath

    return FinPath(p.edges[:length])


def _range_of(og, p):
    from ckcalc.paths import path_range

    return path_range(og, p)


def test_in_alg_n_examples_o2(o2):
    ev_v = empty_path("v")
    cases = [
        (CKMono(fpath("a"), ev_v), True, "s_minimal_tail"),
        (CKMono(fpath("a"), fpath("b")), True, "equal_length_le"),
        (CKMono(fpath("b"), fpath("a")), False, None),
        (CKMono(ev_v, fpath("b")), True, "s_maximal_tail"),
        (CKMono(ev_v, fpath("a")), False, None),
        (CKMono(fpath("a"), fpath("a")), True, "equal_length_le"),
        (CKMono(fpath("a", "b"), fpath("b")), True, "head_precedes"),
        (CKMono(fpath("a"), fpath("b", "a")), True, "head_follows"),
        (CKMono(fpath("b"), fpath("a", "b")), False, None),
        (CKMono(fpath("b"), ev_v), False, None),
        (CKMono(fpath("a", "a"), ev_v), True, "s_minimal_tail"),
    ]
    for m, want_member, want_clause in cases:
        got_member, got_clause = in_alg_n(o2, m)
        assert (got_member, got_clause) == (want_member, want_clause), m


def test_in_alg_n_examples_e2(e2):
    # The head of c already precedes every vertex block of v.
    assert in_alg_n(e2, CKMono(fpath("c"), empty_path("v"))) == (True, "head_precedes")
    assert in_alg_n(e2, CKMono(fpath("h"), empty_path("u"))) == (False, None)
    assert in_alg_n(e2, CKMono(fpath("h"), fpath("d"))) == (True, "equal_length_le")
    assert in_alg_n(e2, CKMono(fpath("d"), fpath("h"))) == (False, None)
    assert in_alg_n(e2, CKMono(fpath("d"), fpath("d"))) == (True, "equal_length_le")


def test_oracle_examples(o2):
    member, witness = in_alg_n_oracle(o2, CKMono(fpath("b"), fpath("a")), level_bound=4)
    assert not member
    assert witness == NestViolation(1, 1, fpath("b"), fpath("a"))
    member, witness = in_alg_n_oracle(o2, CKMono(fpath("a"), fpath("a")))
    assert member and witness is None


def test_oracle_witness_is_a_real_compression(o2, e2):
    rng = make_rng(31)
    for og in (o2, e2):
        one = identity(og)
        for m in all_monos(og, 2):
            elem = mono_element(og, m)
            member, witness = in_alg_n_oracle(og, m)
            if member:
                for level in (0, 1, 2, 3):
                    for cut in range(len(level_atoms(og, level)) + 1):
                        p = nest_projection(og, level, cut)
                        assert ((one - p) * elem * p).is_zero()
            else:
                p = nest_projection(og, witness.level, witness.cutpos)
                assert not ((one - p) * elem * p).is_zero()
                assert not ((one - p) * elem * range_projection(og, witness.col)).is_zero()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(small_ordered_graphs())
def test_atom_place_counts_the_level_listing(og):
    for level in range(5):
        for place, atom in enumerate(level_atoms(og, level), 1):
            assert _atom_place(og, atom) == place


def test_nest_layer_answers_at_level_40(o2):
    n = 40
    assert in_alg_n(o2, CKMono(fpath(*"a" * n), empty_path("v"))) == (True, "s_minimal_tail")
    # Level-n atoms on O2 read as binary numbers (a=0, b=1), so an atom's
    # place is one more than its value.
    m = CKMono(fpath(*"b" * n), fpath(*"b" * (n - 1) + "a"))
    assert in_alg_n_oracle(o2, m) == (False, NestViolation(n, 2 ** n - 1, m.alpha, m.beta))
    a, b = ev((), ("a",)), ev((), ("b",))
    assert point_in_spectrum_alg_n(o2, GroupoidPoint(a, n, a)) == (True, "s_minimal_block")
    assert point_in_spectrum_alg_n(o2, GroupoidPoint(b, -n, b)) == (True, "s_maximal_block")
    assert point_in_spectrum_alg_n(o2, GroupoidPoint(a, -n, a)) == (False, None)


def test_in_alg_n_matches_oracle_smoke(o2):
    for m in all_monos(o2, 2):
        member, _ = in_alg_n(o2, m)
        oracle_member, _ = in_alg_n_oracle(o2, m)
        assert member == oracle_member, m


def test_in_alg_n_matches_the_clause_by_clause_reference():
    """One comparison of the heads gives the answer and the clause of the
    five clauses tried in turn, on every monomial of length at most 3."""
    rng = make_rng(7)
    outcomes = Counter()
    for _ in range(20):
        og = adapted_order(rng, random_graph(rng, max_in=3, sources=False))
        for m in all_monos(og, 3):
            answer = in_alg_n(og, m)
            assert answer == reference_in_alg_n(og, m), (og.order, m)
            outcomes[answer] += 1
    assert len(outcomes) == 6 and min(outcomes.values()) > 100, outcomes


def test_oracle_matches_the_full_scan_on_random_graphs():
    rng = make_rng(41)
    checked = 0
    for _ in range(30):
        og = adapted_order(rng, random_graph(rng, max_in=2, sources=False))
        for m in all_monos(og, 3):
            bound = len(m.alpha) + len(m.beta) + 3
            assert in_alg_n_oracle(og, m, bound) == reference_oracle(og, m, bound), m
            checked += 1
    assert checked > 5000


def test_oracle_matches_the_full_scan_on_the_fixtures(o2, single_loop, c2, loop3, loop3e, e2):
    for g in (o2, single_loop, c2, loop3, loop3e, e2):
        og = g if isinstance(g, OrderedGraph) else OrderedGraph(
            g, [e.id for v in g.vertices for e in g.in_edges(v)])
        for m in all_monos(og, 3):
            assert in_alg_n_oracle(og, m) == reference_oracle(og, m), m


def test_default_level_bound(o2):
    m = CKMono(fpath("a", "a"), fpath("b"))
    assert default_level_bound(o2, m) == 2 + 1 + 2


def test_spectrum_point_examples(o2):
    a_inf = ev((), ("a",))
    b_inf = ev((), ("b",))
    assert point_in_spectrum_alg_n(o2, GroupoidPoint(a_inf, 1, a_inf)) == (True, "s_minimal_block")
    assert point_in_spectrum_alg_n(o2, GroupoidPoint(b_inf, 1, b_inf)) == (False, None)
    assert point_in_spectrum_alg_n(o2, GroupoidPoint(b_inf, -1, b_inf)) == (True, "s_maximal_block")
    assert point_in_spectrum_alg_n(o2, GroupoidPoint(a_inf, -1, a_inf)) == (False, None)
    assert point_in_spectrum_alg_n(o2, GroupoidPoint(a_inf, 0, a_inf)) == (True, "unit")
    mixed = GroupoidPoint(prepend(fpath("a"), b_inf), 1, b_inf)
    assert point_in_spectrum_alg_n(o2, mixed) == (True, "strict_below")
    above = GroupoidPoint(prepend(fpath("b"), a_inf), 1, a_inf)
    assert point_in_spectrum_alg_n(o2, above) == (False, None)
    assert point_in_spectrum_alg_n(o2, GroupoidPoint(a_inf, 2, a_inf)) == (True, "s_minimal_block")


def test_spectrum_point_period_mismatch(o2, e2):
    # In the two-loop graph a composite block always loses to aa, so the
    # only isotropy points come from the pure loops.
    x = ev((), ("a", "b"))
    assert point_in_spectrum_alg_n(o2, GroupoidPoint(x, 2, x)) == (False, None)
    y = ev((), ("c", "d"))
    with pytest.raises(InvalidPointError):
        GroupoidPoint(y, 1, y)
    assert point_in_spectrum_alg_n(e2, GroupoidPoint(y, 2, y)) == (True, "s_minimal_block")
    rot = ev((), ("d", "c"))
    assert point_in_spectrum_alg_n(e2, GroupoidPoint(rot, 2, rot)) == (True, "s_minimal_block")


def test_isotropy_points_need_the_cycle_length_to_divide_k(e2):
    """GroupoidPoint(x, k, x) exists exactly when the length of x's cycle
    divides k, so the spectrum need not test that rule again."""
    refused = 0
    for x, k in itertools.product(enumerate_evpaths(e2, 2, 4), range(-8, 9)):
        if k % len(x.cycle):
            with pytest.raises(InvalidPointError):
                GroupoidPoint(x, k, x)
            refused += 1
        else:
            assert GroupoidPoint(x, k, x).k == k
    assert refused == 268


def test_one_cycle_decides_isotropy_points_as_every_rotation_does():
    """At every isotropy point (x, k, x) with 0 < |k| <= 8 over short
    eventually periodic x, the one-cycle rule gives the answer of the loop
    over every rotation of the cycle."""
    rng = make_rng(7)
    answers = Counter()
    for _ in range(60):
        og = adapted_order(rng, random_graph(rng, max_vertices=3, max_in=2, sources=False))
        for x, k in itertools.product(enumerate_evpaths(og, 1, 4), range(-8, 9)):
            if k and k % len(x.cycle) == 0:
                point = GroupoidPoint(x, k, x)
                got = point_in_spectrum_alg_n(og, point)
                assert got == reference_spectrum_clause(og, point), (og.order, point)
                answers[got] += 1
    assert set(answers) == {(True, "s_minimal_block"), (True, "s_maximal_block"), (False, None)}
    assert sum(answers.values()) > 5000


def _violating_point(og, m, violation, rng):
    """A point of Z(m) that the oracle's violation separates: the stretch w
    of the shorter leg that reaches the violation's level, then a random
    tail.  Its x starts with the violation's row and its y with its col."""
    a, b = m.alpha.edges, m.beta.edges
    short, cut = (violation.row.edges, len(a)) if len(a) <= len(b) else (violation.col.edges, len(b))
    w = short[cut:]
    tail = random_tail(og, og.source_of(w[-1]) if w else path_source(og, m.alpha), rng)
    return GroupoidPoint(EvPath(a + w + tail.prefix, tail.cycle), m.degree,
                         EvPath(b + w + tail.prefix, tail.cycle))


def test_in_alg_n_agrees_with_the_spectrum_on_its_basic_set():
    """A member monomial's basic set lies in the spectrum, checked at seeded
    points; a non-member's holds a point outside it, found at the level of
    the oracle's violation."""
    rng = make_rng(11)
    members = non_members = 0
    for _ in range(12):
        og = adapted_order(rng, random_graph(rng, max_vertices=3, max_in=2, sources=False))
        for m in all_monos(og, 3):
            member, _ = in_alg_n(og, m)
            if member:
                members += 1
                for _ in range(3):
                    point = point_in(og, m, rng)
                    assert point_in_spectrum_alg_n(og, point)[0], (og.order, m, point)
            else:
                non_members += 1
                oracle_member, violation = in_alg_n_oracle(og, m)
                assert not oracle_member, (og.order, m)
                point = _violating_point(og, m, violation, rng)
                assert in_basic_set(og.graph, point, m)
                assert point.x.truncation(violation.level) == violation.row.edges
                assert point.y.truncation(violation.level) == violation.col.edges
                assert point_in_spectrum_alg_n(og, point) == (False, None), (og.order, m, point)
    assert members > 500 and non_members > 500


def test_radical_spectrum(o2):
    a_inf = ev((), ("a",))
    b_inf = ev((), ("b",))
    assert in_radical_spectrum(o2, GroupoidPoint(prepend(fpath("a"), b_inf), 1, b_inf))
    assert not in_radical_spectrum(o2, GroupoidPoint(a_inf, 1, a_inf))
    assert not in_radical_spectrum(o2, GroupoidPoint(a_inf, 0, a_inf))
    assert not in_radical_spectrum(o2, GroupoidPoint(prepend(fpath("b"), a_inf), 1, a_inf))


def test_commutator_examples(o2):
    ra = range_projection(o2, fpath("a"))
    ab = mono_element(o2, CKMono(fpath("a"), fpath("b")))
    assert commutator(ra, ab) == ab
    sa = path_isometry(o2, fpath("a"))
    assert commutator(ra, sa) == mono_element(o2, CKMono(fpath("a", "b"), fpath("b")))
    pv = vertex_projection(o2, "v")
    assert commutator(pv, ab).is_zero()
    assert commutator(ab, ab).is_zero()
    assert commutator(ra, ab) == commutator(ab, ra).scale(-1)


def test_nest_layer_rejects_non_adapted_order():
    # In-edges of v are a and c, of w are b and d: neither is an order interval.
    # On this order the clause test and the oracle disagree on 8 of the 98
    # monomials with both paths of length at most 2.
    og = build_graph(
        ["v", "w"],
        [("a", "v", "v"), ("b", "w", "v"), ("c", "v", "w"), ("d", "w", "w")],
        order=["a", "b", "c", "d"],
    )
    assert not og.adapted
    report = validate_order(og)
    assert not report.ok and report.order_violations == ("v", "w")
    m = CKMono(fpath("a"), fpath("c"))
    point = GroupoidPoint(ev((), ("a",)), 0, ev((), ("a",)))
    for call in (
        lambda: in_alg_n(og, m),
        lambda: in_alg_n_oracle(og, m),
        lambda: in_alg_n_oracle(og, m, 3),
        lambda: point_in_spectrum_alg_n(og, point),
        lambda: in_radical_spectrum(og, point),
        lambda: level_atoms(og, 1),
        lambda: nest_projection(og, 1, 1),
        lambda: in_alg_n(og.graph, m),
    ):
        with pytest.raises(PreconditionError):
            call()


def test_nest_layer_rejects_sources():
    # The order is adapted, but u is the range of no edge.
    og = build_graph(["u", "v"], [("a", "v", "v"), ("f", "v", "u")], order=["a", "f"])
    assert og.adapted and og.sources == ("u",)
    m = CKMono(fpath("f"), empty_path("u"))
    point = GroupoidPoint(ev((), ("a",)), 0, ev((), ("a",)))
    for call in (
        lambda: in_alg_n(og, m),
        lambda: in_alg_n_oracle(og, m),
        lambda: in_alg_n_oracle(og, m, 3),
        lambda: point_in_spectrum_alg_n(og, point),
        lambda: in_radical_spectrum(og, point),
        lambda: level_atoms(og, 1),
        lambda: nest_projection(og, 1, 1),
    ):
        with pytest.raises(PreconditionError, match="u is the range of no edge"):
            call()


def test_default_level_bound_searches_each_graph_once(monkeypatch):
    import ckcalc.graph

    searched = []

    def counting(og):
        searched.append(og)
        return max_simple_loop_length(og)

    monkeypatch.setattr(ckcalc.graph, "max_simple_loop_length", counting)
    graphs = [
        build_graph(["v"], [("a", "v", "v"), ("b", "v", "v")], order=["a", "b"])
        for _ in range(2)
    ]
    for og in graphs:
        for m in all_monos(og, 1):
            in_alg_n_oracle(og, m)
            assert default_level_bound(og, m) == len(m.alpha) + len(m.beta) + 2
    assert searched == graphs


def test_points_off_the_graph_are_refused(o2):
    off = GroupoidPoint(ev((), ("z",)), 0, ev((), ("z",)))
    off_y = GroupoidPoint(ev((), ("a",)), 1, ev(("z",), ("a",)))
    for point in (off, off_y):
        with pytest.raises(InvalidGraphError, match="z"):
            point_in_spectrum_alg_n(o2, point)
        with pytest.raises(InvalidGraphError, match="z"):
            in_radical_spectrum(o2, point)
