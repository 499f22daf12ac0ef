import time
from collections import Counter
from fractions import Fraction

import pytest

import ckcalc.graph
from ckcalc import cocycle
from ckcalc.cocycle import (
    LocallyConstantFn,
    TailedPair,
    acyclic_weights,
    cocycle_graded_projection,
    equalize_loops,
    eval_cocycle,
    eval_cocycle_tailed,
    fn_from_json_obj,
    fn_to_json_obj,
    integer_obstruction_witness,
    loop_growth,
    reconstruct_f,
    validate_total,
)
from ckcalc.ckalg import path_isometry, phi_m, zero
from ckcalc.errors import (
    BadInputError,
    InvalidFunctionError,
    InvalidPointError,
    NotEqualizableError,
    PreconditionError,
    WindowTooShortError,
)
from ckcalc.graph import underlying
from ckcalc.paths import (
    EvPath,
    FinPath,
    GroupoidPoint,
    continuations,
    enumerate_evpaths,
    ev,
    ev_range,
    fpath,
    inverse,
    join_paths,
    parse_edge_word,
    path_source,
    prepend,
    shift_n,
)
from ckcalc.scalars import ZERO

from conftest import build_graph
from helpers import (
    make_rng,
    point_in,
    rand_element,
    rand_fn,
    rand_point,
    random_graph,
    reference_paths_with_source,
    reference_reconstruct_f,
    swapped,
    value_at,
)


def indicator_a():
    return LocallyConstantFn.from_weights({"a": 1, "b": 0})


def test_fn_construction_errors():
    with pytest.raises(BadInputError):
        LocallyConstantFn(-1, {})
    with pytest.raises(BadInputError):
        LocallyConstantFn(2, {("a",): 1})
    with pytest.raises(BadInputError):
        LocallyConstantFn(0, {})
    with pytest.raises(BadInputError, match="table must map words of edge ids to values, not 5"):
        LocallyConstantFn(1, 5)
    for depth in ("1", 1.5, 2.0):
        with pytest.raises(BadInputError, match="integer"):
            LocallyConstantFn(depth, {})
    f = LocallyConstantFn.constant(Fraction(3, 2))
    assert f.depth == 0
    assert f.value_at(()) == Fraction(3, 2)
    assert f.value_at(("a", "b")) == Fraction(3, 2)


def test_fn_value_lookup(o2):
    f = indicator_a()
    assert f.value_at(("a",)) == 1
    assert f.value_at(("b", "a")) == 0
    with pytest.raises(InvalidFunctionError):
        f.value_at(())
    with pytest.raises(InvalidFunctionError):
        f.value_at(("c",))
    assert f.value_on(ev((), ("a",))) == 1
    assert f.value_on(ev(("b",), ("a",))) == 0


def test_validate_total(o2):
    validate_total(o2, indicator_a())
    validate_total(o2, LocallyConstantFn.constant(1))
    partial = LocallyConstantFn(1, {("a",): 1})
    with pytest.raises(InvalidFunctionError):
        validate_total(o2, partial)


def test_eval_cocycle_constant_counts_degree(o2):
    one = LocallyConstantFn.constant(1)
    a_inf = ev((), ("a",))
    b_inf = ev((), ("b",))
    assert eval_cocycle(one, GroupoidPoint(a_inf, 3, a_inf)) == 3
    assert eval_cocycle(one, GroupoidPoint(b_inf, -2, b_inf)) == -2
    assert eval_cocycle(one, GroupoidPoint(a_inf, 0, a_inf)) == 0
    mixed = GroupoidPoint(prepend(fpath("a"), b_inf), 1, b_inf)
    assert eval_cocycle(one, mixed) == 1


def test_eval_cocycle_indicator(o2):
    f = indicator_a()
    a_inf = ev((), ("a",))
    b_inf = ev((), ("b",))
    assert eval_cocycle(f, GroupoidPoint(a_inf, 1, a_inf)) == 1
    assert eval_cocycle(f, GroupoidPoint(b_inf, 1, b_inf)) == 0
    assert eval_cocycle(f, GroupoidPoint(prepend(fpath("a"), b_inf), 1, b_inf)) == 1
    assert eval_cocycle(f, GroupoidPoint(prepend(fpath("b"), a_inf), 1, a_inf)) == 0
    hop = GroupoidPoint(prepend(fpath("a", "a"), b_inf), 0, prepend(fpath("b", "a"), b_inf))
    assert eval_cocycle(f, hop) == 1


def _brute_cocycle(f, point, pad=40):
    """Reference sum taken far past stabilization, with the tail checked."""
    if point.k < 0:
        return -_brute_cocycle(f, inverse(point), pad)
    x, k, y = point.x, point.k, point.y
    big = max(len(x.prefix), len(y.prefix)) + len(x.cycle) * len(y.cycle) + k + pad
    total = Fraction(0)
    for j in range(0, k):
        total += f.value_at(x.truncation(j + f.depth)[j:])
    for j in range(k, big):
        total += f.value_at(x.truncation(j + f.depth)[j:]) - f.value_at(
            y.truncation(j - k + f.depth)[j - k:]
        )
    assert shift_n(x, big) == shift_n(y, big - k)
    return total


def test_eval_cocycle_matches_brute_force(o2, e2, loop3e):
    rng = make_rng(41)
    for g in (o2, e2, loop3e):
        for depth in (0, 1, 2):
            f = rand_fn(g, rng, depth)
            for _ in range(12):
                point = rand_point(g, rng)
                assert eval_cocycle(f, point) == _brute_cocycle(f, point)


def test_eval_cocycle_antisymmetry(o2):
    rng = make_rng(42)
    f = rand_fn(o2, rng, 2)
    for _ in range(20):
        point = rand_point(o2, rng)
        assert eval_cocycle(f, point) == -eval_cocycle(f, inverse(point))


def test_tailed_weight_formula(o2):
    f = indicator_a()
    tp = TailedPair(fpath("a", "a"), fpath("b"), fpath("a"))
    assert eval_cocycle_tailed(f, tp) == 2
    same = TailedPair(fpath("a", "b"), fpath("a", "b"), fpath("b"))
    assert eval_cocycle_tailed(f, same) == 0
    assert eval_cocycle_tailed(f, swapped(tp)) == -2
    with pytest.raises(WindowTooShortError):
        eval_cocycle_tailed(f, TailedPair(fpath("a"), fpath("b"), FinPath((), anchor="v")))


def test_tailed_matches_pointwise(o2, e2):
    from ckcalc.ckalg import join_paths
    from ckcalc.paths import path_range

    rng = make_rng(43)
    for g in (o2, e2):
        g0 = underlying(g)
        f = rand_fn(g, rng, 1)
        tails = list(enumerate_evpaths(g0, 2, 2))
        checked = 0
        for _ in range(200):
            if checked >= 25:
                break
            v = rng.choice(sorted(g0.vertex_set))
            ws = continuations(g0, v, 2)
            if not ws:
                continue
            w = rng.choice(ws)
            pxs = reference_paths_with_source(g0, path_range(g0, w), rng.randint(0, 2))
            pys = reference_paths_with_source(g0, path_range(g0, w), rng.randint(0, 2))
            zs = [z for z in tails if ev_range(g0, z) == path_source(g0, w)]
            if not pxs or not pys or not zs:
                continue
            px, py, z = rng.choice(pxs), rng.choice(pys), rng.choice(zs)
            tp = TailedPair(px, py, w)
            point = GroupoidPoint(
                prepend(join_paths(px, w), z), tp.k, prepend(join_paths(py, w), z)
            )
            assert eval_cocycle_tailed(f, tp) == eval_cocycle(f, point)
            checked += 1
        assert checked >= 25


def test_reconstruct_f(o2, e2, loop3e):
    rng = make_rng(44)
    for g in (o2, e2, loop3e):
        for depth in (0, 1, 2):
            ok, failures = reconstruct_f(g, rand_fn(g, rng, depth))
            assert ok and failures == []
    ok, failures = reconstruct_f(o2, indicator_a())
    assert ok


def test_reconstruct_f_matches_the_sampled_reference():
    rng = make_rng(49)
    for _ in range(50):
        g = random_graph(rng, max_vertices=3, sources=False)
        for depth in range(4):
            f = rand_fn(g, rng, depth)
            assert reconstruct_f(g, f) == reference_reconstruct_f(g, f) == (True, [])


def test_reconstruct_f_reports_each_wrong_piece(bridge, monkeypatch):
    telescope = cocycle._telescope
    rng = make_rng(50)
    for e0 in bridge.edges:
        monkeypatch.setattr(cocycle, "_telescope", lambda f, xw, yw, k, stop: (
            telescope(f, xw, yw, k, stop) + (1 if xw[:1] == (e0.id,) else 0)))
        for depth in range(4):
            f = rand_fn(bridge, rng, depth)
            ok, failures = reconstruct_f(bridge, f)
            pieces = [join_paths(fpath(e0.id), w)
                      for w in continuations(bridge, e0.source, depth)]
            assert not ok
            assert [x for x, _, _ in failures] == pieces
            assert all(got == expected + 1 == f.value_at(x.edges) + 1
                       for x, expected, got in failures)


def test_reconstruct_f_needs_no_cycle_search(bridge, monkeypatch):
    def refuse(graph):
        raise AssertionError("longest-cycle search")

    monkeypatch.setattr(ckcalc.graph, "max_simple_loop_length", refuse)
    assert reconstruct_f(bridge, rand_fn(bridge, make_rng(51), 2)) == (True, [])


def test_loop_growth_examples(o2):
    one = LocallyConstantFn.constant(1)
    a_inf = ev((), ("a",))
    report = loop_growth(one, a_inf, 1)
    assert report.base == 1 and report.verified and report.unbounded
    only_b = LocallyConstantFn.from_weights({"a": 0, "b": 1})
    blocked = loop_growth(only_b, a_inf, 1)
    assert blocked.base == 0 and blocked.verified and not blocked.unbounded
    two_step = loop_growth(one, ev((), ("a", "b")), 2)
    assert two_step.base == 2 and two_step.verified and two_step.unbounded


def test_loop_growth_at_a_huge_period(o2):
    f = LocallyConstantFn(2, {("a", "a"): Fraction(1, 2), ("a", "b"): -1,
                              ("b", "a"): 3, ("b", "b"): 0})
    x = ev((), ("a", "a", "b"))
    # The windows aa, ab, ba of one cycle sum to 5/2.
    assert loop_growth(f, x, 6).base == eval_cocycle(f, GroupoidPoint(x, 6, x)) == 5
    report = loop_growth(f, x, 3 * 10**12)
    assert report.base == Fraction(5, 2) * 10**12 and report.unbounded


def test_loop_growth_preconditions(o2):
    one = LocallyConstantFn.constant(1)
    with pytest.raises(PreconditionError):
        loop_growth(one, ev(("a",), ("b",)), 1)
    with pytest.raises(PreconditionError):
        loop_growth(one, ev((), ("a", "b")), 3)
    with pytest.raises(PreconditionError):
        loop_growth(one, ev((), ("a",)), 0)


def test_acyclic_weights_values():
    w = acyclic_weights(["e", "f", "g"])
    assert w == {"e": Fraction(1, 3), "f": Fraction(1, 9), "g": Fraction(1, 27)}
    assert acyclic_weights(["x"]) == {"x": Fraction(1, 3)}
    with pytest.raises(BadInputError):
        acyclic_weights(["e", "e"])
    with pytest.raises(BadInputError):
        acyclic_weights([])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: acyclic_weights(5), "edge ids must be a list of strings",
                 id="weights-int"),
    pytest.param(lambda: acyclic_weights([["a"]]), "edge ids must be a list of strings",
                 id="weights-unhashable-id"),
    pytest.param(lambda: parse_edge_word(5), "an edge word must be a string, not 5",
                 id="edge-word-int"),
    pytest.param(lambda: LocallyConstantFn.from_weights(5), "weights must map edge ids",
                 id="from-weights-int"),
    pytest.param(lambda: LocallyConstantFn.from_weights([["a"]]), "weights must map edge ids",
                 id="from-weights-no-pairs"),
    pytest.param(lambda: LocallyConstantFn(1, "ab"), "table must map words",
                 id="table-no-pairs"),
])
def test_exported_helpers_refuse_bad_input(call, message):
    """A value of the wrong type gives BadInputError, not a bare Python error."""
    with pytest.raises(BadInputError, match=message):
        call()


def test_acyclic_weights_dominate():
    w = acyclic_weights(list("abcdefghij"))
    values = sorted(w.values(), reverse=True)
    for i, v in enumerate(values):
        assert v > sum(values[i + 1:], Fraction(0))


def test_acyclic_weights_check_3000_edges_in_time():
    """The 3,000 weights come quickly, and each strictly dominates the sum
    of all later ones, checked here with one running sum from the end."""
    ids = ["e%d" % i for i in range(3000)]
    start = time.perf_counter()
    w = acyclic_weights(ids)
    assert time.perf_counter() - start < 8
    assert list(w) == ids and w["e2999"] == Fraction(1, 3 ** 3000)
    smaller = Fraction(0)
    for e in reversed(ids):
        assert w[e] > smaller, e
        smaller += w[e]


def test_weights_force_nonvanishing():
    rng = make_rng(45)
    pool = ["e%d" % i for i in range(8)]
    weights = acyclic_weights(pool)
    f = LocallyConstantFn.from_weights(weights)
    window = FinPath((pool[0],))
    hits = 0
    for _ in range(100):
        nx = rng.randint(0, 4)
        ny = rng.randint(0, 4)
        px = FinPath(tuple(rng.sample(pool, nx)), anchor=None if nx else "z")
        py = FinPath(tuple(rng.sample(pool, ny)), anchor=None if ny else "z")
        if Counter(px.edges) == Counter(py.edges):
            continue
        value = eval_cocycle_tailed(f, TailedPair(px, py, window))
        assert value != 0
        expect = sum((weights[e] for e in px.edges), Fraction(0)) - sum(
            (weights[e] for e in py.edges), Fraction(0)
        )
        assert value == expect
        hits += 1
    assert hits >= 80


def test_equalize_loops(e2, loop3e):
    alpha, beta = equalize_loops(e2, fpath("h"), fpath("c", "d"))
    assert alpha == fpath("h", "h")
    assert beta == fpath("c", "d")
    a2, b2 = equalize_loops(loop3e, fpath("h"), fpath("e2", "e3", "e1"))
    assert len(a2) == len(b2)
    g = underlying(loop3e)
    from ckcalc.paths import check_finpath, path_range

    for p in (a2, b2):
        check_finpath(g, p)
        assert path_range(g, p) == path_source(g, p)
    assert path_range(g, a2) == path_range(g, b2)


def test_equalize_loops_errors(e2):
    with pytest.raises(PreconditionError):
        equalize_loops(e2, fpath("c"), fpath("h"))
    with pytest.raises(PreconditionError):
        equalize_loops(e2, FinPath((), anchor="u"), fpath("h"))
    two_islands = build_graph(
        ["p", "q"], [("l1", "p", "p"), ("l2", "q", "q")]
    )
    with pytest.raises(NotEqualizableError):
        equalize_loops(two_islands, fpath("l1"), fpath("l2"))


def test_obstruction_witness_shape(o2):
    wit = integer_obstruction_witness(o2, fpath("a"), fpath("b"), 2)
    assert wit.x == ev(("a", "a", "a", "b", "a", "a"), ("b",))
    assert wit.y == ev(("a", "a", "b", "a", "a", "a"), ("b",))
    assert wit.window == 2
    assert wit.loop_alpha == fpath("a") and wit.loop_beta == fpath("b")
    with pytest.raises(PreconditionError):
        integer_obstruction_witness(o2, fpath("a"), fpath("b"), 1)
    with pytest.raises(PreconditionError):
        integer_obstruction_witness(o2, fpath("a", "b"), fpath("a"), 2)


def test_obstruction_kills_telescope(o2):
    rng = make_rng(46)
    for ell in (2, 3):
        wit = integer_obstruction_witness(o2, fpath("a"), fpath("b"), ell)
        for _ in range(20):
            f = rand_fn(o2, rng, wit.window)
            assert eval_cocycle(f, GroupoidPoint(wit.x, 0, wit.y)) == 0
        # Sanity: a window one deeper does separate the pair.
        deep = rand_fn(o2, rng, wit.window + 1)
        seen = eval_cocycle(deep, GroupoidPoint(wit.x, 0, wit.y))
        assert isinstance(seen, Fraction)


def test_obstruction_truncation_multisets(o2):
    for ell in (2, 3):
        wit = integer_obstruction_witness(o2, fpath("a"), fpath("b"), ell)
        n = wit.window
        merge = 0
        while shift_n(wit.x, merge) != shift_n(wit.y, merge):
            merge += 1
        xs = Counter(wit.x.truncation(i + n)[i:] for i in range(merge))
        ys = Counter(wit.y.truncation(i + n)[i:] for i in range(merge))
        assert xs == ys


def test_telescope_requires_merging(o2):
    one = LocallyConstantFn.constant(1)
    with pytest.raises(InvalidPointError):
        eval_cocycle(one, GroupoidPoint(ev((), ("a",)), 0, ev((), ("b",))))


def test_graded_projection_constant_one_is_phi(o2):
    rng = make_rng(47)
    one = LocallyConstantFn.constant(1)
    for _ in range(10):
        a = rand_element(o2, rng, n_terms=5, max_len=2)
        for m in a.degrees():
            assert cocycle_graded_projection(one, a, m) == phi_m(a, m)
        assert cocycle_graded_projection(one, a, Fraction(1, 2)).is_zero()
        total = zero(o2)
        for m in a.degrees():
            total = total + cocycle_graded_projection(one, a, m)
        assert total == a


def test_graded_projection_splits_by_weight(o2):
    f = indicator_a()
    from ckcalc.ckalg import path_isometry

    mix = path_isometry(o2, fpath("a")) + path_isometry(o2, fpath("b"))
    assert cocycle_graded_projection(f, mix, 1) == path_isometry(o2, fpath("a"))
    assert cocycle_graded_projection(f, mix, 0) == path_isometry(o2, fpath("b"))
    assert cocycle_graded_projection(f, mix, 2).is_zero()


def test_graded_projection_is_the_element_cut_to_a_cocycle_value():
    """cocycle_graded_projection(f, a, value) is a restricted to the points
    where c_f equals value, read at seeded points of the basic sets of a's
    terms and of the projection's terms."""
    rng = make_rng(57)
    checked = Counter()
    for _ in range(40):
        g = random_graph(rng, max_vertices=3, max_in=2, sources=False)
        a = rand_element(g, rng, n_terms=4, max_len=2)
        f = rand_fn(g, rng, rng.randint(0, 2))
        points = [point_in(g, m, rng) for m in a.terms for _ in range(4)]
        values = sorted({eval_cocycle(f, p) for p in points})
        for value in values + [values[-1] + 1]:
            cut = cocycle_graded_projection(f, a, value)
            for p in points + [point_in(g, m, rng) for m in cut.terms]:
                inside = eval_cocycle(f, p) == value
                assert value_at(cut, p) == (value_at(a, p) if inside else ZERO), (f.table, p)
                checked[inside] += 1
    assert checked[True] > 300 and checked[False] > 300


def test_fn_json_round_trip(o2):
    rng = make_rng(48)
    for depth in (0, 1, 2):
        f = rand_fn(o2, rng, depth)
        obj = fn_to_json_obj(f)
        back = fn_from_json_obj(obj)
        assert back.depth == f.depth and back.table == f.table
    with pytest.raises(BadInputError):
        fn_from_json_obj({"depth": 1})
    with pytest.raises(BadInputError):
        fn_from_json_obj({"depth": 1, "table": [{"path": ["a"]}]})


def test_reconstruct_f_rejects_sources():
    g = build_graph(["u", "v"], [("a", "v", "v"), ("f", "v", "u")])
    f = LocallyConstantFn(1, {("a",): -1, ("f",): -1})
    with pytest.raises(PreconditionError, match="u is the range of no edge"):
        reconstruct_f(g, f)


def test_function_values_parse_as_rationals(o2):
    with pytest.raises(BadInputError, match="zz"):
        LocallyConstantFn(1, {("a",): "zz", ("b",): 1})
    with pytest.raises(BadInputError, match="q"):
        LocallyConstantFn.constant("q")
    f = LocallyConstantFn(1, {("a",): "-1/2", ("b",): Fraction(3, 4)})
    assert f.table == {("a",): Fraction(-1, 2), ("b",): Fraction(3, 4)}
    assert LocallyConstantFn.constant(2).table == {(): 2}
    a = path_isometry(o2, fpath("a"))
    with pytest.raises(BadInputError, match="x"):
        cocycle_graded_projection(f, a, "x")
    assert cocycle_graded_projection(f, a, "-1/2") == a
