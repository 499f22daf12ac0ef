import os
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ckcalc
from ckcalc.errors import (
    BadInputError,
    ComposeMismatchError,
    InvalidGraphError,
    InvalidPathError,
    InvalidPointError,
    LengthMismatchError,
    NotComposableError,
    PreconditionError,
)
from ckcalc.graph import Edge, Graph, OrderedGraph
from ckcalc.paths import (
    _walk,
    EvPath,
    FinPath,
    GroupoidPoint,
    all_finpaths,
    check_evpath,
    check_finpath,
    compose,
    concat,
    continuations,
    empty_path,
    enumerate_evpaths,
    ev,
    ev_range,
    evpath_from_json_obj,
    evpath_to_json_obj,
    fpath,
    in_cylinder,
    inverse,
    is_s_maximal,
    is_s_minimal,
    lex_compare,
    parse_edge_word,
    path_range,
    path_source,
    point_in_Z,
    prepend,
    primitive_loops,
    shift,
    shift_n,
    sim_k,
)

from conftest import build_graph
from helpers import (
    adapted_order,
    all_monos,
    in_basic_set,
    make_rng,
    point_in,
    rand_point,
    random_graph,
    random_tail,
    reference_all_finpaths,
    reference_continuations,
    reference_enumerate_evpaths,
    reference_lex_compare,
    reference_paths_with_source,
    reference_primitive_loops,
    reference_s_extremal,
    small_ordered_graphs,
)

WORDS = st.lists(st.sampled_from(["a", "b"]), max_size=6)
CYCLES = st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=4)


def test_finpath_construction():
    p = fpath("a", "b")
    assert len(p) == 2 and not p.is_empty
    q = empty_path("v")
    assert q.is_empty and q.anchor == "v"
    with pytest.raises(BadInputError):
        FinPath(("a",), "v")
    with pytest.raises(BadInputError):
        FinPath((), None)


def test_check_finpath(o2, e2):
    check_finpath(o2, fpath("a", "b"))
    with pytest.raises(InvalidPathError):
        check_finpath(o2, empty_path("nope"))
    # c then h does not chain in e2: source(c)=v but range(h)=u.
    with pytest.raises(InvalidPathError):
        check_finpath(e2, fpath("c", "h"))
    check_finpath(e2, fpath("c", "d"))


@settings(max_examples=40, deadline=None)
@given(small_ordered_graphs(), st.integers(0, 5))
def test_lazy_continuations_follow_the_listing(g, length):
    for v in g.vertices:
        words = [p.edges for p in reference_continuations(g, v, length)]
        assert list(_walk(g, v, length)) == words


def test_path_views_refuse_a_bad_length_before_walking(o2, monkeypatch):
    # Unrefused, a length the walk's depth never equals descends forever.
    def no_walk(*args):
        raise AssertionError("walked with length %r" % (args[-1],))

    monkeypatch.setattr("ckcalc.paths._walk", no_walk)
    for length in (1.5, -1, 2.0, "1", None):
        for call in (lambda: all_finpaths(o2, length),
                     lambda: continuations(o2, "v", length)):
            with pytest.raises(BadInputError, match="nonnegative integer") as err:
                call()
            assert err.value.code == "bad_input"
    monkeypatch.undo()
    assert len(all_finpaths(o2, 2)) == len(continuations(o2, "v", 2)) == 4


def test_enumerators_match_the_listing_references():
    rng = make_rng(12)
    graphs = [random_graph(rng) for _ in range(60)]
    for g in graphs:
        for length in range(5):
            for v in g.vertices:
                assert continuations(g, v, length) == reference_continuations(g, v, length)
                assert [p for p in all_finpaths(g, length) if path_source(g, p) == v] == (
                    reference_paths_with_source(g, v, length))
            assert all_finpaths(g, length) == reference_all_finpaths(g, length)
        assert primitive_loops(g, 4) == reference_primitive_loops(g, 4)
        for max_prefix, max_cycle in ((0, 1), (2, 2), (3, 3)):
            assert enumerate_evpaths(g, max_prefix, max_cycle) == reference_enumerate_evpaths(
                g, max_prefix, max_cycle)
    edge_lists = [[(e.range, e.source) for e in g.edges] for g in graphs]
    assert any(g.sources for g in graphs) and not all(g.sources for g in graphs)
    assert any(len(set(pairs)) < len(pairs) for pairs in edge_lists)  # parallel edges
    assert any(r == s for pairs in edge_lists for r, s in pairs)  # self-loops


def test_range_source_concat(e2):
    p = fpath("c", "d")
    assert path_range(e2, p) == "u"
    assert path_source(e2, p) == "u"
    assert path_range(e2, empty_path("v")) == "v"
    joined = concat(e2, p, fpath("h"))
    assert joined.edges == ("c", "d", "h")
    with pytest.raises(ComposeMismatchError):
        concat(e2, fpath("c"), fpath("c"))
    assert concat(e2, empty_path("u"), p).edges == p.edges


def test_evpath_canonical_form():
    assert ev((), ("a", "a")).cycle == ("a",)
    assert ev(("a",), ("a",)) == ev((), ("a",))
    # b(ab)^inf reads b a b a b... = (ba)^inf.
    assert ev(("b",), ("a", "b")) == ev((), ("b", "a"))
    x = ev(("a", "b"), ("b",))
    assert x.prefix == ("a",) and x.cycle == ("b",)
    with pytest.raises(BadInputError):
        ev(("a",), ())


@given(WORDS, CYCLES)
def test_evpath_absorbs_whole_cycles(prefix, cycle):
    assert EvPath(tuple(prefix) + tuple(cycle), cycle) == EvPath(prefix, cycle)


@given(WORDS, CYCLES, st.integers(min_value=1, max_value=3))
def test_evpath_ignores_cycle_powers(prefix, cycle, power):
    assert EvPath(prefix, tuple(cycle) * power) == EvPath(prefix, cycle)


def test_edge_at_and_truncation():
    x = ev(("a",), ("b", "a"))
    assert [x.edge_at(i) for i in range(1, 6)] == ["a", "b", "a", "b", "a"]
    assert x.truncation(4) == ("a", "b", "a", "b")
    with pytest.raises(BadInputError):
        x.edge_at(0)


@given(WORDS, CYCLES)
def test_truncation_lists_the_edges(prefix, cycle):
    x = EvPath(prefix, cycle)
    for n in range(-1, len(x.prefix) + 3 * len(x.cycle) + 1):
        assert x.truncation(n) == tuple(x.edge_at(i) for i in range(1, n + 1))


def test_shift_family():
    x = ev(("a", "b"), ("a", "b", "b"))
    assert shift(shift(x)) == shift_n(x, 2)
    assert shift_n(x, 7) == shift_n(x, 4)  # period 3 past the prefix
    assert prepend(fpath("a", "b"), shift_n(x, 2)) == x
    with pytest.raises(BadInputError):
        shift_n(x, -1)


@given(WORDS, CYCLES)
def test_shift_undoes_prepend(word, cycle):
    x = EvPath((), cycle)
    assert shift_n(prepend(FinPath(tuple(word)) if word else x_empty(), x), len(word)) == x


def x_empty():
    return empty_path("v")


def test_check_evpath(o2, e2):
    check_evpath(o2, ev(("a",), ("b",)))
    with pytest.raises(InvalidPathError):
        check_evpath(e2, ev((), ("c",)))  # c is not a loop
    check_evpath(e2, ev(("d",), ("h",)))
    assert ev_range(e2, ev(("d",), ("h",))) == "v"


def test_sim_k_and_point_validation():
    x = ev(("a",), ("b",))
    y = ev((), ("b",))
    assert sim_k(x, 1, y)
    # With lag 0 the tails still agree eventually, so this is a point too.
    assert sim_k(x, 0, y)
    GroupoidPoint(x, 1, y)
    assert not sim_k(ev((), ("a",)), 0, ev((), ("b",)))
    with pytest.raises(InvalidPointError):
        GroupoidPoint(ev((), ("a",)), 0, ev((), ("b",)))
    with pytest.raises(InvalidPointError):
        GroupoidPoint(ev((), ("a", "b")), 1, ev((), ("a", "b")))


def test_compose_and_inverse():
    x = ev(("a", "a"), ("b",))
    y = ev(("a",), ("b",))
    z = ev((), ("b",))
    g1 = GroupoidPoint(x, 1, y)
    g2 = GroupoidPoint(y, 1, z)
    assert compose(g1, g2) == GroupoidPoint(x, 2, z)
    assert inverse(g1) == GroupoidPoint(y, -1, x)
    with pytest.raises(NotComposableError):
        compose(g1, GroupoidPoint(z, 0, z))


def test_lex_compare_finpaths(o2, e2):
    assert lex_compare(fpath("a"), fpath("b"), o2) == -1
    assert lex_compare(fpath("b", "a"), fpath("a", "b"), o2) == 1
    assert lex_compare(fpath("a", "b"), fpath("a", "b"), o2) == 0
    with pytest.raises(LengthMismatchError):
        lex_compare(fpath("a"), fpath("a", "b"), o2)
    with pytest.raises(BadInputError, match="lex compare needs two paths of the same kind"):
        lex_compare(fpath("a"), ev((), ("a",)), o2)
    assert lex_compare(empty_path("u"), empty_path("v"), e2) == -1
    assert lex_compare(empty_path("u"), empty_path("u"), e2) == 0


def test_lex_compare_evpaths(o2):
    assert lex_compare(ev((), ("a",)), ev((), ("b",)), o2) == -1
    assert lex_compare(ev(("a",), ("b",)), ev((), ("b",)), o2) == -1
    assert lex_compare(ev((), ("b", "a")), ev((), ("b", "a")), o2) == 0
    assert lex_compare(ev((), ("a", "b")), ev((), ("a",)), o2) == 1


def test_check_chain_reports_an_unknown_edge_before_a_break(e2):
    with pytest.raises(InvalidGraphError, match="zz"):
        check_finpath(e2, fpath("h", "d", "zz"))
    with pytest.raises(InvalidPathError, match="'h' then 'd'"):
        check_finpath(e2, fpath("h", "d"))


def test_lex_compare_refuses_an_unknown_edge(o2):
    with pytest.raises(InvalidGraphError, match="z"):
        lex_compare(ev((), ("z",)), ev((), ("a",)), o2)
    with pytest.raises(InvalidGraphError, match="z"):
        lex_compare(fpath("a"), fpath("z"), o2)


# v and w; a has range v and source v, b range v and source w, and c range
# w and source v; ordered a < b < c.  cc, bb and ac do not chain.
G3 = build_graph(["v", "w"], [("a", "v", "v"), ("b", "v", "w"), ("c", "w", "v")],
                 order=["a", "b", "c"])


# The rule reads only positions and the ends of edges, so it must not see these.
S_TESTS_OF_NO_PATHS = {
    "maximal-cc": lambda: is_s_maximal(G3, fpath("c", "c")),
    "minimal-bb": lambda: is_s_minimal(G3, fpath("b", "b")),
    "minimal-ac": lambda: is_s_minimal(G3, fpath("a", "c")),
}


@pytest.mark.parametrize("case", sorted(S_TESTS_OF_NO_PATHS))
def test_s_extremal_tests_refuse_words_that_are_no_paths(case):
    with pytest.raises(InvalidPathError):
        S_TESTS_OF_NO_PATHS[case]()


# lex_compare reads only positions, so it must refuse these before it compares.
LEX_COMPARES_OF_NO_PATHS = {
    "z-inf": (lambda: lex_compare(ev((), ("z",)), ev((), ("z",)), G3), InvalidGraphError),
    "z": (lambda: lex_compare(fpath("z"), fpath("z"), G3), InvalidGraphError),
    "c-inf-first": (lambda: lex_compare(ev((), ("c",)), ev((), ("a",)), G3), InvalidPathError),
    "c-inf-second": (lambda: lex_compare(ev((), ("a",)), ev((), ("c",)), G3), InvalidPathError),
    "cc": (lambda: lex_compare(fpath("c", "c"), fpath("a", "a"), G3), InvalidPathError),
}


@pytest.mark.parametrize("case", sorted(LEX_COMPARES_OF_NO_PATHS))
def test_lex_compare_refuses_words_that_are_no_paths(case):
    call, error = LEX_COMPARES_OF_NO_PATHS[case]
    with pytest.raises(error):
        call()


def test_lex_compare_matches_the_lcm_reference(o2, e2):
    """lex_compare, read to the Fine and Wilf bound, agrees with the lcm
    bound on every pair of paths with prefixes up to 3 and cycles up to 4
    edges, over O2, e2 and seeded random adapted graphs."""
    rng = make_rng(29)
    graphs = [o2, e2] + [adapted_order(rng, random_graph(rng, 3, 2, sources=False))
                         for _ in range(4)]
    pairs = 0
    for og in graphs:
        xs = enumerate_evpaths(og, 3, 4)
        for x in xs:
            for y in xs:
                assert lex_compare(x, y, og) == reference_lex_compare(x, y, og), (x, y)
        pairs += len(xs) ** 2
    assert pairs > 50000


# Compares paths with cycles of 10,000 and 10,001 edges on O2 under an
# address-space limit: the lcm bound would build tuples of about 10^8 edges.
LONG_CYCLES = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))
from ckcalc.graph import Edge, Graph, OrderedGraph
from ckcalc.paths import ev, lex_compare
o2 = OrderedGraph(Graph(["v"], [Edge("a", "v", "v"), Edge("b", "v", "v")]), ["a", "b"])
x, y = ev((), ("a",) * 9999 + ("b",)), ev((), ("a",) * 9999 + ("b", "b"))
print(lex_compare(x, y, o2), lex_compare(y, x, o2), lex_compare(x, x, o2))
"""


def test_lex_compare_reads_long_coprime_cycles_in_bounded_memory():
    # x and y first differ at edge 10,001, a of x against b of y.
    src = os.path.dirname(os.path.dirname(ckcalc.__file__))
    run = subprocess.run([sys.executable, "-c", LONG_CYCLES], capture_output=True, text=True,
                         timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "-1 1 0\n")


def test_unknown_vertex_ids_are_refused(o2):
    # Each was a bare KeyError or TypeError, and a length-0 continuation
    # of an unknown vertex was an empty path at it.
    for call in (lambda: o2.vertex_pos("zz"), lambda: o2.vertex_pos(["v"]),
                 lambda: lex_compare(empty_path("zz"), empty_path("v"), o2),
                 lambda: continuations(o2, "zz", 2), lambda: continuations(o2, "zz", 0),
                 lambda: continuations(o2.graph, ["v"], 1),
                 lambda: o2.in_edges("zz"), lambda: o2.in_edges(["v"]),
                 lambda: o2.out_edges("zz"), lambda: o2.graph.out_edges(["v"])):
        with pytest.raises(InvalidGraphError, match="unknown vertex id"):
            call()
    assert continuations(o2.graph, "v", 0) == [empty_path("v")]


def test_continuations_order(o2, e2):
    assert [p.edges for p in continuations(o2, "v", 2)] == [
        ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")
    ]
    # Range u: first edges c or h; c continues from v (via d), h from u.
    assert [p.edges for p in continuations(e2, "u", 2)] == [
        ("c", "d"), ("h", "c"), ("h", "h")
    ]
    assert continuations(o2, "v", 0) == [empty_path("v")]


def test_all_finpaths_counts(o2, e2):
    assert len(all_finpaths(o2, 3)) == 8
    assert len(all_finpaths(e2, 0)) == 2
    assert {path_source(e2, p) for p in reference_paths_with_source(e2, "u", 2)} == {"u"}


def test_primitive_loops(o2):
    loops = {p.edges for p in primitive_loops(o2, 2)}
    assert loops == {("a",), ("b",), ("a", "b"), ("b", "a")}


def test_enumerate_evpaths_distinct(o2):
    paths = enumerate_evpaths(o2, 2, 2)
    assert len(paths) == len(set(paths))
    assert ev((), ("a",)) in paths
    assert ev(("b",), ("a", "b")) in paths or ev((), ("b", "a")) in paths


def test_s_extremal(o2, e2):
    assert is_s_minimal(o2, fpath("a"))
    assert not is_s_minimal(o2, fpath("b"))
    assert is_s_maximal(o2, fpath("b"))
    assert is_s_minimal(o2, fpath("a", "a"))
    assert not is_s_minimal(o2, fpath("a", "b"))
    with pytest.raises(BadInputError):
        is_s_minimal(o2, empty_path("v"))
    # In e2 the peers of h (paths of length 1 into source u) are c and h.
    assert not is_s_minimal(e2, fpath("h"))
    assert is_s_minimal(e2, fpath("c"))


def test_s_extremal_rule_matches_listing_the_peers():
    # The rule needs no adapted order, so the orders here are plain shuffles.
    # Each answer of each test is met in both branches of the rule: the
    # first edge decides against the extreme in-edge of s(p), or p starts
    # with that in-edge and is closed.
    rng = make_rng(17)
    adapted, branches = [], Counter()
    for _ in range(60):
        vertices = ["v%d" % i for i in range(rng.randint(1, 4))]
        edges = [Edge("e%s%d" % (v[1:], i), v, rng.choice(vertices))
                 for v in vertices for i in range(rng.randint(1, 3))]
        order = [e.id for e in edges]
        rng.shuffle(order)
        og = OrderedGraph(Graph(vertices, edges), order)
        adapted.append(og.adapted)
        for length in (1, 2, 3, 4):
            for p in all_finpaths(og, length):
                got = is_s_minimal(og, p), is_s_maximal(og, p)
                assert got == reference_s_extremal(og, p), (og.order, p)
                ins = og.in_edges(path_source(og, p))
                for pick, answer in zip((min, max), got):
                    first = pick(ins, key=lambda e: og.pos(e.id)).id
                    branches[pick.__name__, p.edges[0] == first, answer] += 1
    assert any(adapted) and not all(adapted)
    assert len(branches) == 8 and min(branches.values()) > 100, branches


def test_s_extremal_refuses_sources():
    # u is the range of no edge, so S_f would have no peers to compare with.
    og = build_graph(["u", "v"], [("a", "v", "v"), ("f", "v", "u")], order=["a", "f"])
    for test in (is_s_minimal, is_s_maximal):
        with pytest.raises(PreconditionError, match="u is the range of no edge"):
            test(og, fpath("f"))


def test_order_tests_refuse_a_graph_without_edge_order():
    g = Graph(["v"], [Edge("a", "v", "v"), Edge("b", "v", "v")])
    calls = (
        lambda: is_s_minimal(g, fpath("a")),
        lambda: is_s_maximal(g, fpath("a")),
        lambda: lex_compare(fpath("a"), fpath("b"), g),
        lambda: lex_compare(ev((), ("a",)), ev((), ("b",)), g),
    )
    for call in calls:
        with pytest.raises(PreconditionError, match="needs a graph with an edge order"):
            call()


def test_cylinders_and_tails(o2, e2):
    x = ev(("a",), ("b",))
    assert in_cylinder(o2, x, fpath("a"))
    assert in_cylinder(o2, x, fpath("a", "b"))
    assert not in_cylinder(o2, x, fpath("b"))
    assert in_cylinder(o2, x, empty_path("v"))
    t = random_tail(e2, "v", make_rng(5))
    assert ev_range(e2, t) == "v"
    point = GroupoidPoint(prepend(fpath("a"), x := ev((), ("b",))), 1, x)
    assert point_in_Z(o2, point, fpath("a"), empty_path("v"))
    assert not point_in_Z(o2, point, fpath("b"), empty_path("v"))


def test_point_in_Z_reads_the_vertex_of_empty_paths(bridge):
    # x = h h h ... has range u; a unit point lies only in the set of p_u.
    x = ev((), ("h",))
    unit = GroupoidPoint(x, 0, x)
    assert point_in_Z(bridge, unit, empty_path("u"), empty_path("u"))
    assert not point_in_Z(bridge, unit, empty_path("v"), empty_path("v"))
    assert not point_in_Z(bridge, unit, empty_path("u"), empty_path("v"))
    assert not point_in_Z(bridge, unit, empty_path("v"), empty_path("u"))
    # c h h ... lies in Z(c, p_u) but not in Z(c, p_v), the set of no monomial.
    point = GroupoidPoint(prepend(fpath("c"), x), 1, x)
    assert point_in_Z(bridge, point, fpath("c"), empty_path("u"))
    assert not point_in_Z(bridge, point, fpath("c"), empty_path("v"))
    assert not point_in_Z(bridge, GroupoidPoint(x, -1, point.x), empty_path("v"), fpath("c"))


Z_INF, A_INF = ev((), ("z",)), ev((), ("a",))
CH_INF = ev((), ("c", "h"))  # not a path: the range of h is u, not v, the source of c


def refusal(name, graph, call, error):
    return pytest.param(graph, call, error, id=name)


@pytest.mark.parametrize("graph, call, error", [
    refusal("cylinder-unknown-edge", "o2", lambda g: in_cylinder(g, Z_INF, fpath("z")),
            InvalidGraphError),
    refusal("cylinder-unknown-alpha", "o2", lambda g: in_cylinder(g, A_INF, fpath("z")),
            InvalidGraphError),
    refusal("cylinder-unhashable-alpha", "o2",
            lambda g: in_cylinder(g, A_INF, FinPath((["a"],))), InvalidGraphError),
    refusal("cylinder-unknown-anchor", "o2", lambda g: in_cylinder(g, A_INF, empty_path("w")),
            InvalidPathError),
    refusal("cylinder-broken-alpha", "e2",
            lambda g: in_cylinder(g, ev((), ("h",)), fpath("h", "d")), InvalidPathError),
    refusal("cylinder-broken-path", "e2", lambda g: in_cylinder(g, CH_INF, fpath("c")),
            InvalidPathError),
    refusal("basic-set-unknown-edge", "o2",
            lambda g: point_in_Z(g, GroupoidPoint(Z_INF, 0, Z_INF), fpath("z"), fpath("z")),
            InvalidGraphError),
    refusal("basic-set-unknown-point", "o2",
            lambda g: point_in_Z(g, GroupoidPoint(Z_INF, 0, Z_INF), fpath("a"), fpath("a")),
            InvalidGraphError),
    refusal("basic-set-unknown-beta", "o2",
            lambda g: point_in_Z(g, GroupoidPoint(A_INF, 0, A_INF), fpath("a"), fpath("z")),
            InvalidGraphError),
    refusal("basic-set-unknown-alpha-wrong-degree", "o2",
            lambda g: point_in_Z(g, GroupoidPoint(A_INF, 1, A_INF), fpath("z"), fpath("a")),
            InvalidGraphError),
    refusal("basic-set-broken-point", "e2",
            lambda g: point_in_Z(g, GroupoidPoint(CH_INF, 0, CH_INF), fpath("c"), fpath("c")),
            InvalidPathError),
])
def test_cylinder_tests_refuse_paths_outside_the_graph(request, graph, call, error):
    """in_cylinder and point_in_Z check the point and the paths against the
    graph before answering, as evaluate does."""
    with pytest.raises(error):
        call(request.getfixturevalue(graph))


def test_point_in_Z_matches_the_basic_set_reference():
    """point_in_Z agrees with helpers.in_basic_set, which reads the infinite
    words, for every monomial with paths of length <= 2, at random points
    and at points drawn inside each of a sample of basic sets."""
    rng = make_rng(28)
    answers = Counter()
    for _ in range(20):
        g = random_graph(rng, max_vertices=3, max_in=2, sources=False)
        monos = all_monos(g, 2)
        points = [rand_point(g, rng) for _ in range(10)]
        points += [point_in(g, m, rng) for m in rng.sample(monos, min(10, len(monos)))]
        for point in points:
            for m in monos:
                got = point_in_Z(g, point, m.alpha, m.beta)
                assert got == in_basic_set(g, point, m), (g.edges, point, m)
                answers[got] += 1
    assert answers[True] > 500 and answers[False] > 5000


def test_shift_drops_the_first_edge(o2, e2, loop3e):
    rng = make_rng(29)
    graphs = [o2, e2, loop3e] + [random_graph(rng, sources=False) for _ in range(10)]
    for g in graphs:
        for x in enumerate_evpaths(g, 2, 3):
            assert shift(x) == shift_n(x, 1)
            assert shift(x).truncation(8) == x.truncation(9)[1:]


def test_parse_edge_word():
    assert parse_edge_word("a,b") == ("a", "b")
    assert parse_edge_word("") == ()
    assert parse_edge_word(" a , b ") == ("a", "b")


def test_evpath_json_round_trip():
    x = ev(("a",), ("b", "a"))
    assert evpath_from_json_obj(evpath_to_json_obj(x)) == x
    with pytest.raises(BadInputError):
        evpath_from_json_obj({"prefix": []})
