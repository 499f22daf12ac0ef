import copy
import itertools
import pickle

import pytest

from ckcalc.ckalg import identity
from ckcalc.errors import BadInputError, InvalidGraphError
from ckcalc.graph import (
    Edge,
    Graph,
    OrderedGraph,
    every_loop_has_entrance,
    graph_from_json_obj,
    graph_to_json_obj,
    has_loop,
    is_transitive,
    max_simple_loop_length,
    underlying,
    validate,
    validate_order,
)

from conftest import build_graph
from helpers import adapted_order, make_rng, random_graph


def test_validate_accepts_no_source_graphs(o2, c2, loop3, loop3e, e2):
    for g in (o2, c2, loop3, loop3e, e2):
        report = validate(g)
        assert report.ok
        assert report.no_source_violations == ()
        assert report.isolated_vertices == ()


def test_validate_flags_source_vertices():
    g = build_graph(["s", "t"], [("e", "t", "s"), ("l", "t", "t")])
    report = validate(g)
    assert not report.ok
    assert report.no_source_violations == ("s",)


def test_validate_flags_isolated_vertices():
    g = build_graph(["v", "iso"], [("a", "v", "v")])
    report = validate(g)
    assert not report.ok
    assert "iso" in report.isolated_vertices


def test_duplicate_ids_rejected():
    with pytest.raises(InvalidGraphError):
        Graph(["v", "v"], [])
    with pytest.raises(InvalidGraphError):
        Graph(["v"], [Edge("a", "v", "v"), Edge("a", "v", "v")])
    with pytest.raises(InvalidGraphError):
        Graph(["v"], [Edge("a", "v", "x")])
    # Paths sort as tuples of edge ids, so an id that is not a string is
    # refused before it can meet a string id in a sort.
    for eid in (1, "", ("a",), ["a"], None):
        with pytest.raises(InvalidGraphError, match="edge ids must be nonempty strings"):
            Graph(["v"], [Edge("b", "v", "v"), Edge(eid, "v", "v")])
    for vid in (1, ""):
        with pytest.raises(InvalidGraphError, match="vertex ids must be nonempty strings"):
            Graph([vid], [])


@pytest.mark.parametrize("build", [
    lambda g: Graph(["v"], [("a", "v", "v")]),
    lambda g: Graph(None, []),
    lambda g: Graph(["v"], None),
    lambda g: OrderedGraph(graph_to_json_obj(g), ["a", "b"]),
    lambda g: OrderedGraph(None, ["a", "b"]),
    lambda g: OrderedGraph(g, None),
    lambda g: OrderedGraph(g, [["a"], "b"]),
], ids=["edge_not_an_Edge", "vertices_None", "edges_None", "graph_a_dict",
        "graph_None", "order_None", "order_entry_unhashable"])
def test_malformed_constructor_input_is_an_invalid_graph(build, o2):
    with pytest.raises(InvalidGraphError):
        build(o2.graph)


def test_an_ordered_graph_adopts_its_plain_graph(monkeypatch, e2):
    calls = []
    init = Graph.__init__

    def counting(self, *args):
        calls.append(type(self))
        init(self, *args)

    obj = graph_to_json_obj(e2)
    monkeypatch.setattr(Graph, "__init__", counting)
    og = graph_from_json_obj(obj)
    assert calls == [Graph]
    assert all(getattr(og, name) is getattr(og.graph, name) for name in Graph.__slots__)
    # Re-ordering an ordered graph orders its plain graph, so elements
    # built over either live over one graph and combine.
    again = OrderedGraph(og, ["h", "c", "d"])
    assert calls == [Graph] and again.graph is og.graph
    assert again.order == ("h", "c", "d") and again.vertex_pos("u") < again.vertex_pos("v")
    total = identity(again) + identity(og.graph)
    assert total == identity(og) * 2


def test_order_must_cover_edges_once(o2):
    g = underlying(o2)
    with pytest.raises(InvalidGraphError):
        OrderedGraph(g, ["a"])
    with pytest.raises(InvalidGraphError):
        OrderedGraph(g, ["a", "a"])
    with pytest.raises(InvalidGraphError):
        OrderedGraph(g, ["a", "b", "zz"])


def test_ordered_graph_is_its_graph_with_an_order(e2):
    assert issubclass(OrderedGraph, Graph)
    g = underlying(e2)
    assert e2.graph is g
    assert (e2.vertices, e2.edges, e2.sources) == (g.vertices, g.edges, g.sources)
    assert all(e2.in_edges(v) == g.in_edges(v) for v in g.vertices)


def test_validate_order_interval_property(e2):
    assert validate_order(e2).ok
    scrambled = OrderedGraph(underlying(e2), ["c", "d", "h"])
    report = validate_order(scrambled)
    assert not report.ok
    assert "u" in report.order_violations


def test_has_loop(o2, loop3):
    assert has_loop(o2)
    assert has_loop(loop3)
    two_stage = build_graph(
        ["top", "bot"], [("down", "bot", "top"), ("up", "top", "bot")]
    )
    assert has_loop(two_stage)


def test_every_loop_has_entrance(o2, single_loop, c2, loop3, loop3e, e2):
    assert every_loop_has_entrance(o2)
    assert not every_loop_has_entrance(single_loop)
    assert not every_loop_has_entrance(c2)
    assert not every_loop_has_entrance(loop3)
    assert every_loop_has_entrance(loop3e)
    assert every_loop_has_entrance(e2)


def test_is_transitive(o2, loop3, e2):
    assert is_transitive(o2)
    assert is_transitive(loop3)
    assert is_transitive(e2)
    disjoint = build_graph(["p", "q"], [("lp", "p", "p"), ("lq", "q", "q")])
    assert not is_transitive(disjoint)


def test_simple_cycles_o2(o2):
    assert max_simple_loop_length(o2) == 1


def test_simple_cycles_loop3(loop3):
    assert max_simple_loop_length(loop3) == 3


def test_simple_cycles_e2(e2):
    assert max_simple_loop_length(e2) == 2


def test_max_simple_loop_length_defaults_to_one():
    # A no-sources finite graph always has a cycle, so exercise the default
    # through the helper contract on a graph whose only cycle has length 1.
    g = build_graph(["v"], [("a", "v", "v")])
    assert max_simple_loop_length(g) == 1


def _closed_orderings(g):
    """Reference: every ordering of distinct vertices whose arcs close a cycle."""
    arcs = {(e.range, e.source) for e in g.edges}
    return [cycle for k in range(1, len(g.vertices) + 1)
            for cycle in itertools.permutations(g.vertices, k)
            if all((cycle[i - 1], cycle[i]) in arcs for i in range(k))]


def _transitive_by_closure(g):
    """Reference: every ordered pair of distinct vertices is in the transitive
    closure of the arcs, grown one intermediate vertex at a time (Warshall)."""
    reach = {(e.range, e.source) for e in g.edges}
    for m in g.vertices:
        reach |= {(u, w) for u, x in reach if x == m for y, w in reach if y == m}
    return all((u, w) in reach for u in g.vertices for w in g.vertices if u != w)


def test_max_simple_loop_length_matches_permutation_search():
    rng = make_rng(17)
    kinds, answers = set(), set()
    for _ in range(400):
        names = rng.sample("abcde", rng.randint(1, 5))
        loop_free = rng.random() < 0.25
        triples = []
        for j in range(rng.randint(0, 12)):
            r, s = rng.randrange(len(names)), rng.randrange(len(names))
            if not loop_free or r < s:
                triples.append(("e%d" % j, names[r], names[s]))
        g = build_graph(names, triples)
        cycles = _closed_orderings(g)
        kinds.add((bool(g.sources), has_loop(g)))
        assert max_simple_loop_length(g) == max(map(len, cycles), default=1), triples
        # A loop without an entrance: a cycle whose vertices have in-degree 1.
        closed = any(all(len(g.in_edges(v)) == 1 for v in c) for c in cycles)
        got = (has_loop(g), every_loop_has_entrance(g), is_transitive(g))
        assert got == (bool(cycles), not closed, _transitive_by_closure(g)), triples
        answers.update(enumerate(got))
    assert kinds == {(False, True), (True, True), (True, False)}
    assert answers == {(i, b) for i in range(3) for b in (False, True)}
    for n in (8, 9):
        names = ["v%d" % i for i in range(n)]
        pairs = [(u, w) for u in names for w in names if u != w]
        complete = build_graph(names, [("%s%s" % p, *p) for p in pairs])
        assert max_simple_loop_length(complete) == n
    # Each vertex steps to the next, so one depth-first walk is 3,000 deep.
    names = ["v%d" % i for i in range(3000)]
    path = [("e%d" % i, names[i], names[i + 1]) for i in range(len(names) - 1)]
    ring = build_graph(names, path + [("back", names[-1], names[0])])
    assert (has_loop(ring), every_loop_has_entrance(ring), is_transitive(ring)) == (
        True, False, True)
    line = build_graph(names, path)
    assert (has_loop(line), every_loop_has_entrance(line), is_transitive(line)) == (
        False, True, False)


def test_json_round_trip(o2, c2):
    for g in (o2, c2):
        obj = graph_to_json_obj(g)
        back = graph_from_json_obj(obj)
        assert graph_to_json_obj(back) == obj
    assert isinstance(graph_from_json_obj(graph_to_json_obj(o2)), OrderedGraph)


def test_graph_from_json_rejects_bad_shapes():
    with pytest.raises(BadInputError):
        graph_from_json_obj([])
    with pytest.raises(BadInputError):
        graph_from_json_obj({"vertices": ["v"]})
    with pytest.raises(BadInputError):
        graph_from_json_obj({"vertices": ["v"], "edges": [{"id": "a"}]})


def test_vertex_pos_blocks(e2):
    # u's first in-edge sits at position 0, v's at position 2.
    assert e2.vertex_pos("u") < e2.vertex_pos("v")
    assert e2.pos("c") == 0
    assert e2.pos("h") == 1
    assert e2.pos("d") == 2


def test_pos_refuses_an_unknown_edge(e2):
    with pytest.raises(InvalidGraphError, match="unknown edge id 'z'"):
        e2.pos("z")


def test_edge_views_are_the_edge_list_filters(e2):
    # The views are built per call from the one in-edge table; seeded random
    # graphs with sources, plain and ordered, give vertices without in-edges.
    rng = make_rng(32)
    graphs = [e2] + [random_graph(rng) for _ in range(40)]
    graphs += [adapted_order(rng, g) for g in graphs[1:]]
    assert any(g.sources for g in graphs)
    for g in graphs:
        for v in g.vertices:
            assert g.in_edges(v) == tuple(e for e in g.edges if e.range == v)
            assert g.out_edges(v) == tuple(e for e in g.edges if e.source == v)


def field_names(g):
    """The graph's slots and its public read-only properties."""
    return [name for cls in type(g).__mro__ for name, value in vars(cls).items()
            if name in getattr(cls, "__slots__", ()) or isinstance(value, property)]


def test_the_longest_cycle_is_searched_once_per_plain_graph(monkeypatch, o2):
    import ckcalc.graph

    searched = []

    def counting(g):
        searched.append(g)
        return max_simple_loop_length(g)

    monkeypatch.setattr(ckcalc.graph, "max_simple_loop_length", counting)
    again = OrderedGraph(o2, ["b", "a"])
    assert (o2.max_loop_length, o2.graph.max_loop_length, again.max_loop_length) == (1, 1, 1)
    assert searched == [o2]


def test_graphs_refuse_assignment_and_deletion(o2, single_loop):
    for g in (o2.graph, o2):
        names = field_names(g)
        assert {"vertices", "edges", "edge_by_id", "max_loop_length", "_max_loop_length"} <= set(names)
        for name in names:
            with pytest.raises(AttributeError, match="immutable"):
                setattr(g, name, None)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(g, name)
            assert hasattr(g, name)
        with pytest.raises(AttributeError, match="immutable"):
            g.extra = 1
        assert not hasattr(g, "__dict__")
    assert {"graph", "order", "position", "_vertex_pos"} <= set(field_names(o2))
    # The lookup tables stay in step with the fields they were built from.
    with pytest.raises(AttributeError, match="immutable"):
        single_loop.vertices = ("v", "w")
    assert has_loop(single_loop) and single_loop.vertices == ("v",)


def test_graph_maps_are_read_only(o2):
    extra = Edge("z", "v", "v")
    for table, key, value in ((o2.edge_by_id, "z", extra), (o2.graph.edge_by_id, "z", extra),
                              (o2.position, "z", 2)):
        with pytest.raises(TypeError):
            table[key] = value
        with pytest.raises(TypeError):
            del table["a"]
        assert key not in table and "a" in table
    assert dict(o2.position) == {"a": 0, "b": 1}
    assert o2.edge("a") is o2.edge_by_id["a"]


def graph_answers(g):
    """Everything a graph answers, as plain values."""
    out = (g.vertices, g.edges, g.sources, g.vertex_set, dict(g.edge_by_id),
           has_loop(g), every_loop_has_entrance(g), is_transitive(g),
           max_simple_loop_length(g), g.max_loop_length, validate(g),
           [(g.in_edges(v), g.out_edges(v)) for v in g.vertices])
    if isinstance(g, OrderedGraph):
        out += (g.order, dict(g.position), g.adapted, g.order_violations, validate_order(g),
                [g.vertex_pos(v) for v in g.vertices], graph_answers(g.graph))
    return out


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_copied_graphs_answer_as_the_original(how, o2, c2, e2, loop3e):
    rng = make_rng(52)
    graphs = [o2, c2, e2, loop3e]
    for _ in range(60):
        g = random_graph(rng)
        order = [e.id for e in g.edges]
        rng.shuffle(order)
        graphs += [g, adapted_order(rng, g), OrderedGraph(g, order)]
    round_trip = {"copy": copy.copy, "deepcopy": copy.deepcopy,
                  "pickle": lambda g: pickle.loads(pickle.dumps(g))}[how]
    for g in graphs:
        y = round_trip(g)
        assert type(y) is type(g) and y is not g
        assert graph_answers(y) == graph_answers(g)
        if isinstance(g, OrderedGraph):
            assert type(y.graph) is Graph
    if how != "copy":
        # An ordered graph and the plain graph it pins come back as one pair.
        y, plain = round_trip((o2, o2.graph))
        assert y.graph is plain and y is not o2
