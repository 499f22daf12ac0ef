import pytest

from ckcalc.graph import Edge, Graph, OrderedGraph


def build_graph(vertices, triples, order=None):
    g = Graph(vertices, [Edge(eid, r, s) for eid, r, s in triples])
    if order is not None:
        return OrderedGraph(g, order)
    return g


@pytest.fixture
def o2():
    """One vertex, two loops a < b."""
    return build_graph(["v"], [("a", "v", "v"), ("b", "v", "v")], order=["a", "b"])


@pytest.fixture
def single_loop():
    """One vertex, one loop."""
    return build_graph(["v"], [("a", "v", "v")], order=["a"])


@pytest.fixture
def c2():
    """Two vertices on a single 2-cycle."""
    return build_graph(["1", "2"], [("f1", "1", "2"), ("f2", "2", "1")])


@pytest.fixture
def loop3():
    """Three vertices on a single 3-cycle, no entrance."""
    return build_graph(
        ["u", "v", "w"],
        [("e1", "u", "v"), ("e2", "v", "w"), ("e3", "w", "u")],
    )


@pytest.fixture
def loop3e():
    """A 3-cycle plus a loop entering it at u."""
    return build_graph(
        ["u", "v", "w"],
        [("e1", "u", "v"), ("e2", "v", "w"), ("e3", "w", "u"), ("h", "u", "u")],
    )


@pytest.fixture
def e2():
    """Two vertices, a 2-cycle and a loop at u, ordered c < h < d."""
    return build_graph(
        ["u", "v"],
        [("c", "u", "v"), ("h", "u", "u"), ("d", "v", "u")],
        order=["c", "h", "d"],
    )


@pytest.fixture
def bridge():
    """v with a loop a and an edge c from u, u with a loop h: no sources."""
    return build_graph(["v", "u"], [("a", "v", "v"), ("c", "v", "u"), ("h", "u", "u")])
