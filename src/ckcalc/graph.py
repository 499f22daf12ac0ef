"""Finite directed graphs with a range/source edge convention.

A finite path w1 w2 ... wn satisfies range(w[i+1]) == source(w[i]); paths
extend on the right, so the continuations of a path are the edges whose
range equals the source of its last edge.  "No sources" means every vertex
is the range of at least one edge, which is what keeps the infinite path
space over every vertex nonempty.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import BadInputError, InvalidGraphError, PreconditionError, _Immutable, _Record


class Edge(_Record):
    __slots__ = ("id", "range", "source")

    def __init__(self, id, range, source):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "range", range)
        object.__setattr__(self, "source", source)


class ValidationReport(_Record):
    __slots__ = ("ok", "no_source_violations", "isolated_vertices", "order_violations")

    def __init__(self, ok, no_source_violations=(), isolated_vertices=(), order_violations=()):
        self._init(ok, no_source_violations, isolated_vertices, order_violations)


class Graph(_Immutable):
    """Immutable vertex/edge structure with the derived lookup maps.

    edge_by_id is a read-only view of the private map _edge_by_id, which
    the inner loops read, as they read the one in-edge table _in_ids;
    in_edges and out_edges build Edge tuples from them per call and refuse
    unknown vertices.  Copies and pickles rebuild the graph from its
    vertices and edges."""

    __slots__ = ("vertices", "edges", "vertex_set", "sources", "_edge_by_id",
                 "_in_ids", "_range", "_max_loop_length")

    def __init__(self, vertices, edges):
        try:
            vertices, edges = tuple(vertices), tuple(edges)
        except TypeError:
            raise InvalidGraphError("vertices and edges must be iterables") from None
        vset = set()
        for v in vertices:
            if not isinstance(v, str) or not v:
                raise InvalidGraphError("vertex ids must be nonempty strings")
            if v in vset:
                raise InvalidGraphError("duplicate vertex id %r" % v)
            vset.add(v)
        by_id = {}
        ins = {v: [] for v in vertices}
        for e in edges:
            if not isinstance(e, Edge):
                raise InvalidGraphError("edges must be Edge records, not %r" % (e,))
            # Paths sort as tuples of ids, so ids of one type: strings.
            if not isinstance(e.id, str) or not e.id:
                raise InvalidGraphError("edge ids must be nonempty strings, not %r" % (e.id,))
            if e.id in by_id:
                raise InvalidGraphError("duplicate edge id %r" % e.id)
            if e.range not in vset or e.source not in vset:
                raise InvalidGraphError("edge %r touches unknown vertex" % e.id)
            by_id[e.id] = e
            ins[e.range].append((e.id, e.source))
        put = object.__setattr__
        put(self, "vertices", vertices)
        put(self, "edges", edges)
        put(self, "vertex_set", frozenset(vset))
        put(self, "_edge_by_id", by_id)
        # Plain-id tables for the inner loops, which read only checked ids:
        # (in-edge id, its source) per vertex, and edge id -> range.
        put(self, "_in_ids", {v: tuple(es) for v, es in ins.items()})
        put(self, "_range", {e.id: e.range for e in edges})
        # Vertices that are the range of no edge, which the algebra excludes.
        put(self, "sources", tuple(sorted(v for v in vertices if not ins[v])))
        put(self, "_max_loop_length", None)

    def __reduce__(self):
        return type(self), (self.vertices, self.edges)

    @property
    def edge_by_id(self):
        return MappingProxyType(self._edge_by_id)

    @property
    def max_loop_length(self):
        """max_simple_loop_length, searched once and kept on the plain graph,
        which every ordering of it shares: the search is exponential in the
        worst case, and the graph does not change."""
        graph = underlying(self)
        if graph._max_loop_length is None:
            object.__setattr__(graph, "_max_loop_length", max_simple_loop_length(self))
        return graph._max_loop_length

    def _vertex(self, v):
        """v itself if it is a vertex of the graph; InvalidGraphError if not."""
        if isinstance(v, str) and v in self.vertex_set:  # vertex ids are strings
            return v
        raise InvalidGraphError("unknown vertex id %r" % (v,))

    def in_edges(self, v):
        """Edges whose range is v: the edges a path at v can start with."""
        return tuple(self._edge_by_id[eid] for eid, _ in self._in_ids[self._vertex(v)])

    def out_edges(self, v):
        """Edges whose source is v, in edge-list order."""
        v = self._vertex(v)
        return tuple(e for e in self.edges if e.source == v)

    def edge(self, edge_id) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise InvalidGraphError("unknown edge id %r" % (edge_id,)) from None

    def range_of(self, edge_id):
        return self.edge(edge_id).range

    def source_of(self, edge_id):
        return self.edge(edge_id).source

    def __repr__(self):
        return "%s(%d vertices, %d edges)" % (
            type(self).__name__, len(self.vertices), len(self.edges))


class OrderedGraph(Graph):
    """Graph plus a total edge order whose in-edge sets are order intervals.

    It is a Graph itself: it adopts the tables of the plain Graph beneath
    the one it is given, by reference, and builds only its order tables.
    `graph` is that plain Graph, which elements and spectra pin, even when
    the ordered graph was built from another ordered graph.  position is a
    read-only view of the private map _position.
    """

    __slots__ = ("graph", "order", "order_violations", "adapted", "_position", "_vertex_pos",
                 "_extreme_in")

    def __init__(self, graph: Graph, order):
        if not isinstance(graph, Graph):
            raise InvalidGraphError("an edge order needs a Graph, not %s" % type(graph).__name__)
        graph = underlying(graph)
        put = object.__setattr__
        for name in Graph.__slots__:
            put(self, name, getattr(graph, name))
        try:
            order = tuple(order)
            position = {}
            for i, eid in enumerate(order):
                if eid not in self._edge_by_id:
                    raise InvalidGraphError("order mentions unknown edge %r" % (eid,))
                if eid in position:
                    raise InvalidGraphError("order repeats edge %r" % (eid,))
                position[eid] = i
        except TypeError:  # an order that is no iterable, or an unhashable entry
            raise InvalidGraphError("an edge order must list edge ids") from None
        if len(order) != len(self.edges):
            raise InvalidGraphError("order must list every edge exactly once")
        # Vertices whose in-edges are not an interval of the order.  They are
        # recorded, not rejected, so validate_order can report them; the nest
        # layer refuses to work unless `adapted`.  Sources have no block and
        # sort after all others, by id.
        bad, vertex_pos, extreme_in = [], {u: (1, j) for j, u in enumerate(self.sources)}, {}
        for v in sorted(self.vertices):
            positions = sorted(position[eid] for eid, _ in self._in_ids[v])
            if positions:
                vertex_pos[v] = (0, positions[0])
                extreme_in[v] = (order[positions[0]], order[positions[-1]])  # least, greatest
                if positions != list(range(positions[0], positions[-1] + 1)):
                    bad.append(v)
        put(self, "graph", graph)
        put(self, "order", order)
        put(self, "_position", position)
        put(self, "order_violations", tuple(bad))
        put(self, "adapted", not bad)
        put(self, "_vertex_pos", vertex_pos)
        put(self, "_extreme_in", extreme_in)

    def __reduce__(self):
        return type(self), (self.graph, self.order)

    @property
    def position(self):
        return MappingProxyType(self._position)

    def pos(self, edge_id):
        try:
            return self._position[edge_id]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise InvalidGraphError("unknown edge id %r" % (edge_id,)) from None

    def vertex_pos(self, v):
        """Block position of a vertex: min order position among its in-edges.

        Vertices that are the range of no edge (excluded by the no-sources
        assumption) sort after all others, by id.
        """
        try:
            return self._vertex_pos[v]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise InvalidGraphError("unknown vertex id %r" % (v,)) from None


def _require_order(graph: Graph, layer):
    """Raise PreconditionError unless the graph carries an edge order."""
    if not isinstance(graph, OrderedGraph):
        raise PreconditionError("%s needs a graph with an edge order" % layer)


def _require_no_sources(graph: Graph, layer):
    """Raise PreconditionError naming the sources, if there are any."""
    if graph.sources:
        raise PreconditionError("%s needs a graph without sources; %s is the range "
                                "of no edge" % (layer, ", ".join(graph.sources)))


def validate(graph: Graph) -> ValidationReport:
    """Report vertices violating no-sources and isolated vertices."""
    has_out = {e.source for e in graph.edges}
    isolated = tuple(v for v in graph.sources if v not in has_out)
    return ValidationReport(
        ok=not graph.sources,
        no_source_violations=graph.sources,
        isolated_vertices=isolated,
    )


def validate_order(og: OrderedGraph) -> ValidationReport:
    """Check that each vertex's in-edge set is an interval of the order."""
    return ValidationReport(ok=og.adapted, order_violations=og.order_violations)


def _components(nodes, succ):
    """Strongly connected components of a finite digraph, as lists of nodes
    in reverse topological order: no arc leaves a component for a later one.
    succ maps each hashable node to its out-arcs as (label, successor) pairs,
    as Graph._in_ids does.  Tarjan's 1972 depth-first pass, kept iterative
    so that a long path meets no recursion limit."""
    index, low, stack, on_stack, out, frames = {}, {}, [], set(), [], []

    def visit(v):
        # A frame: the node, its unread arcs, and its place on the stack.
        frames.append((v, iter(succ[v]), len(stack)))
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)

    for root in nodes:
        if root not in index:
            visit(root)
        while frames:
            v, arcs, at = frames[-1]
            for _, w in arcs:
                if w not in index:
                    visit(w)
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    out.append(stack[at:])
                    on_stack.difference_update(out[-1])
                    del stack[at:]
    return out


def _cyclic(component, succ):
    """Whether a component holds a cycle: two or more nodes, or a self-arc."""
    return len(component) > 1 or any(w == component[0] for _, w in succ[component[0]])


def has_loop(graph: Graph) -> bool:
    """True iff the graph contains a directed cycle."""
    return any(_cyclic(c, graph._in_ids) for c in _components(graph.vertices, graph._in_ids))


def every_loop_has_entrance(graph: Graph) -> bool:
    """True iff no directed cycle consists solely of in-degree-1 vertices.
    Such a cycle is a whole component: an arc into it from outside would be
    a second in-edge of one of its vertices."""
    ins = graph._in_ids
    return not any(_cyclic(c, ins) and all(len(ins[v]) == 1 for v in c)
                   for c in _components(graph.vertices, ins))


def is_transitive(graph: Graph) -> bool:
    """True iff every ordered pair of distinct vertices is path-connected."""
    return len(_components(graph.vertices, graph._in_ids)) <= 1


def max_simple_loop_length(graph: Graph) -> int:
    """Length of the longest vertex-simple cycle; 1 for loop-free graphs.

    Depth-first from each root, stepping only to larger vertices off the
    path, so each cycle is met once, from its smallest vertex; only lengths
    are kept.  Exponential in the worst case: a longest cycle is NP-hard.
    """
    arcs = {v: {w for _, w in ids} for v, ids in graph._in_ids.items()}
    best = 1
    for root in sorted(graph.vertices):
        path, frames = [root], [iter(arcs[root])]
        while frames:
            for w in frames[-1]:
                if w == root:
                    best = max(best, len(frames))
                    if best == len(graph.vertices):
                        return best
                elif w > root and w not in path:
                    path.append(w)
                    frames.append(iter(arcs[w]))
                    break
            else:
                frames.pop()
                path.pop()
    return best


def strings_from_json_obj(obj, what) -> tuple:
    """The JSON list obj as a tuple of strings; BadInputError for anything else."""
    if not isinstance(obj, (list, tuple)) or not all(isinstance(s, str) for s in obj):
        raise BadInputError("%s must be a list of strings" % what)
    return tuple(obj)


def graph_from_json_obj(obj):
    """Build Graph or OrderedGraph from the {"vertices","edges"[,"order"]} shape.

    Edge ids must be usable as command-line words: nonempty, without ','
    and without surrounding spaces.
    """
    if not isinstance(obj, dict):
        raise BadInputError("graph JSON must be an object")
    if "vertices" not in obj or not isinstance(obj.get("edges"), list):
        raise BadInputError("graph JSON needs 'vertices' and 'edges'")
    vertices = strings_from_json_obj(obj["vertices"], "graph vertices")
    edges = []
    for item in obj["edges"]:
        if not isinstance(item, dict) or not {"id", "range", "source"} <= item.keys():
            raise BadInputError("edge entries need id/range/source")
        eid, rng, src = item["id"], item["range"], item["source"]
        if not all(isinstance(x, str) for x in (eid, rng, src)):
            raise BadInputError("edge id, range and source must be strings")
        if not eid or "," in eid or eid != eid.strip():
            raise BadInputError("edge id %r is empty, has a ',' or surrounding spaces" % eid)
        edges.append(Edge(id=eid, range=rng, source=src))
    g = Graph(vertices, edges)
    if "order" in obj:
        return OrderedGraph(g, strings_from_json_obj(obj["order"], "graph order"))
    return g


def graph_to_json_obj(g):
    obj = {
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "range": e.range, "source": e.source} for e in g.edges
        ],
    }
    if isinstance(g, OrderedGraph):
        obj["order"] = list(g.order)
    return obj


def underlying(g) -> Graph:
    """The plain Graph beneath either Graph or OrderedGraph."""
    return g.graph if isinstance(g, OrderedGraph) else g
