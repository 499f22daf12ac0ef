"""Command-line front end.

Every subcommand reads JSON inputs (graph, element, function files), calls
one library operation, and prints a single JSON object with sorted keys.
Rationals are rendered "p/q", never as floats.  Exit codes: 0 success,
1 domain error (the printed object carries a machine-readable code, and a
request that runs out of memory is the too_large error), 2 usage error.

The subcommands are the rows of COMMANDS.  A row lists its inputs; an input
declares its flags and how their parsed text becomes a ready object.  The
parser, the loading and the output of every subcommand follow from the table.
The parser is built on the first main() call and shared by every later call
in the process, so main(argv) may be called repeatedly; that shared parser
must not be mutated.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import namedtuple

from . import bimodule, ckalg, cocycle, graph as graphmod, nest, paths
from .errors import BadInputError, CkError, TooLargeError
from .scalars import format_rational, parse_rational

# flags: ((flag, argparse keyword arguments), ...).  load(args), if set, runs
# after parsing in row order and its result replaces args.<name>, so a later
# input sees the ready objects of the earlier ones (args.graph is the graph).
Input = namedtuple("Input", "name flags load")

# call(args) runs the library operation on the loaded inputs and emit(result)
# gives the command's own output keys; main adds "ok".
Command = namedtuple("Command", "name help inputs call emit")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BadInputError("cannot read %s: %s" % (path, exc)) from exc
    except ValueError as exc:  # also bytes that are not UTF-8, an int past the digit limit
        raise BadInputError("%s is not valid JSON: %s" % (path, exc)) from exc
    except RecursionError:
        raise BadInputError("%s nests its JSON too deeply" % path) from None


def _evpath_from_args(g, prefix_text, cycle_text, side):
    cycle = paths.parse_edge_word(cycle_text)
    if not cycle:
        raise BadInputError("%s needs a nonempty cycle" % side)
    x = paths.EvPath(paths.parse_edge_word(prefix_text), cycle)
    paths.check_evpath(g, x)
    return x


def _point_from_args(args):
    x = _evpath_from_args(args.graph, args.x_prefix, args.x_cycle, "x")
    y = _evpath_from_args(args.graph, args.y_prefix, args.y_cycle, "y")
    return paths.GroupoidPoint(x, args.k, y)


def _ordered_graph(args):
    g = graphmod.graph_from_json_obj(_load_json(args.graph))
    if not isinstance(g, graphmod.OrderedGraph):
        raise BadInputError("this command needs a graph file with an edge order")
    return g


def _fn(g, obj):
    f = cocycle.fn_from_json_obj(obj)
    cocycle.validate_total(g, f)
    return f


def _gens(g, obj):
    if not isinstance(obj, list):
        raise BadInputError("--gens file must hold a JSON list of elements")
    return [ckalg.element_from_json_obj(g, item) for item in obj]


def _arg(flag, load=None, **kw):
    """One flag; without a loader the handler gets its parsed value."""
    return Input(flag.lstrip("-").replace("-", "_"), ((flag, kw),), load)


def _file(name, read, required=True, help=None):
    """--<name> names a JSON file; read(graph, obj) builds the object."""
    def load(args):
        path = getattr(args, name)
        return None if path is None else read(args.graph, _load_json(path))

    return _arg("--" + name, load, required=required, help=help)


def _element_file(name):
    return _file(name, lambda g, obj: ckalg.element_from_json_obj(g, obj))


def _loop_word(name, help):
    return _arg("--" + name, lambda a: paths.FinPath(paths.parse_edge_word(getattr(a, name))),
                required=True, help=help)


_GRAPH_HELP = "graph JSON file"
GRAPH = _arg("--graph", lambda a: graphmod.graph_from_json_obj(_load_json(a.graph)),
             required=True, help=_GRAPH_HELP)
ORDERED_GRAPH = _arg("--graph", _ordered_graph, required=True, help=_GRAPH_HELP)
ELEMENT, LEFT, RIGHT = (_element_file(n) for n in ("element", "left", "right"))
FN = _file("fn", _fn)
_WORD_HELP = "comma-separated edge ids ('' for empty)"
MONO = Input("mono", (
    ("--alpha", dict(required=True, help=_WORD_HELP)),
    ("--beta", dict(required=True, help=_WORD_HELP)),
    ("--anchor", dict(help="vertex for empty paths")),
), lambda a: ckalg.mono_from_words(a.graph, paths.parse_edge_word(a.alpha),
                                   paths.parse_edge_word(a.beta), a.anchor))
POINT = Input("point", (
    ("--x-prefix", dict(default="", help="prefix edge word of x")),
    ("--x-cycle", dict(required=True, help="cycle edge word of x")),
    ("--k", dict(type=int, required=True, help="degree of the point")),
    ("--y-prefix", dict(default="", help="prefix edge word of y")),
    ("--y-cycle", dict(required=True, help="cycle edge word of y")),
), _point_from_args)


def _keys(*names):
    """Serializer of a result that is one value, or a tuple, under these keys."""
    if len(names) == 1:
        return lambda r: {names[0]: r}
    return lambda r: dict(zip(names, r))


def _element_out(a):
    return {"element": ckalg.element_to_json_obj(a)}


def _reports(g):
    """Graph report, then the order report when the graph has an order."""
    if isinstance(g, graphmod.OrderedGraph):
        return graphmod.validate(g), graphmod.validate_order(g)
    return (graphmod.validate(g),)


def _validation_out(reports):
    return {
        "no_source_violations": list(reports[0].no_source_violations),
        "isolated_vertices": list(reports[0].isolated_vertices),
        "order_violations": list(reports[-1].order_violations),
        "valid": all(r.ok for r in reports),
    }


def _phi(args):
    if args.degree is not None:
        if args.fn is not None or args.value is not None:
            raise BadInputError("--degree excludes --fn and --value")
        return ckalg.phi_m(args.element, args.degree)
    if args.fn is None:
        raise BadInputError("phi needs --degree, or --fn with --value")
    if args.value is None:
        raise BadInputError("grading by a function needs --value")
    return cocycle.cocycle_graded_projection(args.fn, args.element, parse_rational(args.value))


def _oracle_out(result):
    member, v = result
    witness = None if v is None else {
        "level": v.level,
        "cut": v.cutpos,
        "row": paths.finpath_to_json_obj(v.row),
        "col": paths.finpath_to_json_obj(v.col),
    }
    return {"member": member, "witness": witness}


COMMANDS = (
    Command("validate", "check graph axioms", (GRAPH,),
            lambda a: _reports(a.graph), _validation_out),
    Command("masa-check", "does every loop have an entrance", (GRAPH,),
            lambda a: graphmod.every_loop_has_entrance(a.graph), _keys("masa")),
    Command("normalize", "normal form of an element",
            (GRAPH, ELEMENT, _arg("--depth", type=int, default=None, help="force beta depth")),
            lambda a: ckalg.normalize(a.element, beta_depth=a.depth), _element_out),
    Command("mul", "product of two elements", (GRAPH, LEFT, RIGHT),
            lambda a: a.left * a.right, _element_out),
    Command("phi", "graded part of an element", (
        GRAPH, ELEMENT,
        _arg("--degree", type=int, default=None, help="integer grading degree"),
        _file("fn", _fn, required=False, help="grade by this function's cocycle instead"),
        _arg("--value", default=None, help="rational level for --fn grading"),
    ), _phi, _element_out),
    Command("gauge", "rotate by a root of unity", (
        GRAPH, ELEMENT,
        _arg("--root", type=int, required=True, help="root order: 1, 2 or 4"),
        _arg("--power", type=int, required=True),
    ), lambda a: ckalg.gauge(a.element, a.root, a.power), _element_out),
    Command("eval", "value of an element at a point", (GRAPH, ELEMENT, POINT),
            lambda a: ckalg.evaluate(a.element, a.point),
            lambda c: {"value": {"re": format_rational(c.re), "im": format_rational(c.im)}}),
    Command("spectrum", "support basic sets of an element", (GRAPH, ELEMENT),
            lambda a: ckalg.support_spectrum(a.element),
            lambda s: {"spectrum": bimodule.spectrum_to_json_obj(s)}),
    Command("bimodule-member", "membership in the generators' spectral closure",
            (GRAPH, ELEMENT, _file("gens", _gens, help="JSON list of generator elements")),
            lambda a: bimodule.bimodule_member(a.element, a.gens), _keys("member")),
    Command("analytic-member", "monomial in the cocycle-analytic part", (GRAPH, FN, MONO),
            lambda a: bimodule.ck_in_analytic(a.graph, a.fn, a.mono), _keys("member")),
    Command("nest-member", "five-clause nest membership", (ORDERED_GRAPH, MONO),
            lambda a: nest.in_alg_n(a.graph, a.mono), _keys("member", "clause")),
    Command("nest-oracle", "cut-by-cut nest membership check",
            (ORDERED_GRAPH, MONO, _arg("--K", type=int, default=None, help="level bound")),
            lambda a: nest.in_alg_n_oracle(a.graph, a.mono, a.K), _oracle_out),
    Command("nest-spectrum", "point in the nest-algebra spectrum", (ORDERED_GRAPH, POINT),
            lambda a: nest.point_in_spectrum_alg_n(a.graph, a.point), _keys("member", "clause")),
    Command("radical-member", "point in the radical spectrum", (ORDERED_GRAPH, POINT),
            lambda a: nest.in_radical_spectrum(a.graph, a.point), _keys("member")),
    Command("commutator", "ab - ba", (GRAPH, LEFT, RIGHT),
            lambda a: nest.commutator(a.left, a.right), _element_out),
    Command("cocycle-eval", "cocycle value at a point", (GRAPH, FN, POINT),
            lambda a: cocycle.eval_cocycle(a.fn, a.point),
            lambda v: {"value": format_rational(v)}),
    Command("cocycle-check", "function/cocycle round trip", (GRAPH, FN),
            lambda a: cocycle.reconstruct_f(a.graph, a.fn),
            lambda r: {"consistent": r[0], "failures": len(r[1])}),
    Command("loop-growth", "linear growth along a periodic point", (
        GRAPH, FN,
        _arg("--cycle", lambda a: _evpath_from_args(a.graph, "", a.cycle, "x"),
             required=True, help="cycle edge word"),
        _arg("--period", type=int, required=True),
    ), lambda a: cocycle.loop_growth(a.fn, a.cycle, a.period), lambda r: {
        "base": format_rational(r.base), "verified": r.verified, "unbounded": r.unbounded}),
    Command("weights", "dominating geometric edge weights",
            (_arg("--edges", lambda a: paths.parse_edge_word(a.edges),
                  required=True, help="comma-separated edge ids"),),
            lambda a: cocycle.acyclic_weights(a.edges),
            lambda w: {"weights": {e: format_rational(v) for e, v in w.items()}}),
    Command("obstruction", "integer-window obstruction witness", (
        GRAPH, _loop_word("alpha", "first loop edge word"),
        _loop_word("beta", "second loop edge word"),
        _arg("--ell", type=int, required=True, help="multiplicity, at least 2"),
    ), lambda a: cocycle.integer_obstruction_witness(a.graph, a.alpha, a.beta, a.ell),
        lambda w: {"x": paths.evpath_to_json_obj(w.x), "y": paths.evpath_to_json_obj(w.y),
                   "window": w.window}),
    Command("normalizer-check", "normalizing partial isometry test", (GRAPH, ELEMENT),
            lambda a: ckalg.is_normalizing_pi(a.element), _keys("normalizing")),
    Command("separating-proj", "separating projection pair",
            (GRAPH, MONO, _arg("--level", type=int, required=True, help="separation level k")),
            lambda a: ckalg.separating_projections(a.graph, a.mono, a.level), lambda s: {
                "p": paths.finpath_to_json_obj(s.p.alpha),
                "q": paths.finpath_to_json_obj(s.q.alpha),
                "pi": list(s.pi.edges),
                "w": list(s.w.edges),
                "level": s.level,
            }),
)


@functools.cache
def build_parser():
    """The ckcalc parser, built on the first call and shared by every later one.

    Callers must not mutate it: parse_args returns a fresh Namespace each
    time, and the loaders write only to that.
    """
    ap = argparse.ArgumentParser(
        prog="ckcalc",
        description="Exact symbolic calculator for graph-algebra path combinatorics.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    for cmd in COMMANDS:
        sp = sub.add_parser(cmd.name, help=cmd.help)
        for inp in cmd.inputs:
            for flag, kw in inp.flags:
                sp.add_argument(flag, **kw)
        sp.add_argument("--json-out", default=None, help="also write the JSON here")
        sp.set_defaults(command=cmd)
    return ap


def _error_obj(exc: CkError):
    return {"ok": False, "error": {"code": exc.code, "message": exc.message}}


def _emit(obj, json_out):
    """Write obj to json_out, if given, then print it.

    When the write fails, only a bad_input error is printed, so stdout still
    holds exactly one JSON object.  Returns whether the write succeeded.
    """
    text = json.dumps(obj, sort_keys=True)
    if json_out:
        try:
            with open(json_out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            err = BadInputError("cannot write %s: %s" % (json_out, exc))
            print(json.dumps(_error_obj(err), sort_keys=True))
            return False
    print(text)
    return True


def main(argv=None):
    args = build_parser().parse_args(argv)
    cmd = args.command
    try:
        for inp in cmd.inputs:
            if inp.load is not None:
                setattr(args, inp.name, inp.load(args))
        out, status = dict(cmd.emit(cmd.call(args)), ok=True), 0
    except CkError as exc:
        out, status = _error_obj(exc), 1
    except MemoryError:
        out, status = _error_obj(TooLargeError("the request needs more memory than there is")), 1
    return status if _emit(out, args.json_out) else 1


if __name__ == "__main__":
    sys.exit(main())
