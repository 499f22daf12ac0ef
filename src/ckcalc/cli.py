"""Command-line front end.

Every subcommand reads JSON inputs (graph, element, function files), calls
one library operation, and prints a single JSON object with sorted keys.
Rationals are rendered "p/q", never as floats.  Exit codes: 0 success,
1 domain error (the printed object carries a machine-readable code),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bimodule, ckalg, cocycle, graph as graphmod, nest, paths
from .errors import BadInputError, CkError
from .scalars import format_rational, parse_rational


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BadInputError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise BadInputError("%s is not valid JSON: %s" % (path, exc)) from exc


def _load_graph(args):
    return graphmod.graph_from_json_obj(_load_json(args.graph))


def _load_ordered_graph(args):
    g = _load_graph(args)
    if not isinstance(g, graphmod.OrderedGraph):
        raise BadInputError("this command needs a graph file with an edge order")
    return g


def _load_element(g, path):
    return ckalg.element_from_json_obj(g, _load_json(path))


def _load_fn(args):
    return cocycle.fn_from_json_obj(_load_json(args.fn))


def _finpath_arg(g, word_text, anchor, side):
    word = paths.parse_edge_word(word_text)
    if word:
        p = paths.FinPath(word)
        paths.check_finpath(g, p)
        return p
    if anchor is None:
        raise BadInputError("empty %s path needs --anchor" % side)
    return paths.empty_path(anchor)


def _mono_from_args(g, args):
    """Build the (alpha, beta) pair from --alpha/--beta words.

    When exactly one side is empty its anchor defaults to the source of the
    other side, so --anchor is only needed for the doubly empty monomial.
    """
    alpha_word = paths.parse_edge_word(args.alpha)
    beta_word = paths.parse_edge_word(args.beta)
    anchor = args.anchor
    if anchor is None:
        if alpha_word and not beta_word:
            anchor = paths.path_source(g, paths.FinPath(alpha_word))
        elif beta_word and not alpha_word:
            anchor = paths.path_source(g, paths.FinPath(beta_word))
    m = ckalg.CKMono(
        _finpath_arg(g, args.alpha, anchor, "alpha"),
        _finpath_arg(g, args.beta, anchor, "beta"),
    )
    ckalg.check_mono(g, m)
    return m


def _evpath_from_args(g, prefix_text, cycle_text, side):
    cycle = paths.parse_edge_word(cycle_text)
    if not cycle:
        raise BadInputError("%s needs a nonempty cycle" % side)
    x = paths.EvPath(paths.parse_edge_word(prefix_text), cycle)
    paths.check_evpath(g, x)
    return x


def _point_from_args(g, args):
    x = _evpath_from_args(g, args.x_prefix, args.x_cycle, "x")
    y = _evpath_from_args(g, args.y_prefix, args.y_cycle, "y")
    return paths.GroupoidPoint(x, args.k, y)


def _coeff_obj(c):
    return {"re": format_rational(c.re), "im": format_rational(c.im)}


def _add_graph_arg(sp):
    sp.add_argument("--graph", required=True, help="graph JSON file")


def _add_mono_args(sp):
    sp.add_argument("--alpha", required=True, help="comma-separated edge ids ('' for empty)")
    sp.add_argument("--beta", required=True, help="comma-separated edge ids ('' for empty)")
    sp.add_argument("--anchor", help="vertex for empty paths")


def _add_point_args(sp):
    sp.add_argument("--x-prefix", default="", help="prefix edge word of x")
    sp.add_argument("--x-cycle", required=True, help="cycle edge word of x")
    sp.add_argument("--k", type=int, required=True, help="degree of the point")
    sp.add_argument("--y-prefix", default="", help="prefix edge word of y")
    sp.add_argument("--y-cycle", required=True, help="cycle edge word of y")


def cmd_validate(args):
    g = _load_graph(args)
    report = graphmod.validate(g)
    valid = report.ok
    out = {
        "ok": True,
        "no_source_violations": list(report.no_source_violations),
        "isolated_vertices": list(report.isolated_vertices),
        "order_violations": list(report.order_violations),
    }
    if isinstance(g, graphmod.OrderedGraph):
        order_report = graphmod.validate_order(g)
        out["order_violations"] = list(order_report.order_violations)
        valid = valid and order_report.ok
    out["valid"] = valid
    return out


def cmd_masa_check(args):
    g = _load_graph(args)
    return {"ok": True, "masa": graphmod.every_loop_has_entrance(g)}


def cmd_normalize(args):
    g = _load_graph(args)
    a = _load_element(g, args.element)
    b = ckalg.normalize(a, beta_depth=args.depth)
    return {"ok": True, "element": ckalg.element_to_json_obj(b)}


def cmd_mul(args):
    g = _load_graph(args)
    a = _load_element(g, args.left)
    b = _load_element(g, args.right)
    return {"ok": True, "element": ckalg.element_to_json_obj(a * b)}


def cmd_phi(args):
    g = _load_graph(args)
    a = _load_element(g, args.element)
    if args.fn is not None:
        if args.value is None:
            raise BadInputError("grading by a function needs --value")
        f = _load_fn(args)
        cocycle.validate_total(g, f)
        b = cocycle.cocycle_graded_projection(f, a, parse_rational(args.value))
    else:
        if args.degree is None:
            raise BadInputError("phi needs --degree, or --fn with --value")
        b = ckalg.phi_m(a, args.degree)
    return {"ok": True, "element": ckalg.element_to_json_obj(b)}


def cmd_gauge(args):
    g = _load_graph(args)
    a = _load_element(g, args.element)
    b = ckalg.gauge(a, args.root, args.power)
    return {"ok": True, "element": ckalg.element_to_json_obj(b)}


def cmd_eval(args):
    g = _load_graph(args)
    a = _load_element(g, args.element)
    value = ckalg.evaluate(a, _point_from_args(g, args))
    return {"ok": True, "value": _coeff_obj(value)}


def cmd_spectrum(args):
    g = _load_graph(args)
    a = _load_element(g, args.element)
    s = ckalg.support_spectrum(a)
    return {"ok": True, "spectrum": bimodule.spectrum_to_json_obj(s)}


def cmd_bimodule_member(args):
    g = _load_graph(args)
    a = _load_element(g, args.element)
    gens_obj = _load_json(args.gens)
    if not isinstance(gens_obj, list):
        raise BadInputError("--gens file must hold a JSON list of elements")
    gens = [ckalg.element_from_json_obj(g, item) for item in gens_obj]
    return {"ok": True, "member": bimodule.bimodule_member(a, gens)}


def cmd_analytic_member(args):
    g = _load_graph(args)
    f = _load_fn(args)
    cocycle.validate_total(g, f)
    m = _mono_from_args(g, args)
    return {"ok": True, "member": bimodule.ck_in_analytic(g, f, m)}


def cmd_nest_member(args):
    og = _load_ordered_graph(args)
    m = _mono_from_args(og, args)
    member, clause = nest.in_alg_n(og, m)
    return {"ok": True, "member": member, "clause": clause}


def cmd_nest_oracle(args):
    og = _load_ordered_graph(args)
    m = _mono_from_args(og, args)
    member, violation = nest.in_alg_n_oracle(og, m, args.K)
    witness = None
    if violation is not None:
        witness = {
            "level": violation.level,
            "cut": violation.cutpos,
            "row": paths.finpath_to_json_obj(violation.row),
            "col": paths.finpath_to_json_obj(violation.col),
        }
    return {"ok": True, "member": member, "witness": witness}


def cmd_nest_spectrum(args):
    og = _load_ordered_graph(args)
    point = _point_from_args(og, args)
    member, clause = nest.point_in_spectrum_alg_n(og, point)
    return {"ok": True, "member": member, "clause": clause}


def cmd_radical_member(args):
    og = _load_ordered_graph(args)
    point = _point_from_args(og, args)
    return {"ok": True, "member": nest.in_radical_spectrum(og, point)}


def cmd_commutator(args):
    g = _load_graph(args)
    a = _load_element(g, args.left)
    b = _load_element(g, args.right)
    return {"ok": True, "element": ckalg.element_to_json_obj(nest.commutator(a, b))}


def cmd_cocycle_eval(args):
    g = _load_graph(args)
    f = _load_fn(args)
    cocycle.validate_total(g, f)
    value = cocycle.eval_cocycle(f, _point_from_args(g, args))
    return {"ok": True, "value": format_rational(value)}


def cmd_cocycle_check(args):
    g = _load_graph(args)
    f = _load_fn(args)
    cocycle.validate_total(g, f)
    ok, failures = cocycle.reconstruct_f(g, f)
    return {"ok": True, "consistent": ok, "failures": len(failures)}


def cmd_loop_growth(args):
    g = _load_graph(args)
    f = _load_fn(args)
    cocycle.validate_total(g, f)
    x = _evpath_from_args(g, "", args.cycle, "x")
    report = cocycle.loop_growth(f, x, args.period)
    return {
        "ok": True,
        "base": format_rational(report.base),
        "verified": report.verified,
        "unbounded": report.unbounded,
    }


def cmd_weights(args):
    ids = paths.parse_edge_word(args.edges)
    weights = cocycle.acyclic_weights(ids)
    return {
        "ok": True,
        "weights": {e: format_rational(w) for e, w in weights.items()},
    }


def cmd_obstruction(args):
    g = _load_graph(args)
    alpha = _finpath_arg(g, args.alpha, None, "alpha")
    beta = _finpath_arg(g, args.beta, None, "beta")
    witness = cocycle.integer_obstruction_witness(g, alpha, beta, args.ell)
    return {
        "ok": True,
        "x": paths.evpath_to_json_obj(witness.x),
        "y": paths.evpath_to_json_obj(witness.y),
        "window": witness.window,
    }


def cmd_normalizer_check(args):
    g = _load_graph(args)
    a = _load_element(g, args.element)
    return {"ok": True, "normalizing": ckalg.is_normalizing_pi(a)}


def cmd_separating_proj(args):
    g = _load_graph(args)
    e = _mono_from_args(g, args)
    found = ckalg.separating_projections(g, e, args.level)
    return {
        "ok": True,
        "p": paths.finpath_to_json_obj(found.p.alpha),
        "q": paths.finpath_to_json_obj(found.q.alpha),
        "pi": list(found.pi.edges),
        "w": list(found.w.edges),
        "level": found.level,
    }


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ckcalc",
        description="Exact symbolic calculator for graph-algebra path combinatorics.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("validate", help="check graph axioms")
    _add_graph_arg(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("masa-check", help="does every loop have an entrance")
    _add_graph_arg(sp)
    sp.set_defaults(func=cmd_masa_check)

    sp = sub.add_parser("normalize", help="normal form of an element")
    _add_graph_arg(sp)
    sp.add_argument("--element", required=True)
    sp.add_argument("--depth", type=int, default=None, help="force beta depth")
    sp.set_defaults(func=cmd_normalize)

    sp = sub.add_parser("mul", help="product of two elements")
    _add_graph_arg(sp)
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.set_defaults(func=cmd_mul)

    sp = sub.add_parser("phi", help="graded part of an element")
    _add_graph_arg(sp)
    sp.add_argument("--element", required=True)
    sp.add_argument("--degree", type=int, default=None, help="integer grading degree")
    sp.add_argument("--fn", default=None, help="grade by this function's cocycle instead")
    sp.add_argument("--value", default=None, help="rational level for --fn grading")
    sp.set_defaults(func=cmd_phi)

    sp = sub.add_parser("gauge", help="rotate by a root of unity")
    _add_graph_arg(sp)
    sp.add_argument("--element", required=True)
    sp.add_argument("--root", type=int, required=True, help="root order: 1, 2 or 4")
    sp.add_argument("--power", type=int, required=True)
    sp.set_defaults(func=cmd_gauge)

    sp = sub.add_parser("eval", help="value of an element at a point")
    _add_graph_arg(sp)
    sp.add_argument("--element", required=True)
    _add_point_args(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("spectrum", help="support basic sets of an element")
    _add_graph_arg(sp)
    sp.add_argument("--element", required=True)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("bimodule-member", help="membership in a generated bimodule")
    _add_graph_arg(sp)
    sp.add_argument("--element", required=True)
    sp.add_argument("--gens", required=True, help="JSON list of generator elements")
    sp.set_defaults(func=cmd_bimodule_member)

    sp = sub.add_parser("analytic-member", help="monomial in the cocycle-analytic part")
    _add_graph_arg(sp)
    sp.add_argument("--fn", required=True)
    _add_mono_args(sp)
    sp.set_defaults(func=cmd_analytic_member)

    sp = sub.add_parser("nest-member", help="five-clause nest membership")
    _add_graph_arg(sp)
    _add_mono_args(sp)
    sp.set_defaults(func=cmd_nest_member)

    sp = sub.add_parser("nest-oracle", help="cut-by-cut nest membership check")
    _add_graph_arg(sp)
    _add_mono_args(sp)
    sp.add_argument("--K", type=int, default=None, help="level bound")
    sp.set_defaults(func=cmd_nest_oracle)

    sp = sub.add_parser("nest-spectrum", help="point in the nest-algebra spectrum")
    _add_graph_arg(sp)
    _add_point_args(sp)
    sp.set_defaults(func=cmd_nest_spectrum)

    sp = sub.add_parser("radical-member", help="point in the radical spectrum")
    _add_graph_arg(sp)
    _add_point_args(sp)
    sp.set_defaults(func=cmd_radical_member)

    sp = sub.add_parser("commutator", help="ab - ba")
    _add_graph_arg(sp)
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.set_defaults(func=cmd_commutator)

    sp = sub.add_parser("cocycle-eval", help="cocycle value at a point")
    _add_graph_arg(sp)
    sp.add_argument("--fn", required=True)
    _add_point_args(sp)
    sp.set_defaults(func=cmd_cocycle_eval)

    sp = sub.add_parser("cocycle-check", help="function/cocycle round trip")
    _add_graph_arg(sp)
    sp.add_argument("--fn", required=True)
    sp.set_defaults(func=cmd_cocycle_check)

    sp = sub.add_parser("loop-growth", help="linear growth along a periodic point")
    _add_graph_arg(sp)
    sp.add_argument("--fn", required=True)
    sp.add_argument("--cycle", required=True, help="cycle edge word")
    sp.add_argument("--period", type=int, required=True)
    sp.set_defaults(func=cmd_loop_growth)

    sp = sub.add_parser("weights", help="dominating geometric edge weights")
    sp.add_argument("--edges", required=True, help="comma-separated edge ids")
    sp.set_defaults(func=cmd_weights)

    sp = sub.add_parser("obstruction", help="integer-window obstruction witness")
    _add_graph_arg(sp)
    sp.add_argument("--alpha", required=True, help="first loop edge word")
    sp.add_argument("--beta", required=True, help="second loop edge word")
    sp.add_argument("--ell", type=int, required=True, help="multiplicity, at least 2")
    sp.set_defaults(func=cmd_obstruction)

    sp = sub.add_parser("normalizer-check", help="normalizing partial isometry test")
    _add_graph_arg(sp)
    sp.add_argument("--element", required=True)
    sp.set_defaults(func=cmd_normalizer_check)

    sp = sub.add_parser("separating-proj", help="separating projection pair")
    _add_graph_arg(sp)
    _add_mono_args(sp)
    sp.add_argument("--level", type=int, required=True, help="separation level k")
    sp.set_defaults(func=cmd_separating_proj)

    for name, sp_obj in sub.choices.items():
        sp_obj.add_argument("--json-out", default=None, help="also write the JSON here")
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
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        out, status = args.func(args), 0
    except CkError as exc:
        out, status = _error_obj(exc), 1
    return status if _emit(out, getattr(args, "json_out", None)) else 1


if __name__ == "__main__":
    sys.exit(main())
