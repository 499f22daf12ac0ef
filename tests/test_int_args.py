"""Every integer parameter of the public API refuses a non-int with bad_input.

The table holds one call per integer parameter.  It runs in one child
interpreter under an address-space limit, with an alarm around each call,
so a refusal that regresses to a runaway walk fails here and does not stall
the suite.  A bool passes as the int it equals, and an edge id that is not
hashable is reported as an unknown edge, or in a function table as bad input.
"""

import json
import os
import resource
import signal
import subprocess
import sys
from fractions import Fraction

import ckcalc
from ckcalc.bimodule import SpectrumSet
from ckcalc.ckalg import (
    AlgElement,
    CKMono,
    af_compression_projections,
    check_proj_afpart,
    diagonal_element,
    evaluate,
    gauge,
    mono_element,
    normalize,
    phi_m,
    separating_projections,
)
from ckcalc.cocycle import LocallyConstantFn, integer_obstruction_witness, loop_growth
from ckcalc.errors import CkError
from ckcalc.nest import in_alg_n_oracle, level_atoms, nest_projection, point_in_spectrum_alg_n
from ckcalc.paths import (
    GroupoidPoint,
    all_finpaths,
    check_finpath,
    continuations,
    empty_path,
    enumerate_evpaths,
    ev,
    fpath,
    lex_compare,
    path_range,
    primitive_loops,
    shift_n,
    sim_k,
)

BAD = (1.5, 2.0, "1")  # refused by every row; each row adds its own
INT = (None,)  # any int is read, or meets the parameter's domain check
NONNEGATIVE = (None, -1)
NONNEGATIVE_OR_NONE = (-1,)  # None asks for the default
MEMORY_LIMIT = 512 << 20  # bytes of address space for the child
ALARM_S = 3  # seconds per call


class _Timeout(BaseException):
    """Raised by the alarm; a BaseException, so no library handler eats it."""


def _rows():
    """(label, call of one integer, the values refused besides BAD)."""
    from conftest import build_graph

    og = build_graph(["v"], [("a", "v", "v"), ("b", "v", "v")], order=["a", "b"])
    s_a = mono_element(og, CKMono(fpath("a"), empty_path("v")))
    ab = CKMono(fpath("a"), fpath("b"))
    f = LocallyConstantFn.from_weights({"a": 1, "b": Fraction(1, 2)})
    a_inf, ba_inf = ev((), ("a",)), ev(("b",), ("a",))
    return [
        ("normalize beta_depth", lambda n: normalize(s_a, beta_depth=n), NONNEGATIVE_OR_NONE),
        ("phi_m m", lambda n: phi_m(s_a, n), INT),
        ("gauge j", lambda n: gauge(s_a, 4, n), INT),
        ("separating_projections k", lambda n: separating_projections(og, ab, n), INT),
        ("af_compression_projections k", lambda n: af_compression_projections(og, ab, n), INT),
        ("check_proj_afpart k", lambda n: check_proj_afpart(s_a, ab, n), INT),
        ("level_atoms level", lambda n: level_atoms(og, n), NONNEGATIVE),
        ("nest_projection level", lambda n: nest_projection(og, n, 1), NONNEGATIVE),
        ("nest_projection cutpos", lambda n: nest_projection(og, 1, n), INT),
        ("in_alg_n_oracle level_bound", lambda n: in_alg_n_oracle(og, ab, n),
         NONNEGATIVE_OR_NONE),
        ("LocallyConstantFn depth",
         lambda n: LocallyConstantFn(n, {("a",): 1, ("b",): 2}).table, NONNEGATIVE),
        ("loop_growth period", lambda n: loop_growth(f, a_inf, n), INT),
        ("integer_obstruction_witness ell",
         lambda n: integer_obstruction_witness(og, fpath("a"), fpath("b"), n), INT),
        ("shift_n n", lambda n: shift_n(ba_inf, n), NONNEGATIVE),
        ("continuations length", lambda n: continuations(og, "v", n), NONNEGATIVE),
        ("all_finpaths length", lambda n: all_finpaths(og, n), NONNEGATIVE),
        ("primitive_loops max_len", lambda n: primitive_loops(og, n), INT),
        ("enumerate_evpaths max_prefix_len", lambda n: enumerate_evpaths(og, n, 1), INT),
        ("enumerate_evpaths max_cycle_len", lambda n: enumerate_evpaths(og, 1, n), INT),
        ("GroupoidPoint k", lambda n: GroupoidPoint(ba_inf, n, a_inf), INT),
        ("sim_k k", lambda n: sim_k(ba_inf, n, a_inf), INT),
    ]


def _edge_id_calls():
    """(label, call that reads a list as an edge id, the error code it must raise)."""
    from conftest import build_graph

    og = build_graph(["v"], [("a", "v", "v"), ("b", "v", "v")], order=["a", "b"])
    s_a = mono_element(og, CKMono(fpath("a"), empty_path("v")))
    f = LocallyConstantFn.from_weights({"a": 1, "b": 2})
    r_bad = CKMono(fpath(["a"]), fpath(["a"]))

    def point():
        bad = ev([["a"]], ["a"])
        return GroupoidPoint(bad, 0, bad)

    return [
        ("check_finpath", lambda: check_finpath(og, fpath(["a"])), "invalid_graph"),
        ("path_range", lambda: path_range(og, fpath(["a"])), "invalid_graph"),
        ("lex_compare", lambda: lex_compare(fpath(["a"]), fpath("a"), og), "invalid_graph"),
        ("evaluate", lambda: evaluate(s_a, point()), "invalid_graph"),
        ("point_in_spectrum_alg_n", lambda: point_in_spectrum_alg_n(og, point()),
         "invalid_graph"),
        ("loop_growth", lambda: loop_growth(f, ev((), (["a"],)), 1), "invalid_function"),
        ("AlgElement", lambda: AlgElement(og, [(r_bad, 1)]), "invalid_graph"),
        ("mono_element", lambda: mono_element(og, r_bad), "invalid_graph"),
        ("diagonal_element", lambda: diagonal_element(og, [(fpath(["a"]), 1)]), "invalid_graph"),
        ("SpectrumSet.from_cylinders", lambda: SpectrumSet.from_cylinders(og, [r_bad]),
         "invalid_graph"),
        ("LocallyConstantFn", lambda: LocallyConstantFn(1, [((["a"],), 1)]), "bad_input"),
    ]


def _outcome(call):
    """("answer", value), ("error", code), ("leak", exception type) or ("timeout",)."""
    signal.alarm(ALARM_S)
    try:
        return "answer", call()
    except CkError as err:
        return "error", err.code
    except _Timeout:
        return ("timeout",)
    except Exception as exc:  # a leak: what the table looks for
        return "leak", type(exc).__name__
    finally:
        signal.alarm(0)


def _brief(outcome):
    """The outcome as JSON, with an answer shown by its repr."""
    return [outcome[0], repr(outcome[1])] if outcome[0] == "answer" else list(outcome)


def _run_table():
    """Run every row in this process and print one JSON report."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))

    def on_alarm(*_):
        raise _Timeout

    signal.signal(signal.SIGALRM, on_alarm)
    refusals, bools = [], []
    for label, call, refused in _rows():
        for value in BAD + refused:
            refusals.append([label, repr(value), _brief(_outcome(lambda: call(value)))])
        as_bool, as_int = _outcome(lambda: call(True)), _outcome(lambda: call(1))
        bools.append([label, as_bool[0], as_bool == as_int])
    edge_ids = [[label, _brief(_outcome(call))] for label, call, _ in _edge_id_calls()]
    print(json.dumps({"refusals": refusals, "bools": bools, "edge_ids": edge_ids}))


def _report():
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(ckcalc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    run = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    return json.loads(run.stdout)


def test_int_arguments_edge_ids_and_bools_in_one_child():
    report = _report()
    bad = [row for row in report["refusals"] if row[2] != ["error", "bad_input"]]
    assert not bad
    rows = _rows()
    assert len(report["refusals"]) == len(rows) * len(BAD) + sum(len(r) for *_, r in rows)
    # True answers as 1 does; ell must be at least 2, so there both refuse alike.
    assert all(same for _, _, same in report["bools"])
    assert [label for label, kind, _ in report["bools"] if kind != "answer"] == [
        "integer_obstruction_witness ell"]
    assert report["edge_ids"] == [[label, ["error", code]] for label, _, code in _edge_id_calls()]


def test_loop_growth_base_is_a_fraction():
    f = LocallyConstantFn.from_weights({"a": 1, "b": Fraction(1, 2)})
    report = loop_growth(f, ev((), ("a",)), 2)
    assert type(report.base) is Fraction and report.base == 2


if __name__ == "__main__":
    _run_table()
