import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ckcalc
from ckcalc import nest
from ckcalc.bimodule import spectrum_from_json_obj
from ckcalc.ckalg import CKMono, element_from_json_obj, mono_from_json_obj
from ckcalc.cli import build_parser, main
from ckcalc.errors import BadInputError, CkError
from ckcalc.graph import graph_from_json_obj
from ckcalc.paths import empty_path, evpath_from_json_obj, fpath


O2_PLAIN = {
    "vertices": ["v"],
    "edges": [
        {"id": "a", "range": "v", "source": "v"},
        {"id": "b", "range": "v", "source": "v"},
    ],
}
O2_GRAPH = dict(O2_PLAIN, order=["a", "b"])

LOOP3_GRAPH = {
    "vertices": ["u", "v", "w"],
    "edges": [
        {"id": "e1", "range": "u", "source": "v"},
        {"id": "e2", "range": "v", "source": "w"},
        {"id": "e3", "range": "w", "source": "u"},
    ],
}

S_A = [{"alpha": ["a"], "beta": [], "anchor": "v", "re": "1", "im": "0"}]
S_A_STAR = [{"alpha": [], "beta": ["a"], "anchor": "v", "re": "1", "im": "0"}]
FN_ONE = {"depth": 0, "table": [{"path": [], "value": "1"}]}
FN_IND_A = {
    "depth": 1,
    "table": [{"path": ["a"], "value": "1"}, {"path": ["b"], "value": "0"}],
}


@pytest.fixture
def ws(tmp_path):
    def save(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    return {
        "save": save,
        "o2": save("o2.json", O2_GRAPH),
        "loop3": save("loop3.json", LOOP3_GRAPH),
        "sa": save("sa.json", S_A),
        "sa_star": save("sa_star.json", S_A_STAR),
        "one": save("one.json", FN_ONE),
        "ind_a": save("ind_a.json", FN_IND_A),
        "dir": tmp_path,
    }


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 1
    return code, json.loads(lines[0])


# The graph files of the pinned rows: O2 (one vertex v, loops a and b) and
# c2 (one 2-cycle, f1 into 1 and f2 into 2), each plain and ordered.
C2_PLAIN = {
    "vertices": ["1", "2"],
    "edges": [
        {"id": "f1", "range": "1", "source": "2"},
        {"id": "f2", "range": "2", "source": "1"},
    ],
}
PIN_GRAPHS = {
    "o2.json": O2_PLAIN,
    "o2_ordered.json": O2_GRAPH,
    "c2.json": C2_PLAIN,
    "c2_ordered.json": dict(C2_PLAIN, order=["f1", "f2"]),
}


def pin(name, argv, line, inputs=None, status=0):
    """One pinned row: the argv (a token ending in .json names an input
    file), the files it reads besides the graphs, its exact stdout line and
    its exit status."""
    return pytest.param(argv, inputs or {}, line, status, id=name)


# The exact bytes of the paper's answers, as `ckcalc` prints them.
PINNED = [
    pin("masa-check-o2", "masa-check --graph o2.json", '{"masa": true, "ok": true}'),
    pin("cocycle-check", "cocycle-check --graph o2.json --fn fn.json",
        '{"consistent": true, "failures": 0, "ok": true}',
        {"fn.json": {"depth": 1, "table": [{"path": ["a"], "value": "1"},
                                           {"path": ["b"], "value": "-1/2"}]}}),
    # S_a S_a* - S_a* S_a = R_a - p_v = -R_b on O2: one term.
    pin("commutator", "commutator --graph o2.json --left s_a.json --right s_a_star.json",
        '{"element": [{"alpha": ["b"], "anchor": "v", "beta": ["b"], "im": "0", "re": "-1"}], '
        '"ok": true}',
        {"s_a.json": S_A, "s_a_star.json": S_A_STAR}),
    # (S_a/2 + p_v/3)(2p_v/3 - S_a + 4S_a*/5): the S_a terms 1/3 - 1/3 cancel,
    # R_a gets 4/10 = 2/5 and then the 2/9 of p_v, and R_b keeps 2/9.
    pin("mul", "mul --graph o2.json --left left.json --right right.json",
        '{"element": [{"alpha": [], "anchor": "v", "beta": ["a"], "im": "0", "re": "4/15"}, '
        '{"alpha": ["a"], "anchor": "v", "beta": ["a"], "im": "0", "re": "28/45"}, '
        '{"alpha": ["b"], "anchor": "v", "beta": ["b"], "im": "0", "re": "2/9"}, '
        '{"alpha": ["a", "a"], "anchor": "v", "beta": [], "im": "0", "re": "-1/2"}], "ok": true}',
        {"left.json": [{"alpha": ["a"], "beta": [], "anchor": "v", "re": "1/2"},
                       {"alpha": [], "beta": [], "anchor": "v", "re": "1/3"}],
         "right.json": [{"alpha": [], "beta": [], "anchor": "v", "re": "2/3"},
                        {"alpha": ["a"], "beta": [], "anchor": "v", "re": "-1"},
                        {"alpha": [], "beta": ["a"], "anchor": "v", "re": "4/5"}]}),
    # S_a + (1/2 + i) p_v refined to beta length 1, listed in the canonical term order.
    pin("normalize-depth-1", "normalize --graph o2.json --element element.json --depth 1",
        '{"element": [{"alpha": ["a"], "anchor": "v", "beta": ["a"], "im": "1", "re": "1/2"}, '
        '{"alpha": ["b"], "anchor": "v", "beta": ["b"], "im": "1", "re": "1/2"}, '
        '{"alpha": ["a", "a"], "anchor": "v", "beta": ["a"], "im": "0", "re": "1"}, '
        '{"alpha": ["a", "b"], "anchor": "v", "beta": ["b"], "im": "0", "re": "1"}], "ok": true}',
        {"element.json": [{"alpha": ["a"], "beta": [], "anchor": "v", "re": "1"},
                          {"alpha": [], "beta": [], "anchor": "v", "re": "1/2", "im": "1"}]}),
    # Every vertex of c2 is the range of one edge, so R_{f2 f1} climbs to p_2.
    pin("normalize-one-child-chain", "normalize --graph c2.json --element element.json",
        '{"element": [{"alpha": [], "anchor": "2", "beta": [], "im": "0", "re": "3"}, '
        '{"alpha": ["f1"], "anchor": "2", "beta": [], "im": "0", "re": "1"}], "ok": true}',
        {"element.json": [{"alpha": ["f2", "f1"], "beta": ["f2", "f1"], "anchor": "2", "re": "3"},
                          {"alpha": ["f1"], "beta": [], "anchor": "2", "re": "1"}]}),
    # The cycle f1 f2 of c2 has no entrance, so the diagonal is not a masa.
    pin("masa-check-c2", "masa-check --graph c2.json", '{"masa": false, "ok": true}'),
    # S_a S_b* + i S_b S_a*: unimodular, and neither the betas a, b nor the alphas b, a overlap.
    pin("normalizer-check-permutation", "normalizer-check --graph o2.json --element perm.json",
        '{"normalizing": true, "ok": true}',
        {"perm.json": [{"alpha": ["a"], "beta": ["b"], "anchor": "v", "re": "1"},
                       {"alpha": ["b"], "beta": ["a"], "anchor": "v", "im": "1"}]}),
    # S_a + S_b: unimodular, but both initial projections are p_v.
    pin("normalizer-check-sum", "normalizer-check --graph o2.json --element sum.json",
        '{"normalizing": false, "ok": true}',
        {"sum.json": [{"alpha": ["a"], "beta": [], "anchor": "v", "re": "1"},
                      {"alpha": ["b"], "beta": [], "anchor": "v", "re": "1"}]}),
    # S_a + (1/2 + i) S_aa S_a* at the isotropy point (a a a ..., 1, a a a ...):
    # both basic sets hold it, so both coefficients are summed.
    pin("eval-isotropy",
        "eval --graph o2.json --element element.json --x-cycle a --k 1 --y-cycle a",
        '{"ok": true, "value": {"im": "1", "re": "3/2"}}',
        {"element.json": [{"alpha": ["a"], "beta": [], "anchor": "v", "re": "1"},
                          {"alpha": ["a", "a"], "beta": ["a"], "anchor": "v", "re": "1/2",
                           "im": "1"}]}),
    # On O2, a is the least in-edge of v and b the greatest: (a^inf, 1, a^inf) and
    # (b^inf, -1, b^inf) are in the spectrum, and (a^inf, -1, a^inf) is not.
    pin("nest-spectrum-a-1", "nest-spectrum --graph o2_ordered.json --x-cycle a --k 1 --y-cycle a",
        '{"clause": "s_minimal_block", "member": true, "ok": true}'),
    pin("nest-spectrum-a-minus-1",
        "nest-spectrum --graph o2_ordered.json --x-cycle a --k -1 --y-cycle a",
        '{"clause": null, "member": false, "ok": true}'),
    pin("nest-spectrum-b-minus-1",
        "nest-spectrum --graph o2_ordered.json --x-cycle b --k -1 --y-cycle b",
        '{"clause": "s_maximal_block", "member": true, "ok": true}'),
    # Each edge of c2 is the only in-edge of its range, so every block is s-maximal.
    pin("nest-spectrum-c2",
        "nest-spectrum --graph c2_ordered.json --x-cycle f1,f2 --k -4 --y-cycle f1,f2",
        '{"clause": "s_maximal_block", "member": true, "ok": true}'),
    # On O2 with a < b, S_alpha S_beta* is in the nest algebra by one clause each.
    pin("nest-member-equal_length_le", "nest-member --graph o2_ordered.json --alpha a --beta b",
        '{"clause": "equal_length_le", "member": true, "ok": true}'),
    pin("nest-member-head_precedes", "nest-member --graph o2_ordered.json --alpha a,b --beta b",
        '{"clause": "head_precedes", "member": true, "ok": true}'),
    pin("nest-member-s_minimal_tail", "nest-member --graph o2_ordered.json --alpha a,a --beta a",
        '{"clause": "s_minimal_tail", "member": true, "ok": true}'),
    pin("nest-member-head_follows", "nest-member --graph o2_ordered.json --alpha a --beta b,a",
        '{"clause": "head_follows", "member": true, "ok": true}'),
    pin("nest-member-s_maximal_tail", "nest-member --graph o2_ordered.json --alpha b --beta b,b",
        '{"clause": "s_maximal_tail", "member": true, "ok": true}'),
    pin("nest-member-none", "nest-member --graph o2_ordered.json --alpha b --beta a",
        '{"clause": null, "member": false, "ok": true}'),
    # With one word empty, the anchor defaults to the source of the other.
    pin("nest-member-default-anchor-beta", "nest-member --graph o2_ordered.json --alpha a --beta=",
        '{"clause": "s_minimal_tail", "member": true, "ok": true}'),
    pin("nest-member-default-anchor-alpha", "nest-member --graph o2_ordered.json --alpha= --beta b",
        '{"clause": "s_maximal_tail", "member": true, "ok": true}'),
    # S_b S_a* is not: the oracle's witness compresses it at level 1, row b and column a.
    pin("nest-oracle-witness", "nest-oracle --graph o2_ordered.json --alpha b --beta a",
        '{"member": false, "ok": true, "witness": {"col": {"edges": ["a"]}, "cut": 1, '
        '"level": 1, "row": {"edges": ["b"]}}}'),
    # The README's example: the bound K = 4 finds the same witness.
    pin("nest-oracle-readme", "nest-oracle --graph o2_ordered.json --alpha b --beta a --K 4",
        '{"member": false, "ok": true, "witness": {"col": {"edges": ["a"]}, "cut": 1, '
        '"level": 1, "row": {"edges": ["b"]}}}'),
    pin("nest-oracle-member", "nest-oracle --graph o2_ordered.json --alpha a,a --beta a",
        '{"member": true, "ok": true, "witness": null}'),
    # S_f2 on c2 carries p_1 to p_2, and p_1 < p_2 at level 0 as f1 < f2: the
    # witness's row and column are vertex projections, empty paths with anchors.
    pin("nest-oracle-level-0", "nest-oracle --graph c2_ordered.json --alpha f2 --beta=",
        '{"member": false, "ok": true, "witness": {"col": {"anchor": "1", "edges": []}, '
        '"cut": 1, "level": 0, "row": {"anchor": "2", "edges": []}}}'),
    # Errors are one line on stdout with exit status 1, not a traceback.
    pin("gauge-root-3", "gauge --graph o2.json --element s_a.json --root 3 --power 1",
        '{"error": {"code": "unsupported_root", "message": "rotation order 3 has no exact '
        'representation"}, "ok": false}',
        {"s_a.json": S_A}, status=1),
    pin("nest-oracle-negative-K",
        "nest-oracle --graph o2_ordered.json --alpha a --beta b --K -1",
        '{"error": {"code": "bad_input", "message": "level bound must be a nonnegative integer, '
        'not -1"}, "ok": false}', status=1),
    pin("bimodule-member-gens-not-a-list",
        "bimodule-member --graph o2.json --element s_a.json --gens gens.json",
        '{"error": {"code": "bad_input", "message": "--gens file must hold a JSON list of '
        'elements"}, "ok": false}',
        {"s_a.json": S_A, "gens.json": {}}, status=1),
]


@pytest.mark.parametrize("argv, inputs, line, status", PINNED)
def test_pinned_output_bytes(tmp_path, capsys, argv, inputs, line, status):
    for name, obj in {**PIN_GRAPHS, **inputs}.items():
        (tmp_path / name).write_text(json.dumps(obj), encoding="utf-8")
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv.split()]
    assert main(argv) == status
    assert capsys.readouterr() == (line + "\n", "")


def test_validate(ws, capsys):
    code, out = run(capsys, ["validate", "--graph", ws["o2"]])
    assert code == 0
    assert out["ok"] is True and out["valid"] is True
    assert out["no_source_violations"] == []
    assert out["order_violations"] == []


def test_masa_check(ws, capsys):
    code, out = run(capsys, ["masa-check", "--graph", ws["o2"]])
    assert code == 0 and out["masa"] is True
    code, out = run(capsys, ["masa-check", "--graph", ws["loop3"]])
    assert code == 0 and out["masa"] is False


def test_normalize_depth(ws, capsys):
    code, out = run(
        capsys,
        ["normalize", "--graph", ws["o2"], "--element", ws["sa"], "--depth", "1"],
    )
    assert code == 0
    assert out["element"] == [
        {"alpha": ["a", "a"], "beta": ["a"], "anchor": "v", "re": "1", "im": "0"},
        {"alpha": ["a", "b"], "beta": ["b"], "anchor": "v", "re": "1", "im": "0"},
    ]
    code, out = run(
        capsys,
        ["normalize", "--graph", ws["o2"], "--element", ws["sa"], "--depth", "-1"],
    )
    assert code == 1 and out["error"]["code"] == "bad_input"


def test_mul(ws, capsys):
    code, out = run(
        capsys,
        ["mul", "--graph", ws["o2"], "--left", ws["sa"], "--right", ws["sa_star"]],
    )
    assert code == 0
    assert out["element"] == [
        {"alpha": ["a"], "beta": ["a"], "anchor": "v", "re": "1", "im": "0"}
    ]


def test_phi_modes(ws, capsys):
    code, out = run(
        capsys, ["phi", "--graph", ws["o2"], "--element", ws["sa"], "--degree", "1"]
    )
    assert code == 0 and out["element"] == S_A
    code, out = run(
        capsys, ["phi", "--graph", ws["o2"], "--element", ws["sa"], "--degree", "0"]
    )
    assert code == 0 and out["element"] == []
    code, out = run(
        capsys,
        ["phi", "--graph", ws["o2"], "--element", ws["sa"], "--fn", ws["one"], "--value", "1"],
    )
    assert code == 0 and out["element"] == S_A
    code, out = run(
        capsys, ["phi", "--graph", ws["o2"], "--element", ws["sa"], "--fn", ws["one"]]
    )
    assert code == 1 and out["error"]["code"] == "bad_input"
    code, out = run(
        capsys,
        ["phi", "--graph", ws["o2"], "--element", ws["sa"], "--degree", "0",
         "--fn", ws["one"], "--value", "1"],
    )
    assert code == 1 and out["error"]["code"] == "bad_input"
    code, out = run(
        capsys,
        ["phi", "--graph", ws["o2"], "--element", ws["sa"], "--degree", "1", "--value", "3"],
    )
    assert code == 1 and out["error"]["code"] == "bad_input"


def test_gauge(ws, capsys):
    code, out = run(
        capsys,
        ["gauge", "--graph", ws["o2"], "--element", ws["sa"], "--root", "4", "--power", "1"],
    )
    assert code == 0
    assert out["element"] == [
        {"alpha": ["a"], "beta": [], "anchor": "v", "re": "0", "im": "1"}
    ]
    code, out = run(
        capsys,
        ["gauge", "--graph", ws["o2"], "--element", ws["sa"], "--root", "3", "--power", "1"],
    )
    assert code == 1
    assert out["ok"] is False and out["error"]["code"] == "unsupported_root"


def test_eval(ws, capsys):
    code, out = run(
        capsys,
        [
            "eval",
            "--graph", ws["o2"],
            "--element", ws["sa"],
            "--x-prefix", "a",
            "--x-cycle", "b",
            "--k", "1",
            "--y-cycle", "b",
        ],
    )
    assert code == 0 and out["value"] == {"re": "1", "im": "0"}


def test_spectrum(ws, capsys):
    code, out = run(capsys, ["spectrum", "--graph", ws["o2"], "--element", ws["sa"]])
    assert code == 0
    assert out["spectrum"] == [{"alpha": ["a"], "beta": [], "anchor": "v"}]


def test_bimodule_member(ws, capsys):
    gens = ws["save"]("gens.json", [S_A])
    code, out = run(
        capsys,
        ["bimodule-member", "--graph", ws["o2"], "--element", ws["sa"], "--gens", gens],
    )
    assert code == 0 and out["member"] is True
    code, out = run(
        capsys,
        ["bimodule-member", "--graph", ws["o2"], "--element", ws["sa_star"], "--gens", gens],
    )
    assert code == 0 and out["member"] is False


def test_analytic_member(ws, capsys):
    base = [
        "analytic-member", "--graph", ws["o2"], "--fn", ws["one"],
    ]
    code, out = run(capsys, base + ["--alpha", "a", "--beta", ""])
    assert code == 0 and out["member"] is True
    code, out = run(capsys, base + ["--alpha", "", "--beta", "a"])
    assert code == 0 and out["member"] is False


def test_nest_member_shapes(ws, capsys):
    code, out = run(
        capsys,
        ["nest-member", "--graph", ws["o2"], "--alpha", "b", "--beta", "a"],
    )
    assert code == 0
    assert out == {"ok": True, "member": False, "clause": None}
    code, out = run(
        capsys,
        ["nest-member", "--graph", ws["o2"], "--alpha", "a", "--beta", "b"],
    )
    assert out == {"ok": True, "member": True, "clause": "equal_length_le"}


def test_anchor_must_be_the_source_of_the_words(ws, capsys):
    argv = ["nest-member", "--graph", ws["o2"], "--alpha", "a", "--beta", "b"]
    code, out = run(capsys, argv + ["--anchor", "v"])
    assert code == 0 and out["member"] is True
    code, out = run(capsys, argv + ["--anchor", "zzz"])
    assert code == 1 and out["error"]["code"] == "bad_input"


@pytest.mark.parametrize("alpha, beta, anchor, want", [
    ("a", "", None, CKMono(fpath("a"), empty_path("v"))),
    ("", "b", None, CKMono(empty_path("v"), fpath("b"))),
    ("", "", "v", CKMono(empty_path("v"), empty_path("v"))),
    ("", "", None, "bad_input"),
    ("a", "b", "zzz", "bad_input"),
    ("z", "", None, "invalid_graph"),
    ("", "", "w", "invalid_path"),
])
def test_flags_and_files_read_a_monomial_by_one_rule(ws, capsys, monkeypatch, alpha, beta,
                                                     anchor, want):
    """The --alpha/--beta/--anchor flags and a JSON term give the same
    monomial, or the same error code, on ordered O2."""
    seen = []
    real = nest.in_alg_n
    monkeypatch.setattr(nest, "in_alg_n", lambda og, m: seen.append(m) or real(og, m))
    argv = ["nest-member", "--graph", ws["o2"], "--alpha", alpha, "--beta", beta]
    code, out = run(capsys, argv + ([] if anchor is None else ["--anchor", anchor]))
    term = {"alpha": [w for w in alpha.split(",") if w], "beta": [w for w in beta.split(",") if w]}
    if anchor is not None:
        term["anchor"] = anchor
    try:
        got = mono_from_json_obj(graph_from_json_obj(O2_GRAPH), term)
    except CkError as exc:
        got = exc.code
    if isinstance(want, str):
        assert (code, out["error"]["code"], seen, got) == (1, want, [], want)
    else:
        assert (code, seen, got) == (0, [want], want)


def test_a_file_term_with_one_empty_word_may_leave_out_its_anchor():
    g = graph_from_json_obj(O2_PLAIN)
    for term in S_A + S_A_STAR:
        bare = {k: v for k, v in term.items() if k != "anchor"}
        assert element_from_json_obj(g, [bare]) == element_from_json_obj(g, [term])
        assert mono_from_json_obj(g, bare) == mono_from_json_obj(g, term)


def test_nest_member_requires_order(ws, capsys):
    code, out = run(
        capsys,
        ["nest-member", "--graph", ws["loop3"], "--alpha", "e1", "--beta", "e1"],
    )
    assert code == 1 and out["error"]["code"] == "bad_input"


def test_nest_oracle_witness(ws, capsys):
    code, out = run(
        capsys,
        ["nest-oracle", "--graph", ws["o2"], "--alpha", "b", "--beta", "a", "--K", "4"],
    )
    assert code == 0
    assert out["member"] is False
    assert out["witness"] == {
        "level": 1,
        "cut": 1,
        "row": {"edges": ["b"]},
        "col": {"edges": ["a"]},
    }
    code, out = run(
        capsys,
        ["nest-oracle", "--graph", ws["o2"], "--alpha", "a", "--beta", "a"],
    )
    assert code == 0 and out["member"] is True and out["witness"] is None
    code, out = run(
        capsys,
        ["nest-oracle", "--graph", ws["o2"], "--alpha", "b", "--beta", "a", "--K", "-1"],
    )
    assert code == 1 and out["error"]["code"] == "bad_input"


def test_nest_spectrum_and_radical(ws, capsys):
    point = ["--x-prefix", "a", "--x-cycle", "b", "--k", "1", "--y-cycle", "b"]
    code, out = run(capsys, ["nest-spectrum", "--graph", ws["o2"]] + point)
    assert code == 0
    assert out["member"] is True and out["clause"] == "strict_below"
    code, out = run(capsys, ["radical-member", "--graph", ws["o2"]] + point)
    assert code == 0 and out["member"] is True
    unit = ["--x-cycle", "a", "--k", "0", "--y-cycle", "a"]
    code, out = run(capsys, ["radical-member", "--graph", ws["o2"]] + unit)
    assert code == 0 and out["member"] is False


def test_commutator(ws, capsys):
    ra = ws["save"](
        "ra.json",
        [{"alpha": ["a"], "beta": ["a"], "anchor": "v", "re": "1", "im": "0"}],
    )
    code, out = run(
        capsys, ["commutator", "--graph", ws["o2"], "--left", ra, "--right", ws["sa"]]
    )
    assert code == 0
    assert out["element"] == [
        {"alpha": ["a", "b"], "beta": ["b"], "anchor": "v", "re": "1", "im": "0"}
    ]


def test_cocycle_eval_and_check(ws, capsys):
    point = ["--x-cycle", "a", "--k", "3", "--y-cycle", "a"]
    code, out = run(
        capsys, ["cocycle-eval", "--graph", ws["o2"], "--fn", ws["one"]] + point
    )
    assert code == 0 and out["value"] == "3"
    code, out = run(capsys, ["cocycle-check", "--graph", ws["o2"], "--fn", ws["ind_a"]])
    assert code == 0 and out["consistent"] is True and out["failures"] == 0


def test_loop_growth(ws, capsys):
    code, out = run(
        capsys,
        ["loop-growth", "--graph", ws["o2"], "--fn", ws["one"], "--cycle", "a", "--period", "1"],
    )
    assert code == 0
    assert out == {"ok": True, "base": "1", "verified": True, "unbounded": True}
    code, out = run(
        capsys,
        ["loop-growth", "--graph", ws["o2"], "--fn", ws["ind_a"], "--cycle", "b", "--period", "1"],
    )
    assert out["base"] == "0" and out["unbounded"] is False


def test_weights(ws, capsys):
    code, out = run(capsys, ["weights", "--edges", "e,f,g"])
    assert code == 0
    assert out["weights"] == {"e": "1/3", "f": "1/9", "g": "1/27"}


def test_obstruction(ws, capsys):
    code, out = run(
        capsys,
        ["obstruction", "--graph", ws["o2"], "--alpha", "a", "--beta", "b", "--ell", "2"],
    )
    assert code == 0
    assert out["window"] == 2
    assert out["x"] == {"prefix": ["a", "a", "a", "b", "a", "a"], "cycle": ["b"]}
    assert out["y"] == {"prefix": ["a", "a", "b", "a", "a", "a"], "cycle": ["b"]}


def test_normalizer_check(ws, capsys):
    code, out = run(
        capsys, ["normalizer-check", "--graph", ws["o2"], "--element", ws["sa"]]
    )
    assert code == 0 and out["normalizing"] is True
    half = ws["save"](
        "half.json",
        [{"alpha": ["a"], "beta": [], "anchor": "v", "re": "1/2", "im": "0"}],
    )
    code, out = run(
        capsys, ["normalizer-check", "--graph", ws["o2"], "--element", half]
    )
    assert code == 0 and out["normalizing"] is False


def test_separating_proj(ws, capsys):
    code, out = run(
        capsys,
        ["separating-proj", "--graph", ws["o2"], "--alpha", "a", "--beta", "a", "--level", "1"],
    )
    assert code == 0
    assert out["pi"] == ["a", "a"] and out["w"] == ["b"] and out["level"] == 1
    assert out["p"] == {"edges": ["a", "a", "a", "b"]}
    assert out["q"] == {"edges": ["a", "a", "a", "b"]}


def test_json_out_writes_same_line(ws, capsys):
    target = str(ws["dir"] / "out.json")
    code, out = run(
        capsys, ["masa-check", "--graph", ws["o2"], "--json-out", target]
    )
    assert code == 0
    with open(target, "r", encoding="utf-8") as fh:
        assert json.loads(fh.read()) == out


@pytest.mark.parametrize("command", [["masa-check"], ["mul", "--left", "x", "--right", "x"]])
def test_unwritable_json_out_is_domain_error(ws, capsys, command):
    # The second command fails on its input too; the write error wins.
    target = str(ws["dir"] / "no_such_dir" / "out.json")
    argv = command[:1] + ["--graph", ws["o2"]] + command[1:] + ["--json-out", target]
    code, out = run(capsys, argv)
    assert code == 1
    assert out["ok"] is False and out["error"]["code"] == "bad_input"
    assert "no_such_dir" in out["error"]["message"]


def test_deterministic_output(ws, capsys):
    argv = ["spectrum", "--graph", ws["o2"], "--element", ws["sa"]]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_main_reuses_one_parser(ws, capsys):
    assert build_parser() is build_parser()
    by_fn = ["phi", "--graph", ws["o2"], "--element", ws["sa"], "--fn", ws["one"], "--value", "0"]
    assert main(by_fn) == 0
    first = capsys.readouterr().out
    # A value parsed by the previous call must not leak into this one.
    code, out = run(
        capsys, ["phi", "--graph", ws["o2"], "--element", ws["sa"], "--degree", "0"]
    )
    assert code == 0 and out["element"] == []
    with pytest.raises(SystemExit) as exc:
        main(["phi", "--graph", ws["o2"], "--degree", "zero"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["phi", "--help"])
    assert exc.value.code == 0
    assert "--degree" in capsys.readouterr().out
    assert main(by_fn) == 0
    assert capsys.readouterr().out == first


def test_missing_file_is_domain_error(ws, capsys):
    code, out = run(
        capsys, ["masa-check", "--graph", str(ws["dir"] / "nope.json")]
    )
    assert code == 1 and out["error"]["code"] == "bad_input"


def test_usage_error_exits_two(ws):
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--graph", ws["o2"]])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# Runs main on the arguments after it, under an address-space limit.
LIMITED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))
from ckcalc.cli import main
sys.exit(main(sys.argv[1:]))
"""


# Graph files the JSON parser cannot read; each must give bad_input.
UNREADABLE = {
    "nested": b"[" * 100000 + b"]" * 100000,  # past the recursion limit
    "not UTF-8": b'\xff\xfe{"vertices": []}',
    "long integer": b'{"vertices": ' + b"9" * 5000 + b"}",  # past the 4300-digit limit
}


@pytest.mark.parametrize("case", sorted(UNREADABLE) + ["oversized"])
def test_unreadable_or_oversized_input_gives_one_error_line(ws, case):
    """Each unreadable graph file, and an obstruction witness of 10^8 loop
    copies (800 MB of tuple), ends in one error line and no traceback in a
    child limited to 600 MB of address space."""
    if case in UNREADABLE:
        code, path = "bad_input", ws["dir"] / "unreadable.json"
        path.write_bytes(UNREADABLE[case])
        argv = ["validate", "--graph", str(path)]
    else:
        code = "too_large"
        argv = ["obstruction", "--graph", ws["o2"], "--alpha", "a", "--beta", "b",
                "--ell", "100000000"]
    src = os.path.dirname(os.path.dirname(ckcalc.__file__))
    run = subprocess.run([sys.executable, "-c", LIMITED_MAIN, *argv], capture_output=True,
                         text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert (run.returncode, run.stderr) == (1, "")
    [line] = run.stdout.splitlines()
    assert json.loads(line)["error"]["code"] == code


def _edge(eid, rng="v", src="v"):
    return {"id": eid, "range": rng, "source": src}


def _o2_with(**changes):
    return dict(O2_GRAPH, **changes)


def _term(**changes):
    return dict(S_A[0], **changes)


@pytest.mark.parametrize(
    "kind, obj",
    [
        ("element", [5]),
        ("element", [_term(alpha="ab")]),
        ("element", [_term(alpha=["a", 1])]),
        ("element", [_term(anchor=3)]),
        ("element", [_term(beta=["b"], anchor="w")]),
        ("element", [_term(re=0.5)]),
        ("element", [_term(im=1)]),
        ("graph", _o2_with(vertices="v")),
        ("graph", _o2_with(edges=[_edge(["a"]), _edge("b")])),
        ("graph", _o2_with(edges=[_edge(7), _edge("b")], order=[7, "b"])),
        ("graph", _o2_with(edges=[_edge("a,b"), _edge("b")], order=["a,b", "b"])),
        ("graph", _o2_with(edges=[_edge(" a"), _edge("b")], order=[" a", "b"])),
        ("graph", _o2_with(edges=[_edge("a", rng=["v"]), _edge("b")])),
        ("graph", _o2_with(edges="ab")),
        ("graph", _o2_with(order="ab")),
        ("fn", dict(FN_IND_A, depth="1")),
        ("fn", dict(FN_IND_A, depth=True)),
        ("fn", dict(FN_IND_A, depth=1.0)),
        ("fn", {"depth": 0, "table": [{"path": [], "value": 1}]}),
        ("fn", {"depth": 0, "table": [{"path": "", "value": "1"}]}),
        ("fn", {"depth": 1, "table": FN_IND_A["table"] + [{"path": ["a"], "value": "2"}]}),
        ("spectrum", [{"alpha": "a", "beta": [], "anchor": "v"}]),
        ("spectrum", [7]),
        ("evpath", {"cycle": "ab"}),
        ("evpath", {"prefix": [1], "cycle": ["a"]}),
    ],
)
def test_json_loaders_reject_malformed_input(ws, capsys, kind, obj):
    if kind in ("spectrum", "evpath"):  # no subcommand reads these
        with pytest.raises(BadInputError):
            if kind == "spectrum":
                spectrum_from_json_obj(graph_from_json_obj(O2_GRAPH), obj)
            else:
                evpath_from_json_obj(obj)
        return
    path = ws["save"]("bad.json", obj)
    argv = {
        "graph": ["validate", "--graph", path],
        "element": ["normalize", "--graph", ws["o2"], "--element", path],
        "fn": ["cocycle-check", "--graph", ws["o2"], "--fn", path],
    }[kind]
    code, out = run(capsys, argv)
    assert code == 1 and out["error"]["code"] == "bad_input"


def _subcommands():
    """The parser's subcommand parsers by name: one per command table row."""
    action = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def test_readme_table_lists_every_subcommand():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    names = [
        line.split("|")[1].strip().strip("`")
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert len(names) == len(set(names))
    assert set(names) == set(_subcommands())


# Inputs for the fuzz test.  Each call spoils at most one flag; the others
# get values that are well formed on O2, so that most calls get past loading.
FUZZ_WORDS = ["", "a", "b", "a,b", "b,a,a", "a,a,b"]
FUZZ_BAD_WORDS = ["e1", "zz", "a,,b"]
FUZZ_KEYS = ["vertices", "edges", "order", "id", "range", "source", "alpha", "beta",
             "anchor", "re", "im", "depth", "table", "path", "value", "prefix", "cycle"]
MISSING, NOT_JSON = object(), object()
fuzz_rationals = st.sampled_from(["0", "1", "-1/2", "3"])
fuzz_words = st.lists(st.sampled_from(["a", "b"]), max_size=3)
fuzz_elements = st.lists(st.fixed_dictionaries(
    {"alpha": fuzz_words, "beta": fuzz_words, "anchor": st.just("v")},
    optional={"re": fuzz_rationals, "im": fuzz_rationals},
), max_size=3)
FUZZ_GOOD_FILES = {
    "--graph": st.just(O2_GRAPH),
    "--element": fuzz_elements,
    "--left": fuzz_elements,
    "--right": fuzz_elements,
    "--gens": st.lists(fuzz_elements, max_size=2),
    "--fn": st.sampled_from([FN_ONE, FN_IND_A]) | st.fixed_dictionaries({
        "depth": st.integers(0, 2),
        "table": st.lists(st.fixed_dictionaries(
            {"path": fuzz_words, "value": fuzz_rationals}), max_size=4),
    }),
}
fuzz_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2)
    | st.text(alphabet="abv,/1", max_size=3),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(FUZZ_KEYS), kids, max_size=4),
    max_leaves=6,
)
fuzz_bad_elements = st.lists(fuzz_junk, min_size=1, max_size=3)
# Malformed files, mostly of the right outer shape so they reach the inner checks.
FUZZ_BAD_FILES = {
    "--graph": st.sampled_from([
        LOOP3_GRAPH,
        # a graph with a source, and one whose order is not adapted
        {"vertices": ["v", "w"], "edges": [_edge("f"), _edge("e", src="w")]},
        {
            "vertices": ["v", "w"],
            "edges": [_edge("a"), _edge("b", "w"), _edge("c", "v", "w"), _edge("d", "w", "w")],
            "order": ["a", "b", "c", "d"],
        },
    ]) | st.dictionaries(st.sampled_from(["vertices", "edges", "order"]), fuzz_junk),
    "--element": fuzz_bad_elements,
    "--left": fuzz_bad_elements,
    "--right": fuzz_bad_elements,
    "--gens": st.lists(fuzz_bad_elements, min_size=1, max_size=2) | fuzz_junk,
    "--fn": st.dictionaries(st.sampled_from(["depth", "table"]), fuzz_junk),
}
SUBCOMMANDS = _subcommands()


def _fuzz_value(flag, action, spoiled):
    """Strategy for the text given to one flag (file contents for file flags)."""
    if flag in FUZZ_GOOD_FILES:
        if spoiled:
            return st.sampled_from([MISSING, NOT_JSON]) | FUZZ_BAD_FILES[flag]
        return FUZZ_GOOD_FILES[flag]
    if action.type is int:
        # Kept small: refinement is exponential in --depth and --K, and so
        # are the searches behind --level and --ell.
        return st.integers(-2, 3).map(str)
    if flag == "--anchor":
        return st.just("nope" if spoiled else "v")
    if flag == "--value":
        return st.sampled_from(["x", "1/0"]) if spoiled else fuzz_rationals
    if flag == "--json-out":
        return st.just("no_such_dir/out.json" if spoiled else "out.json")
    return st.sampled_from(FUZZ_BAD_WORDS if spoiled else FUZZ_WORDS)


# Every row of the command table is fuzzed on every run, a few calls each.
@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
@settings(max_examples=5, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_fuzz_main_prints_one_object_or_exits_two(tmp_path, name, data):
    actions = [a for a in SUBCOMMANDS[name]._actions if a.option_strings[-1] != "--help"]
    spoil = data.draw(st.sampled_from([None] + [a.option_strings[-1] for a in actions]),
                      label="spoiled flag")
    workdir = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
    argv = [name]
    for action in actions:
        flag = action.option_strings[-1]
        if not (action.required or flag == spoil or data.draw(st.booleans(), label=flag)):
            continue
        value = data.draw(_fuzz_value(flag, action, flag == spoil), label=flag)
        if flag in FUZZ_GOOD_FILES or flag == "--json-out":
            path = workdir / (flag[2:] + ".json" if flag in FUZZ_GOOD_FILES else value)
            if value is NOT_JSON:
                path.write_text("{not json", encoding="utf-8")
            elif flag in FUZZ_GOOD_FILES and value is not MISSING:
                path.write_text(json.dumps(value), encoding="utf-8")
            value = str(path)
        argv += [flag, value]
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return
    assert code in (0, 1)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert isinstance(out, dict) and out["ok"] is (code == 0)


def test_cocycle_commands_refuse_sources(ws, capsys):
    # u is the range of no edge.
    graph = ws["save"]("sourced.json", {
        "vertices": ["u", "v"],
        "edges": [{"id": "a", "range": "v", "source": "v"},
                  {"id": "f", "range": "v", "source": "u"}],
    })
    fn = ws["save"]("minus_one.json", {
        "depth": 1,
        "table": [{"path": ["a"], "value": "-1"}, {"path": ["f"], "value": "-1"}],
    })
    for argv in (
        ["analytic-member", "--graph", graph, "--fn", fn, "--alpha", "f", "--beta", ""],
        ["cocycle-check", "--graph", graph, "--fn", fn],
    ):
        code, out = run(capsys, argv)
        assert code == 1 and out["ok"] is False, argv
        assert out["error"]["code"] == "precondition_violation", argv
        assert "u is the range of no edge" in out["error"]["message"], argv
