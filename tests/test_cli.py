import json

import pytest

from ckcalc.cli import main


O2_GRAPH = {
    "vertices": ["v"],
    "edges": [
        {"id": "a", "range": "v", "source": "v"},
        {"id": "b", "range": "v", "source": "v"},
    ],
    "order": ["a", "b"],
}

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
