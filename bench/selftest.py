"""Self-test of the benchmark harness: every workload at a tiny size.

    python3 bench/selftest.py

Checks, per workload, that an untraced run prints every end-to-end metric
by name with its unit, that a traced run prints every per-layer metric of
BENCHMARK.json, that answers the harness corrupts on purpose are all
counted as failures, and that the bypass predictions hold at this size.
Finally it checks that the benchmark fails, without printing a result, in
a directory that holds only BENCHMARK.json and the benchmark's files.
Runs the benchmark as child processes; exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
UNITS_E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
UNITS_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
PRINTED_E2E = dict(UNITS_E2E, fail_frac="ratio")
CORRUPT_EVERY = 5


def bench(cwd, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--seed", "3",
         "--seconds", "0.2", "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    return out, lines[:-1]


def check_units(metrics, units):
    assert set(metrics) == set(units), sorted(set(metrics) ^ set(units))
    for name, m in metrics.items():
        assert m["unit"] == units[name], (name, m)
        assert isinstance(m["value"], (int, float)), (name, m)


def check_workload(wl):
    out, text = result_of(bench(ROOT, "--workload", wl, "--trace", "0"))
    assert out["correct"] and out["failed"] == 0, (wl, text)
    check_units(out["metrics"], UNITS_E2E)
    for name, unit in PRINTED_E2E.items():
        assert any(ln.split()[:1] == [name] and unit in ln.split() for ln in text), (wl, name)
    for name in UNITS_E2E:
        assert out["metrics"][name]["value"] > 0, (wl, name)

    bad, text = result_of(bench(ROOT, "--workload", wl, "--trace", "0",
                                "--corrupt-every", str(CORRUPT_EVERY)))
    assert not bad["correct"], wl
    assert bad["failed"] == bad["attempted"] // CORRUPT_EVERY, (wl, bad["failed"], bad["attempted"])
    frac = [ln for ln in text if ln.startswith("fail_frac")][0].split()[1]
    assert abs(float(frac) - bad["failed"] / bad["attempted"]) < 1e-6, (wl, frac)

    traced, _ = result_of(bench(ROOT, "--workload", wl, "--trace", "1"))
    assert traced["correct"], wl
    check_units(traced["metrics"], UNITS_LAYER)
    calls = {k: v["value"] for k, v in traced["metrics"].items() if k.endswith(".calls")}
    if wl == "groupoid":
        for name in ("ckalg.AlgElement.init.calls", "ckalg.mono_product.calls",
                     "bimodule.SpectrumSet.from_cylinders.calls"):
            assert calls[name] == 0, (wl, name, calls[name])
    if wl == "cli":
        assert calls["cli.main.calls"] > 0
    else:
        assert all(v == 0 for k, v in calls.items() if k.startswith("cli.")), wl
    again, _ = result_of(bench(ROOT, "--workload", wl, "--trace", "1"))
    for name, value in calls.items():
        assert again["metrics"][name]["value"] == value, (wl, name)
    print("ok  %-12s %d ops attempted, %d of %d corrupted answers caught"
          % (wl, out["attempted"], bad["failed"], bad["attempted"]))


def check_bare_directory():
    bare = os.path.join(BENCH, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(BENCH):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(BENCH, name), os.path.join(bare, "bench"))
    try:
        proc = bench(bare, "--workload", "products", "--trace", "0")
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  without the sources the benchmark exits %d and prints no result"
          % proc.returncode)


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    for wl in names:
        check_workload(wl)
    check_bare_directory()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
