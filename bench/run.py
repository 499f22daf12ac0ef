"""ckcalc benchmark: one seeded, closed-loop workload in this process.

    python3 bench/run.py --workload normal_form --seed 1 --seconds 15 --trace 0

One caller issues each library call only after the previous one returned.
The run sets up (import ckcalc, generate the corpus, write the cli inputs)
several times and keeps the median.  Each set-up first drops every module
loaded after interpreter start-up, so it pays for every import ckcalc and
the corpus make, the standard library's included, as a fresh process would.
Then one warm-up pass runs over the fixed op list, and the op list repeats
until `--seconds` of raw op time is measured.
Times are reported in reference seconds (see `Speed`).  Each answer is
checked against an independent reference outside the timed region.  With
`--trace 1` one more pass runs with every layer wrapped in spans, giving
the per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Workloads, metrics and predictions are described in bench/README.md.
"""

from __future__ import annotations

import sys

# Modules that interpreter start-up alone loads.  Every set-up drops all
# others before it imports ckcalc, so set-up time includes their imports.
STARTUP_MODULES = frozenset(sys.modules)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

import corpus  # noqa: E402
import spans as tracing  # noqa: E402

SETUPS = 5
CAP_S = 20.0  # per-op time cap; the slowest op takes under 1 s
CALIB_REF_S = 0.005  # the calibration kernel's time at reference speed
CALIB_EVERY_S = 0.1
ADDR_NO_RANDOMIZE = 0x0040000

# (span name, extra counters) reported with calls, and self_s unless COUNT_ONLY
TRACED = (
    ("scalars.GaussianRational.mul", ()),
    ("scalars.GaussianRational.add", ()),
    ("graph.underlying", ()),
    ("graph.max_simple_loop_length", ()),
    ("paths.EvPath.init", ()),
    ("paths.continuations", ("paths_out",)),
    ("paths.lex_compare", ()),
    ("paths.point_in_Z", ()),
    ("ckalg.AlgElement.init", ("terms_in", "terms_out")),
    ("ckalg.refine_children", ()),
    ("ckalg.mono_product", ("kept",)),
    ("ckalg.path_tail_of", ()),
    ("ckalg.evaluate", ()),
    ("bimodule.SpectrumSet.from_cylinders", ("cyl_in", "cyl_out")),
    ("bimodule.cyl_contains", ()),
    ("bimodule.member", ()),
    ("nest.in_alg_n", ()),
    ("nest.in_alg_n_oracle", ()),
    ("nest.level_atoms", ()),
    ("cocycle.eval_cocycle", ()),
    ("cocycle.eval_cocycle_tailed", ()),
    ("cocycle.reconstruct_f", ()),
    ("cli.main", ()),
    ("cli.build_parser", ()),
)


@dataclass(frozen=True)
class _Word:
    edges: tuple
    anchor: object = None


_WORDS = [tuple("ab"[(i >> j) & 1] for j in range(6)) for i in range(64)]


def calibration_kernel():
    """Fixed pure-Python work shaped like the library's: an argparse parser
    built and used, JSON out and in, then frozen dataclasses of edge tuples
    as dict keys with Fraction sums, and string formatting."""
    ap = argparse.ArgumentParser(prog="kernel")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("alpha", "beta", "gamma", "delta"):
        sp = sub.add_parser(name)
        sp.add_argument("--graph", required=True)
        sp.add_argument("--depth", type=int, default=None)
    args = ap.parse_args(["gamma", "--graph", "g.json", "--depth", "3"])
    json.loads(json.dumps({"ok": True, "value": {"re": "1/3", "im": "0"}, "cmd": args.cmd},
                          sort_keys=True))
    acc = {}
    parts = []
    for i in range(400):
        w = _WORDS[i % 64]
        key = (_Word(w[: 1 + i % 5]), _Word(w[i % 3:]))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7, 3)
        if len(acc) > 96:
            acc.clear()
        name, _, value = ("--%s=%d" % ("".join(w), i))[2:].partition("=")
        parts.append((name.upper(), int(value)))
        if len(parts) > 64:
            parts.clear()
    return len(acc) + len(parts)


class Speed:
    """The machine's speed, sampled with the calibration kernel between ops.

    A time multiplied by `factor(i)` reads in reference seconds: seconds on
    a machine where the kernel takes CALIB_REF_S.  On a shared machine the
    raw speed drifts by tens of percent within minutes; the kernel drifts
    with it, so the quotient stays steady.
    """

    def __init__(self):
        self.kernel_s = []
        self.last = 0.0

    def sample(self):
        t0 = time.perf_counter()
        calibration_kernel()
        self.last = time.perf_counter()
        self.kernel_s.append(self.last - t0)
        return len(self.kernel_s) - 1

    def due(self):
        return time.perf_counter() - self.last >= CALIB_EVERY_S

    def factor(self, i):
        """Scale for work done between samples i and i + 1."""
        return CALIB_REF_S / ((self.kernel_s[i] + self.kernel_s[i + 1]) / 2)


class Capped(Exception):
    """Raised in the running op when it exceeds the per-op time cap."""


def metric_name(span):
    # constructors are reported under the class name: paths.EvPath.calls
    return span[: -len(".init")] if span == "paths.EvPath.init" else span


def fresh_setup(args, workdir):
    """One set-up: import ckcalc from src/ and the corpus modules anew, with
    every module loaded after interpreter start-up dropped first, then build
    the op list.  The harness keeps its own references to the dropped
    modules; the library and the corpus share the fresh ones."""
    for name in [n for n in sys.modules if n not in STARTUP_MODULES]:
        del sys.modules[name]
    pkg = importlib.import_module("ckcalc")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError("ckcalc was not imported from %s" % SRC)
    mods = {n: importlib.import_module("ckcalc." + n) for n in tracing.LAYERS}
    mods["graph_mod"] = mods.pop("graph")
    gen = importlib.import_module("corpus")
    lib = gen.Lib(mods)
    return lib, gen.build(args.workload, lib, args.seed, args.size == "tiny", workdir)


def corrupt(result, lib):
    """A deliberately wrong answer of the same shape, for the self-test."""
    if isinstance(result, bool):
        return not result
    if isinstance(result, tuple) and result and isinstance(result[0], bool):
        return (not result[0],) + result[1:]
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], str):
        return (result[0], '{"ok": false}\n')
    if isinstance(result, lib.ckalg.AlgElement):
        return result + lib.ckalg.identity(result.graph)
    if isinstance(result, lib.bimodule.SpectrumSet):
        return lib.bimodule.SpectrumSet(result.graph, [])
    if isinstance(result, (lib.scalars.GaussianRational, int)) or hasattr(result, "denominator"):
        return result + 1
    return None


def result_size(result):
    terms = getattr(result, "terms", None)
    if isinstance(terms, dict):
        return {"terms_out": len(terms)}
    if hasattr(result, "cylinders"):
        return {"cylinders_out": len(result)}
    return {}


class Runner:
    def __init__(self, lib, ops, corrupt_every, speed):
        self.lib = lib
        self.speed = speed
        self.ops = ops
        self.corrupt_every = corrupt_every
        self.armed = False
        self.attempted = 0
        self.failed = 0
        self.capped = 0
        self.first_failure = None
        self.out_sizes = [None] * len(ops)
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if self.armed:
            raise Capped()

    def run_pass(self, tracer=None):
        """One pass over the op list; returns per-op raw and reference seconds."""
        times = []
        cal = []
        gc.collect()
        speed = self.speed
        at = speed.sample()
        for i, op in enumerate(self.ops):
            result = None
            if tracer is not None:
                tracer.install()
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, CAP_S)
            t0 = time.perf_counter()
            try:
                result = op.fn()
                status = "ok"
            except Capped:
                status = "capped"
            except Exception as exc:  # no library op here expects to raise
                status = "raised %s: %s" % (type(exc).__name__, exc)
            t1 = time.perf_counter()
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.uninstall()
            times.append(t1 - t0)
            cal.append(at)
            self.attempted += 1
            if self.corrupt_every and self.attempted % self.corrupt_every == 0:
                result = corrupt(result, self.lib)
            if status != "ok":
                ok = False
            else:
                try:
                    ok = bool(op.check(result))
                except Exception as exc:  # a check that cannot read the answer fails it
                    ok = False
                    status = "check raised %s: %s" % (type(exc).__name__, exc)
            if status == "capped":
                self.capped += 1
            if not ok:
                self.failed += 1
                if self.first_failure is None:
                    self.first_failure = (op.kind, op.sizes, status)
            if self.out_sizes[i] is None:
                self.out_sizes[i] = result_size(result)
            del result
            if speed.due():
                at = speed.sample()
        speed.sample()
        return times, [t * speed.factor(c) for t, c in zip(times, cal)]


def quantile(values, p, steps=16):
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all the
    order statistics, with weights from the Beta(p(n+1), (1-p)(n+1))
    density over the n equal slices of [0, 1].  Unlike the single middle
    order statistic it does not jump when two neighbouring ops of quite
    different cost trade places."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1
    log_density = [[a * math.log(t) + b * math.log1p(-t)
                    for t in ((i + (k + 0.5) / steps) / n for k in range(steps))]
                   for i in range(n)]
    top = max(max(row) for row in log_density)  # scaled so nothing underflows
    weights = [sum(math.exp(d - top) for d in row) for row in log_density]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def trace_metrics(tracer, traced_wall, untraced_wall):
    per_name, load_ns, ser_ns = tracer.aggregate()
    counters = tracer.counters
    m = {}

    def put(name, value, unit, note=""):
        m[name] = (value, unit, note)

    for layer in tracing.LAYERS:
        own = sum(s for nm, (c, s) in per_name.items() if nm.startswith(layer + "."))
        calls = sum(c for nm, (c, s) in per_name.items() if nm.startswith(layer + "."))
        put(layer + ".calls", calls, "count")
        put(layer + ".self_s", own / 1e9, "s")
    for span, extras in TRACED:
        calls, own = per_name.get(span, (0, 0))
        name = metric_name(span)
        put(name + ".calls", calls, "count")
        if span not in tracing.COUNT_ONLY:  # counted without a span: no self time
            put(name + ".self_s", own / 1e9, "s")
        for key in extras:
            put("%s.%s" % (name, key), counters.get("%s.%s" % (span, key), 0), "count")
    kept = counters.get("ckalg.mono_product.kept", 0)
    pairs = per_name.get("ckalg.mono_product", (0, 0))[0]
    put("ckalg.mono_product.kept_ratio", kept / pairs if pairs else 0.0, "ratio",
        "kept %d / calls %d" % (kept, pairs))
    t_in = counters.get("ckalg.AlgElement.init.terms_in", 0)
    t_out = counters.get("ckalg.AlgElement.init.terms_out", 0)
    put("ckalg.AlgElement.init.refine_ratio", t_out / t_in if t_in else 0.0, "ratio",
        "terms_out %d / terms_in %d" % (t_out, t_in))
    put("cli.load.self_s", load_ns / 1e9, "s")
    put("cli.serialize.self_s", ser_ns / 1e9, "s")
    put("trace.overhead_frac", traced_wall / untraced_wall - 1, "ratio",
        "traced wall %.4f s / untraced wall %.4f s" % (traced_wall, untraced_wall))
    put("trace.spans", tracer.span_count(), "count")
    return m


def pin_iteration_order(seed, argv):
    """Re-exec this process so set and dict iteration order repeats.

    Iteration order follows string hashes, which follow PYTHONHASHSEED, and,
    before Python 3.12, hash(None), which follows the address of None; that
    address is fixed once address-space randomisation is off for this
    process.  With both pinned, call counts repeat exactly between runs of
    one seed.  exec replaces the process image: no child process is started.
    """
    hash_seed = str(seed % 2 ** 32)
    if os.environ.get("PYTHONHASHSEED") == hash_seed:
        return
    os.environ["PYTHONHASHSEED"] = hash_seed
    try:
        import ctypes

        libc = ctypes.CDLL(None)
        persona = libc.personality(0xFFFFFFFF)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass  # counts may then differ by a few short-circuited calls
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + argv)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="op time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload, for the self-test")
    ap.add_argument("--corrupt-every", type=int, default=0,
                    help="corrupt every k-th answer before checking it (self-test)")
    args = ap.parse_args(argv)

    pin_iteration_order(args.seed, sys.argv[1:] if argv is None else list(argv))

    if not os.path.isfile(os.path.join(SRC, "ckcalc", "__init__.py")):
        print("bench: no ckcalc sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    speed = Speed()
    setups, raw_setups = [], []
    lib = ops = None
    at = speed.sample()
    for _ in range(SETUPS):
        del lib, ops
        gc.collect()  # the previous corpus and modules are cyclic garbage
        t0 = time.perf_counter()
        lib, ops = fresh_setup(args, workdir)
        raw_setups.append(time.perf_counter() - t0)
        at = speed.sample()
        setups.append(raw_setups[-1] * speed.factor(at - 1))
    gc.collect()
    gc.freeze()

    runner = Runner(lib, ops, args.corrupt_every, speed)
    runner.run_pass()  # warm-up: lazy caches fill, answers are still checked
    passes = []  # per pass: (raw seconds, reference seconds) per op
    while sum(sum(raw) for raw, _ in passes) < args.seconds or not passes:
        passes.append(runner.run_pass())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    lat = [statistics.median(t) for t in zip(*(ref for _, ref in passes))]
    raw_lat = [statistics.median(t) for t in zip(*(raw for raw, _ in passes))]
    wall_s = sum(lat)
    p50 = quantile(lat, 0.5) * 1e3
    p90 = quantile(lat, 0.9) * 1e3
    fail_frac = runner.failed / runner.attempted

    write_ops(args, ops, raw_lat, runner.out_sizes)
    print("workload %s seed %d: %d ops per pass, %d measured passes + 1 warm-up, "
          "%.1f s of raw op time; kernel %.2f ms median (reference %.2f ms)"
          % (args.workload, args.seed, len(ops), len(passes),
             sum(sum(raw) for raw, _ in passes),
             statistics.median(speed.kernel_s) * 1e3, CALIB_REF_S * 1e3))
    if runner.first_failure is not None:
        print("first failure: %s %s %s" % runner.first_failure)

    if args.trace:
        tracer = tracing.Tracer()
        _, traced = runner.run_pass(tracer=tracer)
        metrics = trace_metrics(tracer, sum(traced), wall_s)
        tracer.write(os.path.join(OUT, "spans-%s.bin" % args.workload))
        for name, (value, unit, note) in metrics.items():
            print("%-48s %16.6f %-6s %s" % (name, value, unit, note))
        result = {name: {"value": value, "unit": unit}
                  for name, (value, unit, _) in metrics.items()}
    else:
        beyond = sum(1 for t in lat if t * 1e3 > p90)
        note = "%d ops, each the median of %d passes" % (len(lat), len(passes))
        rows = (
            ("setup_s", statistics.median(setups), "s",
             "median of %d fresh set-ups (import ckcalc, corpus, cli inputs); raw %.4f s"
             % (len(setups), statistics.median(raw_setups))),
            ("wall_s", wall_s, "s", "sum over %s; raw %.4f s" % (note, sum(raw_lat))),
            ("op_p50_ms", p50, "ms", "%s; raw %.4f ms"
             % (note, quantile(raw_lat, 0.5) * 1e3)),
            ("op_p90_ms", p90, "ms", "%s, %d beyond p90; raw %.4f ms"
             % (note, beyond, quantile(raw_lat, 0.9) * 1e3)),
            ("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss of this process"),
            ("fail_frac", fail_frac, "ratio", "%d failed (%d capped) / %d attempted"
             % (runner.failed, runner.capped, runner.attempted)),
        )
        for name, value, unit, note in rows:
            print("%-12s %14.6f %-5s %s" % (name, value, unit, note))
        # fail_frac can be 0, so it travels as "failed"/"attempted" instead
        result = {name: {"value": value, "unit": unit}
                  for name, value, unit, _ in rows if name != "fail_frac"}
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result,
    }))
    return 0


def write_ops(args, ops, raw_lat, out_sizes):
    """Per-op sizes next to their raw median times, for reading a run later."""
    rows = []
    for op, t, out in zip(ops, raw_lat, out_sizes):
        row = {"kind": op.kind, "raw_median_ms": t * 1e3}
        row.update(op.sizes)
        row.update(out or {})
        rows.append(row)
    path = os.path.join(OUT, "ops-%s.json" % args.workload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "ops": rows}, fh, indent=0)


if __name__ == "__main__":
    sys.exit(main())
