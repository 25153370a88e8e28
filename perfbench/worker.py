"""One benchmark process: set-up, the timed op loop, then the checks.

run.py starts this script in a fresh interpreter. It imports the
checkout's own src/superpatterns (never an installed copy), builds the
workload's inputs from the seed, prints READY, and, unless it was started
only to time set-up, runs the closed loop: one client sends its next op
when the previous one returns, repeating the fixed op list until the
measuring time is used. Every pass after the first rebuilds the inputs
from the seed, so that a cache the library keeps on its automaton objects
starts cold in every pass. The last stdout line is the result as JSON.

With --trace 1 it builds all four op lists (cli_oneshot included) and
gives each a quarter of the time, alternating untraced and traced passes,
so that every per-layer metric is measured in the workload that
exercises it; --workload is not used there.

--role record-digests rewrites mc_digests.json, the byte-identity
reference for the default seed's Monte-Carlo outputs:

    python3 perfbench/worker.py --workload monte_carlo --seed 0 --seconds 1 --role record-digests

Run it only on the commit whose outputs are meant to be the reference.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "mc_digests.json"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

from calibration import calibrate, scale  # noqa: E402
from checks import CheckFailed, expect, fingerprint  # noqa: E402
from run import DEFAULT_SEED, WORKLOADS  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402
from workloads import BUILDERS, monte_carlo  # noqa: E402

# the traced run profiles every op list, cli_oneshot's too
TRACED = ("cli_oneshot", *WORKLOADS)

CLI_TIMEOUT_S = 120
IMPORT_PROBES = 3
CLI_PROBES = 3
MIN_PASSES = 3
# A first pass this much slower than the median pass hints that a library
# cache keyed on argument values, which rebuilt inputs cannot reset, is
# warm in the later passes.
COLD_FLAG = 1.5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_library(with_cli: bool) -> SimpleNamespace:
    if not (SRC / "superpatterns" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no superpatterns package under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("superpatterns")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported {pkg.__file__}, not the checkout's src/")
    return SimpleNamespace(
        package=pkg,
        patterns=pkg.patterns,
        dfa=pkg.dfa,
        walks=pkg.walks,
        bounds=pkg.bounds,
        cli=importlib.import_module("superpatterns.cli") if with_cli else None,
    )


def load_oracles():
    spec = importlib.util.spec_from_file_location("superpatterns_test_oracles", ROOT / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# ---------------------------------------------------------------------------
# running ops


def cli_subprocess(op, ctx, env):
    proc = subprocess.run(
        [sys.executable, "-m", "superpatterns.cli", *op.argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout)


def cli_inprocess(lib, op, ctx):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib.cli.main(op.argv)
    if code != 0:
        raise RuntimeError(f"exit {code}")
    return json.loads(buf.getvalue())


class Ledger:
    """Every execution of every op of one workload: latencies, errors and
    output fingerprints per pass, and the first outputs for the checks,
    which are made on the first pass's op list."""

    def __init__(self, ops):
        self.ops = ops
        self.first: list = []
        self.first_err: list = []
        self.passes: list[dict] = []

    def run_pass(self, run_op, ops=None, tracer=None, label=None, calibrated=False) -> dict:
        """One pass over ops (by default the first op list). With
        calibrated, the calibration walk runs before the first op and
        after every op, so each op has one right before and one right
        after it."""
        ops = ops or self.ops
        ctx: dict = {}
        outs, errs, lat = [], [], []
        cal = [calibrate()] if calibrated else None
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            rec = tracer.begin(f"op.{op.name}", (label, len(self.passes), i)) if tracer else None
            s = time.perf_counter()
            try:
                out, err = run_op(op, ctx), None
            except Exception as e:  # an op that raises counts as failed
                out, err = None, f"{type(e).__name__}: {e}"
            lat.append(time.perf_counter() - s)
            if rec is not None:
                tracer.end(rec)
            if cal is not None:
                cal.append(calibrate())
            outs.append(out)
            errs.append(err)
        wall = time.perf_counter() - t0
        record = {
            "wall": wall,
            "lat": lat,
            "cal": cal,
            "err": errs,
            "fp": [None if e else fingerprint(o) for o, e in zip(outs, errs)],
            "traced": tracer is not None,
        }
        if not self.passes:
            self.first, self.first_err = outs, errs
        self.passes.append(record)
        return record

    def verify(self, check_output, seed: int, digests) -> tuple[int, int, list[str]]:
        """(attempted, failed, messages). An execution fails if it raised,
        if its output differs from the first pass, or if the first output
        broke its check, its threads=1 twin, or its recorded digest."""
        reasons = {}
        names = {op.name: i for i, op in enumerate(self.ops)}
        fp0 = self.passes[0]["fp"]
        for i, op in enumerate(self.ops):
            if self.first_err[i]:
                reasons[i] = self.first_err[i]
                continue
            try:
                check_output(op, self.first[i])
            except CheckFailed as e:
                reasons[i] = f"check: {e}"
            except Exception as e:  # a checker that crashes is a failed check
                reasons[i] = f"check raised {type(e).__name__}: {e}"
            if op.twin is not None and fp0[i] != fp0[names[op.twin]]:
                reasons.setdefault(i, f"threads={op.work.get('threads')} output differs from {op.twin}")
            if digests is not None and op.digest is not None:
                got = op.digest(self.first[i])
                if digests.get(op.name) != got:
                    reasons.setdefault(i, f"digest {got[:12]} differs from the one recorded for seed {seed}")
        attempted = failed = 0
        for p in self.passes:
            for i in range(len(self.ops)):
                attempted += 1
                if p["err"][i] or p["fp"][i] != fp0[i] or i in reasons:
                    failed += 1
        msgs = [f"{self.ops[i].name}: {r}" for i, r in sorted(reasons.items())]
        return attempted, failed, msgs


def op_check(op, out):
    if op.argv is not None:
        expect(isinstance(out, dict) and out.get("schema_version") == 1, f"{op.name}: not a schema-1 JSON document")
    op.check(out)


def tail_of(lat: list[float]) -> float:
    """Latency with exactly ten ops of the pass above it."""
    return sorted(lat)[len(lat) - 11]


def load_digests(seed: int):
    if seed != DEFAULT_SEED:
        return None
    return json.loads(DIGESTS.read_text())


# ---------------------------------------------------------------------------
# untraced run: the end-to-end metrics


def scaled_latencies(p: dict) -> list[float]:
    """A pass's op latencies at the reference speed, each scaled by the mean
    of the calibration walks run right before and right after it."""
    c = p["cal"]
    return [scale(t, (c[i] + c[i + 1]) / 2) for i, t in enumerate(p["lat"])]


def figures(lat: list[float]) -> dict:
    return {"wall_s": sum(lat), "op_p50_ms": 1000 * statistics.median(lat), "op_tail_ms": 1000 * tail_of(lat)}


def run_plain(name, ops, build, seed, seconds) -> dict:
    """End-to-end metrics from each op's median scaled latency over the
    passes: wall_s is the fixed op list at those latencies, op_p50_ms their
    median, op_tail_ms the one with ten ops above it. The unscaled
    per-pass figures, the calibration times and the first pass's scaled
    figures go to the details."""
    ledger = Ledger(ops)
    start = time.perf_counter()
    while True:
        ledger.run_pass(call_op, build() if ledger.passes else None, calibrated=True)
        elapsed = time.perf_counter() - start
        walls = [p["wall"] for p in ledger.passes]
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, msgs = ledger.verify(op_check, seed, load_digests(seed) if name == "monte_carlo" else None)
    n = len(ledger.ops)
    per_pass = [scaled_latencies(p) for p in ledger.passes]
    typical = [statistics.median(lat[i] for lat in per_pass) for i in range(n)]
    first, pass_walls = figures(per_pass[0]), [sum(lat) for lat in per_pass]
    cold_ratio = pass_walls[0] / statistics.median(pass_walls)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": msgs[:20],
        "passes": len(ledger.passes),
        "ops_per_pass": n,
        "tail_percentile": 100 * (n - 10) / n,
        "first_pass": first,
        "first_pass_ratio": cold_ratio,
        "first_pass_much_slower": cold_ratio > COLD_FLAG,
        "pass_scaled_wall_s": pass_walls,
        "pass_wall_s": walls,
        "pass_op_p50_ms": [1000 * statistics.median(p["lat"]) for p in ledger.passes],
        "pass_op_tail_ms": [1000 * tail_of(p["lat"]) for p in ledger.passes],
        "pass_cal_median_ms": [1000 * statistics.median(p["cal"]) for p in ledger.passes],
        "values": {**figures(typical), "peak_rss_mb": peak_mb, "error_rate": failed / attempted},
    }


def call_op(op, ctx):
    return op.call(ctx)


# ---------------------------------------------------------------------------
# traced run: the per-layer metrics

DFA_BUILD = ("dfa.build_greedy_dfa", "dfa.build_subset_dfa", "dfa.build_two_track_dfa", "dfa.random_k_dfa", "dfa.cheapen", "dfa.is_k_dfa")
IS_PATTERN = ("patterns.is_pattern", "patterns.find_embedding", "patterns.circular_contains")
# the layers each workload calls; the others would read 0 on every run
SHARES = {
    "cli_oneshot": ("cli", "walks", "dfa", "patterns", "bounds"),
    "exact_enum": ("walks", "dfa"),
    "monte_carlo": ("walks", "dfa"),
    "pattern_census": ("patterns", "bounds"),
}


class TracedWorkload:
    def __init__(self, name, ledger, tracer):
        self.ledger = ledger
        self.ops = ledger.ops
        self.traced = [p for p in ledger.passes if p["traced"]]
        self.plain = [p for p in ledger.passes if not p["traced"]]
        ids = {(name, k, i) for k, p in enumerate(ledger.passes) if p["traced"] for i in range(len(self.ops))}
        self.summary = summarize(tracer.spans, ids)
        self.traced_wall = sum(p["wall"] for p in self.traced)

    def self_s(self, *names) -> float:
        return sum(self.summary["self_s"].get(n, 0.0) for n in names) / len(self.traced)

    def layer_self(self, layer) -> float:
        return sum(t for n, t in self.summary["self_s"].items() if n.split(".")[0] == layer)

    def layer_calls(self, layer) -> float:
        return sum(c for n, c in self.summary["calls"].items() if n.split(".")[0] == layer) / len(self.traced)

    def op_time(self, pick) -> float:
        return sum(p["lat"][i] for p in self.traced for i, op in enumerate(self.ops) if pick(op))

    def rate(self, key, pick=lambda op: True) -> float:
        chosen = lambda op: key in op.work and pick(op)
        work = sum(op.work[key] for op in self.ops if chosen(op)) * len(self.traced)
        return work / self.op_time(chosen)

    def overhead(self) -> float:
        return statistics.median(p["wall"] for p in self.traced) - statistics.median(p["wall"] for p in self.plain)


def probe_import(env) -> float:
    code = "import time; t = time.perf_counter(); import superpatterns.cli; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_traced(lib, built, build, seconds, seed) -> dict:
    tracer = Tracer(lib)
    env = cli_env()
    views, attempted, failed, msgs = {}, 0, 0, []
    cli_extra = {}
    for name in TRACED:
        ops = built[name]
        start = time.perf_counter()
        if name == "cli_oneshot":
            cli_extra["import_s"] = statistics.median(probe_import(env) for _ in range(IMPORT_PROBES))
            probe = Ledger(ops[:CLI_PROBES])
            probe.run_pass(lambda op, ctx: cli_subprocess(op, ctx, env))
            a, f, m = probe.verify(op_check, seed, None)
            attempted, failed, msgs = attempted + a, failed + f, msgs + m
            cli_extra["subprocess_s"] = statistics.median(probe.passes[0]["lat"])
            run_op = lambda op, ctx: cli_inprocess(lib, op, ctx)
        else:
            run_op = call_op
        ledger = Ledger(ops)
        while True:
            ledger.run_pass(run_op, build(name) if ledger.passes else None)
            rebuilt = build(name)
            tracer.install()
            try:
                ledger.run_pass(run_op, rebuilt, tracer, name)
            finally:
                tracer.uninstall()
            if time.perf_counter() - start >= seconds / len(TRACED):
                break
        digests = load_digests(seed) if name == "monte_carlo" else None
        a, f, m = ledger.verify(op_check, seed, digests)
        attempted, failed, msgs = attempted + a, failed + f, msgs + m
        views[name] = TracedWorkload(name, ledger, tracer)

    ex, mc, pc, cl = views["exact_enum"], views["monte_carlo"], views["pattern_census"], views["cli_oneshot"]
    twins = {op.twin for op in mc.ops if op.twin}
    values = {
        "cli.import_s": cli_extra["import_s"],
        "cli.main_ms": 1000 * statistics.median(x for p in cl.plain for x in p["lat"]),
        "cli.import_share": cli_extra["import_s"] / cli_extra["subprocess_s"],
        "walks.exact_P.self_s": ex.self_s("walks.exact_P"),
        "walks.cost_distributions_by_length.self_s": ex.self_s("walks.cost_distributions_by_length"),
        "walks.exact.words_per_s": ex.rate("exact_words"),
        "dfa.perm_cost_census.self_s": ex.self_s("dfa.perm_cost_census"),
        "dfa.perm_cost_census.perms_per_s": ex.rate("census_perms"),
        "dfa.cheap_perm_count.self_s": ex.self_s("dfa.cheap_perm_count"),
        "dfa.build.self_s": ex.self_s(*DFA_BUILD),
        "dfa.walk_cost.self_s": ex.self_s("dfa.walk_cost"),
        "walks.estimate_P.self_s": mc.self_s("walks.estimate_P"),
        "walks.estimate_P.samples_per_s": mc.rate("mc_samples", lambda op: op.work["threads"] == 1),
        "walks.estimate_P.threads2_speedup": mc.op_time(lambda op: op.name in twins) / mc.op_time(lambda op: op.twin is not None),
        "walks.concentration_experiment.subset.samples_per_s": mc.rate("conc_subset_samples"),
        "walks.concentration_experiment.weighted.samples_per_s": mc.rate("conc_weighted_samples"),
        "walks.sample_x_sums.samples_per_s": mc.rate("xsum_samples"),
        "walks.CounterRng.draws_per_s": mc.rate("rng_draws"),
        "walks.clopper_pearson.self_s": mc.self_s("walks.clopper_pearson"),
        "patterns.f_oracle.self_s": pc.self_s("patterns.f_oracle"),
        "patterns.f_oracle.words_per_s": pc.rate("fo_words"),
        "patterns.pattern_set.self_s": pc.self_s("patterns.pattern_set"),
        "patterns.exhaustive_f_search.self_s": pc.self_s("patterns.exhaustive_f_search"),
        "patterns.is_pattern.self_s": pc.self_s(*IS_PATTERN),
        "bounds.self_s": pc.layer_self("bounds") / len(pc.traced),
        "bounds.calls": pc.layer_calls("bounds"),
    }
    for name, layers in SHARES.items():
        for layer in layers:
            values[f"{name}.{layer}.share"] = views[name].layer_self(layer) / views[name].traced_wall
    values["trace.overhead_s"] = sum(v.overhead() for v in views.values())

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-seed{seed}.jsonl", "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s) + "\n")
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": msgs[:20],
        "passes": {n: len(v.ledger.passes) for n, v in views.items()},
        "spans": len(tracer.spans),
        "values": values,
    }


# ---------------------------------------------------------------------------


def environment(lib) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "superpatterns": str(Path(lib.package.__file__).resolve().parent.relative_to(ROOT)),
    }


def record_digests(lib, oracles) -> None:
    """Write the byte-identity digests of every monte_carlo op for the
    default seed. Run once on the commit whose outputs are the reference."""
    ops = monte_carlo(lib, oracles, DEFAULT_SEED)
    DIGESTS.write_text(json.dumps({op.name: op.digest(op.call({})) for op in ops if op.digest}, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "run", "record-digests"), default="run")
    args = ap.parse_args()
    if not args.trace and args.role != "record-digests" and args.workload is None:
        ap.error("--workload is required with --trace 0")

    names = TRACED if args.trace else (args.workload,)
    lib = load_library(with_cli=bool(args.trace))
    oracles = load_oracles()
    if args.role == "record-digests":
        record_digests(lib, oracles)
        return 0
    build = lambda name: BUILDERS[name](lib, oracles, args.seed)
    built = {name: build(name) for name in names}
    for name, ops in built.items():
        for op in ops:
            if op.work.get("threads", 1) > nproc():
                print(f"perfbench: refusing {op.name}: {op.work['threads']} threads on {nproc()} cores", file=sys.stderr)
                return 2
    print("READY", flush=True)
    if args.role == "setup":
        return 0

    if args.trace:
        result = run_traced(lib, built, build, args.seconds, args.seed)
    else:
        result = run_plain(args.workload, built[args.workload], lambda: build(args.workload), args.seed, args.seconds)
    result["env"] = environment(lib)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
