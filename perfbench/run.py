"""Benchmark of the superpatterns toolkit, run against the checkout's src/.

    python3 perfbench/run.py --workload exact_enum --seed 3 --seconds 20 --trace 0

Workloads (closed loop, one client, one op at a time):

- exact_enum: exact_P / exact_P_max / cost_distributions_by_length /
  perm_cost_census / cheap_perm_count, full-length queries at k = 8 mixed
  with short ones at k = 12..14 and tight budgets at k = 8..9.
- monte_carlo: estimate_P (some ops repeated at threads=2),
  concentration_experiment, sample_x_sums and CounterRng, with large
  (>= 20k samples) and small (<= 500) batches.
- pattern_census: f_oracle, exhaustive_f_search, pattern_set,
  is_superpattern, is_pattern / find_embedding / circular_contains, and the
  bounds certificates fed from the census results.

Each op is timed in every pass next to a fixed calibration walk, its
latency is scaled to the speed at which that walk takes 0.5 ms, and its
median scaled latency over the run stands for it (see calibration.py and
worker.run_plain). With --trace 0 the last stdout line holds the
end-to-end metrics: wall_s (the fixed op list at those latencies),
op_p50_ms (their median), op_tail_ms (the one with ten ops of the list
above it), setup_s (median of several fresh-interpreter set-ups: import
superpatterns and build the inputs; each scaled by a reference import
timed right before and right after it, see calibration.py) and
peak_rss_mb, next to the op counts attempted and failed. The line before
it repeats everything with units, plus error_rate (failed/attempted), the
tail percentile, the unscaled and per-pass figures, the environment and
any failures.

With --trace 1 the last line holds the per-layer metrics from spans
around calls into the library (see worker.py). The traced run profiles
every op list, including cli_oneshot (the README's fast subcommands run
as fresh `python -m superpatterns.cli` subprocesses and in-process), so
--workload may be left out there and, if given, only names the result
file. cli_oneshot has no untraced run: its second-long ops took 40-50 s a
run and spread too widely across seeds. Results and spans are also
written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibration import reference_import, scale_setup

WORKLOADS = ("exact_enum", "monte_carlo", "pattern_census")
DEFAULT_SEED = 0
SETUPS = 5
DEADLINE_S = 170

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}
END_TO_END = ("wall_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb")


class WorkerFailed(Exception):
    pass


def remaining(deadline: float) -> float:
    return max(deadline - time.monotonic(), 0.0)


def spawn(args, role: str, deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from start to READY, its result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        *(["--workload", args.workload] if args.workload else []), "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(remaining(deadline), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise WorkerFailed(f"{role} worker exited with {code} before finishing")
    if role == "setup":
        return ready_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed no result")
    return ready_s, json.loads(lines[-1])


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description="superpatterns benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, help="required with --trace 0")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 120:
        ap.error("--seconds must be between 1 and 120")
    if not args.trace and args.workload is None:
        ap.error("--workload is required with --trace 0")
    deadline = time.monotonic() + DEADLINE_S

    try:
        setups, refs = [], []
        if not args.trace:
            refs.append(reference_import(ROOT, remaining(deadline)))
            for _ in range(SETUPS):
                setups.append(spawn(args, "setup", deadline)[0])
                refs.append(reference_import(ROOT, remaining(deadline)))
        _, result = spawn(args, "run", deadline)
    except (WorkerFailed, OSError, ValueError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    values = result["values"]
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
        summary = metrics
    else:
        values["setup_s"] = statistics.median(
            scale_setup(t, (refs[i] + refs[i + 1]) / 2) for i, t in enumerate(setups)
        )
        summary = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
        metrics = {k: summary[k] for k in END_TO_END}
    details = {
        "workload": args.workload or "all",
        "seed": args.seed,
        "trace": args.trace,
        "summary": summary,
        "env": {**result.pop("env"), "git_sha": git_sha(), "seed": args.seed},
        "setup_runs_s": setups,
        "reference_import_s": refs,
        **{k: v for k, v in result.items() if k not in ("values", "attempted", "failed")},
    }
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / f"result-{args.workload or 'all'}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": final}, indent=1) + "\n"
    )
    print(json.dumps(details))
    print(json.dumps(final))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("words_per_s"):
        return "words/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", "_share", "_speedup")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
