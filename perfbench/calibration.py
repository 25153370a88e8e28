"""Times scaled to a reference speed of the host.

On the 2-core shared VM the benchmark was tuned on, the host's speed drops
by up to 2x in spells that last from seconds to minutes, with no CPU
steal: the process keeps running, only slower. Two references, run right
next to what they scale, take most of that out.

Ops: a fixed piece of Python like the library's own inner loops slows
about as much as the library does, so the ratio of an op's time to that
loop's time, taken right before and right after the op, holds where the
raw time does not. The loop is a depth-first walk of every injective word
of length 4 over 7 letters through a fixed 16-state automaton, summing
step costs into a histogram: recursion, list indexing, bit tests and dict
updates, the mix the enumeration, sampling and pattern code spend their
time on. Of the loops tried (integer arithmetic, dict lookups over a large
table, allocation of small tuples and lists), its ratio to the
benchmark's ops moved least when the host's speed changed. Op times are
reported at the speed at which the walk takes REF_S.

Set-ups: a fresh interpreter importing the library and building the
inputs is mostly imports and page faults, which a slow spell slows by a
different factor than bytecode, and the walk does not track it. A fresh
interpreter importing numpy and scipy.special, which do not change with
the library, does: over seven minutes in which medians of set-ups ranged
1.6x, medians of set-ups scaled by that import, timed right before and
right after each, ranged 1.15x. Set-up times are reported at the speed at
which that import takes REF_IMPORT_S.
"""

from __future__ import annotations

import subprocess
import sys
import time

REF_S = 0.0005
REF_IMPORT = "import numpy, scipy.special"
REF_IMPORT_S = 0.5

K, STATES, DEPTH = 7, 16, 4
COST = [[(v * 3 + t * 5) % K + 1 for t in range(K)] for v in range(STATES)]
DELTA = [[(v + t + 1) % STATES for t in range(K)] for v in range(STATES)]


def _walk(v: int, used: int, cost: int, depth: int, hist: dict) -> None:
    if depth == DEPTH:
        hist[cost] = hist.get(cost, 0) + 1
        return
    for t in range(K):
        if not used >> t & 1:
            _walk(DELTA[v][t], used | 1 << t, cost + COST[v][t], depth + 1, hist)


def calibrate() -> float:
    """Seconds for one run of the calibration walk."""
    t = time.perf_counter()
    _walk(0, 0, 0, 0, {})
    return time.perf_counter() - t


def scale(seconds: float, cal_s: float) -> float:
    """seconds, measured while the walk took cal_s, at the reference speed."""
    return seconds * REF_S / cal_s


def reference_import(cwd, timeout: float) -> float:
    """Seconds for a fresh interpreter to run REF_IMPORT."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", REF_IMPORT], cwd=cwd, check=True, capture_output=True, timeout=timeout)
    return time.perf_counter() - t


def scale_setup(seconds: float, ref_s: float) -> float:
    """A set-up's seconds, measured while the reference import took ref_s,
    at the reference speed."""
    return seconds * REF_IMPORT_S / ref_s
