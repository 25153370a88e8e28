"""Independent oracles for the benchmark's output checks.

None of these runs the code path it checks. Automaton cost histograms come
from the shifted Mahonian product or from a vectorised walk of every
injective word over the automaton's tables; Monte-Carlo streams are
re-derived from their published definition (BLAKE2b of (seed, i, counter),
64-bit words popped from the end of each block, rejection sampling);
Clopper-Pearson limits are checked against exact binomial tails; bounds
are checked with integer arithmetic instead of log space.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import struct
from fractions import Fraction
from itertools import permutations

import numpy as np


class CheckFailed(Exception):
    """An op's output broke its check."""


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Fingerprints: equal outputs give equal digests, whatever the dict order.


def canon(o):
    if isinstance(o, np.ndarray):
        return ("ndarray", str(o.dtype), o.shape, hashlib.sha256(o.tobytes()).hexdigest())
    if dataclasses.is_dataclass(o) and not isinstance(o, type):
        return (type(o).__name__, canon(vars(o)))
    if isinstance(o, dict):
        return ("dict", tuple(sorted(((canon(k), canon(v)) for k, v in o.items()), key=repr)))
    if isinstance(o, (set, frozenset)):
        return ("set", tuple(sorted((canon(x) for x in o), key=repr)))
    if isinstance(o, (list, tuple)):
        return tuple(canon(x) for x in o)
    if isinstance(o, Fraction):
        return ("Fraction", o.numerator, o.denominator)
    if isinstance(o, float):
        return ("float", repr(o))
    if isinstance(o, np.integer):
        return int(o)
    return o


def fingerprint(o) -> str:
    return hashlib.sha256(repr(canon(o)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Thresholds, taken from the decimal text of epsilon.


def cost_bound(k: int, L: int, eps_text: str, strict: bool = True) -> int:
    """Largest total cost counted against (1/2 - eps) k L."""
    thr = (Fraction(1, 2) - Fraction(eps_text)) * k * L
    return math.ceil(thr) - 1 if strict else math.floor(thr)


def share_at_most(hist: dict, bound: int) -> Fraction:
    return Fraction(sum(n for c, n in hist.items() if c <= bound), sum(hist.values()))


# ---------------------------------------------------------------------------
# Subset automaton: walking from the root pays the rank of each letter among
# those not yet read, so the length-L histogram is prod_m (q + ... + q^m)
# over the pool sizes m = k, k-1, ..., k-L+1 (OEIS A008302, shifted).


def mahonian(pool_sizes) -> dict:
    poly = [1]
    for m in pool_sizes:
        new = [0] * (len(poly) + m)
        window = 0
        for i in range(len(new)):
            if 0 <= i - 1 < len(poly):
                window += poly[i - 1]
            if 0 <= i - 1 - m < len(poly):
                window -= poly[i - 1 - m]
            new[i] = window
        poly = new
    return {c: n for c, n in enumerate(poly) if n}


def subset_root_hist(k: int, L: int) -> dict:
    return mahonian(range(k, k - L, -1))


def rank_costs(word) -> list[int]:
    """Step costs of walking an injective word from the subset root."""
    out = []
    for j, t in enumerate(word):
        out.append(t - sum(1 for u in word[:j] if u < t))
    return out


def subset_cost_matrix(k: int) -> np.ndarray:
    """cost[v, t-1] of every subset state v, from the SubsetDfa definition:
    unread letters get 1..k-|v| and read letters k-|v|+1..k, each group in
    ascending letter order."""
    states = np.arange(1 << k)
    bits = (states[:, None] >> np.arange(k)[None, :]) & 1
    read = bits.sum(axis=1, keepdims=True)
    below_unread = np.cumsum(1 - bits, axis=1) - (1 - bits)
    below_read = np.cumsum(bits, axis=1) - bits
    return np.where(bits == 0, below_unread + 1, k - read + below_read + 1)


# ---------------------------------------------------------------------------
# Explicit automata: walk every injective word at once over dense tables.

_WORDS: dict = {}


def injective_words(k: int, L: int) -> np.ndarray:
    key = (k, L)
    if key not in _WORDS:
        _WORDS[key] = np.array(list(permutations(range(k), L)), dtype=np.int64).reshape(-1, L) if L else np.zeros((1, 0), dtype=np.int64)
    return _WORDS[key]


@dataclasses.dataclass
class Tables:
    states: list
    index: dict
    delta: np.ndarray
    cost: np.ndarray


def tables(dfa) -> Tables:
    states = list(dfa.states)
    index = {v: i for i, v in enumerate(states)}
    delta = np.array([[index[u] for u in dfa.delta_row(v)] for v in states], dtype=np.int64)
    cost = np.array([list(dfa.cost_row(v)) for v in states], dtype=np.int64)
    return Tables(states, index, delta, cost)


def brute_hist(tab: Tables, k: int, start, L: int) -> dict:
    words = injective_words(k, L)
    v = np.full(len(words), tab.index[start], dtype=np.int64)
    total = np.zeros(len(words), dtype=np.int64)
    for j in range(L):
        t = words[:, j]
        total += tab.cost[v, t]
        v = tab.delta[v, t]
    vals, counts = np.unique(total, return_counts=True)
    return {int(a): int(b) for a, b in zip(vals, counts)}


def check_permutation_rows(tab: Tables, k: int, dominated=None) -> None:
    """Every cost row is a permutation of [k] (a k-DFA), and, if given,
    no entry exceeds the matching entry of dominated."""
    expected = np.arange(1, k + 1)
    for i, row in enumerate(tab.cost):
        expect(np.array_equal(np.sort(row), expected), f"row {i} is not a permutation of [{k}]")
        if dominated is not None:
            expect(all(a <= b for a, b in zip(row, dominated[i])), f"row {i} costs more than before")


def greedy_rows(word, k: int):
    """(delta, cost) rows of the greedy automaton of word, by direct scan."""
    n = len(word)
    delta, cost = [], []
    for v in range(n + 1):
        drow, crow = [], []
        for t in range(1, k + 1):
            nxt = next((i for i in range(v + 1, n + 1) if word[i - 1] == t), None)
            drow.append(v if nxt is None else nxt)
            crow.append(math.inf if nxt is None else nxt - v)
        delta.append(drow)
        cost.append(crow)
    return delta, cost


def greedy_walk_total(word, walk):
    """End position of the greedy embedding of walk into word, or inf."""
    pos = 0
    for t in walk:
        nxt = next((i for i in range(pos + 1, len(word) + 1) if word[i - 1] == t), None)
        if nxt is None:
            return math.inf
        pos = nxt
    return pos


# ---------------------------------------------------------------------------
# Counter-mode streams, re-derived from their definition.


class Stream:
    def __init__(self, seed: int, stream: int):
        self._key = seed.to_bytes(16, "little", signed=True) + stream.to_bytes(16, "little")
        self._block = 0
        self._words: list[int] = []

    def below(self, n: int) -> int:
        limit = (2**64 // n) * n
        while True:
            if not self._words:
                digest = hashlib.blake2b(
                    self._key + struct.pack("<Q", self._block), digest_size=64
                ).digest()
                self._block += 1
                self._words = list(struct.unpack("<8Q", digest))
            r = self._words.pop()
            if r < limit:
                return r % n


def sampled_word(seed: int, i: int, k: int, L: int) -> list[int]:
    """Sample i's injective word: partial Fisher-Yates on 1..k."""
    s = Stream(seed, i)
    pool = list(range(1, k + 1))
    for j in range(L):
        at = j + s.below(k - j)
        pool[j], pool[at] = pool[at], pool[j]
    return pool[:L]


def row_walk_total(tab: Tables, start, word) -> int:
    v = tab.index[start]
    total = 0
    for t in word:
        total += int(tab.cost[v, t - 1])
        v = int(tab.delta[v, t - 1])
    return total


def x_ranks_by_rows(tab: Tables, start, word) -> list[int]:
    """Rank of each paid cost among the costs of the letters not yet read."""
    v = tab.index[start]
    unread = set(range(1, len(tab.cost[0]) + 1))
    out = []
    for t in word:
        row = tab.cost[v]
        c = row[t - 1]
        out.append(sum(1 for u in unread if row[u - 1] <= c))
        unread.discard(t)
        v = int(tab.delta[v, t - 1])
    return out


def window(k: int, M: int, m1: int) -> list[int]:
    return [j for j in range(1, k + 1) if m1 * k < j * M <= (m1 + 1) * k]


def con1_event(x_ranks, k: int, M: int, m1: int, m2: int, eps_star: float) -> bool:
    hits = sum(1 for j in window(k, M, m1) if x_ranks[j - 1] * M > m2 * (k - j + 1))
    return hits < (1 - eps_star) * (1 - m2 / M) * k / M


def con2_event(t_min, k: int, M: int, m1: int, m2: int, eps_star: float) -> bool:
    """t_min(j, x): min over states of the prefix letters (first j-1) whose
    cost is at most x."""
    x = m2 * k / M
    return any(t_min(j, x) < (1 - eps_star) * (m2 / M) * (j - 1) for j in window(k, M, m1))


# ---------------------------------------------------------------------------
# Clopper-Pearson: the limits solve exact binomial tail equations.


def binom_mass(n: int, lo: int, hi: int, p: float) -> float:
    """P[lo <= Bin(n, p) <= hi]."""
    lp, lq = math.log(p), math.log1p(-p)
    base = math.lgamma(n + 1)
    logs = [
        base - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * lp + (n - i) * lq
        for i in range(lo, hi + 1)
    ]
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(x - top) for x in logs)


def check_clopper_pearson(hits: int, n: int, lo: float, hi: float, confidence: float = 0.99) -> None:
    half = (1 - confidence) / 2
    expect(0.0 <= lo <= hits / n <= hi <= 1.0, f"interval [{lo}, {hi}] misses {hits}/{n}")
    if hits == 0:
        expect(lo == 0.0, "lower limit must be 0 at 0 successes")
    else:
        tail = binom_mass(n, hits, n, lo)
        expect(abs(tail - half) <= 1e-6 * half, f"P[X>={hits} | {lo}] = {tail}, want {half}")
    if hits == n:
        expect(hi == 1.0, "upper limit must be 1 when every sample succeeds")
    else:
        tail = binom_mass(n, 0, hits, hi)
        expect(abs(tail - half) <= 1e-6 * half, f"P[X<={hits} | {hi}] = {tail}, want {half}")


def check_close_to(p_hat: float, p: float, n: int, what: str) -> None:
    """A seeded estimate within six standard errors of the exact value."""
    sd = math.sqrt(max(p * (1 - p), 0.0) / n)
    expect(abs(p_hat - p) <= 6 * sd + 1.0 / n, f"{what}: estimate {p_hat} vs exact {p}")


# ---------------------------------------------------------------------------
# Bounds, in exact integer arithmetic.


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def log_birthday(k: int, L: int) -> float:
    return L * math.log(k) - math.log(math.perm(k, L))


def infeasible(k: int, r: int, F: int) -> bool:
    return math.comb(r, k) * F < math.factorial(k)


def gupta_holds(k: int, n: int, F: int) -> bool:
    return math.factorial(k) <= 2 * n * F


def stirling2_sum(n: int, k: int) -> int:
    """Words of length n over at most k letters, up to relabelling."""
    row = [1] + [0] * k
    for _ in range(n):
        new = [0] * (k + 1)
        for j in range(1, k + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return sum(row)
