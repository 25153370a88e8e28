"""Random permutational words and cost statistics of automaton walks.

A *permutational word* is an injective word over [k] (a permutation when
its length reaches k). For a k-DFA D, a state v, and a length L, the
central quantity is

    P(v, L, eps) = P[ cost of walking a uniform random permutational word
                      of length L from v is below (1/2 - eps) * k * L ]

evaluated here both exactly (by exhausting injective words) and by Monte
Carlo with Clopper-Pearson intervals.

Walk costs on k-DFAs decompose per step as C_j = X_j + Y_j, where X_j is
the rank of the paid cost among the costs (at the current state) of the
letters not yet read, and Y_j >= 0 is the number of cost values below C_j
already burned by earlier letters. Over a uniform random permutation the
X_j are independent and uniform on [k-j+1] regardless of the automaton,
where [m] = {1..m}; so E[sum_j X_j] = sum_{m=1..k} (m+1)/2 = (k^2+3k)/4
exactly.

X and T have one definition each: the scalar xy_decompose and t_statistic
are views of the matrix kernels _x_ranks and the cost matrix. A table
automaton's numpy tables (WeightedDfa._tables: cost and successor
matrices) are built once per automaton and kept, read-only, with its state
index and k-DFA verdict, so every call and every sample block on it reads
the same arrays; SubsetDfa keeps nothing and walks by its rank formula.

Monte-Carlo reproducibility: every sample i draws from a BLAKE2b
counter-mode stream keyed by (seed, i) (counter-based generation as in
Salmon et al., SC'11) and shuffles by partial Fisher-Yates, so a fixed
seed gives bit-identical estimates. Every stream is read through
_stream_blocks, the one place BLAKE2b is keyed: CounterRng for one stream,
and _perm_blocks for streams 0..samples-1 at once. _perm_blocks yields
blocks of _BLOCK_ROWS rows drawn in numpy; a row whose stream rejects a
word is redrawn by the scalar definition, _shuffled over CounterRng.
Walks on the subset automaton (_subset_costs) keep the letters read as
uint64 bit masks, so a step costs O(1) per row at any k.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import asdict, dataclass
from fractions import Fraction
from hashlib import blake2b

import numpy as np

from . import _WALKS_EXPORTS
from .dfa import (
    SubsetDfa, _injective_cost_layers, _last_cost_layer, _suffix_sums, _unpack,
    is_k_dfa, walk_cost,
)
from .patterns import MAX_ENUM_WORDS, _check_count, _integral_letters

# the package's lazy loader serves these names; its set is the one list
__all__ = sorted(_WALKS_EXPORTS)

# Rows the batched sampler hashes, shuffles and walks at a time: a fixed
# size keeps its temporaries, and so peak memory, flat in the sample count.
_BLOCK_ROWS = 2048

# Cells (rows x steps) _subset_costs walks at a time: each of its uint64
# temporaries stays at 128 KB (with 0.5-1 MB ones the walk ran 2-4x slower
# per cell on a 2-core x86 host).
_WALK_CELLS = 1 << 14

_unpack_block = struct.Struct("<8Q").unpack


def _stream_blocks(seed: int, streams, counters):
    """The BLAKE2b-512 digest of seed || stream || counter (16 bytes signed,
    16 bytes and 8 bytes, all little-endian) for each stream in streams
    and, within it, each counter in counters.

    The seed's state is keyed once; each stream copies it and absorbs its
    16 bytes, and each block copies that and absorbs its counter, so the
    argument parsing of a blake2b() call is paid once, not per block.
    A range of counters is encoded once, not once per stream, and a
    one-counter range absorbs stream || counter in one update of a copy
    of the keyed state. Any other iterable is encoded as it is read:
    CounterRng passes itertools.count(), which has no end.
    A seed outside [-2**127, 2**127) is refused before any digest.
    """
    if not -(1 << 127) <= seed < 1 << 127:
        raise ValueError(f"seed must lie in [-2**127, 2**127), got {seed}")
    keyed = blake2b(seed.to_bytes(16, "little", signed=True), digest_size=64)
    ranged = isinstance(counters, range)
    if ranged:
        tails = [c.to_bytes(8, "little") for c in counters]
        if len(tails) == 1:
            (tail,) = tails
            for stream in streams:
                block = keyed.copy()
                block.update(stream.to_bytes(16, "little") + tail)
                yield block.digest()
            return
    for stream in streams:
        state = keyed.copy()
        state.update(stream.to_bytes(16, "little"))
        for tail in tails if ranged else (c.to_bytes(8, "little") for c in counters):
            block = state.copy()
            block.update(tail)
            yield block.digest()


class CounterRng:
    """Uniform integers from BLAKE2b in counter mode.

    The pair (seed, stream) names an independent, reproducible stream;
    sampling loops use one stream per sample index. Block c of the stream
    is the digest of seed || stream || c (see _stream_blocks), and its
    eight little-endian 64-bit words are drawn last to first.
    """

    __slots__ = ("_blocks", "_pool")

    def __init__(self, seed: int, stream: int = 0):
        if not 0 <= stream < 1 << 128:
            raise ValueError(f"stream must lie in [0, 2**128), got {stream}")
        self._blocks = _stream_blocks(seed, (stream,), itertools.count())
        self._pool: list[int] = []

    def bits64(self) -> int:
        if not self._pool:
            self._pool = list(_unpack_block(next(self._blocks)))
        return self._pool.pop()

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError("empty range")
        limit = ((1 << 64) // n) * n
        while True:
            r = self.bits64()
            if r < limit:
                return r % n


@dataclass(frozen=True)
class PermutationalWord:
    """An injective word over [k]; length at most k."""

    letters: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self):
        (k,) = _integral_letters((self.alphabet_size,), "alphabet size")
        if k < 0:
            raise ValueError("alphabet_size must be non-negative")
        object.__setattr__(self, "alphabet_size", k)
        object.__setattr__(self, "letters", _integral_letters(self.letters))
        if len(set(self.letters)) != len(self.letters):
            raise ValueError(f"{self.letters!r} repeats a letter")
        for x in self.letters:
            if not (1 <= x <= k):
                raise ValueError(f"letter {x!r} outside alphabet [{k}]")

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)


def _shuffled(k: int, L: int, randrange) -> list[int]:
    """1..k with its first L slots shuffled by partial Fisher-Yates.

    Slot i swaps with slot i + randrange(k - i), for i = 0..L-1 in order.
    This is the definition every Monte-Carlo sample follows; the batched
    _perm_blocks reproduces it and falls back to it on rejection.
    """
    pool = list(range(1, k + 1))
    for i in range(L):
        j = i + randrange(k - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool


def sample_perm_word(k: int, L: int, rng) -> PermutationalWord:
    """A uniform random injective word of length L over [k].

    Partial Fisher-Yates: shuffle only the first L slots of 1..k and take
    them; each of the k!/(k-L)! outcomes is equally likely. rng needs a
    randrange(n) method (CounterRng or random.Random both work).
    """
    if not (0 <= L <= k):
        raise ValueError(f"need 0 <= L <= k, got L={L}, k={k}")
    return PermutationalWord(tuple(_shuffled(k, L, rng.randrange)[:L]), k)


def restriction(w, E) -> PermutationalWord:
    """The subword of w on the index set E, indices in increasing order.

    Restriction preserves uniformity: if w is a uniform permutational word
    then so is w restricted to any fixed E.
    """
    if isinstance(w, PermutationalWord):
        letters, k = w.letters, w.alphabet_size
    else:
        letters = _integral_letters(w)
        k = max(letters, default=0)
    idx = sorted(set(_integral_letters(E, "index")))
    for e in idx:
        if not (1 <= e <= len(letters)):
            raise IndexError(f"index {e} out of range 1..{len(letters)}")
    return PermutationalWord(tuple(letters[e - 1] for e in idx), k)


# ---------------------------------------------------------------------------
# Exact evaluation


def cost_distributions_by_length(dfa, start, max_len: int, *, max_words: int = MAX_ENUM_WORDS):
    """Cost distribution of every injective walk from start, per length.

    Returns a list dists with dists[L] = Counter {total cost: number of
    injective length-L words paying it}. From the root of a SubsetDfa it
    is the closed-form product prod (q + ... + q^m) over m = k-L+1..k;
    otherwise one layered DP over (state, set of letters read), integer
    keyed, with at most |V| * 2^k entries per layer. The cap still counts
    the injective words of lengths 1..max_len.
    """
    _check_enumeration(dfa, start, max_len, max_words)
    return _injective_cost_layers(dfa, start, max_len)


def _check_enumeration(dfa, start, max_len: int, max_words: int) -> None:
    k = dfa.alphabet_size
    if not dfa.has_state(start):
        raise ValueError(f"unknown state {start!r}")
    if not (0 <= max_len <= k):
        raise ValueError(f"need 0 <= max_len <= k, got {max_len}")
    what = f"the count of injective words of lengths 1..{max_len} over [{k}]"
    _check_count(what, max_words, k, max_len, -1, True)


def _threshold(k: int, L: int, epsilon: float) -> Fraction:
    # exact rational form of (1/2 - eps) * k * L
    return (Fraction(1, 2) - Fraction(epsilon)) * k * L


def _cost_bound(k: int, L: int, epsilon: float, strict: bool) -> int:
    """Largest integer cost counted by the comparator against the
    threshold (1/2 - eps)kL.

    A float epsilon is read through its shortest decimal (0.1 as 1/10,
    not the double above it), so integer ties count under <=. An epsilon
    outside [0, 1/2], NaN included, is refused.
    """
    if not (0 <= epsilon <= 0.5):
        raise ValueError(f"need 0 <= epsilon <= 1/2, got {epsilon!r}")
    if isinstance(epsilon, float):
        # repr is the shortest decimal: digits, a point, an exponent
        mantissa, _, exp = repr(float(epsilon)).partition("e")
        whole, _, frac = mantissa.partition(".")
        p, shift = int(whole + frac), int(exp or 0) - len(frac)
        p, q = (p * 10**shift, 1) if shift >= 0 else (p, 10**-shift)
    else:
        p, q = Fraction(epsilon).as_integer_ratio()
    # (1/2 - p/q) k L = num / den, den > 0
    num, den = (q - 2 * p) * k * L, 2 * q
    return -(-num // den) - 1 if strict else num // den


def _share_within(dfa, state, L: int, bound: int, max_words: int) -> Fraction:
    # cost_distributions_by_length(...)[L], with no shorter length decoded
    _check_enumeration(dfa, state, L, max_words)
    dist = _last_cost_layer(dfa, state, L)
    hits = sum(c for cost, c in dist.items() if cost <= bound)
    return Fraction(hits, sum(dist.values()))


def exact_P(
    dfa,
    state,
    L: int,
    epsilon: float,
    *,
    strict: bool = True,
    max_words: int = MAX_ENUM_WORDS,
) -> Fraction:
    """Exact P(state, L, eps) as a fraction.

    strict=True counts cost < (1/2-eps)kL (the probability definition);
    strict=False counts cost <= threshold (the "bad word" convention).
    """
    if not is_k_dfa(dfa):
        raise ValueError("exact_P needs a k-DFA (every cost row a permutation)")
    bound = _cost_bound(dfa.alphabet_size, L, epsilon, strict)
    return _share_within(dfa, state, L, bound, max_words)


def exact_P_max(
    dfa,
    L: int,
    epsilon: float,
    *,
    strict: bool = True,
    max_words: int = MAX_ENUM_WORDS,
) -> Fraction:
    """max over states of exact_P (the form the walk bounds are stated for).

    On a SubsetDfa it is exact_P at the root, which bounds every k-DFA. In
    a k-DFA each cost row is a permutation of [k], so reading letter t at
    step j pays c(v, t) >= X_j, the rank of c(v, t) among the costs of the
    k - j + 1 letters not yet read. From any start the rank vectors (X_1,
    ..., X_L) of the injective length-L words run once through [k] x [k-1]
    x ... x [k-L+1] (each step picks the unread letter of rank X_j), so at
    most as many words cost within the bound as there are rank vectors
    whose sum is within it. From its root the subset automaton pays
    exactly the sum of the X_j and reaches that count, so no start of any
    k-DFA, its own included, beats the root.

    On a table automaton with |V| <= s! states, where s = min(L, k // 2),
    one suffix DP (dfa._suffix_sums) counts the words within the bound
    from every start at once. Its widest layer, s, holds |V| * C(k, s)
    entries, no more than the perm(k, s) that one DP per start may hold
    there, so the cap on the words bounds both. With more states exact_P's
    DP runs per start instead.
    """
    if not is_k_dfa(dfa):
        raise ValueError("exact_P_max needs a k-DFA (every cost row a permutation)")
    k = dfa.alphabet_size
    bound = _cost_bound(k, L, epsilon, strict)
    if isinstance(dfa, SubsetDfa):
        return _share_within(dfa, dfa.root, L, bound, max_words)
    _check_enumeration(dfa, dfa.root, L, max_words)
    if len(dfa.states) > math.factorial(min(L, k // 2)):
        return max(_share_within(dfa, v, L, bound, max_words) for v in dfa.states)
    sums, width = _suffix_sums(dfa, L, bound)
    return Fraction(max(sum(_unpack(p, width).values()) for p in sums), math.perm(k, L))


# ---------------------------------------------------------------------------
# Monte Carlo


def _perm_blocks(k: int, samples: int, seed: int, L: int | None = None):
    """Rows 0..samples-1 of the seed's streams, each 1..k with its first L
    slots (all k by default) shuffled, as int arrays of _BLOCK_ROWS rows
    (the last may be shorter) and k columns: row i equals _shuffled(k, L,
    CounterRng(seed, i).randrange).

    Every row's ceil(L/8) BLAKE2b blocks come from one _stream_blocks
    generator, the stream CounterRng defines. Each block of rows is built
    by _perm_block, so the suspended generator holds none of its digests:
    a block's 64-byte digests would otherwise stay alive while the caller
    walks the rows.
    """
    L = k if L is None else L
    streams = range(samples)
    blocks = _stream_blocks(seed, streams, range(-(-L // 8)))
    for lo in range(0, samples, _BLOCK_ROWS):
        yield _perm_block(k, L, seed, streams[lo : lo + _BLOCK_ROWS], blocks)


def _perm_block(k: int, L: int, seed: int, streams: range, blocks) -> np.ndarray:
    """The rows of _perm_blocks for streams, from the next len(streams) *
    ceil(L/8) digests of blocks. The digests become one uint64 matrix;
    draw i of a row is the i-th word CounterRng.bits64 would pop, mod n =
    k - i, unless some word of the row falls at or above floor(2^64/n)*n
    for its n. One compare against per-column limits finds those rows
    before the modulo runs in place on the matrix; the partial Fisher-Yates
    swaps then run one column at a time for all rows, through flat indices
    into the pool. A row with a rejected word is redrawn by _shuffled
    itself."""
    rows, width = len(streams), 8 * -(-L // 8)
    # fromiter takes exactly count digests, copying each as it comes: a
    # list of thousands of small bytes objects left about 2 MB of heap
    # resident
    digests = np.fromiter(blocks, dtype="S64", count=rows * width // 8)
    words = digests.view("<u8").reshape(rows, width)
    # draw i pops word 7 - i % 8 of block i // 8 and accepts words up to
    # floor(2^64/n)*n - 1 for n = k - i, which fits in 64 bits; a word past
    # draw L - 1 accepts every value and is taken mod 1
    cols = [8 * (i // 8) + 7 - i % 8 for i in range(L)]
    limit = np.full(width, (1 << 64) - 1, dtype=np.uint64)
    limit[cols] = [(1 << 64) // (k - i) * (k - i) - 1 for i in range(L)]
    rejected = np.unique(np.flatnonzero(words > limit) // width)
    modulus = np.ones(width, dtype=np.uint64)
    modulus[cols] = range(k, k - L, -1)
    # draw d of row r becomes the flat pool index r * k + d; swap i adds i
    swaps = np.remainder(words, modulus, out=words).view(np.int64)
    swaps += np.arange(0, rows * k, k)[:, None]
    pool = np.tile(np.arange(1, k + 1, dtype=np.int64), (rows, 1))
    flat = pool.reshape(-1)
    for i, col in enumerate(cols):
        at = swaps[:, col] + i
        slot = flat[at]
        flat[at] = pool[:, i]
        pool[:, i] = slot
    for r in rejected:
        pool[r] = _shuffled(k, L, CounterRng(seed, streams[r]).randrange)
    return pool


def _subset_costs(k: int, start: int, words: np.ndarray) -> np.ndarray:
    """SubsetDfa(k).step_cost of every step of every injective row of words
    (letters, shape (rows, L)) walked from the letter set start: shape
    (rows, L).

    Before step j a row has read start and words[row, :j]: in ceil(k/64)
    uint64 lanes, one np.bitwise_or.accumulate along the row, less the
    step's own bit, gives that set as a bit mask for every j at once (one
    lane, k <= 64, shifts letter t's bit in as 1 << (t - 1); more lanes
    read it from tables). With b the np.bitwise_count of the mask's letters
    below t = words[row, j], the step costs t - b if t is unread and
    k - |mask| + b + 1 if it was read (only a letter of start can be),
    step_cost's formula. Rows go _WALK_CELLS // L (at least one) at a
    time, which bounds every temporary.
    """
    rows, L = words.shape
    lanes = -(-k // 64)
    if lanes > 1:
        # below[q, t]: the bits of lane q that hold the letters before
        # letter t; here[q, t]: the bit that holds letter t itself (t = 1..k)
        below = np.array(
            [[(1 << min(max(t - 1 - 64 * q, 0), 64)) - 1 for t in range(k + 2)] for q in range(lanes)],
            dtype=np.uint64,
        )
        here = below[:, 1:] ^ below[:, :-1]
    out = np.empty((rows, L), dtype=np.int64)
    step = max(1, _WALK_CELLS // max(L, 1))
    for lo in range(0, rows, step):
        letters = words[lo : lo + step]
        b = count = 0
        seen = False
        for q in range(lanes):
            if lanes == 1:
                hit = np.left_shift(np.uint64(1), letters.astype(np.uint64) - np.uint64(1))
                low = hit - np.uint64(1)
            else:
                hit, low = here[q][letters], below[q][letters]
            read = np.bitwise_or.accumulate(hit, axis=1) ^ hit
            if start:
                lane = (start >> 64 * q) & ((1 << 64) - 1)
                read |= lane
                count = np.add(count, np.bitwise_count(read), dtype=np.int64)
                seen = seen | ((hit & lane) != 0)
            b = np.add(b, np.bitwise_count(np.bitwise_and(read, low, out=low)), dtype=np.int64)
        out[lo : lo + step] = np.where(seen, k + 1 - count + b, letters - b) if start else letters - b
    return out


def _walk_totals(dfa, start, words: np.ndarray) -> np.ndarray:
    """Total cost of every row of words (letters, shape (rows, L)) walked
    from start: through the automaton's _tables, or, for SubsetDfa, the
    row sums of _subset_costs, which needs no state list and works at any
    k."""
    if isinstance(dfa, SubsetDfa):
        return _subset_costs(dfa.alphabet_size, start, words).sum(axis=1)
    cost, succ = dfa._tables
    total = np.zeros(len(words), dtype=np.int64)
    at = np.full(len(words), dfa._index[start])
    for t in (words - 1).T:
        total += cost[at, t]
        at = succ[at, t]
    return total


def clopper_pearson(successes: int, samples: int, confidence: float = 0.99):
    """Exact binomial (Clopper-Pearson) confidence interval.

    Each limit is a beta quantile: one betaincinv(a, b, q) ufunc call, the
    inverse regularized incomplete beta function (Boost's ibeta_inv), so
    scipy's statistics module is never imported.
    """
    from scipy.special import betaincinv  # on first use, not at package import

    if not (0 <= successes <= samples) or samples <= 0:
        raise ValueError("need 0 <= successes <= samples, samples > 0")
    # NaN fails the comparison too
    if not (0 < confidence < 1):
        raise ValueError(f"need 0 < confidence < 1, got {confidence!r}")
    alpha = 1.0 - confidence
    if successes == 0:
        lo = 0.0
    else:
        lo = float(betaincinv(successes, samples - successes + 1, alpha / 2))
    if successes == samples:
        hi = 1.0
    else:
        hi = float(betaincinv(successes + 1, samples - successes, 1 - alpha / 2))
    return lo, hi


@dataclass(frozen=True)
class EstimateReport:
    """Monte-Carlo estimate of P with its exact 99% binomial interval."""

    estimate: float
    ci_low: float
    ci_high: float
    samples: int
    seed: int
    threshold: float
    comparator: str
    k: int
    L: int
    epsilon: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def estimate_P(
    dfa,
    state,
    L: int,
    epsilon: float,
    samples: int,
    seed: int,
    *,
    strict: bool = True,
    threads: int = 1,
) -> EstimateReport:
    """Monte-Carlo P(state, L, eps) with a 99% Clopper-Pearson interval.

    Deterministic in seed: sample i is a pure function of (seed, i).
    Samples come from _perm_blocks in blocks of _BLOCK_ROWS rows, and each
    block is walked all at once by _walk_totals. threads must be at least
    1 and changes nothing: every block runs in the calling thread.
    """
    if samples <= 0:
        raise ValueError("need at least one sample")
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    if not is_k_dfa(dfa):
        raise ValueError("estimate_P needs a k-DFA")
    if not dfa.has_state(state):
        raise ValueError(f"unknown state {state!r}")
    k = dfa.alphabet_size
    if not (0 <= L <= k):
        raise ValueError(f"need 0 <= L <= k, got L={L}")
    bound = _cost_bound(k, L, epsilon, strict)
    hits = sum(
        int((_walk_totals(dfa, state, perms[:, :L]) <= bound).sum())
        for perms in _perm_blocks(k, samples, seed, L)
    )
    lo, hi = clopper_pearson(hits, samples)
    return EstimateReport(
        estimate=hits / samples,
        ci_low=lo,
        ci_high=hi,
        samples=samples,
        seed=seed,
        threshold=float(_threshold(k, L, epsilon)),
        comparator="<" if strict else "<=",
        k=k,
        L=L,
        epsilon=float(epsilon),
    )


# ---------------------------------------------------------------------------
# Step-cost decomposition


@dataclass(frozen=True)
class Decomposition:
    """Per-step split C_j = X_j + Y_j of a permutation's walk cost.

    pool_sizes[j] = k - j (0-indexed) is the number of unread letters
    whose costs X_j ranks among, and x_ranks[j] lies in [pool_sizes[j]] =
    {1..pool_sizes[j]}; Y_j counts cost values below C_j already paid for
    by earlier letters, and is always non-negative.
    """

    step_costs: tuple[int, ...]
    x_ranks: tuple[int, ...]
    y_slacks: tuple[int, ...]
    pool_sizes: tuple[int, ...]
    states: tuple
    total_cost: int


def xy_decompose(dfa, tau) -> Decomposition:
    """Walk tau from the root of a k-DFA and split each step cost into its
    rank among available costs plus slack: X is _x_ranks of the one-row
    matrix [tau], the states and step costs are walk_cost's."""
    if not is_k_dfa(dfa):
        raise ValueError("xy_decompose needs a k-DFA")
    k = dfa.alphabet_size
    word = _integral_letters(tau)
    if sorted(word) != list(range(1, k + 1)):
        raise ValueError(f"{word!r} is not a permutation of [{k}]")
    trace = walk_cost(dfa, dfa.root, word)
    X = tuple(_x_ranks(dfa, np.array([word]))[0].tolist())
    return Decomposition(
        step_costs=trace.step_costs,
        x_ranks=X,
        y_slacks=tuple(c - x for c, x in zip(trace.step_costs, X)),
        pool_sizes=tuple(range(k, 0, -1)),
        states=trace.states,
        total_cost=trace.total_cost,
    )


def t_statistic(dfa, prefix, x) -> tuple[dict, int]:
    """Occupied low cost values per state, and the minimum over states.

    For each state v, counts the prefix letters whose cost at v is at most
    x — the number of cost values <= x that a walk sitting at v could no
    longer pay when reading fresh letters. Returns ({state: count}, min),
    read off the prefix columns of the cost matrix (a table automaton's
    _tables, a SubsetDfa's 2^k rows built here), as _min_t_counts does.
    """
    if not is_k_dfa(dfa):
        raise ValueError("t_statistic needs a k-DFA")
    k = dfa.alphabet_size
    letters = _integral_letters(prefix)
    if len(set(letters)) != len(letters):
        raise ValueError("prefix must be injective")
    for t in letters:
        if not (1 <= t <= k):
            raise ValueError(f"letter {t!r} outside alphabet [{k}]")
    if x < 0:
        raise ValueError("x must be non-negative")
    columns = np.array(letters, dtype=np.intp) - 1
    if isinstance(dfa, SubsetDfa):
        cost = np.array([dfa.cost_row(v) for v in dfa.states], dtype=np.int64)
    else:
        cost = dfa._tables[0]
    counts = (cost[:, columns] <= x).sum(axis=1).tolist()
    return dict(zip(dfa.states, counts)), min(counts)


# ---------------------------------------------------------------------------
# Monte-Carlo X sums and the concentration experiments


def _x_ranks(dfa, perms: np.ndarray) -> np.ndarray:
    """X_j of every row of perms walked from the root, shape (samples, k).

    On SubsetDfa the cost of reading t_j from the root's walk is its rank
    among the unread letters, so X is _subset_costs from the empty set;
    otherwise one table walk of all rows at once, through _tables."""
    if isinstance(dfa, SubsetDfa):
        return _subset_costs(dfa.alphabet_size, 0, perms)
    cost, succ = dfa._tables
    letters = perms - 1
    at = np.full(len(perms), dfa._index[dfa.root])
    X = np.empty_like(perms)
    for j in range(perms.shape[1]):
        unread = cost[at[:, None], letters[:, j:]]  # column 0 is t_j's cost
        X[:, j] = (unread <= unread[:, :1]).sum(axis=1)
        at = succ[at, letters[:, j]]
    return X


def _min_t_counts(dfa, perms: np.ndarray, xs) -> list[np.ndarray]:
    """For each x in xs, the (samples, k) matrix of T_{j, x}: the minimum
    over states of the number of letters before t_j costing at most x.
    Non-subset automata stream over the rows of _tables' cost matrix, so
    no states x samples x k array is built."""
    k = perms.shape[1]
    if isinstance(dfa, SubsetDfa):  # sample-independent closed form
        return [
            np.broadcast_to([dfa.min_t_statistic(j, x) for j in range(k)], perms.shape)
            for x in xs
        ]
    T = [np.full(perms.shape, k) for _ in xs]
    for row in dfa._tables[0]:
        paid = row[perms - 1]
        for t, x in zip(T, xs):
            low = paid <= x
            np.minimum(t, low.cumsum(axis=1) - low, out=t)
    return T


def sample_x_sums(dfa, samples: int, seed: int) -> np.ndarray:
    """Monte-Carlo samples of sum_j X_j over uniform random permutations:
    the row sums of _x_ranks over the blocks of _perm_blocks, the pipeline
    concentration_experiment shares, so that no (samples, k) matrix is
    built."""
    if samples <= 0:
        raise ValueError("need at least one sample")
    if not is_k_dfa(dfa):
        raise ValueError("sample_x_sums needs a k-DFA")
    blocks = _perm_blocks(dfa.alphabet_size, samples, seed)
    return np.concatenate([_x_ranks(dfa, perms).sum(axis=1) for perms in blocks])


@dataclass(frozen=True)
class ConcentrationReport:
    """Empirical frequencies of the two window-event families.

    For each window pair (m1, m2) in [M-1]^2 over uniform random
    permutations:

    - con1: the count of steps j in window m1 with X_j/(k-j+1) > m2/M
      falls short of (1-eps*)(1-m2/M)k/M.
    - con2: some j in window m1 has T_{j, m2 k/M} below
      (1-eps*)(m2/M)(j-1), where T is the minimum t_statistic over states.
    """

    k: int
    M: int
    epsilon_star: float
    samples: int
    seed: int
    con1: dict
    con2: dict

    def to_json_dict(self) -> dict:
        entries = [
            {
                "m1": m1,
                "m2": m2,
                "con1": self.con1[(m1, m2)],
                "con2": self.con2[(m1, m2)],
            }
            for (m1, m2) in sorted(self.con1)
        ]
        return {
            "k": self.k,
            "M": self.M,
            "epsilon_star": self.epsilon_star,
            "samples": self.samples,
            "seed": self.seed,
            "entries": entries,
        }


def _window(k: int, M: int, m1: int) -> list[int]:
    # j with m1*k/M < j <= (m1+1)*k/M, in exact integer arithmetic
    return [j for j in range(1, k + 1) if j * M > m1 * k and j * M <= (m1 + 1) * k]


def concentration_experiment(
    dfa, M: int, epsilon_star: float, samples: int, seed: int, *, max_words: int = MAX_ENUM_WORDS
) -> ConcentrationReport:
    """Estimate the frequencies of the con1/con2 window events.

    The X ranks of the blocks of _perm_blocks (as in sample_x_sums)
    and the T matrices of _min_t_counts feed one loop over window pairs
    that scores a block of _BLOCK_ROWS samples at once, for every kind of
    k-DFA; the event counts are summed over the blocks as integers.

    M is at most k, so every window holds a step (M > k would leave most
    of them empty), and the (M - 1)^2 window pairs, each one event loop
    and two output entries, are counted against the enumeration cap.
    """
    if M < 2:
        raise ValueError("need M >= 2")
    if not (0 < epsilon_star < 0.5):
        raise ValueError(f"need 0 < epsilon_star < 1/2, got {epsilon_star!r}")
    if samples <= 0:
        raise ValueError("need at least one sample")
    if not is_k_dfa(dfa):
        raise ValueError("concentration_experiment needs a k-DFA")
    k = dfa.alphabet_size
    if M > k:
        raise ValueError(f"need M <= k = {k}, got M = {M}")
    _check_count(f"concentration: {M - 1}^2 window pairs", max_words, M - 1, 2)
    events = []  # ((m1, m2), window columns, con1 threshold, con2 thresholds)
    for m1 in range(1, M):
        js = _window(k, M, m1)
        cols = np.array(js, dtype=np.intp) - 1
        for m2 in range(1, M):
            thr1 = (1 - epsilon_star) * (1 - m2 / M) * k / M
            thr2 = [(1 - epsilon_star) * (m2 / M) * (j - 1) for j in js]
            events.append(((m1, m2), cols, thr1, thr2))
    hits1 = dict.fromkeys((key for key, *_ in events), 0)
    hits2 = dict(hits1)
    for perms in _perm_blocks(k, samples, seed):
        X = _x_ranks(dfa, perms)
        T = _min_t_counts(dfa, perms, [m2 * k / M for m2 in range(1, M)])
        for (m1, m2), cols, thr1, thr2 in events:
            exceed = (X[:, cols] * M > m2 * (k - cols)).sum(axis=1)
            hits1[(m1, m2)] += int((exceed < thr1).sum())
            hits2[(m1, m2)] += int((T[m2 - 1][:, cols] < thr2).any(axis=1).sum())
    return ConcentrationReport(
        k=k,
        M=M,
        epsilon_star=float(epsilon_star),
        samples=samples,
        seed=seed,
        con1={key: n / samples for key, n in hits1.items()},
        con2={key: n / samples for key, n in hits2.items()},
    )
