"""Weighted deterministic finite automata with extended (possibly infinite)
step costs, and the automaton constructions used throughout the package.

A weighted DFA here reads letters of [k]; each (state, letter) pair has a
successor state and a cost in {0, 1, 2, ...} ∪ {∞}, with ∞ absorbing under
addition. The cost of a walk is the sum of its step costs.

A *k-DFA* is a weighted DFA whose cost row at every state is a permutation
of [k]. The greedy automaton of a word is generally not a k-DFA (it has
infinite entries), but it can always be *cheapened* to one: costs replaced
by pointwise lower-or-equal permutation rows, which never increases the
cost of any walk.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Union

from .errors import CheapeningError, ResourceLimitError
from .patterns import MAX_ENUM_WORDS, _check_count, _integral_letters, as_word

__all__ = [
    "INFINITY",
    "ExtCost",
    "WalkTrace",
    "WeightedDfa",
    "SubsetDfa",
    "build_greedy_dfa",
    "walk_cost",
    "is_k_dfa",
    "cheapen",
    "build_subset_dfa",
    "build_two_track_dfa",
    "cheap_perm_count",
    "perm_cost_census",
    "random_k_dfa",
    "finite_edges",
    "dfa_to_json",
    "dfa_from_json",
    "dfa_to_dot",
]

INFINITY = math.inf

# A step cost: a non-negative integer, or INFINITY. math.inf gives the
# required absorbing arithmetic (inf + x == inf) exactly, and Python ints
# cannot overflow, so finite sums are always exact.
ExtCost = Union[int, float]

# Enumerating all 2^k subset states is capped; walking the lazy automaton
# is not (a permutational walk touches at most k+1 subsets).
MAX_SUBSET_ENUM_K = 20


@dataclass(frozen=True)
class WalkTrace:
    """States visited and costs paid along one walk.

    states has length len(word) + 1; total_cost is the (absorbing) sum of
    step_costs.
    """

    states: tuple
    step_costs: tuple
    total_cost: ExtCost


class WeightedDfa:
    """Immutable table-backed weighted DFA.

    delta and cost are given per state as length-k tuples indexed by
    letter - 1. What the exact and Monte-Carlo kernels derive from the
    tables is built on first use and kept, since the automaton never
    changes, so repeated queries on one automaton build each part once:
    the state index (_index), the k-DFA verdict (_k_dfa), the largest
    finite cost (_largest), the DP's edge rows per digit width (_rows) and
    the numpy tables (_tables). A part is stored only once it is whole, so
    a reader in another thread sees it missing (and builds an equal one)
    or complete.
    """

    def __init__(self, alphabet_size: int, root, delta: dict, cost: dict):
        k = alphabet_size
        if k < 1:
            raise ValueError("alphabet_size must be positive")
        if root not in delta:
            raise ValueError(f"root {root!r} is not a state")
        if set(delta) != set(cost):
            raise ValueError("delta and cost must cover the same states")
        for v, row in delta.items():
            if len(row) != k or len(cost[v]) != k:
                raise ValueError(f"state {v!r}: rows must have length k={k}")
            for u in row:
                if u not in delta:
                    raise ValueError(f"state {v!r}: successor {u!r} unknown")
            for c in cost[v]:
                if c != INFINITY and (type(c) is not int or c < 0):
                    raise ValueError(f"state {v!r}: bad cost {c!r}")
        self.alphabet_size = k
        self.root = root
        self._delta = {v: tuple(row) for v, row in delta.items()}
        self._cost = {v: tuple(row) for v, row in cost.items()}
        # {digit width: _Rows}, filled by _dp_rows
        self._rows: dict = {}

    @cached_property
    def _index(self) -> dict:
        # {state: row number}, in states order: the DP's keys and _tables' rows
        return {v: i for i, v in enumerate(self._delta)}

    @cached_property
    def _k_dfa(self) -> bool:
        expected = list(range(1, self.alphabet_size + 1))
        return all(sorted(row) == expected for row in self._cost.values())

    @cached_property
    def _largest(self) -> int:
        return max((c for row in self._cost.values() for c in row if c != INFINITY), default=0)

    @cached_property
    def _tables(self) -> tuple:
        """(cost[V, k], succ[V, k]): row i holds the cost row of state i of
        states and its successors as row numbers. Both arrays are
        read-only, since every caller shares them. numpy is imported here,
        so exact and pattern code never loads it."""
        import numpy as np

        cost = np.array([self._cost[v] for v in self._index], dtype=np.int64)
        succ = np.array([[self._index[u] for u in self._delta[v]] for v in self._index], dtype=np.intp)
        cost.flags.writeable = succ.flags.writeable = False
        return cost, succ

    @property
    def states(self):
        return tuple(self._delta)

    def has_state(self, v) -> bool:
        return v in self._delta

    def step(self, v, t: int):
        return self._delta[v][t - 1]

    def step_cost(self, v, t: int) -> ExtCost:
        return self._cost[v][t - 1]

    def delta_row(self, v) -> tuple:
        return self._delta[v]

    def cost_row(self, v) -> tuple:
        return self._cost[v]

    def __eq__(self, other):
        return (
            isinstance(other, WeightedDfa)
            and self.alphabet_size == other.alphabet_size
            and self.root == other.root
            and self._delta == other._delta
            and self._cost == other._cost
        )

    def __repr__(self):
        return (
            f"WeightedDfa(k={self.alphabet_size}, root={self.root!r}, "
            f"states={len(self._delta)})"
        )


class SubsetDfa:
    """Lazy automaton on the subsets of [k]: state v is the set of letters
    read so far (as a bitmask), the root is the empty set, and reading t
    moves to v | {t}.

    Costs make every row a permutation of [k] while pushing already-read
    letters to the top: letters outside v get 1..k-|v| in ascending letter
    order, letters inside v get k-|v|+1..k in ascending letter order.
    Reading any permutation from the root therefore always pays the rank
    of the letter among those not yet read, and the slack terms Y_j of the
    walk decomposition are identically zero.

    Transitions and costs are computed on demand, so walks work at any k;
    only operations that enumerate all 2^k states are capped.
    """

    def __init__(self, alphabet_size: int):
        if alphabet_size < 1:
            raise ValueError("alphabet_size must be positive")
        self.alphabet_size = alphabet_size
        self.root = 0

    @property
    def states(self):
        k = self.alphabet_size
        if k > MAX_SUBSET_ENUM_K:
            raise ResourceLimitError(
                f"enumerating 2^{k} subset states exceeds the cap "
                f"(k <= {MAX_SUBSET_ENUM_K})"
            )
        return range(1 << k)

    def has_state(self, v) -> bool:
        return isinstance(v, int) and 0 <= v < (1 << self.alphabet_size)

    def step(self, v: int, t: int) -> int:
        self._check_letter(t)
        return v | (1 << (t - 1))

    def step_cost(self, v: int, t: int) -> int:
        self._check_letter(t)
        bit = 1 << (t - 1)
        below = (v & (bit - 1)).bit_count()
        if v & bit:
            return self.alphabet_size - v.bit_count() + below + 1
        return t - below

    def delta_row(self, v: int) -> tuple:
        return tuple(v | (1 << t) for t in range(self.alphabet_size))

    def cost_row(self, v: int) -> tuple:
        # step_cost's ranks in one pass: letters outside v take 1..k-|v| in
        # letter order, letters inside it k-|v|+1..k
        k = self.alphabet_size
        inside = k - v.bit_count() + 1
        below = 0
        row = []
        bit = 1
        for t in range(1, k + 1):
            if v & bit:
                row.append(inside + below)
                below += 1
            else:
                row.append(t - below)
            bit <<= 1
        return tuple(row)

    def min_t_statistic(self, prefix_len: int, x: float) -> int:
        """min over all states of #{prefix letters with cost <= x}.

        At the state equal to the prefix's letter set, the prefix letters
        carry the top prefix_len cost values k-prefix_len+1..k; no state
        can do better because a permutation row fits at most k - floor(x)
        of them above x. No state counts more than the prefix_len letters.
        """
        return max(0, min(prefix_len, prefix_len + math.floor(x) - self.alphabet_size))

    def _check_letter(self, t: int):
        if not (1 <= t <= self.alphabet_size):
            raise ValueError(
                f"letter {t!r} outside alphabet [{self.alphabet_size}]"
            )

    def __repr__(self):
        return f"SubsetDfa(k={self.alphabet_size})"


Dfa = Union[WeightedDfa, SubsetDfa]


def build_greedy_dfa(sigma) -> WeightedDfa:
    """The greedy-embedding automaton of a word over [k].

    States are 0..n with root 0; state v means "the previous matched
    position was v". Reading t jumps to the next occurrence of t after v,
    paying the distance; if t never occurs again the automaton self-loops
    at infinite cost. Walking a word w from 0 therefore costs exactly the
    final position of w's greedy embedding, or ∞ when the embedding fails.
    """
    sigma = as_word(sigma)
    k = sigma.alphabet_size
    letters = sigma.letters
    # one backward scan: nxt[t - 1] is the next occurrence of t after v
    nxt = [None] * k
    drows = []
    crows = []
    for v in range(len(letters), -1, -1):
        drows.append(tuple(v if u is None else u for u in nxt))
        crows.append(tuple(INFINITY if u is None else u - v for u in nxt))
        if v:
            nxt[letters[v - 1] - 1] = v
    return WeightedDfa(k, 0, dict(enumerate(drows[::-1])), dict(enumerate(crows[::-1])))


def walk_cost(dfa: Dfa, start, w) -> WalkTrace:
    """Walk w from start, returning the visited states and (absorbing)
    total cost.

    Cost is additive over concatenation: splitting w as u·w' gives
    total(w) = total(u) + total-from-δ(start,u)(w').
    """
    if not dfa.has_state(start):
        raise ValueError(f"unknown state {start!r}")
    k = dfa.alphabet_size
    word = _integral_letters(w)
    states = [start]
    costs = []
    total: ExtCost = 0
    v = start
    for t in word:
        if not (1 <= t <= k):
            raise ValueError(f"letter {t!r} outside alphabet [{k}]")
        c = dfa.step_cost(v, t)
        v = dfa.step(v, t)
        costs.append(c)
        total += c
        states.append(v)
    return WalkTrace(tuple(states), tuple(costs), total)


def is_k_dfa(dfa: Dfa) -> bool:
    """Whether every state's cost row is a permutation of [k]."""
    if isinstance(dfa, SubsetDfa):
        # Rows are permutations by construction (ascending ranks within
        # and outside v partition [k]); asserted exhaustively in tests.
        return True
    return dfa._k_dfa


def cheapen(dfa: Dfa) -> WeightedDfa:
    """Replace each cost row by a dominated permutation of [k], keeping
    states and transitions.

    Row construction: letters with cost <= k keep their cost (these are
    distinct for greedy automata, since the cost names a position of the
    word); the remaining letters receive the remaining values of [k] in
    ascending letter order. Every entry can only shrink, so no walk gets
    more expensive, and the result is a k-DFA. A row with a repeated cost
    <= k, or a cost of 0, has no dominating permutation and is refused.
    """
    k = dfa.alphabet_size
    new_cost = {}
    for v in dfa.states:
        row = dfa.cost_row(v)
        taken = [True] + [False] * k  # taken[c]: c is 0 or already kept
        for c in row:
            if c <= k:
                if taken[c]:
                    raise CheapeningError(
                        f"state {v!r}: {'duplicate low' if c else 'zero'} cost {c} "
                        f"admits no dominating permutation row"
                    )
                taken[c] = True
        free = (c for c in range(1, k + 1) if not taken[c])
        new_cost[v] = tuple(c if c <= k else next(free) for c in row)
    delta = {v: dfa.delta_row(v) for v in dfa.states}
    return WeightedDfa(k, dfa.root, delta, new_cost)


def build_subset_dfa(k: int) -> SubsetDfa:
    """The subset-state k-DFA (see SubsetDfa). Walks work at any k; state
    enumeration is capped at k <= 20 and the full census at k <= 10."""
    return SubsetDfa(k)


def build_two_track_dfa(k: int) -> WeightedDfa:
    """The two-track k-DFA on states -m..m for k = 2m.

    Letters split into the low half A = {1..m} and high half B = {m+1..2m}.
    Reading A-letters walks left, B-letters right, holding at the
    boundary. Costs: t in negative states; t+m (A) or t-m (B) otherwise.
    Every row is a permutation of [k], and cost(v,t) = m*q(v,t) + r(t)
    with q in {0,1} and r(t) in [m] independent of the state.
    """
    if k < 2 or k % 2:
        raise ValueError(f"two-track construction is defined for even k >= 2, got {k}")
    m = k // 2
    delta = {}
    cost = {}
    for v in range(-m, m + 1):
        drow = []
        crow = []
        for t in range(1, k + 1):
            if t <= m:  # A: walk left
                drow.append(v - 1 if v != -m else v)
                crow.append(t if v < 0 else t + m)
            else:  # B: walk right
                drow.append(v + 1 if v != m else v)
                crow.append(t if v < 0 else t - m)
        delta[v] = tuple(drow)
        cost[v] = tuple(crow)
    return WeightedDfa(k, 0, delta, cost)


# Largest max_len * (largest finite step cost) the packed histograms of
# _cost_layers take on; past it an integer would hold mostly empty
# digits, and the sparse {cost: count} dicts are cheaper.
_PACKED_MAX_TOTAL = 1 << 10


def _largest_finite_cost(dfa: Dfa) -> int:
    return dfa.alphabet_size if isinstance(dfa, SubsetDfa) else dfa._largest


def _whole_budget(budget):
    """A budget as the largest total it admits, or None for every total.
    Totals are whole numbers or INFINITY, so a real budget admits those up
    to its floor (a negative one admits none) and INFINITY admits all. A
    NaN budget admits nothing meaningful and is refused."""
    if budget != budget:
        raise ValueError(f"budget must be a number or INFINITY, got {budget!r}")
    if budget is None or budget == INFINITY:
        return None
    return -1 if budget < 0 else math.floor(budget)


class _SubsetRows:
    """The finite edge rows of a SubsetDfa in _Rows' form, costs times
    scale, read off its cost_row at each lookup and never stored. A subset
    state is its own index. Off the root a walk meets up to C(k, l) states
    per layer: keeping a row of k edges for each of them peaked at 21 MB
    (tracemalloc) at k = 64, start 1, L = 3, where the whole DP peaks at
    0.55 MB."""

    __slots__ = ("cost_row", "scale", "moves")

    def __init__(self, dfa: SubsetDfa, scale: int):
        k = dfa.alphabet_size
        self.cost_row = dfa.cost_row
        self.scale = scale
        # (bit, key step) per letter, bit = 1 << t-1: read outside the
        # state, the letter adds bit to the state and to the letters read
        self.moves = [(1 << t, (1 << t << k) + (1 << t)) for t in range(k)]

    def __getitem__(self, v: int) -> list:
        # read inside v, a letter adds its bit to the letters read only
        scale = self.scale
        return [
            (bit, bit if v & bit else step, scale * c)
            for (bit, step), c in zip(self.moves, self.cost_row(v))
        ]


class _Rows:
    """Edge rows at one digit width, as the subset DP reads them.

    finite[i] lists the finite edges of state i in letter order as (bit,
    key step, width * cost). INFINITY edges are not listed: the DP drops a
    prefix that pays INFINITY, and the decoder counts those words by
    subtraction (_with_infinity). On a table automaton, tails and weights
    hold _last_two_by_complement's constants per state (_tail), filled as
    frontiers reach the states.
    """

    __slots__ = ("finite", "tails", "weights")

    def __init__(self, finite):
        self.finite = finite
        self.tails: dict = {}
        self.weights: dict = {}


def _edge_rows(dfa: WeightedDfa, width: int) -> _Rows:
    """Build the _Rows of a table automaton at digit width.

    A (state, letters read) pair is the integer key index << k | used, with
    index the state's row number (WeightedDfa._index). Reading an unread
    letter t, bit = 1 << t-1, from index i to successor index j moves the
    key by ((j - i) << k) + bit, a negative step when j < i. INFINITY edges
    are left out.
    """
    k = dfa.alphabet_size
    index = dfa._index
    return _Rows([
        tuple(
            (1 << t, ((index[u] - i) << k) + (1 << t), width * c)
            for t, (u, c) in enumerate(zip(dfa.delta_row(v), dfa.cost_row(v)))
            if c != INFINITY
        )
        for i, v in enumerate(index)
    ])


def _dp_rows(dfa: Dfa, width: int) -> _Rows:
    """The edge rows at digit width: a table automaton's kept in its
    _rows, built there by _edge_rows once per width; a SubsetDfa's from
    its cost rows (_SubsetRows), where a subset state is its own index."""
    if isinstance(dfa, SubsetDfa):
        return _Rows(_SubsetRows(dfa, width))
    if width not in dfa._rows:
        dfa._rows[width] = _edge_rows(dfa, width)
    return dfa._rows[width]


def _start_key(dfa: Dfa, start) -> int:
    # the DP key of (start, no letter read)
    index = start if isinstance(dfa, SubsetDfa) else dfa._index[start]
    return index << dfa.alphabet_size


def _unpack(packed: int, width: int, out=None, cost: int = 0) -> Counter:
    """The histogram a packed integer holds: digit c (width bits each,
    least significant first) counts the words of total cost c, keys
    ascending. Shifting the whole integer once per digit is quadratic in
    the digit count, so an integer of more than _PACKED_MAX_TOTAL digits is
    split in halves, each unpacked into out with the cost of its lowest
    digit, and every level of the split touches each bit once."""
    out = Counter() if out is None else out
    digits = -(-packed.bit_length() // width)
    if digits > _PACKED_MAX_TOTAL:
        half = digits // 2
        _unpack(packed & ((1 << width * half) - 1), width, out, cost)
        return _unpack(packed >> width * half, width, out, cost + half)
    digit = (1 << width) - 1
    while packed:
        n = packed & digit
        if n:
            out[cost] = n
        packed >>= width
        cost += 1
    return out


def _with_infinity(out: Counter, k: int, length: int, budget) -> Counter:
    """out, the histogram of finite totals of the injective length-`length`
    words, with INFINITY added last for the words it misses when no budget
    applies (a whole budget drops every INFINITY word). Each of the
    perm(k, length) injective words walks exactly once, so the count is
    their number minus the finite count."""
    if budget is None:
        lost = math.perm(k, length) - sum(out.values())
        if lost:
            out[INFINITY] = lost
    return out


def _packed_decoder(k: int, width: int, budget):
    """decode(length, packed) -> the Counter of a packed layer: the
    histogram of finite totals in ascending order, then INFINITY
    (_with_infinity), for a whole budget (_whole_budget)."""

    def decode(length: int, packed: int) -> Counter:
        return _with_infinity(_unpack(packed, width), k, length, budget)

    return decode


def _budget_mask(budget, ceiling: int, width: int):
    """The mask keeping digits 0..budget of a packed histogram, or None
    when no total can pass the budget (a whole number or None)."""
    if budget is None or budget >= ceiling:
        return None
    return (1 << width * (budget + 1)) - 1 if budget >= 0 else 0


def _subset_root_layers(k: int, max_len: int, budget=None) -> tuple:
    """_cost_layers of SubsetDfa(k) from the root, in closed form.

    From the root, letter j of an injective word pays its rank among the
    k-j+1 letters not yet read, and over the words these ranks run through
    [k], [k-1], ... independently; so layer l is the shifted Mahonian
    product prod (q + ... + q^m) over m = k-l+1..k (OEIS A008302; Knuth,
    TAOCP vol. 3, 5.1.1). Packed as in the DP, with the same width, each
    layer is one multiplication by q + ... + q^m, and a budget masks each
    product (no factor lowers a total).
    """
    width = math.perm(k, max_len).bit_length()
    ceiling = max_len * k
    mask = _budget_mask(budget, ceiling, width)
    layers = [1]
    packed = 1
    for m in range(k, k - max_len, -1):
        packed *= ((1 << width * m) - 1) // ((1 << width) - 1) << width
        if mask is not None:
            packed &= mask
        layers.append(packed)
    return layers, _packed_decoder(k, width, budget)


def _cost_layers(dfa: Dfa, start, max_len: int, budget=None) -> tuple:
    """(layers, decode): decode(l, layers[l]) is the Counter {total cost:
    number of injective length-l words paying it from start}, l =
    0..max_len, finite totals ascending and INFINITY last. A budget admits
    the totals up to its floor (_whole_budget); a prefix costing more is
    dropped with its extensions (costs are non-negative).

    From the root of a SubsetDfa the layers are the closed-form Mahonian
    products of _subset_root_layers; every other start and automaton runs
    the DP below. Both hand back packed layers, so a caller decodes only
    the lengths it reads.

    Layered subset DP (Bellman 1962; Held & Karp 1962): a prefix's future
    depends only on (state, set of letters read), so each layer maps such
    pairs, at most |V| * 2^k of them, keyed by integers (_edge_rows), to
    the cost histogram of the prefixes reaching them. Each state's edges
    are read off its row (_dp_rows: kept per automaton and width on a
    table automaton, its cost_row once per pair on a SubsetDfa),
    never through step or step_cost.

    A histogram is one packed integer (Kronecker substitution): the count
    of prefixes with total c is digit c, width bits wide. No count exceeds
    perm(k, max_len) < 2^width, so digits never carry; paying c is a shift
    by width * c, merging two pairs is an add, and a budget is a mask.
    The rows list finite edges only, so a prefix that pays INFINITY
    leaves the DP, and every layer is the histogram of finite totals; the
    decoder counts the INFINITY words by subtraction (_with_infinity).
    When max_len times the largest finite step cost passes
    _PACKED_MAX_TOTAL, the integers would be mostly empty digits and
    _injective_cost_layers_sparse runs instead.

    The last layer is a fold: with no merging left to do, each pair one
    letter short adds its histogram shifted by each unread edge. On a
    table automaton, for short words (_complement_pays: 2(max_len - 1) <
    k), _last_two_by_complement takes the last two layers at once and
    charges each pair two letters short for its max_len - 2 letters read,
    by inclusion and exclusion, instead of for the letters left. Otherwise
    the fold runs edge by edge.
    Either way a budget masks the last layer once, which drops the same
    digits as one mask per edge.
    """
    k = dfa.alphabet_size
    budget = _whole_budget(budget)
    if isinstance(dfa, SubsetDfa) and start == 0:
        return _subset_root_layers(k, max_len, budget)
    ceiling = max_len * _largest_finite_cost(dfa)
    if ceiling > _PACKED_MAX_TOTAL:
        # the dict path's layers are Counters already
        return _injective_cost_layers_sparse(dfa, start, max_len, budget), lambda length, layer: layer
    width = math.perm(k, max_len).bit_length()
    mask = _budget_mask(budget, ceiling, width)
    rows = _dp_rows(dfa, width)
    finite = rows.finite
    # the complement keeps weights per successor state: off the root of a
    # SubsetDfa that is up to C(k, l) states, so it keeps the per-edge fold
    complement = not isinstance(dfa, SubsetDfa) and _complement_pays(k, max_len)
    layers = [1]
    frontier = {_start_key(dfa, start): 1}
    for length in range(1, max_len + 1):
        if complement and length == max_len - 1:
            shorter, last = _last_two_by_complement(k, rows, frontier)
            if mask is not None:
                shorter &= mask
                last &= mask
            layers += [shorter, last]
            break
        nxt: dict = {}
        get = nxt.get
        layer = 0
        for key, packed in frontier.items():
            row = finite[key >> k]
            if length == max_len:
                # fold straight into the result: last-layer pairs would
                # hardly ever merge, and one mask at the end drops the
                # same digits as one per edge
                for bit, _, shift in row:
                    if not key & bit:
                        layer += packed << shift
            elif mask is None:
                for bit, step, shift in row:
                    if not key & bit:
                        key2 = key + step
                        nxt[key2] = get(key2, 0) + (packed << shift)
            else:
                for bit, step, shift in row:
                    if not key & bit:
                        out = (packed << shift) & mask
                        if out:
                            key2 = key + step
                            nxt[key2] = get(key2, 0) + out
        if mask is not None:
            layer &= mask
        layers.append(layer + sum(nxt.values()))
        frontier = nxt
    return layers, _packed_decoder(k, width, budget)


def _complement_pays(k: int, max_len: int) -> bool:
    """Whether _cost_layers takes its last layer by complement: each pair
    one letter short of max_len then pays for its max_len - 1 letters read
    instead of its k - max_len + 1 unread edges."""
    return 2 * (max_len - 1) < k


def _last_two_by_complement(k: int, rows: _Rows, frontier: dict) -> tuple:
    """(shorter, last): the packed histograms of finite totals of the DP's
    last two layers, grown from frontier, the layer before them, on a
    table automaton; rows are the automaton's _Rows at the digit width of
    frontier's histograms. An INFINITY edge weighs 0 here, as it is
    missing from rows, and the decoder counts its words (_with_infinity).

    With q = 2^width, x_t = q^c(u, t), v_t = delta(u, t) and w_v[b] =
    q^c(v, b) (0 for INFINITY), a frontier pair (u, U) with histogram
    packed adds packed * sum over unread t of x_t to the shorter layer, and
    packed * sum over unread t of x_t * (R_{v_t} - w_{v_t}[t] - sum over b
    in U of w_{v_t}[b]) to the last one, R_v being the sum of w_v. By
    inclusion and exclusion over the letters read, both sums cost the
    letters in U, not the letters left:
        shorter: R_u - sum over a in U of x_a,
        last: A_u - sum over a in U of K_u[a]
              + sum over a in U of x_a * sum over b in U of w_{v_a}[b],
    with A_u = sum over t of x_t * (R_{v_t} - w_{v_t}[t]) and the column
    K_u[a] = x_a * R_{v_a} + sum over t != a of x_t * w_{v_t}[a]. Each
    result is a true histogram of words, so its digits stay below 2^width
    and no digit carries, whatever the partial sums went through. Budgets
    are left to the caller's mask.

    The constants depend only on the state and the width, so they are kept
    in rows (_tail): |V| * k of them per width at most. A state met again,
    in this call or a later one, reuses them. A column is built the first
    time a pair that has read its letter meets the state, so a query that
    reads few letters before the last two builds few columns.
    """
    tails, full = rows.tails, (1 << k) - 1
    reads: dict = {}
    shorter = last = 0
    for key, packed in frontier.items():
        tail = tails.get(key >> k) or _tail(k, rows, key >> k)
        read = reads.get(key & full)
        if read is None:
            read = reads[key & full] = [t for t in range(k) if key >> t & 1]
        sums, rest, edges, columns, finite = tail
        for a in read:
            column = columns[a]
            if column is None:
                column = columns[a] = _column(edges[a], finite, a)
            rest -= column
            x, shift, w, _ = edges[a]
            if x:
                sums -= x
                rest += sum(map(w.__getitem__, read)) << shift
        shorter += packed * sums
        last += packed * rest
    return shorter, last


def _tail(k: int, rows: _Rows, u: int) -> tuple:
    """Keep and return _last_two_by_complement's constants for state u:
    (R_u, A_u, edges, columns, finite), with edges[t] = (x_t, width *
    c(u, t), w_{v_t}, R_{v_t}), all 0 for an INFINITY edge, columns[a] =
    K_u[a] or None until built, and finite the (width * c(u, t), w_{v_t})
    of u's finite edges. Each part is stored whole (the columns one at a
    time), so threads that share the automaton never read a part."""
    weights = rows.weights
    edges = [(0, 0, [0] * k, 0)] * k
    finite = []
    R = A = 0
    for bit, step, shift in rows.finite[u]:
        v = ((u << k) + step) >> k
        if v not in weights:
            w = [0] * k
            for b, _, c in rows.finite[v]:
                w[b.bit_length() - 1] = 1 << c
            weights[v] = w, sum(w)
        w, total = weights[v]
        t = bit.bit_length() - 1
        edges[t] = (1 << shift, shift, w, total)
        finite.append((shift, w))
        R += 1 << shift
        A += total - w[t] << shift
    tail = rows.tails[u] = (R, A, edges, [None] * k, finite)
    return tail


def _column(edge: tuple, finite: list, a: int) -> int:
    # K_u[a], from edges[a] and finite of u's _tail: the sum runs over
    # every finite edge, so x_a * w_{v_a}[a] is taken back first
    _, shift, w, total = edge
    column = total - w[a] << shift
    for s, w_t in finite:
        column += w_t[a] << s
    return column


def _suffix_sums(dfa: WeightedDfa, length: int, budget=None) -> tuple:
    """(sums, width): sums[i] is the packed histogram, digits width bits
    wide as in _cost_layers, of the injective length-`length` walks from
    state i of dfa.states, totals over the budget (_whole_budget) dropped.
    dfa is a table k-DFA, so every edge is finite.

    One suffix DP serves every start at once. Layer s maps each (state v,
    set S of s letters still to read) to the histogram of reading S's
    letters from v in every order, with q = 2^width:
        G_s[v][S] = sum over t in S of q^c(v, t) * G_{s-1}[delta(v, t)][S - t],
    G_0[v][{}] = 1, and start v's sum is the sum of its layer-`length`
    entries. A layer holds |V| * C(k, s) entries, as many as the |V|
    forward DPs of _cost_layers visit between them at length s, but all
    held at once. A state's layer is a list over the sets in combinations
    order (_suffix_layer).

    The budget masks every layer and the sums (_budget_mask), which drops
    the same digits as one mask at the end, since no step lowers a total.
    """
    k = dfa.alphabet_size
    width = math.perm(k, length).bit_length()
    mask = _budget_mask(_whole_budget(budget), length * dfa._largest, width)
    keep = -1 if mask is None else mask
    finite = _dp_rows(dfa, width).finite
    # per state, per letter t - 1: (successor's index, width * cost)
    succ = [[(i + (step >> k), shift) for _, step, shift in row] for i, row in enumerate(finite)]
    layer, sets = [[1]] * len(succ), [0]
    for s in range(1, length + 1):
        at = {S: j for j, S in enumerate(sets)}
        combos = list(combinations(range(k), s))
        sets = [sum(1 << t for t in c) for c in combos]
        # per set: (t - 1, position of the set without t one layer down)
        parts = [[(t, at[S ^ 1 << t]) for t in c] for S, c in zip(sets, combos)]
        layer = _suffix_layer(succ, layer, parts, keep)
    return [sum(entries) & keep for entries in layer], width


def _suffix_layer(succ: list, layer: list, parts: list, keep: int) -> list:
    """Layer s of _suffix_sums from layer s - 1: per state v, entry j is
    the sum over parts[j]'s (t - 1, j') of q^c(v, t) * layer[delta(v, t)][j'],
    masked by keep (the budget's mask, or -1, which keeps every digit)."""
    out = []
    for row in succ:
        edges = [(layer[u], shift) for u, shift in row]
        entries = []
        for part in parts:
            acc = 0
            for t, j in part:
                g, shift = edges[t]
                acc += g[j] << shift
            entries.append(acc & keep)
        out.append(entries)
    return out


def _injective_cost_layers(dfa: Dfa, start, max_len: int, budget=None) -> list:
    """dists[l] = Counter {total cost: number of injective length-l words
    paying it from start}, l = 0..max_len: every layer of _cost_layers,
    decoded."""
    layers, decode = _cost_layers(dfa, start, max_len, budget)
    return [decode(length, layer) for length, layer in enumerate(layers)]


def _last_cost_layer(dfa: Dfa, start, length: int, budget=None) -> Counter:
    """_injective_cost_layers(dfa, start, length, budget)[length], with no
    shorter layer decoded."""
    layers, decode = _cost_layers(dfa, start, length, budget)
    return decode(length, layers[-1])


def _injective_cost_layers_sparse(dfa: Dfa, start, max_len: int, budget=None) -> list:
    """_injective_cost_layers with one {cost: count} dict per (state, set
    of letters read), for automata whose finite costs are too wide to pack.
    Keys and finite edge rows are the packed DP's at width 1 (_dp_rows),
    and the INFINITY words are counted as there (_with_infinity). Each
    Counter is sorted at the end, so its keys run as on the packed paths."""
    k = dfa.alphabet_size
    budget = _whole_budget(budget)
    finite = _dp_rows(dfa, 1).finite
    dists = [Counter() for _ in range(max_len + 1)]
    dists[0][0] = 1
    frontier = {_start_key(dfa, start): {0: 1}}
    for length in range(1, max_len + 1):
        bucket = dists[length]
        last = length == max_len
        nxt: dict = {}
        for key, hist in frontier.items():
            for bit, step, c in finite[key >> k]:
                if key & bit:
                    continue
                if last:
                    # fold straight into the result: last-layer (state,
                    # set) pairs would hardly ever merge
                    for total, n in hist.items():
                        nt = total + c
                        if budget is None or nt <= budget:
                            bucket[nt] += n
                    continue
                key2 = key + step
                out = nxt.get(key2)
                if out is None:
                    out = nxt[key2] = {}
                for total, n in hist.items():
                    nt = total + c
                    if budget is None or nt <= budget:
                        out[nt] = out.get(nt, 0) + n
                if not out:
                    del nxt[key2]
        for hist in nxt.values():
            bucket.update(hist)
        frontier = nxt
    return [
        _with_infinity(Counter(dict(sorted(dist.items()))), k, length, budget)
        for length, dist in enumerate(dists)
    ]


def cheap_perm_count(dfa: Dfa, budget: int, *, max_words: int = MAX_ENUM_WORDS) -> int:
    """How many permutations of [k], walked from the root, cost at most
    budget (any real number or INFINITY; totals are whole, so a real
    budget counts as its floor).

    _cost_layers (the Mahonian product on SubsetDfa, otherwise the (state,
    letters read) DP, at most |V| * 2^k entries per layer) drops prefixes
    over the budget, so tight budgets stay cheap. max_words still caps
    k!.
    """
    k = dfa.alphabet_size
    _check_count(f"cheap_perm_count: {k}!", max_words, 1, k, 1)
    return sum(_last_cost_layer(dfa, dfa.root, k, budget).values())


def perm_cost_census(dfa: Dfa, *, max_words: int = MAX_ENUM_WORDS) -> dict:
    """Exact distribution {total cost: count} of root walk costs over all
    permutations of [k], keys ascending; infinite totals are keyed by
    INFINITY, last. Computed by _cost_layers: on SubsetDfa the closed-form
    Mahonian product prod (q + ... + q^m), m = 1..k, otherwise the (state,
    letters read) DP, at most |V| * 2^k entries per layer; max_words still
    caps k!.
    """
    k = dfa.alphabet_size
    _check_count(f"perm_cost_census: {k}!", max_words, 1, k, 1)
    return dict(_last_cost_layer(dfa, dfa.root, k))


def random_k_dfa(k: int, state_count: int, seed: int) -> WeightedDfa:
    """A uniformly random k-DFA: independent uniform successors and
    independent uniform permutation cost rows. Deterministic in seed."""
    if state_count < 1:
        raise ValueError("need at least one state")
    rng = random.Random(seed)
    delta = {}
    cost = {}
    for v in range(state_count):
        delta[v] = tuple(rng.randrange(state_count) for _ in range(k))
        row = list(range(1, k + 1))
        rng.shuffle(row)
        cost[v] = tuple(row)
    return WeightedDfa(k, 0, delta, cost)


def finite_edges(dfa: Dfa) -> list[tuple]:
    """All finite-cost edges as (state, letter, successor, cost), in state
    enumeration order then letter order."""
    out = []
    for v in dfa.states:
        crow = dfa.cost_row(v)
        drow = dfa.delta_row(v)
        for t in range(1, dfa.alphabet_size + 1):
            if crow[t - 1] != INFINITY:
                out.append((v, t, drow[t - 1], crow[t - 1]))
    return out


# ---------------------------------------------------------------------------
# Serialization


def _cost_to_jsonable(c: ExtCost):
    return "inf" if c == INFINITY else c


def _cost_from_jsonable(c) -> ExtCost:
    # WeightedDfa rejects anything but a non-negative int or INFINITY
    return INFINITY if c == "inf" else c


def _state_from_jsonable(v):
    # true == 1 as a dict key, so a boolean would pass for state 1
    if type(v) is bool:
        raise ValueError(f"state names may not be booleans, got {v!r}")
    return v


def dfa_to_json(dfa: Dfa) -> str:
    rows = []
    for v in dfa.states:
        crow = dfa.cost_row(v)
        drow = dfa.delta_row(v)
        rows.append(
            {
                "state": v,
                "edges": [
                    {
                        "letter": t,
                        "next": drow[t - 1],
                        "cost": _cost_to_jsonable(crow[t - 1]),
                    }
                    for t in range(1, dfa.alphabet_size + 1)
                ],
            }
        )
    doc = {
        "schema_version": 1,
        "kind": "weighted_dfa",
        "alphabet_size": dfa.alphabet_size,
        "root": dfa.root,
        "states": list(dfa.states),
        "rows": rows,
    }
    return json.dumps(doc, sort_keys=True)


def dfa_from_json(text: str) -> WeightedDfa:
    """Inverse of dfa_to_json. Any other shape (a missing key, a
    non-integer alphabet size or cost, a boolean state, a state given two
    rows) is a ValueError."""
    doc = json.loads(text)
    try:
        k = doc["alphabet_size"]
        if type(k) is not int:
            raise ValueError(f"alphabet_size must be an integer, got {k!r}")
        delta = {}
        cost = {}
        for row in doc["rows"]:
            v = _state_from_jsonable(row["state"])
            if v in delta:
                raise ValueError(f"state {v!r} has two rows")
            edges = sorted(row["edges"], key=lambda e: e["letter"])
            if [e["letter"] for e in edges] != list(range(1, k + 1)):
                raise ValueError(f"state {v!r}: rows must cover letters 1..{k}")
            delta[v] = tuple(_state_from_jsonable(e["next"]) for e in edges)
            cost[v] = tuple(_cost_from_jsonable(e["cost"]) for e in edges)
        return WeightedDfa(k, _state_from_jsonable(doc["root"]), delta, cost)
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed automaton document ({type(e).__name__}: {e})") from None


def dfa_to_dot(dfa: Dfa, include_infinite: bool = False) -> str:
    """GraphViz rendering with one labeled edge per (state, letter); the
    label "t (c)" names the letter read and the cost paid. Infinite-cost
    self-loops are omitted unless asked for."""
    lines = [
        "digraph {",
        "    rankdir=LR;",
        '    node [shape=circle];',
        '    __root__ [shape=point, label=""];',
        f'    __root__ -> "{dfa.root}" [label="root"];',
    ]
    for v in dfa.states:
        lines.append(f'    "{v}";')
    for v in dfa.states:
        crow = dfa.cost_row(v)
        drow = dfa.delta_row(v)
        for t in range(1, dfa.alphabet_size + 1):
            c = crow[t - 1]
            if c == INFINITY and not include_infinite:
                continue
            label = f"{t} (inf)" if c == INFINITY else f"{t} ({c})"
            lines.append(f'    "{v}" -> "{drow[t - 1]}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
