import hashlib
import math
import random
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpatterns.dfa import (
    INFINITY,
    WeightedDfa,
    build_greedy_dfa,
    build_subset_dfa,
    build_two_track_dfa,
    cheap_perm_count,
    cheapen,
    dfa_from_json,
    dfa_to_dot,
    dfa_to_json,
    finite_edges,
    is_k_dfa,
    perm_cost_census,
    random_k_dfa,
    walk_cost,
)
import superpatterns.dfa as dfa_module
from superpatterns.dfa import _injective_cost_layers
from superpatterns.errors import CheapeningError, ResourceLimitError
from superpatterns.patterns import as_word, pattern_set
from superpatterns.walks import cost_distributions_by_length, exact_P, exact_P_max

from oracles import brute_injective_costs, brute_is_pattern, shifted_mahonian

# Hand-checked edge list of the greedy automaton for the word 1,2,3,2:
# every finite-cost edge as (state, letter, successor, cost).
EXAMPLE_1232_EDGES = [
    (0, 1, 1, 1),
    (0, 2, 2, 2),
    (0, 3, 3, 3),
    (1, 2, 2, 1),
    (1, 3, 3, 2),
    (2, 2, 4, 2),
    (2, 3, 3, 1),
    (3, 2, 4, 1),
]


def perms(k):
    return list(permutations(range(1, k + 1)))


def injective_walk_costs(dfa, start, L):
    """Counter of walk costs from start over every injective length-L
    word, by plain enumeration (the reference for the subset DP)."""
    out = Counter()
    for w in permutations(range(1, dfa.alphabet_size + 1), L):
        v, total = start, 0
        for t in w:
            total += dfa.step_cost(v, t)
            v = dfa.step(v, t)
        out[total] += 1
    return out


def within(hist, budget):
    return {c: n for c, n in hist.items() if budget is None or c <= budget}


def greedy_grid():
    """300 seeded words: k = 1..9, lengths 0..25, each drawn from a random
    nonempty subset of [k] (so letters go missing), 14 of them empty."""
    rng = random.Random(3)
    words = []
    for i in range(300):
        k = 1 + i % 9
        n = 0 if i == 0 else rng.randint(0, 25)
        used = rng.sample(range(1, k + 1), rng.randint(1, k))
        words.append(as_word(tuple(rng.choice(used) for _ in range(n)), k))
    return words


# SHA-256 of the greedy_grid automata's JSON and DOT (infinite edges
# included), each text followed by a NUL byte, as the occurrence-list
# builder and the two-set cheapen wrote them
GRID_DIGESTS = {
    "greedy json": "02658ff4c8004675a93a76ea79160c3baba1651560ab948fb8d00a662c4920ad",
    "greedy dot": "fc040405799f21120e4840c7cc8bd49551102d90043463f936b8ca328e5e6ca9",
    "cheap json": "dbb0bfb5c46c4241bf90c73183881a978522d60c469b21bfbd9a20b16e69f8be",
    "cheap dot": "c2ea563a6ebe9acbc160476fb14187f26696483ae53cd8914f2da8a8ee37b650",
}


class TestGreedyDfa:
    def test_worked_edge_list(self):
        a = build_greedy_dfa(as_word((1, 2, 3, 2), 3))
        assert finite_edges(a) == EXAMPLE_1232_EDGES
        # everything else is an infinite self-loop
        for v in a.states:
            for t in (1, 2, 3):
                if (v, t) not in {(e[0], e[1]) for e in EXAMPLE_1232_EDGES}:
                    assert a.step(v, t) == v
                    assert a.step_cost(v, t) == INFINITY

    def test_empty_word(self):
        a = build_greedy_dfa(as_word((), 3))
        assert a.states == (0,)
        for t in (1, 2, 3):
            assert a.step(0, t) == 0
            assert a.step_cost(0, t) == INFINITY

    def test_edges_are_the_next_occurrences(self):
        # repeated letters step to their next occurrence, never stay put;
        # letters the word lacks, 2 and 4 here, self-loop at infinite cost
        a = build_greedy_dfa(as_word((3, 3, 1, 3), 4))
        assert [(a.step(1, 3), a.step_cost(1, 3)), (a.step(2, 3), a.step_cost(2, 3))] == [(2, 1), (4, 2)]
        # every row against a scan for the next occurrence: the empty
        # word, one-letter words, absent letters and declared alphabets
        # wider than the letters used, then random words
        cases = [((), 1), ((), 4), ((1,), 1), ((3,), 5), ((4, 4, 1, 4), 7)]
        rng = random.Random(31)
        for _ in range(100):
            k = rng.randint(1, 5)
            cases.append((tuple(rng.randint(1, k) for _ in range(rng.randint(0, 8))), k))
        for sigma, k in cases:
            a = build_greedy_dfa(as_word(sigma, k))
            assert (a.root, a.states) == (0, tuple(range(len(sigma) + 1)))
            for v in a.states:
                nexts = [
                    next((j for j in range(v + 1, len(sigma) + 1) if sigma[j - 1] == t), None)
                    for t in range(1, k + 1)
                ]
                assert a.delta_row(v) == tuple(v if u is None else u for u in nexts)
                assert a.cost_row(v) == tuple(INFINITY if u is None else u - v for u in nexts)

    def test_plain_sequences_are_words(self):
        # a plain sequence declares its largest letter as the alphabet
        assert build_greedy_dfa([1, 2, 3, 2]) == build_greedy_dfa(as_word((1, 2, 3, 2), 3))
        assert build_greedy_dfa(()) == build_greedy_dfa(as_word((), 1))

    def test_grid_output_is_pinned(self):
        digests = {name: hashlib.sha256() for name in GRID_DIGESTS}
        for sigma in greedy_grid():
            a = build_greedy_dfa(sigma)
            b = cheapen(a)
            for name, text in [
                ("greedy json", dfa_to_json(a)),
                ("greedy dot", dfa_to_dot(a, include_infinite=True)),
                ("cheap json", dfa_to_json(b)),
                ("cheap dot", dfa_to_dot(b, include_infinite=True)),
            ]:
                digests[name].update(text.encode() + b"\0")
        assert {name: h.hexdigest() for name, h in digests.items()} == GRID_DIGESTS

    def test_walk_123(self):
        a = build_greedy_dfa(as_word((1, 2, 3, 2), 3))
        trace = walk_cost(a, 0, (1, 2, 3))
        assert trace.states == (0, 1, 2, 3)
        assert trace.total_cost == 3


class TestWalkCost:
    def test_failure_is_infinite(self):
        a = build_greedy_dfa(as_word((1, 2, 3, 2), 3))
        trace = walk_cost(a, 0, (2, 1, 3))
        assert trace.total_cost == INFINITY
        assert trace.states[:2] == (0, 2)

    def test_empty_walk(self):
        a = build_greedy_dfa(as_word((1, 2, 3, 2), 3))
        for v in a.states:
            trace = walk_cost(a, v, ())
            assert trace.states == (v,)
            assert trace.total_cost == 0

    def test_trace_132(self):
        a = build_greedy_dfa(as_word((1, 2, 3, 2), 3))
        trace = walk_cost(a, 0, (1, 3, 2))
        assert trace.states == (0, 1, 3, 4)
        assert trace.total_cost == 4

    def test_unknown_state_and_letter(self):
        a = build_greedy_dfa(as_word((1, 2), 2))
        with pytest.raises(ValueError):
            walk_cost(a, 9, (1,))
        with pytest.raises(ValueError):
            walk_cost(a, 0, (3,))

    def test_non_integral_letter_refused(self):
        # int() would truncate the walk to 1 2, of total cost 2
        with pytest.raises(ValueError, match="not an integer"):
            walk_cost(build_subset_dfa(3), 0, (1.5, 2.2))
        assert walk_cost(build_subset_dfa(3), 0, (1.0, 2.0)).total_cost == 2

    def test_additivity_random(self):
        rng = random.Random(11)
        for _ in range(50):
            k = rng.randint(1, 5)
            dfa = random_k_dfa(k, rng.randint(1, 6), rng.randrange(10**6))
            u = tuple(rng.randint(1, k) for _ in range(rng.randint(0, 4)))
            w = tuple(rng.randint(1, k) for _ in range(rng.randint(0, 4)))
            lhs = walk_cost(dfa, 0, u + w).total_cost
            mid = walk_cost(dfa, 0, u)
            rhs = mid.total_cost + walk_cost(dfa, mid.states[-1], w).total_cost
            assert lhs == rhs

    def test_additivity_with_infinities(self):
        a = build_greedy_dfa(as_word((1, 2, 3, 2), 3))
        for u, w in [((2,), (1, 3)), ((1, 2), (1,)), ((3,), (3,))]:
            lhs = walk_cost(a, 0, u + w).total_cost
            mid = walk_cost(a, 0, u)
            rhs = mid.total_cost + walk_cost(a, mid.states[-1], w).total_cost
            assert lhs == rhs

    def test_greedy_cost_identity(self):
        # No failure: total = v_L - v_0. Failure: total = INFINITY.
        rng = random.Random(23)
        for _ in range(100):
            k = rng.randint(1, 4)
            n = rng.randint(0, 7)
            sigma = tuple(rng.randint(1, k) for _ in range(n))
            a = build_greedy_dfa(as_word(sigma, k))
            start = rng.randint(0, n)
            w = tuple(rng.randint(1, k) for _ in range(rng.randint(0, 5)))
            trace = walk_cost(a, start, w)
            stalled = any(
                trace.states[j] == trace.states[j + 1]
                for j in range(len(w))
            )
            if stalled:
                assert trace.total_cost == INFINITY
            else:
                assert trace.total_cost == trace.states[-1] - start


class TestPatternCostEquivalence:
    def test_walk_cost_vs_containment(self):
        rng = random.Random(99)
        for _ in range(60):
            k = rng.randint(1, 4)
            n = rng.randint(0, 7)
            sigma = tuple(rng.randint(1, k) for _ in range(n))
            a = build_greedy_dfa(as_word(sigma, k))
            for tau in perms(k):
                contained = brute_is_pattern(sigma, tau)
                assert contained == (walk_cost(a, 0, tau).total_cost <= n)


class TestIsKDfa:
    def test_examples(self):
        assert is_k_dfa(build_subset_dfa(3))
        assert not is_k_dfa(build_greedy_dfa(as_word((1, 2, 3, 2), 3)))
        assert is_k_dfa(build_two_track_dfa(4))

    def test_subset_structural_claim_matches_rows(self):
        # the SubsetDfa fast path must agree with the row-by-row check
        for k in range(1, 9):
            s = build_subset_dfa(k)
            expected = list(range(1, k + 1))
            assert all(sorted(s.cost_row(v)) == expected for v in s.states)


class TestCheapen:
    def test_worked_row(self):
        a = build_greedy_dfa(as_word((1, 2, 3, 2), 3))
        b = cheapen(a)
        # state 3 has the single finite entry cost(3, 2) = 1
        assert a.cost_row(3) == (INFINITY, 1, INFINITY)
        assert b.cost_row(3) == (2, 1, 3)

    def test_permutation_row_unchanged(self):
        delta = {0: (0, 0)}
        cost = {0: (2, 1)}
        d = WeightedDfa(2, 0, delta, cost)
        assert cheapen(d).cost_row(0) == (2, 1)

    def test_structure_preserved_and_k_dfa(self):
        rng = random.Random(7)
        for _ in range(40):
            k = rng.randint(1, 4)
            n = rng.randint(0, 6)
            sigma = tuple(rng.randint(1, k) for _ in range(n))
            a = build_greedy_dfa(as_word(sigma, k))
            b = cheapen(a)
            assert is_k_dfa(b)
            assert b.states == a.states
            assert b.root == a.root
            for v in a.states:
                assert b.delta_row(v) == a.delta_row(v)
                assert all(
                    x <= y for x, y in zip(b.cost_row(v), a.cost_row(v))
                )

    def test_dominates_all_short_walks_exhaustively(self):
        sigma = as_word((1, 2, 3, 2), 3)
        a = build_greedy_dfa(sigma)
        b = cheapen(a)
        words = [
            w for length in range(0, 5) for w in product((1, 2, 3), repeat=length)
        ]
        for v in a.states:
            for w in words:
                assert (
                    walk_cost(b, v, w).total_cost
                    <= walk_cost(a, v, w).total_cost
                )

    # a repeated cost <= k, or a zero, which no entry of [k] is below
    @pytest.mark.parametrize("row, what", [((1, 1), "duplicate low cost 1"), ((0, 5), "zero cost 0")])
    def test_infeasible_row_rejected(self, row, what):
        d = WeightedDfa(2, 0, {0: (0, 0)}, {0: row})
        with pytest.raises(CheapeningError, match=f"state 0: {what} admits no dominating"):
            cheapen(d)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_rows(self, data):
        # costs >= 1 or infinite: a row is refused exactly when two of its
        # costs <= k coincide; otherwise those costs stay in place and the
        # free values of [k] fill the other letters in letter order
        k = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 4))
        cost_value = st.one_of(st.integers(1, 2 * k + 1), st.just(INFINITY))
        rows = data.draw(st.lists(st.tuples(*[cost_value] * k), min_size=n, max_size=n))
        succ = data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * k), min_size=n, max_size=n))
        d = WeightedDfa(k, 0, dict(enumerate(succ)), dict(enumerate(rows)))
        lows = [[c for c in row if c <= k] for row in rows]
        if any(len(set(low)) < len(low) for low in lows):
            with pytest.raises(CheapeningError, match="duplicate low cost"):
                cheapen(d)
            return
        b = cheapen(d)
        assert is_k_dfa(b) and (b.root, b.states) == (d.root, d.states)
        for v, row in enumerate(rows):
            new = b.cost_row(v)
            assert b.delta_row(v) == d.delta_row(v)
            assert all(x <= y for x, y in zip(new, row))
            assert [x for x, c in zip(new, row) if c <= k] == lows[v]
            free = [x for x, c in zip(new, row) if c > k]
            assert free == sorted(set(range(1, k + 1)) - set(lows[v]))
        # a zero anywhere is refused too
        v, t = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, k - 1))
        rows[v] = rows[v][:t] + (0,) + rows[v][t + 1:]
        with pytest.raises(CheapeningError, match="admits no dominating"):
            cheapen(WeightedDfa(k, 0, dict(enumerate(succ)), dict(enumerate(rows))))


class TestSubsetDfa:
    def test_cost_rows(self):
        s = build_subset_dfa(3)
        v = 0b010  # {2}
        assert s.step_cost(v, 1) == 1
        assert s.step_cost(v, 3) == 2
        assert s.step_cost(v, 2) == 3
        assert s.cost_row(0) == (1, 2, 3)

    def test_transitions(self):
        s = build_subset_dfa(4)
        assert s.root == 0
        assert s.step(0, 3) == 0b0100
        assert s.step(0b0100, 3) == 0b0100
        assert s.step(0b0100, 1) == 0b0101

    def test_membership_cost_constraint(self):
        # t in v  <=>  cost(v, t) > k - |v|
        for k in range(1, 8):
            s = build_subset_dfa(k)
            for v in s.states:
                size = bin(v).count("1")
                for t in range(1, k + 1):
                    inside = bool(v >> (t - 1) & 1)
                    assert inside == (s.step_cost(v, t) > k - size)

    def test_lazy_walks_beyond_enum_cap(self):
        s = build_subset_dfa(40)
        tau = tuple(range(1, 41))
        trace = walk_cost(s, s.root, tau)
        # reading never-seen letters always pays the rank among unread: 1 each
        assert trace.total_cost == 40
        with pytest.raises(ResourceLimitError):
            s.states

    def test_census(self):
        s = build_subset_dfa(3)
        assert perm_cost_census(s) == {3: 1, 4: 2, 5: 2, 6: 1}


class TestTwoTrackDfa:
    def test_cost_cases(self):
        d = build_two_track_dfa(4)
        assert d.step_cost(-1, 3) == 3
        assert d.step_cost(0, 1) == 3
        assert d.step_cost(0, 3) == 1
        assert d.step(0, 1) == -1
        assert d.step(0, 3) == 1

    def test_boundary_holds(self):
        d = build_two_track_dfa(4)
        assert d.step(-2, 1) == -2
        assert d.step(2, 3) == 2
        assert d.step(-2, 3) == -1
        assert d.step(2, 1) == 1

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            build_two_track_dfa(5)
        with pytest.raises(ValueError):
            build_two_track_dfa(0)

    def test_is_k_dfa_all_even_k(self):
        for k in (2, 4, 6, 8, 10):
            assert is_k_dfa(build_two_track_dfa(k))

    def test_remainder_decomposition(self):
        # cost(v,t) = m*q(v,t) + r(t), q in {0,1}, r(t) in [m], r state-free
        for k in (2, 4, 6, 8, 10):
            m = k // 2
            d = build_two_track_dfa(k)
            r_seen = {}
            for v in d.states:
                for t in range(1, k + 1):
                    c = d.step_cost(v, t)
                    q, r = divmod(c - 1, m)
                    r += 1
                    assert q in (0, 1)
                    assert 1 <= r <= m
                    assert r_seen.setdefault(t, r) == r
            total_r = sum(r_seen[t] for t in range(1, k + 1))
            assert total_r == k * k // 4 + k // 2
            # differs from k^2/4 - k/2; the implementation follows the
            # cost cases verbatim
            assert total_r != k * k // 4 - k // 2


class TestCheapPermCount:
    def test_greedy_example(self):
        a = build_greedy_dfa(as_word((1, 2, 3, 2), 3))
        assert cheap_perm_count(a, 4) == 2
        got = {p.images for p in pattern_set((1, 2, 3, 2), 3)}
        assert len(got) == 2

    def test_subset_min_cost(self):
        s = build_subset_dfa(3)
        assert cheap_perm_count(s, 2) == 0
        assert cheap_perm_count(s, 3) == 1
        assert cheap_perm_count(s, 6) == 6

    def test_full_budget_reaches_factorial(self):
        for k in (1, 2, 3, 4):
            for dfa in (build_subset_dfa(k), random_k_dfa(k, 5, 3)):
                assert cheap_perm_count(dfa, k * k) == math.factorial(k)

    def test_monotone_and_matches_census(self):
        rng = random.Random(5)
        for _ in range(20):
            k = rng.randint(1, 4)
            dfa = random_k_dfa(k, rng.randint(1, 6), rng.randrange(10**6))
            census = perm_cost_census(dfa)
            prev = 0
            for n in range(0, k * k + 1):
                got = cheap_perm_count(dfa, n)
                assert got == sum(c for cost, c in census.items() if cost <= n)
                assert got >= prev
                prev = got

    def test_at_least_one_per_step(self):
        # a k-DFA walk pays at least 1 per letter
        for k in (2, 3, 4):
            assert cheap_perm_count(build_subset_dfa(k), k - 1) == 0

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            cheap_perm_count(build_subset_dfa(12), 5)

    def test_nan_budget_is_refused_on_every_path(self):
        # the closed form (subset root), the packed DP and the dict path
        for dfa in (build_subset_dfa(4), build_two_track_dfa(4), wide_with_infinity()):
            with pytest.raises(ValueError, match="budget must be a number"):
                cheap_perm_count(dfa, float("nan"))
            with pytest.raises(ValueError, match="budget must be a number"):
                _injective_cost_layers(dfa, dfa.root, 2, math.nan)


class TestInjectiveCostLayers:
    """The (state, letters read) subset DP against plain enumeration."""

    def check_all_lengths_and_budgets(self, dfa, start):
        k = dfa.alphabet_size
        ref = [injective_walk_costs(dfa, start, L) for L in range(k + 1)]
        for max_len in range(k + 1):
            low = min(ref[max_len]) - 1
            top = k * k
            for budget in [None, *range(low, top + 1)]:
                got = _injective_cost_layers(dfa, start, max_len, budget)
                assert len(got) == max_len + 1
                assert got[0] == {0: 1}
                for L in range(1, max_len + 1):
                    assert got[L] == within(ref[L], budget), (start, max_len, L, budget)

    def test_random_k_dfas_from_non_root_starts(self):
        rng = random.Random(41)
        for _ in range(10):
            k = rng.randint(1, 6)
            dfa = random_k_dfa(k, rng.randint(2, 6), rng.randrange(10**6))
            others = [v for v in dfa.states if v != dfa.root]
            for start in rng.sample(others, min(2, len(others))):
                self.check_all_lengths_and_budgets(dfa, start)

    def test_random_weighted_dfas_with_zero_and_repeated_costs(self):
        rng = random.Random(42)
        for _ in range(10):
            k = rng.randint(1, 5)
            n = rng.randint(2, 5)
            delta = {v: tuple(rng.randrange(n) for _ in range(k)) for v in range(n)}
            cost = {v: tuple(rng.randint(0, 3) for _ in range(k)) for v in range(n)}
            dfa = WeightedDfa(k, 0, delta, cost)
            self.check_all_lengths_and_budgets(dfa, rng.randrange(1, n))

    def test_greedy_not_cheapened_keeps_infinity(self):
        rng = random.Random(43)
        seen_infinite = False
        for _ in range(12):
            k = rng.randint(1, 5)
            word = tuple(rng.randint(1, k) for _ in range(rng.randint(0, 7)))
            a = build_greedy_dfa(as_word(word, k))
            for start in a.states:
                ref = injective_walk_costs(a, start, k)
                assert _injective_cost_layers(a, start, k)[k] == ref
                seen_infinite |= INFINITY in ref
            census = injective_walk_costs(a, a.root, k)
            assert perm_cost_census(a) == census
            for budget in range(-1, k * k + 1):
                assert cheap_perm_count(a, budget) == sum(within(census, budget).values())
        assert seen_infinite

    def test_subset_census_and_tight_budgets(self):
        for k in range(1, 7):
            s = build_subset_dfa(k)
            census = injective_walk_costs(s, 0, k)
            assert perm_cost_census(s) == census
            for budget in range(k - 1, k * k + 1):
                assert cheap_perm_count(s, budget) == sum(within(census, budget).values())


def greedy_with_infinity():
    a = build_greedy_dfa(as_word((1, 2, 3, 2, 4, 1), 4))
    assert INFINITY in brute_injective_costs(a, a.root, 4)
    return a


class TestPackedKernel:
    """The packed-histogram subset DP and its callers against plain
    enumeration (tests/oracles.py), on every automaton family."""

    AUTOMATA = [
        ("subset", lambda: build_subset_dfa(5), (0, 0b10110)),
        ("random", lambda: random_k_dfa(5, 6, 11), (0, 3)),
        ("two-track", lambda: build_two_track_dfa(6), (0, -2, 3)),
        ("greedy", greedy_with_infinity, (0, 2, 6)),
    ]

    @pytest.mark.parametrize("name,make,starts", AUTOMATA, ids=[a[0] for a in AUTOMATA])
    def test_layers_lengths_and_budgets(self, name, make, starts):
        dfa = make()
        k = dfa.alphabet_size
        for start in starts:
            ref = [brute_injective_costs(dfa, start, L) for L in range(k + 1)]
            top = max((c for c in ref[k] if c != INFINITY), default=0)
            for max_len in (0, 1, k):
                for budget in (None, 0, top // 2, top + 1, 10**9):
                    got = _injective_cost_layers(dfa, start, max_len, budget)
                    assert len(got) == max_len + 1
                    for L in range(max_len + 1):
                        assert got[L] == within(ref[L], budget), (name, start, max_len, L, budget)

    @pytest.mark.parametrize("name,make,starts", AUTOMATA, ids=[a[0] for a in AUTOMATA])
    def test_callers(self, name, make, starts):
        dfa = make()
        k = dfa.alphabet_size
        census = brute_injective_costs(dfa, dfa.root, k)
        assert perm_cost_census(dfa) == census
        top = max(c for c in census if c != INFINITY)
        for budget in (-1, 0, top // 2, top, top + 1, 10**9):
            assert cheap_perm_count(dfa, budget) == sum(within(census, budget).values())
        for start in starts:
            dists = cost_distributions_by_length(dfa, start, k)
            assert dists == [brute_injective_costs(dfa, start, L) for L in range(k + 1)]
        if not is_k_dfa(dfa):
            return
        for L in (1, k // 2, k):
            for eps in (0.0, 0.1, 0.25, 0.5):
                bound = math.ceil((Fraction(1, 2) - Fraction(str(eps))) * k * L) - 1
                shares = {}
                for start in dfa.states:
                    dist = brute_injective_costs(dfa, start, L)
                    hits = sum(n for c, n in dist.items() if c <= bound)
                    shares[start] = Fraction(hits, math.perm(k, L))
                for start in starts:
                    assert exact_P(dfa, start, L, eps) == shares[start]
                assert exact_P_max(dfa, L, eps) == max(shares.values())

    def test_mahonian_product_for_the_subset_automaton(self):
        # 12! = 479001600 needs a 29-bit digit; k = 60 puts costs up to 60
        # on each step
        for k, L in ((60, 3), (12, 12), (12, 5)):
            got = cost_distributions_by_length(build_subset_dfa(k), 0, L, max_words=10**10)
            for l in range(L + 1):
                assert got[l] == shifted_mahonian(range(k, k - l, -1)), (k, l)
        census = perm_cost_census(build_subset_dfa(12), max_words=math.factorial(12))
        assert census == shifted_mahonian(range(12, 0, -1))
        assert sum(census.values()) == math.factorial(12)
        assert cheap_perm_count(build_subset_dfa(12), 30, max_words=math.factorial(12)) == sum(
            n for c, n in census.items() if c <= 30
        )

    def test_wide_costs_take_the_dict_path(self, monkeypatch):
        # one step cost near 10^5: packed, every histogram would be an
        # integer of millions of bits
        k = 6
        base = random_k_dfa(k, 4, 7)
        cost = {v: base.cost_row(v) for v in base.states}
        cost[0] = (99_991,) + cost[0][1:]
        wide = WeightedDfa(k, 0, {v: base.delta_row(v) for v in base.states}, cost)
        calls = []
        sparse = dfa_module._injective_cost_layers_sparse

        def spy(*args):
            calls.append(args)
            return sparse(*args)

        monkeypatch.setattr(dfa_module, "_injective_cost_layers_sparse", spy)
        began = time.perf_counter()
        census = perm_cost_census(wide)
        assert time.perf_counter() - began < 1.0
        assert calls
        assert census == brute_injective_costs(wide, 0, k)
        assert 99_991 <= max(census) < 99_991 + k * k
        assert cheap_perm_count(wide, 30) == sum(within(census, 30).values())

    def test_dict_path_bound(self, monkeypatch):
        # the largest total decides the path: at the bound the histograms
        # are packed, one past it they are dicts, with equal answers
        calls = []
        sparse = dfa_module._injective_cost_layers_sparse
        monkeypatch.setattr(
            dfa_module, "_injective_cost_layers_sparse",
            lambda *args: calls.append(args) or sparse(*args),
        )
        k = 4
        limit = dfa_module._PACKED_MAX_TOTAL
        for top, packed in ((limit // k, True), (limit // k + 1, False)):
            delta = {0: (1, 0, 1, 0), 1: (0, 0, 1, 1)}
            cost = {0: (1, top, 2, 3), 1: (4, 3, 2, 1)}
            dfa = WeightedDfa(k, 0, delta, cost)
            calls.clear()
            got = _injective_cost_layers(dfa, 0, k)
            assert (not calls) == packed
            assert got == [brute_injective_costs(dfa, 0, L) for L in range(k + 1)]

    def test_packed_and_dict_paths_agree(self):
        rng = random.Random(44)
        for _ in range(30):
            k = rng.randint(1, 5)
            n = rng.randint(1, 5)
            delta = {v: tuple(rng.randrange(n) for _ in range(k)) for v in range(n)}
            cost = {
                v: tuple(rng.choice((0, 1, 2, 5, INFINITY)) for _ in range(k))
                for v in range(n)
            }
            dfa = WeightedDfa(k, 0, delta, cost)
            start = rng.randrange(n)
            for budget in (None, -1, 0, 3, 7, 10**9):
                for max_len in range(k + 1):
                    assert _injective_cost_layers(dfa, start, max_len, budget) == (
                        dfa_module._injective_cost_layers_sparse(dfa, start, max_len, budget)
                    )


def subset_as_table(k):
    """SubsetDfa(k) copied into a WeightedDfa from its delta_row/cost_row,
    so _injective_cost_layers runs its DP on the same costs."""
    s = build_subset_dfa(k)
    return WeightedDfa(
        k, 0, {v: s.delta_row(v) for v in s.states}, {v: s.cost_row(v) for v in s.states}
    )


class TestSubsetRootClosedForm:
    """The closed-form Mahonian layers from the subset root against the DP
    they replaced, run on a table copy of the same automaton."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_layers_match_the_dp(self, k):
        s, table = build_subset_dfa(k), subset_as_table(k)
        # the root takes the closed form; a start inside the lattice keeps
        # the DP on both automata
        for start in (0, 0b00101 & ((1 << k) - 1)):
            for max_len in range(k + 1):
                ceiling = max_len * k
                for budget in (None, -1, 0, ceiling // 2, ceiling, ceiling + 1, 10**9):
                    closed = _injective_cost_layers(s, start, max_len, budget)
                    dp = _injective_cost_layers(table, start, max_len, budget)
                    # key order too, so printed outputs stay byte-identical
                    assert [list(c.items()) for c in closed] == [
                        list(c.items()) for c in dp
                    ], (k, start, max_len, budget)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_callers_match_the_dp(self, k):
        s, table = build_subset_dfa(k), subset_as_table(k)
        census = perm_cost_census(s)
        assert list(census.items()) == list(perm_cost_census(table).items())
        for budget in range(-1, k * k + 2):
            assert cheap_perm_count(s, budget) == cheap_perm_count(table, budget), budget
        for L in range(k + 1):
            for eps in (0.0, 0.1, 0.25, 0.35, 0.5):
                for strict in (True, False):
                    assert exact_P(s, 0, L, eps, strict=strict) == exact_P(
                        table, 0, L, eps, strict=strict
                    ), (L, eps, strict)

    @pytest.mark.parametrize("width", [1, 3, 17, 64])
    def test_long_decode_matches_unpack(self, width):
        # _unpack splits integers of more than _PACKED_MAX_TOTAL digits; the
        # histogram is the digits read one at a time, keys ascending
        rng = random.Random(width)
        for digits in (0, 1, 1024, 1025, 2049, 5000):
            # runs of empty digits inside and at the top
            values = [rng.choice((0, 0, rng.randrange(1 << width))) for _ in range(digits)]
            packed = sum(n << width * c for c, n in enumerate(values))
            want = [(c, n) for c, n in enumerate(values) if n]
            assert list(dfa_module._unpack(packed, width).items()) == want, digits

    @pytest.mark.parametrize("max_len, budget", [(26, None), (30, None), (30, 500)])
    def test_layers_past_the_packed_size_match_the_oracle(self, max_len, budget):
        # k * max_len > _PACKED_MAX_TOTAL: _unpack splits the layers
        k = 40
        assert k * max_len > dfa_module._PACKED_MAX_TOTAL
        layers = _injective_cost_layers(build_subset_dfa(k), 0, max_len, budget)
        for L in (0, 1, max_len // 2, max_len):
            got, want = layers[L], shifted_mahonian(range(k, k - L, -1))
            if budget is not None:
                want = {c: n for c, n in want.items() if c <= budget}
            assert got == want, L
            assert list(got) == sorted(got)

    def test_one_letter_at_a_million_is_linear(self):
        # 10^6 one-letter words, inside the default cap: decoding the
        # 10^6-digit layer with _unpack's shift per digit took minutes
        k = 10**6
        began = time.perf_counter()
        dists = cost_distributions_by_length(build_subset_dfa(k), 0, 1)
        assert time.perf_counter() - began < 30.0
        assert list(dists[0].items()) == [(0, 1)]
        assert len(dists[1]) == k
        assert list(dists[1]) == list(range(1, k + 1))
        assert set(dists[1].values()) == {1}


def renamed(dfa, name):
    """dfa with every state v renamed name(v), rows and state order kept."""
    return WeightedDfa(
        dfa.alphabet_size,
        name(dfa.root),
        {name(v): tuple(map(name, dfa.delta_row(v))) for v in dfa.states},
        {name(v): dfa.cost_row(v) for v in dfa.states},
    )


def ascending_then_infinity(dist):
    finite = sorted(c for c in dist if c != INFINITY)
    return list(dist) == finite + [INFINITY] * (INFINITY in dist)


class TestIntegerKeyedKernel:
    """The DP's integer keys and edge rows (dfa._edge_rows) and its
    last-layer callers against plain enumeration (tests/oracles.py)."""

    @pytest.mark.parametrize(
        "rename", [lambda v: f"s{v}", lambda v: (v % 2, v), lambda v: -v - 1],
        ids=["str", "tuple", "negative-int"],
    )
    def test_state_names_and_negative_key_steps(self, rename):
        # greedy automata only move forward, and carry INFINITY
        for base, goes_back in (
            (random_k_dfa(5, 6, 3), True), (build_two_track_dfa(4), True), (greedy_with_infinity(), False),
        ):
            dfa = renamed(base, rename)
            k = dfa.alphabet_size
            rows = dfa_module._edge_rows(dfa, 1)
            # per state, its finite edges in letter order, and no others
            assert [[(bit.bit_length(), c) for bit, _, c in row] for row in rows.finite] == [
                [(t, c) for t, c in enumerate(dfa.cost_row(v), start=1) if c != INFINITY]
                for v in dfa.states
            ]
            edges = [e for row in rows.finite for e in row]
            # a successor with a lower index than its state steps the key down
            assert any(step < 0 for _, step, _ in edges) == goes_back
            for start in dfa.states[:3]:
                ref = [brute_injective_costs(dfa, start, L) for L in range(k + 1)]
                for max_len in range(k + 1):
                    for budget in (None, 0, 7, 10**9):
                        want = [within(r, budget) for r in ref[: max_len + 1]]
                        assert _injective_cost_layers(dfa, start, max_len, budget) == want
                        sparse = dfa_module._injective_cost_layers_sparse
                        assert sparse(dfa, start, max_len, budget) == want

    def test_wide_subset_off_the_root_lists_no_states(self):
        # past MAX_SUBSET_ENUM_K the states property raises, so this
        # passes only if the DP never enumerates them
        s = build_subset_dfa(30)
        with pytest.raises(ResourceLimitError):
            s.states
        start = 0b1011 << 20 | 0b101
        ref = [brute_injective_costs(s, start, L) for L in range(3)]
        for budget in (None, 3, 31, 10**9):
            want = [within(r, budget) for r in ref]
            assert _injective_cost_layers(s, start, 2, budget) == want
            assert dfa_module._injective_cost_layers_sparse(s, start, 2, budget) == want
        for eps in (0.0, 0.25, 0.45):
            bound = math.ceil((Fraction(1, 2) - Fraction(str(eps))) * 30 * 2) - 1
            hits = sum(n for c, n in ref[2].items() if c <= bound)
            assert exact_P(s, start, 2, eps) == Fraction(hits, 30 * 29)

    @pytest.mark.parametrize(
        "name,make,starts", TestPackedKernel.AUTOMATA, ids=[a[0] for a in TestPackedKernel.AUTOMATA]
    )
    def test_finite_costs_ascending_then_infinity(self, name, make, starts):
        dfa = make()
        k = dfa.alphabet_size
        for start in starts:
            for budget in (None, 0, 9, 10**9):
                for dist in _injective_cost_layers(dfa, start, k, budget):
                    assert ascending_then_infinity(dist), (name, start, budget)
        assert ascending_then_infinity(perm_cost_census(dfa))

    @pytest.mark.parametrize(
        "name,make,starts", TestPackedKernel.AUTOMATA, ids=[a[0] for a in TestPackedKernel.AUTOMATA]
    )
    def test_last_layer_callers_read_the_decoded_layers(self, name, make, starts):
        # perm_cost_census, cheap_perm_count and exact_P decode only the
        # last layer; cost_distributions_by_length decodes them all
        dfa = make()
        k = dfa.alphabet_size
        last = cost_distributions_by_length(dfa, dfa.root, k)[k]
        assert list(perm_cost_census(dfa).items()) == list(last.items())
        for budget in (-1, 0, 9, 14, 10**9):
            assert cheap_perm_count(dfa, budget) == sum(within(last, budget).values())
        if not is_k_dfa(dfa):
            return
        for L in range(k + 1):
            bound = math.ceil((Fraction(1, 2) - Fraction("0.1")) * k * L) - 1
            shares = {}
            for start in dfa.states:
                dist = cost_distributions_by_length(dfa, start, L)[L]
                shares[start] = Fraction(sum(within(dist, bound).values()), sum(dist.values()))
            for start in starts:
                assert exact_P(dfa, start, L, 0.1) == shares[start]
            assert exact_P_max(dfa, L, 0.1) == max(shares.values())

    def test_real_and_infinite_budgets_agree_on_every_path(self):
        # closed form (subset root), packed DP (its table copy, and the
        # others) and the dict path; a real budget counts as its floor, and
        # INFINITY admits every total, INFINITY itself included, and -inf,
        # which has no floor, admits none
        sparse = dfa_module._injective_cost_layers_sparse
        for dfa in (build_subset_dfa(4), subset_as_table(4), build_two_track_dfa(4), greedy_with_infinity()):
            k = dfa.alphabet_size
            census = brute_injective_costs(dfa, dfa.root, k)
            for budget in (2.5, -0.5, math.inf, -math.inf, True, 6.5, 13.99):
                if budget == -math.inf:
                    want = {}
                else:
                    want = within(census, None if budget == math.inf else math.floor(budget))
                assert cheap_perm_count(dfa, budget) == sum(want.values()), (dfa, budget)
                assert _injective_cost_layers(dfa, dfa.root, k, budget)[k] == want
                assert sparse(dfa, dfa.root, k, budget)[k] == want


def both_folds(monkeypatch, dfa, start, max_len, budget=None):
    """_injective_cost_layers with the last layer taken by complement
    wherever the DP can (dfa._last_two_by_complement), then by the per-edge
    fold everywhere, and whether the first run took the complement."""
    calls = []
    fold = dfa_module._last_two_by_complement
    monkeypatch.setattr(
        dfa_module, "_last_two_by_complement", lambda *args: calls.append(args) or fold(*args)
    )
    out = []
    for complement in (True, False):
        monkeypatch.setattr(dfa_module, "_complement_pays", lambda k, L, c=complement: c)
        out.append(_injective_cost_layers(dfa, start, max_len, budget))
    return out + [bool(calls)]


def weighted_zero_and_infinity():
    # zero costs, INFINITY edges, and successors on both sides of a state
    delta = {0: (2, 0, 1, 3, 2), 1: (0, 3, 1, 2, 0), 2: (1, 2, 3, 0, 0), 3: (3, 1, 0, 2, 1)}
    cost = {
        0: (0, 2, INFINITY, 1, 0),
        1: (3, 0, 0, INFINITY, 1),
        2: (1, 1, 2, 0, INFINITY),
        3: (0, INFINITY, 4, 2, 2),
    }
    return WeightedDfa(5, 0, delta, cost)


class TestComplementFold:
    """The DP's last two layers taken by complement against the per-edge
    fold, key order included, and against plain enumeration
    (tests/oracles.py)."""

    BUDGETS = (None, -1, 0, 2.5, 7, math.inf)
    AUTOMATA = [
        ("random", lambda: random_k_dfa(7, 6, 11), (0, 3, 5)),
        ("negative-names", lambda: renamed(random_k_dfa(6, 5, 3), lambda v: -v - 1), (-1, -3)),
        ("two-track", lambda: build_two_track_dfa(6), (0, -3, 2)),
        ("weighted", weighted_zero_and_infinity, (0, 1, 3)),
        ("greedy", greedy_with_infinity, (0, 2, 6)),
        ("subset", lambda: build_subset_dfa(7), (0b1, 0b1010010, 0b1111110)),
    ]

    def test_taken_when_it_pays(self, monkeypatch):
        calls = []
        fold = dfa_module._last_two_by_complement
        monkeypatch.setattr(
            dfa_module, "_last_two_by_complement", lambda *args: calls.append(args) or fold(*args)
        )
        for dfa, start, max_len, budget, taken in (
            (random_k_dfa(12, 20, 5), 3, 4, None, True),  # 2 * 3 < 12
            # off the root of a SubsetDfa, rows come from the rank formula
            # and the per-edge fold stores no weights per successor state
            (build_subset_dfa(12), 0b101, 3, 20, False),
            (random_k_dfa(8, 10, 2), 0, 5, None, False),  # 2 * 4 >= 8
            (random_k_dfa(12, 20, 5), 3, 1, None, False),  # no layer before the last two
            # INFINITY edges weigh 0 in the complement, with or without a
            # budget: the decoder counts their words
            (greedy_with_infinity(), 0, 2, None, True),
            (greedy_with_infinity(), 0, 2, 9, True),
        ):
            calls.clear()
            _injective_cost_layers(dfa, start, max_len, budget)
            assert bool(calls) == taken, (dfa, start, max_len, budget)

    @pytest.mark.parametrize("name,make,starts", AUTOMATA, ids=[a[0] for a in AUTOMATA])
    def test_both_folds_match_the_oracle(self, monkeypatch, name, make, starts):
        dfa = make()
        k = dfa.alphabet_size
        for start in starts:
            ref = [brute_injective_costs(dfa, start, L) for L in range(k + 1)]
            for max_len in range(k + 1):
                for budget in self.BUDGETS:
                    complement, per_edge, ran = both_folds(monkeypatch, dfa, start, max_len, budget)
                    # every table automaton, INFINITY edges and all, takes the
                    # complement once a layer precedes the last two
                    assert ran == (name != "subset" and max_len >= 2), (name, start, max_len, budget)
                    assert [list(c.items()) for c in complement] == [
                        list(c.items()) for c in per_edge
                    ], (name, start, max_len, budget)
                    # layer 0, the empty word, is {0: 1} under every budget
                    assert complement[1:] == [within(r, budget) for r in ref[1 : max_len + 1]]

    @pytest.mark.parametrize("k, start", [(40, 0b1), (40, 0b1011 << 20 | 0b101), (64, 0b11 << 60 | 0b1)])
    def test_wide_subset_off_the_root(self, k, start):
        # short words on a wide alphabet, where the complement would pay on
        # a table automaton; the subset automaton keeps the per-edge fold
        s = build_subset_dfa(k)
        ref = [brute_injective_costs(s, start, L) for L in range(3)]
        for max_len in (2, 3, 4):
            if k == 64 and max_len == 4:
                continue
            for budget in (None, 2.5, 60) if max_len < 4 else (None,):
                layers = _injective_cost_layers(s, start, max_len, budget)
                assert layers[1:3] == [within(r, budget) for r in ref[1:]]
                last = layers[-1]
                assert ascending_then_infinity(last)
                if budget is None:
                    assert sum(last.values()) == math.perm(k, max_len)
                else:
                    assert max(last, default=0) <= budget

    def test_callers_read_the_same_answers(self, monkeypatch):
        # exact_P at short L, where the complement serves by default
        for dfa in (random_k_dfa(10, 7, 4), build_two_track_dfa(10)):
            answers = []
            for complement in (True, False):
                monkeypatch.setattr(dfa_module, "_complement_pays", lambda k, L, c=complement: c)
                answers.append(
                    [exact_P(dfa, v, L, eps) for v in dfa.states[:4] for L in (2, 3, 4) for eps in (0.0, 0.2)]
                )
            assert answers[0] == answers[1]


def wide_with_infinity():
    # finite costs too wide to pack past one letter (the dict path), and
    # INFINITY edges
    return WeightedDfa(
        4, 0, {0: (1, 0, 1, 0), 1: (0, 1, 1, 0)}, {0: (600, 1, INFINITY, 3), 1: (2, 5, 1, INFINITY)}
    )


def fresh(dfa):
    """An equal automaton that has built and kept nothing yet."""
    return WeightedDfa(
        dfa.alphabet_size,
        dfa.root,
        {v: dfa.delta_row(v) for v in dfa.states},
        {v: dfa.cost_row(v) for v in dfa.states},
    )


def items(dists):
    return [list(d.items()) for d in dists]


class TestKernelPlan:
    """One automaton answering many interleaved queries, each against a
    fresh equal automaton (key order included) and against plain
    enumeration (tests/oracles.py): nothing the automaton keeps (edge rows
    per digit width, complement constants, verdicts) may leak between
    queries."""

    BUDGETS = (None, -1, 0, 2.5, math.inf)
    AUTOMATA = [
        # k = 7: L = 6 and 7 share a digit width, every other L has its own
        ("random", lambda: random_k_dfa(7, 6, 11), (0, 3, 5)),
        ("str-names", lambda: renamed(random_k_dfa(6, 5, 3), lambda v: f"s{v}"), ("s0", "s4", "s2")),
        ("negative-names", lambda: renamed(build_two_track_dfa(6), lambda v: -v - 10), (-10, -7, -13)),
        ("weighted", weighted_zero_and_infinity, (0, 1, 3)),
        ("greedy", greedy_with_infinity, (0, 2, 6)),
        ("wide", wide_with_infinity, (0, 1)),
    ]

    @pytest.mark.parametrize("name,make,starts", AUTOMATA, ids=[a[0] for a in AUTOMATA])
    def test_interleaved_layers(self, monkeypatch, name, make, starts):
        dfa = make()
        k = dfa.alphabet_size
        ref = {start: [brute_injective_costs(dfa, start, L) for L in range(k + 1)] for start in starts}
        queries = [
            (start, max_len, budget, complement)
            for start in starts
            for max_len in range(k + 1)
            for budget in self.BUDGETS
            for complement in (True, False)
        ]
        random.Random(name).shuffle(queries)
        for start, max_len, budget, complement in queries:
            # both folds, forced wherever the DP can take the complement
            monkeypatch.setattr(dfa_module, "_complement_pays", lambda k, L, c=complement: c)
            got = _injective_cost_layers(dfa, start, max_len, budget)
            want = _injective_cost_layers(fresh(dfa), start, max_len, budget)
            assert items(got) == items(want), (name, start, max_len, budget, complement)
            assert got[1:] == [within(r, budget) for r in ref[start][1 : max_len + 1]]
            assert all(ascending_then_infinity(d) for d in got)
            sparse = dfa_module._injective_cost_layers_sparse(dfa, start, max_len, budget)
            assert items(sparse) == items(got)

    def test_widths_keep_their_own_rows(self):
        # one entry per digit width the queries used, none for another
        # a second query at a width reuses the rows the first one kept
        dfa = random_k_dfa(7, 6, 11)
        kept = {}
        for max_len in (2, 5, 3, 7, 6, 2):
            _injective_cost_layers(dfa, 3, max_len)
            width = math.perm(7, max_len).bit_length()
            assert dfa._rows[width] is kept.setdefault(width, dfa._rows[width])
        assert set(dfa._rows) == set(kept) == {6, 8, 12, 13}
        for width, rows in dfa._rows.items():
            assert rows.finite == dfa_module._edge_rows(dfa, width).finite

    def test_interleaved_callers(self):
        for dfa, starts in (
            (random_k_dfa(6, 7, 5), (0, 4, 6)),
            (renamed(build_two_track_dfa(6), lambda v: f"t{v}"), ("t0", "t-3", "t2")),
            (cheapen(greedy_with_infinity()), (0, 3)),
        ):
            k = dfa.alphabet_size
            census = brute_injective_costs(dfa, dfa.root, k)
            for L in (2, k, 1, 3):
                for eps in (0.0, 0.15, 0.3):
                    for start in starts:
                        assert exact_P(dfa, start, L, eps) == exact_P(fresh(dfa), start, L, eps)
                    assert exact_P_max(dfa, L, eps) == exact_P_max(fresh(dfa), L, eps)
                for budget in self.BUDGETS:
                    assert cheap_perm_count(dfa, budget) == sum(within(census, budget).values())
                assert list(perm_cost_census(dfa).items()) == list(perm_cost_census(fresh(dfa)).items())
                assert perm_cost_census(dfa) == census
                for start in starts:
                    assert items(cost_distributions_by_length(dfa, start, L)) == items(
                        cost_distributions_by_length(fresh(dfa), start, L)
                    )

    def test_k_dfa_verdict_and_largest_cost(self):
        greedy = greedy_with_infinity()
        for dfa, verdict in ((greedy, False), (cheapen(greedy), True), (build_two_track_dfa(4), True)):
            for _ in range(2):
                assert is_k_dfa(dfa) == verdict
                assert dfa_module._largest_finite_cost(dfa) == max(
                    c for v in dfa.states for c in dfa.cost_row(v) if c != INFINITY
                )

    def test_threads_share_one_automaton(self):
        # more threads than cores, switching every microsecond, each
        # round on an automaton that has kept nothing: a part published
        # before it is whole (complement constants filled in place) gave
        # some thread a wrong answer in 2 to 23 of 40 rounds
        base = random_k_dfa(16, 40, 4)
        queries = [(start, 3) for start in range(0, 40, 3)]
        want = {q: _injective_cost_layers(fresh(base), *q) for q in queries}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(60):
                shared = fresh(base)
                wrong = []

                def work():
                    for q in queries:
                        if _injective_cost_layers(shared, *q) != want[q]:
                            wrong.append(q)

                threads = [threading.Thread(target=work) for _ in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert wrong == []
        finally:
            sys.setswitchinterval(interval)

    def test_subset_automaton_keeps_nothing(self):
        s = build_subset_dfa(6)
        for start in (0, 0b101):
            _injective_cost_layers(s, start, 4, 9)
            exact_P(s, start, 3, 0.1)
        cheap_perm_count(s, 10)
        assert is_k_dfa(s)
        assert vars(s) == {"alphabet_size": 6, "root": 0}


def weighted_costs(k, n, seed, costs):
    """A seeded n-state weighted automaton over [k] whose costs are drawn
    from costs (INFINITY allowed)."""
    rng = random.Random(seed)
    delta = {v: tuple(rng.randrange(n) for _ in range(k)) for v in range(n)}
    cost = {v: tuple(rng.choice(costs) for _ in range(k)) for v in range(n)}
    return WeightedDfa(k, 0, delta, cost)


def random_greedy(k, seed):
    # a greedy automaton of a random word over [k] that misses some
    # permutation: INFINITY edges on the root's walks
    rng = random.Random(seed)
    while True:
        a = build_greedy_dfa(as_word([rng.randint(1, k) for _ in range(2 * k)], k))
        if INFINITY in brute_injective_costs(a, a.root, k):
            return a


def finite_costs(dfa):
    return [c for v in dfa.states for c in dfa.cost_row(v) if c != INFINITY]


class TestBudgetLookahead:
    """cheap_perm_count's DP drops a prefix of l letters once its total
    passes budget - (L - l) * c_min, c_min the smallest finite step cost:
    the answers against the unbudgeted census and the every-layer kernel,
    and the layers it keeps against plain enumeration (tests/oracles.py)."""

    AUTOMATA = [
        *[(f"random{k}", lambda k=k: random_k_dfa(k, 6, 100 + k)) for k in range(1, 10)],
        *[(f"two-track{k}", lambda k=k: build_two_track_dfa(k)) for k in (2, 4, 6, 8)],
        *[(f"subset{k}", lambda k=k: build_subset_dfa(k)) for k in (1, 3, 6, 9)],
        ("greedy", greedy_with_infinity),
        *[(f"greedy{k}", lambda k=k: random_greedy(k, k)) for k in (3, 5, 7)],
        ("cheapened", lambda: cheapen(greedy_with_infinity())),
        *[(f"cheapened{k}", lambda k=k: cheapen(random_greedy(k, k))) for k in (5, 7)],
        # c_min = 0: nothing is dropped early
        ("zero", weighted_zero_and_infinity),
        ("min-2", lambda: weighted_costs(6, 4, 7, (2, 3, 5, INFINITY))),
        # finite costs too wide to pack: the dict path
        ("wide", wide_with_infinity),
        ("wide-min-3", lambda: weighted_costs(5, 3, 8, (3, 4, 250, 700, INFINITY))),
    ]
    IDS = [a[0] for a in AUTOMATA]

    @pytest.mark.parametrize("name,make", AUTOMATA, ids=IDS)
    def test_count_is_the_census_prefix_sum(self, name, make):
        dfa = make()
        k = dfa.alphabet_size
        census = perm_cost_census(dfa)
        top = k * max(finite_costs(dfa))
        running = 0
        for budget in range(-1, top + 2):
            running += census.get(budget, 0)
            assert cheap_perm_count(dfa, budget) == running, (name, budget)

    @pytest.mark.parametrize("name,make", AUTOMATA, ids=IDS)
    def test_last_layer_matches_the_every_layer_kernel(self, name, make):
        dfa = make()
        k = dfa.alphabet_size
        starts = list(dfa.states)[:64]
        for start in starts:
            for L in range(k + 1) if k <= 7 else (2, 3, k - 1, k):
                for budget in (-1, 0, 3, 2 * L, k * L // 2, None):
                    got = dfa_module._last_cost_layer(dfa, start, L, budget)
                    want = _injective_cost_layers(dfa, start, L, budget)[L]
                    assert list(got.items()) == list(want.items()), (name, start, L, budget)

    PRUNED = [
        ("random", lambda: random_k_dfa(7, 5, 3), (0, 2, 4)),
        ("two-track", lambda: build_two_track_dfa(6), (0, -3, 2)),
        ("greedy", greedy_with_infinity, (0, 2, 6)),
        ("cheapened", lambda: cheapen(greedy_with_infinity()), (0, 3)),
        ("zero", weighted_zero_and_infinity, (0, 1)),
        ("min-2", lambda: weighted_costs(6, 4, 7, (2, 3, 5, INFINITY)), (0, 1, 3)),
        ("wide", wide_with_infinity, (0, 1)),
        ("wide-min-3", lambda: weighted_costs(5, 3, 8, (3, 4, 250, 700, INFINITY)), (0, 2)),
        # off the root a SubsetDfa runs the DP, not the closed form
        ("subset-off-root", lambda: build_subset_dfa(6), (0b1, 0b100110)),
    ]

    @pytest.mark.parametrize("name,make,starts", PRUNED, ids=[a[0] for a in PRUNED])
    def test_kept_layers_stop_at_the_lookahead(self, name, make, starts):
        dfa = make()
        k = dfa.alphabet_size
        c_min = min(finite_costs(dfa))
        assert (name == "zero") == (c_min == 0)
        for start in starts:
            ref = [brute_injective_costs(dfa, start, L) for L in range(k + 1)]
            for max_len in range(k + 1):
                # every budget at which some layer's kept totals change
                budgets = {-1} | {
                    c + (max_len - l) * c_min + d
                    for l in range(max_len + 1)
                    for c in ref[l]
                    if c != INFINITY
                    for d in (-1, 0)
                }
                for budget in sorted(budgets):
                    layers, decode = dfa_module._cost_layers(dfa, start, max_len, budget, lookahead=True)
                    # layer 0, the empty word, is {0: 1} under every budget
                    for l, layer in enumerate(layers[1:], 1):
                        cap = budget - (max_len - l) * c_min
                        assert decode(l, layer) == within(ref[l], cap), (name, start, max_len, l, budget)

    def test_only_a_budgeted_count_looks_ahead(self, monkeypatch):
        # the answers cannot show a missing lookahead, only the DP's calls
        calls = []
        kernel = dfa_module._cost_layers
        monkeypatch.setattr(
            dfa_module, "_cost_layers", lambda *args, **kw: calls.append((args[3:], kw)) or kernel(*args, **kw)
        )
        dfa = random_k_dfa(6, 4, 1)
        cheap_perm_count(dfa, 9)
        assert calls == [((9,), {"lookahead": True})]
        calls.clear()
        # exact_P and the censuses run unbudgeted
        exact_P(dfa, 0, 4, 0.1)
        perm_cost_census(dfa)
        cost_distributions_by_length(dfa, 0, 3)
        assert calls == [((None,), {"lookahead": True})] * 2 + [((None,), {})]


def dense_calls(monkeypatch):
    """The (letters read at the switch, max_len) of each _dense_layers
    call from here on."""
    calls = []
    dense = dfa_module._dense_layers
    monkeypatch.setattr(dfa_module, "_dense_layers", lambda *args: calls.append(args[3:]) or dense(*args))
    return calls


class TestDenseLayers:
    """_cost_layers' dense layers (_dense_layers) against its dict layers
    on the same inputs, with the switch forced on at layer 0 and forced
    off, key order included, and which path each caller takes under the
    rule (_fills)."""

    AUTOMATA = [
        *[
            (f"random{k}-{n}", lambda k=k, n=n: random_k_dfa(k, n, 10 * k + n))
            for k, n in ((1, 1), (2, 30), (3, 2), (4, 5), (5, 30), (6, 3), (7, 10), (8, 1), (8, 10), (9, 2))
        ],
        *[(f"two-track{k}", lambda k=k: build_two_track_dfa(k)) for k in (2, 6, 8)],
        ("greedy", greedy_with_infinity),
        ("greedy7", lambda: random_greedy(7, 7)),
        ("cheapened", lambda: cheapen(random_greedy(8, 8))),
        ("zero", weighted_zero_and_infinity),
    ]

    @pytest.mark.parametrize("name,make", AUTOMATA, ids=[a[0] for a in AUTOMATA])
    def test_dense_and_dict_layers_agree(self, monkeypatch, name, make):
        dfa = make()
        k = dfa.alphabet_size
        calls = dense_calls(monkeypatch)
        for start in dfa.states:
            ref = [brute_injective_costs(dfa, start, L) for L in range(k + 1)] if k <= 5 else None
            for max_len in range(k + 1):
                runs = []
                for on in (True, False):
                    calls.clear()
                    monkeypatch.setattr(dfa_module, "_fills", lambda k, size, frontier, on=on: on)
                    layers, decode = dfa_module._cost_layers(dfa, start, max_len)
                    dists = [decode(length, layer) for length, layer in enumerate(layers)]
                    runs.append((layers, [list(d.items()) for d in dists]))
                    # forced on, every DP outside the complement's range goes
                    # dense before its first letter
                    dense = on and max_len > 0 and not dfa_module._complement_pays(k, max_len)
                    assert calls == ([(0, max_len)] if dense else []), (name, start, max_len, on)
                    if ref:
                        assert dists == ref[: max_len + 1], (name, start, max_len, on)
                assert runs[0] == runs[1], (name, start, max_len)

    def test_which_path_runs(self, monkeypatch):
        calls = dense_calls(monkeypatch)
        dfa = random_k_dfa(8, 10, 3)
        # full-length words on a random automaton fill from 4 letters on
        perm_cost_census(dfa)
        exact_P(dfa, 5, 8, 0.1)
        cost_distributions_by_length(dfa, 2, 8)
        _injective_cost_layers(dfa, 0, 8, math.inf)  # an INFINITY budget is no budget
        cheap_perm_count(dfa, math.inf)
        assert calls == [(4, 8)] * 5
        calls.clear()
        # the move lists of the layers reached, kept with the rows at their
        # width and reused by later queries
        rows = dfa._rows[math.perm(8, 8).bit_length()]
        kept = dict(rows.moves)
        assert sorted(kept) == [4, 5, 6, 7]
        perm_cost_census(dfa)
        assert all(rows.moves[size] is kept[size] for size in kept)
        calls.clear()
        # exact_P_max per start: 30 states > 4!
        exact_P_max(random_k_dfa(8, 30, 1), 7, 0.1)
        assert calls == [(4, 7)] * 30
        calls.clear()
        # sparse frontiers keep the dict
        perm_cost_census(build_two_track_dfa(8))
        exact_P(build_two_track_dfa(8), -2, 8, 0.2)
        perm_cost_census(cheapen(random_greedy(8, 8)))
        # budgeted calls
        cheap_perm_count(dfa, 36)
        _injective_cost_layers(dfa, 0, 8, 40)
        # the complement's range: 2 * (5 - 1) < 10
        exact_P(random_k_dfa(10, 10, 1), 0, 5, 0.1)
        # a SubsetDfa, at the root and off it
        perm_cost_census(build_subset_dfa(8))
        _injective_cost_layers(build_subset_dfa(8), 0b1, 7)
        assert calls == []

    def test_the_rule_at_its_edges(self):
        # one-letter pairs at k = 8: a state holds up to C(8, 1) = 8 of them
        def frontier(*per_state):
            return {i << 8 | 1 << t: 1 for i, sets in enumerate(per_state) for t in range(sets)}

        fills = dfa_module._fills
        assert fills(8, 1, frontier(*[8] * 8))  # 8k pairs, every one present
        assert not fills(8, 1, frontier(*[8] * 7, 7))  # 8k - 1 pairs
        assert fills(8, 1, frontier(*[4] * 16))  # 8k pairs, exactly half present
        assert not fills(8, 1, frontier(*[4] * 15, 3, 1))  # 8k pairs, 17 states

    def test_threads_share_one_automaton(self):
        # each round on an automaton that has kept nothing, so the threads
        # race to build its set ranks and move lists (_set_moves)
        base = random_k_dfa(8, 10, 4)
        queries = [(start, L) for start in (0, 3, 7) for L in (8, 7, 6)]
        want = {q: _injective_cost_layers(fresh(base), *q) for q in queries}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                shared = fresh(base)
                wrong = []

                def work():
                    for q in queries:
                        if _injective_cost_layers(shared, *q) != want[q]:
                            wrong.append(q)

                threads = [threading.Thread(target=work) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert wrong == []
        finally:
            sys.setswitchinterval(interval)


class TestDictPathKeyOrder:
    def test_census_ascending_then_infinity(self):
        # finite costs too wide to pack: the dict path
        wide = WeightedDfa(
            4, 0, {0: (1, 0, 1, 0), 1: (0, 1, 1, 0)}, {0: (600, 1, INFINITY, 3), 1: (2, 5, 1, INFINITY)}
        )
        census = perm_cost_census(wide)
        assert list(census) == [605, 609, INFINITY]
        assert census == brute_injective_costs(wide, 0, 4)
        for dist in dfa_module._injective_cost_layers_sparse(wide, 1, 4):
            assert ascending_then_infinity(dist)


class TestRandomKDfa:
    def test_always_k_dfa(self):
        for seed in range(30):
            assert is_k_dfa(random_k_dfa(4, 5, seed))

    def test_deterministic(self):
        assert random_k_dfa(5, 7, 123) == random_k_dfa(5, 7, 123)
        assert random_k_dfa(5, 7, 123) != random_k_dfa(5, 7, 124)

    def test_subset_dfa_dominates_random(self):
        # countwise optimality of the subset construction
        for k in (2, 3, 4):
            s = build_subset_dfa(k)
            s_census = perm_cost_census(s)
            for seed in range(25):
                d = random_k_dfa(k, 1 + seed % 8, seed)
                census = perm_cost_census(d)
                for n in range(0, k * k + 1):
                    ours = sum(c for cost, c in s_census.items() if cost <= n)
                    theirs = sum(c for cost, c in census.items() if cost <= n)
                    assert theirs <= ours


class TestSerialization:
    def test_round_trip(self):
        a = build_greedy_dfa(as_word((1, 2, 3, 2), 3))
        assert dfa_from_json(dfa_to_json(a)) == a
        t = build_two_track_dfa(4)
        assert dfa_from_json(dfa_to_json(t)) == t

    def test_infinity_encoding(self):
        a = build_greedy_dfa(as_word((1,), 2))
        text = dfa_to_json(a)
        assert '"inf"' in text
        assert dfa_from_json(text).step_cost(1, 1) == INFINITY

    def test_json_deterministic(self):
        a = build_subset_dfa(3)
        assert dfa_to_json(a) == dfa_to_json(build_subset_dfa(3))


class TestDot:
    def test_dot_edge_labels(self):
        a = build_greedy_dfa(as_word((1, 2, 3, 2), 3))
        dot = dfa_to_dot(a)
        assert dot.count("->") == 1 + len(EXAMPLE_1232_EDGES)  # root marker + edges
        assert '"2" -> "3" [label="3 (1)"];' in dot

    def test_empty_word_dot(self):
        dot = dfa_to_dot(build_greedy_dfa(as_word((), 3)))
        assert dot.count("->") == 1  # only the root marker
        assert '"0";' in dot

    def test_include_infinite(self):
        a = build_greedy_dfa(as_word((), 2))
        dot = dfa_to_dot(a, include_infinite=True)
        assert dot.count("(inf)") == 2


class TestValidation:
    def test_weighted_dfa_totality(self):
        with pytest.raises(ValueError):
            WeightedDfa(2, 0, {0: (0,)}, {0: (1,)})  # short row
        with pytest.raises(ValueError):
            WeightedDfa(2, 0, {0: (0, 1)}, {0: (1, 2)})  # unknown successor
        with pytest.raises(ValueError):
            WeightedDfa(2, 1, {0: (0, 0)}, {0: (1, 2)})  # root not a state
        with pytest.raises(ValueError):
            WeightedDfa(2, 0, {0: (0, 0)}, {0: (1, -1)})  # negative cost

    def test_greedy_rejects_letters_outside_alphabet(self):
        with pytest.raises(ValueError):
            build_greedy_dfa(as_word((1, 4), 3))


class TestCheapeningDominationK4:
    def test_all_short_words_all_walks_length_5(self):
        # every word over [4] of length <= 3, every state, every walk of
        # length <= 5: the cheapened automaton never costs more
        for n in range(0, 4):
            for letters in product((1, 2, 3, 4), repeat=n):
                a = build_greedy_dfa(as_word(letters, 4))
                b = cheapen(a)

                def rec(v, ca, cb, depth):
                    assert cb <= ca
                    if depth == 5:
                        return
                    for t in (1, 2, 3, 4):
                        rec(
                            a.step(v, t),
                            ca + a.step_cost(v, t),
                            cb + b.step_cost(v, t),
                            depth + 1,
                        )

                for v in a.states:
                    rec(v, 0, 0, 0)
