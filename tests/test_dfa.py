import math
import random
from collections import Counter
from itertools import permutations, product

import pytest

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
from superpatterns.dfa import _injective_cost_layers
from superpatterns.errors import CheapeningError, ResourceLimitError
from superpatterns.patterns import as_word, pattern_set

from oracles import brute_is_pattern

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

    def test_infeasible_row_rejected(self):
        d = WeightedDfa(2, 0, {0: (0, 0)}, {0: (1, 1)})
        with pytest.raises(CheapeningError):
            cheapen(d)


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
