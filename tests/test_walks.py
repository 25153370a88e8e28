import functools
import math
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from hashlib import blake2b
from itertools import combinations, count, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from superpatterns.bounds import forL_bound
import superpatterns.dfa as D
import superpatterns.walks as W
from superpatterns.dfa import (
    build_greedy_dfa,
    build_subset_dfa,
    build_two_track_dfa,
    cheapen,
    random_k_dfa,
    walk_cost,
)
from superpatterns.errors import ResourceLimitError
from superpatterns.patterns import as_word
from superpatterns.walks import (
    ConcentrationReport,
    CounterRng,
    PermutationalWord,
    clopper_pearson,
    concentration_experiment,
    cost_distributions_by_length,
    estimate_P,
    exact_P,
    exact_P_max,
    restriction,
    sample_perm_word,
    sample_x_sums,
    t_statistic,
    xy_decompose,
)
from superpatterns.walks import (
    _min_t_counts,
    _perm_blocks,
    _subset_costs,
    _walk_totals,
    _x_ranks,
)
from oracles import (
    literal_t_counts,
    literal_x_ranks,
    shifted_mahonian,
    stream_below,
    stream_injective_word,
    stream_words,
    subset_root_con1,
    subset_root_con2,
)

# the largest |z| a Monte-Carlo frequency of n samples may sit from its
# exact probability p; at the seeds below the subset-root cells stay
# within 2.3, and a sampler bias of about 4 sqrt(p (1 - p) / n) fails
Z_BOUND = 4.0


def z_score(freq, p, n):
    """(freq - p) / sqrt(p (1 - p) / n); a certain or impossible event
    must be met exactly, and scores 0 or inf."""
    if p in (0, 1):
        return 0.0 if freq == p else math.inf
    return (freq - float(p)) / math.sqrt(float(p * (1 - p)) / n)


def perms(k):
    return list(permutations(range(1, k + 1)))


def perm_matrix(k, samples, seed, L=None):
    """Every block of _perm_blocks, as one (samples, k) matrix."""
    return np.concatenate(list(_perm_blocks(k, samples, seed, L)))


class TestCounterRng:
    def test_streams_reproducible_and_distinct(self):
        a = [CounterRng(5, 3).randrange(1000) for _ in range(1)]
        b = [CounterRng(5, 3).randrange(1000) for _ in range(1)]
        assert a == b
        seq1 = [CounterRng(5, 1).bits64() for _ in range(4)]
        seq2 = [CounterRng(5, 2).bits64() for _ in range(4)]
        assert seq1 != seq2

    def test_negative_seed_ok(self):
        assert CounterRng(-17, 0).randrange(10) in range(10)

    @pytest.mark.parametrize("seed, stream", [(2**127, 0), (-(2**127) - 1, 0), (0, -1), (0, 2**128)])
    def test_seed_and_stream_out_of_range(self, seed, stream):
        # 16 signed bytes of seed, 16 unsigned bytes of stream; the stream
        # is refused at once, the seed on the first draw
        with pytest.raises(ValueError, match="must lie in"):
            CounterRng(seed, stream).bits64()

    def test_randrange_bounds(self):
        rng = CounterRng(0, 0)
        assert all(0 <= rng.randrange(7) < 7 for _ in range(2000))
        with pytest.raises(ValueError):
            rng.randrange(0)

    def test_draws_follow_the_stream_definition(self):
        # n = 2^63 + 1 rejects about half of all words, so the rejection
        # rule is exercised along with the word order
        for seed, stream in ((0, 0), (-17, 3), (2**70, 5), (-(2**127), 0), (2**127 - 1, 2**128 - 1)):
            rng = CounterRng(seed, stream)
            words = stream_words(seed, stream)
            for n in (1, 7, 60, 2**63 + 1) * 6:
                assert rng.randrange(n) == stream_below(words, n)

    def test_stream_blocks_follow_the_definition(self):
        # a range of counters is encoded once and reread per stream, one
        # counter takes the single-update path, any other iterable is read
        # as it comes: every form gives the defined digests
        def defined(seed, streams, counters):
            return [
                blake2b(
                    seed.to_bytes(16, "little", signed=True) + s.to_bytes(16, "little")
                    + c.to_bytes(8, "little"),
                    digest_size=64,
                ).digest()
                for s in streams
                for c in counters
            ]

        for counters in (range(1), range(7, 8), range(3), range(2, 5), range(0), [4, 0, 4], (1,)):
            for seed, streams in ((0, range(3)), (-(2**127), [2**128 - 1, 0, 5])):
                got = list(W._stream_blocks(seed, streams, counters))
                assert got == defined(seed, streams, counters), (counters, seed)
        blocks = W._stream_blocks(9, (4,), count())
        assert [next(blocks) for _ in range(20)] == defined(9, (4,), range(20))


class TestSamplePermWord:
    def test_edges(self):
        rng = CounterRng(1, 0)
        assert sample_perm_word(5, 0, rng).letters == ()
        w = sample_perm_word(3, 3, rng)
        assert sorted(w.letters) == [1, 2, 3]
        with pytest.raises(ValueError):
            sample_perm_word(3, 4, rng)

    def test_works_with_stdlib_random(self):
        w = sample_perm_word(6, 4, random.Random(9))
        assert len(set(w.letters)) == 4

    def test_uniform_chi_square(self):
        # (5, 3): all 60 injective words equally likely; p > 0.001 at 1e6
        # samples per the statistical acceptance convention. The rows come
        # from the block sampler, whose row i is sample_perm_word's sample i.
        samples = 10**6
        head, counts = [], np.zeros(216, dtype=np.int64)
        for block in W._perm_blocks(5, samples, 2024, 3):
            head += map(tuple, block[: 2000 - len(head), :3].tolist())
            counts += np.bincount(block[:, 0] * 36 + block[:, 1] * 6 + block[:, 2], minlength=216)
        assert head == [sample_perm_word(5, 3, CounterRng(2024, i)).letters for i in range(2000)]
        outcomes = list(permutations(range(1, 6), 3))
        assert len(outcomes) == 60
        freqs = [counts[a * 36 + b * 6 + c] for a, b, c in outcomes]
        assert sum(freqs) == samples
        _, p = chisquare(freqs)
        assert p > 0.001

    def test_matrix_matches_scalar_sampler(self):
        mat = perm_matrix(6, 20, seed=77)
        for i in range(20):
            assert tuple(mat[i]) == sample_perm_word(6, 6, CounterRng(77, i)).letters

    def test_matrix_rows_follow_the_stream_definition(self):
        mat = perm_matrix(7, 30, seed=91)
        for i in range(30):
            assert tuple(mat[i]) == stream_injective_word(91, i, 7, 7)


def _scalar_rows(k, samples, seed, L):
    return [W._shuffled(k, L, CounterRng(seed, i).randrange) for i in range(samples)]


def _scalar_hits(dfa, start, L, eps, samples, seed):
    bound = W._cost_bound(dfa.alphabet_size, L, eps, True)
    return sum(
        walk_cost(dfa, start, row[:L]).total_cost <= bound
        for row in _scalar_rows(dfa.alphabet_size, samples, seed, L)
    )


class TestBatchedSampler:
    def test_rejected_rows_fall_back_to_the_scalar_sampler(self, monkeypatch):
        # forced blocks (stream, counter): all-ones words, which every
        # modulus that is not a power of two rejects (block 0 rejects draw
        # 0 eight times, block 1 the draw mod 3 of k = 12); one whose first
        # word is the largest that draw 0 (mod 12) accepts; and a block 1
        # whose words 0-3, which no draw of k = 12 pops, are all ones
        k, seed = 12, 5
        samples = W._BLOCK_ROWS + 5
        largest = (2**64 // k * k - 1).to_bytes(8, "little")
        forced = {
            (3, 0): b"\xff" * 64,
            (W._BLOCK_ROWS + 1, 1): b"\xff" * 64,
            (7, 0): bytes(56) + largest,
            (11, 1): b"\xff" * 32 + bytes(32),
        }
        rejecting = [3, W._BLOCK_ROWS + 1]
        real_blake2b, real_shuffled = W.blake2b, W._shuffled

        class Forcing:
            # a BLAKE2b-512 state that serves the forced digests: it keeps
            # the bytes absorbed so far and hashes them for real otherwise
            def __init__(self, data=b"", digest_size=64):
                assert digest_size == 64
                self._data = bytes(data)

            def copy(self):
                return Forcing(self._data)

            def update(self, data):
                self._data += data

            def digest(self):
                assert len(self._data) == 40  # seed, stream, counter
                stream = int.from_bytes(self._data[16:32], "little")
                counter = int.from_bytes(self._data[32:40], "little")
                if (stream, counter) in forced:
                    return forced[(stream, counter)]
                return real_blake2b(self._data, digest_size=64).digest()

        fallbacks = []

        class Recording(CounterRng):
            # the scalar fallback is the one CounterRng the sampler makes
            def __init__(self, seed, stream=0):
                fallbacks.append(stream)
                super().__init__(seed, stream)

        monkeypatch.setattr(W, "blake2b", Forcing)
        want = [real_shuffled(k, k, CounterRng(seed, i).randrange) for i in range(samples)]
        assert want[7][0] == 12  # slot 0 swapped with slot 11: accepted
        monkeypatch.setattr(W, "CounterRng", Recording)
        mat = perm_matrix(k, samples, seed)
        assert mat.tolist() == want
        assert fallbacks == rejecting
        for stream, _ in forced:
            assert tuple(mat[stream]) != stream_injective_word(seed, stream, k, k)
        fallbacks.clear()
        s = build_subset_dfa(k)
        got = estimate_P(s, 0, k, 0.1, samples, seed).estimate * samples
        assert fallbacks == rejecting
        assert round(got) == _scalar_hits(s, 0, k, 0.1, samples, seed)

    def test_peak_memory_is_flat_in_the_sample_count(self):
        # each block's digests, draws and walk temporaries are freed before
        # the next, so four blocks of samples peak where one does; a first
        # call outside the trace does the lazy imports (scipy.special)
        s = build_subset_dfa(60)
        runs = {
            "estimate_P": lambda n: estimate_P(s, 0, 60, 0.1, n, seed=8),
            "sample_x_sums": lambda n: sample_x_sums(s, n, seed=8),
        }
        for name, run in runs.items():
            run(1)
            peaks = []
            for n in (W._BLOCK_ROWS, 4 * W._BLOCK_ROWS):
                tracemalloc.start()
                try:
                    run(n)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] - peaks[0] < 2**20, (name, peaks)

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_sizes_around_one_block(self, delta):
        samples, seed = W._BLOCK_ROWS + delta, 23
        for k, L in ((5, 5), (5, 3), (5, 0)):
            mat = perm_matrix(k, samples, seed, L)
            assert mat.shape == (samples, k)
            assert mat.tolist() == _scalar_rows(k, samples, seed, L)
        dfa = random_k_dfa(6, 4, 8)
        got = estimate_P(dfa, 2, 6, 0.1, samples, seed).estimate * samples
        assert round(got) == _scalar_hits(dfa, 2, 6, 0.1, samples, seed)

    def test_empty_words_and_one_letter(self):
        for L in (0, 1):
            assert perm_matrix(1, 7, 3, L).tolist() == [[1]] * 7
        assert perm_matrix(4, 3, 3, 0).tolist() == [[1, 2, 3, 4]] * 3
        for dfa, state, L, eps in (
            (build_subset_dfa(1), 0, 1, 0.0),
            (build_subset_dfa(1), 1, 1, 0.0),
            (build_subset_dfa(4), 0, 0, 0.0),
            (random_k_dfa(1, 2, 4), 1, 1, 0.0),
        ):
            rep = estimate_P(dfa, state, L, eps, 9, seed=3, strict=False)
            assert round(rep.estimate * 9) == sum(
                walk_cost(dfa, state, row[:L]).total_cost <= 0.5 * dfa.alphabet_size * L
                for row in _scalar_rows(dfa.alphabet_size, 9, 3, L)
            )


class TestSubsetCostKernel:
    @staticmethod
    def starts(k, rng):
        low_high = 1 | 1 << (k - 1) | (1 << 64 if k > 64 else 0)
        missing = rng.randrange(k)
        return {
            "empty": 0,
            "random": rng.getrandbits(k),
            "low_and_high_words": low_high,
            "all_but_one": ((1 << k) - 1) & ~(1 << missing),
        }

    @pytest.mark.parametrize("k", [1, 12, 63, 64, 65, 70, 128, 129])
    def test_matches_step_cost_step_by_step(self, k):
        rng = random.Random(k)
        s = build_subset_dfa(k)
        for name, start in self.starts(k, rng).items():
            for L in sorted({0, 1, k}):
                rows = [rng.sample(range(1, k + 1), L) for _ in range(4)]
                words = np.array(rows, dtype=np.int64).reshape(4, L)
                got = _subset_costs(k, start, words)
                assert got.shape == (4, L) and got.dtype == np.int64
                for row, costs in zip(rows, got.tolist()):
                    want = walk_cost(s, start, row).step_costs
                    assert tuple(costs) == want, (name, L, row)

    def test_rows_beyond_one_chunk(self, monkeypatch):
        # more rows than _WALK_CELLS // L, so the walk takes several chunks;
        # with fewer cells than steps it takes one row at a time; from the
        # root (start 0) and from a non-empty start
        k = 12
        rng = random.Random(4)
        rows = [rng.sample(range(1, k + 1), k) for _ in range(W._WALK_CELLS // k + 7)]
        s = build_subset_dfa(k)
        for start in (0, 0b100000100101):
            want = [walk_cost(s, start, r).step_costs for r in rows]
            got = _subset_costs(k, start, np.array(rows))
            assert [tuple(c) for c in got.tolist()] == want
            with monkeypatch.context() as m:
                m.setattr(W, "_WALK_CELLS", k - 1)
                got = _subset_costs(k, start, np.array(rows[:5]))
            assert [tuple(c) for c in got.tolist()] == want[:5]

    @pytest.mark.parametrize("k", [5, 12, 70])
    def test_x_rank_sums_are_walk_totals_from_the_root(self, k):
        # from the root a subset walk burns nothing (Y_j = 0), so its total
        # is the sum of the literal X ranks; with TestXRanksOracle this ties
        # the row sums of _x_ranks to _walk_totals
        s = build_subset_dfa(k)
        perms = perm_matrix(k, 300, seed=k)
        totals = _walk_totals(s, s.root, perms)
        assert totals.tolist() == [sum(literal_x_ranks(s, p)) for p in perms.tolist()]


class TestXRanksOracle:
    @pytest.mark.parametrize(
        "dfa",
        [
            build_subset_dfa(4),
            build_subset_dfa(12),
            build_subset_dfa(70),
            random_k_dfa(5, 6, 3),
            random_k_dfa(12, 30, 8),
            build_two_track_dfa(4),
            build_two_track_dfa(12),
        ],
        ids=["subset4", "subset12", "subset70", "random5", "random12", "two_track4", "two_track12"],
    )
    def test_x_ranks_match_the_literal_oracle(self, dfa):
        k = dfa.alphabet_size
        if k <= 5:
            perms = np.array(list(permutations(range(1, k + 1))), dtype=np.int64)
        else:
            perms = perm_matrix(k, 200, seed=k)
        X = _x_ranks(dfa, perms)
        assert [tuple(x) for x in X.tolist()] == [literal_x_ranks(dfa, p) for p in perms.tolist()]


class TestRestriction:
    def test_basic(self):
        assert restriction(PermutationalWord((2, 1, 3), 3), (1, 3)).letters == (2, 3)
        assert restriction(PermutationalWord((2, 1, 3), 3), ()).letters == ()

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            restriction(PermutationalWord((2, 1), 2), (3,))

    def test_non_integral_letter_or_alphabet_size_refused(self):
        # 1 <= 1.5 <= 2 held, so both used to be accepted
        with pytest.raises(ValueError, match="letter 1.5 is not an integer"):
            PermutationalWord((1.5,), 2)
        with pytest.raises(ValueError, match="alphabet size 2.5 is not an integer"):
            PermutationalWord((1,), 2.5)
        word = PermutationalWord((2.0, 1), 2.0)
        assert (word.letters, word.alphabet_size) == ((2, 1), 2)

    def test_non_injective_or_out_of_range_word_refused(self):
        with pytest.raises(ValueError, match="repeats a letter"):
            PermutationalWord((1, 2, 1), 3)
        for letters in ((0,), (1, 3)):
            with pytest.raises(ValueError, match=r"outside alphabet \[2\]"):
                PermutationalWord(letters, 2)
        with pytest.raises(ValueError, match="alphabet_size must be non-negative"):
            PermutationalWord((), -1)

    def test_non_integral_index_refused(self):
        # int() once truncated 1.7 to 1
        with pytest.raises(ValueError, match="index 1.7 is not an integer"):
            restriction((3, 1, 2), [1.7, 2])
        assert restriction((3, 1, 2), [2.0, 3]).letters == (1, 2)

    def test_exact_uniformity_k4(self):
        # over all 24 inputs, w|_{2,4} hits each of the 12 injective pairs
        # exactly twice
        counts = Counter()
        for w in permutations(range(1, 5)):
            counts[restriction(PermutationalWord(w, 4), (2, 4)).letters] += 1
        assert len(counts) == 12
        assert set(counts.values()) == {2}

    def test_exact_uniformity_all_E(self):
        for k in range(1, 6):
            for L in range(0, min(k, 4) + 1):
                words = list(permutations(range(1, k + 1), L))
                for size in range(0, L + 1):
                    for E in combinations(range(1, L + 1), size):
                        counts = Counter()
                        for w in words:
                            counts[
                                restriction(PermutationalWord(w, k), E).letters
                            ] += 1
                        assert len(set(counts.values())) == 1


class TestExactP:
    def test_subset_k3_half(self):
        s = build_subset_dfa(3)
        assert exact_P(s, 0, 3, 1e-9) == Fraction(1, 2)

    def test_L0_is_zero(self):
        s = build_subset_dfa(3)
        assert exact_P(s, 0, 0, 0.25) == 0

    def test_epsilon_half_is_zero(self):
        s = build_subset_dfa(3)
        assert exact_P(s, 0, 3, 0.5) == 0

    def test_comparator_flag(self):
        s = build_subset_dfa(3)
        # with eps = 0 the threshold is exactly 4.5 for L = 3; <= and <
        # agree there, but differ at L = 2 where threshold = 3 is a cost
        strict = exact_P(s, 0, 2, 0.0, strict=True)
        loose = exact_P(s, 0, 2, 0.0, strict=False)
        assert loose >= strict
        dists = cost_distributions_by_length(s, 0, 2)
        at_3 = dists[2][3]
        assert loose - strict == Fraction(at_3, 6)

    def test_not_k_dfa_rejected(self):
        # every query that reads cost rows as permutations refuses the rest
        a = build_greedy_dfa(as_word((1, 2, 3, 2), 3))
        for name, call in (
            ("exact_P", lambda: exact_P(a, 0, 2, 0.1)),
            ("exact_P_max", lambda: exact_P_max(a, 2, 0.1)),
            ("sample_x_sums", lambda: sample_x_sums(a, 10, seed=0)),
            ("concentration_experiment", lambda: concentration_experiment(a, 2, 0.3, 10, seed=0)),
            ("t_statistic", lambda: t_statistic(a, (1,), 1)),
        ):
            with pytest.raises(ValueError, match=f"^{name} needs a k-DFA"):
                call()

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            exact_P(build_subset_dfa(15), 0, 15, 0.1)

    def test_matches_direct_enumeration(self):
        rng = random.Random(6)
        for _ in range(10):
            k = rng.randint(2, 5)
            dfa = random_k_dfa(k, rng.randint(1, 5), rng.randrange(10**6))
            L = rng.randint(0, k)
            eps = rng.choice([0.1, 0.25, 0.5])
            thr = (0.5 - eps) * k * L
            words = list(permutations(range(1, k + 1), L))
            hits = sum(
                1 for w in words if walk_cost(dfa, 0, w).total_cost < thr
            )
            assert exact_P(dfa, 0, L, eps) == Fraction(hits, len(words))

    def test_short_walks_on_a_wide_alphabet(self):
        # k = 40, L = 3: the DP takes its last layer by complement
        for seed, start in ((1, 0), (2, 7)):
            dfa = random_k_dfa(40, 10, seed)
            costs = Counter(
                walk_cost(dfa, start, w).total_cost for w in permutations(range(1, 41), 3)
            )
            for eps in (0.0, 0.3, 0.45):
                thr = Fraction(1, 2) - Fraction(str(eps))
                hits = sum(n for c, n in costs.items() if c < thr * 40 * 3)
                assert exact_P(dfa, start, 3, eps) == Fraction(hits, 40 * 39 * 38)

    def test_exact_P_max_builds_rows_once_per_width(self, monkeypatch):
        # every start of every exact_P_max call reads one set of edge rows
        # per (automaton, digit width); the answers equal the max of exact_P
        # over fresh automata, which share nothing with dfa
        def fresh():
            return random_k_dfa(6, 30, 2)

        dfa = fresh()
        queries = [(2, 0.1), (3, 0.0), (2, 0.3), (6, 0.2), (3, 0.25)]
        want = [max(exact_P(fresh(), v, L, eps) for v in dfa.states) for L, eps in queries]
        builds = Counter()
        build = D._edge_rows
        monkeypatch.setattr(D, "_edge_rows", lambda d, width: builds.update([(id(d), width)]) or build(d, width))
        assert [exact_P_max(dfa, L, eps) for L, eps in queries] == want
        widths = {math.perm(6, L).bit_length() for L, _ in queries}
        assert builds == {(id(dfa), width): 1 for width in widths}

    def test_prefix_monotonicity(self):
        # cost of a prefix never exceeds the full walk cost
        rng = random.Random(14)
        for _ in range(30):
            k = rng.randint(2, 6)
            dfa = random_k_dfa(k, rng.randint(1, 6), rng.randrange(10**6))
            w = sample_perm_word(k, k, CounterRng(3, rng.randrange(100)))
            full = walk_cost(dfa, 0, w).total_cost
            for L in range(k + 1):
                pre = walk_cost(dfa, 0, w.letters[:L]).total_cost
                assert pre <= full


# every epsilon on a 0.05 grid: kL(1/2 - eps) hits integer ties at many L
_EPSILONS = [i / 20 for i in range(11)]


@st.composite
def _k_dfas(draw):
    """A random, two-track, cheapened greedy or subset k-DFA."""
    kind = draw(st.sampled_from(["random", "two-track", "greedy", "subset"]))
    if kind == "random":
        k = draw(st.integers(1, 7))
        return random_k_dfa(k, draw(st.integers(1, 12)), draw(st.integers(0, 10**6)))
    if kind == "two-track":
        return build_two_track_dfa(draw(st.sampled_from([2, 4, 6, 8])))
    if kind == "subset":
        return build_subset_dfa(draw(st.integers(1, 4)))
    k = draw(st.integers(1, 6))
    letters = draw(st.lists(st.integers(1, k), min_size=1, max_size=3 * k))
    return cheapen(build_greedy_dfa(as_word(letters, k)))


def _packed_within(dfa, start, words, width, budget):
    """The packed histogram (digits width bits wide) of the words' walk
    costs from start, every cost over the budget dropped."""
    costs = (walk_cost(dfa, start, w).total_cost for w in words)
    return sum(1 << width * c for c in costs if c <= budget)


class TestSuffixDp:
    """exact_P_max's one suffix DP for every start (dfa._suffix_sums)."""

    @given(_k_dfas(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_max_of_exact_P_over_the_starts(self, dfa, data):
        L = data.draw(st.integers(0, dfa.alphabet_size))
        eps = data.draw(st.sampled_from(_EPSILONS))
        strict = data.draw(st.booleans())
        each = [exact_P(dfa, v, L, eps, strict=strict) for v in dfa.states]
        assert exact_P_max(dfa, L, eps, strict=strict) == max(each)
        if not isinstance(dfa, D.SubsetDfa):
            # the kernel itself, from every start, whichever path
            # exact_P_max takes for this many states
            k = dfa.alphabet_size
            sums, width = D._suffix_sums(dfa, L, W._cost_bound(k, L, eps, strict))
            hits = [Fraction(sum(D._unpack(p, width).values()), math.perm(k, L)) for p in sums]
            assert hits == each

    def test_layer_entries(self, monkeypatch):
        # every entry of every layer, and each start's sum, against reading
        # the set's letters from the state in every order; the budget
        # drops entries from layer 2 on and digits from the sums
        dfa, L, budget = random_k_dfa(4, 3, 7), 3, 5
        layers = []
        step = D._suffix_layer
        monkeypatch.setattr(D, "_suffix_layer", lambda *args: layers.append(step(*args)) or layers[-1])
        sums, width = D._suffix_sums(dfa, L, budget)
        want = [
            [
                [_packed_within(dfa, v, permutations(c), width, budget) for c in combinations(range(1, 5), s)]
                for v in dfa.states
            ]
            for s in range(1, L + 1)
        ]
        assert layers == want
        assert [sum(map(bool, sum(layer, []))) for layer in layers] == [12, 14, 7]
        assert sums == [sum(entries) for entries in layers[-1]]
        assert [sum(D._unpack(p, width).values()) for p in sums] == [2, 4, 3]

    def test_sums_at_every_length(self):
        # L = 0 included: the empty word costs 0, not 1
        dfa = random_k_dfa(4, 3, 7)
        for L in range(5):
            for budget, within in ((None, math.inf), (5, 5), (-1, -1)):
                sums, width = D._suffix_sums(dfa, L, budget)
                words = list(permutations(range(1, 5), L))
                assert sums == [_packed_within(dfa, v, words, width, within) for v in dfa.states]

    def test_subset_automaton_reads_its_root(self, monkeypatch):
        # the root bounds every start, so one exact_P at the root answers:
        # no suffix DP (2^k * C(k, s) entries a layer), no DP per start
        def refused(*args):
            raise AssertionError("suffix DP on a SubsetDfa")

        monkeypatch.setattr(W, "_suffix_sums", refused)
        s = build_subset_dfa(4)
        want = max(exact_P(s, v, 3, 0.1) for v in s.states)
        starts = []
        share = W._share_within
        monkeypatch.setattr(W, "_share_within", lambda dfa, v, *args: starts.append(v) or share(dfa, v, *args))
        assert exact_P_max(s, 3, 0.1) == want
        assert starts == [0]
        # past k = 20 the 2^k states are never listed; the word cap holds
        assert exact_P_max(build_subset_dfa(64), 3, 0.1) == exact_P(build_subset_dfa(64), 0, 3, 0.1)
        with pytest.raises(ResourceLimitError, match="injective words of lengths 1..5 over \\[64\\]"):
            exact_P_max(build_subset_dfa(64), 5, 0.1)

    @pytest.mark.parametrize("states, L, suffix", [(24, 6, True), (25, 6, False), (6, 3, True), (7, 3, False)])
    def test_path_follows_the_widest_layer(self, monkeypatch, states, L, suffix):
        # the suffix DP runs only while its widest layer, s = min(L, k // 2),
        # holds no more entries than one DP per start may: |V| <= s!
        calls = []
        kernel = W._suffix_sums
        monkeypatch.setattr(W, "_suffix_sums", lambda *args: calls.append(args) or kernel(*args))
        dfa = random_k_dfa(8, states, 1)
        assert exact_P_max(dfa, L, 0.1) == max(exact_P(dfa, v, L, 0.1) for v in dfa.states)
        assert len(calls) == suffix

    def test_refusals_match_exact_P(self):
        # the length domain and the cap, checked once, as exact_P words them
        dfa = random_k_dfa(8, 5, 3)
        for L, max_words in ((9, 10**7), (-1, 10**7), (5, 100), (8, 10**4)):
            with pytest.raises(Exception) as want:
                exact_P(dfa, 0, L, 0.1, max_words=max_words)
            with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
                exact_P_max(dfa, L, 0.1, max_words=max_words)


class TestEpsilonDomain:
    @pytest.mark.parametrize(
        "eps", [-0.7, -1e-9, 0.5000001, 2, Fraction(-1, 10), math.nan, math.inf]
    )
    def test_outside_closed_half_rejected(self, eps):
        s = build_subset_dfa(3)
        message = rf"^need 0 <= epsilon <= 1/2, got {re.escape(repr(eps))}$"
        with pytest.raises(ValueError, match=message):
            exact_P(s, 0, 3, eps)
        with pytest.raises(ValueError, match=message):
            exact_P_max(s, 3, eps)
        with pytest.raises(ValueError, match=message):
            estimate_P(s, 0, 3, eps, 10, seed=1)


class TestEpsilonTies:
    def test_float_epsilon_counts_the_integer_tie(self):
        # (1/2 - 1/10) * 5 * 5 = 10 exactly: <= must count cost 10 whether
        # epsilon arrives as the float 0.1 or as the fraction 1/10
        s = build_subset_dfa(5)
        for eps in (0.1, Fraction(1, 10)):
            assert exact_P(s, 0, 5, eps, strict=False) == Fraction(71, 120)
            assert exact_P(s, 0, 5, eps, strict=True) == Fraction(49, 120)

    @pytest.mark.parametrize("eps", [
        0.0, 0.5, 0.1, 0.2, 0.25, 0.3, 0.35, 0.4, 1e-05, 1.5e-10, 5e-324,
        1 / 3, 0.30000000000000004, 0.49999999999999994, -0.0,
        0, Fraction(0), Fraction(1, 2), Fraction(1, 10), Fraction(1, 3), Fraction(7, 40),
    ])
    def test_cost_bound_is_the_fraction_definition(self, eps):
        # the comparator's integer bound against (1/2 - eps)kL in Fractions,
        # a float read as its shortest decimal; the grid's kL hit the ties
        exact = Fraction(repr(eps)) if isinstance(eps, float) else Fraction(eps)
        for k in range(15):
            for L in range(k + 1):
                thr = (Fraction(1, 2) - exact) * k * L
                assert W._cost_bound(k, L, eps, True) == math.ceil(thr) - 1
                assert W._cost_bound(k, L, eps, False) == math.floor(thr)


class TestCostDistributionsByLength:
    def test_matches_permutation_walk_from_every_start(self):
        rng = random.Random(61)
        for _ in range(12):
            k = rng.randint(1, 6)
            dfa = random_k_dfa(k, rng.randint(1, 6), rng.randrange(10**6))
            for start in dfa.states:
                dists = cost_distributions_by_length(dfa, start, k)
                for L in range(k + 1):
                    want = Counter()
                    for w in permutations(range(1, k + 1), L):
                        want[walk_cost(dfa, start, w).total_cost] += 1
                    assert dists[L] == want

    def test_subset_is_shifted_mahonian_beyond_dfs_scale(self):
        # at k = 11 the injective-prefix tree has ~1.1e8 words; the DP
        # touches at most 2^11 subsets per layer
        for k in range(1, 12):
            dists = cost_distributions_by_length(
                build_subset_dfa(k), 0, k - 1, max_words=10**9
            )
            for L in range(k):
                assert dists[L] == shifted_mahonian(range(k, k - L, -1))


class TestDoubling:
    def test_subadditivity(self):
        # P(ML, eps) <= M * |V| * P(L, eps)
        for k, L, eps in [(6, 2, 0.1), (6, 3, 0.1), (6, 3, 0.25), (5, 2, 0.25)]:
            M = k // L
            for dfa in [build_subset_dfa(k), random_k_dfa(k, 4, 8), random_k_dfa(k, 7, 99)]:
                states = len(list(dfa.states))
                lhs = exact_P_max(dfa, M * L, eps)
                rhs = M * states * exact_P_max(dfa, L, eps)
                assert lhs <= rhs


class TestForLAtDeskScale:
    def test_bound_dominates_exact(self):
        for k in range(2, 8):
            dfas = [build_subset_dfa(k), random_k_dfa(k, 5, k)]
            for dfa in dfas:
                for L in range(0, k + 1):
                    for eps in (0.1, 0.25, 0.5):
                        p = exact_P_max(dfa, L, eps)
                        bound = forL_bound(k, L, eps)
                        if p > 0:
                            assert math.log(p) <= bound + 1e-12


class TestEstimateP:
    def test_deterministic_and_thread_independent(self):
        s = build_subset_dfa(4)
        a = estimate_P(s, 0, 4, 0.1, 3000, seed=7)
        b = estimate_P(s, 0, 4, 0.1, 3000, seed=7)
        c = estimate_P(s, 0, 4, 0.1, 3000, seed=7, threads=5)
        assert a == b == c
        d = estimate_P(s, 0, 4, 0.1, 3000, seed=8)
        assert d != a

    def test_ci_brackets_exact_value(self):
        s = build_subset_dfa(3)
        rep = estimate_P(s, 0, 3, 1e-9, 10**5, seed=31)
        assert rep.ci_low <= 0.5 <= rep.ci_high
        assert abs(rep.estimate - 0.5) < 0.02
        assert 0.0 <= rep.ci_low <= rep.estimate <= rep.ci_high <= 1.0

    def test_report_fields(self):
        s = build_subset_dfa(3)
        rep = estimate_P(s, 0, 2, 0.25, 100, seed=1, strict=False)
        assert rep.comparator == "<="
        assert rep.k == 3 and rep.L == 2
        assert rep.threshold == pytest.approx((0.5 - 0.25) * 3 * 2)
        d = rep.to_json_dict()
        assert set(d) == {
            "estimate", "ci_low", "ci_high", "samples", "seed",
            "threshold", "comparator", "k", "L", "epsilon",
        }

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            estimate_P(build_subset_dfa(3), 0, 2, 0.1, 0, seed=1)

    def test_threads_below_one_rejected(self):
        for threads in (0, -3):
            with pytest.raises(ValueError):
                estimate_P(build_subset_dfa(3), 0, 2, 0.1, 10, seed=1, threads=threads)

    @pytest.mark.parametrize("k, L, eps, seed", [(8, 8, 0.1, 7), (6, 4, 0.2, 7), (10, 10, 0.05, 3)])
    def test_subset_root_estimate_matches_exact_P(self, k, L, eps, seed):
        s, n = build_subset_dfa(k), 20000
        rep = estimate_P(s, 0, L, eps, n, seed=seed)
        assert abs(z_score(rep.estimate, exact_P(s, 0, L, eps), n)) <= Z_BOUND

    def test_unknown_state_rejected(self):
        # the subset automaton of [3] has states 0..7
        for state in (8, -1, "0"):
            with pytest.raises(ValueError, match="unknown state"):
                estimate_P(build_subset_dfa(3), state, 2, 0.1, 10, seed=1)

    def test_hits_follow_the_stream_definition(self):
        # a random automaton from a non-root start, walked through its
        # tables; L < k leaves the last slots unshuffled
        k, n, seed, eps = 6, 400, 13, 0.05
        dfa = random_k_dfa(k, 5, 29)
        start = 3
        assert start != dfa.root
        for L in (4, k):
            thr = (Fraction(1, 2) - Fraction(str(eps))) * k * L
            want = 0
            for i in range(n):
                v, total = start, 0
                for t in stream_injective_word(seed, i, k, L):
                    total += dfa.cost_row(v)[t - 1]
                    v = dfa.delta_row(v)[t - 1]
                want += total < thr
            assert 0 < want < n
            assert round(estimate_P(dfa, start, L, eps, n, seed).estimate * n) == want
        # the subset automaton from non-root starts, letters of the word
        # already read, and masks beyond 64 bits at k = 70; two-track
        # states below 0; a sample count spanning three sampler blocks
        subset70_start = (1 << 69) | (1 << 66) | (1 << 10)
        cases = (
            (build_subset_dfa(9), 0b1, 9, 0.2, 60),
            (build_subset_dfa(9), 0b101100110, 5, 0.05, 60),
            (build_subset_dfa(9), 0b101100110, 9, 0.02, 60),
            (build_subset_dfa(70), subset70_start, 40, 0.1, 60),
            (build_subset_dfa(70), subset70_start, 70, 0.25, 60),
            (build_two_track_dfa(8), -3, 4, 0.05, 60),
            (build_two_track_dfa(8), -1, 6, 0.0, 60),
            (random_k_dfa(6, 5, 29), 3, 6, 0.05, 2 * W._BLOCK_ROWS + 3),
        )
        for dfa, start, L, eps, n in cases:
            k = dfa.alphabet_size
            thr = (Fraction(1, 2) - Fraction(str(eps))) * k * L
            want = sum(
                walk_cost(dfa, start, stream_injective_word(seed, i, k, L)).total_cost < thr
                for i in range(n)
            )
            assert 0 < want < n, (dfa, start, L)
            got = estimate_P(dfa, start, L, eps, n, seed).estimate * n
            assert round(got) == want, (dfa, start, L)

    def test_estimate_below_forL_bound_with_ci_slack(self):
        # k = 8, L = 8, eps = 0.1: the bound exceeds 1, so this is a sanity
        # anchor; the sharper comparison happens at exact_P scale.
        s = build_subset_dfa(8)
        rep = estimate_P(s, 0, 8, 0.1, 10**6, seed=12)
        assert math.log(max(rep.estimate, 1e-12)) <= forL_bound(8, 8, 0.1) + 0.05

    def test_matches_exact_at_moderate_samples(self):
        s = build_subset_dfa(4)
        want = float(exact_P(s, 0, 4, 0.1))
        rep = estimate_P(s, 0, 4, 0.1, 10**5, seed=3)
        assert rep.ci_low <= want <= rep.ci_high


class TestPackageExports:
    # superpatterns serves walks' names lazily from its own copy of the list
    def test_lazy_names_are_walks_all(self):
        import superpatterns
        from superpatterns import bounds, dfa, patterns

        assert superpatterns._WALKS_EXPORTS == set(W.__all__)
        # every public function and class a module defines is in its __all__
        for module in (bounds, dfa, patterns, W):
            defined = {
                n for n, v in vars(module).items()
                if getattr(v, "__module__", None) == module.__name__ and not n.startswith("_")
            }
            assert defined <= set(module.__all__), module.__name__
        assert defined == set(W.__all__)

    def test_package_all_is_the_modules_all(self):
        import superpatterns
        from superpatterns import bounds, dfa, errors, patterns

        errs = {"AlphabetMismatchError", "CheapeningError", "ResourceLimitError"}
        modules = {"bounds", "dfa", "errors", "patterns", "walks"}
        want = {*bounds.__all__, *dfa.__all__, *patterns.__all__, *W.__all__, *errs, *modules}
        assert set(superpatterns.__all__) == want
        assert len(superpatterns.__all__) == len(want)
        for name in superpatterns.__all__:
            owner = getattr(superpatterns, name)
            if name in errs:
                assert owner is getattr(errors, name)
            elif name not in modules:
                home = next(m for m in (bounds, dfa, patterns, W) if name in m.__all__)
                assert owner is getattr(home, name)

    def test_star_import_and_dir_include_walks(self):
        import superpatterns

        namespace = {}
        exec("from superpatterns import *", namespace)
        assert set(W.__all__) | {"walks"} <= set(namespace) & set(dir(superpatterns))
        assert namespace["estimate_P"] is W.estimate_P


class TestClopperPearson:
    def test_edges(self):
        lo, hi = clopper_pearson(0, 50)
        assert lo == 0.0 and 0 < hi < 0.2
        lo, hi = clopper_pearson(50, 50)
        assert hi == 1.0 and 0.8 < lo < 1.0

    @pytest.mark.parametrize("confidence", [0, 1, 1.5, -1, float("nan"), float("inf")])
    def test_confidence_outside_the_open_unit_interval_is_refused(self, confidence):
        # outside (0, 1) a limit is NaN, or lo > hi
        with pytest.raises(ValueError, match="need 0 < confidence < 1") as e:
            clopper_pearson(3, 10, confidence)
        assert len(str(e.value).splitlines()) == 1

    def test_coverage_shape(self):
        lo, hi = clopper_pearson(25, 50)
        assert lo < 0.5 < hi
        lo99 = clopper_pearson(25, 50, 0.99)
        lo95 = clopper_pearson(25, 50, 0.95)
        assert lo99[0] < lo95[0] and lo99[1] > lo95[1]

    @staticmethod
    def _grid():
        """(successes, samples) pairs: every x for n <= 120, and for larger n
        seeded x plus 0, 1, n - 1 and n."""
        for n in range(1, 121):
            for x in range(n + 1):
                yield x, n
        for n in (200, 500, 2000, 20000, 10**6):
            seeded = random.Random(n).sample(range(2, n - 1), 40)
            for x in sorted({0, 1, n - 1, n, *seeded}):
                yield x, n

    @pytest.mark.parametrize("confidence", [0.99, 0.95, 0.9, 0.5])
    def test_bit_identical_to_scipy_stats_beta_ppf(self, confidence):
        # the formulas clopper_pearson used before it called betaincinv,
        # vectorised; scipy.stats is imported by this test only
        from scipy.stats import beta

        x, n = (np.array(col) for col in zip(*self._grid()))
        alpha = 1.0 - confidence
        with np.errstate(invalid="ignore"):
            want_lo = np.where(x == 0, 0.0, beta.ppf(alpha / 2, x, n - x + 1))
            want_hi = np.where(x == n, 1.0, beta.ppf(1 - alpha / 2, x + 1, n - x))
        got = np.array(
            [clopper_pearson(int(s), int(m), confidence) for s, m in zip(x, n)]
        )
        # compare bit patterns, so equal-but-different floats cannot pass
        assert np.array_equal(got[:, 0].view(np.uint64), want_lo.view(np.uint64))
        assert np.array_equal(got[:, 1].view(np.uint64), want_hi.view(np.uint64))


class TestXYDecompose:
    def test_subset_321(self):
        d = xy_decompose(build_subset_dfa(3), (3, 2, 1))
        assert d.step_costs == (3, 2, 1)
        assert d.x_ranks == (3, 2, 1)
        assert d.y_slacks == (0, 0, 0)

    def test_sum_matches_walk(self):
        rng = random.Random(88)
        for _ in range(40):
            k = rng.randint(1, 6)
            dfa = random_k_dfa(k, rng.randint(1, 6), rng.randrange(10**6))
            tau = list(range(1, k + 1))
            rng.shuffle(tau)
            d = xy_decompose(dfa, tau)
            assert d.total_cost == walk_cost(dfa, 0, tau).total_cost
            assert d.total_cost == sum(d.step_costs)
            assert all(c == x + y for c, x, y in zip(d.step_costs, d.x_ranks, d.y_slacks))

    def test_y_nonnegative_on_cheapened_greedy(self):
        b = cheapen(build_greedy_dfa(as_word((1, 2, 3, 2), 3)))
        for tau in perms(3):
            d = xy_decompose(b, tau)
            assert all(y >= 0 for y in d.y_slacks)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            xy_decompose(build_subset_dfa(3), (1, 2))
        with pytest.raises(ValueError):
            xy_decompose(build_greedy_dfa(as_word((1, 2), 2)), (1, 2))

    def test_subset_zero_slack_exhaustive(self):
        for k in range(1, 8):
            s = build_subset_dfa(k)
            for tau in permutations(range(1, k + 1)):
                assert sum(xy_decompose(s, tau).y_slacks) == 0


class TestXStatistics:
    def test_x_exactly_uniform_and_independent(self):
        # over all of S_k the X-vector hits each point of
        # [k] x [k-1] x ... x [1] exactly once (a bijection), which is
        # exact joint independence of exactly uniform coordinates
        for k in (4, 5):
            for dfa in (build_subset_dfa(k), random_k_dfa(k, 6, 17)):
                seen = Counter()
                for tau in permutations(range(1, k + 1)):
                    seen[xy_decompose(dfa, tau).x_ranks] += 1
                assert len(seen) == math.factorial(k)
                assert set(seen.values()) == {1}
                for vec in seen:
                    assert all(1 <= vec[j] <= k - j for j in range(k))

    def test_true_mean_of_x_sum(self):
        # E[sum X_j] = sum (k-j+2)/2 = (k^2+3k)/4 exactly; the (k^2+k)/4
        # sometimes quoted for this mean drops the +1/2 per rank.
        for k in range(1, 7):
            dfa = build_subset_dfa(k)
            total = Fraction(0)
            for tau in permutations(range(1, k + 1)):
                total += sum(xy_decompose(dfa, tau).x_ranks)
            assert total / math.factorial(k) == Fraction(k * k + 3 * k, 4)

    def test_vectorized_identity_matches_decompose(self):
        for k in (3, 5, 6):
            s = build_subset_dfa(k)
            taus = list(permutations(range(1, k + 1)))
            mat = np.array(taus, dtype=np.int64)
            X = _x_ranks(s, mat)
            for row, tau in zip(X, taus):
                assert tuple(row) == literal_x_ranks(s, tau) == xy_decompose(s, tau).x_ranks

    def test_sample_x_sums_follow_the_stream_definition(self):
        k, n, seed = 6, 40, 8
        dfa = random_k_dfa(k, 5, 31)
        want = [sum(literal_x_ranks(dfa, stream_injective_word(seed, i, k, k))) for i in range(n)]
        assert list(sample_x_sums(dfa, n, seed)) == want

    @pytest.mark.parametrize("n", [1, 4, 5, 11])
    def test_streamed_outputs_cross_block_boundaries(self, monkeypatch, n):
        # blocks of 4 rows: sample_x_sums and concentration_experiment must
        # read the same stream rows as with one block
        k, seed = 5, 17
        dfa = random_k_dfa(k, 4, 9)
        words = [stream_injective_word(seed, i, k, k) for i in range(n)]
        sums = [sum(literal_x_ranks(dfa, w)) for w in words]
        whole = concentration_experiment(dfa, 3, 0.2, n, seed)
        monkeypatch.setattr(W, "_BLOCK_ROWS", 4)
        got = sample_x_sums(dfa, n, seed)
        assert got.dtype == np.int64 and list(got) == sums
        blocked = concentration_experiment(dfa, 3, 0.2, n, seed)
        assert list(blocked.con1.items()) == list(whole.con1.items())
        assert list(blocked.con2.items()) == list(whole.con2.items())

    def test_tables_built_once_across_blocks(self, monkeypatch):
        # three blocks of 4 rows per call, and several calls: one _tables
        # build per automaton, and every block of every call reads the same
        # arrays
        builds = Counter()
        blocks = []
        build = D.WeightedDfa._tables.func
        counted = functools.cached_property(lambda dfa: builds.update([id(dfa)]) or build(dfa))
        counted.__set_name__(D.WeightedDfa, "_tables")
        monkeypatch.setattr(D.WeightedDfa, "_tables", counted)
        x_ranks = W._x_ranks
        monkeypatch.setattr(W, "_x_ranks", lambda dfa, perms: blocks.append(dfa._tables) or x_ranks(dfa, perms))
        monkeypatch.setattr(W, "_BLOCK_ROWS", 4)
        dfa = random_k_dfa(5, 4, 9)
        sample_x_sums(dfa, 11, 3)
        assert builds == {id(dfa): 1} and len(blocks) == 3
        tables = dfa._tables
        concentration_experiment(dfa, 3, 0.2, 11, 3)
        estimate_P(dfa, 2, 4, 0.1, 11, 3)
        xy_decompose(dfa, (2, 4, 1, 5, 3))
        t_statistic(dfa, (1, 3), 2)
        assert builds == {id(dfa): 1}
        assert all(t is tables for t in blocks) and len(blocks) > 3 and dfa._tables is tables
        # an equal automaton is another object with its own tables
        fresh = random_k_dfa(5, 4, 9)
        sample_x_sums(fresh, 11, 3)
        assert builds == {id(dfa): 1, id(fresh): 1}
        assert fresh._tables is not tables

    def test_cached_tables_are_read_only(self):
        dfa = random_k_dfa(5, 4, 9)
        sample_x_sums(dfa, 3, 1)
        cost, succ = dfa._tables
        for table in (cost, succ):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1
        index = {v: i for i, v in enumerate(dfa.states)}
        assert cost.tolist() == [list(dfa.cost_row(v)) for v in dfa.states]
        assert succ.tolist() == [[index[u] for u in dfa.delta_row(v)] for v in dfa.states]
        assert list(sample_x_sums(dfa, 3, 1)) == list(sample_x_sums(random_k_dfa(5, 4, 9), 3, 1))

    def test_sample_x_sums_at_the_block_size(self):
        k, seed = 9, 4
        dfa = build_subset_dfa(k)
        for n in (W._BLOCK_ROWS - 1, W._BLOCK_ROWS, W._BLOCK_ROWS + 1):
            got = sample_x_sums(dfa, n, seed)
            assert got.shape == (n,)
            for i in (0, n - 2, n - 1):
                assert got[i] == sum(literal_x_ranks(dfa, stream_injective_word(seed, i, k, k)))

    def test_sample_x_sums_agree_across_paths(self):
        k, n, seed = 6, 50, 21
        fast = sample_x_sums(build_subset_dfa(k), n, seed)
        slow = [
            sum(
                literal_x_ranks(
                    build_subset_dfa(k),
                    sample_perm_word(k, k, CounterRng(seed, i)).letters,
                )
            )
            for i in range(n)
        ]
        assert list(fast) == slow


class TestTStatistic:
    def test_empty_prefix(self):
        per_state, mn = t_statistic(build_subset_dfa(3), (), 3)
        assert set(per_state.values()) == {0}
        assert mn == 0

    def test_x_zero(self):
        assert t_statistic(build_subset_dfa(3), (3,), 0)[1] == 0

    def test_subset_root_example(self):
        per_state, mn = t_statistic(build_subset_dfa(3), (3,), 3)
        assert per_state[0] == 1  # identity cost row at the root
        assert len(per_state) == 8
        assert mn == min(per_state.values())

    def test_non_injective_prefix_rejected(self):
        with pytest.raises(ValueError):
            t_statistic(build_subset_dfa(3), (1, 1), 2)
        with pytest.raises(ValueError, match=r"letter 4 outside alphabet \[3\]"):
            t_statistic(build_subset_dfa(3), (1, 4), 2)
        with pytest.raises(ValueError, match="x must be non-negative"):
            t_statistic(build_subset_dfa(3), (1,), -1)

    def test_closed_form_min_matches_enumeration(self):
        for k in (2, 3, 4, 5):
            s = build_subset_dfa(k)
            rng = random.Random(k)
            for _ in range(20):
                plen = rng.randint(0, k)
                prefix = sample_perm_word(k, plen, rng).letters
                for x in (*range(0, k + 1), k + 0.5, 2 * k):
                    assert s.min_t_statistic(plen, x) == t_statistic(s, prefix, x)[1]

    def test_y_dominates_t_at_walk_state(self):
        # Y_j >= T_{v_{j-1}, j, X_j} >= min over states: the chain the
        # T statistic exists to serve.
        rng = random.Random(4)
        for _ in range(30):
            k = rng.randint(2, 6)
            dfa = random_k_dfa(k, rng.randint(1, 6), rng.randrange(10**6))
            tau = list(range(1, k + 1))
            rng.shuffle(tau)
            d = xy_decompose(dfa, tau)
            for j in range(1, k + 1):
                prefix = tau[: j - 1]
                per_state, mn = t_statistic(dfa, prefix, d.x_ranks[j - 1])
                v_prev = d.states[j - 1]
                assert d.y_slacks[j - 1] >= per_state[v_prev] >= mn


T_ORACLE_DFAS = [
    build_subset_dfa(3),
    build_subset_dfa(6),
    random_k_dfa(5, 6, 3),
    random_k_dfa(9, 12, 8),
    build_two_track_dfa(4),
    build_two_track_dfa(8),
]
T_ORACLE_IDS = ["subset3", "subset6", "random5", "random9", "two_track4", "two_track8"]


class TestTCountsOracle:
    @pytest.mark.parametrize("dfa", T_ORACLE_DFAS, ids=T_ORACLE_IDS)
    def test_t_statistic_matches_the_literal_oracle(self, dfa):
        k = dfa.alphabet_size
        rng = random.Random(k)
        for _ in range(15):
            prefix = sample_perm_word(k, rng.randint(0, k), rng).letters
            for x in (0, 1, k / 3, rng.randint(0, k), Fraction(k, 2), k, k + 2):
                per_state, mn = t_statistic(dfa, prefix, x)
                want = literal_t_counts(dfa, prefix, x)
                assert per_state == want
                assert list(per_state) == list(dfa.states)
                assert mn == min(want.values())
                assert all(type(c) is int for c in (mn, *per_state.values()))

    @pytest.mark.parametrize("k", [1, 5, 12, 14])
    def test_subset_counts_match_the_literal_oracle(self, k):
        # up to the k = 14 subset automaton, and x past k, where every
        # state counts the whole prefix
        dfa = build_subset_dfa(k)
        rng = random.Random(100 + k)
        for L in (1, k // 2, k):
            prefix = sample_perm_word(k, L, rng).letters
            for x in (k // 2, k / 3, Fraction(2 * k + 1, 3), k + 1.5):
                per_state, mn = t_statistic(dfa, prefix, x)
                want = literal_t_counts(dfa, prefix, x)
                assert per_state == want, (prefix, x)
                assert list(per_state) == list(dfa.states)
                assert mn == min(want.values()) == dfa.min_t_statistic(L, x)
                assert all(type(c) is int for c in (mn, *per_state.values()))

    @pytest.mark.parametrize("dfa", T_ORACLE_DFAS, ids=T_ORACLE_IDS)
    def test_min_t_counts_match_the_literal_oracle(self, dfa):
        k = dfa.alphabet_size
        perms = perm_matrix(k, 40, seed=k)
        xs = [m * k / 4 for m in range(1, 4)] + [0, k]
        for T, x in zip(_min_t_counts(dfa, perms, xs), xs):
            want = [
                [min(literal_t_counts(dfa, p[:j], x).values()) for j in range(k)]
                for p in perms.tolist()
            ]
            assert T.tolist() == want

    @pytest.mark.parametrize("dfa", T_ORACLE_DFAS, ids=T_ORACLE_IDS)
    def test_cost_matrix_rows_follow_the_state_order(self, dfa):
        rows = [list(dfa.cost_row(v)) for v in dfa.states]
        if isinstance(dfa, D.SubsetDfa):
            # t_statistic builds a subset automaton's matrix itself: a
            # one-letter prefix at x = c counts, per state, whether t costs
            # at most c there
            k = dfa.alphabet_size
            for t, c in product(range(1, k + 1), range(k + 1)):
                per_state, _ = t_statistic(dfa, (t,), c)
                assert list(per_state.items()) == [(v, int(row[t - 1] <= c)) for v, row in zip(dfa.states, rows)]
        else:
            assert dfa._tables[0].tolist() == rows


class TestConcentration:
    def test_frequencies_in_unit_interval(self):
        rep = concentration_experiment(build_subset_dfa(8), 4, 0.3, 200, seed=5)
        assert isinstance(rep, ConcentrationReport)
        for d in (rep.con1, rep.con2):
            assert set(d) == {(m1, m2) for m1 in (1, 2, 3) for m2 in (1, 2, 3)}
            assert all(0.0 <= f <= 1.0 for f in d.values())

    def test_subset_and_generic_paths_agree(self):
        # the vectorized subset path must match the per-sample generic path
        k, M, eps, n, seed = 6, 3, 0.3, 150, 9

        class PlainView:
            """subset automaton k=6 rebuilt as an explicit table"""

            def __init__(self):
                import superpatterns.dfa as D

                s = build_subset_dfa(k)
                delta = {v: s.delta_row(v) for v in s.states}
                cost = {v: s.cost_row(v) for v in s.states}
                self.dfa = D.WeightedDfa(k, 0, delta, cost)

        fast = concentration_experiment(build_subset_dfa(k), M, eps, n, seed)
        slow = concentration_experiment(PlainView().dfa, M, eps, n, seed)
        assert fast.con1 == slow.con1
        assert fast.con2 == slow.con2

    def test_paths_agree_with_one_step_windows(self):
        # M = k puts one step in every window, the narrowest that is
        # admitted; both code paths must score those events identically
        k, M, eps, n, seed = 3, 3, 0.3, 60, 4
        import superpatterns.dfa as D

        s = build_subset_dfa(k)
        table = D.WeightedDfa(
            k, 0,
            {v: s.delta_row(v) for v in s.states},
            {v: s.cost_row(v) for v in s.states},
        )
        fast = concentration_experiment(s, M, eps, n, seed)
        slow = concentration_experiment(table, M, eps, n, seed)
        assert fast.con1 == slow.con1
        assert fast.con2 == slow.con2

    def test_generic_concentration_follows_the_stream_definition(self):
        # con1/con2 re-derived sample by sample from the stream words, the
        # literal X ranks and the minimum of the literal T counts; on
        # random automata that minimum depends on the sample, unlike on
        # subset-derived tables. M <= k, so no window is empty.
        eps, n, seed = 0.3, 40, 12
        t_values = {}
        for k, M, states in ((6, 3, 5), (5, 4, 4), (3, 3, 3)):
            dfa = random_k_dfa(k, states, 100 + k)
            windows = {
                m1: [j for j in range(1, k + 1) if m1 * k < j * M <= (m1 + 1) * k]
                for m1 in range(1, M)
            }
            assert all(windows.values())
            con1 = Counter()
            con2 = Counter()
            for i in range(n):
                word = stream_injective_word(seed, i, k, k)
                X = literal_x_ranks(dfa, word)
                for m1, window in windows.items():
                    for m2 in range(1, M):
                        x = m2 * k / M
                        exceed = sum(
                            Fraction(X[j - 1], k - j + 1) > Fraction(m2, M)
                            for j in window
                        )
                        con1[(m1, m2)] += exceed < (1 - eps) * (1 - m2 / M) * k / M
                        short = False
                        for j in window:
                            t_min = min(literal_t_counts(dfa, word[: j - 1], x).values())
                            t_values.setdefault((k, j, m2), set()).add(t_min)
                            short |= t_min < (1 - eps) * (m2 / M) * (j - 1)
                        con2[(m1, m2)] += short
            rep = concentration_experiment(dfa, M, eps, n, seed)
            keys = {(m1, m2) for m1 in range(1, M) for m2 in range(1, M)}
            assert set(rep.con1) == set(rep.con2) == keys
            for key in keys:
                assert rep.con1[key] == con1[key] / n, (k, M, key)
                assert rep.con2[key] == con2[key] / n, (k, M, key)
        assert any(len(values) > 1 for values in t_values.values())

    def test_con2_trivial_on_subset_when_threshold_zero(self):
        # min-T at the subset automaton is sample independent; frequencies
        # are 0 or 1 accordingly
        rep = concentration_experiment(build_subset_dfa(8), 4, 0.3, 50, seed=2)
        assert set(rep.con2.values()) <= {0.0, 1.0}

    @pytest.mark.parametrize("k, M, eps_star", [(12, 3, 0.3), (60, 3, 0.3), (60, 5, 0.3), (16, 4, 0.25)])
    @pytest.mark.parametrize("seed", [7, 3])
    def test_subset_root_frequencies_match_the_exact_events(self, k, M, eps_star, seed):
        n = 20000
        rep = concentration_experiment(build_subset_dfa(k), M, eps_star, n, seed=seed)
        assert rep.con2 == subset_root_con2(k, M, eps_star)
        exact = subset_root_con1(k, M, eps_star)
        assert set(rep.con1) == set(exact)
        for key, p in exact.items():
            assert abs(z_score(rep.con1[key], p, n)) <= Z_BOUND, (key, rep.con1[key], float(p))

    def test_validations(self):
        with pytest.raises(ValueError):
            concentration_experiment(build_subset_dfa(4), 1, 0.3, 10, seed=0)
        with pytest.raises(ValueError):
            concentration_experiment(build_subset_dfa(4), 2, 0.3, 0, seed=0)

    def test_more_windows_than_letters_refused_before_sampling(self, monkeypatch):
        # M > k would leave most windows empty, with (M - 1)^2 events
        import superpatterns.walks as W

        def no_sampling(*args):
            raise AssertionError("sampled before checking M")

        monkeypatch.setattr(W, "_perm_blocks", no_sampling)
        for dfa in (build_subset_dfa(4), random_k_dfa(4, 3, 1)):
            for M in (5, 300):
                with pytest.raises(ValueError, match=f"^need M <= k = 4, got M = {M}$"):
                    concentration_experiment(dfa, M, 0.3, 10, seed=0)

    def test_window_pairs_count_against_the_cap(self, monkeypatch):
        import superpatterns.walks as W

        s = build_subset_dfa(4)
        blocks = W._perm_blocks
        sampled = []
        monkeypatch.setattr(W, "_perm_blocks", lambda *args: sampled.append(args) or blocks(*args))
        message = r"^concentration: 3\^2 window pairs exceeds the enumeration cap 8$"
        with pytest.raises(ResourceLimitError, match=message):
            concentration_experiment(s, 4, 0.3, 10, seed=0, max_words=8)
        assert sampled == []
        rep = concentration_experiment(s, 4, 0.3, 10, seed=0, max_words=9)
        assert len(rep.con1) == len(rep.con2) == 9
        assert rep == concentration_experiment(s, 4, 0.3, 10, seed=0)

    @pytest.mark.parametrize("eps_star", [0, 0.5, -0.3, 0.7, math.nan])
    def test_epsilon_star_outside_open_half_rejected_before_sampling(
        self, eps_star, monkeypatch
    ):
        import superpatterns.walks as W

        def no_sampling(*args):
            raise AssertionError("sampled before checking epsilon_star")

        monkeypatch.setattr(W, "_perm_blocks", no_sampling)
        monkeypatch.setattr(W, "sample_perm_word", no_sampling)
        for dfa in (build_subset_dfa(4), random_k_dfa(4, 3, 1)):
            with pytest.raises(ValueError):
                concentration_experiment(dfa, 2, eps_star, 10, seed=0)


class TestConcentrationAtScale:
    def test_k40_subset_con1_below_stated_rate(self):
        # every con1 frequency stays under exp(-c k) + 3 sigma for
        # c = (eps*/M)^2 / 2
        k, M, eps_star, samples = 40, 4, 0.3, 10**5
        rep = concentration_experiment(
            build_subset_dfa(k), M, eps_star, samples, seed=404
        )
        c = 0.5 * (eps_star / M) ** 2
        bound = math.exp(-c * k)
        slack = 3 * math.sqrt(bound * (1 - bound) / samples)
        for freq in rep.con1.values():
            assert freq <= bound + slack

    def test_min_t_never_above_root_t(self):
        s = build_subset_dfa(5)
        rng = random.Random(50)
        for _ in range(25):
            plen = rng.randint(0, 5)
            prefix = sample_perm_word(5, plen, rng).letters
            x = rng.randint(0, 5)
            per_state, mn = t_statistic(s, prefix, x)
            assert mn <= per_state[s.root]
