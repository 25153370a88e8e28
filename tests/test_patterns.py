import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superpatterns.patterns as P
from superpatterns.dfa import build_greedy_dfa
from superpatterns.errors import AlphabetMismatchError, ResourceLimitError
from superpatterns.patterns import (
    Permutation,
    _canonical_word_count,
    _canonical_words,
    Word,
    as_permutation,
    as_word,
    ascent_count,
    circular_contains,
    circular_pattern_set,
    exhaustive_f_search,
    f_oracle,
    find_embedding,
    format_permutation,
    format_word,
    greedy_embed,
    is_pattern,
    is_superpattern,
    minimal_superpattern_length,
    parse_permutation,
    parse_word,
    pattern_set,
    repeat_word,
)

from oracles import (
    all_words,
    brute_embeddings,
    brute_is_pattern,
    brute_is_superpattern,
    brute_pattern_set,
    subset_greedy_embeddings,
)


def perms(k):
    return list(permutations(range(1, k + 1)))


class TestTypes:
    def test_word_validates_letters(self):
        with pytest.raises(ValueError):
            Word((1, 4), 3)
        with pytest.raises(ValueError):
            Word((0, 1), 2)
        assert len(Word((), 1)) == 0

    def test_out_of_range_message_names_the_first_such_letter(self):
        with pytest.raises(ValueError, match=r"^letter 4 outside alphabet \[3\]$"):
            Word((1, 4, 0, 5), 3)
        with pytest.raises(ValueError, match=r"^letter 0 outside alphabet \[3\]$"):
            Word((2, 0, 4), 3)
        with pytest.raises(ValueError, match=r"^letter -1 outside alphabet \[2\]$"):
            Word((1.0, 2, -1), 2)

    def test_permutation_validates(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))
        with pytest.raises(ValueError):
            Permutation((2, 3))
        assert Permutation(()).k == 0

    def test_as_word_infers_alphabet(self):
        assert as_word([2, 5, 1, 4, 3]).alphabet_size == 5
        assert as_word([]).alphabet_size == 1

    def test_non_integral_letters_refused(self):
        # int() would truncate these to 1, 2 and 2, 1
        with pytest.raises(ValueError, match="not an integer"):
            as_word((1.5, 2.9))
        with pytest.raises(ValueError, match="not an integer"):
            is_pattern((2.9, 1.5), (2, 1))
        with pytest.raises(ValueError, match="not an integer"):
            as_permutation((2.7, 1.2))
        assert as_word((1.0, 2.0)) == Word((1, 2), 2)
        assert as_permutation((2.0, 1)).images == (2, 1)

    def test_word_constructor_refuses_non_integral_letters(self):
        # as_word returns a Word as it is, so the constructor checks too
        with pytest.raises(ValueError, match="letter 1.5 is not an integer"):
            Word((1.5, 2), 3)
        with pytest.raises(ValueError, match="not an integer"):
            is_pattern(Word((2, 1.5), 3), (2, 1))
        word = Word([1.0, 2], 2)
        assert word.letters == (1, 2)
        assert all(type(x) is int for x in word.letters)

    def test_permutation_constructor_refuses_non_integral_images(self):
        # sorted((2.0, 1.0)) == [1, 2], so these once passed and broke the scans
        with pytest.raises(ValueError, match="image 1.5 is not an integer"):
            Permutation((1.5, 1))
        tau = Permutation((2.0, 1.0))
        assert tau.images == (2, 1) and all(type(x) is int for x in tau.images)
        assert not is_pattern((1, 2, 3), tau)
        assert find_embedding((3, 1, 2), tau) == (1, 2)
        assert Permutation([2, 1]) == Permutation((2, 1))

    @pytest.mark.parametrize("r", [3.5, "3", 2.0000001])
    def test_word_constructor_refuses_a_non_integral_alphabet_size(self, r):
        # build_greedy_dfa on such a word once raised TypeError
        with pytest.raises(ValueError, match=f"alphabet size {r!r} is not an integer"):
            Word((1, 2, 1), r)
        with pytest.raises(ValueError, match="is not an integer"):
            build_greedy_dfa(Word((1, 2, 1), r))

    def test_integral_alphabet_size_is_an_int(self):
        word = Word((1, 2), 3.0)
        assert (word.alphabet_size, type(word.alphabet_size)) == (3, int)
        assert word == Word((1, 2), 3)


class _NoInt:
    """A value whose int() raises and that does not compare with ints."""

    def __int__(self):
        raise RuntimeError("no int for this value")

    def __repr__(self):
        return "_NoInt()"


# int-valued stand-ins (1.0, True, numpy ints, Fractions) and values the
# validators refuse, each in its own way
_odd_values = st.sampled_from(
    [0, -1, 1.0, 2.0, 1.5, True, False, np.int64(2), np.int8(0), Fraction(3), Fraction(3, 2),
     "2", "x", None, _NoInt()]
)
_words = st.one_of(
    st.lists(st.integers(1, 6), max_size=8).map(tuple),
    st.lists(st.one_of(st.integers(-1, 6), _odd_values), max_size=6).map(tuple),
    st.lists(st.integers(1, 6), max_size=6),
    st.sampled_from([None, 5, "3121", "", ()]),
)
_taus = st.one_of(
    st.integers(0, 4).flatmap(lambda k: st.permutations(range(1, k + 1))).map(tuple),
    st.lists(st.one_of(st.integers(-1, 4), _odd_values), max_size=4).map(tuple),
    st.sampled_from([None, 3, "21", "", (2, 2), (1, 3)]),
)


def _outcome(call, *args):
    """What call(*args) returns, or the type and message of what it raises."""
    try:
        return "returns", call(*args)
    except Exception as e:
        return type(e), str(e)


def _typed_outcome(call, sigma, tau, *rest):
    """_outcome of call on as_word(sigma) and as_permutation(tau), tau
    validated first."""
    try:
        tau = as_permutation(tau)
        sigma = as_word(sigma)
    except Exception as e:
        return type(e), str(e)
    return _outcome(call, sigma, tau, *rest)


class TestFrontDoor:
    """A plain sequence is validated without building a Word or
    Permutation, yet every routed function answers and refuses exactly as
    on as_word(sigma) and as_permutation(tau)."""

    @given(_words, _taus, st.booleans())
    @settings(max_examples=600, deadline=None)
    def test_containment_queries(self, sigma, tau, bidirectional):
        for call, *rest in ((is_pattern,), (find_embedding,), (circular_contains, bidirectional)):
            assert _outcome(call, sigma, tau, *rest) == _typed_outcome(call, sigma, tau, *rest)

    @given(_words, st.integers(0, 3), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_pattern_sets(self, sigma, k, bidirectional):
        typed = _outcome(as_word, sigma)
        for call, *rest in (
            (pattern_set, k), (circular_pattern_set, k, bidirectional), (is_superpattern, k + 1),
        ):
            want = _outcome(call, typed[1], *rest) if typed[0] == "returns" else typed
            assert _outcome(call, sigma, *rest) == want

    def test_plain_ints_build_no_word_or_permutation(self, monkeypatch):
        # every letter 1 and every tau, () and (1,) too, takes the fast path
        def refused(*args):
            raise AssertionError("validator called")

        monkeypatch.setattr(P, "as_word", refused)
        monkeypatch.setattr(P, "as_permutation", refused)
        for tau in [(), (1,), (2, 1), (1, 3, 2), (2, 4, 1, 3), (3, 1, 5, 2, 4)]:
            for sigma in [(), (1,), (1, 1), (2, 5, 1, 4, 3), [3, 1, 2, 1]]:
                assert is_pattern(sigma, tau) == is_pattern(Word(tuple(sigma), 5), Permutation(tau))
                assert find_embedding(sigma, tau) == find_embedding(Word(tuple(sigma), 5), tau)
                assert circular_contains(sigma, tau, True) == circular_contains(Word(tuple(sigma), 5), tau, True)
        assert {p.images for p in pattern_set((1, 3, 2, 1), 2)} == {(1, 2), (2, 1)}
        assert is_superpattern((1, 2, 1), 2) and circular_pattern_set((1, 1), 1)

    def test_generators_and_int_likes(self):
        assert is_pattern((x for x in (2, 5, 1, 4, 3)), iter((3, 1, 2)))
        # the validator reads the sequence the probe already consumed
        assert is_pattern((x for x in (2.0, 1)), iter((2.0, 1))) and is_pattern(iter([2, 1]), [2, 1])
        assert find_embedding(iter([3.0, 1, 2]), (x for x in [2, 1.0])) == (1, 2)
        assert find_embedding([np.int64(3), 1, True, 2.0], (Fraction(2), 1)) == (1, 2)
        assert P._letters((True, 2.0, np.int64(3))) == (1, 2, 3)
        assert all(type(x) is int for x in P._letters((True, 2.0, np.int64(3))))
        assert P._images((2.0, np.int8(1))) == (2, 1)
        with pytest.raises(ValueError, match=r"^letter 0 outside alphabet \[2\]$"):
            is_pattern((0, 2), (1,))
        with pytest.raises(ValueError, match=r"^\(2, 2\) is not a permutation of \[2\]$"):
            is_pattern((0, 2), (2, 2))


class TestIsPattern:
    def test_worked_containment_example(self):
        # 312 occurs in 2 5 1 4 3; one witness is positions 2, 3, 4.
        assert is_pattern((2, 5, 1, 4, 3), (3, 1, 2))
        assert find_embedding((2, 5, 1, 4, 3), (3, 1, 2)) == (2, 3, 4)

    def test_single_letter_always_embeds(self):
        assert is_pattern((7,), (1,))
        assert is_pattern((1, 1, 1), (1,))
        assert not is_pattern((), (1,))

    def test_1232_misses_213(self):
        # Exhaustive over all C(4,3) index triples: no 213.
        assert not brute_is_pattern((1, 2, 3, 2), (2, 1, 3))
        assert not is_pattern((1, 2, 3, 2), (2, 1, 3))

    def test_empty_pattern_always_contained(self):
        assert is_pattern((), ())
        assert is_pattern((1, 2), ())

    def test_agrees_with_index_subset_oracle(self):
        rng = random.Random(1783)
        for _ in range(300):
            r = rng.randint(1, 5)
            n = rng.randint(0, 8)
            k = rng.randint(0, 3)
            letters = tuple(rng.randint(1, r) for _ in range(n))
            for tau in perms(k):
                assert is_pattern(as_word(letters, r), tau) == brute_is_pattern(
                    letters, tau
                )

    def test_embedding_is_lex_least(self):
        rng = random.Random(40)
        cases = [(tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 7))), 3) for _ in range(200)]
        cases += [
            (tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 8))), k)
            for k in range(5) for _ in range(40)
        ]
        for letters, k in cases:
            for tau in perms(k):
                embs = brute_embeddings(letters, tau)
                got = find_embedding(letters, tau)
                if embs:
                    assert got == embs[0]
                else:
                    assert got is None


class TestGreedyEmbed:
    def test_direct_traces(self):
        w = as_word((1, 2, 3, 2), 3)
        assert greedy_embed(w, (1, 2, 3)) == (1, 2, 3)
        assert greedy_embed(w, (2, 1, 3)) is None  # no 1 after position 2
        assert greedy_embed((1, 2, 3), (1, 2, 3)) == (1, 2, 3)

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(AlphabetMismatchError):
            greedy_embed(as_word((1, 2), 2), (1, 2, 3))

    def test_greedy_success_iff_pattern(self):
        # On words over [k] the greedy embedding succeeds exactly when tau
        # occurs at all.
        rng = random.Random(91)
        for _ in range(150):
            k = rng.randint(1, 6)
            n = rng.randint(0, 10)
            letters = tuple(rng.randint(1, k) for _ in range(n))
            w = as_word(letters, k)
            for tau in perms(k):
                assert (greedy_embed(w, tau) is not None) == brute_is_pattern(
                    letters, tau
                )

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_greedy_result_is_an_embedding(self, k, data):
        n = data.draw(st.integers(1, 9))
        letters = tuple(data.draw(st.integers(1, k)) for _ in range(n))
        tau = tuple(data.draw(st.permutations(range(1, k + 1))))
        emb = greedy_embed(as_word(letters, k), tau)
        if emb is not None:
            assert all(a < b for a, b in zip(emb, emb[1:]))
            assert 1 <= emb[0] and emb[-1] <= n
            assert tuple(letters[i - 1] for i in emb) == tau


class TestPatternSet:
    def test_1232(self):
        got = {p.images for p in pattern_set((1, 2, 3, 2), 3)}
        assert got == {(1, 2, 3), (1, 3, 2)}

    def test_repetition_word_has_all(self):
        got = {p.images for p in pattern_set(repeat_word(3, 3), 3)}
        assert got == set(perms(3))

    def test_one_distinct_value(self):
        assert pattern_set((1, 1, 1), 3) == set()

    def test_k_zero_convention(self):
        assert pattern_set((1, 2), 0) == {Permutation(())}
        assert is_superpattern((1, 2), 0)
        assert is_superpattern((), 0)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            pattern_set((1, 2), 11)

    def test_matches_oracle(self):
        rng = random.Random(5150)
        for _ in range(120):
            r = rng.randint(1, 5)
            n = rng.randint(0, 8)
            k = rng.randint(1, 3)
            letters = tuple(rng.randint(1, r) for _ in range(n))
            got = {p.images for p in pattern_set(as_word(letters, r), k)}
            assert got == brute_pattern_set(letters, k)

    def test_relabeling_invariance_full_alphabet(self):
        # For words over [k] counting length-k patterns, a letter bijection
        # pi maps the pattern set to pi o (pattern set), so counts are
        # invariant. (For k < r this fails: relabelings of 2 4 3 2 3 2 1
        # over [4] hold 3, 4, or 5 patterns of length 3.)
        rng = random.Random(77)
        for _ in range(60):
            k = rng.randint(2, 4)
            n = rng.randint(1, 8)
            letters = tuple(rng.randint(1, k) for _ in range(n))
            relabel = list(range(1, k + 1))
            rng.shuffle(relabel)
            mapped = tuple(relabel[x - 1] for x in letters)
            orig = {p.images for p in pattern_set(as_word(letters, k), k)}
            new = {p.images for p in pattern_set(as_word(mapped, k), k)}
            assert new == {
                tuple(relabel[t - 1] for t in tau) for tau in orig
            }

    def test_relabeling_can_change_count_on_larger_alphabets(self):
        sigma = (2, 4, 3, 2, 3, 2, 1)
        counts = set()
        for rho in permutations(range(1, 5)):
            mapped = tuple(rho[x - 1] for x in sigma)
            got = len(pattern_set(as_word(mapped, 4), 3))
            assert got == len(brute_pattern_set(mapped, 3))
            counts.add(got)
        assert counts == {3, 4, 5, 6}

    @given(st.lists(st.integers(1, 6), max_size=10), st.integers(0, 5), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_censuses_share_one_search(self, letters, k, bidirectional):
        # pattern_set and circular_pattern_set wrap the search's tuples;
        # is_superpattern counts them and builds no Permutation
        want = {Permutation(t) for t in brute_pattern_set(letters, k)}
        want_circular = {
            Permutation(t) for p in want for t in P._dihedral_orbit(p.images, bidirectional)
        }
        assert pattern_set(letters, k) == want
        assert circular_pattern_set(letters, k, bidirectional) == want_circular

        def refused(self):
            raise AssertionError("Permutation built")

        with patch.object(Permutation, "__post_init__", refused):
            assert is_superpattern(letters, k) == (len(want) == math.factorial(k))


class TestSuperpattern:
    def test_examples(self):
        assert is_superpattern(repeat_word(3, 3), 3)
        assert not is_superpattern((1, 2, 3, 2), 3)
        assert not is_superpattern((), 1)


class TestFOracle:
    def test_anchors(self):
        assert f_oracle(3, 3)[0] == 1
        assert f_oracle(3, 4)[0] == 2
        assert f_oracle(3, 9)[0] == 6

    def test_witness_attains_max(self):
        for k, n in [(2, 4), (3, 4), (3, 5)]:
            best, w = f_oracle(k, n)
            assert len(brute_pattern_set(w.letters, k)) == best

    def test_against_unpruned_enumeration(self):
        # Full k^n sweep, no canonicalization, as the independent oracle.
        for k, n in [(2, 3), (2, 5), (3, 4), (3, 5)]:
            expect = max(
                len(brute_pattern_set(w, k)) for w in all_words(k, n)
            )
            assert f_oracle(k, n)[0] == expect

    def test_monotone_in_n(self):
        for k in (2, 3):
            vals = [f_oracle(k, n)[0] for n in range(k, 8)]
            assert vals == sorted(vals)

    def test_degenerate_identities(self):
        for k in (2, 3):
            assert f_oracle(k, k)[0] == 1
        assert f_oracle(2, 4)[0] == 2
        assert f_oracle(3, 9)[0] == math.factorial(3)

    def test_caps(self):
        # the one cap, max_words, on k! and on the canonical words
        # visited, sum over j <= k of S(n, j); 14 for (3, 4)
        with pytest.raises(ResourceLimitError):
            f_oracle(11, 3)
        with pytest.raises(ResourceLimitError):
            f_oracle(4, 3, max_words=23)
        with pytest.raises(ResourceLimitError):
            f_oracle(3, 4, max_words=13)
        assert f_oracle(3, 4, max_words=14)[0] == 2
        # f(4, 14) visits 11 188 907 words, over the default 10^7
        with pytest.raises(ResourceLimitError):
            f_oracle(4, 14)
        # k = 2 visits 2^(n-1) words: over the cap after a few rows
        with pytest.raises(ResourceLimitError):
            f_oracle(2, 10**7)
        # k = 1 visits one word for every n, of n letters
        with pytest.raises(ResourceLimitError):
            f_oracle(1, 50, max_words=49)


    def test_canonical_words(self):
        # the lexicographically ordered words whose first occurrences run
        # 1, 2, 3, ..., and as many as the Stirling-sum count says
        for k in range(1, 5):
            for n in range(0, 7):
                expect = [
                    w for w in sorted(all_words(k, n))
                    if all(x <= max(w[:i], default=0) + 1 for i, x in enumerate(w))
                ]
                assert list(_canonical_words(n, k)) == expect
                assert _canonical_word_count(n, k, 10**9) == len(expect)

    def test_word_longer_than_the_recursion_limit(self):
        assert f_oracle(1, 5000) == (1, Word((1,) * 5000, 1))


class TestCountingReduction:
    def test_subset_bound(self):
        # Any word in [r]^n holds at most C(r,k) * F(k,n) length-k patterns.
        rng = random.Random(303)
        cache = {}
        for _ in range(80):
            r = rng.randint(1, 5)
            n = rng.randint(1, 8)
            k = rng.randint(1, 3)
            if k > r or k > n:
                continue
            letters = tuple(rng.randint(1, r) for _ in range(n))
            if (k, n) not in cache:
                cache[(k, n)] = f_oracle(k, n)[0]
            bound = math.comb(r, k) * cache[(k, n)]
            assert len(pattern_set(as_word(letters, r), k)) <= bound


def brute_circular_contains(letters, tau, bidirectional):
    """Whether tau is a pattern of a rotation of the word or, when
    bidirectional, of its reversal."""
    bases = [letters, letters[::-1]] if bidirectional else [letters]
    return any(brute_is_pattern(w[i:] + w[:i], tau) for w in bases for i in range(max(len(w), 1)))


class TestCircular:
    def test_rotation_equals_pattern(self):
        assert circular_contains((1, 2), (2, 1), False)

    def test_reversal_needed(self):
        assert not circular_contains((1, 2, 3), (3, 2, 1), False)
        assert circular_contains((1, 2, 3), (3, 2, 1), True)

    def test_identity_rotation(self):
        assert circular_contains((2, 5, 1, 4, 3), (3, 1, 2), False)

    def test_matches_rotation_oracle(self):
        rng = random.Random(2024)
        cases = [(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 6))), 3) for _ in range(60)]
        # words on [5] can hold more values than tau has
        cases += [
            (tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 7))), k)
            for k in range(1, 5) for _ in range(30)
        ]
        for letters, k in cases:
            for tau in perms(k):
                for bidirectional in (False, True):
                    expect = brute_circular_contains(letters, tau, bidirectional)
                    assert circular_contains(letters, tau, bidirectional) == expect


def brute_circular_pattern_set(letters, k, bidirectional):
    """The union of brute_pattern_set over every rotation of the word and,
    when bidirectional, of its reversal."""
    bases = [letters, letters[::-1]] if bidirectional else [letters]
    out = set()
    for w in bases:
        for i in range(max(len(w), 1)):
            out |= brute_pattern_set(w[i:] + w[:i], k)
    return out


class TestCircularPatternSet:
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_matches_the_rotation_union_oracle(self, bidirectional):
        rng = random.Random(7 + bidirectional)
        words = [(), (1, 2, 1, 2), (1, 2, 1, 2, 1, 2), (2, 1, 2, 1), (3, 3, 3), (1, 2, 3, 1, 2, 3)]
        words += [tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 7))) for _ in range(40)]
        for letters in words:
            for k in range(0, 5):
                got = circular_pattern_set(as_word(letters, 5), k, bidirectional)
                want = brute_circular_pattern_set(letters, k, bidirectional)
                assert {p.images for p in got} == want, (letters, k)

    def test_agrees_with_circular_contains(self):
        rng = random.Random(11)
        for _ in range(30):
            letters = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
            for bidirectional in (False, True):
                got = {p.images for p in circular_pattern_set(letters, 3, bidirectional)}
                assert got == {t for t in perms(3) if circular_contains(letters, t, bidirectional)}

    def test_domain_and_cap_are_pattern_sets(self):
        with pytest.raises(ValueError):
            circular_pattern_set((1, 2), -1)
        with pytest.raises(ResourceLimitError):
            circular_pattern_set((1, 2), 11)
        with pytest.raises(ResourceLimitError):
            circular_pattern_set((1, 2), 3, True, max_words=5)
        assert len(circular_pattern_set((1, 2), 11, max_words=math.factorial(11))) == 0


def reference_contains(letters, taus):
    # the empty embedding () is falsy, so any() would miss it
    return next(subset_greedy_embeddings(letters, taus), None) is not None


def rotations(tau, bidirectional):
    bases = [tau, tau[::-1]] if bidirectional else [tau]
    return {b[i:] + b[:i] for b in bases for i in range(max(len(b), 1))}


class TestOccurrenceKernel:
    """is_pattern, find_embedding, circular_contains, greedy_embed and
    pattern_set against subset_greedy_embeddings, the value-subset greedy
    search they replaced, and against the index-subset oracles."""

    @given(st.integers(1, 7), st.data())
    @settings(max_examples=300, deadline=None)
    def test_containment_matches_the_reference(self, r, data):
        letters = tuple(data.draw(st.lists(st.integers(1, r), max_size=9)))
        k = data.draw(st.integers(0, 5))
        tau = tuple(data.draw(st.permutations(range(1, k + 1))))
        word = Word(letters, r)
        reference = list(subset_greedy_embeddings(letters, [tau]))
        brute = brute_embeddings(letters, tau)
        assert is_pattern(word, tau) == bool(reference) == brute_is_pattern(letters, tau)
        assert find_embedding(word, tau) == min(reference, default=None)
        assert find_embedding(word, tau) == (brute[0] if brute else None)
        for bidirectional in (False, True):
            orbit = rotations(tau, bidirectional)
            got = circular_contains(word, tau, bidirectional)
            assert got == reference_contains(letters, orbit)
            assert got == brute_circular_contains(letters, tau, bidirectional)

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=150, deadline=None)
    def test_greedy_embed_and_pattern_set_match_the_reference(self, k, data):
        # over [k] there is one k-subset of values, or none if a letter is missing
        letters = tuple(data.draw(st.lists(st.integers(1, k), max_size=10)))
        tau = tuple(data.draw(st.permutations(range(1, k + 1))))
        want = next(subset_greedy_embeddings(letters, [tau]), None)
        assert greedy_embed(Word(letters, k), tau) == want
        r = data.draw(st.integers(k, 7))
        letters = tuple(data.draw(st.lists(st.integers(1, r), max_size=8)))
        j = data.draw(st.integers(0, 4))
        got = {p.images for p in pattern_set(Word(letters, r), j)}
        assert got == {t for t in perms(j) if reference_contains(letters, [t])}
        assert got == brute_pattern_set(letters, j)

    def test_value_gaps_and_repeats(self):
        word = Word((2, 5, 5, 9), 9)
        assert find_embedding(word, (1, 2)) == (1, 2)
        assert find_embedding(word, (1, 2, 3)) == (1, 2, 4)
        assert not is_pattern(word, (2, 1))
        assert circular_contains(word, (2, 1))
        assert {p.images for p in pattern_set(word, 2)} == {(1, 2)}
        assert find_embedding((3, 3, 1, 3, 1), (2, 1)) == (1, 3)
        assert greedy_embed(Word((2, 2, 1, 1, 2), 2), (1, 2)) == (3, 5)

    def test_k_zero_and_k_above_the_distinct_letters(self):
        word = Word((4, 1, 4, 1), 4)
        assert is_pattern(word, ()) and circular_contains(word, (), True)
        assert find_embedding(word, ()) == ()
        assert {p.images for p in pattern_set(word, 0)} == {()}
        for tau in perms(3):
            assert not is_pattern(word, tau)
            assert find_embedding(word, tau) is None
            assert not circular_contains(word, tau, True)
        assert pattern_set(word, 3) == set()
        assert greedy_embed(Word((1, 1, 3), 3), (1, 2, 3)) is None

    def test_a_long_word_over_many_values_costs_linear_memory(self):
        # n letters over about n values: a per-value index of every position
        # (one slot per letter and value) would need over 100 MB here
        up = tuple(range(1, 5001))
        up_down = tuple(range(1, 2501)) + tuple(range(2500, 0, -1))
        tracemalloc.start()
        try:
            assert is_pattern(up, (1, 2))
            assert is_pattern(up_down, (2, 1))
            assert circular_contains(up_down, (1, 3, 2), True)
            assert {p.images for p in pattern_set(up_down, 1)} == {(1,)}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_least_embedding_is_not_the_first_subsets(self):
        # values {1, 2} come first and embed 12 at (3, 4); values {2, 3} embed it at (1, 2)
        assert next(subset_greedy_embeddings((2, 3, 1, 2), [(1, 2)])) == (3, 4)
        assert find_embedding((2, 3, 1, 2), (1, 2)) == (1, 2)


class TestPatternKernel:
    """The pattern_set kernel and f_oracle's search, pinned against faults
    that the random checks might miss."""

    def test_reversed_last_pair(self):
        # both orders of the last two ranks are read at every leaf
        assert {p.images for p in pattern_set((2, 1), 2)} == {(2, 1)}
        assert {p.images for p in pattern_set((1, 3, 2), 3)} == {(1, 3, 2)}
        assert {p.images for p in pattern_set((2, 3, 1), 3)} == {(2, 3, 1)}
        assert {p.images for p in pattern_set((3, 1, 2, 1), 3)} == {(3, 1, 2), (3, 2, 1)}
        # the last rank is read at its last occurrence, not its first
        assert {p.images for p in pattern_set((2, 1, 2), 2)} == {(1, 2), (2, 1)}
        assert {p.images for p in pattern_set((3, 2, 1, 3), 3)} == {(3, 2, 1), (2, 1, 3)}
        assert f_oracle(2, 2) == (1, Word((1, 2), 2))

    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_pattern_set_at_larger_k(self, k):
        rng = random.Random(500 + k)
        for _ in range(12 if k < 7 else 4):
            # k distinct values, then one or two more letters anywhere
            r = rng.randint(k, k + 2)
            letters = rng.sample(range(1, r + 1), k)
            for _ in range(rng.randint(1, 2)):
                letters.insert(rng.randint(0, len(letters)), rng.randint(1, r))
            letters = tuple(letters)
            got = {p.images for p in pattern_set(Word(letters, r), k)}
            assert got == brute_pattern_set(letters, k), letters

    @pytest.mark.parametrize(
        "k, n", [(2, n) for n in range(3, 9)] + [(3, n) for n in range(4, 8)] + [(4, n) for n in range(4, 7)]
    )
    def test_witness_is_the_lex_least_maximizer(self, k, n):
        def count(w):
            # the standardized k-subsequences with k distinct values
            return len({
                tuple(sorted(sub).index(x) + 1 for x in sub)
                for sub in combinations(w, k) if len(set(sub)) == k
            })

        want = max(all_words(k, n), key=count)  # max keeps the first, lex-least
        assert f_oracle(k, n) == (count(want), Word(want, k))

    @pytest.mark.parametrize("k, n, visited", [(2, 3, 3), (2, 12, 3), (3, 7, 180), (3, 9, 180), (3, 6, 122), (4, 9, 11051)])
    def test_search_stops_at_k_factorial(self, monkeypatch, k, n, visited):
        # f(3, 6) = 5 < 3! and f(4, 9) = 16 < 4!: no stop, every word is read
        canonical = P._canonical_words
        seen = []

        def counted(*args):
            for w in canonical(*args):
                seen.append(w)
                yield w

        monkeypatch.setattr(P, "_canonical_words", counted)
        best, witness = f_oracle(k, n)
        assert len(seen) == visited
        if visited < _canonical_word_count(n, k, 10**9):
            assert (best, witness.letters) == (math.factorial(k), seen[-1])
        else:
            assert best < math.factorial(k)


class TestAscents:
    def test_examples(self):
        assert ascent_count((1, 2, 3)) == 2
        assert ascent_count((3, 2, 1)) == 0
        assert ascent_count((1, 3, 2)) == 1
        assert ascent_count((2, 3, 1)) == 1

    def test_reversal_identity_exhaustive(self):
        for k in range(1, 8):
            for tau in permutations(range(1, k + 1)):
                assert ascent_count(tau[::-1]) == k - 1 - ascent_count(tau)


class TestRepeatWord:
    def test_construction(self):
        assert repeat_word(3, 2).letters == (1, 2, 3, 1, 2, 3)

    def test_123123_misses_only_321(self):
        got = {p.images for p in pattern_set(repeat_word(3, 2), 3)}
        assert got == set(perms(3)) - {(3, 2, 1)}

    def test_ascent_guarantee(self):
        # m copies of 1..k capture every permutation with >= k-m ascents.
        for k in range(1, 7):
            for m in range(1, k + 1):
                w = repeat_word(k, m)
                for tau in permutations(range(1, k + 1)):
                    if ascent_count(tau) >= k - m:
                        assert is_pattern(w, tau)

    def test_half_coverage_at_half_copies(self):
        for k in range(2, 7):
            m = (k + 1) // 2
            count = len(pattern_set(repeat_word(k, m), k))
            assert count >= math.factorial(k) // 2


class TestExhaustiveSearch:
    def test_smallest_2_superpattern_has_length_3(self):
        rows = exhaustive_f_search(2, 2, 4)
        assert rows == [(1, False), (2, False), (3, True), (4, True)]
        assert minimal_superpattern_length(2, 2, 4) == 3

    def test_no_3_superpattern_on_3_letters_up_to_4(self):
        rows = exhaustive_f_search(3, 3, 4)
        assert all(not ok for _, ok in rows)
        assert minimal_superpattern_length(3, 3, 4) is None

    def test_trivial_k1(self):
        assert exhaustive_f_search(1, 1, 1) == [(1, True)]

    def test_agrees_with_unpruned_search(self):
        for k, r, n_max in [(2, 2, 4), (2, 3, 3), (3, 3, 4), (3, 4, 6), (3, 5, 5)]:
            rows = exhaustive_f_search(k, r, n_max)
            for n, ok in rows:
                expect = any(
                    len(brute_pattern_set(w, k)) == math.factorial(k)
                    for w in all_words(r, n)
                )
                assert ok == expect

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            exhaustive_f_search(3, 10, 8)

    def test_witnesses_on_more_letters_than_k(self):
        # superpatterns that a search keeping one word per letter
        # relabeling class never sees: relabeling keeps patterns only for
        # words over [k]
        for k, r, word in [
            (3, 4, (1, 2, 4, 1, 3, 1)),
            (3, 5, (2, 5, 3, 1, 4)),
            (4, 5, (1, 3, 5, 1, 2, 4, 1, 5, 3, 1)),
        ]:
            assert brute_is_superpattern(word, k)
            assert max(word) == r
            rows = exhaustive_f_search(k, r, len(word))
            assert rows[-1] == (len(word), True)

    def test_millers_bound_reached_for_k4(self):
        # Miller's (k^2 + k) / 2 = 10 is the shortest length on [k + 1]
        assert minimal_superpattern_length(4, 5, 10) == 10

    @pytest.mark.parametrize("k, r, n_max, shortest, sizes", [
        (3, 6, 6, 5, [3, 15, 69, 261, 315]),
        (4, 4, 11, None, [2, 6, 17, 40, 96, 197, 416, 848, 1601, 2488, 0]),
        (4, 5, 10, 10, [3, 12, 45, 153, 522, 1683, 5482, 17663, 56135, 0]),
    ])
    def test_layer_sizes(self, monkeypatch, k, r, n_max, shortest, sizes):
        # the states each layer keeps, read through the search's one set():
        # the three prunings, the moves and the last layer decide them
        import superpatterns.patterns as P

        layers = []

        class Layer(set):
            def __init__(self, *args):
                super().__init__(*args)
                layers.append(self)

        monkeypatch.setattr(P, "set", Layer, raising=False)
        assert minimal_superpattern_length(k, r, n_max) == shortest
        assert [len(layer) for layer in layers] == sizes

    def test_alphabet_beyond_n_max(self):
        # a word of length n uses at most n letters, so a larger alphabet
        # changes nothing past [n_max]
        for k, n_max in [(2, 4), (3, 6), (3, 5)]:
            rows = exhaustive_f_search(k, n_max, n_max)
            for r in (n_max + 1, n_max + 3):
                assert exhaustive_f_search(k, r, n_max) == rows

    def test_fewer_letters_than_k(self):
        assert exhaustive_f_search(3, 2, 9) == [(n, False) for n in range(1, 10)]
        assert exhaustive_f_search(0, 3, 2) == [(1, True), (2, True)]


class TestTextFormat:
    def test_round_trip_with_header(self):
        w = Word((1, 2, 3, 2), 5)
        assert parse_word(format_word(w)) == w
        # without the header the alphabet is read back as the largest letter
        assert format_word(w, header=False) == "1 2 3 2\n"
        assert parse_word(format_word(w, header=False)) == Word((1, 2, 3, 2), 3)

    def test_header_optional(self):
        w = parse_word("2 5 1 4 3\n")
        assert w.letters == (2, 5, 1, 4, 3)
        assert w.alphabet_size == 5

    def test_permutation_round_trip(self):
        assert parse_permutation("3 1 2").images == (3, 1, 2)
        assert format_permutation(Permutation((3, 1, 2))) == "3 1 2\n"
        assert parse_permutation(format_permutation(Permutation((2, 1)))) == Permutation((2, 1))

    @given(st.lists(st.integers(1, 9), max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_arbitrary(self, letters):
        w = as_word(letters)
        assert parse_word(format_word(w)) == w


class _Admitted(Exception):
    """Raised by a stub in place of the work a cap admitted."""


def _set_partitions(n, k):
    """Words in [k]^n up to relabeling, sum over j <= k of S(n, j), each
    Stirling number from its explicit formula."""
    return sum(
        sum((-1) ** i * math.comb(j, i) * (j - i) ** n for i in range(j + 1)) // math.factorial(j)
        for j in range(k + 1)
    )


class TestOneCap:
    """max_words is the one cap: k! against it admits exactly what the
    k! cap max_k did (max_k = m as max_words = m!, 0 as 0), and every
    other count is capped as before."""

    @pytest.fixture
    def decide(self, monkeypatch):
        # stop each query at the first step its caps admit
        import superpatterns.dfa as D
        import superpatterns.patterns as P

        def admitted(*args, **kwargs):
            raise _Admitted

        for module, name in (
            (P, "_occurrence_lists"), (P, "_canonical_words"),
            (P, "_shortest_superpattern"), (D, "_last_cost_layer"),
        ):
            monkeypatch.setattr(module, name, admitted)

        def decision(call, *args, **kwargs):
            try:
                call(*args, **kwargs)
            except _Admitted:
                return "admit"
            except ResourceLimitError:
                return "refuse"
            except ValueError:
                return "domain"
            return "admit"

        return decision

    def test_default_decisions_are_the_two_caps(self, decide):
        from superpatterns.dfa import build_subset_dfa, cheap_perm_count, perm_cost_census
        from superpatterns.walks import _check_enumeration

        cap, cases = 10**7, 0

        def check(want, call, *args):
            nonlocal cases
            cases += 1
            assert decide(call, *args) == want, (call.__name__, args)

        def capped(refused):
            return "refuse" if refused else "admit"

        for k in range(-1, 13):
            check("domain" if k < 0 else capped(k > 10), pattern_set, (1, 2), k)
        for k in range(1, 13):
            check(capped(k > 10), perm_cost_census, build_subset_dfa(k))
            check(capped(k > 10), cheap_perm_count, build_subset_dfa(k), 5)
        # the injective words of lengths 1..L that exact_P counts: at
        # (13, 7) their sum is over the cap, the last length alone is not
        for k in range(1, 17):
            for L in range(k + 1):
                tree = sum(math.perm(k, l) for l in range(1, L + 1))
                check(capped(tree > cap), _check_enumeration, build_subset_dfa(k), 0, L, cap)
        for k in range(0, 13):
            # the longest n whose words fit: k = 1 has one word at every n
            last = 10**7
            if k >= 2:
                last = next(n for n in range(40) if _set_partitions(n + 1, k) > cap)
            for n in {*range(-1, min(last, 30) + 3), 10**7 - 1, 10**7, 10**7 + 1}:
                want = capped(k > 10 or n > last)
                check("domain" if k < 1 or n < 0 else want, f_oracle, k, n)
        for k in range(-1, 13):
            for r in (0, 1, 2, 3, 4, 6, 10**7, 10**7 + 1):
                for n_max in (*range(0, 26), 10**7, 10**7 + 1, 10**8):
                    # r^n_max as the parent capped it, without building it;
                    # n_max itself is capped now too, which only r = 1 meets
                    words = r**n_max if n_max <= 25 or r < 2 else cap + 1
                    want = capped(k > 10 or words > cap or n_max > cap)
                    domain = k < 0 or r < 1 or n_max < 1
                    check("domain" if domain else want, minimal_superpattern_length, k, r, n_max)
                    if k or n_max <= 25:  # k = 0 is admitted: its rows list n_max rows
                        check("domain" if domain else want, exhaustive_f_search, k, r, n_max)
        assert cases > 900

    def test_max_k_m_is_max_words_m_factorial(self, decide):
        from superpatterns.dfa import build_subset_dfa, cheap_perm_count, perm_cost_census

        for m in range(0, 9):
            cap = math.factorial(m) if m else 0
            for k in range(0, 10):
                want = "refuse" if k > m else "admit"
                for query in (pattern_set, is_superpattern, circular_pattern_set):
                    assert decide(query, (1, 2), k, max_words=cap) == want, (query, m, k)
                if k:
                    dfa = build_subset_dfa(k)
                    assert decide(perm_cost_census, dfa, max_words=cap) == want
                    assert decide(cheap_perm_count, dfa, 3, max_words=cap) == want

    def test_refusals_share_one_message(self):
        from superpatterns.walks import exact_P

        from superpatterns.dfa import build_subset_dfa

        for call in (
            lambda: pattern_set((1, 2), 3, max_words=5),
            lambda: f_oracle(2, 30, max_words=100),
            lambda: exhaustive_f_search(2, 3, 9, max_words=100),
            lambda: exact_P(build_subset_dfa(6), 0, 6, 0.1, max_words=100),
        ):
            with pytest.raises(ResourceLimitError) as e:
                call()
            assert str(e.value).endswith(" exceeds the enumeration cap " + str(e.value).split()[-1])
