"""Words over [r], permutations, and pattern containment.

Conventions used throughout the package:

- Letters and positions are 1-based. A word over the alphabet [r] is a
  finite sequence of integers from {1, ..., r}; a permutation of [k] is
  given in one-line notation.
- A permutation tau is a *pattern* of a word sigma if some subsequence of
  sigma is order-isomorphic to tau. A word is a *k-superpattern* if it
  contains every permutation of [k] as a pattern.

Containment on a general alphabet reduces to value-subset search: tau is a
pattern of sigma iff, for some k-subset Y of the letter values, tau embeds
into the subsequence of sigma supported on Y with values relabeled
order-preservingly to [k]. On a word that uses every letter of [k], an
embedding exists iff the greedy leftmost-next-occurrence embedding
succeeds, so each subset costs one linear scan instead of a search over
index subsets.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional, Sequence

from .errors import AlphabetMismatchError, ResourceLimitError

__all__ = [
    "Word",
    "Permutation",
    "as_word",
    "as_permutation",
    "is_pattern",
    "find_embedding",
    "greedy_embed",
    "pattern_set",
    "is_superpattern",
    "f_oracle",
    "circular_contains",
    "circular_pattern_set",
    "ascent_count",
    "repeat_word",
    "exhaustive_f_search",
    "minimal_superpattern_length",
    "parse_word",
    "format_word",
    "parse_permutation",
    "format_permutation",
]

# The one enumeration cap: every capped operation takes it as the keyword
# argument max_words, so callers can raise it deliberately. It admits k!
# for k <= 10 (10! = 3628800 < 10^7 < 11!).
MAX_ENUM_WORDS = 10**7


def _check_count(
    what: str, cap: int, factor: int, terms: int = 1, step: int = 0, summed: bool = False
) -> None:
    """Raise ResourceLimitError if a count exceeds the enumeration cap.

    The count is the product factor * (factor + step) * ... of terms
    factors or, with summed=True, the sum of its running products. As
    (factor, terms, step, summed): k! is (1, k, 1), r^n is (r, n), a
    plain count m is (m,) and the injective words of lengths 1..L over
    [k] are (k, L, -1, True). The loop stops at the first running count
    over cap, so no huge count is built; with no terms nothing is
    counted, so k = 0 passes even cap 0.
    """
    product, total = 1, 0
    for _ in range(terms):
        product *= factor
        total = total + product if summed else product
        if total > cap:
            raise ResourceLimitError(f"{what} exceeds the enumeration cap {cap}")
        factor += step


@dataclass(frozen=True)
class Word:
    """A finite word over the alphabet [r] = {1, ..., r}.

    >>> Word((1, 2, 3, 2), 3)
    Word(letters=(1, 2, 3, 2), alphabet_size=3)
    >>> len(Word((1, 2, 3, 2), 3))
    4
    """

    letters: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self):
        r = self.alphabet_size
        if type(r) is not int:
            (r,) = _integral_letters((r,), "alphabet size")
            object.__setattr__(self, "alphabet_size", r)
        if r < 1:
            raise ValueError("alphabet_size must be a positive integer")
        object.__setattr__(self, "letters", _integral_letters(self.letters))
        for x in self.letters:
            if not (1 <= x <= self.alphabet_size):
                raise ValueError(
                    f"letter {x!r} outside alphabet [{self.alphabet_size}]"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)


@dataclass(frozen=True)
class Permutation:
    """A permutation of [k] in one-line notation.

    >>> Permutation((3, 1, 2)).k
    3
    """

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", _integral_letters(self.images, "image"))
        k = len(self.images)
        if sorted(self.images) != list(range(1, k + 1)):
            raise ValueError(f"{self.images!r} is not a permutation of [{k}]")

    @property
    def k(self) -> int:
        return len(self.images)

    def __len__(self) -> int:
        return len(self.images)

    def __iter__(self):
        return iter(self.images)


def as_word(sigma, alphabet_size: Optional[int] = None) -> Word:
    """Coerce a Word or a plain sequence of letters to a Word.

    When alphabet_size is omitted it is inferred as the maximum letter
    (1 for the empty word).
    """
    if isinstance(sigma, Word):
        if alphabet_size is not None and alphabet_size != sigma.alphabet_size:
            raise AlphabetMismatchError(
                f"word declares r={sigma.alphabet_size}, caller wants r={alphabet_size}"
            )
        return sigma
    letters = tuple(sigma)
    if alphabet_size is None:
        alphabet_size = int(max(letters, default=1))
    return Word(letters, alphabet_size)


def as_permutation(tau) -> Permutation:
    if isinstance(tau, Permutation):
        return tau
    return Permutation(tuple(tau))


def _integral_letters(xs, what: str = "letter") -> tuple[int, ...]:
    """The letters of xs as ints, refusing any that int() would truncate."""
    xs = tuple(xs)
    out = tuple(map(int, xs))
    if out != xs:
        x = next(x for x, i in zip(xs, out) if i != x)
        raise ValueError(f"{what} {x!r} is not an integer")
    return out


def _letters(sigma) -> tuple[int, ...]:
    """as_word(sigma).letters, without building a Word for a plain sequence.

    A sequence of ints, each at least 1, is a word over [its maximum] with
    exactly those letters, so one type() and one min() pass accept it.
    Anything else goes to as_word, which accepts or refuses it with its
    own exception and message.
    """
    if isinstance(sigma, Word):
        return sigma.letters
    xs = tuple(sigma)
    if {*map(type, xs)} <= {int} and (not xs or min(xs) >= 1):
        return xs
    return as_word(xs).letters


def _images(tau) -> tuple[int, ...]:
    """as_permutation(tau).images, without building a Permutation for a
    plain sequence of ints that is a permutation; as in _letters, anything
    else goes to as_permutation."""
    if isinstance(tau, Permutation):
        return tau.images
    ts = tuple(tau)
    if {*map(type, ts)} <= {int} and sorted(ts) == list(range(1, len(ts) + 1)):
        return ts
    return as_permutation(ts).images


def _occurrence_lists(letters: Sequence[int]) -> list:
    """The 1-based occurrence lists of the word's distinct values, by
    ascending value: list j holds the positions of the (j+1)-th smallest."""
    occ: dict[int, list[int]] = {x: [] for x in sorted(set(letters))}
    for i, x in enumerate(letters, start=1):
        occ[x].append(i)
    return list(occ.values())


def _contains_any(lists: list, taus) -> bool:
    """Whether some tau in taus embeds: whether, for some k-subset Y of the
    occurrence lists, the greedy leftmost-next-occurrence scan reading
    Y[tau_1 - 1], Y[tau_2 - 1], ... finds a position in each."""
    for images in taus:
        ranks = [t - 1 for t in images]
        for Y in combinations(lists, len(ranks)):
            i = 0
            for t in ranks:
                ps = Y[t]
                at = bisect_right(ps, i)
                if at == len(ps):
                    break
                i = ps[at]
            else:
                return True
    return False


def _least_embedding(lists: list, images: Sequence[int]) -> Optional[tuple[int, ...]]:
    """The lexicographically least embedding of tau, or None: the least of
    the greedy embeddings that _contains_any's scan finds. A subset whose
    first position, the first occurrence of its value for tau_1, comes
    after the best one's is skipped unscanned."""
    ranks = [t - 1 for t in images]
    head = ranks[0] if ranks else 0
    best = None
    pos = [0] * len(ranks)
    for Y in combinations(lists, len(ranks)):
        if best is not None and Y[head][0] > best[0]:
            continue
        i = d = 0
        for t in ranks:
            ps = Y[t]
            at = bisect_right(ps, i)
            if at == len(ps):
                break
            i = pos[d] = ps[at]
            d += 1
        else:
            emb = tuple(pos)
            if best is None or emb < best:
                best = emb
    return best


def is_pattern(sigma, tau) -> bool:
    """Whether tau occurs in sigma as a (classical, order-isomorphic) pattern.

    sigma and tau may be a Word and a Permutation or plain sequences; a
    plain sequence of ints is checked without building either, and any
    other is accepted or refused exactly as as_word or as_permutation
    would, tau first.

    >>> is_pattern((2, 5, 1, 4, 3), (3, 1, 2))
    True
    >>> is_pattern((1, 2, 3, 2), (2, 1, 3))
    False
    """
    images = _images(tau)
    return _contains_any(_occurrence_lists(_letters(sigma)), [images])


def find_embedding(sigma, tau) -> Optional[tuple[int, ...]]:
    """The lexicographically least embedding of tau into sigma, or None.

    An embedding is a strictly increasing tuple of 1-based positions
    i_1 < ... < i_k with sigma restricted to them order-isomorphic to tau.
    sigma and tau are read as in is_pattern.

    >>> find_embedding((2, 5, 1, 4, 3), (3, 1, 2))
    (2, 3, 4)
    """
    images = _images(tau)
    return _least_embedding(_occurrence_lists(_letters(sigma)), images)


def greedy_embed(sigma, tau) -> Optional[tuple[int, ...]]:
    """Greedy leftmost-next-occurrence embedding of tau into sigma.

    sigma must be declared over the alphabet [k] where k = len(tau); on
    such words the greedy embedding succeeds iff any embedding exists.
    Positions are 1-based.

    >>> greedy_embed(as_word((1, 2, 3, 2), 3), (1, 2, 3))
    (1, 2, 3)
    >>> greedy_embed(as_word((1, 2, 3, 2), 3), (2, 1, 3)) is None
    True
    """
    sigma = as_word(sigma)
    tau = as_permutation(tau)
    if sigma.alphabet_size != tau.k:
        raise AlphabetMismatchError(
            f"greedy embedding needs a word over [k]: "
            f"r={sigma.alphabet_size} but k={tau.k}"
        )
    # the one k-subset of a word that uses every letter of [k], else none
    return _least_embedding(_occurrence_lists(sigma.letters), tau.images)


def _patterns_of_relabeled(lists: Sequence[list], found: set) -> None:
    """Add to found every tau in S_k that embeds when rank j's occurrences
    are lists[j - 1], k = len(lists).

    Depth-first search over the unread ranks, advancing a position cursor
    with the greedy rule; abandoning a prefix as soon as its next rank has
    no later occurrence prunes the k! tree to viable branches only. With
    two ranks left both orders are checked in place: the last rank follows
    the other one's next occurrence iff its own last occurrence comes later.
    """
    k = len(lists)
    if k < 2:
        found.add(tuple(range(1, k + 1)))
        return

    def rec(i, rest, path):
        if len(rest) == 2:
            (a, pa), (b, pb) = rest
            at = bisect_right(pa, i)
            if at < len(pa) and pa[at] < pb[-1]:
                found.add(path + (a, b))
            at = bisect_right(pb, i)
            if at < len(pb) and pb[at] < pa[-1]:
                found.add(path + (b, a))
            return
        for x, (a, ps) in enumerate(rest):
            at = bisect_right(ps, i)
            if at < len(ps):
                rec(ps[at], rest[:x] + rest[x + 1 :], path + (a,))

    rec(0, tuple(enumerate(lists, start=1)), ())


def pattern_set(sigma, k: int, *, max_words: int = MAX_ENUM_WORDS) -> set:
    """Exactly the permutations of [k] contained in sigma, as Permutations.

    sigma is read as in is_pattern, after k and its cap are checked.

    >>> sorted(p.images for p in pattern_set((1, 2, 3, 2), 3))
    [(1, 2, 3), (1, 3, 2)]
    """
    return {Permutation(t) for t in _pattern_tuples(sigma, k, max_words)}


def _pattern_tuples(sigma, k: int, max_words: int) -> set:
    """pattern_set's answer as one-line tuples, with its domain and cap."""
    if k < 0:
        raise ValueError("k must be non-negative")
    _check_count(f"pattern_set: {k}!", max_words, 1, k, 1)
    out: set[tuple[int, ...]] = set()
    for Y in combinations(_occurrence_lists(_letters(sigma)), k):
        _patterns_of_relabeled(Y, out)
    return out


def is_superpattern(sigma, k: int, *, max_words: int = MAX_ENUM_WORDS) -> bool:
    """Whether sigma contains every permutation of [k] as a pattern."""
    if k == 0:
        return True
    return len(_pattern_tuples(sigma, k, max_words)) == math.factorial(k)


def _canonical_words(n: int, max_letters: int):
    """Words of length n, first occurrences in increasing letter order.

    Each letter-relabeling class has exactly one canonical member, and it
    is the lexicographically least member, so canonical words enumerate
    classes in lexicographic order. A successor raises the last letter
    that can grow and resets the letters after it to 1.
    """
    word = [1] * n
    seen = [0] + [1] * (n - 1)  # seen[i]: largest letter of word[:i]
    while True:
        yield tuple(word)
        i = n - 1
        while i > 0 and (word[i] > seen[i] or word[i] == max_letters):
            i -= 1
        if i <= 0:
            return
        word[i] += 1
        word[i + 1 :] = [1] * (n - 1 - i)
        seen[i + 1 :] = [max(seen[i], word[i])] * (n - 1 - i)


def _canonical_word_count(n: int, k: int, cap: int) -> int:
    """How many words _canonical_words(n, k) yields, the sum over j <= k of
    the Stirling numbers S(n, j), or the first partial sum over cap: the
    sum never falls as n grows, and a row equal to the last (k = 1) stays."""
    row = [1] + [0] * k  # S(0, j)
    for _ in range(n):
        nxt = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
        if nxt == row or sum(nxt) > cap:
            return sum(nxt)
        row = nxt
    return sum(row)


def f_oracle(k: int, n: int, *, max_words: int = MAX_ENUM_WORDS) -> tuple[int, Word]:
    """Exact maximum pattern count over all words in [k]^n, with a witness.

    Exhausts canonical representatives under letter relabeling (pattern
    counts are relabeling-invariant): about k^n / k! words of n letters.
    max_words caps k!, n and the number of words. The witness is the
    lexicographically least maximizing word. No word holds more than k!
    patterns, so the search stops at the first word that holds all k!:
    a later word could only tie it.

    >>> f_oracle(3, 4)[0]
    2
    """
    if k < 1 or n < 0:
        raise ValueError("need k >= 1 and n >= 0")
    _check_count(f"f_oracle: {k}!", max_words, 1, k, 1)
    _check_count(f"f_oracle: n={n}", max_words, n)
    words = _canonical_word_count(n, k, max_words)
    _check_count(f"f_oracle: the canonical word count of [{k}]^{n}", max_words, words)
    everything = math.factorial(k)
    best = -1
    witness = ()
    for w in _canonical_words(n, k):
        # Canonical words use exactly the letters 1..max(w); anything
        # short of the full alphabet contains no length-k pattern, and a
        # word over all of [k] has one k-subset of occurrence lists.
        found: set[tuple[int, ...]] = set()
        if w and max(w) == k:
            _patterns_of_relabeled(_occurrence_lists(w), found)
        if len(found) > best:
            best = len(found)
            witness = w
            if best == everything:
                break
    return best, Word(witness, k)


def _dihedral_orbit(images: tuple, bidirectional: bool) -> set:
    """The rotations of a one-line notation and, if bidirectional, of its
    reversal. tau is a pattern of a rotation of sigma iff a rotation of tau
    is a pattern of sigma: a wrapping occurrence is two blocks that sigma
    holds in the other order. Reversal commutes with rotation and with
    taking patterns."""
    bases = (images, images[::-1]) if bidirectional else (images,)
    return {b[i:] + b[:i] for b in bases for i in range(max(len(b), 1))}


def circular_contains(sigma, tau, bidirectional: bool = False) -> bool:
    """Whether tau is a pattern of some rotation of sigma (or, with
    bidirectional=True, of its reversal): whether a member of tau's
    _dihedral_orbit is a pattern of sigma. Stops at the first hit;
    circular_pattern_set answers every tau of one length. sigma and tau
    are read as in is_pattern.

    >>> circular_contains((1, 2, 3), (3, 2, 1), False)
    False
    >>> circular_contains((1, 2, 3), (3, 2, 1), True)
    True
    """
    orbit = _dihedral_orbit(_images(tau), bidirectional)
    return _contains_any(_occurrence_lists(_letters(sigma)), orbit)


def circular_pattern_set(
    sigma, k: int, bidirectional: bool = False, *, max_words: int = MAX_ENUM_WORDS
) -> set:
    """The permutations of [k] circular_contains finds in sigma:
    pattern_set, with its domain and cap, closed under _dihedral_orbit.

    >>> sorted(p.images for p in circular_pattern_set((1, 2, 3), 3))
    [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
    >>> len(circular_pattern_set((1, 2, 3), 3, True))
    6
    """
    found = _pattern_tuples(sigma, k, max_words)
    return {Permutation(t) for images in found for t in _dihedral_orbit(images, bidirectional)}


def ascent_count(tau) -> int:
    """Number of positions j with tau(j) < tau(j+1).

    Reversal complements it: a permutation of [k] with a ascents reverses
    to one with k-1-a ascents.

    >>> ascent_count((1, 3, 2))
    1
    """
    tau = as_permutation(tau)
    im = tau.images
    return sum(1 for j in range(len(im) - 1) if im[j] < im[j + 1])


def repeat_word(k: int, m: int) -> Word:
    """m concatenated copies of 1, 2, ..., k.

    Contains every permutation of [k] with at least k-m ascents; with
    m = k it is a k-superpattern of length k^2.

    >>> repeat_word(3, 2).letters
    (1, 2, 3, 1, 2, 3)
    """
    if k < 1 or m < 1:
        raise ValueError("need k >= 1 and m >= 1")
    return Word(tuple(range(1, k + 1)) * m, k)


def minimal_superpattern_length(
    k: int, r: int, n_max: int, *, max_words: int = MAX_ENUM_WORDS
) -> Optional[int]:
    """Length of the shortest k-superpattern in [r]^n, n <= n_max, or None.

    The search is _shortest_superpattern over the alphabet
    [min(r, n_max)]: a word of length n uses at most n letters, and
    relabeling them order-preservingly keeps every pattern. max_words
    caps k!, n_max and r^n_max.

    >>> minimal_superpattern_length(2, 2, 4)
    3
    >>> minimal_superpattern_length(3, 4, 6)
    6
    >>> minimal_superpattern_length(3, 3, 4) is None
    True
    """
    if k < 0 or r < 1 or n_max < 1:
        raise ValueError("need k >= 0, r >= 1, n_max >= 1")
    _check_count(f"minimal_superpattern_length: {k}!", max_words, 1, k, 1)
    _check_count(f"minimal_superpattern_length: n_max={n_max}", max_words, n_max)
    # 1^n_max = 1^1: no loop over n_max factors of 1
    _check_count(
        f"minimal_superpattern_length: {r}^{n_max}", max_words, r, n_max if r > 1 else 1
    )
    return 1 if k == 0 else _shortest_superpattern(k, min(r, n_max), n_max)


def exhaustive_f_search(
    k: int, r: int, n_max: int, *, max_words: int = MAX_ENUM_WORDS
) -> list[tuple[int, bool]]:
    """For each n <= n_max, whether some word in [r]^n is a k-superpattern:
    minimal_superpattern_length as rows. Superpattern-ness survives
    appending letters, so the rows from the least True one on are all True.

    >>> exhaustive_f_search(2, 2, 4)
    [(1, False), (2, False), (3, True), (4, True)]
    """
    shortest = minimal_superpattern_length(k, r, n_max, max_words=max_words)
    return [(n, shortest is not None and n >= shortest) for n in range(1, n_max + 1)]


def _shortest_superpattern(k: int, r: int, n_max: int) -> Optional[int]:
    """Length of the shortest k-superpattern in [r]^n, n <= n_max, or None.

    Layered search over subsequence-set states. A word's state is the set
    of injective letter sequences of length <= k over [r] it contains as
    subsequences (the empty one included); appending x adds p + x for
    every present p that lacks x, and the word is a k-superpattern when
    its length-k sequences meet every standardization class. The state
    decides every extension, so layer n keeps only distinct states, and
    the search stops at the first one that is a superpattern.

    A sequence p_1..p_l is bit offset[l] + sum (p_i - 1) r^(i-1): block l
    spans every word of length l (the non-injective ones stay 0), so
    appending x moves a length-l sequence's bit up by x * r^l, and one
    mask and one shift per length extend a whole state.

    Three prunings keep some shortest superpattern: one without a letter
    that leaves the state unchanged (dropping that letter leaves a
    shorter one), whose letters are exactly 1..m (relabel them
    order-preservingly) and whose first letter is at most (m + 1) / 2
    (take the complement t -> m + 1 - t). So an append that changes
    nothing is skipped, the first letter is at most (r + 1) / 2, and a
    prefix is dropped when the letters it still lacks below its largest
    one, or below k, outnumber the letters left to n_max.
    """
    target = math.factorial(k)
    if r < k or math.comb(n_max, k) < target:
        return None
    offset = [0]
    for length in range(k + 1):
        offset.append(offset[-1] + r**length)

    def bit(seq):
        return 1 << (offset[len(seq)] + sum((x - 1) * r**i for i, x in enumerate(seq)))

    sequences = [list(permutations(range(1, r + 1), length)) for length in range(k + 1)]
    moves = [
        [
            (sum(bit(p) for p in sequences[length] if x not in p), x * r**length)
            for length in range(k)
        ]
        for x in range(1, r + 1)
    ]
    classes: dict = {}
    for p in sequences[k]:
        std = tuple(sorted(p).index(x) for x in p)
        classes[std] = classes.get(std, 0) | bit(p)
    letter_bits = (1 << r) - 1
    layer = [bit(())]
    for n in range(1, n_max + 1):
        check = math.comb(n, k) >= target
        seen: set[int] = set()
        for state in layer:
            for shifts in moves if n > 1 else moves[: (r + 1) // 2]:
                out = state
                for mask, shift in shifts:
                    out |= (state & mask) << shift
                if out == state or out in seen:
                    continue
                used = (out >> 1) & letter_bits
                if max(k, used.bit_length()) - used.bit_count() > n_max - n:
                    continue
                if check and all(out & c for c in classes.values()):
                    return n
                if n < n_max:
                    seen.add(out)
        layer = seen
    return None


# ---------------------------------------------------------------------------
# Text format: whitespace-separated 1-based integers on one line, with an
# optional leading "r=<int>" header; without the header the alphabet size
# is inferred as the maximum letter.

def parse_word(text: str) -> Word:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    alphabet_size = None
    if lines and lines[0].replace(" ", "").startswith("r="):
        alphabet_size = int(lines[0].split("=", 1)[1])
        lines = lines[1:]
    letters = tuple(int(tok) for ln in lines for tok in ln.split())
    return as_word(letters, alphabet_size)


def format_word(word: Word, *, header: bool = True) -> str:
    body = " ".join(str(x) for x in word.letters)
    if header:
        return f"r={word.alphabet_size}\n{body}\n"
    return body + "\n"


def parse_permutation(text: str) -> Permutation:
    return as_permutation(int(tok) for tok in text.split())


def format_permutation(tau: Permutation) -> str:
    return " ".join(str(x) for x in tau.images) + "\n"
