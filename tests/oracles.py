"""Independent brute-force oracles the test suite checks the library against.

The pattern oracles go through index subsets and literal order-isomorphism,
deliberately avoiding the value-subset/greedy reduction and the automaton
machinery used by the library itself; subset_greedy_embeddings is that
reduction as the library first wrote it, the reference definition of the
occurrence-list loops that replaced it. The stream oracles re-derive the
Monte-Carlo words from the stream's definition, without CounterRng. The
walk oracle enumerates every injective word and walks it letter by letter,
without the subset DP; the Mahonian oracle convolves the subset
automaton's rank distributions term by term, without packed integers; the
X-rank and T-count oracles read ranks and counts off cost rows; and the
subset-root window oracles give the exact probabilities of the
concentration events, without sampling.
"""

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from hashlib import blake2b
from itertools import combinations, permutations
from math import factorial, floor

from superpatterns.dfa import walk_cost


def order_isomorphic(values, tau):
    """Whether the value sequence matches tau's relative order exactly."""
    k = len(tau)
    if len(values) != k:
        return False
    for a in range(k):
        for b in range(k):
            if (values[a] < values[b]) != (tau[a] < tau[b]):
                return False
    return True


def brute_is_pattern(letters, tau):
    """Pattern containment by checking every index subset."""
    letters = tuple(letters)
    tau = tuple(tau)
    k = len(tau)
    if k == 0:
        return True
    return any(
        order_isomorphic([letters[i] for i in idx], tau)
        for idx in combinations(range(len(letters)), k)
    )


def brute_pattern_set(letters, k):
    """All length-k patterns of a word, by exhausting S_k x index subsets."""
    return {
        tau for tau in permutations(range(1, k + 1)) if brute_is_pattern(letters, tau)
    }


def brute_embeddings(letters, tau):
    """Every embedding of tau into the word, as sorted 1-based index tuples."""
    letters = tuple(letters)
    k = len(tau)
    return sorted(
        tuple(i + 1 for i in idx)
        for idx in combinations(range(len(letters)), k)
        if order_isomorphic([letters[i] for i in idx], tau)
    )


def _positions_by_letter(letters):
    """1-based occurrence lists per letter value, in increasing order."""
    occ = {}
    for i, x in enumerate(letters, start=1):
        occ.setdefault(x, []).append(i)
    return occ


def _greedy_on_values(occ, values):
    """Leftmost embedding reading the given letter values in order, or None
    if some value has no occurrence after the previous index."""
    indices = []
    i = 0
    for v in values:
        ps = occ.get(v, ())
        at = bisect_right(ps, i)
        if at == len(ps):
            return None
        i = ps[at]
        indices.append(i)
    return tuple(indices)


def subset_greedy_embeddings(letters, taus):
    """For each tau in taus, then each k-subset Y of the word's letter
    values in lexicographic order: the greedy embedding of tau relabeled
    onto Y, when there is one. tau is a pattern iff this yields anything,
    and its least member is the lexicographically least embedding."""
    occ = _positions_by_letter(letters)
    values = sorted(occ)
    for images in taus:
        for Y in combinations(values, len(images)):
            emb = _greedy_on_values(occ, [Y[t - 1] for t in images])
            if emb is not None:
                yield emb


def brute_is_superpattern(letters, k):
    return len(brute_pattern_set(letters, k)) == factorial(k)


def all_words(alphabet_size, length):
    """Every word in [r]^n as a tuple, lexicographic order."""
    from itertools import product

    return product(range(1, alphabet_size + 1), repeat=length)


def stream_words(seed, stream):
    """The 64-bit words of the Monte-Carlo stream (seed, stream), in draw
    order. Block c is BLAKE2b-512 of seed (16 bytes, signed little-endian),
    stream (16 bytes, little-endian) and c (8 bytes, little-endian); its
    eight little-endian words are drawn last to first."""
    key = seed.to_bytes(16, "little", signed=True) + stream.to_bytes(16, "little")
    counter = 0
    while True:
        block = blake2b(key + counter.to_bytes(8, "little"), digest_size=64).digest()
        for offset in (56, 48, 40, 32, 24, 16, 8, 0):
            yield int.from_bytes(block[offset : offset + 8], "little")
        counter += 1


def stream_below(words, n):
    """A uniform draw in [0, n): the next word below floor(2^64 / n) * n,
    reduced mod n."""
    limit = (2**64 // n) * n
    for w in words:
        if w < limit:
            return w % n


def stream_injective_word(seed, stream, k, L):
    """The length-L injective word over [k] that stream (seed, stream)
    draws: partial Fisher-Yates on 1..k, slot i swapping with slot
    i + draw(k - i) for i = 0..L-1."""
    words = stream_words(seed, stream)
    pool = list(range(1, k + 1))
    for i in range(L):
        j = i + stream_below(words, k - i)
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(pool[:L])


def brute_injective_costs(dfa, start, L):
    """Counter {total cost: count} over every injective length-L word over
    [k], each walked from start by the scalar walk_cost."""
    return Counter(
        walk_cost(dfa, start, w).total_cost
        for w in permutations(range(1, dfa.alphabet_size + 1), L)
    )


def literal_x_ranks(dfa, word):
    """X_j of each step of word walked from the root, read off cost_row:
    X_j = #{unread u : cost(v, u) <= cost(v, t_j)} at the state v that
    reads t_j, where the unread letters include t_j itself."""
    v, unread, ranks = dfa.root, set(range(1, dfa.alphabet_size + 1)), []
    for t in word:
        row = dfa.cost_row(v)
        ranks.append(sum(1 for u in unread if row[u - 1] <= row[t - 1]))
        unread.discard(t)
        v = dfa.step(v, t)
    return tuple(ranks)


def literal_t_counts(dfa, prefix, x):
    """{state: number of prefix letters t with cost(state, t) <= x}, read
    off cost_row state by state."""
    rows = ((v, dfa.cost_row(v)) for v in dfa.states)
    return {v: sum(1 for t in prefix if row[t - 1] <= x) for v, row in rows}


def shifted_mahonian(pool_sizes):
    """Coefficients of prod_m (q + q^2 + ... + q^m) over the pool sizes, as
    {exponent: coefficient} (OEIS A008302, shifted), by naive convolution:
    the cost distribution of the subset automaton from the root, one
    factor per letter read."""
    poly = {0: 1}
    for m in pool_sizes:
        nxt = Counter()
        for e, c in poly.items():
            for r in range(1, m + 1):
                nxt[e + r] += c
        poly = nxt
    return dict(poly)


def _windows(k, M):
    """{m1: the steps j with m1 k / M < j <= (m1 + 1) k / M}, m1 in [M - 1]."""
    return {
        m1: [j for j in range(1, k + 1) if Fraction(m1 * k, M) < j <= Fraction((m1 + 1) * k, M)]
        for m1 in range(1, M)
    }


def subset_root_con1(k, M, epsilon_star):
    """{(m1, m2): exact probability of the con1 event} from the root of the
    subset automaton of [k]. There X_j is the rank of t_j among the k - j + 1
    unread letters, independent over j and uniform on 1..k - j + 1, so step
    j exceeds m2 / M with probability p_j = #{x : x / (k - j + 1) > m2 / M}
    / (k - j + 1), and the exceedance count over a window is
    Poisson-binomial. The event is that count falling below
    (1 - epsilon_star)(1 - m2 / M) k / M."""
    eps = Fraction(epsilon_star)
    out = {}
    for m1, js in _windows(k, M).items():
        for m2 in range(1, M):
            dist = [Fraction(1)]  # dist[c]: P(c exceedances so far)
            for j in js:
                n = k - j + 1
                p = Fraction(sum(1 for x in range(1, n + 1) if Fraction(x, n) > Fraction(m2, M)), n)
                nxt = [Fraction(0)] * (len(dist) + 1)
                for c, q in enumerate(dist):
                    nxt[c] += q * (1 - p)
                    nxt[c + 1] += q * p
                dist = nxt
            threshold = (1 - eps) * (1 - Fraction(m2, M)) * k / M
            out[(m1, m2)] = sum(q for c, q in enumerate(dist) if c < threshold)
    return out


def subset_root_con2(k, M, epsilon_star):
    """{(m1, m2): 1 if the con2 event always holds, else 0} for the subset
    automaton of [k], where it does not depend on the sample. A cost row is
    a permutation of 1..k, so at most k - floor(x) of the j - 1 prefix
    letters cost more than x = m2 k / M at any state, and at the state whose
    set is the prefix they take exactly the top j - 1 values: the minimum
    over states of the prefix letters costing at most x is
    max(0, j - 1 - (k - floor(x)))."""
    eps = Fraction(epsilon_star)
    out = {}
    for m1, js in _windows(k, M).items():
        for m2 in range(1, M):
            above = k - floor(Fraction(m2 * k, M))  # cost values above x
            out[(m1, m2)] = int(any(
                max(0, j - 1 - above) < (1 - eps) * Fraction(m2, M) * (j - 1) for j in js
            ))
    return out
