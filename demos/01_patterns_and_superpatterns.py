"""Pattern containment, superpatterns, and the exhaustive oracles.

Run with: python demos/01_patterns_and_superpatterns.py
"""

from superpatterns import (
    ascent_count,
    circular_contains,
    exhaustive_f_search,
    f_oracle,
    find_embedding,
    is_pattern,
    is_superpattern,
    minimal_superpattern_length,
    pattern_set,
    repeat_word,
)

# A word contains a permutation as a pattern when some subsequence has the
# same relative order. 312 sits inside 2 5 1 4 3 at positions 2, 3, 4
# (values 5, 1, 4).
word = (2, 5, 1, 4, 3)
print("312 in 25143?", is_pattern(word, (3, 1, 2)))
print("least witness:", find_embedding(word, (3, 1, 2)))

# The census of length-3 patterns of 1 2 3 2: only the two with an ascent
# at the front fit.
pats = sorted(p.images for p in pattern_set((1, 2, 3, 2), 3))
print("patterns of 1232:", pats)

# Repeating 1..k k times yields a k-superpattern of length k^2 on the
# smallest possible alphabet.
for k in (3, 4, 5):
    w = repeat_word(k, k)
    print(f"1..{k} x{k} (length {len(w)}) is a {k}-superpattern:",
          is_superpattern(w, k))

# Fewer copies trade coverage for length: m copies capture exactly the
# permutations with at least k-m ascents, so ceil(k/2) copies still cover
# half of all patterns.
w = repeat_word(3, 2)
got = sorted(p.images for p in pattern_set(w, 3))
print("patterns of 123123:", got, "(only 321, with 0 ascents, is missing)")
print("ascents of 321:", ascent_count((3, 2, 1)))

# f_oracle(k, n) is the exact maximum number of length-k patterns any word
# in [k]^n can hold, found by exhausting canonical words.
for n in (3, 4, 5, 9):
    best, witness = f_oracle(3, n)
    print(f"max 3-patterns at length {n}: {best} (witness {witness.letters})")

# The shortest 2-superpattern over two letters has length 3 (1 2 1 works);
# no 3-superpattern over three letters exists at length <= 4 (None), and
# on [k + 1] the shortest k-superpattern has Miller's length (k^2 + k) / 2.
print("minimal length k=2, r=2:", minimal_superpattern_length(2, 2, 4))
print("superpattern table k=2, r=2:", exhaustive_f_search(2, 2, 4))
print("minimal length k=3, r=3, n <= 4:", minimal_superpattern_length(3, 3, 4))
print("minimal length k=3, r=4:", minimal_superpattern_length(3, 4, 6))

# Circular reading and reversal enlarge what counts as containment: 321
# misses every rotation of 123 until the reversal is allowed.
print("321 circular in 123:", circular_contains((1, 2, 3), (3, 2, 1), False))
print("321 bi-directional circular in 123:",
      circular_contains((1, 2, 3), (3, 2, 1), True))
