"""Closed-form bounds, the constants of the walk argument, and counting
certificates for superpattern infeasibility.

Run with: python demos/04_bounds_and_certificates.py
"""

import math

from superpatterns import (
    birthday_bound,
    birthday_ratio,
    build_subset_dfa,
    exact_P_max,
    f_oracle,
    forL_bound,
    gupta_check,
    hoeffding_x_bound,
    infeasibility,
    loworder_predicate,
    theorem_constants,
)

# The per-length walk bound (k^L (k-L)!/k!) exp(-eps^2 L/4) dominates the
# exact probability on any k-DFA; here at k = 6 on the subset automaton.
k = 6
for L in (2, 4, 6):
    for eps in (0.1, 0.25):
        p = exact_P_max(build_subset_dfa(k), L, eps)
        b = forL_bound(k, L, eps)
        logp = "-inf" if p == 0 else f"{math.log(p):8.4f}"
        print(f"L={L} eps={eps:4}: log exact P = {logp}   log bound = {b:8.4f}")

# The injective-vs-iid correction is the birthday ratio; for short
# prefixes (L = alpha k, alpha small) it stays under exp((a^2/2+a^3/4)k).
print("\nbirthday ratio log at (100, 10):", f"{birthday_ratio(100, 10):.4f}",
      " bound:", f"{birthday_bound(100, 0.1):.4f}")

# Constants of the walk argument for a target margin eps* = 0.3.
c = theorem_constants(0.3)
print(f"\neps* = 0.3 -> eps = {c.epsilon:.4f}, alpha = {c.alpha:.6f}, "
      f"c0 = {c.c0:.3e}")
print("rank-sum tail rate at k=100, eps=0.1:",
      f"exp({hoeffding_x_bound(100, 0.1):.3f})")

# Counting certificate: a word on [r] holds at most C(r,k) * F(k,n)
# patterns, so C(r,k) F(k,n) < k! rules out any k-superpattern of length
# n. With F(3,4) = 2 from the oracle, no 3-superpattern on [3] has length
# 4 - the minimum is strictly larger.
F34 = f_oracle(3, 4)[0]
print("\nF(3,4) =", F34)
print("C(3,3) * F(3,4) < 3! certifies min length > 4:",
      infeasibility(3, 3, 4, math.log(F34)))

# The same counting idea against circular-both-directions containment:
# k! <= 2n F(k,n) is necessary, and fails for large k at n ~ 3k^2/8,
# which is how the old 3/8 k^2 target dies. At toy scale the inequality
# still holds, so no refutation happens here.
print("counting test at (k=3, n=9, F=6):", gupta_check(3, 9, math.log(6)))
print("counting test at (k=3, n=4, F=2):", gupta_check(3, 4, math.log(2)))

# Explicit lower-order hypothesis eps^4 > (33 + 132 ln k)/k: needs huge k
# before any fixed eps qualifies.
for kk in (10, 10**4, 10**6):
    print(f"lower-order hypothesis at k={kk:>8}, eps=0.5:",
          loworder_predicate(kk, 0.5))
