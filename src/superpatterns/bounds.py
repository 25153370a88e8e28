"""Closed-form bounds, constants, and feasibility predicates, evaluated in
log space.

Every bound is returned as its natural log, a plain float, with -inf
standing for zero; the predicates take F as its natural log too.
Factorials and binomials go through log-gamma so everything stays finite
for k up to millions; exact integer arithmetic lives only in the oracles
that these bounds get checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "log_factorial",
    "log_binomial",
    "forL_bound",
    "birthday_ratio",
    "birthday_bound",
    "TheoremConstants",
    "theorem_constants",
    "hoeffding_x_bound",
    "infeasibility",
    "gupta_check",
    "loworder_predicate",
    "con_constants",
]


# Guard band for the feasibility predicates: log-gamma and log agree only
# to rounding at exact ties (lgamma(4) vs log(6) differ by one ulp), and a
# certificate must never rest on that noise. Ties therefore resolve
# against certifying.
_LOG_TOL = 1e-9


def _log_of(x: float) -> float:
    """x, a natural log, as a float: NaN and +inf carry no finite quantity
    and are refused; -inf is the log of zero."""
    log = float(x)
    if math.isnan(log) or log == math.inf:
        raise ValueError(f"a log value must be a number below +inf, got {log!r}")
    return log


def _check_epsilon(epsilon: float) -> None:
    # NaN and infinities fail the comparison too
    if not (0 < epsilon <= 0.5):
        raise ValueError(f"need 0 < epsilon <= 1/2, got {epsilon!r}")


def log_factorial(n: int) -> float:
    if n < 0:
        raise ValueError("factorial of a negative number")
    return math.lgamma(n + 1)


def log_binomial(n: int, k: int) -> float:
    if k < 0 or k > n:
        return -math.inf
    return log_factorial(n) - log_factorial(k) - log_factorial(n - k)


def forL_bound(k: int, L: int, epsilon: float) -> float:
    """Log of the length-L walk bound (k^L (k-L)!/k!) * exp(-eps^2 L / 4).

    Bounds the probability that a uniform random injective word of length
    L walks below threshold from any state of a k-DFA: the first factor,
    birthday_ratio, un-conditions from injective to i.i.d. letters, the
    second is the Chernoff tail of an i.i.d. uniform cost sum.
    """
    _check_epsilon(epsilon)
    return birthday_ratio(k, L) - epsilon * epsilon * L / 4.0


def birthday_ratio(k: int, L: int) -> float:
    """Exact log of k^L (k-L)!/k!, the reciprocal of the probability that
    L i.i.d. uniform letters of [k] are all distinct."""
    if not (0 <= L <= k):
        raise ValueError(f"need 0 <= L <= k, got L={L}, k={k}")
    if L == 0:
        return 0.0
    return L * math.log(k) + log_factorial(k - L) - log_factorial(k)


def birthday_bound(k: int, alpha: float) -> float:
    """The log of the closed-form bound exp((alpha^2/2 + alpha^3/4) k) for
    the birthday ratio at L = alpha*k, valid for small alpha; callers
    compare it against birthday_ratio themselves."""
    if not (0 < alpha < 1):
        raise ValueError("need 0 < alpha < 1")
    if k < 1:
        raise ValueError("need k >= 1")
    return (alpha * alpha / 2 + alpha**3 / 4) * k


@dataclass(frozen=True)
class TheoremConstants:
    """Constants wired into the walk-cost lower-bound argument for a
    target margin epsilon_star."""

    epsilon: float
    alpha: float
    c0: float


def theorem_constants(epsilon_star: float) -> TheoremConstants:
    """epsilon = 2 eps*/3 (so (1/2-eps)(1-eps) > 1/2-eps*), the substring
    ratio alpha = sqrt(eps^2/2 + 1) - 1, and the decay rate
    c0 = eps^2 * alpha / 8."""
    if not (0 < epsilon_star < 0.5):
        raise ValueError("need 0 < epsilon_star < 1/2")
    epsilon = 2.0 * epsilon_star / 3.0
    alpha = math.sqrt(epsilon * epsilon / 2.0 + 1.0) - 1.0
    c0 = epsilon * epsilon * alpha / 8.0
    return TheoremConstants(epsilon=epsilon, alpha=alpha, c0=c0)


def hoeffding_x_bound(k: int, epsilon: float) -> float:
    """The log of the stated tail bound exp(-32 eps^2 k / 3) for the rank
    sum falling below (1/4 - eps) k^2. (The constant 32/3 is reproduced
    verbatim.)"""
    _check_epsilon(epsilon)
    if k < 1:
        raise ValueError("need k >= 1")
    return -32.0 * epsilon * epsilon * k / 3.0


def infeasibility(k: int, r: int, n: int, log_F: float) -> bool:
    """Whether C(r,k) * F(k,n) < k!, certifying that no word in [r]^n is a
    k-superpattern (so the minimum superpattern length exceeds n).

    log_F must be (the natural log of) an upper bound on the maximum
    number of length-k patterns of any word in [k]^n.
    """
    if k < 0 or r < 1 or n < 0:
        raise ValueError("need k >= 0, r >= 1, n >= 0")
    return log_binomial(r, k) + _log_of(log_F) < log_factorial(k) - _LOG_TOL


def gupta_check(k: int, n: int, log_F: float) -> bool:
    """The counting test k! <= 2n * F(k,n), necessary for a length-n word
    on [k] to contain every permutation of [k] as a bi-directional
    circular pattern."""
    if k < 0 or n < 1:
        raise ValueError("need k >= 0, n >= 1")
    return log_factorial(k) <= math.log(2 * n) + _log_of(log_F) + _LOG_TOL


def loworder_predicate(k: int, epsilon: float) -> bool:
    """The hypothesis eps^4 > (33 + 132 log k)/k of the explicit
    lower-order-term bound, with the natural log: the base is a declared
    choice, not something the source pins down."""
    _check_epsilon(epsilon)
    if k < 2:
        raise ValueError("need k >= 2")
    return epsilon**4 > (33.0 + 132.0 * math.log(k)) / k


def con_constants(epsilon_star: float, M: int) -> tuple[float, float]:
    """(c_con1, c_con2_sup): the window-concentration decay rate
    (eps*/M)^2 / 2, and the same value as the exclusive supremum of valid
    rates for the T-statistic event."""
    if not (0 < epsilon_star < 0.5):
        raise ValueError("need 0 < epsilon_star < 1/2")
    if M < 2:
        raise ValueError("need M >= 2")
    c = 0.5 * (epsilon_star / M) ** 2
    return c, c
