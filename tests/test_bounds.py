import math
from fractions import Fraction

import pytest

from superpatterns.bounds import (
    birthday_bound,
    birthday_ratio,
    con_constants,
    forL_bound,
    gupta_check,
    hoeffding_x_bound,
    infeasibility,
    log_binomial,
    log_factorial,
    loworder_predicate,
    theorem_constants,
)


class TestExactAgreement:
    def test_log_factorial_vs_integers(self):
        for n in range(0, 13):
            exact = math.log(math.factorial(n)) if n else 0.0
            assert log_factorial(n) == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_log_binomial_vs_integers(self):
        for n in range(0, 13):
            for k in range(0, n + 1):
                assert log_binomial(n, k) == pytest.approx(
                    math.log(math.comb(n, k)), rel=1e-12, abs=1e-12
                )

    def test_birthday_ratio_vs_rationals(self):
        for k in range(1, 13):
            for L in range(0, k + 1):
                exact = Fraction(k**L * math.factorial(k - L), math.factorial(k))
                want = math.log(exact.numerator) - math.log(exact.denominator)
                assert birthday_ratio(k, L) == pytest.approx(
                    want, rel=1e-12, abs=1e-12
                )


class TestForLBound:
    def test_worked_value(self):
        # ln(1000 * 5040 / 3628800) - 0.25^2 * 3 ... = ln(...) - 0.1875
        got = forL_bound(10, 3, 0.5)
        want = math.log(1000 * 5040 / 3628800) - 0.5**2 * 3 / 4
        assert got == pytest.approx(want)
        assert got == pytest.approx(0.1410, abs=5e-5)

    def test_L0_is_one(self):
        assert forL_bound(9, 0, 0.3) == 0.0

    def test_L1_identity(self):
        # k^1 (k-1)!/k! = 1, so the bound is exactly exp(-eps^2/4)
        for k in (1, 5, 100):
            for eps in (0.1, 0.5):
                assert forL_bound(k, 1, eps) == pytest.approx(-eps * eps / 4)

    def test_domain(self):
        with pytest.raises(ValueError):
            forL_bound(3, 4, 0.1)
        with pytest.raises(ValueError):
            forL_bound(3, 2, 0.0)

    def test_huge_k_finite(self):
        assert math.isfinite(forL_bound(10**6, 1000, 0.1))


@pytest.mark.parametrize("eps", [0.0, -0.1, 0.5000001, 0.9, math.inf, -math.inf, math.nan])
def test_epsilon_outside_half_open_half_rejected(eps):
    with pytest.raises(ValueError):
        forL_bound(10, 3, eps)
    with pytest.raises(ValueError):
        hoeffding_x_bound(10, eps)
    with pytest.raises(ValueError):
        loworder_predicate(10, eps)


def test_epsilon_one_half_accepted():
    assert math.isfinite(forL_bound(10, 3, 0.5))
    assert math.isfinite(hoeffding_x_bound(10, 0.5))
    assert loworder_predicate(10, 0.5) is False


def test_infinite_log_f_rejected():
    for log_f in (math.inf, math.nan):
        with pytest.raises(ValueError):
            infeasibility(3, 3, 4, log_f)
        with pytest.raises(ValueError):
            gupta_check(3, 4, log_f)
    # log F = -inf (F = 0) stays a valid input
    assert infeasibility(3, 3, 4, -math.inf)
    assert not gupta_check(3, 4, -math.inf)


class TestBirthday:
    def test_L0(self):
        assert birthday_ratio(7, 0) == 0.0

    def test_ratio_below_bound_small_alpha(self):
        # alpha = 0.1 at k = 100: bound (0.005 + 0.00025) * 100 = 0.525
        ratio = birthday_ratio(100, 10)
        bound = birthday_bound(100, 0.1)
        assert bound == pytest.approx(0.525)
        assert ratio <= bound

    def test_full_length_ratio(self):
        # k^k/k! at k = 10
        assert birthday_ratio(10, 10) == pytest.approx(
            math.log(10**10 / math.factorial(10)), rel=1e-12
        )
        assert birthday_ratio(10, 10) == pytest.approx(7.921, abs=5e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            birthday_bound(10, 0.0)
        with pytest.raises(ValueError):
            birthday_bound(10, 1.0)


class TestTheoremConstants:
    def test_worked_values(self):
        c = theorem_constants(0.3)
        assert c.epsilon == pytest.approx(0.2)
        assert c.alpha == pytest.approx(0.0099505, abs=1e-7)
        assert c.c0 == pytest.approx(4.975e-5, rel=1e-3)

    def test_guarantees(self):
        for eps_star in (0.01, 0.1, 0.3, 0.49):
            c = theorem_constants(eps_star)
            assert (0.5 - c.epsilon) * (1 - c.epsilon) > 0.5 - eps_star
            assert 0 < c.alpha < c.epsilon
            assert c.c0 > 0

    def test_vanishes_at_zero(self):
        c = theorem_constants(1e-9)
        assert c.epsilon < 1e-8 and c.alpha < 1e-8 and c.c0 < 1e-8

    def test_domain(self):
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ValueError):
                theorem_constants(bad)


class TestHoeffdingXBound:
    def test_arithmetic(self):
        assert hoeffding_x_bound(100, 0.1) == pytest.approx(-32 * 0.01 * 100 / 3)

    def test_linear_in_k(self):
        one = hoeffding_x_bound(50, 0.2)
        two = hoeffding_x_bound(100, 0.2)
        assert two == pytest.approx(2 * one)


class TestInfeasibility:
    def test_certifies_f33_beyond_4(self):
        # C(3,3) * 2 = 2 < 6 = 3!
        assert infeasibility(3, 3, 4, math.log(2))

    def test_boundary_false(self):
        # 6 < 6 fails
        assert not infeasibility(3, 3, 9, math.log(6))

    def test_logF_at_factorial_never_certifies(self):
        for k, r, n in [(3, 3, 5), (4, 6, 9), (2, 2, 2)]:
            assert not infeasibility(k, r, n, math.log(math.factorial(k)))

    def test_antitone_in_logF(self):
        # growing F can only break a certificate, never create one
        lo, hi = math.log(2), math.log(5)
        assert infeasibility(3, 3, 4, lo)
        if not infeasibility(3, 3, 4, hi):
            assert True
        for k, r in [(3, 3), (3, 4), (4, 5)]:
            for fa in range(1, 10):
                for fb in range(fa, 10):
                    a = infeasibility(k, r, 5, math.log(fa))
                    b = infeasibility(k, r, 5, math.log(fb))
                    assert a or not b  # b implies a


class TestGupta:
    def test_examples(self):
        assert gupta_check(3, 9, math.log(6))
        assert gupta_check(3, 4, math.log(2))

    def test_zero_F_fails(self):
        assert not gupta_check(3, 4, -math.inf)


class TestLowOrder:
    def test_examples(self):
        assert loworder_predicate(10**6, 0.5)
        assert not loworder_predicate(10, 0.5)

    def test_epsilon_to_zero(self):
        for k in (10, 10**6):
            assert not loworder_predicate(k, 1e-6)

    def test_natural_log_boundary(self):
        k = 10**6
        assert loworder_predicate(k, 0.27)
        eps_boundary = ((33 + 132 * math.log(k)) / k) ** 0.25
        assert not loworder_predicate(k, eps_boundary * 0.999)
        assert loworder_predicate(k, eps_boundary * 1.001)


class TestConConstants:
    def test_worked_value(self):
        c1, c2 = con_constants(0.3, 4)
        assert c1 == pytest.approx(0.0028125)
        assert c2 == c1

    def test_scaling(self):
        base, _ = con_constants(0.1, 4)
        quad, _ = con_constants(0.2, 4)
        assert quad == pytest.approx(4 * base)
        small, _ = con_constants(0.1, 400)
        assert small < base / 100 * 1.01


class TestInfeasibilityThroughOracle:
    def test_monotone_in_n(self):
        # feeding the oracle's exact F(k, n): once the certificate is lost
        # at some n it never comes back for larger n
        from superpatterns.patterns import f_oracle

        flags = []
        for n in range(3, 10):
            log_f = math.log(f_oracle(3, n)[0])
            flags.append(infeasibility(3, 3, n, log_f))
        assert flags == sorted(flags, reverse=True)
        assert flags[0] is True   # n = 3: C(3,3) * 1 < 6
        assert flags[-1] is False  # n = 9: 6 < 6 fails
