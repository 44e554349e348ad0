import math
from fractions import Fraction
from itertools import accumulate

import mpmath
import pytest

from ecpsim.formulas import (
    branch_success_minus,
    branch_success_plus,
    claimed_total,
    joint_total_one_round,
    qnd_round_success,
    round_success_series,
)


def exact_series(alpha_sq: Fraction, max_rounds: int) -> list[Fraction]:
    """Rational-arithmetic reference for the recycling series (eta = 1)."""
    a, b = alpha_sq, 1 - alpha_sq
    out = []
    denom = Fraction(1)
    for k in range(1, max_rounds + 1):
        if k >= 2:
            e = 2 ** (k - 1)
            denom *= a**e + b**e
        out.append(2 * (a * b) ** (2 ** (k - 1)) / denom)
    return out


def mp_series(alpha_sq: float, max_rounds: int) -> list:
    """50-digit reference for the closed form (eta = 1), P_k = d / sinh(2^(k-1) ln(a/b)).

    The rate is built from ln(a/b), not from artanh(d): at 50 digits
    1 - 2e-300 rounds to 1, where artanh diverges.  Stops once P_k is below
    1e-300; every later round is smaller still.
    """
    with mpmath.workdps(50):
        x = mpmath.mpf(alpha_sq)
        a, b = max(x, 1 - x), min(x, 1 - x)
        d, rate = a - b, mpmath.log(a / b)
        out = []
        for k in range(1, max_rounds + 1):
            pk = mpmath.ldexp(1, -k) if d == 0 else d / mpmath.sinh(mpmath.ldexp(rate, k - 1))
            if pk <= mpmath.mpf("1e-300"):
                break
            out.append(pk)
        return out


class TestBranchForms:
    def test_plus_minus_values(self):
        assert branch_success_plus(0.6, 0.5) == pytest.approx(0.36)
        assert branch_success_minus(0.6, 0.5) == pytest.approx(0.36)
        assert branch_success_plus(0.6, 1.0) == pytest.approx(0.48)
        assert branch_success_minus(0.6, 0.0) == pytest.approx(0.24)

    def test_claimed_total(self):
        assert claimed_total(0.5) == pytest.approx(0.5)
        assert claimed_total(0.6) == pytest.approx(0.48)

    def test_branch_sum_exceeds_claimed_total(self):
        # the two branch weights sum to 3|ab|^2 for any normalized (g, d),
        # while the published overall number is 2|ab|^2
        for g2 in (0.0, 0.3, 0.5, 1.0):
            s = branch_success_plus(0.6, 1.0 - g2) + branch_success_minus(0.6, g2)
            assert s == pytest.approx(3 * 0.6 * 0.4, abs=1e-12)
            assert s > claimed_total(0.6)

    def test_joint_total(self):
        assert joint_total_one_round(0.5) == pytest.approx(0.25)
        assert joint_total_one_round(0.6) == pytest.approx(2 * 0.6 * 0.16)

    def test_joint_total_squares_as_a_product(self):
        # |beta|^4 = (1 - alpha^2)^2 as one rounded product: the platform's pow is not
        # correctly rounded everywhere, and at this x its square is one ulp off
        x = 0.6459969762434069
        assert joint_total_one_round(1.0 - x) == 2.0 * (1.0 - x) * (x * x)

    def test_qnd_round_success(self):
        assert qnd_round_success(0.6, 0.5, 0.6) == pytest.approx(0.36)
        # fully reflecting coupler keeps only the signal-at-home component
        assert qnd_round_success(0.6, 0.5, 0.0) == pytest.approx(0.6)


class TestSeries:
    def test_balanced_anchors(self):
        p = round_success_series(0.5, 1.0, 2)
        assert p[0] == pytest.approx(0.5, abs=1e-12)
        assert p[1] == pytest.approx(0.25, abs=1e-12)

    def test_known_values_at_point_six(self):
        p = round_success_series(0.6, 1.0, 3)
        assert p[0] == pytest.approx(0.48, abs=1e-12)
        assert p[1] == pytest.approx(0.1152 / 0.52, abs=1e-12)
        assert p[2] == pytest.approx(2592.0 / 31525.0, abs=1e-12)

    @pytest.mark.parametrize("a2", [Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), Fraction(3, 5), Fraction(9, 10)])
    def test_matches_rational_reference(self, a2):
        got = round_success_series(float(a2), 1.0, 6)
        want = exact_series(a2, 6)
        for g, w in zip(got, want):
            assert g == pytest.approx(float(w), rel=1e-13)

    def test_efficiency_scales_linearly(self):
        base = round_success_series(0.6, 1.0, 4)
        scaled = round_success_series(0.6, 0.8, 4)
        for b, s in zip(base, scaled):
            assert s == pytest.approx(0.8 * b, rel=1e-13)

    def test_zero_efficiency(self):
        assert round_success_series(0.6, 0.0, 3) == (0.0, 0.0, 0.0)

    def test_degenerate_inputs_give_zero(self):
        assert round_success_series(0.0, 1.0, 3) == (0.0, 0.0, 0.0)
        assert round_success_series(1.0, 1.0, 3) == (0.0, 0.0, 0.0)

    def test_symmetry_under_amplitude_swap(self):
        for k, (x, y) in enumerate(
            zip(round_success_series(0.3, 0.8, 6), round_success_series(0.7, 0.8, 6))
        ):
            assert x == pytest.approx(y, rel=1e-13), f"round {k + 1}"

    def test_rounds_decrease(self):
        p = round_success_series(0.6, 1.0, 6)
        assert all(p[i] > p[i + 1] for i in range(len(p) - 1))

    def test_deep_rounds_finite(self):
        p = round_success_series(0.05, 0.8, 30)
        assert all(0.0 <= x <= 1.0 for x in p)
        assert p[-1] >= 0.0

    @pytest.mark.parametrize("a2", [0.05, 0.5, 0.6])
    def test_series_past_the_doubling_overflow(self, a2):
        # 2.0**k overflows from k = 1024; off balance the tail has long
        # underflowed to 0, and at balance P_k = eta 2^-k holds to the end
        p = round_success_series(a2, 0.8, 100_000)
        assert len(p) == 100_000
        assert p[:30] == round_success_series(a2, 0.8, 30)
        if a2 == 0.5:
            assert all(p[k - 1] == math.ldexp(0.8, -k) for k in range(1, len(p) + 1))
        else:
            assert set(p[1023:]) == {0.0}

    @pytest.mark.parametrize(
        "a2", [1e-300, 0.3, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 0.6, 0.9, 1 - 1e-12]
    )
    def test_matches_50_digit_closed_form(self, a2):
        got = round_success_series(a2, 1.0, 1000)
        want = mp_series(a2, 1000)
        assert want
        for k, w in enumerate(want, start=1):
            assert abs(got[k - 1] - w) <= 1e-13 * w, f"round {k}"

    @pytest.mark.parametrize("eta", [1.0, 0.8])
    @pytest.mark.parametrize("a2", [1e-300, 0.05, 0.3, 0.5, 0.6, 0.9, 0.999999])
    def test_rounds_sum_to_the_vidal_limit(self, a2, eta):
        total = sum(round_success_series(a2, eta, 200))
        assert total == pytest.approx(2 * eta * min(a2, 1 - a2), rel=1e-13)

    def test_partial_sums(self):
        p = round_success_series(0.6, 1.0, 5)
        s = list(accumulate(p))
        assert s[0] == pytest.approx(p[0])
        assert s[-1] == pytest.approx(sum(p))
        assert all(s[i] <= s[i + 1] for i in range(len(s) - 1))
        assert s[-1] < 1.0

    def test_rounds_validated(self):
        rows = [(0.6, 1.0, 0), (0.0, 1.0, 0), (0.6, -0.5, 3), (0.6, 1.5, 3), (0.6, math.nan, 2)]
        for args in rows:
            with pytest.raises(ValueError):
                round_success_series(*args)
