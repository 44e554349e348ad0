from fractions import Fraction
from itertools import accumulate

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
        # 2.0**k overflows from k = 1024; the underflowed tail reads 0
        p = round_success_series(a2, 0.8, 100_000)
        assert len(p) == 100_000
        assert p[:30] == round_success_series(a2, 0.8, 30)
        assert set(p[1023:]) == {0.0}

    def test_partial_sums(self):
        p = round_success_series(0.6, 1.0, 5)
        s = list(accumulate(p))
        assert s[0] == pytest.approx(p[0])
        assert s[-1] == pytest.approx(sum(p))
        assert all(s[i] <= s[i + 1] for i in range(len(s) - 1))
        assert s[-1] < 1.0

    def test_rounds_validated(self):
        with pytest.raises(ValueError):
            round_success_series(0.6, 1.0, 0)
