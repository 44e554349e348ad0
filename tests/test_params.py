import math

import pytest

from ecpsim.elements import vbs_pair
from ecpsim.params import (
    EntanglementParams,
    ParameterError,
    PolarizationParams,
    vbs_pair_schedule,
    vbs_schedule,
)


class TestEntanglementParams:
    def test_from_alpha_sq(self):
        e = EntanglementParams.from_alpha_sq(0.6)
        assert e.alpha_sq == pytest.approx(0.6)
        assert e.beta_sq == pytest.approx(0.4)

    def test_norm_enforced(self):
        with pytest.raises(ParameterError):
            EntanglementParams(0.9, 0.9)

    def test_complex_amplitudes_allowed(self):
        e = EntanglementParams(0.6j, 0.8)
        assert e.alpha_sq == pytest.approx(0.36)

    def test_degenerate_flagged(self):
        e = EntanglementParams.from_alpha_sq(1.0)
        with pytest.raises(ParameterError):
            e.require_nondegenerate()

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            EntanglementParams.from_alpha_sq(1.5)


class TestPolarizationParams:
    def test_extremes_allowed(self):
        p0 = PolarizationParams.from_gamma_sq(0.0)
        p1 = PolarizationParams.from_gamma_sq(1.0)
        assert p0.gamma == 0.0 and p0.delta == 1.0
        assert p1.gamma == 1.0 and p1.delta == 0.0

    def test_norm_enforced(self):
        with pytest.raises(ParameterError):
            PolarizationParams(1.0, 0.1)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("cls", [EntanglementParams, PolarizationParams])
@pytest.mark.parametrize("amps", [(NAN, 1.0), (1.0, NAN), (NAN, NAN), (INF, 0.0), (0.0, -INF),
                                  (complex(0.6, NAN), 0.8), (0.6, complex(INF, 0.0))])
def test_nan_and_infinite_amplitudes_are_rejected(cls, amps):
    # a NaN norm fails no tolerance test: without the check (nan, 1.0) is accepted
    with pytest.raises(ParameterError, match="must be finite"):
        cls(*amps)


def test_a_nan_polarization_is_not_run_as_a_zero():
    # a NaN gamma is a parameter error before the engine runs, never a term a round carries
    from ecpsim.engine import run_ecp2

    with pytest.raises(ParameterError, match="gamma and delta must be finite"):
        run_ecp2(EntanglementParams.from_alpha_sq(0.6), PolarizationParams(NAN, 1.0), rounds=2, accounting="joint")


class TestSchedule:
    def test_first_round_is_alpha_sq(self):
        for a2 in (0.1, 0.3, 0.5, 0.6, 0.9):
            e = EntanglementParams.from_alpha_sq(a2)
            (t1,) = vbs_schedule(e, 1)
            assert t1 == pytest.approx(a2, abs=1e-14)

    def test_known_second_round(self):
        e = EntanglementParams.from_alpha_sq(0.6)
        t = vbs_schedule(e, 2)
        # 0.36 / (0.36 + 0.16)
        assert t[1] == pytest.approx(9.0 / 13.0, abs=1e-14)

    def test_balanced_fixed_point(self):
        e = EntanglementParams.from_alpha_sq(0.5)
        for t in vbs_schedule(e, 6):
            assert t == pytest.approx(0.5, abs=1e-14)

    def test_doubling_recursion(self):
        # with x_k = (|beta|/|alpha|)^(2^k): x_{k+1} = x_k^2, t_k = 1/(1+x_k)
        e = EntanglementParams.from_alpha_sq(0.37)
        ts = vbs_schedule(e, 8)
        for k in range(len(ts) - 1):
            x_k = 1.0 / ts[k] - 1.0
            x_next = 1.0 / ts[k + 1] - 1.0
            assert x_next == pytest.approx(x_k**2, rel=1e-11)

    def test_deep_schedule_stays_finite(self):
        e = EntanglementParams.from_alpha_sq(0.01)
        ts = vbs_schedule(e, 30)
        assert all(0.0 <= t <= 1.0 for t in ts)
        assert ts[-1] == 0.0  # limit of a strongly unbalanced input

    def test_monotone_toward_extreme(self):
        e = EntanglementParams.from_alpha_sq(0.7)
        ts = vbs_schedule(e, 10)
        assert all(ts[i] <= ts[i + 1] for i in range(len(ts) - 1))
        assert ts[0] < ts[1] < ts[2]
        assert ts[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("a2", [0.01, 0.5, 0.6, 0.9999])
    def test_schedule_saturates_without_overflow(self, a2):
        # 2.0**k overflows from k = 1024; the schedule must stop needing it
        e = EntanglementParams.from_alpha_sq(a2)
        ts = vbs_schedule(e, 100_000)
        assert len(ts) == 100_000
        log_ratio = math.log(abs(e.beta)) - math.log(abs(e.alpha))
        for k, t in enumerate(ts[:40], start=1):
            x = (2.0**k) * log_ratio
            assert t == (0.0 if x > 700.0 else 1.0 / (1.0 + math.exp(x)))
        assert set(ts[40:]) == {ts[39]}
        assert ts[-1] in (0.0, 0.5, 1.0)

    @pytest.mark.parametrize("a2", [1e-300, 0.3, 0.5, 0.6, 0.9, 0.999999])
    def test_pairs_follow_the_log_odds_without_cancellation(self, a2):
        # each pair is (sqrt(1 - t_k), sqrt(t_k)) against 50 digits to a few ulp times |x_k| (the
        # log-ratio's rounding, doubled each round), also where t_k rounds to 1 and 1 - t_k would
        # cancel, and without overflow at alpha^2 1e-300
        mpmath = pytest.importorskip("mpmath")
        e = EntanglementParams.from_alpha_sq(a2)
        pairs = vbs_pair_schedule(e, 40)
        assert len(pairs) == 40 and pairs[0] == pytest.approx(vbs_pair(a2), rel=1e-13, abs=0.0)
        with mpmath.workdps(50):
            log_ratio = mpmath.log(abs(e.beta)) - mpmath.log(abs(e.alpha))
            for k, (r, s) in enumerate(pairs, 1):
                x = mpmath.ldexp(log_ratio, k)
                for got, want in ((r, 1 / mpmath.sqrt(1 + mpmath.exp(-x))), (s, 1 / mpmath.sqrt(1 + mpmath.exp(x)))):
                    assert abs(got - want) <= (2 + abs(x)) * 2.3e-16 * want or (got == 0.0 and want < 1e-323)

    def test_degenerate_rejected(self):
        with pytest.raises(ParameterError):
            vbs_schedule(EntanglementParams.from_alpha_sq(0.0), 3)

    def test_rounds_validated(self):
        e = EntanglementParams.from_alpha_sq(0.6)
        with pytest.raises(ParameterError):
            vbs_schedule(e, 0)


@pytest.mark.parametrize("cls", [EntanglementParams, PolarizationParams])
@pytest.mark.parametrize("amplitude", [1e155, 1e200, -1e160, complex(1e200, 0)])
def test_an_amplitude_whose_square_overflows_is_a_parameter_error(cls, amplitude):
    # a square past the float range is inf (a complex modulus past it raises OverflowError,
    # read as inf): the norm is inf and fails its test
    with pytest.raises(ParameterError, match=r"\^2 = inf, expected 1"):
        cls(amplitude, 0.0)
