"""Protocol-level numbers: round probabilities, fidelities, recycling."""

import pytest

from ecpsim.circuits import builtin_doc
from ecpsim.elements import bs_matrix, vbs_pair
from ecpsim.engine import _bound, _prologue, _run_chain, analyze, run_ecp1, run_ecp2
from ecpsim.fock import fidelity, pattern_count, single_photon
from ecpsim.formulas import (
    branch_success_minus,
    branch_success_plus,
    joint_total_one_round,
    round_success_series,
)
from ecpsim.measurement import DetectorModel
from ecpsim.params import EntanglementParams, PolarizationParams, vbs_schedule

A2 = 0.6
ENT = EntanglementParams.from_alpha_sq(A2)
POL = PolarizationParams.from_gamma_sq(0.5)


def test_branch_arm_probabilities_at_reference_point():
    r = run_ecp1(ENT, POL)
    cmp = r.paper_comparison
    assert cmp["claimed_success_plus"]["simulated_value"] == pytest.approx(0.36, abs=1e-12)
    assert cmp["claimed_success_minus"]["simulated_value"] == pytest.approx(0.36, abs=1e-12)
    assert r.p_total == pytest.approx(0.72, abs=1e-12)


@pytest.mark.parametrize("a2", (0.15, 0.4, 0.75))
@pytest.mark.parametrize("g2", (0.2, 0.5, 0.9))
def test_branch_closed_forms(a2, g2):
    ent = EntanglementParams.from_alpha_sq(a2)
    pol = PolarizationParams.from_gamma_sq(g2)
    r = run_ecp1(ent, pol)
    cmp = r.paper_comparison
    assert cmp["claimed_success_plus"]["simulated_value"] == pytest.approx(
        branch_success_plus(a2, pol.delta_sq), abs=1e-12
    )
    assert cmp["claimed_success_minus"]["simulated_value"] == pytest.approx(
        branch_success_minus(a2, pol.gamma_sq), abs=1e-12
    )
    assert cmp["claimed_success_plus"]["delta"] == pytest.approx(0.0, abs=1e-12)


def test_joint_total_is_the_three_photon_coincidence():
    r = run_ecp1(ENT, POL, accounting="joint")
    assert r.p_total == pytest.approx(joint_total_one_round(A2), abs=1e-12)
    assert r.p_total == pytest.approx(2 * A2 * (1 - A2) ** 2, abs=1e-12)
    assert r.engine.eta_exponent == 2


def test_heralded_fidelity_is_unit_in_both_accountings():
    for accounting in ("branch", "joint"):
        r = run_ecp1(ENT, POL, accounting=accounting)
        assert r.rounds[0].heralded_fidelity == pytest.approx(1.0, abs=1e-12)


def test_fidelity_survives_asymmetric_polarization():
    pol = PolarizationParams.from_gamma_sq(0.3)
    r = run_ecp1(ENT, pol)
    assert r.rounds[0].heralded_fidelity == pytest.approx(1.0, abs=1e-12)


def test_unbalanced_coupler_degrades_fidelity():
    r = run_ecp1(ENT, POL, t1=0.5, t2=0.5)
    assert r.rounds[0].heralded_fidelity < 1.0 - 1e-6


def test_stripped_single_round():
    r = run_ecp1(ENT)
    assert r.p_total == pytest.approx(0.48, abs=1e-12)
    assert r.rounds[0].heralded_fidelity == pytest.approx(1.0, abs=1e-12)


def test_qnd_round_probabilities_match_schedule():
    r = run_ecp2(ENT, POL, rounds=1)
    assert r.schedule["plus"][0] == pytest.approx(A2, abs=1e-12)
    cmp = r.paper_comparison
    assert cmp["claimed_round1_plus"]["simulated_value"] == pytest.approx(0.36, abs=1e-12)
    assert cmp["claimed_round1_minus"]["simulated_value"] == pytest.approx(0.36, abs=1e-12)


def test_series_rounds_match_closed_form():
    rounds = 5
    r = run_ecp2(ENT, rounds=rounds)
    series = round_success_series(A2, 1.0, rounds)
    for got, want in zip(r.rounds, series):
        assert got.p_success == pytest.approx(want, abs=1e-12)
    assert r.rounds[1].p_success == pytest.approx(0.1152 / 0.52, abs=1e-12)
    assert r.rounds[2].p_success == pytest.approx(2592 / 31525, abs=1e-12)


def test_series_with_detector_loss():
    eta = 0.8
    r = run_ecp2(ENT, rounds=3, model=DetectorModel(eta_p=eta))
    series = round_success_series(A2, eta, 3)
    for got, want in zip(r.rounds, series):
        assert got.p_success == pytest.approx(want, abs=1e-12)


def test_recycle_weights_shrink_with_rounds():
    r = run_ecp2(ENT, rounds=4)
    weights = [x.p_fail_recyclable for x in r.rounds]
    assert all(b < a for a, b in zip(weights, weights[1:]))
    assert weights[0] == pytest.approx(A2**2 + (1 - A2) ** 2, abs=1e-12)


def test_recycling_fidelity_every_round():
    r = run_ecp2(ENT, POL, rounds=4)
    for x in r.rounds:
        assert x.heralded_fidelity == pytest.approx(1.0, abs=1e-12)


def test_recycled_residual_tracks_the_squared_ratio():
    # after k failed rounds the surviving single photon carries the input
    # asymmetry raised to the 2^k, which is what the retuned coupler undoes
    plan = analyze(builtin_doc("ecp2"))
    ent = ENT
    pol = POL
    bindings = {
        "alpha": ent.alpha, "beta": ent.beta,
        "gamma": pol.gamma, "delta": pol.delta,
    }
    split = single_photon(
        [
            ("a1", "H", ent.alpha * pol.gamma),
            ("a1", "V", ent.alpha * pol.delta),
            ("b3", "H", ent.beta * pol.gamma),
            ("b2", "V", ent.beta * pol.delta),
        ]
    )
    arm = plan.arms[0]
    arm_input = split.filtered(lambda p: pattern_count(p, "b3") == 0)
    ts = list(vbs_schedule(ent, 5))
    results = _run_chain(plan.table, _bound(plan.table, [arm], plan.merge, bs_matrix()), plan.table.of(arm_input),
                         zip(map(vbs_pair, ts)), _prologue(plan, pol)(bindings)[3][:1], DetectorModel())
    for k, res in enumerate(results, start=1):
        scale = ent.alpha_sq ** (2 ** k / 2)  # alpha to the 2^k
        bscale = ent.beta_sq ** (2 ** k / 2)
        expected = single_photon(
            [
                ("a1", "H", scale * pol.gamma),
                ("a1", "V", scale * pol.delta),
                ("b2", "V", bscale * pol.delta),
            ]
        )
        assert fidelity(plan.table.state(res.recycle_next), expected) == pytest.approx(1.0, abs=1e-12)


def test_joint_recycling_chain():
    r = run_ecp2(ENT, POL, rounds=2, accounting="joint")
    assert r.rounds[0].p_success == pytest.approx(2 * A2 * (1 - A2) ** 2, abs=1e-12)
    assert r.engine.eta_exponent == 2
    for x in r.rounds:
        assert x.heralded_fidelity == pytest.approx(1.0, abs=1e-12)


def test_branch_accounting_reports_the_published_overcounting():
    r = run_ecp1(ENT, POL)
    cmp = r.paper_comparison
    assert cmp["claimed_branch_sum"]["delta"] == pytest.approx(0.0, abs=1e-12)
    assert cmp["claimed_total"]["delta"] == pytest.approx(0.24, abs=1e-12)


def test_schedule_retunes_toward_balance():
    ent = EntanglementParams.from_alpha_sq(0.8)
    r = run_ecp2(ent, rounds=3)
    ts = r.schedule["plus"]
    assert ts[0] == pytest.approx(0.8, abs=1e-12)
    assert ts[0] < ts[1] < ts[2] <= 1.0


def test_round_and_schedule_lengths_agree():
    r = run_ecp2(ENT, POL, rounds=3)
    assert len(r.rounds) == 3
    assert len(r.schedule["plus"]) == 3
    assert len(r.schedule["minus"]) == 3
    assert [x.k for x in r.rounds] == [1, 2, 3]
    assert [x.t for x in r.rounds] == r.schedule["plus"]


def test_planted_fault_is_caught_after_clean_runs():
    # clean runs fill the plan's tables first (joint runs too); the planted
    # phase fault is read when a coupler is evaluated, so it must still
    # reach every coupler, and leave none behind
    from ecpsim.verify import corrupted_coupler, run_checks

    def joint_fidelities():
        return [
            r.heralded_fidelity
            for report in (
                run_ecp1(ENT, POL, accounting="joint"),
                run_ecp2(ENT, POL, rounds=2, accounting="joint"),
            )
            for r in report.rounds
        ]

    run_ecp1(ENT, POL)
    run_ecp2(ENT, POL, rounds=2)
    clean = joint_fidelities()
    assert clean == pytest.approx([1.0] * 3, abs=1e-12)
    results = {r.name: r.passed for r in run_checks(trials=2000, inject_fault=True)}
    assert results["ecp1_heralded_fidelity"] is False
    assert results["ecp2_heralded_fidelity"] is False
    with corrupted_coupler():
        assert all(f < 0.9 for f in joint_fidelities())
    assert run_ecp1(ENT, POL).rounds[0].heralded_fidelity == pytest.approx(1.0, abs=1e-12)
    assert joint_fidelities() == clean
