"""Claim verification harness.

Runs both protocols at a chosen working point and checks every published
number the package claims to reproduce: closed-form round probabilities,
unit heralded fidelity, the recycling series, the coherent three-photon
total, agreement with the independent path-sum oracle, and the sampled
detector-efficiency chain.  Failures are real failures; two further entries
are informational and document discrepancies between published totals that
the simulation resolves rather than hides.

``corrupted_coupler`` plants a phase error in every balanced coupler so the
harness itself can be shown to catch a broken convention: under the fault
the fidelity and oracle checks go red while probability bookkeeping stays
superficially plausible.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from . import elements
from .engine import run_ecp1, run_ecp2
from .fock import EXACT_TOL, ORACLE_TOL
from .formulas import (
    branch_success_minus,
    branch_success_plus,
    claimed_total,
    joint_total_one_round,
    qnd_round_success,
    round_success_series,
)
from .measurement import DetectorModel
from .montecarlo import estimate_series_total
from .oracle import oracle_ecp1, oracle_ecp2
from .params import EntanglementParams, PolarizationParams

MC_SIGMAS = 5.0


@dataclass(frozen=True)
class CheckResult:
    """One verification line; ``passed`` is None for informational entries."""

    name: str
    passed: bool | None
    detail: str

    @property
    def status(self) -> str:
        if self.passed is None:
            return "INFO"
        return "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        return f"{self.status} {self.name}: {self.detail}"


@contextmanager
def corrupted_coupler():
    """Temporarily phase the second input row of every balanced coupler."""
    previous = elements.BS_IN2_PHASE
    elements.BS_IN2_PHASE = 1j
    try:
        yield
    finally:
        elements.BS_IN2_PHASE = previous


def run_checks(
    alpha_sq: float = 0.6,
    gamma_sq: float = 0.5,
    eta_p: float = 1.0,
    rounds: int = 3,
    trials: int = 20_000,
    seed: int = 0,
    inject_fault: bool = False,
) -> list[CheckResult]:
    if inject_fault:
        with corrupted_coupler():
            return _checks(alpha_sq, gamma_sq, eta_p, rounds, trials, seed)
    return _checks(alpha_sq, gamma_sq, eta_p, rounds, trials, seed)


def _checks(alpha_sq, gamma_sq, eta_p, rounds, trials, seed) -> list[CheckResult]:
    ent = EntanglementParams.from_alpha_sq(alpha_sq)
    pol = PolarizationParams.from_gamma_sq(gamma_sq)
    model = DetectorModel(eta_p=eta_p)
    d2 = pol.delta_sq
    g2 = pol.gamma_sq
    out: list[CheckResult] = []

    def check(name: str, ok: bool, detail: str) -> None:
        out.append(CheckResult(name, bool(ok), detail))

    # single-round linear-optics protocol, per-branch accounting
    r1 = run_ecp1(ent, pol, model=model)
    want_plus = branch_success_plus(alpha_sq, d2) * eta_p
    want_minus = branch_success_minus(alpha_sq, g2) * eta_p
    got_plus = r1.paper_comparison["claimed_success_plus"]["simulated_value"]
    got_minus = r1.paper_comparison["claimed_success_minus"]["simulated_value"]
    check(
        "ecp1_branch_probabilities",
        abs(got_plus - want_plus) <= EXACT_TOL
        and abs(got_minus - want_minus) <= EXACT_TOL,
        f"arm probabilities ({got_plus:.12f}, {got_minus:.12f}) vs closed form "
        f"({want_plus:.12f}, {want_minus:.12f})",
    )
    r1j = run_ecp1(ent, pol, accounting="joint", model=model)
    want_joint = joint_total_one_round(alpha_sq) * eta_p**2
    check(
        "ecp1_joint_total",
        abs(r1j.p_total - want_joint) <= EXACT_TOL,
        f"coherent three-photon total {r1j.p_total:.12f} vs closed form {want_joint:.12f}",
    )
    fid_b = r1.rounds[0].heralded_fidelity
    fid_j = r1j.rounds[0].heralded_fidelity
    check(
        "ecp1_heralded_fidelity",
        fid_b is not None
        and fid_j is not None
        and abs(fid_b - 1.0) <= EXACT_TOL
        and abs(fid_j - 1.0) <= EXACT_TOL,
        f"worst heralded fidelity per accounting: branch {fid_b}, joint {fid_j}",
    )

    # nondemolition protocol with recycling
    r2 = run_ecp2(ent, pol, rounds=rounds, model=model)
    t1 = r2.schedule["plus"][0]
    want_p = qnd_round_success(alpha_sq, d2, t1) * eta_p
    want_m = qnd_round_success(alpha_sq, g2, t1) * eta_p
    got_p = r2.paper_comparison["claimed_round1_plus"]["simulated_value"]
    got_m = r2.paper_comparison["claimed_round1_minus"]["simulated_value"]
    check(
        "ecp2_round1_probabilities",
        abs(got_p - want_p) <= EXACT_TOL and abs(got_m - want_m) <= EXACT_TOL,
        f"round-1 arm probabilities ({got_p:.12f}, {got_m:.12f}) vs closed form "
        f"({want_p:.12f}, {want_m:.12f})",
    )
    bad_fids = [
        r.heralded_fidelity
        for r in r2.rounds
        if r.heralded_fidelity is not None and abs(r.heralded_fidelity - 1.0) > EXACT_TOL
    ]
    check(
        "ecp2_heralded_fidelity",
        not bad_fids,
        f"{rounds} recycling rounds, worst deviation from unit fidelity "
        f"{max((abs(f - 1.0) for f in bad_fids), default=0.0):.3e}",
    )
    rs = run_ecp2(ent, rounds=rounds, model=model)
    series = round_success_series(alpha_sq, eta_p, rounds)
    series_bad = [
        abs(r.p_success - pk)
        for r, pk in zip(rs.rounds, series)
        if abs(r.p_success - pk) > EXACT_TOL
    ]
    check(
        "series_round_probabilities",
        not series_bad,
        f"single-arm rounds 1..{rounds} vs doubling-schedule series, worst "
        f"delta {max(series_bad, default=0.0):.3e}",
    )

    # the independent path-sum bookkeeping must agree with the engine
    try:
        o1 = oracle_ecp1(alpha_sq, gamma_sq, eta=eta_p)
        o1j = oracle_ecp1(alpha_sq, gamma_sq, accounting="joint", eta=eta_p)
        o2 = oracle_ecp2(alpha_sq, rounds=rounds, eta=eta_p)
    except ValueError as exc:
        check("oracle_agreement", False, f"oracle could not evaluate this point: {exc}")
    else:
        oracle_deltas = [
            abs(r1.p_total - o1["p_total"]),
            abs(r1j.p_total - o1j["p_total"]),
            abs((r1.rounds[0].heralded_fidelity or 0.0) - (o1["fidelity"] or 0.0)),
            abs((r1j.rounds[0].heralded_fidelity or 0.0) - (o1j["fidelity"] or 0.0)),
        ]
        oracle_deltas.extend(
            abs(r.p_success - ob["p_success"])
            for r, ob in zip(rs.rounds, o2["rounds"])
        )
        check(
            "oracle_agreement",
            max(oracle_deltas) <= ORACLE_TOL,
            f"worst engine-versus-oracle delta {max(oracle_deltas):.3e}",
        )

    # trial-level detector loss against the analytic factor
    eta_mc = eta_p if eta_p < 1.0 else 0.8
    est, stderr, analytic = estimate_series_total(
        alpha_sq, rounds, eta_mc, trials=trials, seed=seed
    )
    z = abs(est - analytic) / stderr if stderr > 0 else 0.0
    check(
        "monte_carlo_detector_loss",
        z <= MC_SIGMAS,
        f"sampled total {est:.5f} vs analytic {analytic:.5f} at efficiency "
        f"{eta_mc}: {z:.2f} standard errors ({trials} trials, seed {seed})",
    )

    # informational: the two published one-round totals are inconsistent
    # with each other, and per-branch accounting reproduces the larger one
    branch_sum = 3.0 * alpha_sq * (1.0 - alpha_sq) * eta_p
    total_claim = claimed_total(alpha_sq) * eta_p
    out.append(
        CheckResult(
            "published_totals_discrepancy",
            None,
            f"summing the published arm probabilities gives {branch_sum:.6f} "
            f"while the published overall total is {total_claim:.6f}; the arm "
            f"sum double counts the component with the signal photon still at "
            f"home (difference {branch_sum - total_claim:.6f})",
        )
    )
    out.append(
        CheckResult(
            "branch_versus_coherent_total",
            None,
            f"per-branch accounting totals {r1.p_total:.6f} but the coherent "
            f"three-photon run, where both detector groups must fire, totals "
            f"{r1j.p_total:.6f}; both are reported, neither is silently "
            f"rescaled to match the other",
        )
    )
    return out


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed is not False for r in results)


def summary(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    n_fail = sum(1 for r in results if r.passed is False)
    n_pass = sum(1 for r in results if r.passed is True)
    lines.append(f"{n_pass} passed, {n_fail} failed")
    return "\n".join(lines)
