"""Claim verification harness.

Runs both protocols at a chosen working point and checks every published
number the package claims to reproduce: closed-form round probabilities,
unit heralded fidelity, the recycling series, the coherent three-photon
total, agreement with the independent path-sum oracle, and the sampled
detector-efficiency chain.  The closed forms are the ``paper_comparison``
entries of the reports it runs.  Every exact check goes through ``_judge``:
relative deviation, values at or below ``UNDERFLOW_FLOOR`` compared as 0.
Failures are real failures; two further entries are informational and
document discrepancies between published totals that the simulation
resolves rather than hides.

``corrupted_coupler`` plants a phase error in every balanced coupler so the
harness itself can be shown to catch a broken convention: under the fault
the fidelity and oracle checks go red while probability bookkeeping stays
superficially plausible.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

from . import elements
from .engine import run_ecp1, run_ecp2
from .fock import EXACT_TOL, ORACLE_TOL, UNDERFLOW_FLOOR
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
    with corrupted_coupler() if inject_fault else nullcontext():
        return _checks(alpha_sq, gamma_sq, eta_p, rounds, trials, seed)


def _deviation(got: float | None, want: float | None) -> float:
    """Relative deviation of ``got`` from ``want``.  A value at or below ``UNDERFLOW_FLOOR`` is
    compared as 0, a null (a fidelity where p is 0) matches only a null, and a nonzero value
    against 0, or a NaN, deviates infinitely."""
    if got is None or want is None:
        return 0.0 if got is want else math.inf
    got, want = (0.0 if abs(x) <= UNDERFLOW_FLOOR else x for x in (got, want))
    if not want:
        return 0.0 if not got else math.inf
    dev = abs(got - want) / abs(want)
    return math.inf if math.isnan(dev) else dev


def _judge(name: str, what: str, tol: float, pairs) -> CheckResult:
    """PASS when every ``(label, got, want)`` of ``pairs`` deviates by at most ``tol``; the line
    names the worst deviation and the values it was seen on."""
    dev, label, got, want = max(((_deviation(g, w), x, g, w) for x, g, w in pairs), key=lambda e: e[0])
    detail = f"{what}, worst relative deviation {dev:.3e} at {label} ({got!r} vs {want!r})"
    return CheckResult(name, dev <= tol, detail)


def _claims(report, *names):
    """``(name, simulated, published)`` of each named ``paper_comparison`` entry of ``report``."""
    return [(n, report.paper_comparison[n]["simulated_value"], report.paper_comparison[n]["paper_value"])
            for n in names]


def _unit_fidelity(label: str, r):
    """Round ``r``'s fidelity against 1 where it has mass, against null where its p is 0."""
    return label, r.heralded_fidelity, 1.0 if r.p_success > 0.0 else None


def _checks(alpha_sq, gamma_sq, eta_p, rounds, trials, seed) -> list[CheckResult]:
    ent = EntanglementParams.from_alpha_sq(alpha_sq)
    pol = PolarizationParams.from_gamma_sq(gamma_sq)
    model = DetectorModel(eta_p=eta_p)
    r1 = run_ecp1(ent, pol, model=model)
    r1j = run_ecp1(ent, pol, accounting="joint", model=model)
    r2 = run_ecp2(ent, pol, rounds=rounds, model=model)
    rs = run_ecp2(ent, rounds=rounds, model=model)
    out = [
        _judge("ecp1_branch_probabilities", "arm probabilities against the closed forms", EXACT_TOL,
               _claims(r1, "claimed_success_plus", "claimed_success_minus")),
        _judge("ecp1_joint_total", "coherent three-photon total against the closed form", EXACT_TOL,
               _claims(r1j, "predicted_joint_total")),
        _judge("ecp1_heralded_fidelity", "heralded fidelity per accounting against 1", EXACT_TOL,
               [_unit_fidelity("branch", r1.rounds[0]), _unit_fidelity("joint", r1j.rounds[0])]),
        _judge("ecp2_round1_probabilities", "round-1 arm probabilities against the closed forms", EXACT_TOL,
               _claims(r2, "claimed_round1_plus", "claimed_round1_minus")),
        _judge("ecp2_heralded_fidelity", f"{rounds} recycling rounds, heralded fidelity against 1", EXACT_TOL,
               [_unit_fidelity(f"round {r.k}", r) for r in r2.rounds]),
        _judge("series_round_probabilities", f"single-arm rounds 1..{rounds} against the doubling-schedule "
               "series", EXACT_TOL, _claims(rs, *(f"series_round_{r.k}" for r in rs.rounds))),
    ]

    # the independent path-sum bookkeeping must agree with the engine
    try:
        o1 = oracle_ecp1(alpha_sq, gamma_sq, eta=eta_p)
        o1j = oracle_ecp1(alpha_sq, gamma_sq, accounting="joint", eta=eta_p)
        o2 = oracle_ecp2(alpha_sq, rounds=rounds, eta=eta_p)
    except ValueError as exc:  # reported as a failed check, not a traceback
        out.append(CheckResult("oracle_agreement", False, f"oracle could not evaluate this point: {exc}"))
    else:
        out.append(_judge("oracle_agreement", "engine against the path-sum oracle", ORACLE_TOL, [
            ("ecp1 branch total", r1.p_total, o1["p_total"]),
            ("ecp1 joint total", r1j.p_total, o1j["p_total"]),
            ("ecp1 branch fidelity", r1.rounds[0].heralded_fidelity, o1["fidelity"]),
            ("ecp1 joint fidelity", r1j.rounds[0].heralded_fidelity, o1j["fidelity"]),
            *((f"series round {r.k}", r.p_success, o["p_success"]) for r, o in zip(rs.rounds, o2["rounds"])),
        ]))

    # trial-level detector loss against the analytic factor
    eta_mc = eta_p if eta_p < 1.0 else 0.8
    est, stderr, analytic = estimate_series_total(alpha_sq, rounds, eta_mc, trials=trials, seed=seed)
    z = abs(est - analytic) / stderr if stderr > 0 else 0.0
    out.append(CheckResult("monte_carlo_detector_loss", z <= MC_SIGMAS,
                           f"sampled total {est:.5f} vs analytic {analytic:.5f} at efficiency "
                           f"{eta_mc}: {z:.2f} standard errors ({trials} trials, seed {seed})"))

    # informational: the two published one-round totals are inconsistent
    # with each other, and per-branch accounting reproduces the larger one
    (_, _, branch_sum), (_, _, total_claim) = _claims(r1, "claimed_branch_sum", "claimed_total")
    return out + [
        CheckResult("published_totals_discrepancy", None,
                    f"summing the published arm probabilities gives {branch_sum:.6f} while the published "
                    f"overall total is {total_claim:.6f}; the arm sum double counts the component with the "
                    f"signal photon still at home (difference {branch_sum - total_claim:.6f})"),
        CheckResult("branch_versus_coherent_total", None,
                    f"per-branch accounting totals {r1.p_total:.6f} but the coherent three-photon run, where "
                    f"both detector groups must fire, totals {r1j.p_total:.6f}; both are reported, neither "
                    "is silently rescaled to match the other"),
    ]


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed is not False for r in results)


def summary(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    n_fail = sum(1 for r in results if r.passed is False)
    n_pass = sum(1 for r in results if r.passed is True)
    lines.append(f"{n_pass} passed, {n_fail} failed")
    return "\n".join(lines)
