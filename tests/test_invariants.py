"""Relations the physics fixes, checked without the oracle.

The corpora pin bytes, and the oracle reads the circuit wiring the way the
engine does, so a defect both share passes them.  These relations hold for
any correct simulation of the protocols, whatever its wiring code.  Each
draws its points, runs 10 rounds of ecp2 (one of ecp1) and compares the
rounds whose expected success probability is above ``FLOOR`` (deeper ones
may underflow).
"""

import math

from hypothesis import given, settings, strategies as st

from ecpsim.engine import run_ecp1, run_ecp2
from ecpsim.measurement import DetectorModel
from ecpsim.params import EntanglementParams, PolarizationParams

ROUNDS = 10
FLOOR = 1e-290
SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)
ALPHA_SQ = st.floats(0.01, 0.99)
GAMMA_SQ = st.floats(0.0, 1.0)


def _successes(alpha_sq, gamma_sq, accounting, eta=1.0):
    pol = None if gamma_sq is None else PolarizationParams.from_gamma_sq(gamma_sq)
    report = run_ecp2(EntanglementParams.from_alpha_sq(alpha_sq), pol, rounds=ROUNDS,
                      accounting=accounting, model=DetectorModel(eta))
    return [r.p_success for r in report.rounds], report.engine.eta_exponent


def _assert_close(got, want, rel):
    compared = [(k, g, w) for k, (g, w) in enumerate(zip(got, want), start=1) if w > FLOOR]
    assert compared  # the first round always succeeds with some probability
    for k, g, w in compared:
        assert abs(g - w) <= rel * w, f"round {k}: {g!r} against {w!r}"


@SETTINGS
@given(ALPHA_SQ, st.one_of(st.none(), GAMMA_SQ), st.sampled_from(["branch", "joint"]), st.floats(0.01, 1.0))
def test_detector_efficiency_factorizes(alpha_sq, gamma_sq, accounting, eta):
    # p_k(eta) = p_k(1) * eta^g, g the report's eta_exponent and eta^g a product; each
    # signature's weight takes the factor before the round sums them, so the two sides differ
    # by the rounding of that sum: a few ulps
    ideal, g = _successes(alpha_sq, gamma_sq, accounting)
    lossy, _ = _successes(alpha_sq, gamma_sq, accounting, eta)
    factor = math.prod([eta] * g)
    _assert_close(lossy, [p * factor for p in ideal], 1e-15)


@SETTINGS
@given(ALPHA_SQ, GAMMA_SQ, GAMMA_SQ)
def test_joint_accounting_is_blind_to_the_polarization(alpha_sq, gamma_sq, other_gamma_sq):
    # the two arms of polarized ecp2 are mirror images, so a joint round succeeds with the same
    # probability whatever share of the photon each arm carries; gamma enters the amplitudes and
    # their rounding, some ten ulps
    got, _ = _successes(alpha_sq, gamma_sq, "joint")
    want, _ = _successes(alpha_sq, other_gamma_sq, "joint")
    _assert_close(got, want, 1e-14)


@SETTINGS
@given(st.floats(0.5, 0.99), st.sampled_from(["branch", "joint"]))
def test_stripped_chain_is_symmetric_in_the_amplitudes(alpha_sq, accounting):
    # P_k depends on |alpha^2 - beta^2| only.  1 - alpha_sq is exact on [0.5, 1], so the two
    # sides run a point and its exact mirror; here they agree bit for bit, as the log-odds
    # ln|beta| - ln|alpha| change sign exactly.  The bound leaves room for an evaluation that
    # rounds the two signs apart, an error each round doubles: some 1e-13 by round 10
    got, _ = _successes(alpha_sq, None, accounting)
    want, _ = _successes(1.0 - alpha_sq, None, accounting)
    _assert_close(got, want, 1e-12)


@SETTINGS
@given(ALPHA_SQ, GAMMA_SQ, st.sampled_from(["ecp1", "ecp2"]))
def test_swapping_gamma_and_delta_swaps_the_branch_arms(alpha_sq, gamma_sq, protocol):
    # the plus arm heralds the signal's V share (delta) and the minus arm its H share (gamma)
    # through mirror-image wiring, so (delta, gamma) in place of (gamma, delta) runs each arm's
    # arithmetic on the other's numbers: the per-arm values swap and every round's sum stays, bit
    # for bit
    ent, pol = EntanglementParams.from_alpha_sq(alpha_sq), PolarizationParams.from_gamma_sq(gamma_sq)
    reports = [run_ecp1(ent, p) if protocol == "ecp1" else run_ecp2(ent, p, rounds=ROUNDS)
               for p in (pol, PolarizationParams(pol.delta, pol.gamma))]
    plain, swapped = ([r.p_success for r in report.rounds] for report in reports)
    assert swapped == plain
    names = [f"claimed_{'success' if protocol == 'ecp1' else 'round1'}_{arm}" for arm in ("plus", "minus")]
    arms = [[report.paper_comparison[name]["simulated_value"] for name in names] for report in reports]
    assert arms[1] == arms[0][::-1]
