"""Closed-form success probabilities quoted for the two protocols.

These are the published claims, kept separate from the simulation so the two
can be compared without either contaminating the other.  The recycling
series implements the explicit per-round pattern

    P_1 = 2 |alpha beta|^2 eta
    P_k = 2 |alpha beta|^(2^k) eta / prod_{j=2..k} (|alpha|^(2^j) + |beta|^(2^j))

evaluated in the log domain so the doubling exponents stay representable to
round 30 and beyond.  The series describes the polarization-stripped
protocol; for the polarized variant the simulated branch values differ, and
the comparison report is exactly where that shows up.
"""

from __future__ import annotations

import math


def branch_success_plus(alpha_sq: float, delta_sq: float) -> float:
    """Claimed one-round success weight of the V-routed arm at t = |alpha|^2."""
    return alpha_sq * (1.0 - alpha_sq) * (1.0 + delta_sq)


def branch_success_minus(alpha_sq: float, gamma_sq: float) -> float:
    """Claimed one-round success weight of the H-routed arm at t = |alpha|^2."""
    return alpha_sq * (1.0 - alpha_sq) * (1.0 + gamma_sq)


def claimed_total(alpha_sq: float) -> float:
    """The published overall single-round success probability, 2|alpha beta|^2."""
    return 2.0 * alpha_sq * (1.0 - alpha_sq)


def joint_total_one_round(alpha_sq: float) -> float:
    """Hand-derived joint-click total for the linear-optics protocol.

    Requiring one click in each arm's detector pair leaves 2|alpha|^2|beta|^4,
    not the published per-branch sum; recorded for comparison.
    """
    return 2.0 * alpha_sq * (1.0 - alpha_sq) ** 2


def qnd_round_success(alpha_sq: float, delta_sq: float, t: float) -> float:
    """Claimed first-round success weight of the nondemolition arm at coupler t."""
    return alpha_sq * (1.0 - t) + (1.0 - alpha_sq) * delta_sq * t


def _logaddexp(x: float, y: float) -> float:
    if x == -math.inf:
        return y
    if y == -math.inf:
        return x
    hi, lo = (x, y) if x >= y else (y, x)
    return hi + math.log1p(math.exp(lo - hi))


def round_success_series(
    alpha_sq: float, eta_p: float = 1.0, max_rounds: int = 1
) -> tuple[float, ...]:
    """P_k for k = 1..max_rounds of the recycled, polarization-stripped protocol."""
    if not 0.0 < alpha_sq < 1.0:
        return tuple(0.0 for _ in range(max_rounds))
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    beta_sq = 1.0 - alpha_sq
    la = math.log(alpha_sq)
    lb = math.log(beta_sq)
    log_eta = math.log(eta_p) if eta_p > 0.0 else -math.inf
    values = []
    log_denom = 0.0
    # P_{k+1} <= P_k / 2, so once P_k underflows every later round does too;
    # past round 1024 (where 2.0**k overflows) P_k <= 2^-1025 reads 0 as well
    for k in range(1, min(max_rounds, 1024) + 1):
        if k >= 2:
            e = 2.0 ** (k - 1)
            log_denom += _logaddexp(e * la, e * lb)
        log_pk = math.log(2.0) + 2.0 ** (k - 1) * (la + lb) + log_eta - log_denom
        values.append(math.exp(log_pk) if log_pk > -745.0 else 0.0)
        if values[-1] == 0.0:
            break
    values.extend([0.0] * (max_rounds - len(values)))
    return tuple(values)

