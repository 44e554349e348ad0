"""Closed-form success probabilities quoted for the two protocols.

These are the published claims, kept separate from the simulation so the two
can be compared without either contaminating the other.  The recycling
series is published as the per-round pattern

    P_1 = 2 |alpha beta|^2 eta
    P_k = 2 |alpha beta|^(2^k) eta / prod_{j=2..k} (|alpha|^(2^j) + |beta|^(2^j))

With a = max(|alpha|^2, |beta|^2), b = min, r = b/a and d = a - b, the
product telescopes, prod_{i=1..k-1} (1 + r^(2^i)) = (1 - r^(2^k))/(1 - r^2),
to P_k = eta d / sinh(2^k artanh d), with limit eta 2^-k at d = 0.  It is
evaluated without cancellation: d = |1 - 2|alpha|^2| and b are exact near
balance, the rate is lambda = log1p(d/b) = ln(a/b) = 2 artanh d, and with
m = 2^(k-1) lambda, P_k = 2 eta d e^-m / -expm1(-2m).  As sinh(2x) >= 2 sinh x,
P_(k+1) <= P_k / 2, so every round after the first that underflows is 0.
The rounds sum to eta (1 - d) = 2 eta min(|alpha|^2, |beta|^2), the
single-copy optimum (G. Vidal, PRL 83, 1046 (1999)).  The series describes
the polarization-stripped protocol; for the polarized variant the simulated
branch values differ, and the comparison report is exactly where that shows
up.
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
    return 2.0 * alpha_sq * ((1.0 - alpha_sq) * (1.0 - alpha_sq))


def qnd_round_success(alpha_sq: float, delta_sq: float, t: float) -> float:
    """Claimed first-round success weight of the nondemolition arm at coupler t."""
    return alpha_sq * (1.0 - t) + (1.0 - alpha_sq) * delta_sq * t


def round_success_series(
    alpha_sq: float, eta_p: float = 1.0, max_rounds: int = 1
) -> tuple[float, ...]:
    """P_k for k = 1..max_rounds of the recycled, polarization-stripped protocol."""
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    if not 0.0 <= eta_p <= 1.0:
        raise ValueError(f"eta_p must lie in [0, 1], got {eta_p}")
    if not 0.0 < alpha_sq < 1.0:
        return (0.0,) * max_rounds
    d = abs(1.0 - 2.0 * alpha_sq)
    rate = math.log1p(d / min(alpha_sq, 1.0 - alpha_sq))  # ln(a/b) = 2 artanh d
    values = []
    for k in range(1, max_rounds + 1):
        m = math.ldexp(rate, k - 1)
        pk = 2.0 * eta_p * d * math.exp(-m) / -math.expm1(-2.0 * m) if d else math.ldexp(eta_p, -k)
        values.append(pk)
        if pk == 0.0:
            break
    values.extend([0.0] * (max_rounds - len(values)))
    return tuple(values)
