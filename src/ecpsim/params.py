"""Input parameter sets and the round-by-round coupler schedule."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .fock import NORM_TOL

DEFAULT_TRIALS = 100_000  # sampled trials per run when none are given


class ParameterError(ValueError):
    pass


@dataclass(frozen=True)
class EntanglementParams:
    """Amplitudes (alpha, beta) of the shared single photon, |a|^2+|b|^2 = 1."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.alpha) and cmath.isfinite(self.beta)):  # a NaN norm fails no test below
            raise ParameterError(f"alpha and beta must be finite, got {self.alpha}, {self.beta}")
        try:
            n = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        except OverflowError:  # a square past the float range: inf fails the norm test
            n = math.inf
        if abs(n - 1.0) > NORM_TOL:
            raise ParameterError(f"|alpha|^2 + |beta|^2 = {n}, expected 1")

    @classmethod
    def from_alpha_sq(cls, alpha_sq: float) -> "EntanglementParams":
        if not 0.0 <= alpha_sq <= 1.0:
            raise ParameterError(f"alpha_sq must lie in [0, 1], got {alpha_sq}")
        return cls(math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq))

    @property
    def alpha_sq(self) -> float:
        return abs(self.alpha) ** 2

    @property
    def beta_sq(self) -> float:
        return abs(self.beta) ** 2

    def require_nondegenerate(self) -> None:
        """Concentration needs both amplitudes strictly nonzero."""
        if self.alpha == 0 or self.beta == 0:
            raise ParameterError(
                "degenerate input (alpha or beta exactly zero) cannot be concentrated"
            )


@dataclass(frozen=True)
class PolarizationParams:
    """Amplitudes (gamma, delta) of the polarization qubit; either may be 0."""

    gamma: complex
    delta: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.gamma) and cmath.isfinite(self.delta)):
            raise ParameterError(f"gamma and delta must be finite, got {self.gamma}, {self.delta}")
        try:
            n = abs(self.gamma) ** 2 + abs(self.delta) ** 2
        except OverflowError:
            n = math.inf
        if abs(n - 1.0) > NORM_TOL:
            raise ParameterError(f"|gamma|^2 + |delta|^2 = {n}, expected 1")

    @classmethod
    def from_gamma_sq(cls, gamma_sq: float) -> "PolarizationParams":
        if not 0.0 <= gamma_sq <= 1.0:
            raise ParameterError(f"gamma_sq must lie in [0, 1], got {gamma_sq}")
        return cls(math.sqrt(gamma_sq), math.sqrt(1.0 - gamma_sq))

    @property
    def gamma_sq(self) -> float:
        return abs(self.gamma) ** 2

    @property
    def delta_sq(self) -> float:
        return abs(self.delta) ** 2


def vbs_schedule(ent: EntanglementParams, max_rounds: int) -> tuple[float, ...]:
    """Transmittances t_k = 1 / (1 + (|beta|/|alpha|)^(2^k)) for k = 1..max_rounds.

    Round 1 reduces to |alpha|^2.  Computed in the log-ratio domain so the
    doubling exponent stays finite well past round 30 for any nondegenerate
    input; the limiting values are 0 or 1 (a fully transmitting or fully
    reflecting coupler), which the element accepts.
    """
    ent.require_nondegenerate()
    if max_rounds < 1:
        raise ParameterError(f"schedule needs at least one round, got {max_rounds}")
    log_ratio = math.log(abs(ent.beta)) - math.log(abs(ent.alpha))
    entries = []
    for k in range(1, max_rounds + 1):
        x = (2.0**k) * log_ratio
        # exp underflow (x very negative) gives exactly t = 1, as it should
        entries.append(0.0 if x > 700.0 else 1.0 / (1.0 + math.exp(x)))
        # |x| only grows with k, so a t of 0 or 1 (or 1/2 at alpha^2 = 1/2) is
        # final; stopping here also keeps 2.0**k below its overflow at k = 1024
        if log_ratio == 0.0 or entries[-1] in (0.0, 1.0):
            break
    entries.extend(entries[-1:] * (max_rounds - len(entries)))
    return tuple(entries)
