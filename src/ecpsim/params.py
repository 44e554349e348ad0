"""Input parameter sets and the round-by-round coupler schedule."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .fock import NORM_TOL

DEFAULT_TRIALS = 100_000  # sampled trials per run when none are given


class ParameterError(ValueError):
    pass


def _abs_sq(z: complex) -> float:
    """|z|^2 as a product, which rounds once (``** 2`` goes through the platform's ``pow``)."""
    m = abs(z)
    return m * m


@dataclass(frozen=True)
class EntanglementParams:
    """Amplitudes (alpha, beta) of the shared single photon, |a|^2+|b|^2 = 1."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.alpha) and cmath.isfinite(self.beta)):  # a NaN norm fails no test below
            raise ParameterError(f"alpha and beta must be finite, got {self.alpha}, {self.beta}")
        try:
            n = _abs_sq(self.alpha) + _abs_sq(self.beta)
        except OverflowError:  # a complex modulus past the float range: inf fails the norm test
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
        return _abs_sq(self.alpha)

    @property
    def beta_sq(self) -> float:
        return _abs_sq(self.beta)

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
            n = _abs_sq(self.gamma) + _abs_sq(self.delta)
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
        return _abs_sq(self.gamma)

    @property
    def delta_sq(self) -> float:
        return _abs_sq(self.delta)


def _doubling(ent: EntanglementParams, max_rounds: int, value, final: tuple) -> tuple:
    """``value(x_k)`` for k = 1..max_rounds, x_k = 2^k ln(|beta|/|alpha|) the log-odds of round
    k's coupler reflectance 1 - t_k.  Computed in the log-ratio domain so the doubling exponent
    stays finite for any nondegenerate input; a value in ``final`` (a fully transmitting or fully
    reflecting coupler) repeats to the last round.
    """
    ent.require_nondegenerate()
    if max_rounds < 1:
        raise ParameterError(f"schedule needs at least one round, got {max_rounds}")
    log_ratio = math.log(abs(ent.beta)) - math.log(abs(ent.alpha))
    entries = []
    for k in range(1, max_rounds + 1):
        entries.append(value((2.0**k) * log_ratio))
        # |x| only grows with k, so a final value (or any at alpha^2 = 1/2) is the
        # last; stopping here also keeps 2.0**k below its overflow at k = 1024
        if log_ratio == 0.0 or entries[-1] in final:
            break
    entries.extend(entries[-1:] * (max_rounds - len(entries)))
    return tuple(entries)


def vbs_schedule(ent: EntanglementParams, max_rounds: int) -> tuple[float, ...]:
    """Transmittances t_k = 1 / (1 + (|beta|/|alpha|)^(2^k)) for k = 1..max_rounds.

    Round 1 reduces to |alpha|^2; the limiting values are 0 or 1, which the
    element accepts.
    """
    # exp underflow (x very negative) gives exactly t = 1, as it should
    return _doubling(ent, max_rounds, lambda x: 0.0 if x > 700.0 else 1.0 / (1.0 + math.exp(x)), (0.0, 1.0))


def _pair(x: float) -> tuple[float, float]:
    """``(1/sqrt(1 + e^-x), 1/sqrt(1 + e^x))``, the smaller one as ``e^(-|x|/2) / sqrt(1 + e^-|x|)``
    so that no exponential overflows."""
    e = math.exp(-abs(x))
    large, small = 1.0 / math.sqrt(1.0 + e), math.exp(-0.5 * abs(x)) / math.sqrt(1.0 + e)
    return (large, small) if x >= 0.0 else (small, large)


def vbs_pair_schedule(ent: EntanglementParams, max_rounds: int) -> tuple[tuple[float, float], ...]:
    """``vbs_pair(t_k)``, the coupler pairs ``(sqrt(1 - t_k), sqrt(t_k))`` of ``vbs_schedule``,
    taken from the log-odds x_k without forming 1 - t_k: no cancellation where t_k nears 1, and
    each pair reaches ``(1, 0)`` or ``(0, 1)`` only where its smaller entry underflows."""
    return _doubling(ent, max_rounds, _pair, ((1.0, 0.0), (0.0, 1.0)))
