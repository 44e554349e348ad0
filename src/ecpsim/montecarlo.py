"""Sampled validation of the analytic detector-efficiency factors.

The exact engine multiplies heralded weights by the detector efficiency
analytically.  This module checks that shortcut the long way: a sampled run
is the exact ideal-detector run of its document, then sampled by
``sample_report`` as a Markov chain over recycling rounds.  Each round
splits the surviving trials into success, recycle and drop with binomial
count draws (together the multinomial over the three outcomes), then thins
the heralded count photon by photon, one binomial draw per success-detector
photon, instead of assuming the eta^m factor.  Time and memory are
O(rounds), whatever the trial count.  The chain and the analytic factor are
thus exercised against each other rather than both trusting the same
arithmetic.

Only physically normalizable chains can be sampled.  Per-branch accounting
on the two-arm layout counts the shared component once per arm, so it is no
distribution of trials; asking for trials on it is an error, whatever its
round weights add up to, not something to paper over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .circuits import builtin_doc
from .engine import ConfigError, execute, run_ecp2
from .params import DEFAULT_TRIALS, EntanglementParams, PolarizationParams
from .report import EngineInfo, ProtocolReport, RoundResult

if TYPE_CHECKING:
    import numpy as np

MAX_TRIALS = 10**15  # keeps every count well inside numpy's int64 binomial


@dataclass(frozen=True)
class ChainTables:
    """Raw herald weights per round, before any detector efficiency."""

    w_success: tuple[float, ...]
    w_recycle: tuple[float, ...]
    detected_photons: int  # success-detector photons per heralded event

    def validate(self) -> None:
        prev = 1.0
        for k, (ws, wr) in enumerate(zip(self.w_success, self.w_recycle), start=1):
            if prev <= 0.0:
                continue
            if ws / prev + wr / prev > 1.0 + 1e-9:
                raise ConfigError(
                    f"round {k} weights exceed the surviving probability mass; "
                    "this accounting is not a physical trial distribution"
                )
            prev = wr


def tables_from_report(report: ProtocolReport) -> ChainTables:
    if report.eta_p != 1.0:
        raise ConfigError("chain tables need an ideal-detector exact run")
    t = ChainTables(
        w_success=tuple(r.p_success for r in report.rounds),
        w_recycle=tuple(r.p_fail_recyclable for r in report.rounds),
        detected_photons=report.engine.eta_exponent,
    )
    t.validate()
    if report.accounting == "branch" and report.schedule["minus"]:
        raise ConfigError(
            "per-branch accounting on two arms is not a trial distribution; "
            "sample it under joint accounting"
        )
    return t


def sample_chain(
    tables: ChainTables, eta_p: float, trials: int, rng: np.random.Generator
) -> tuple[list[int], list[int]]:
    """Counts of detected successes and of recycles, per round."""
    alive = trials
    succ_counts = []
    rec_counts = []
    prev = 1.0
    for ws, wr in zip(tables.w_success, tables.w_recycle):
        if prev <= 0.0:
            succ_counts.append(0)
            rec_counts.append(0)
            continue
        # validate() lets q_s + q_r reach 1 + 1e-9; clipping each conditional
        # probability to [0, 1] then recycles every trial not heralded
        q_s = min(max(ws / prev, 0.0), 1.0)
        q_r = min(max(wr / prev / (1.0 - q_s), 0.0), 1.0) if q_s < 1.0 else 0.0
        heralded = int(rng.binomial(alive, q_s))
        recycled = int(rng.binomial(alive - heralded, q_r))
        detected = heralded
        for _ in range(tables.detected_photons):
            detected = int(rng.binomial(detected, eta_p))
        succ_counts.append(detected)
        rec_counts.append(recycled)
        alive = recycled
        prev = wr
    return succ_counts, rec_counts


def sample_report(
    exact: ProtocolReport,
    eta_p: float,
    trials: int,
    seed: int | np.random.SeedSequence,
) -> ProtocolReport:
    """``exact``, an ideal-detector report, with its rounds sampled at ``eta_p``.

    Heralded fidelities are not estimated by sampling and stay null.  The
    report keeps ``seed`` as given: ``sweep`` passes a ``SeedSequence`` per
    grid point, and reads that report without writing it."""
    import numpy as np

    tables = tables_from_report(exact)
    if trials < 1:
        raise ConfigError(f"trials must be positive, got {trials}")
    if trials > MAX_TRIALS:
        raise ConfigError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    succ_counts, rec_counts = sample_chain(
        tables, eta_p, trials, np.random.default_rng(seed)
    )
    p_hat = sum(succ_counts) / trials
    mc_rounds = [
        RoundResult(
            k=r.k,
            t=r.t,
            p_success=s / trials,
            p_fail_recyclable=c / trials,
            heralded_fidelity=None,
        )
        for r, s, c in zip(exact.rounds, succ_counts, rec_counts)
    ]
    return replace(
        exact,
        eta_p=eta_p,
        rounds=mc_rounds,
        p_total=p_hat,
        engine=EngineInfo("monte_carlo", tables.detected_photons),
        seed=seed,
        trials=trials,
        stderr=math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials),
        paper_comparison={},
    )


def run_monte_carlo(
    protocol: str,
    ent: EntanglementParams,
    pol: PolarizationParams | None = None,
    *,
    rounds: int = 1,
    accounting: str = "branch",
    eta_p: float = 1.0,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    t1: float | None = None,
    t2: float | None = None,
) -> ProtocolReport:
    """``sample_report`` of the exact ideal-detector run of the builtin layout,
    checked exactly as ``execute`` checks it."""
    if protocol not in ("ecp1", "ecp2"):
        raise ConfigError(f"unknown protocol {protocol!r}")
    doc = builtin_doc(protocol if pol is not None else protocol + "_stripped")
    exact = execute(doc, ent, pol, rounds=rounds, accounting=accounting, t1=t1, t2=t2)
    return sample_report(exact, eta_p, trials, seed)


def estimate_series_total(
    alpha_sq: float,
    rounds: int,
    eta_p: float,
    trials: int = DEFAULT_TRIALS,
    seed: int | np.random.SeedSequence = 0,
) -> tuple[float, float, float]:
    """(estimate, stderr, analytic) for the single-arm recycling chain, whose
    one heralding group gives the analytic total ``p_total * eta_p``."""
    exact = run_ecp2(EntanglementParams.from_alpha_sq(alpha_sq), rounds=rounds)
    sampled = sample_report(exact, eta_p, trials, seed)
    return sampled.p_total, sampled.stderr, exact.p_total * eta_p
