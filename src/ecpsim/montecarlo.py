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

import functools
import math
from operator import index

from .circuits import builtin_doc
from .engine import ConfigError, execute, run_ecp2
from .params import DEFAULT_TRIALS, EntanglementParams, PolarizationParams
from .record import Frozen
from .report import EngineInfo, ProtocolReport, RoundResult

MAX_TRIALS = 10**15  # keeps every count well inside the int64 arithmetic of numpy's binomial, the reference
_M32, _M53, _M64, _M128 = (1 << 32) - 1, (1 << 53) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT, _UNIT = 0x2360ED051FC65DA44385DF649FCCF645, 1.0 / (1 << 53)
_TWICE = (1 << 64) + 1  # x * _TWICE holds a 64-bit x twice over, so one shift of it rotates x


def _words(x) -> list[int]:
    """``SeedSequence``'s uint32 words of a non-negative int (low first), or of each int of a sequence."""
    if hasattr(x, "__iter__"):
        return [w for v in x for w in _words(v)]
    if (n := index(x)) < 0:
        raise ValueError(f"a seed must be non-negative, got {n}")
    return [n >> i & _M32 for i in range(0, max(n.bit_length(), 1), 32)]


@functools.cache
def _seed_plan(words: int) -> tuple[tuple, tuple]:
    """``SeedSequence``'s hashes of ``words`` entropy words: (word, pool slot, xor, multiplier) steps
    that mix them into the pool, then (slot, xor, multiplier, bit) steps of ``generate_state(4,
    uint64)``, whose word i is bit 32 * (i ^ 2) of initseq << 128 | initstate in PCG64."""
    steps = [(i, i) for i in range(4)] + [(s, d) for s in range(words) for d in range(4) if s != d]
    h = 0x43B0D7E5
    mix = tuple((s, d, h, h := h * 0x931E8875 & _M32) for s, d in steps)
    h = 0x8B51F9DD
    return mix, tuple((i & 3, h, h := h * 0x58F38DED & _M32, 32 * (i ^ 2)) for i in range(8))


class BinomialStream:
    """numpy's ``default_rng(SeedSequence(entropy, spawn_key=spawn_key)).binomial(n, p)``, draw for draw:
    PCG64 (XSL-RR; O'Neill, HMC-CS-2014-0905) draws numpy's inversion where min(p, 1 - p) * n <= 30, else
    its BTPE (Kachitvichyanukul and Schmeiser, CACM 31(2):216, 1988), each stepping PCG64 inline."""

    __slots__ = ("state", "inc")

    def __init__(self, entropy, spawn_key=()):
        # the entropy padded to the pool's 4 slots (numpy hashes 0 for a missing word), then the spawn key
        pool = (words := _words(entropy)) + [0] * (4 - len(words)) + _words(spawn_key)
        mix, out = _seed_plan(len(pool))
        for s, d, hx, hm in mix:
            v = (pool[s] ^ hx) * hm & _M32
            v ^= v >> 16
            if s != d:
                v = (0xCA01F9DD * pool[d] - 0x4973F715 * v) & _M32
                v ^= v >> 16
            pool[d] = v
        init = sum(((v := (pool[i] ^ hx) * hm & _M32) ^ v >> 16) << at for i, hx, hm, at in out)
        self.inc = inc = (init >> 127 | 1) & _M128  # initseq << 1 | 1
        self.state = ((init & _M128) + inc) * _PCG_MULT + inc & _M128

    def binomial(self, n: int, p: float) -> int:
        if not 0.0 <= p <= 1.0 or n < 0:
            raise ValueError(f"a binomial draw needs n >= 0 and p in [0, 1], got {n} and {p}")
        if n == 0 or p == 0.0:
            return 0
        flip = p > 0.5
        p = 1.0 - p if flip else p
        s, inc = self.state, self.inc
        if p * n <= 30.0:  # inversion
            s = s * _PCG_MULT + inc & _M128
            u = (((s >> 64 ^ s) & _M64) * _TWICE >> (s >> 122) + 11 & _M53) * _UNIT
            px = qn = math.exp(n * math.log1p(-p))
            y = 0
            if u > qn:  # else 0, without the bound
                q, np_ = 1.0 - p, n * p
                bound = int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1)))
                while u > px:
                    y += 1
                    if y > bound:
                        y, px = 0, qn
                        s = s * _PCG_MULT + inc & _M128
                        u = (((s >> 64 ^ s) & _M64) * _TWICE >> (s >> 122) + 11 & _M53) * _UNIT
                    else:
                        u -= px
                        px = ((n - y + 1) * p * px) / (y * q)
            self.state = s
            return n - y if flip else y
        q = 1.0 - p
        fm = n * p + p
        m = math.floor(fm)
        p1 = math.floor(2.195 * math.sqrt(n * p * q) - 4.6 * q) + 0.5
        xm = m + 0.5
        xl, xr = xm - p1, xm + p1
        c = 0.134 + 20.5 / (15.3 + m)
        a, b = (fm - xl) / (fm - xl * p), (xr - fm) / (xr * q)
        laml, lamr = a * (1.0 + a / 2.0), b * (1.0 + b / 2.0)
        p2 = p1 * (1.0 + 2.0 * c)
        p3, p4 = p2 + c / laml, p2 + c / laml + c / lamr
        while True:
            s = s * _PCG_MULT + inc & _M128
            u = (((s >> 64 ^ s) & _M64) * _TWICE >> (s >> 122) + 11 & _M53) * _UNIT * p4
            s = s * _PCG_MULT + inc & _M128
            v = (((s >> 64 ^ s) & _M64) * _TWICE >> (s >> 122) + 11 & _M53) * _UNIT
            if u <= p1:  # the triangle
                y = math.floor(xm - p1 * v + u)
                break
            if u <= p2:  # the parallelograms
                x = xl + (u - p1) / c
                v = v * c + 1.0 - abs(m - x + 0.5) / p1
                if v > 1.0:
                    continue
                y = math.floor(x)
            elif u <= p3:  # the left tail; numpy rejects v = 0 there, as this does before its log
                if v == 0.0 or (y := math.floor(xl + math.log(v) / laml)) < 0:
                    continue
                v = v * (u - p2) * laml
            else:  # the right tail
                if v == 0.0 or (y := math.floor(xr - math.log(v) / lamr)) > n:
                    continue
                v = v * (u - p3) * lamr
            k, nrq = abs(y - m), n * p * q
            if 20 < k < nrq / 2.0 - 1:  # squeeze, then Stirling's bound on the log of f(y) / f(m)
                rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
                t = -k * k / (2 * nrq)
                A = math.log(v) if v > 0.0 else -math.inf  # v <= 0 accepts, as numpy's log does
                if A < t - rho:
                    break
                if A > t + rho:
                    continue
                x1, f1, z, w = float(y + 1), float(m + 1), float(n + 1 - m), float(n - y + 1)
                if A > (xm * math.log(f1 / x1) + (n - m + 0.5) * math.log(z / w)
                        + (y - m) * math.log(w * p / (x1 * q))
                        + _stirling(f1) + _stirling(z) + _stirling(x1) + _stirling(w)):
                    continue
                break
            F, sr = 1.0, p / q  # else f(y) / f(m) by the recursion
            a = sr * (n + 1)
            for i in range(m + 1, y + 1):
                F *= a / i - sr
            for i in range(y + 1, m + 1):
                F /= a / i - sr
            if v <= F:
                break
        self.state = s
        return n - y if flip else y


def _stirling(x: float) -> float:
    x2 = x * x
    return (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x / 166320.0


class ChainTables(Frozen):
    """Raw herald weights per round, before any detector efficiency, and the success-detector
    photons per heralded event."""

    def __init__(self, w_success: tuple[float, ...], w_recycle: tuple[float, ...], detected_photons: int):
        fields = self.__dict__  # written directly: one is built per sampled run
        fields["w_success"], fields["w_recycle"], fields["detected_photons"] = w_success, w_recycle, detected_photons

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


def sample_chain(tables: ChainTables, eta_p: float, trials: int, rng) -> tuple[list[int], list[int]]:
    """Counts of detected successes and of recycles, per round, drawn by ``rng.binomial(n, p)``."""
    alive, prev, succ_counts, rec_counts = trials, 1.0, [], []
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
    seed,
) -> ProtocolReport:
    """``exact``, an ideal-detector report, with its rounds sampled at ``eta_p``.

    Heralded fidelities are not estimated by sampling and stay null.  ``seed`` is
    an int or has a ``SeedSequence``'s ``entropy`` and ``spawn_key``, and the
    counts are numpy's ``default_rng(seed)``'s.  The report keeps ``seed`` as
    given: ``sweep`` passes a spawned child per grid point, and writes no report."""
    tables = tables_from_report(exact)
    if trials < 1:
        raise ConfigError(f"trials must be positive, got {trials}")
    if trials > MAX_TRIALS:
        raise ConfigError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    rng = BinomialStream(getattr(seed, "entropy", seed), getattr(seed, "spawn_key", ()))
    succ_counts, rec_counts = sample_chain(tables, eta_p, trials, rng)
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
    return exact.replace(
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
    seed=0,
) -> tuple[float, float, float]:
    """(estimate, stderr, analytic) for the single-arm recycling chain, whose
    one heralding group gives the analytic total ``p_total * eta_p``."""
    exact = run_ecp2(EntanglementParams.from_alpha_sq(alpha_sq), rounds=rounds)
    sampled = sample_report(exact, eta_p, trials, seed)
    return sampled.p_total, sampled.stderr, exact.p_total * eta_p
