"""The three benchmark workloads: seeded inputs, the timed call, the check.

Each workload is a closed loop with one caller: the next input is sent only
after the previous call has returned.  Inputs come from
``random.Random(seed)`` in blocks.  A block holds every configuration of the
workload once, in seeded order, so the mix of configurations is the same for
every seed and only parameter values and order change; that keeps the
throughput of two seeds comparable.  A run takes the first ``ops`` inputs, a
whole number of blocks, as its operation list and calls them in turn (see
``run.Loop``).

``run`` is the timed call.  It returns the output bytes that go into the
digest and whatever ``check`` needs.  ``check`` runs outside the timed region
and returns None when the output is right, else the reason.  A reference that
raises fails the operation as well (the caller catches it).
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import ecpsim.cli
from ecpsim import (
    DetectorModel,
    EntanglementParams,
    PolarizationParams,
    run_ecp1,
    run_ecp2,
    run_monte_carlo,
)
from ecpsim.formulas import (
    branch_success_minus,
    branch_success_plus,
    claimed_total,
    joint_total_one_round,
    round_success_series,
)
from ecpsim.oracle import oracle_ecp2

ROUNDS = (1, 3, 5, 8)
ACCOUNTINGS = ("branch", "joint")
ETAS = (1.0, 0.8)
WEIGHT_RANGE = (0.05, 0.95)  # alpha^2 and gamma^2 are drawn uniformly from here

ECP1_TOL = 1e-12  # relative, against the single-round closed forms
SERIES_TOL = 1e-9  # relative, stripped ecp2 against the per-round series
SERIES_FLOOR = 1e-300  # series terms at or below this are not compared
ORACLE_TOL = 1e-9  # relative, polarized ecp2 against the path-sum oracle
FIDELITY_TOL = 1e-12  # heralded fidelity in every round that has mass
MC_SIGMAS = 5.0  # sampled total against the exact eta-run

MC_TRIALS = 1_000_000
MC_ETA = 0.8
CLI_TRIALS = "20000"
SWEEP_HEADER = ["alpha", "alpha_sq", "eta", "k", "p_total_formula", "p_total_sim", "stderr"]
SHIPPED = ("ecp1", "ecp2", "ecp1_stripped", "ecp2_stripped")

# (protocol, polarized, accounting, rounds)
EXACT_CONFIGS = [("ecp1", pol, acc, 1) for pol in (False, True) for acc in ACCOUNTINGS] + [
    ("ecp2", pol, acc, r) for pol in (False, True) for acc in ACCOUNTINGS for r in ROUNDS
]
# the chains that can be sampled: stripped ecp2, polarized joint ecp1/ecp2
MC_CONFIGS = (
    [("ecp2", False, "branch", r) for r in ROUNDS]
    + [("ecp2", True, "joint", r) for r in ROUNDS]
    + [("ecp1", True, "joint", 1)]
)
CLI_KINDS = ("run_ecp1", "run_ecp2", "run_circuit", "run_mc", "sweep", "verify")


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], Iterator]  # seed -> endless inputs
    run: Callable  # input -> (output bytes, detail for check)
    check: Callable  # (input, detail) -> None or reason
    units: Callable  # input -> work units a passed operation adds
    unit: str
    digest_ops: int  # leading operations covered by the output digest
    block: int  # operations in a block: every configuration once
    ops: int  # operations in a run's list, a whole number of blocks


@dataclass(frozen=True)
class Point:
    protocol: str
    alpha_sq: float
    gamma_sq: float | None  # None selects the stripped layout
    accounting: str
    rounds: int
    eta: float
    trials: int = 0
    seed: int = 0

    @property
    def label(self) -> str:
        layout = "stripped" if self.gamma_sq is None else "polarized"
        return f"{self.protocol}/{layout}/{self.accounting}/r{self.rounds}"


def _points(seed: int, configs, sampled: bool) -> Iterator[Point]:
    rng = random.Random(seed)
    while True:
        block = list(configs)
        rng.shuffle(block)
        for protocol, polarized, accounting, rounds in block:
            yield Point(
                protocol,
                rng.uniform(*WEIGHT_RANGE),
                rng.uniform(*WEIGHT_RANGE) if polarized else None,
                accounting,
                rounds,
                eta=MC_ETA if sampled else rng.choice(ETAS),
                trials=MC_TRIALS if sampled else 0,
                seed=rng.randrange(2**32) if sampled else 0,
            )


def _params(p: Point):
    ent = EntanglementParams.from_alpha_sq(p.alpha_sq)
    pol = None if p.gamma_sq is None else PolarizationParams.from_gamma_sq(p.gamma_sq)
    return ent, pol


def _exact(p: Point):
    ent, pol = _params(p)
    model = DetectorModel(eta_p=p.eta)
    if p.protocol == "ecp1":
        return run_ecp1(ent, pol, accounting=p.accounting, model=model)
    return run_ecp2(ent, pol, rounds=p.rounds, accounting=p.accounting, model=model)


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


# ---------------------------------------------------------------------------
# exact_grid


def run_exact(p: Point):
    report = _exact(p)
    return report.to_json().encode(), report


def _ecp1_closed_form(p: Point) -> float:
    a2 = p.alpha_sq
    if p.gamma_sq is None:
        return claimed_total(a2) * p.eta
    if p.accounting == "joint":
        return joint_total_one_round(a2) * p.eta**2
    g2 = p.gamma_sq
    return (branch_success_plus(a2, 1.0 - g2) + branch_success_minus(a2, g2)) * p.eta


def check_exact(p: Point, report) -> str | None:
    if len(report.rounds) != p.rounds:
        return f"{len(report.rounds)} rounds reported, {p.rounds} requested"
    for r in report.rounds:
        if r.p_success > 0.0 and (
            r.heralded_fidelity is None or abs(r.heralded_fidelity - 1.0) > FIDELITY_TOL
        ):
            return f"round {r.k} heralded fidelity {r.heralded_fidelity!r}"
    if p.protocol == "ecp1":
        want = _ecp1_closed_form(p)
        if not _close(report.p_total, want, ECP1_TOL):
            return f"p_total {report.p_total!r} vs closed form {want!r}"
    elif p.gamma_sq is None:
        series = round_success_series(p.alpha_sq, p.eta, p.rounds)
        for r, want in zip(report.rounds, series):
            if want > SERIES_FLOOR and not _close(r.p_success, want, SERIES_TOL):
                return f"round {r.k} p_success {r.p_success!r} vs series {want!r}"
    else:
        ref = oracle_ecp2(
            p.alpha_sq, p.gamma_sq, rounds=p.rounds, accounting=p.accounting, eta=p.eta
        )
        for r, o in zip(report.rounds, ref["rounds"]):
            if not _close(r.p_success, o["p_success"], ORACLE_TOL):
                return f"round {r.k} p_success {r.p_success!r} vs oracle {o['p_success']!r}"
    return None


# ---------------------------------------------------------------------------
# mc_chain


def run_mc(p: Point):
    ent, pol = _params(p)
    report = run_monte_carlo(
        p.protocol,
        ent,
        pol,
        rounds=p.rounds,
        accounting=p.accounting,
        eta_p=p.eta,
        trials=p.trials,
        seed=p.seed,
    )
    return report.to_json().encode(), report


def check_mc(p: Point, report) -> str | None:
    if (report.engine.kind, report.trials, report.seed) != ("monte_carlo", p.trials, p.seed):
        return "report does not echo the sampling settings"
    if len(report.rounds) != p.rounds:
        return f"{len(report.rounds)} rounds reported, {p.rounds} requested"
    exact = _exact(p).p_total
    if report.stderr > 0.0:
        z = abs(report.p_total - exact) / report.stderr
        if z > MC_SIGMAS:
            return f"sampled {report.p_total!r} is {z:.1f} standard errors from exact {exact!r}"
    elif report.p_total != exact:
        return f"sampled {report.p_total!r} with zero spread vs exact {exact!r}"
    return None


# ---------------------------------------------------------------------------
# cli_mix


@dataclass(frozen=True)
class Call:
    kind: str
    argv: tuple[str, ...]
    rounds: int  # rounds a run report must hold
    rows: int = 0  # data rows a sweep must print

    @property
    def label(self) -> str:
        return f"{self.kind}/r{self.rounds}"


def _calls(seed: int, circuit_dir: Path) -> Iterator[Call]:
    rng = random.Random(seed)

    def num() -> str:
        return f"{rng.uniform(*WEIGHT_RANGE):.6f}"

    while True:
        # every kind once at every depth, so each block fails alike
        block = [(kind, rounds) for kind in CLI_KINDS for rounds in ROUNDS]
        rng.shuffle(block)
        for kind, rounds in block:
            a2, g2 = num(), num()
            pol_args = ("--gamma-sq", g2) if rng.random() < 0.5 else ()
            acc = rng.choice(ACCOUNTINGS)
            eta = str(rng.choice(ETAS))
            seed_arg = str(rng.randrange(2**31))
            if kind == "run_ecp1":
                argv = ("run", "--protocol", "ecp1", "--alpha-sq", a2, *pol_args)
                yield Call(kind, (*argv, "--accounting", acc, "--eta", eta), 1)
            elif kind == "run_ecp2":
                argv = ("run", "--protocol", "ecp2", "--alpha-sq", a2, *pol_args)
                argv += ("--rounds", str(rounds), "--accounting", acc, "--eta", eta)
                yield Call(kind, argv, rounds)
            elif kind == "run_circuit":
                name = rng.choice(SHIPPED)
                rounds = rounds if name.startswith("ecp2") else 1
                argv = ("run", "--circuit", str(circuit_dir / f"{name}.ecp"), "--alpha-sq", a2)
                if not name.endswith("_stripped"):
                    argv += ("--gamma-sq", g2)
                yield Call(kind, (*argv, "--rounds", str(rounds), "--accounting", acc), rounds)
            elif kind == "run_mc":
                protocol, polarized, acc, _ = rng.choice([c for c in MC_CONFIGS if c[3] == rounds])
                argv = ("run", "--engine", "monte_carlo", "--protocol", protocol, "--alpha-sq", a2)
                if polarized:
                    argv += ("--gamma-sq", g2)
                argv += ("--rounds", str(rounds), "--accounting", acc, "--eta", str(MC_ETA))
                yield Call(kind, (*argv, "--trials", CLI_TRIALS, "--seed", seed_arg), rounds)
            elif kind == "sweep":
                grid = ",".join(num() for _ in range(3))
                argv = ("sweep", "--alpha-sq-list", grid, "--rounds", str(rounds))
                argv += ("--eta", str(MC_ETA), "--trials", CLI_TRIALS, "--seed", seed_arg)
                yield Call(kind, argv, rounds, rows=3)
            else:
                argv = ("verify", "--alpha-sq", a2, "--gamma-sq", g2)
                yield Call(kind, (*argv, "--rounds", str(rounds), "--seed", seed_arg), rounds)


def _digest_bytes(call: Call, rc: int, text: str) -> bytes:
    """Output bytes for the digest: the JSON or CSV report and the exit code.

    ``verify`` prints no report, and the last digit of its detail numbers
    depends on the interpreter's string-hash seed, so only its verdicts
    (status and check name per line, and the tally) enter the digest.
    """
    if call.kind == "verify":
        text = "".join(line.split(":")[0] + "\n" for line in text.splitlines())
    return (text + f"exit {rc}\n").encode()


def _subprocess_runner(root: Path, env: dict):
    def run(call: Call):
        proc = subprocess.run(
            [sys.executable, "-m", "ecpsim.cli", *call.argv],
            cwd=root,
            env=env,
            capture_output=True,
            timeout=120,
        )
        text = proc.stdout.decode()
        return _digest_bytes(call, proc.returncode, text), (proc.returncode, text, proc.stderr.decode())

    return run


def run_cli_in_process(call: Call):
    """Replay one call through ``ecpsim.cli.main``, looked up at call time."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = ecpsim.cli.main(list(call.argv))
        except SystemExit as exc:  # argparse rejects bad usage this way
            rc = exc.code
    text = out.getvalue()
    return _digest_bytes(call, rc, text), (rc, text, err.getvalue())


def check_cli(call: Call, detail) -> str | None:
    rc, out, err = detail
    if rc != 0:
        # the last error line, or the first FAIL line of a failing verify
        fails = [x for x in out.splitlines() if x.startswith("FAIL")]
        why = err.strip().splitlines()[-1] if err.strip() else (fails[0] if fails else "")
        return f"exit {rc}: {why[:120]}"
    if call.kind == "sweep":
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != SWEEP_HEADER or len(rows) != call.rows + 1:
            return "sweep CSV has the wrong header or row count"
        for row in rows[1:]:
            if len(row) != len(SWEEP_HEADER):
                return "sweep CSV row has the wrong width"
            [float(x) for x in row]
        return None
    if call.kind == "verify":
        lines = out.splitlines()
        tally = re.fullmatch(r"(\d+) passed, (\d+) failed", lines[-1]) if lines else None
        if tally is None or not all(x.startswith(("PASS ", "FAIL ", "INFO ")) for x in lines[:-1]):
            return "verify output is not one check per line plus a tally"
        if int(tally[2]):
            return "verify exited 0 but reported failed checks"
        return None
    doc = json.loads(out)
    kind = "monte_carlo" if call.kind == "run_mc" else "exact"
    if doc["engine"]["kind"] != kind or len(doc["rounds"]) != call.rounds:
        return "report has the wrong engine or round count"
    return None


# ---------------------------------------------------------------------------


def build(name: str, root: Path, env: dict, work_dir: Path, in_process: bool) -> Workload:
    """The named workload; ``in_process`` replays CLI calls through main()."""
    if name == "exact_grid":
        return Workload(
            lambda seed: _points(seed, EXACT_CONFIGS, sampled=False),
            run_exact,
            check_exact,
            lambda p: 1,
            "points",
            digest_ops=2 * len(EXACT_CONFIGS),
            block=len(EXACT_CONFIGS),
            ops=60 * len(EXACT_CONFIGS),
        )
    if name == "mc_chain":
        return Workload(
            lambda seed: _points(seed, MC_CONFIGS, sampled=True),
            run_mc,
            check_mc,
            lambda p: p.trials,
            "trials",
            digest_ops=len(MC_CONFIGS),
            block=len(MC_CONFIGS),
            ops=18 * len(MC_CONFIGS),
        )
    if name == "cli_mix":
        # `run --circuit` reads a copy of a shipped layout, as a user's file
        for shipped in SHIPPED:
            shutil.copy(root / "src" / "ecpsim" / "circuits" / f"{shipped}.ecp", work_dir)
        return Workload(
            lambda seed: _calls(seed, work_dir),
            run_cli_in_process if in_process else _subprocess_runner(root, env),
            check_cli,
            lambda call: 1,
            "calls",
            digest_ops=len(CLI_KINDS),
            block=len(CLI_KINDS) * len(ROUNDS),
            ops=5 * len(CLI_KINDS) * len(ROUNDS),
        )
    raise ValueError(f"unknown workload {name!r}")
