"""Command line front end.

Three subcommands: ``run`` executes one protocol configuration (exact or
sampled) and prints the report as JSON, ``sweep`` tabulates the sampled
recycling chain against the closed-form series over a grid of input
entanglement values, and ``verify`` runs the claim-verification checks.

Exit codes: 0 on success, 1 when verification fails, 2 for circuit
document errors, 3 for invalid arguments or configuration, 4 for I/O
problems.  ``ECPSIM_SEED`` provides the default random seed; all sampled
output is deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .circuits import builtin_doc
from .dsl import CircuitError, parse
from .elements import PortContractError
from .engine import ConfigError, execute
from .fock import DegenerateStateError, FockError
from .formulas import round_success_series
from .measurement import IDEAL_DETECTORS, DetectorModel
from .params import DEFAULT_TRIALS, EntanglementParams, ParameterError, PolarizationParams

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CIRCUIT = 2
EXIT_USAGE = 3
EXIT_IO = 4


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this project reserves 2 for
    circuit errors, so usage problems exit with 3 instead."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _seed(args) -> int:
    """``--seed``, else ``ECPSIM_SEED``, else 0: a non-negative int, as a ``SeedSequence`` entropy is."""
    raw = os.environ.get("ECPSIM_SEED", "0") if args.seed is None else args.seed
    try:
        seed = int(raw)
    except ValueError:
        raise ConfigError(f"ECPSIM_SEED must be an integer, got {raw!r}")
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _check_eta(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise ConfigError(f"detector efficiency must lie in [0, 1], got {eta}")


@functools.cache
def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="ecpsim",
        description="Heralded entanglement concentration: exact few-photon "
        "simulation, claim verification, and sampled detector loss.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one protocol configuration")
    what = run.add_mutually_exclusive_group()
    what.add_argument(
        "--protocol", choices=("ecp1", "ecp2"), default="ecp1",
        help="built-in layout (default ecp1)",
    )
    what.add_argument("--circuit", metavar="FILE", help="custom circuit document")
    run.add_argument("--alpha-sq", type=float, help="input entanglement weight")
    run.add_argument(
        "--gamma-sq", type=float,
        help="polarization weight; omit to run the single-rail layout",
    )
    run.add_argument("--eta", type=float, default=1.0, help="detector efficiency")
    run.add_argument("--rounds", type=int, default=1, help="recycling rounds")
    run.add_argument(
        "--accounting", choices=("branch", "joint"), default="branch",
        help="per-branch bookkeeping or coherent multi-photon run",
    )
    run.add_argument("--t1", type=float, help="first arm coupler transmittance")
    run.add_argument("--t2", type=float, help="second arm coupler transmittance")
    run.add_argument(
        "--engine", choices=("exact", "monte_carlo"), default="exact",
        help="exact amplitudes or sampled trials",
    )
    run.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", metavar="FILE", help="also write the report here")

    sweep = sub.add_parser(
        "sweep", help="sampled chain versus closed-form series over a grid"
    )
    sweep.add_argument(
        "--alpha-sq-list",
        default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
        help="comma separated entanglement weights",
    )
    sweep.add_argument("--rounds", type=int, default=1, help="recycling rounds")
    sweep.add_argument("--eta", type=float, default=1.0)
    sweep.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")

    verify = sub.add_parser("verify", help="run the claim-verification checks")
    verify.add_argument("--alpha-sq", type=float, default=0.6)
    verify.add_argument("--gamma-sq", type=float, default=0.5)
    verify.add_argument("--eta", type=float, default=1.0)
    verify.add_argument("--rounds", type=int, default=3)
    verify.add_argument("--trials", type=int, default=20_000)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument(
        "--inject", action="store_true",
        help="plant a coupler phase fault to demonstrate the checks catch it",
    )
    return parser


def _cmd_run(args) -> int:
    if args.alpha_sq is None:
        raise ConfigError("--alpha-sq is required")
    ent = EntanglementParams.from_alpha_sq(args.alpha_sq)
    pol = PolarizationParams.from_gamma_sq(args.gamma_sq) if args.gamma_sq is not None else None
    sampled = args.engine == "monte_carlo"
    if sampled and args.circuit:
        raise ConfigError("sampled runs use the built-in layouts")
    if args.circuit:
        with open(args.circuit, "r", encoding="utf-8") as fh:
            doc = parse(fh.read())
    else:
        doc = builtin_doc(args.protocol if pol is not None else args.protocol + "_stripped")
    # a sampled run samples the exact ideal-detector run of its document
    report = execute(
        doc,
        ent,
        pol,
        rounds=args.rounds,
        accounting=args.accounting,
        model=IDEAL_DETECTORS if sampled else DetectorModel(eta_p=args.eta),
        t1=args.t1,
        t2=args.t2,
    )
    if sampled:
        from .montecarlo import sample_report  # the sampler loads only for sampled runs

        report = sample_report(report, args.eta, args.trials, args.seed)
    text = report.to_json()
    if args.out:  # first, so that a failed write leaves stdout empty
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        values = [float(x) for x in args.alpha_sq_list.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"bad entanglement grid {args.alpha_sq_list!r}")
    if not values:
        raise ConfigError("empty entanglement grid")
    from types import SimpleNamespace

    from .montecarlo import estimate_series_total

    rows = []
    for i, a2 in enumerate(values):
        # point i samples the stream of numpy's SeedSequence(seed).spawn(len(values))[i]
        child = SimpleNamespace(entropy=args.seed, spawn_key=(i,))
        p_sim, stderr, _ = estimate_series_total(
            a2, args.rounds, args.eta, trials=args.trials, seed=child
        )
        p_formula = sum(round_success_series(a2, args.eta, args.rounds))
        rows.append(
            [math.sqrt(a2), a2, args.eta, args.rounds, p_formula, p_sim, stderr]
        )
    import csv  # only the sweep writes CSV

    out = sys.stdout if not args.out else open(args.out, "w", encoding="utf-8", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(["alpha", "alpha_sq", "eta", "k", "p_total_formula", "p_total_sim", "stderr"])
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import all_passed, run_checks, summary

    results = run_checks(
        alpha_sq=args.alpha_sq,
        gamma_sq=args.gamma_sq,
        eta_p=args.eta,
        rounds=args.rounds,
        trials=args.trials,
        seed=args.seed,
        inject_fault=args.inject,
    )
    print(summary(results))
    return EXIT_OK if all_passed(results) else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # every subcommand takes --eta and --seed
        _check_eta(args.eta)
        args.seed = _seed(args)
        return {"run": _cmd_run, "sweep": _cmd_sweep, "verify": _cmd_verify}[args.command](args)
    except (ConfigError, ParameterError, DegenerateStateError) as exc:
        # a heralded state whose norm is exactly zero has no fidelity: an
        # input the engine cannot score, reported like a bad argument
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CircuitError, FockError, PortContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CIRCUIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
