"""Command line behavior: exit codes, artifacts, determinism."""

import ast
import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ecpsim import cli, engine, montecarlo
from ecpsim.cli import main
from ecpsim.elements import PortContractError
from ecpsim.engine import ConfigError, run_ecp2
from ecpsim.fock import (
    DegenerateStateError,
    FockError,
    IsometryError,
    ModeCollisionError,
    PhotonBudgetError,
)
from ecpsim.measurement import DetectorModel
from ecpsim.montecarlo import run_monte_carlo, tables_from_report
from ecpsim.params import EntanglementParams
from test_circuits import unpinned

CSV_HEADER = "alpha,alpha_sq,eta,k,p_total_formula,p_total_sim,stderr"

ROOT = Path(__file__).resolve().parents[1]

# the signal's b2 photon in both polarizations: a d1 click from either leaves
# the auxiliary photon at b6, a mixture over the absorbed polarization
MIXTURE_LAYOUT = (
    "circuit mixture\nparam alpha\nparam beta\nparam t1\n"
    "mode a1\nmode b2\nmode b4\nmode b5\nmode b6\nmode d1\nmode d2\n"
    "source a1 pol=V amp=alpha photon=signal\n"
    "source b2 pol=H amp=beta/sqrt(2) photon=signal\n"
    "source b2 pol=V amp=beta/sqrt(2) photon=signal\n"
    "source b4 pol=V amp=1\n"
    "vbs in=b4 reflect=b5 transmit=b6 t=t1\n"
    "bs in1=b2 in2=b5 out1=d1 out2=d2\n"
    "detect group=v_arm modes=d1,d2\n"
    "flip mode=b6 when=d2\n"
    "output a1,b6\n"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_checkout(tmp_path, *argv):
    """Run ``python *argv`` on this checkout's ``src/``, from ``tmp_path``.

    The absolute ``src/`` goes first on ``PYTHONPATH`` and the working
    directory is a scratch folder, so neither the launch directory nor an
    installed copy of ecpsim decides what the child imports.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )


def test_run_prints_a_report(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--alpha-sq", "0.6", "--gamma-sq", "0.5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["protocol"] == "ecp1"
    assert payload["p_total"] == pytest.approx(0.72, abs=1e-12)
    assert payload["rounds"][0]["heralded_fidelity"] == pytest.approx(
        1.0, abs=1e-12
    )


def test_run_defaults_to_single_rail(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--protocol", "ecp2", "--alpha-sq", "0.6", "--rounds", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma_sq"] is None
    assert payload["rounds"][0]["p_success"] == pytest.approx(0.48, abs=1e-12)


def test_run_writes_the_same_text_to_out(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "run", "--alpha-sq", "0.6", "--out", str(target)
    )
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


def test_run_monte_carlo_is_seed_deterministic(capsys):
    args = (
        "run", "--protocol", "ecp2", "--alpha-sq", "0.6", "--rounds", "3",
        "--engine", "monte_carlo", "--eta", "0.8", "--trials", "20000",
        "--seed", "42",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    _, out3, _ = run_cli(capsys, *args[:-1], "43")
    assert out3 != out1


def test_run_custom_circuit_file(tmp_path, capsys):
    from ecpsim.circuits import builtin_text

    path = tmp_path / "layout.ecp"
    path.write_text(builtin_text("ecp1_stripped"), encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "run", "--circuit", str(path), "--alpha-sq", "0.6"
    )
    assert code == 0
    assert json.loads(out)["p_total"] == pytest.approx(0.48, abs=1e-12)


def test_qnd_on_one_arm_runs_under_joint_accounting(tmp_path, capsys):
    from ecpsim.circuits import builtin_text
    from ecpsim.formulas import joint_total_one_round

    # a nondemolition comparison on the plus arm only; one click on that
    # arm already implies |n_b2 - n_b5| = 1, so the joint total is unchanged
    text = builtin_text("ecp1").replace(
        "bs in1=b2 in2=b5", "qnd a=b2 b=b5 select=1\nbs in1=b2 in2=b5", 1
    )
    path = tmp_path / "mixed.ecp"
    path.write_text(text, encoding="utf-8")
    args = ("run", "--circuit", str(path), "--alpha-sq", "0.6", "--gamma-sq", "0.5")
    code, out, _ = run_cli(capsys, *args, "--accounting", "joint")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_total"] == pytest.approx(joint_total_one_round(0.6), abs=1e-12)
    assert payload["rounds"][0]["heralded_fidelity"] == pytest.approx(1.0, abs=1e-12)
    # neither protocol's closed forms describe a comparison on one arm only
    for accounting in ("joint", "branch"):
        code, out, _ = run_cli(capsys, *args, "--accounting", accounting)
        assert code == 0
        payload = json.loads(out)
        assert payload["protocol"] == "custom"
        assert payload["paper_comparison"] == {}


def test_malformed_circuit_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.ecp"
    path.write_text("circuit oops\nnot a statement\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "run", "--circuit", str(path), "--alpha-sq", "0.6"
    )
    assert code == 2
    assert "error:" in err


def test_bad_configuration_exits_3(capsys):
    code, _, err = run_cli(capsys, "run", "--alpha-sq", "0.6", "--eta", "1.5")
    assert code == 3
    assert "efficiency" in err
    code, _, _ = run_cli(
        capsys, "run", "--alpha-sq", "0.6", "--rounds", "2"
    )
    assert code == 3
    code, _, _ = run_cli(
        capsys, "run", "--engine", "monte_carlo", "--protocol", "ecp2"
    )
    assert code == 3


SOURCES_ONLY = "".join(f"mode m{i}\n" for i in range(7)) + "".join(
    f"source m{i} pol=H amp=1\n" for i in range(7)
) + "output m0\n"


def _documents(tmp_path) -> dict:
    """``{name: path}`` of the documents that the rejection tables name, written under
    ``tmp_path``, and of an output file in a missing directory."""
    from ecpsim.circuits import builtin_text

    texts = {
        "divide_aux": builtin_text("ecp1_stripped").replace("amp=1", "amp=1/(alpha-alpha)"),
        "double_t": builtin_text("ecp2_stripped").replace("t=t_plus", "t=2*t_plus"),
        "literal_minus": builtin_text("ecp1").replace("t=t2", "t=1/2"),
        "select0": builtin_text("ecp2_stripped").replace("select=1", "select=0"),
        "sources_only": SOURCES_ONLY,
        "stripped": builtin_text("ecp1_stripped"),
        "literal_t": builtin_text("ecp1_stripped").replace("t=t1", "t=1/2"),
        "negative_t": builtin_text("ecp1_stripped").replace("t=t1", "t=-1"),
        "product_t": builtin_text("ecp1_stripped").replace("t=t1", "t=0.5*3"),
        "divide_t": builtin_text("ecp1_stripped").replace("t=t1", "t=1/0"),
        "divide_amp": builtin_text("ecp1_stripped").replace("amp=1", "amp=1/0"),
        "divide_at_run": builtin_text("ecp1_stripped").replace("t=t1", "t=t1/(t1-t1)"),
        "repeated_detector": builtin_text("ecp1_stripped").replace("modes=d1,d2", "modes=d1,d2,d1"),
        "repeated_output": builtin_text("ecp1_stripped").replace("output a1,b6", "output a1,b6,a1"),
        "extra_group": builtin_text("ecp1_stripped") + "detect group=extra modes=d2\n",
        # both heralding couplers on the split's V output
        "shared_split_output": builtin_text("ecp1").replace("bs in1=b3 in2=b8", "bs in1=b2 in2=b8"),
        # the merge's inputs swapped, so the plus arm's V photon reaches the H input
        "swapped_merge": builtin_text("ecp1").replace("pbs inH=b9 inV=b6", "pbs inH=b6 inV=b9"),
        "mixture": MIXTURE_LAYOUT,
        # a recycle detection is ideal, so a recycling group's efficiency is refused, not ignored
        "recycle_eta": builtin_text("ecp2_stripped").replace("modes=d3,d4 eta=1.0", "modes=d3,d4 eta=0.1"),
        # without the d4 flip the two recycle click patterns leave states that disagree
        "recycle_unflipped": builtin_text("ecp2_stripped").replace("flip mode=b2 when=d4\n", ""),
    }
    paths = {name: tmp_path / f"{name}.ecp" for name in texts}
    for name, text in texts.items():
        paths[name].write_text(text, encoding="utf-8")
    return {**paths, "missing_dir": tmp_path / "missing" / "out"}


def _run_row(tmp_path, capsys, monkeypatch, argv):
    """``run_cli`` on a table row's ``argv``: leading ``NAME=value`` items set the environment,
    and ``{name}`` in an argument is the path of that document of ``_documents``."""
    while "=" in argv[0]:
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]
    paths = _documents(tmp_path)
    return run_cli(capsys, *(a.format(**paths) for a in argv))


# (id, argv, message) of every error line a run prints with exit code 3; each ConfigError that
# engine.py, montecarlo.py or cli.py raises has a row here or in API_REJECTIONS
CONFIG_REJECTIONS = [
    ("no-alpha-sq", ("run", "--protocol", "ecp2"), "--alpha-sq is required"),
    ("no-alpha-sq-sampled", ("run", "--engine", "monte_carlo"), "--alpha-sq is required"),
    ("divide-aux", ("run", "--circuit", "{divide_aux}", "--alpha-sq", "0.6"),
     "expression '1/(alpha-alpha)' divides by zero"),
    ("double-t", ("run", "--circuit", "{double_t}", "--alpha-sq", "0.6"),
     "coupler expression '2*t_plus' gives 1.2000000000000002, outside [0, 1]"),
    ("literal-minus-t2",
     ("run", "--circuit", "{literal_minus}", "--alpha-sq", "0.6", "--gamma-sq", "0.5", "--t2", "0.3"),
     "t2 is given but no coupler expression reads t2 or t_minus"),
    ("sampled-circuit", ("run", "--engine", "monte_carlo", "--circuit", "{double_t}", "--alpha-sq", "0.6"),
     "sampled runs use the built-in layouts"),
    ("sweep-bad-grid", ("sweep", "--alpha-sq-list", "x"), "bad entanglement grid 'x'"),
    ("sweep-empty-grid", ("sweep", "--alpha-sq-list", ","), "empty entanglement grid"),
    ("rounds-0", ("run", "--alpha-sq", "0.6", "--rounds", "0"), "rounds must be >= 1, got 0"),
    ("rounds-over-bound", ("run", "--protocol", "ecp2", "--alpha-sq", "0.6", "--rounds", "100001"),
     "rounds must be at most 100000, got 100001"),
    ("stripped-gamma", ("run", "--circuit", "{stripped}", "--alpha-sq", "0.6", "--gamma-sq", "0.5"),
     "polarization is given but no expression in the circuit reads gamma or delta"),
    ("ecp2-t1", ("run", "--protocol", "ecp2", "--alpha-sq", "0.6", "--rounds", "2", "--t1", "0.3"),
     "t1 and t2 do not apply to a recycling layout; its couplers follow the doubling schedule"),
    ("no-recycling-rounds", ("run", "--alpha-sq", "0.6", "--rounds", "2"),
     "circuit has no recycling path; rounds must be 1"),
    ("one-arm-t2", ("run", "--protocol", "ecp1", "--alpha-sq", "0.6", "--t2", "0.3"),
     "t2 sets the second arm's coupler; this circuit has one arm"),
    ("literal-t-t1", ("run", "--circuit", "{literal_t}", "--alpha-sq", "0.6", "--t1", "0.3"),
     "t1 is given but no coupler expression reads t1 or t_plus"),
    ("t1-over-1", ("run", "--alpha-sq", "0.6", "--gamma-sq", "0.5", "--t1", "1.5"),
     "transmittance 1.5 outside [0, 1]"),
    ("t2-below-0", ("run", "--alpha-sq", "0.6", "--gamma-sq", "0.5", "--t2", "-0.5"),
     "transmittance -0.5 outside [0, 1]"),
    ("gamma-sq-over-1", ("run", "--alpha-sq", "0.6", "--gamma-sq", "1.5"),
     "gamma_sq must lie in [0, 1], got 1.5"),
    # branch accounting is not one chain of trials: its arms' weights add up to more than 1
    ("sampled-branch-weights",
     ("run", "--protocol", "ecp2", "--alpha-sq", "0.5", "--gamma-sq", "0.3", "--rounds", "3",
      "--engine", "monte_carlo", "--accounting", "branch", "--trials", "1000"),
     "round 1 weights exceed the surviving probability mass; "
     "this accounting is not a physical trial distribution"),
    # where they add up to less, the shared component is still counted once per arm
    ("sampled-branch-two-arms",
     ("run", "--engine", "monte_carlo", "--protocol", "ecp1", "--alpha-sq", "0.6", "--gamma-sq", "0.5",
      "--trials", "1000"),
     "per-branch accounting on two arms is not a trial distribution; sample it under joint accounting"),
    ("sweep-no-trials", ("sweep", "--alpha-sq-list", "0.5", "--trials", "0"),
     "trials must be positive, got 0"),
    ("run-trials-over-bound",
     ("run", "--protocol", "ecp2", "--alpha-sq", "0.6", "--engine", "monte_carlo",
      "--trials", str(10**15 + 1)),
     "trials must be at most 1000000000000000, got 1000000000000001"),
    ("env-seed-not-integer", ("ECPSIM_SEED=not-a-number", "verify"),
     "ECPSIM_SEED must be an integer, got 'not-a-number'"),
    ("run-negative-seed", ("run", "--engine", "monte_carlo", "--alpha-sq", "0.6", "--seed", "-1"),
     "seed must be a non-negative integer, got -1"),
    ("sweep-negative-seed", ("sweep", "--seed", "-1"), "seed must be a non-negative integer, got -1"),
    ("verify-negative-seed", ("verify", "--seed", "-1"), "seed must be a non-negative integer, got -1"),
    ("env-seed-negative", ("ECPSIM_SEED=-5", "sweep"), "seed must be a non-negative integer, got -5"),
    # --eta, then --seed, are checked before any subcommand looks at its own arguments
    ("run-eta-first", ("run", "--eta", "1.5", "--seed", "-1"),
     "detector efficiency must lie in [0, 1], got 1.5"),
    ("run-seed-before-alpha-sq", ("run", "--seed", "-1"), "seed must be a non-negative integer, got -1"),
    ("sweep-eta-first", ("sweep", "--eta", "-0.5", "--alpha-sq-list", "x"),
     "detector efficiency must lie in [0, 1], got -0.5"),
    ("verify-eta", ("verify", "--eta", "2"), "detector efficiency must lie in [0, 1], got 2.0"),
]


@pytest.mark.parametrize(
    "argv, message", [r[1:] for r in CONFIG_REJECTIONS], ids=[r[0] for r in CONFIG_REJECTIONS]
)
def test_a_configuration_error_exits_3_naming_its_cause(tmp_path, capsys, monkeypatch, argv, message):
    # the auxiliary photon's error is raised by its point's prologue, before any chain runs; a
    # missing --alpha-sq is one error for both engines
    assert _run_row(tmp_path, capsys, monkeypatch, argv) == (3, "", f"error: {message}\n")


# (id, argv, message) of error lines a run prints with exit code 2 that no other table pins
DOCUMENT_REJECTIONS = [
    ("merge-carries-v", ("run", "--circuit", "{swapped_merge}", "--alpha-sq", "0.6", "--gamma-sq", "0.3"),
     "pbs merge: input 'b6' carries V amplitude"),
    ("detector-in-two-groups", ("run", "--circuit", "{extra_group}", "--alpha-sq", "0.6"),
     "detector modes ['d2'] appear in two groups"),
]


@pytest.mark.parametrize(
    "argv, message", [r[1:] for r in DOCUMENT_REJECTIONS], ids=[r[0] for r in DOCUMENT_REJECTIONS]
)
def test_a_document_error_exits_2_naming_its_cause(tmp_path, capsys, monkeypatch, argv, message):
    assert _run_row(tmp_path, capsys, monkeypatch, argv) == (2, "", f"error: {message}\n")


def test_a_round_that_cannot_succeed_raises_no_merge_error(tmp_path, capsys):
    # the swapped merge is refused only where a round heralds with p > 0
    path = str(_documents(tmp_path)["swapped_merge"])
    argv = ("run", "--circuit", path, "--alpha-sq", "0.6", "--gamma-sq", "0.3", "--eta", "0")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["p_total"] == 0.0
    assert [(r["p_success"], r["heralded_fidelity"]) for r in payload["rounds"]] == [(0.0, None)]


def _ent():
    return EntanglementParams.from_alpha_sq(0.6)


# (message, call) of the rejections that only a Python caller can reach: the CLI offers choices
# for the accounting and the protocol, and samples only from an ideal-detector run
API_REJECTIONS = [
    ("unknown accounting mode 'both'", lambda: run_ecp2(_ent(), accounting="both")),
    ("unknown protocol 'ecp3'", lambda: run_monte_carlo("ecp3", _ent())),
    ("chain tables need an ideal-detector exact run",
     lambda: tables_from_report(run_ecp2(_ent(), model=DetectorModel(eta_p=0.5)))),
]


@pytest.mark.parametrize("message, call", API_REJECTIONS, ids=[m for m, _ in API_REJECTIONS])
def test_an_api_only_rejection_names_its_cause(message, call):
    with pytest.raises(ConfigError) as err:
        call()
    assert str(err.value) == message


def test_every_configuration_error_has_a_pinned_row():
    # a new rejection in the engine, the sampler or the CLI lands with its row
    pinned = [m for _, _, m in CONFIG_REJECTIONS] + [m for m, _ in API_REJECTIONS]
    sources = [Path(m.__file__).read_text(encoding="utf-8") for m in (engine, montecarlo, cli)]
    assert [unpinned(s, "ConfigError", pinned) for s in sources] == [[], [], []]
    planted = sources[2] + '\n\ndef _planted(n):\n    raise ConfigError(f"{n} subcommands are too many")\n'
    assert unpinned(planted, "ConfigError", pinned) == [".+\\ subcommands\\ are\\ too\\ many"]


@pytest.mark.parametrize(
    "argv,code",
    [
        (("run", "--protocol", "ecp2", "--alpha-sq", "0.6", "--rounds", "2",
          "--t1", "0.3", "--engine", "monte_carlo", "--trials", "1000"), 3),
        (("run", "--protocol", "ecp1", "--alpha-sq", "0.6", "--rounds", "3",
          "--engine", "monte_carlo", "--trials", "1000"), 3),
        (("run", "--circuit", "{select0}", "--alpha-sq", "0.6"), 2),
        (("run", "--circuit", "{sources_only}", "--alpha-sq", "0.6"), 2),
        (("run", "--alpha-sq", "1.0"), 3),
        (("run", "--alpha-sq", "0.0"), 3),
        (("sweep", "--alpha-sq-list", "0.5", "--trials", str(10**20)), 3),
        (("run", "--circuit", "{negative_t}", "--alpha-sq", "0.6"), 2),
        (("run", "--circuit", "{product_t}", "--alpha-sq", "0.6"), 2),
        (("run", "--circuit", "{divide_t}", "--alpha-sq", "0.6"), 2),
        (("run", "--circuit", "{divide_amp}", "--alpha-sq", "0.6"), 2),
        (("run", "--circuit", "{divide_at_run}", "--alpha-sq", "0.6"), 3),
        (("run", "--circuit", "{repeated_detector}", "--alpha-sq", "0.6"), 2),
        (("run", "--circuit", "{repeated_output}", "--alpha-sq", "0.6"), 2),
        (("run", "--circuit", "{shared_split_output}", "--alpha-sq", "0.6",
          "--gamma-sq", "0.5"), 2),
        (("run", "--circuit", "{mixture}", "--alpha-sq", "0.6"), 2),
        (("run", "--circuit", "{recycle_eta}", "--alpha-sq", "0.6", "--rounds", "3"), 2),
        (("run", "--circuit", "{recycle_unflipped}", "--alpha-sq", "0.6", "--rounds", "3"), 2),
        (("run", "--alpha-sq", "0.6", "--out", "{missing_dir}"), 4),
        (("sweep", "--alpha-sq-list", "0.5", "--trials", "100", "--out", "{missing_dir}"), 4),
    ],
    ids=[
        "ecp2-t1-sampled", "ecp1-sampled-rounds", "qnd-select-0", "sources-only",
        "alpha-sq-1", "alpha-sq-0", "sweep-trials-over-bound",
        "negative-t", "product-t", "divide-t", "divide-amp", "divide-at-run",
        "repeated-detector", "repeated-output", "shared-split-output",
        "polarization-mixture", "recycle-eta", "recycle-unflipped",
        "run-out-missing-dir",
        "sweep-out-missing-dir",
    ],
)
def test_rejected_input_exits_with_one_error_line(tmp_path, capsys, monkeypatch, argv, code):
    # the inputs whose full error line no table above pins
    got, out, err = _run_row(tmp_path, capsys, monkeypatch, argv)
    assert got == code
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def _mutated_shipped_documents():
    """``(name, text)`` of every one-line deletion of a shipped document (but of a ``circuit``,
    ``param`` or ``mode`` line), and of every ``flip`` retargeted to each other mode of
    a1 b2 b3 b6 b9 b10."""
    from ecpsim.circuits import BUILTIN_NAMES, builtin_text

    out = []
    for name in BUILTIN_NAMES:
        lines = builtin_text(name).splitlines(keepends=True)
        for i, line in enumerate(lines):
            if not line.startswith(("circuit ", "param ", "mode ")):
                out.append((name, "".join(lines[:i] + lines[i + 1:])))
            if line.startswith("flip "):
                target = line.split()[1]
                out += [(name, "".join([*lines[:i], line.replace(target, f"mode={m}"), *lines[i + 1:]]))
                        for m in ("a1", "b2", "b3", "b6", "b9", "b10") if f"mode={m}" != target]
    return out


def test_no_exception_escapes_a_mutated_shipped_layout(tmp_path, capsys):
    # each run is a report or one error line (exit 2 or 3), and the oracle on each document that
    # parses raises only a document or value error
    from ecpsim import oracle
    from ecpsim.dsl import CircuitError, parse

    path = tmp_path / "mutated.ecp"
    codes = set()
    for name, text in _mutated_shipped_documents():
        path.write_text(text, encoding="utf-8")
        polarized, rounds = not name.endswith("_stripped"), 3 if name.startswith("ecp2") else 1
        argv = ["run", "--circuit", str(path), "--alpha-sq", "0.6", "--rounds", str(rounds)]
        argv += ["--gamma-sq", "0.3"] if polarized else []
        for accounting in ("branch", "joint"):
            code, _out, err = run_cli(capsys, *argv, "--accounting", accounting)
            assert code in (0, 2, 3) and len(err.splitlines()) == (code != 0), (text, accounting, err)
            codes.add(code)
        try:
            doc = parse(text)
        except CircuitError:
            continue
        _suffix, bindings, pol = oracle._point(0.6, 0.3 if polarized else None)
        ts = oracle._schedule(0.6, rounds)
        for accounting in ("branch", "joint"):
            with contextlib.suppress(CircuitError, ValueError):
                oracle._run_chain(doc, [ts, ts], accounting, 1.0, bindings, pol)
    assert {0, 2} <= codes


@pytest.mark.parametrize(
    "argv",
    [
        ("--protocol", "ecp2", "--alpha-sq", "0.6", "--gamma-sq", "0.3", "--accounting", "joint", "--rounds", "8"),
        ("--protocol", "ecp2", "--alpha-sq", "0.999999", "--rounds", "3"),
        ("--protocol", "ecp2", "--alpha-sq", "0.5", "--rounds", "100000"),
        ("--alpha-sq", "1e-300"),
    ],
    ids=["joint-rounds-8", "alpha-sq-near-1", "rounds-100000-balanced", "alpha-sq-1e-300"],
)
def test_deep_and_extreme_inputs_give_exact_reports(capsys, argv):
    # deep chains and amplitudes near the float range's ends: a report, fidelity 1 in every
    # round with p > 0, and a heralded total that meets its closed form at alpha^2 1e-300
    code, out, err = run_cli(capsys, "run", *argv)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    for r in payload["rounds"]:
        assert r["p_success"] == 0.0 or r["heralded_fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert payload["p_total"] > 0.0
    if argv[-1] == "1e-300":
        claimed = payload["paper_comparison"]["claimed_total"]["paper_value"]
        assert payload["p_total"] == pytest.approx(claimed, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "exc,code",
    [
        (DegenerateStateError, 3),
        (FockError, 2),
        (ModeCollisionError, 2),
        (PhotonBudgetError, 2),
        (IsometryError, 2),
        (PortContractError, 2),
    ],
)
def test_engine_errors_never_exit_1(monkeypatch, capsys, exc, code):
    # exit 1 means "verify failed"; an engine error gets its own code and one line
    def fail(*args, **kwargs):
        raise exc("planted")

    monkeypatch.setattr(cli, "execute", fail)
    got, out, err = run_cli(capsys, "run", "--alpha-sq", "0.6")
    assert (got, out, err) == (code, "", "error: planted\n")


def test_run_past_the_doubling_overflow(capsys):
    # 2.0**k overflows at k = 1024 in the schedule
    code, out, _ = run_cli(
        capsys, "run", "--protocol", "ecp2", "--alpha-sq", "0.6", "--rounds", "2000"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rounds"]) == 2000
    assert payload["schedule"]["plus"][-1] == 1.0


def test_exact_runs_do_not_import_numpy(tmp_path):
    # nor does building the shipped circuits load the engine or compile generated source (every
    # fresh process pays for its set-up), or an exact run the oracle or the checks: each command
    # imports only what it uses
    code = (
        "import builtins, sys\n"
        "generated, compile_ = [], builtins.compile\n"
        "def compile(source, filename, *args, **kwargs):\n"
        "    generated.extend([filename] if str(filename).startswith('<') else [])\n"
        "    return compile_(source, filename, *args, **kwargs)\n"
        "builtins.compile = compile\n"
        "import ecpsim\n"
        "docs = [ecpsim.builtin_doc(name) for name in ecpsim.BUILTIN_NAMES]\n"
        "engine, setup = 'ecpsim.engine' in sys.modules, list(generated)\n"
        "import ecpsim.cli\n"
        "after_import = 'numpy' in sys.modules\n"
        "rc = ecpsim.cli.main(['run', '--alpha-sq', '0.6'])\n"
        "checks = {'ecpsim.oracle', 'ecpsim.verify'} & sys.modules.keys()\n"
        "print(after_import, 'numpy' in sys.modules, rc, engine, sorted(checks), setup, bool(generated), file=sys.stderr)\n"
    )
    proc = run_checkout(tmp_path, "-c", code)
    assert proc.returncode == 0
    # the run itself compiles its prologue and round functions
    assert proc.stderr.split() == ["False", "False", "0", "False", "[]", "[]", "True"]


def _imported(tmp_path, *argv) -> set[str]:
    """The modules a fresh ``python -X importtime *argv`` on this checkout imports beyond those a
    bare interpreter does."""
    found = []
    for args in (("-c", "pass"), argv):
        proc = run_checkout(tmp_path, "-X", "importtime", *args)
        assert proc.returncode == 0, proc.stderr
        found.append({line.split("|")[2].strip() for line in proc.stderr.splitlines()
                      if line.startswith("import time:") and line.count("|") == 2})
    return found[1] - found[0]


@pytest.mark.parametrize("argv, absent", (
    (("run", "--alpha-sq", "0.6"), {"dataclasses", "inspect", "csv", "numpy"}),
    (("run", "--protocol", "ecp2", "--alpha-sq", "0.6", "--gamma-sq", "0.3", "--rounds", "3"),
     {"dataclasses", "inspect", "csv", "numpy"}),
    (("run", "--engine", "monte_carlo", "--alpha-sq", "0.6", "--trials", "100"), {"dataclasses"}),
    (("sweep", "--alpha-sq-list", "0.6", "--trials", "100"), {"dataclasses"}),
    (("verify", "--rounds", "1", "--trials", "200"), {"dataclasses"}),
))
def test_a_fresh_command_imports_only_what_it_runs(tmp_path, argv, absent):
    # cold start: an exact run loads no dataclass machinery, CSV writer or numpy, and no command
    # builds a dataclass (the records are plain classes)
    imported = _imported(tmp_path, "-m", "ecpsim.cli", *argv)
    assert "ecpsim.engine" in imported
    assert not imported & absent


def test_no_module_imports_dataclasses():
    # the guard itself sees an import of dataclasses, however spelled
    def banned(source: str) -> list[str]:
        found = []
        for node in ast.walk(ast.parse(source)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            names += [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            found += [n for n in names if n.split(".")[0] == "dataclasses"]
        return found

    for planted in ("import dataclasses", "from dataclasses import dataclass", "import os, dataclasses as dc",
                    "def f():\n    from dataclasses import replace"):
        assert banned(planted), planted
    for path in sorted((ROOT / "src" / "ecpsim").glob("*.py")):
        assert banned(path.read_text(encoding="utf-8")) == [], path.name


def test_bad_flag_exits_3(tmp_path):
    proc = run_checkout(tmp_path, "-m", "ecpsim.cli", "run", "--no-such-flag")
    assert proc.returncode == 3


def test_main_builds_its_parser_once(monkeypatch, capsys):
    # the parser is built once per process, while the subcommand functions (and what they call)
    # are looked up when main runs
    built = []

    class Counting(cli._ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.extend([self] if self.prog == "ecpsim" else [])

    monkeypatch.setattr(cli, "_ArgumentParser", Counting)
    cli.build_parser.cache_clear()
    try:
        assert [run_cli(capsys, "run", "--alpha-sq", "0.6")[0] for _ in range(2)] == [0, 0]
        monkeypatch.setattr(cli, "_cmd_run", lambda args: 7)
        assert main(["run"]) == 7
    finally:
        cli.build_parser.cache_clear()  # the next call builds the parser of the real class
    assert len(built) == 1


def test_missing_circuit_file_exits_4(capsys):
    code, _, err = run_cli(
        capsys, "run", "--circuit", "/nonexistent/x.ecp", "--alpha-sq", "0.6"
    )
    assert code == 4
    assert "error:" in err


def test_sweep_header_and_rows(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep", "--alpha-sq-list", "0.3,0.5", "--rounds", "2",
        "--eta", "0.8", "--trials", "5000", "--seed", "1",
        "--out", str(target),
    )
    assert code == 0
    lines = target.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(0.3)
    assert float(first[0]) == pytest.approx(0.3**0.5)
    assert int(first[3]) == 2
    for line in lines[1:]:
        fields = line.split(",")
        assert abs(float(fields[4]) - float(fields[5])) <= 5.0 * max(
            float(fields[6]), 1e-9
        )


def test_sweep_is_seed_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ("sweep", "--alpha-sq-list", "0.4,0.6", "--trials", "4000",
            "--seed", "9")
    assert run_cli(capsys, *base, "--out", str(a))[0] == 0
    assert run_cli(capsys, *base, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_env_seed_is_the_default(tmp_path, capsys, monkeypatch):
    args = (
        "run", "--protocol", "ecp2", "--alpha-sq", "0.6",
        "--engine", "monte_carlo", "--eta", "0.8", "--trials", "5000",
    )
    monkeypatch.setenv("ECPSIM_SEED", "21")
    _, via_env, _ = run_cli(capsys, *args)
    monkeypatch.delenv("ECPSIM_SEED")
    _, via_flag, _ = run_cli(capsys, *args, "--seed", "21")
    assert via_env == via_flag
    assert json.loads(via_env)["seed"] == 21  # a bad ECPSIM_SEED has rows in CONFIG_REJECTIONS


def test_verify_passes_clean(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "5000")
    assert code == 0
    assert "PASS" in out
    assert "INFO" in out
    assert "0 failed" in out


def test_verify_passes_at_zero_efficiency(capsys):
    # no round can succeed, so every check reads p 0 and a null fidelity
    code, out, _ = run_cli(capsys, "verify", "--eta", "0")
    assert code == 0
    assert out.endswith("8 passed, 0 failed\n")


def test_verify_catches_the_planted_fault(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "5000", "--inject")
    assert code == 1
    assert "FAIL" in out


def test_verify_reports_an_oracle_failure_as_a_failed_check(capsys, monkeypatch):
    # no accepted input makes the oracle raise any more, so one is planted
    def empty(*args, **kwargs):
        raise ValueError("fidelity of an empty amplitude vector")

    monkeypatch.setattr("ecpsim.verify.oracle_ecp2", empty)
    code, out, err = run_cli(capsys, "verify", "--rounds", "8", "--alpha-sq", "0.9")
    assert code == 1
    assert err == ""
    assert (
        "FAIL oracle_agreement: oracle could not evaluate this point: "
        "fidelity of an empty amplitude vector"
    ) in out.splitlines()
    assert out.endswith("7 passed, 1 failed\n")


def test_console_script_entry_point(tmp_path):
    """The ``[project.scripts]`` target behaves as an installed ``ecpsim``.

    The command is not looked up on PATH: that finds a wrapper only after
    an install, possibly of another checkout.  Instead the declared
    ``module:function`` runs under the wrapper a console script consists
    of, so its return value must become the process exit code.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["ecpsim"]
    module, function = target.split(":")
    wrapper = (
        f"import sys; from {module} import {function}; "
        f"sys.exit({function}())"
    )

    proc = run_checkout(tmp_path, "-c", wrapper, "run", "--alpha-sq", "0.6")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p_total"] == pytest.approx(0.48, abs=1e-12)

    missing = tmp_path / "missing.ecp"
    proc = run_checkout(
        tmp_path, "-c", wrapper, "run", "--circuit", str(missing),
        "--alpha-sq", "0.6",
    )
    assert proc.returncode == 4
