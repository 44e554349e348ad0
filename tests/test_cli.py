"""Command line behavior: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ecpsim import cli
from ecpsim.cli import main
from ecpsim.elements import PortContractError
from ecpsim.fock import (
    DegenerateStateError,
    FockError,
    IsometryError,
    ModeCollisionError,
    PhotonBudgetError,
)

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


@pytest.mark.parametrize(
    "argv,code",
    [
        (("run", "--protocol", "ecp2", "--alpha-sq", "0.6", "--rounds", "2",
          "--t1", "0.3"), 3),
        (("run", "--protocol", "ecp2", "--alpha-sq", "0.6", "--rounds", "2",
          "--t1", "0.3", "--engine", "monte_carlo", "--trials", "1000"), 3),
        (("run", "--protocol", "ecp1", "--alpha-sq", "0.6", "--t2", "0.3"), 3),
        (("run", "--protocol", "ecp1", "--alpha-sq", "0.6", "--rounds", "3",
          "--engine", "monte_carlo", "--trials", "1000"), 3),
        (("sweep", "--alpha-sq-list", "0.5", "--trials", "0"), 3),
        (("run", "--circuit", "{select0}", "--alpha-sq", "0.6"), 2),
        (("run", "--circuit", "{sources_only}", "--alpha-sq", "0.6"), 2),
        (("run", "--circuit", "{stripped}", "--alpha-sq", "0.6", "--gamma-sq", "0.5"), 3),
        (("run", "--circuit", "{literal_t}", "--alpha-sq", "0.6", "--t1", "0.3"), 3),
        (("run", "--alpha-sq", "1.0"), 3),
        (("run", "--alpha-sq", "0.0"), 3),
        (("run", "--protocol", "ecp2", "--alpha-sq", "0.6", "--gamma-sq", "0.3",
          "--accounting", "joint", "--rounds", "8"), 3),
        (("run", "--protocol", "ecp2", "--alpha-sq", "0.999999", "--rounds", "3"), 3),
        (("run", "--protocol", "ecp2", "--alpha-sq", "0.5", "--rounds", "100000"), 3),
        (("run", "--protocol", "ecp2", "--alpha-sq", "0.6", "--rounds", "100001"), 3),
        (("run", "--protocol", "ecp2", "--alpha-sq", "0.6", "--engine", "monte_carlo",
          "--trials", str(10**15 + 1)), 3),
        (("sweep", "--alpha-sq-list", "0.5", "--trials", str(10**20)), 3),
        (("run", "--circuit", "{negative_t}", "--alpha-sq", "0.6"), 2),
        (("run", "--circuit", "{product_t}", "--alpha-sq", "0.6"), 2),
        (("run", "--circuit", "{divide_t}", "--alpha-sq", "0.6"), 2),
        (("run", "--circuit", "{divide_amp}", "--alpha-sq", "0.6"), 2),
        (("run", "--circuit", "{divide_at_run}", "--alpha-sq", "0.6"), 3),
        (("run", "--circuit", "{repeated_detector}", "--alpha-sq", "0.6"), 2),
        (("run", "--circuit", "{repeated_output}", "--alpha-sq", "0.6"), 2),
        (("run", "--engine", "monte_carlo", "--alpha-sq", "0.6", "--seed", "-1"), 3),
        (("sweep", "--seed", "-1"), 3),
        (("verify", "--seed", "-1"), 3),
        (("run", "--circuit", "{shared_split_output}", "--alpha-sq", "0.6",
          "--gamma-sq", "0.5"), 2),
        (("run", "--circuit", "{mixture}", "--alpha-sq", "0.6"), 2),
        (("run", "--alpha-sq", "0.6", "--gamma-sq", "0.5", "--t1", "1.5"), 3),
        (("run", "--alpha-sq", "0.6", "--gamma-sq", "0.5", "--t2", "-0.5"), 3),
    ],
    ids=[
        "ecp2-t1", "ecp2-t1-sampled", "one-arm-t2", "ecp1-sampled-rounds",
        "sweep-no-trials", "qnd-select-0", "sources-only", "stripped-gamma",
        "literal-t-t1", "alpha-sq-1", "alpha-sq-0", "joint-degenerate-state",
        "alpha-sq-near-1-degenerate-state", "rounds-100000-balanced",
        "rounds-over-bound", "run-trials-over-bound", "sweep-trials-over-bound",
        "negative-t", "product-t", "divide-t", "divide-amp", "divide-at-run",
        "repeated-detector", "repeated-output", "run-negative-seed",
        "sweep-negative-seed", "verify-negative-seed", "shared-split-output",
        "polarization-mixture", "t1-over-1", "t2-below-0",
    ],
)
def test_rejected_input_exits_with_one_error_line(tmp_path, capsys, argv, code):
    from ecpsim.circuits import builtin_text

    files = {
        "select0": builtin_text("ecp2_stripped").replace("select=1", "select=0"),
        "sources_only": SOURCES_ONLY,
        "stripped": builtin_text("ecp1_stripped"),
        "literal_t": builtin_text("ecp1_stripped").replace("t=t1", "t=1/2"),
        "negative_t": builtin_text("ecp1_stripped").replace("t=t1", "t=-1"),
        "product_t": builtin_text("ecp1_stripped").replace("t=t1", "t=0.5*3"),
        "divide_t": builtin_text("ecp1_stripped").replace("t=t1", "t=1/0"),
        "divide_amp": builtin_text("ecp1_stripped").replace("amp=1", "amp=1/0"),
        "divide_at_run": builtin_text("ecp1_stripped").replace("t=t1", "t=t1/(t1-t1)"),
        "repeated_detector": builtin_text("ecp1_stripped").replace(
            "modes=d1,d2", "modes=d1,d2,d1"
        ),
        "repeated_output": builtin_text("ecp1_stripped").replace(
            "output a1,b6", "output a1,b6,a1"
        ),
        # both heralding couplers on the split's V output
        "shared_split_output": builtin_text("ecp1").replace(
            "bs in1=b3 in2=b8", "bs in1=b2 in2=b8"
        ),
        "mixture": MIXTURE_LAYOUT,
    }
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.ecp"
        paths[name].write_text(text, encoding="utf-8")
    got, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert got == code
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


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


def test_bad_flag_exits_3(tmp_path):
    proc = run_checkout(tmp_path, "-m", "ecpsim.cli", "run", "--no-such-flag")
    assert proc.returncode == 3


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
    assert json.loads(via_env)["seed"] == 21
    monkeypatch.setenv("ECPSIM_SEED", "not-a-number")
    code, _, err = run_cli(capsys, *args)
    assert code == 3
    assert "ECPSIM_SEED" in err
    monkeypatch.setenv("ECPSIM_SEED", "-5")
    code, out, err = run_cli(capsys, "sweep")
    assert (code, out) == (3, "")
    assert err == "error: seed must be a non-negative integer, got -5\n"


def test_verify_passes_clean(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "5000")
    assert code == 0
    assert "PASS" in out
    assert "INFO" in out
    assert "0 failed" in out


def test_verify_catches_the_planted_fault(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "5000", "--inject")
    assert code == 1
    assert "FAIL" in out


def test_verify_reports_an_oracle_failure_as_a_failed_check(capsys):
    # deep rounds at alpha^2 = 0.9 leave the oracle no amplitude to compare
    code, out, err = run_cli(capsys, "verify", "--rounds", "8", "--alpha-sq", "0.9")
    assert code == 1
    assert err == ""
    assert (
        "FAIL oracle_agreement: oracle could not evaluate this point: "
        "fidelity of an empty amplitude vector"
    ) in out.splitlines()
    assert out.endswith("6 passed, 2 failed\n")


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
