"""The claim checks: one relative-error rule over the reports' closed forms and the oracle."""

import ast
import math
from pathlib import Path

import pytest

from ecpsim import engine, verify
from ecpsim.engine import _ChainRound
from ecpsim.verify import _deviation, run_checks


def test_deviation_is_relative_above_the_underflow_floor():
    assert _deviation(1.0 + 1e-13, 1.0) == pytest.approx(1e-13, rel=1e-3)
    assert _deviation(2e-40, 1e-40) == pytest.approx(1.0)
    # at or below the floor a value counts as 0: a lost round deviates by 1, mass where none
    # is expected infinitely
    assert _deviation(0.0, 1e-300) == _deviation(5e-301, 0.0) == 0.0
    assert _deviation(0.0, 1e-299) == _deviation(1e-301, 1e-299) == 1.0
    assert _deviation(1e-299, 0.0) == math.inf
    # a null fidelity matches only a null one; a NaN never passes
    assert _deviation(None, None) == 0.0
    assert _deviation(None, 1.0) == _deviation(1.0, None) == math.inf
    assert _deviation(math.nan, 1.0) == math.inf


@pytest.mark.parametrize("a2", (0.3, 0.6, 0.9))
def test_twelve_rounds_pass(a2):
    results = run_checks(alpha_sq=a2, rounds=12, trials=2000)
    assert [r.name for r in results if r.passed is False] == []
    series = next(r for r in results if r.name == "series_round_probabilities")
    # the line names the worst deviation seen, not only those above tolerance
    assert "worst relative deviation 0.000e+00" not in series.detail


def test_a_planted_loss_of_deep_rounds_fails_the_series(monkeypatch):
    # the absolute check passed any round below 1e-12, whatever the engine reported
    run_chain = engine._run_chain

    def lossy(*args):
        rounds = run_chain(*args)
        return rounds[:7] + [_ChainRound(0.0, 0.0, (), [], {}, None)] * (len(rounds) - 7)

    monkeypatch.setattr(engine, "_run_chain", lossy)
    results = {r.name: r for r in run_checks(rounds=12, trials=2000)}
    series = results["series_round_probabilities"]
    assert series.passed is False
    assert "worst relative deviation 1.000e+00 at series_round_8 (0.0 vs 1.15" in series.detail
    # a round with no mass has a null fidelity, which the fidelity check accepts
    assert results["ecp2_heralded_fidelity"].passed is True


def test_verify_reads_the_closed_forms_from_the_reports():
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    imported = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "formulas" not in imported
