"""Sampled detector-loss chains: tables, determinism, statistics, and the
sampler's stream against numpy's, its reference."""

import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecpsim.circuits import builtin_doc
from ecpsim.cli import main
from ecpsim.engine import ConfigError, execute, run_ecp1, run_ecp2
from ecpsim.measurement import DetectorModel
from ecpsim.montecarlo import (
    MAX_TRIALS,
    BinomialStream,
    ChainTables,
    estimate_series_total,
    run_monte_carlo,
    sample_chain,
    sample_report,
    tables_from_report,
)
from ecpsim.params import EntanglementParams, PolarizationParams


def _ideal_report(rounds=3):
    return run_ecp2(EntanglementParams.from_alpha_sq(0.6), rounds=rounds)


def test_tables_capture_the_exact_chain():
    tables = tables_from_report(_ideal_report())
    assert tables.w_success[0] == pytest.approx(0.48, abs=1e-12)
    assert tables.w_recycle[0] == pytest.approx(0.52, abs=1e-12)
    assert tables.detected_photons == 1
    # the one heralding group of the single-arm chain takes the efficiency once
    for eta in (1.0, 0.8):
        analytic = estimate_series_total(0.6, 3, eta, trials=1000, seed=1)[2]
        assert analytic == _ideal_report().p_total * eta


def test_tables_reject_a_lossy_report():
    lossy = run_ecp2(
        EntanglementParams.from_alpha_sq(0.6),
        rounds=2,
        model=DetectorModel(eta_p=0.8),
    )
    with pytest.raises(ConfigError):
        tables_from_report(lossy)


def test_branch_accounting_is_not_a_trial_distribution():
    report = run_ecp2(
        EntanglementParams.from_alpha_sq(0.6),
        PolarizationParams.from_gamma_sq(0.5),
        rounds=2,
        accounting="branch",
    )
    with pytest.raises(ConfigError, match="trial distribution"):
        tables_from_report(report)


def test_joint_accounting_on_two_arms_is_sampleable():
    report = run_ecp2(
        EntanglementParams.from_alpha_sq(0.6),
        PolarizationParams.from_gamma_sq(0.5),
        rounds=2,
        accounting="joint",
    )
    tables = tables_from_report(report)
    assert tables.detected_photons == 2
    # both heralding groups take the efficiency
    mc = sample_report(report, 0.8, 10**6, 9)
    assert abs(mc.p_total - 0.64 * report.p_total) <= 5.0 * mc.stderr


def test_branch_accounting_on_two_arms_is_refused_whatever_its_mass():
    # ecp1's two arms at these weights add up to less than 1 in the round, yet count the
    # shared component twice
    report = run_ecp1(
        EntanglementParams.from_alpha_sq(0.6), PolarizationParams.from_gamma_sq(0.5)
    )
    ChainTables(
        tuple(r.p_success for r in report.rounds),
        tuple(r.p_fail_recyclable for r in report.rounds),
        1,
    ).validate()
    with pytest.raises(ConfigError) as err:
        tables_from_report(report)
    assert str(err.value) == (
        "per-branch accounting on two arms is not a trial distribution; "
        "sample it under joint accounting"
    )


def test_same_seed_same_counts():
    tables = tables_from_report(_ideal_report())
    a = sample_chain(tables, 0.8, 50_000, np.random.default_rng(7))
    b = sample_chain(tables, 0.8, 50_000, np.random.default_rng(7))
    assert a == b
    c = sample_chain(tables, 0.8, 50_000, np.random.default_rng(8))
    assert a != c


def _sampleable_tables():
    ent = EntanglementParams.from_alpha_sq(0.6)
    stripped = run_ecp2(ent, rounds=5)
    joint = run_ecp2(ent, PolarizationParams.from_gamma_sq(0.3), rounds=3, accounting="joint")
    return {"stripped": tables_from_report(stripped), "joint": tables_from_report(joint)}


@pytest.mark.parametrize("eta", [1.0, 0.8])
@pytest.mark.parametrize("layout", ["stripped", "joint"])
def test_round_counts_follow_their_binomial_marginals(layout, eta):
    tables = _sampleable_tables()[layout]
    trials = 10**9
    succ, rec = sample_chain(tables, eta, trials, np.random.default_rng(2024))
    m = tables.detected_photons
    for k, (ws, wr) in enumerate(zip(tables.w_success, tables.w_recycle)):
        for count, p in ((succ[k], ws * eta**m), (rec[k], wr)):
            sigma = math.sqrt(trials * p * (1.0 - p))
            assert abs(count - trials * p) <= 5.0 * sigma, f"round {k + 1}"


def test_memory_does_not_grow_with_trials():
    tables = _sampleable_tables()["joint"]
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        succ, _ = sample_chain(tables, 0.8, 10**12, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert sum(succ) > 0


def test_tolerated_excess_mass_recycles_every_unheralded_trial():
    tables = ChainTables(w_success=(0.5,), w_recycle=(0.5 + 1e-10,), detected_photons=1)
    tables.validate()
    succ, rec = sample_chain(tables, 1.0, 10_000, np.random.default_rng(3))
    assert succ[0] + rec[0] == 10_000


def test_rounds_after_the_mass_is_gone_are_zero():
    tables = ChainTables(
        w_success=(0.5, 0.5, 0.0), w_recycle=(0.5, 0.0, 0.0), detected_photons=1
    )
    tables.validate()
    succ, rec = sample_chain(tables, 0.8, 10**6, np.random.default_rng(4))
    assert succ[1] > 0 and rec[1] == 0  # round 2 heralds every survivor
    assert (succ[2], rec[2]) == (0, 0)


def test_estimates_track_the_analytic_total():
    for k in (1, 3, 5):
        est, err, exact = estimate_series_total(
            0.6, rounds=k, eta_p=0.8, trials=100_000, seed=11
        )
        assert abs(est - exact) <= 5.0 * err


def test_report_shape_and_determinism():
    ent = EntanglementParams.from_alpha_sq(0.6)
    r1 = run_monte_carlo("ecp2", ent, rounds=2, eta_p=0.8, trials=20_000, seed=3)
    r2 = run_monte_carlo("ecp2", ent, rounds=2, eta_p=0.8, trials=20_000, seed=3)
    assert r1.to_json() == r2.to_json()
    payload = json.loads(r1.to_json())
    assert payload["engine"]["kind"] == "monte_carlo"
    assert payload["trials"] == 20_000
    assert payload["seed"] == 3
    assert payload["stderr"] >= 0.0
    for entry in payload["rounds"]:
        assert entry["heralded_fidelity"] is None
    r3 = run_monte_carlo("ecp2", ent, rounds=2, eta_p=0.8, trials=20_000, seed=4)
    assert r3.to_json() != r1.to_json()


def test_single_round_protocol_sampling():
    ent = EntanglementParams.from_alpha_sq(0.6)
    exact = run_ecp1(ent, model=DetectorModel(eta_p=0.8))
    mc = run_monte_carlo("ecp1", ent, eta_p=0.8, trials=100_000, seed=5)
    assert abs(mc.p_total - exact.p_total) <= 5.0 * mc.stderr


def test_trial_count_must_be_positive():
    ent = EntanglementParams.from_alpha_sq(0.6)
    with pytest.raises(ConfigError):
        run_monte_carlo("ecp2", ent, rounds=2, eta_p=0.8, trials=0, seed=1)
    with pytest.raises(ConfigError):
        run_monte_carlo("nope", ent, rounds=2, eta_p=0.8, trials=10, seed=1)
    with pytest.raises(ConfigError, match="at most"):
        run_monte_carlo("ecp2", ent, rounds=2, eta_p=0.8, trials=MAX_TRIALS + 1, seed=1)
    at_bound = run_monte_carlo("ecp2", ent, rounds=2, eta_p=0.8, trials=MAX_TRIALS, seed=1)
    assert at_bound.trials == MAX_TRIALS


# (protocol, polarized, accounting, rounds) of the chains that can be sampled
SAMPLEABLE = (
    [("ecp2", False, "branch", r) for r in (1, 3, 5, 8)]
    + [("ecp2", True, "joint", r) for r in (1, 3, 5, 8)]
    + [("ecp1", True, "joint", 1)]
)


@pytest.mark.parametrize("protocol, polarized, accounting, rounds", SAMPLEABLE)
def test_a_sampled_run_is_the_exact_run_of_its_document_then_sampled(
    capsys, protocol, polarized, accounting, rounds
):
    ent = EntanglementParams.from_alpha_sq(0.35)
    pol = PolarizationParams.from_gamma_sq(0.7) if polarized else None
    settings = dict(rounds=rounds, accounting=accounting)
    doc = builtin_doc(protocol if polarized else protocol + "_stripped")
    sampled = sample_report(execute(doc, ent, pol, **settings), 0.8, 10**6, rounds)
    mc = run_monte_carlo(protocol, ent, pol, **settings, eta_p=0.8, trials=10**6, seed=rounds)
    assert mc.to_json() == sampled.to_json()
    argv = ["run", "--engine", "monte_carlo", "--protocol", protocol, "--alpha-sq", "0.35"]
    argv += ["--gamma-sq", "0.7"] if polarized else []
    argv += ["--rounds", str(rounds), "--accounting", accounting, "--eta", "0.8"]
    assert main([*argv, "--trials", str(10**6), "--seed", str(rounds)]) == 0
    assert capsys.readouterr() == (sampled.to_json(), "")


def test_sample_report_needs_an_ideal_detector_run():
    lossy = run_ecp2(EntanglementParams.from_alpha_sq(0.6), model=DetectorModel(eta_p=0.5))
    with pytest.raises(ConfigError) as err:
        sample_report(lossy, 0.5, 1000, 0)
    assert str(err.value) == "chain tables need an ideal-detector exact run"


def test_validate_rejects_inconsistent_tables():
    bad = ChainTables(w_success=(0.7,), w_recycle=(0.5,), detected_photons=2)
    with pytest.raises(ConfigError):
        bad.validate()


# numpy's Generator.binomial is the reference: BinomialStream reproduces
# default_rng(SeedSequence(entropy, spawn_key=key)).binomial(n, p) draw for draw
SEEDS = (0, 2**32 - 1, 2**64, 2**200)
SPAWN_KEYS = st.one_of(
    st.just(()),
    st.tuples(st.integers(0, 2**40)),
    st.tuples(st.integers(0, 9), st.integers(0, 2**70)),
)
EDGE_P = (0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0)
COUNTS = st.integers(0, MAX_TRIALS)
DRAWS = st.one_of(
    st.tuples(COUNTS | st.integers(0, 100), st.sampled_from(EDGE_P)),
    st.tuples(COUNTS | st.integers(0, 100), st.floats(0.0, 1.0)),
    st.tuples(COUNTS, st.floats(0.5, 1.0, exclude_min=True)),  # the reflection
    # n * p = 30 exactly, where inversion gives way to BTPE, for p and for 1 - p
    st.integers(1, 44).flatmap(lambda k: st.sampled_from([(30 * 2**k, 2.0**-k), (30 * 2**k, 1.0 - 2.0**-k)])),
    # just either side of the switch
    st.integers(31, MAX_TRIALS).flatmap(
        lambda n: st.sampled_from([math.nextafter(30.0 / n, 0.0), math.nextafter(30.0 / n, 1.0)]).map(lambda p: (n, p))
    ),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(SEEDS) | st.integers(0, 2**130), SPAWN_KEYS, st.lists(DRAWS, min_size=1, max_size=25))
def test_the_stream_is_numpys_draw_for_draw(seed, key, draws):
    reference = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    stream = BinomialStream(seed, key)
    assert [stream.binomial(n, p) for n, p in draws] == [int(reference.binomial(n, p)) for n, p in draws]


@pytest.mark.parametrize("protocol, polarized, accounting, rounds", SAMPLEABLE)
def test_every_sampleable_chain_draws_numpys_counts(protocol, polarized, accounting, rounds):
    ent = EntanglementParams.from_alpha_sq(0.35)
    pol = PolarizationParams.from_gamma_sq(0.7) if polarized else None
    doc = builtin_doc(protocol if polarized else protocol + "_stripped")
    tables = tables_from_report(execute(doc, ent, pol, rounds=rounds, accounting=accounting))
    for seed in (0, rounds, 2**64 + 7):
        for eta, trials in ((0.8, 10**6), (1.0, 1000), (0.3, MAX_TRIALS)):
            counts = sample_chain(tables, eta, trials, BinomialStream(seed))
            assert counts == sample_chain(tables, eta, trials, np.random.default_rng(seed))


def test_a_sweep_point_draws_its_spawned_childs_stream():
    # sweep's point i samples SeedSequence(seed).spawn(points)[i], named by its spawn key (i,)
    draws = [(10**6, 0.48), (520_000, 0.3), (40, 0.25), (250_000, 0.8)]
    for seed in (0, 1, 2**40):
        for i, child in enumerate(np.random.SeedSequence(seed).spawn(5)):
            reference = np.random.default_rng(child)
            stream = BinomialStream(seed, (i,))
            assert [stream.binomial(n, p) for n, p in draws] == [int(reference.binomial(n, p)) for n, p in draws]
    # and a seed is read through its entropy and spawn key, whether numpy's or not
    exact = _ideal_report(rounds=3)
    child = np.random.SeedSequence(5).spawn(3)[2]
    by_numpy = sample_report(exact, 0.8, 10**6, child)
    by_key = sample_report(exact, 0.8, 10**6, SimpleNamespace(entropy=5, spawn_key=(2,)))
    assert by_numpy.rounds == by_key.rounds
    assert by_numpy.rounds != sample_report(exact, 0.8, 10**6, 5).rounds


def test_the_stream_refuses_what_numpy_refuses():
    for n, p in ((-1, 0.5), (10, -0.1), (10, 1.5), (10, math.nan)):
        with pytest.raises(ValueError):
            np.random.default_rng(0).binomial(n, p)
        with pytest.raises(ValueError):
            BinomialStream(0).binomial(n, p)
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError):
        BinomialStream(-1)
    with pytest.raises(TypeError):
        np.random.SeedSequence(1.5)
    with pytest.raises(TypeError):
        BinomialStream(1.5)
