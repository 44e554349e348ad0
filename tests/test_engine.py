"""Engine: topology recognition, document execution, configuration errors."""

import json
import math
import random

import pytest

import ecpsim.engine
from ecpsim.circuits import builtin_doc, builtin_text
from ecpsim.dsl import parse
from ecpsim.elements import bs_rules
from ecpsim.engine import (
    ConfigError,
    TopologyError,
    _source_state,
    _successes,
    analyze,
    execute,
    run_ecp1,
    run_ecp2,
)
from ecpsim.fock import pattern_count, prune, single_photon, terms_norm_sq
from ecpsim.measurement import DetectorModel, herald_terms, residual
from ecpsim.params import EntanglementParams, ParameterError, PolarizationParams

ENT = EntanglementParams.from_alpha_sq(0.6)
POL = PolarizationParams.from_gamma_sq(0.5)


# -- structural analysis --------------------------------------------------

def test_analyze_recognizes_two_arm_layout():
    plan = analyze(builtin_doc("ecp1"))
    assert plan.protocol == "ecp1"
    assert not plan.has_recycling
    assert [a.label for a in plan.arms] == ["plus", "minus"]
    assert plan.arms[0].signal_mode == "b2"
    assert plan.arms[1].signal_mode == "b3"
    assert plan.merge is not None
    assert plan.outputs == ("a1", "b10")


def test_analyze_recognizes_recycling_layout():
    plan = analyze(builtin_doc("ecp2"))
    assert plan.protocol == "ecp2"
    assert plan.has_recycling
    for arm in plan.arms:
        assert arm.qnd is not None
        assert arm.recycle_bs is not None
        assert arm.recycle_group.eta == 1.0
    assert plan.arms[0].flips == {"d2": "b6"}
    assert plan.arms[0].recycle_flips == {"d4": "b2"}


def test_analyze_single_arm_stripped():
    plan = analyze(builtin_doc("ecp2_stripped"))
    assert [a.label for a in plan.arms] == ["plus"]
    assert plan.split is None and plan.merge is None


def test_trivial_document():
    # sources and an output alone do no concentration, so there is nothing
    # to report
    doc = parse(
        "circuit passthrough\n"
        "mode a1\nmode b1\n"
        "source a1 pol=H amp=1/sqrt(2) photon=s\n"
        "source b1 pol=V amp=1/sqrt(2) photon=s\n"
        "output a1,b1\n"
    )
    with pytest.raises(TopologyError, match="no variable coupler arms"):
        analyze(doc)
    with pytest.raises(TopologyError, match="no variable coupler arms"):
        execute(doc, ENT)


def test_unmatched_coupler_is_a_topology_error():
    lines = builtin_text("ecp1_stripped").splitlines()
    lines.insert(-1, "mode x1")
    lines.insert(-1, "mode x2")
    lines.insert(-1, "mode x3")
    lines.insert(-1, "source x1 pol=H amp=1")
    lines.insert(-1, "bs in1=x1 in2=a1 out1=x2 out2=x3")
    bad = "\n".join(lines) + "\n"
    with pytest.raises(TopologyError):
        analyze(parse(bad.replace("output a1,b6", "output b6")))


def test_vbs_without_dedicated_photon_is_rejected():
    text = (
        "circuit nophoton\nparam t\n"
        "mode a1\nmode b1\nmode r1\nmode t1m\nmode d1\nmode d2\n"
        "source a1 pol=V amp=1\n"
        "vbs in=b1 reflect=r1 transmit=t1m t=t\n"
        "bs in1=a1 in2=r1 out1=d1 out2=d2\n"
        "detect group=g modes=d1,d2\n"
        "output t1m\n"
    )
    with pytest.raises(TopologyError) as err:
        analyze(parse(text))
    assert "dedicated source photon" in str(err.value)


# -- execution semantics --------------------------------------------------

def test_rounds_require_a_recycling_path():
    with pytest.raises(ConfigError):
        execute(builtin_doc("ecp1"), ENT, POL, rounds=2)


def test_bad_accounting_rejected():
    with pytest.raises(ConfigError):
        execute(builtin_doc("ecp1"), ENT, POL, accounting="hybrid")


def test_degenerate_entanglement_rejected():
    with pytest.raises(ParameterError):
        run_ecp1(EntanglementParams.from_alpha_sq(1.0), POL)


def test_missing_entanglement_parameters():
    with pytest.raises(ConfigError):
        execute(builtin_doc("ecp1_stripped"))


def test_literal_transmittance_is_authoritative():
    text = (
        "circuit lit\nparam alpha\nparam beta\n"
        "mode a1\nmode b2\nmode b4\nmode b5\nmode b6\nmode d1\nmode d2\n"
        "source a1 pol=V amp=alpha photon=signal\n"
        "source b2 pol=V amp=beta photon=signal\n"
        "source b4 pol=V amp=1\n"
        "vbs in=b4 reflect=b5 transmit=b6 t=1/2\n"
        "bs in1=b2 in2=b5 out1=d1 out2=d2\n"
        "detect group=g modes=d1,d2\n"
        "flip mode=b6 when=d2\n"
        "output a1,b6\n"
    )
    report = execute(parse(text), ENT)
    assert report.schedule["plus"] == [0.5]
    assert report.p_total == pytest.approx(0.5, abs=1e-12)


def test_one_arm_merge_applies_under_both_accountings():
    # the heralded state leaves through the merge output named in the
    # document, so both accountings must pass it through the merge
    text = (
        "circuit onearm\nparam alpha\nparam beta\nparam t1\n"
        "mode a1\nmode b1\nmode b2\nmode b3\nmode b4\nmode b5\nmode b6\n"
        "mode b10\nmode d1\nmode d2\n"
        "source a1 pol=V amp=alpha photon=signal\n"
        "source b1 pol=V amp=beta photon=signal\n"
        "source b4 pol=V amp=1\n"
        "pbs in=b1 outH=b3 outV=b2\n"
        "vbs in=b4 reflect=b5 transmit=b6 t=t1\n"
        "bs in1=b2 in2=b5 out1=d1 out2=d2\n"
        "detect group=v_arm modes=d1,d2\n"
        "flip mode=b6 when=d2\n"
        "pbs inH=b3 inV=b6 out=b10\n"
        "output a1,b10\n"
    )
    for accounting in ("branch", "joint"):
        report = execute(parse(text), ENT, accounting=accounting)
        assert report.p_total == pytest.approx(0.48, abs=1e-12)
        assert report.rounds[0].heralded_fidelity == pytest.approx(1.0, abs=1e-12)


def test_custom_transmittance_overrides():
    r = run_ecp1(ENT, POL, t1=0.3, t2=0.7)
    assert r.schedule == {"plus": [0.3], "minus": [0.7]}


def test_detector_model_efficiency_scales_success():
    ideal = run_ecp1(ENT, POL)
    lossy = run_ecp1(ENT, POL, model=DetectorModel(eta_p=0.8))
    assert lossy.p_total == pytest.approx(0.8 * ideal.p_total, abs=1e-12)
    joint = run_ecp1(ENT, POL, accounting="joint", model=DetectorModel(eta_p=0.8))
    ideal_joint = run_ecp1(ENT, POL, accounting="joint")
    assert joint.p_total == pytest.approx(0.64 * ideal_joint.p_total, abs=1e-12)


def test_prepare_initial_shapes():
    bindings = {"alpha": ENT.alpha, "beta": ENT.beta, "gamma": POL.gamma, "delta": POL.delta}
    polarized = _source_state(analyze(builtin_doc("ecp1")).signal_sources, bindings)
    assert polarized.num_terms == 4
    assert polarized.norm_sq() == pytest.approx(1.0)
    stripped = _source_state(analyze(builtin_doc("ecp1_stripped")).signal_sources, bindings)
    assert stripped.num_terms == 2
    assert {m for (m, _p) in stripped.modes()} == {"a1", "b2"}


# -- document execution equals the native entry points --------------------

@pytest.mark.parametrize("accounting", ("branch", "joint"))
def test_shipped_document_reproduces_native_ecp1(accounting):
    doc = parse(builtin_text("ecp1"))
    via_doc = execute(doc, ENT, POL, accounting=accounting)
    native = run_ecp1(ENT, POL, accounting=accounting)
    assert via_doc.to_json() == native.to_json()


@pytest.mark.parametrize("accounting", ("branch", "joint"))
def test_shipped_document_reproduces_native_ecp2(accounting):
    doc = parse(builtin_text("ecp2_stripped"))
    via_doc = execute(doc, ENT, rounds=3, accounting=accounting)
    native = run_ecp2(ENT, rounds=3, accounting=accounting)
    assert via_doc.to_json() == native.to_json()


def test_report_json_field_order():
    report = run_ecp1(ENT, POL)
    doc = json.loads(report.to_json())
    assert list(doc) == [
        "protocol", "accounting", "alpha_sq", "gamma_sq", "eta_p",
        "schedule", "rounds", "p_total", "engine", "seed", "trials",
        "stderr", "paper_comparison",
    ]
    assert list(doc["rounds"][0]) == [
        "k", "t", "p_success", "p_fail_recyclable", "heralded_fidelity",
    ]
    for entry in doc["paper_comparison"].values():
        assert list(entry) == ["paper_value", "simulated_value", "delta"]


# -- compiled stage tables ------------------------------------------------

def _table_keys(tab):
    """Every key of a plan's pattern table: interned patterns, stages, entries."""
    keys = list(tab.ids)
    for stage, table in tab.stages.items():
        keys.append(stage)
        for key, entry in table.items():
            keys.append(key)
            if isinstance(entry, dict):  # tensor rows
                keys.extend(entry)
    return keys


def _holds_float(key):
    if isinstance(key, tuple):
        return any(_holds_float(k) for k in key)
    return isinstance(key, (float, complex))


def _run_batch(name, seed):
    """Twenty points of one shipped layout: alpha^2, gamma^2, eta, rounds <= 5."""
    rng = random.Random(seed)
    for i in range(20):
        polarized = not name.endswith("_stripped")
        execute(
            builtin_doc(name),
            EntanglementParams.from_alpha_sq(rng.uniform(0.25, 0.75)),
            PolarizationParams.from_gamma_sq(rng.uniform(0.05, 0.95)) if polarized else None,
            rounds=i % 5 + 1 if name.startswith("ecp2") else 1,
            accounting=("branch", "joint")[i % 2],
            model=DetectorModel(eta_p=rng.choice((1.0, 0.8, 0.5))),
        )


@pytest.mark.parametrize("name", ["ecp1", "ecp2", "ecp1_stripped", "ecp2_stripped"])
def test_stage_tables_are_keyed_on_structure_only(name):
    tab = analyze(builtin_doc(name)).table
    _run_batch(name, seed=1)
    warm = _table_keys(tab)
    _run_batch(name, seed=2)
    assert _table_keys(tab) == warm  # new parameter values add no entry
    assert not any(_holds_float(k) for k in warm)
    # bounded by the layout's reachable patterns, not by the points run
    assert len(tab.patterns) <= 128 and len(warm) <= 512


def _staged_successes(tab, terms, couplers, groups, flips, factor):
    """The round's kernels one stage at a time: couplers, herald, normalized
    residual, phase flips, rescaled by ``sqrt(weight)``."""
    for bs in couplers:
        terms = tab.transform(terms, bs_rules(bs.in1, bs.in2, bs.out1, bs.out2), {})
    wins = []
    for _, weight, success, corr, component in herald_terms(tab, terms, groups, flips):
        if success:
            raw = {}
            for q, a in residual(component, weight).items():
                odd = sum(pattern_count(tab.patterns[q], m) for m in corr) % 2
                raw[q] = (-a if odd else a) * math.sqrt(weight)
            wins.append((weight, weight * factor, prune(raw)))
    return wins


@pytest.mark.parametrize("accounting", ["branch", "joint"])
@pytest.mark.parametrize("name", ["ecp1", "ecp2", "ecp1_stripped", "ecp2_stripped"])
def test_compiled_round_matches_the_staged_kernels(name, accounting, monkeypatch):
    calls = []

    def record(*args):
        calls.append(args)
        return _successes(*args)

    monkeypatch.setattr(ecpsim.engine, "_successes", record)
    polarized = not name.endswith("_stripped")
    execute(
        builtin_doc(name), ENT, POL if polarized else None,
        rounds=2 if name.startswith("ecp2") else 1, accounting=accounting,
        model=DetectorModel(eta_p=0.8),
    )
    assert calls
    rng = random.Random(7)
    compared = 0
    for tab, recorded, couplers, *rest in calls:
        # the recorded ids reweighted, and one photon over every coupler input,
        # whose paths meet in the same click pattern and residual
        ports = [(m, pol) for bs in couplers for m in (bs.in1, bs.in2) for pol in "HV"]
        inputs = [{w: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for w in recorded} for _ in range(5)]
        inputs.append(tab.of(single_photon(
            [(m, pol, complex(rng.gauss(0, 1), rng.gauss(0, 1))) for m, pol in ports]
        )))
        for terms in inputs:
            got = _successes(tab, terms, couplers, *rest)
            want = _staged_successes(tab, terms, couplers, *rest)
            assert len(got) == len(want)
            for (w1, p1, raw1), (w2, p2, raw2) in zip(got, want):
                assert w1 == pytest.approx(w2, rel=1e-14)
                assert p1 == pytest.approx(p2, rel=1e-14)
                assert raw1.keys() == raw2.keys()
                scale = math.sqrt(terms_norm_sq(raw2))
                assert all(abs(raw1[q] - raw2[q]) <= 1e-14 * scale for q in raw2)
                compared += 1
    assert compared


def test_split_and_merge_run_on_the_plan_table():
    tab = analyze(builtin_doc("ecp1")).table
    _run_batch("ecp1", seed=3)
    assert tab.stages[("pbs split", "b1", "b3", "b2")]
    assert tab.stages[("pbs merge", "b9", "b6", "b10")]


def test_plans_and_their_tables_are_cached_per_document():
    doc = builtin_doc("ecp2")
    assert analyze(doc) is analyze(parse(builtin_text("ecp2")))
    assert analyze.cache_info().maxsize is not None
