"""Engine: topology recognition, document execution, configuration errors."""

import cmath
import collections
import contextlib
import dataclasses
import functools
import hashlib
import itertools
import json
import linecache
import math
import random
import sys
import types

import pytest

import ecpsim.dsl
import ecpsim.elements
import ecpsim.engine
import ecpsim.fock
import ecpsim.measurement
import ecpsim.report
from ecpsim.circuits import builtin_doc, builtin_text
from ecpsim.dsl import DetectDecl, PbsMergeDecl, evaluate_expr, evaluate_real, parse
from ecpsim.elements import PortContractError, bs_rules, merge_terms, vbs_pair, vbs_rules
from ecpsim.engine import (
    ConfigError,
    TopologyError,
    _ChainRound,
    _kernel,
    _prologue,
    _rounds,
    _run_chain,
    analyze,
    execute,
    run_ecp1,
    run_ecp2,
)
from ecpsim.fock import (
    PRUNE_EPS,
    RECYCLE_AGREEMENT_TOL,
    DegenerateStateError,
    CheckedRules,
    PatternTable,
    PolarizationMixtureError,
    pattern_count,
    single_photon,
    tensor,
    terms_fidelity,
    terms_inner,
    terms_norm_sq,
)
from ecpsim.measurement import MIXTURE, DetectorModel, detection_factor, herald_terms, qnd_class, residual
from ecpsim.params import EntanglementParams, ParameterError, PolarizationParams, vbs_pair_schedule, vbs_schedule
from ecpsim.verify import corrupted_coupler

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
    lines.insert(-1, "source x1 pol=H amp=1 photon=signal")
    lines.insert(-1, "bs in1=x1 in2=a1 out1=x2 out2=x3")
    bad = "\n".join(lines) + "\n"
    with pytest.raises(TopologyError) as err:
        analyze(parse(bad.replace("output a1,b6", "output b6")))
    assert str(err.value) == "coupler not attached to any arm"


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


def test_a_detector_group_repeating_a_mode_is_a_topology_error():
    # the parser rejects the repeat with its position; a document built in
    # code meets it in the recognizer, before any run
    doc = builtin_doc("ecp1_stripped")
    statements = tuple(
        dataclasses.replace(s, modes=s.modes + s.modes[:1]) if isinstance(s, DetectDecl) else s
        for s in doc.statements
    )
    with pytest.raises(TopologyError, match="detector group 'v_arm' repeats a mode"):
        analyze(dataclasses.replace(doc, statements=statements))


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


ONE_ARM = (
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


def test_one_arm_merge_applies_under_both_accountings():
    # the heralded state leaves through the merge output named in the
    # document, so both accountings must pass it through the merge
    for accounting in ("branch", "joint"):
        report = execute(parse(ONE_ARM), ENT, accounting=accounting)
        assert report.p_total == pytest.approx(0.48, abs=1e-12)
        assert report.rounds[0].heralded_fidelity == pytest.approx(1.0, abs=1e-12)


def test_the_closed_forms_take_the_joint_efficiency_as_a_product():
    # two groups must click: eta * eta, where the platform's pow rounds eta**2 one ulp away
    eta = 0.5874183784430576
    report = run_ecp1(ENT, POL, accounting="joint", model=DetectorModel(eta_p=eta))
    assert report.paper_comparison["claimed_total"]["paper_value"] == 0.48 * (eta * eta)


def test_closed_forms_are_scored_only_on_the_arms_they_describe():
    # the round series describes one arm and the per-arm entries two: ecp2.ecp with its
    # polarization fixed in the sources has two heralding groups, so it is not scored
    # against the one-arm series, and a one-arm polarized layout gets no per-arm entries
    lines = [line for line in builtin_text("ecp2").splitlines() if line not in ("param gamma", "param delta")]
    fixed = "\n".join(lines).replace("*gamma", "*sqrt(1/2)").replace("*delta", "*sqrt(1/2)") + "\n"
    report = execute(parse(fixed), ENT, rounds=2, accounting="joint", model=DetectorModel(eta_p=0.8))
    assert report.protocol == "ecp2" and report.rounds[0].p_success == pytest.approx(0.12288, rel=1e-12)
    assert list(report.paper_comparison) == ["claimed_total", "stripped_series_total"]
    assert list(run_ecp2(ENT, rounds=2).paper_comparison)[:3] == ["series_round_1", "series_round_2", "series_total"]
    one_arm = ONE_ARM.replace("amp=alpha photon", "amp=alpha*gamma photon").replace("param t1", "param gamma\nparam t1")
    report = execute(parse(one_arm.replace("source b1 pol=V amp=beta", "source b1 pol=V amp=beta*gamma")), ENT, POL)
    assert report.protocol == "ecp1" and list(report.paper_comparison) == ["claimed_total"]
    assert "claimed_success_minus" in run_ecp1(ENT, POL).paper_comparison


def test_a_heralding_groups_eta_scales_the_paper_values():
    # each paper value takes the detection factor the run applied: a group's own eta= in place of
    # eta_p, which stays the --eta value
    lossy = parse(builtin_text("ecp1_stripped").replace("modes=d1,d2", "modes=d1,d2 eta=0.5"))
    for model in (None, DetectorModel(eta_p=0.8)):
        report = execute(lossy, ENT, model=model)
        assert report.eta_p == (model or DetectorModel()).eta_p
        entry = report.paper_comparison["claimed_total"]
        assert entry["paper_value"] == 0.24 and entry["simulated_value"] == pytest.approx(0.24, rel=1e-15)


def test_branch_arms_of_different_efficiencies_drop_the_one_factor_totals():
    # a per-arm entry takes its arm's factor; under branch accounting no one factor scales a total
    # of two arms whose factors differ, and under joint accounting the factor is their product
    lossy = parse(builtin_text("ecp1").replace("modes=d1,d2", "modes=d1,d2 eta=0.5"))
    pol = PolarizationParams.from_gamma_sq(0.3)
    branch = execute(lossy, ENT, pol).paper_comparison
    assert list(branch) == ["claimed_success_plus", "claimed_success_minus"]
    assert branch["claimed_success_plus"]["paper_value"] == pytest.approx(0.204, rel=1e-15)
    assert branch["claimed_success_minus"]["paper_value"] == pytest.approx(0.312, rel=1e-15)
    joint = execute(lossy, ENT, pol, accounting="joint").paper_comparison["predicted_joint_total"]
    assert joint["paper_value"] == pytest.approx(0.096, rel=1e-15)
    assert joint["simulated_value"] == pytest.approx(0.096, rel=1e-14)


@pytest.mark.parametrize("accounting", ["branch", "joint"])
def test_a_herald_blind_to_an_absorbed_polarization_is_rejected(accounting):
    from test_cli import MIXTURE_LAYOUT

    with pytest.raises(PolarizationMixtureError, match="click signature d1:1"):
        execute(parse(MIXTURE_LAYOUT), ENT, accounting=accounting)
    # one polarization of the b2 photon leaves a state again
    text = MIXTURE_LAYOUT.replace("source b2 pol=H amp=beta/sqrt(2) photon=signal\n", "")
    report = execute(parse(text.replace("beta/sqrt(2)", "beta")), ENT, accounting=accounting)
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
    plan = analyze(builtin_doc("ecp1"))
    polarized, *_ = _prologue(plan, POL)(bindings)  # through the split
    assert len(polarized) == 4
    assert terms_norm_sq(polarized) == pytest.approx(1.0)
    plan = analyze(builtin_doc("ecp1_stripped"))
    stripped, *_ = _prologue(plan, None)(bindings)
    assert len(stripped) == 2
    assert {m for p in stripped for (m, _p), _n in plan.table.patterns[p]} == {"a1", "b2"}


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


# every bench exact_grid configuration: (protocol, polarized, accounting, rounds)
DIGEST_CONFIGS = [("ecp1", pol, acc, 1) for pol in (False, True) for acc in ("branch", "joint")] + [
    ("ecp2", pol, acc, r) for pol in (False, True) for acc in ("branch", "joint") for r in (1, 3, 5, 8)
]


def test_reports_of_240_seeded_points_are_pinned():
    # 12 points per configuration at eta 1 and 0.8, deep rounds included;
    # a point that raises is hashed by its exception class and message, so a
    # changed digest is a changed report byte or error
    rng = random.Random(14)
    digest = hashlib.sha256()
    raised = 0
    for protocol, polarized, accounting, rounds in DIGEST_CONFIGS:
        for i in range(12):
            ent = EntanglementParams.from_alpha_sq(rng.uniform(0.05, 0.95))
            pol = PolarizationParams.from_gamma_sq(rng.uniform(0.05, 0.95)) if polarized else None
            model = DetectorModel(eta_p=(1.0, 0.8)[i % 2])
            try:
                if protocol == "ecp1":
                    out = run_ecp1(ent, pol, accounting=accounting, model=model).to_json()
                else:
                    out = run_ecp2(ent, pol, rounds=rounds, accounting=accounting, model=model).to_json()
            except ValueError as exc:
                out = f"{type(exc).__name__}: {exc}"
                raised += 1
            digest.update(out.encode())
    assert raised == 0
    assert digest.hexdigest() == "3db7df1261f6e715424dbd68d56f6a9b3050a16f8823e02a6510f18665abaf22"


# -- the plan's compiled tables ------------------------------------------

def _table_keys(plan):
    """Every key a plan keeps: its table's interned patterns, and every key of its prologues,
    chains and scorers and of a table inside an entry (a chain's round functions by auxiliary
    and input ids), at any depth."""
    keys = list(plan.table.ids)

    def walk(entry):
        if isinstance(entry, dict):
            keys.extend(entry)
            entry = list(entry.values())
        if isinstance(entry, (tuple, list)):
            for item in entry:
                walk(item)

    for table in (plan.prologues, plan.chains, plan.scorers):
        walk(table)
    return keys


def _kernels(plan):
    """Each generated round function, by chain, auxiliary ids and input ids."""
    return {(labels, aux, ids): kernel for labels, (_, formed) in plan.chains.items()
            for aux, by_ids in formed.items() for ids, kernel in by_ids.items()}


def _scorers(plan):
    """Each generated scorer, by its round's win and target ids."""
    return dict(plan.scorers)


def _holds_float(key):
    if isinstance(key, tuple):
        return any(_holds_float(k) for k in key)
    return isinstance(key, (float, complex))


def _run_batch(name, seed):
    """Twenty points of one shipped layout: alpha^2, gamma^2, eta, rounds <= 5."""
    rng = random.Random(seed)
    reports = []
    for i in range(20):
        polarized = not name.endswith("_stripped")
        reports.append(execute(
            builtin_doc(name),
            EntanglementParams.from_alpha_sq(rng.uniform(0.25, 0.75)),
            PolarizationParams.from_gamma_sq(rng.uniform(0.05, 0.95)) if polarized else None,
            rounds=i % 5 + 1 if name.startswith("ecp2") else 1,
            accounting=("branch", "joint")[i % 2],
            model=DetectorModel(eta_p=rng.choice((1.0, 0.8, 0.5))),
        ))
    return reports


@pytest.mark.parametrize("name", ["ecp1", "ecp2", "ecp1_stripped", "ecp2_stripped"])
def test_plan_tables_are_keyed_on_structure_only(name):
    plan = analyze(builtin_doc(name))
    _run_batch(name, seed=1)
    warm = _table_keys(plan)
    kernels, scorers = _kernels(plan), _scorers(plan)
    _run_batch(name, seed=2)
    assert _table_keys(plan) == warm  # new parameter values add no entry
    assert _kernels(plan) == kernels and kernels  # nor a round function
    assert _scorers(plan) == scorers and scorers  # nor a scorer
    for labels, aux, ids in kernels:  # round functions are keyed on ids only
        assert all(type(q) is int for q in (*ids, *itertools.chain(*aux)))
    for *wins, tids in scorers:  # and so are scorers
        assert all(type(q) is int for q in (*tids, *itertools.chain(*itertools.chain(*wins))))
    assert not {"<round kernel>", "<round scorer>", "<photons>", "<expression>"} & linecache.cache.keys()  # no source kept
    assert not any(_holds_float(k) for k in warm)
    prologues = plan.prologues  # one generated prologue per point kind, keyed on the kind alone
    assert set(prologues) == {"V" if name.endswith("_stripped") else "HV"} and all(map(callable, prologues.values()))
    assert vars(plan.table).keys() == {"patterns", "photons", "ids"}  # the pattern table holds patterns only
    # bounded by the layout's reachable patterns, not by the points run
    assert len(plan.table.patterns) <= 128 and len(warm) <= 512


@pytest.mark.parametrize("name", ["ecp1", "ecp2", "ecp1_stripped", "ecp2_stripped"])
def test_report_templates_are_keyed_on_structure_only(name):
    for report in _run_batch(name, seed=1):
        report.to_json()
    warm = set(ecpsim.report._TEMPLATES)
    for report in _run_batch(name, seed=2):
        report.to_json()
    assert set(ecpsim.report._TEMPLATES) == warm  # new parameter values add no template
    assert not any(_holds_float(k) for k in warm)


@pytest.mark.parametrize("name", ["ecp1", "ecp2", "ecp1_stripped", "ecp2_stripped"])
def test_a_warm_point_runs_no_transform(name, monkeypatch):
    # after warm-up a point compiles nothing: every round is a generated function, the photons
    # (sources, split and target) one generated prologue, and no point runs a transform, a
    # herald or a polarizing-splitter relabel, builds CheckedRules, walks an expression tree,
    # runs the split or an expression function of the parser module, or scores through dicts.
    # The counters count: a cold plan table's first batch runs the transform, the herald and,
    # where the layout has a polarizing splitter, the relabel
    counts = dict.fromkeys(("transform", "herald", "relabel", "rules", "merge", "fidelity", "photon", "walk",
                            "kernel", "scoring", "split", "compiled"), 0)
    parser = set()  # the parser module's functions and generated expressions called

    def counted(key, original):
        def call(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(PatternTable, "transform", counted("transform", PatternTable.transform))
    monkeypatch.setattr(ecpsim.engine, "herald_terms", counted("herald", ecpsim.engine.herald_terms))
    monkeypatch.setattr(ecpsim.elements, "_relabel", counted("relabel", ecpsim.elements._relabel))
    monkeypatch.setattr(CheckedRules, "__init__", counted("rules", CheckedRules.__init__))
    monkeypatch.setattr(ecpsim.engine, "merge_terms", counted("merge", ecpsim.engine.merge_terms))
    monkeypatch.setattr(ecpsim.fock, "terms_fidelity", counted("fidelity", ecpsim.fock.terms_fidelity))
    monkeypatch.setattr(PatternTable, "photon", counted("photon", PatternTable.photon))
    monkeypatch.setattr(ecpsim.engine, "emit_expr", counted("walk", ecpsim.engine.emit_expr))
    monkeypatch.setattr(ecpsim.engine, "_kernel", counted("kernel", ecpsim.engine._kernel))
    monkeypatch.setattr(ecpsim.engine, "_scoring", counted("scoring", ecpsim.engine._scoring))
    monkeypatch.setattr(ecpsim.engine, "split_terms", counted("split", ecpsim.engine.split_terms))
    monkeypatch.setattr(ecpsim.engine, "compiled", counted("compiled", ecpsim.engine.compiled))
    assert not {"terms_fidelity", "evaluate_expr"} & vars(ecpsim.engine).keys()  # neither bound here
    monkeypatch.setattr(ecpsim.engine, "analyze", functools.lru_cache(ecpsim.engine.analyze.__wrapped__))
    _run_batch(name, seed=1)
    assert counts["transform"] and counts["herald"] and bool(counts["relabel"]) != name.endswith("_stripped")
    counts.update(dict.fromkeys(counts, 0))

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in (ecpsim.dsl.__file__, "<expression>"):
            parser.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        _run_batch(name, seed=2)
    finally:
        sys.setprofile(None)
    assert counts == dict.fromkeys(counts, 0)
    assert parser <= {"__hash__"}  # at most the plan cache's lookup of the document


def test_generated_sources_hold_no_power_and_no_threshold(monkeypatch):
    # every source the engine hands to dsl.compiled for the four shipped plans, on fresh plan
    # tables: squares are products (``** 2`` goes through the platform's ``pow``, which is not
    # correctly rounded everywhere), and no absolute threshold is read
    sources = collections.defaultdict(list)

    def capture(params, code, consts, filename, namespace=None):
        sources[filename].extend(code)
        return ecpsim.dsl.compiled(params, code, consts, filename, namespace)

    monkeypatch.setattr(ecpsim.engine, "analyze", functools.lru_cache(ecpsim.engine.analyze.__wrapped__))
    monkeypatch.setattr(ecpsim.engine, "compiled", capture)
    for name in SHIPPED:
        _run_batch(name, seed=1)
        if name.startswith("ecp2"):
            for accounting in ("branch", "joint"):
                execute(builtin_doc(name), EntanglementParams.from_alpha_sq(0.9),
                        None if name.endswith("_stripped") else POL, rounds=12, accounting=accounting)
    assert set(sources) == {"<photons>", "<round kernel>", "<round scorer>"}
    for word in ("**", "PRUNE_EPS", "EPS2", "NORM2"):
        assert not [line for code in sources.values() for line in code if word in line], word


def test_the_compile_step_prunes_nothing(monkeypatch):
    # with the prune floor above the balanced couplers' 0.5 coefficients, a compile step that
    # pruned would drop them: the reports stay byte for byte those of the unpatched plans
    def reports():
        ent = EntanglementParams.from_alpha_sq(0.6)
        return [run(ent, pol, accounting=accounting, **kw).to_json()
                for run, kw in ((run_ecp1, {}), (run_ecp2, {"rounds": 4}))
                for pol in (POL, None) for accounting in ("branch", "joint")]

    want = reports()
    monkeypatch.setattr(ecpsim.fock, "PRUNE_EPS", 0.6)
    monkeypatch.setattr(ecpsim.measurement, "PRUNE_EPS", 0.6)
    monkeypatch.setattr(ecpsim.engine, "analyze", functools.lru_cache(ecpsim.engine.analyze.__wrapped__))
    assert reports() == want


def _record_chains(monkeypatch, calls):
    """Record in ``calls`` each ``_run_chain`` call ``execute`` makes from now on, as its arguments
    ``(plan, arms, input, pairs, auxes, model)``, the coupler pairs as a list, then what the staged
    and dict paths read: ``(schedules, bindings)``, the arms' transmittances per arm and the
    point's bindings.  Each call's pairs are checked
    against the point's schedule: a recycling plan's bare planned parameter takes
    ``vbs_pair_schedule``, any other coupler ``vbs_pair`` of its transmittance."""
    points, effective = [], ecpsim.engine._effective_schedule  # each point's plan, bindings, schedule

    def schedule(plan, bindings, *args):
        points.append((plan, bindings, effective(plan, bindings, *args)))
        return points[-1][2]

    def record(plan, arms, current, pairs, auxes, model):
        _, bindings, planned = points[-1]
        schedules, pairs = [planned[a.label] for a in arms], list(pairs)
        odds = vbs_pair_schedule(EntanglementParams(bindings["alpha"], bindings["beta"]), len(pairs))
        assert pairs == list(zip(*[odds if plan.has_recycling and a.planned is not None
                                   else list(map(vbs_pair, ts)) for a, ts in zip(arms, schedules)]))
        calls.append(((plan, arms, current, pairs, auxes, model), (schedules, bindings)))
        return _run_chain(plan, arms, current, pairs, auxes, model)

    monkeypatch.setattr(ecpsim.engine, "_effective_schedule", schedule)
    monkeypatch.setattr(ecpsim.engine, "_run_chain", record)


def _staged_successes(tab, terms, couplers, groups, flips, factor):
    """A round's couplers, herald, normalized residual, phase flips, rescaled
    by ``sqrt(weight)``, one stage at a time: ``(weight, probability, raw)``.
    The stage kernels drop amplitudes under PRUNE_EPS; nothing else is dropped."""
    for bs in couplers:
        terms = tab.transform(terms, bs_rules(bs.in1, bs.in2, bs.out1, bs.out2))
    wins = []
    for _, weight, success, corr, component in herald_terms(tab, terms, groups, flips):
        if success:
            raw = {}
            for q, a in residual(component, weight).items():
                odd = sum(pattern_count(tab.patterns[q], m) for m in corr) % 2
                raw[q] = (-a if odd else a) * math.sqrt(weight)
            wins.append((weight, weight * factor, raw))
    return wins


def _staged_round(tab, arms, current, ts, bindings, model):
    """One round through the stage kernels: each arm's auxiliary photon through
    its coupler, tensor products, the nondemolition split, both sides' couplers,
    herald and flips, and the recycle raws scaled to their summed weight."""
    work = current
    for arm, t in zip(arms, ts):
        aux = tab.of(single_photon([(s.mode, s.pol, evaluate_expr(s.amp, bindings)) for s in arm.aux_sources]))
        v = arm.vbs
        aux = tab.transform(aux, vbs_rules(v.inp, v.reflect, v.transmit, t))
        work = tab.of(tensor(tab.state(work), tab.state(aux)))
    classes = {p: {qnd_class(tab.patterns[p], a.qnd.a, a.qnd.b) for a in arms if a.qnd} for p in work}
    groups = [a.success_group for a in arms]
    wins = _staged_successes(
        tab, {p: a for p, a in work.items() if classes[p] <= {1}},
        [a.success_bs for a in arms], groups, {d: m for a in arms for d, m in a.flips.items()},
        detection_factor(groups, model),
    )
    again, nxt = [], {}
    if all(a.recycle_bs for a in arms):
        recycle = [a.recycle_group for a in arms]
        again = _staged_successes(
            tab, {p: a for p, a in work.items() if classes[p] <= {0}},
            [a.recycle_bs for a in arms], recycle,
            {d: m for a in arms for d, m in a.recycle_flips.items()}, 1.0,
        )
    if again:
        first = again[0][2]
        for _, _, other in again[1:]:
            assert terms_fidelity(first, other) == pytest.approx(1.0, abs=1e-9)
        scale = math.sqrt(sum(w for w, _, _ in again) / terms_norm_sq(first))
        nxt = {q: a * scale for q, a in first.items()}
    return sum(p for _, p, _ in wins), sum(w for w, _, _ in again), [raw for _, _, raw in wins], nxt


def _states(book):
    """A chain round's heralded states through the merge, as dicts."""
    amps = iter(book.amps)
    return [dict(zip(ids, amps)) for ids in book.wins]


def _assert_terms_close(got, want):
    """Each amplitude of ``want`` within 1e-14 of its norm; an id only ``got`` holds is one the
    stage kernels dropped under PRUNE_EPS (rescaled by at most sqrt(2)), the round functions none."""
    scale = math.sqrt(terms_norm_sq(want))
    assert want.keys() <= got.keys()
    assert all(abs(got[q] - want[q]) <= 1e-14 * scale for q in want)
    assert all(abs(got[q]) < 2 * PRUNE_EPS for q in got.keys() - want.keys())


def _coefficients(arms, ts, bindings):
    """Magnitudes of the auxiliary photons' product coefficients of one round."""
    products = [1.0]
    for arm, t in zip(arms, ts):
        aux = [abs(evaluate_expr(s.amp, bindings)) for s in arm.aux_sources]
        photon = [a * c for a in aux for c in (math.sqrt(1 - t), math.sqrt(t)) if a * c]
        products = [p * c for p in products for c in photon]
    return products


@pytest.mark.parametrize("accounting", ["branch", "joint"])
@pytest.mark.parametrize("name", ["ecp1", "ecp2", "ecp1_stripped", "ecp2_stripped"])
def test_compiled_round_matches_the_staged_kernels(name, accounting, monkeypatch):
    calls = []
    _record_chains(monkeypatch, calls)
    polarized = not name.endswith("_stripped")
    execute(
        builtin_doc(name), ENT, POL if polarized else None,
        rounds=3 if name.startswith("ecp2") else 1, accounting=accounting,
        model=DetectorModel(eta_p=0.8),
    )
    assert calls
    rng = random.Random(7)
    compared = mixtures = pruned_products = 0
    for (plan, arms, current, pairs, auxes, model), (schedules, bindings) in calls:
        tab, merge = plan.table, plan.merge
        aux_ports = {m for a in arms for m in (a.vbs.reflect, a.vbs.transmit)}
        couplers = [bs for a in arms for bs in (a.success_bs, a.recycle_bs) if bs]
        ports = [(m, pol) for bs in couplers for m in (bs.in1, bs.in2) if m not in aux_ports for pol in "HV"]
        rounds = _run_chain(plan, arms, current, pairs, auxes, model)
        for k in range(len(pairs)):
            ts = [s[k] for s in schedules]
            # the recorded ids reweighted; the same with the first id so small that the
            # stage kernels keep only its largest product, then so small that they keep
            # its products but not their coupler outputs (the round functions keep them
            # all); and one photon over every coupler input that no auxiliary photon
            # occupies, in H, in V and in both
            recorded = rounds[k - 1].recycle_next if k else current
            inputs = [{w: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for w in recorded} for _ in range(5)]
            coefs = _coefficients(arms, ts, bindings)
            for scale in (1.01 * PRUNE_EPS / max(coefs), 1.01 * PRUNE_EPS / min(coefs)):
                w = next(iter(recorded))
                inputs.append({**recorded, w: scale * recorded[w] / abs(recorded[w])})
                pruned_products += sum(abs(inputs[-1][w]) * c < PRUNE_EPS for c in coefs)
            for pols in ("H", "V", "HV"):
                inputs.append(tab.of(single_photon(
                    [(m, pol, complex(rng.gauss(0, 1), rng.gauss(0, 1))) for m, pol in ports if pol in pols]
                )))
            for terms in inputs:
                try:
                    p_win, p_rec, wins, nxt = _staged_round(tab, arms, terms, ts, bindings, model)
                except PolarizationMixtureError:
                    # outputs that differ only in an absorbed photon's polarization
                    with pytest.raises(PolarizationMixtureError, match="click signature d"):
                        _run_chain(plan, arms, terms, pairs[k:k + 1], auxes, model)
                    mixtures += 1
                    continue
                [got] = _run_chain(plan, arms, terms, pairs[k:k + 1], auxes, model)
                assert got.p_success == pytest.approx(p_win, rel=1e-14, abs=0.0)
                assert got.p_recycle == pytest.approx(p_rec, rel=1e-14, abs=0.0)
                assert len(got.wins) == len(wins)
                for state, raw in zip(_states(got), wins):
                    _assert_terms_close(state, raw if merge is None else merge_terms(tab, raw, merge.in_h, merge.in_v, merge.out))
                _assert_terms_close(got.recycle_next, nxt)
                compared += 1
    assert compared and mixtures and pruned_products


# the dict path the compiled scoring replaced: merge_terms -> pair -> terms_fidelity per round,
# each signature's raw state and the recycle agreement on dicts


def _dict_wins(sides, values, factor):
    """Per side, each signature's ``(weight, probability, raw)`` when it weighs more than 0, its
    slots relabeled to residual ids and checked for a mixture; no value is dropped."""
    mags, at, out = list(map(abs, values)), 0, []
    for route, side in enumerate(sides):
        wins = []
        for sig, qs in side:
            squares, raw = [], {}
            for s, q in enumerate(qs, at):
                squares.append(mags[s] * mags[s])
                raw[q] = values[s]
            at += len(qs)
            weight = sum(squares)
            if weight > 0.0:
                if len(raw) < len(squares):
                    raise PolarizationMixtureError(f"click signature {' '.join(f'{d}:{n}' for d, n in sig)}: {MIXTURE}")
                wins.append((weight, weight * (1.0 if route else factor), raw))
        out.append(wins)
    return out


def _dict_combine_recycle(again, weight):
    if not again:
        return {}
    (n0, _, first), *rest = again
    for n, _, other in rest:  # the agreement of the normalized states, at any scale
        x = abs(terms_inner(first, other)) / math.sqrt(n0) / math.sqrt(n)
        if x * x < 1.0 - RECYCLE_AGREEMENT_TOL:
            raise TopologyError("recycle click patterns disagree after correction; "
                                "feed-forward rules are inconsistent with the coupler convention")
    scale = math.sqrt(weight / n0)
    return {p: a * scale for p, a in first.items()}


def _dict_score(tab, sides, values, factor, ports):
    wins, again = _dict_wins(sides, values, factor)
    merged = [raw if not ports else merge_terms(tab, raw, *ports) for _, _, raw in wins]
    p_rec = sum((w for w, _, _ in again), 0.0)
    return sum((p for _, p, _ in wins), 0.0), merged, p_rec, _dict_combine_recycle(again, p_rec)


def _dict_pair(plus, minus):
    combined = dict(plus)
    for p, amp in minus.items():
        combined[p] = 0.5 * (combined[p] + amp) if p in combined else amp
    return combined


def _dict_fidelity(state, target):
    """``terms_fidelity`` with the state normalized before the ratio is squared (its norm by
    ``math.hypot``), raising only on an exactly zero norm."""
    n = math.hypot(*map(abs, state.values()))
    if not n:
        raise DegenerateStateError("fidelity of a zero state is undefined")
    f = abs(terms_inner(state, target)) / n
    return min(f * f / terms_norm_sq(target), 1.0)


def _dict_rounds(ts, chains, target):
    tdict = dict(zip(*target[:2]))
    out = []
    for k, (t, books) in enumerate(zip(ts, zip(*chains))):
        if not k or any(b is not c[k - 1] for b, c in zip(books, chains)):
            fid = None
            if all(b.wins for b in books):
                merged = [_states(b) for b in books]
                states = merged[0] if len(merged) == 1 else [_dict_pair(a, b) for a in merged[0] for b in merged[1]]
                fid = min([_dict_fidelity(st, tdict) for st in states])
        out.append((k + 1, t, sum(b.p_success for b in books), sum(b.p_recycle for b in books), fid))
    return out


def _outcome(call, show=repr):
    """``show`` of its result (its repr by default), or its exception's type and message."""
    try:
        return show(call())
    except (ValueError, TopologyError) as exc:
        return type(exc).__name__, str(exc)


def _as_is(value):
    return value


def _reweighted(values, rng):
    """Slot values (or products) reweighted at random, then with one per five at 1.01 PRUNE_EPS and
    one at 0.99 PRUNE_EPS, then every fourth at 0.6 PRUNE_EPS: values the staged kernels drop."""
    out = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) * abs(v) for v in values] for _ in range(3)]
    for scale, step in ((1.01, 5), (0.99, 5), (0.6, 4)):
        out.append([v / abs(v) * scale * PRUNE_EPS if abs(v) and i % step == 0 else v for i, v in enumerate(values)])
    return out


def _dict_slots(slots, products):
    """The slot gather the round functions replaced: per slot its products times coefficients,
    summed from 0j."""
    return [sum([products[i] * c for i, c in terms], 0j) for terms in slots]


def _identity(sides, count):
    """A program of ``sides`` whose slot s is product s (times 1.0)."""
    return count, tuple(((s, 1.0),) for s in range(count)), sides


def _armless(tab, program, ports=()):
    """``program``'s round function with no arm, on ``tab`` and merged by ``ports`` (none by
    default): its products are the amplitudes it is given."""
    plan = types.SimpleNamespace(table=tab, merge=PbsMergeDecl(*ports) if ports else None)
    kernel = _kernel(plan, program, program[0], ())
    return lambda products, factor: kernel(products, factor, [], ())


def _scored(tab, program, products, factor, ports, show=repr):
    """The round function's result as ``_outcome(_dict_score)`` gives it: a repr, or the error's
    type and message, where a merge error is kept in the round rather than raised."""
    return _book(lambda: _armless(tab, program, ports)(products, factor), show)


def _book(call, show=repr):
    try:
        book = call()
    except (ValueError, TopologyError) as exc:
        return type(exc).__name__, str(exc)
    if book.error:
        return book.error[0].__name__, book.error[1]
    return show((book.p_success, _states(book), book.p_recycle, book.recycle_next))


def _real_where(value, like):
    """``value`` with each complex number that sits where ``like`` holds a float replaced by its
    real part, once its imaginary part is checked to be 0: the dict path sums from 0j, where
    the engine keeps real amplitudes as floats."""
    if type(like) is float and type(value) is complex:
        assert value.imag == 0, (value, like)
        return value.real
    if type(value) is type(like) and isinstance(value, (tuple, list)) and len(value) == len(like):
        return type(value)(map(_real_where, value, like))
    if type(value) is type(like) is dict and value.keys() == like.keys():
        return {key: _real_where(v, like[key]) for key, v in value.items()}
    return value


def _dict_products(current, auxes, pairs):
    """The product stage the round functions replaced: per arm the factors ``aux * r`` and
    ``aux * s``, then every product input-major; the round's shape and its products."""
    shape, products = [tuple(current)], list(current.values())
    for (xs, amps), rs in zip(auxes, pairs):
        products = [v * f for v in products for f in [a * c for a in amps for c in rs]]
        shape.append(xs)
    return tuple(shape), products


def _dict_round(plan, arms, auxes, current, pairs, model):
    """One round of the chain of ``arms`` at the coupler ``pairs`` through the dict path on the
    engine's slot program of the round's shape: ``(outcome, sides, slot values, factor, merge
    ports)``, the outcome as the result itself or the error's type and message."""
    shape, products = _dict_products(current, auxes, pairs)
    _, slots, sides = ecpsim.engine._slots(plan, arms, shape)
    factor = detection_factor([a.success_group for a in arms], model)
    values, merge = _dict_slots(slots, products), plan.merge
    ports = () if merge is None else (merge.in_h, merge.in_v, merge.out)
    return _outcome(lambda: _dict_score(plan.table, sides, values, factor, ports), _as_is), sides, values, factor, ports


def _rescaled(chains, amps):
    """``chains`` with each round's amplitudes replaced by ``amps(chain index, round)``."""
    return [[dataclasses.replace(b, amps=amps(i, b)) for b in chain] for i, chain in enumerate(chains)]


def _cancelling(chains):
    """``chains`` with the minus amplitude of the first id each round's first wins share set so
    that its pair ``0.5 * (plus + minus)`` sits at 0.6 PRUNE_EPS."""
    rounds = []
    for plus, minus in zip(*chains):
        amps, firsts = list(minus.amps), plus.wins[:1] + minus.wins[:1]
        shared = [] if len(firsts) < 2 or None in firsts else [
            (a, j) for q, a in zip(firsts[0], plus.amps) for j, r in enumerate(firsts[1]) if r == q]
        if shared:
            a, j = shared[0]
            amps[j] = -a + 1.2 * PRUNE_EPS * a / abs(a)
        rounds.append(dataclasses.replace(minus, amps=amps))
    return [chains[0], rounds]


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("accounting", ["branch", "joint"])
@pytest.mark.parametrize("name", ["ecp1", "ecp2", "ecp1_stripped", "ecp2_stripped"])
def test_compiled_scoring_matches_the_dict_path(name, accounting, corrupt, monkeypatch):
    # every round against the product stage, slot gather and dict path it replaced, bit for bit,
    # none of them dropping a value: on the recorded inputs, reweighted at random, with entries at
    # 1.01, 0.99 and 0.6 PRUNE_EPS and with every entry at magnitude 4, each at the recorded
    # coupler pairs and with the first arm's transmitted factor at 0.6 PRUNE_EPS; through a
    # program of the same signatures whose slot s is product s, on the slot values and their
    # reweightings; and every scorer against the dict pairing and fidelities.  The dict path sums
    # from 0j: where the round holds a float it is that sum's real part, repr for repr, its
    # imaginary part 0; fed the recorded inputs as complex(x, 0.0), the round is the dict path's,
    # repr for repr.  Also under a miswired coupler (where the recycle agreement fails on both paths)
    calls, rounds = [], []
    _record_chains(monkeypatch, calls)
    monkeypatch.setattr(ecpsim.engine, "_rounds", lambda *a: rounds.append(a) or _rounds(*a))
    polarized = not name.endswith("_stripped")
    with corrupted_coupler() if corrupt else contextlib.nullcontext():
        for alpha_sq in (0.3, 0.6, 0.9):
            with contextlib.suppress(TopologyError, DegenerateStateError):
                execute(builtin_doc(name), EntanglementParams.from_alpha_sq(alpha_sq), POL if polarized else None,
                        rounds=5 if name.startswith("ecp2") else 1, accounting=accounting,
                        model=DetectorModel(eta_p=0.8))
        assert calls and (rounds or corrupt)
        rng = random.Random(16)
        outcomes = collections.Counter()
        for (plan, arms, current, pairs, auxes, model), _ in calls:
            for k in range(len(pairs)):
                inputs = [current] + [dict(zip(current, vals)) for vals in _reweighted(list(current.values()), rng)]
                inputs.append({w: 4.0 * a / abs(a) for w, a in current.items()})
                inputs += [{w: complex(a, 0.0) for w, a in terms.items()} for terms in (current, inputs[-1])]
                small = (vbs_pair((0.6 * PRUNE_EPS) ** 2), *pairs[k][1:])
                for i, (terms, c) in enumerate(itertools.product(inputs, (pairs[k], small))):
                    want, sides, values, factor, ports = _dict_round(plan, arms, auxes, terms, c, model)
                    got = _book(lambda: _run_chain(plan, arms, terms, [c], auxes, model)[0], _as_is)
                    complex_input = all(type(a) is complex for a in terms.values())
                    assert repr(got) == repr(want if complex_input else _real_where(want, got))
                    outcomes["floats"] += repr(got) != repr(want)
                    outcomes[want[0] if len(want) == 2 else "scored"] += 1
                    if i == 0:
                        identity = _identity(sides, len(values))
                        cases = [(vals, vals) for vals in [values, *_reweighted(values, rng)]]
                        if not any(v.imag for v in values):  # the slot values as floats
                            cases.append(([v.real for v in values], values))
                        for vals, slots in cases:
                            got = _scored(plan.table, identity, vals, factor, ports, _as_is)
                            want = _outcome(lambda: _dict_score(plan.table, sides, slots, factor, ports), _as_is)
                            assert repr(got) == repr(_real_where(want, got) if vals is not slots else want)
                            outcomes[got[0] if len(got) == 2 else "scored"] += 1
                try:
                    [book] = _run_chain(plan, arms, current, pairs[k:k + 1], auxes, model)
                except (TopologyError, ValueError):
                    break
                current = book.recycle_next
    assert outcomes["scored"] and (outcomes["TopologyError"] or not name.startswith("ecp2"))
    assert outcomes["floats"] or corrupt
    for plan, ts, chains, target in rounds:
        # the recorded wins; reweighted; with shared plus and minus ids near cancelling, or one
        # pair at 0.6 PRUNE_EPS; at random; every amplitude at 0.6 PRUNE_EPS; every amplitude 0,
        # a zero state; and as complex(x, 0.0)
        weights = {id(b): _reweighted(b.amps, rng) for chain in chains for b in chain}
        variants = [chains, *[_rescaled(chains, lambda i, b: weights[id(b)][r]) for r in range(6)]]
        for scale in (1.0, -1.0 + 1.01 * PRUNE_EPS):
            variants.append(_rescaled(chains, lambda i, b: [a * scale if i else a for a in b.amps]))
        variants += [_cancelling(chains)] if len(chains) == 2 else []
        variants.append(_rescaled(chains, lambda i, b: [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in b.amps]))
        variants.append(_rescaled(chains, lambda i, b: [a / abs(a) * 0.6 * PRUNE_EPS for a in b.amps]))
        variants.append(_rescaled(chains, lambda i, b: [0.0 * a for a in b.amps]))
        variants.append(_rescaled(chains, lambda i, b: [complex(a, 0.0) for a in b.amps]))
        for chains in variants:
            got = _outcome(lambda: [tuple(vars(r).values()) for r in _rounds(plan, ts, chains, target)])
            assert got == _outcome(lambda: _dict_rounds(ts, chains, target))
            outcomes[got[0] if isinstance(got, tuple) else "rounds"] += 1
    assert outcomes["DegenerateStateError"] or corrupt


def test_the_merge_matches_merge_terms():
    # two photons in the merged mode: the merge relabels each id one to one, as merge_terms does,
    # and leaves every amplitude as it is (a polarizing merge keeps every occupation count, so
    # sqrt(N_out!) / sqrt(n_in!) is 1); V on the merge's H input is the merge error, kept in the round
    tab = PatternTable()
    pair = tab.intern(((("b9", "H"), 2),))
    mixed = tab.intern(((("b6", "V"), 1), (("b9", "H"), 1)))
    wrong = tab.intern(((("b9", "V"), 1),))
    won = (((("d1", 1),), (pair, mixed)), ((("d2", 1),), (wrong,)))
    ports = ("b9", "b6", "b10")
    for values in ([0.3 + 0.4j, -0.5j], [0.6 + 0.0j, 0.7 + 0.1j]):
        program = _identity((won[:1], ()), 2)
        slots = _dict_slots(program[1], values)  # summed from 0j, as the round sums its slots
        assert _scored(tab, program, values, 0.8, ports) == _outcome(lambda: _dict_score(tab, program[2], slots, 0.8, ports))
        [state] = _states(_armless(tab, program, ports)(values, 0.8))
        merged = merge_terms(tab, dict(zip((pair, mixed), slots)), *ports)
        assert repr(list(state.items())) == repr(list(merged.items())) and list(merged.values()) == slots
        assert [tab.patterns[q] for q in merged] == [((("b10", "H"), 2),), ((("b10", "H"), 1), (("b10", "V"), 1))]
        program = _identity((won, ()), 3)
        got = _scored(tab, program, [*values, 0.1j], 0.8, ports)
        assert got == _outcome(lambda: _dict_score(tab, program[2], [*values, 0.1j], 0.8, ports))
        assert got == ("PortContractError", "pbs merge: input 'b9' carries V amplitude")


def test_a_signature_counts_where_it_weighs_more_than_0():
    # a slot at PRUNE_EPS weighs PRUNE_EPS**2 alone and counts; a signature of exact zeros does not
    tab = PatternTable()
    ids = tuple(tab.intern(((("b1", pol), 1),)) for pol in "HV")
    won, recycled = (((("d1", 1),), ids[:1]),), (((("d2", 1),), ids[1:]),)
    program = _identity((won, recycled), 2)
    for values in ([PRUNE_EPS + 0j, 0.6 + 0j], [0.6 + 0j, PRUNE_EPS + 0j], [PRUNE_EPS + 0j] * 2, [0j, 0.6 + 0j]):
        got = _scored(tab, program, values, 0.8, (), _as_is)
        assert repr(got) == repr(_outcome(lambda: _dict_score(tab, program[2], values, 0.8, ()), _as_is))
        p_win, states, p_rec, nxt = got
        assert (p_win > 0.0, len(states)) == ((True, 1) if values[0] else (False, 0))
        assert p_rec > 0.0 and nxt


def test_a_slot_sums_its_products_from_0j_in_order():
    # no shipped layout compiles a slot of more than one product: here each slot sums several,
    # in the order it lists them, so 1e16 + 3 - 1e16 rounds as the slot gather rounds it
    tab = PatternTable()
    ids = tuple(tab.intern(((("b1", pol), 1),)) for pol in "HV")
    rng = random.Random(17)
    slots = (((0, 1.0), (1, 1.0), (2, 1.0)), tuple((i, rng.uniform(-2.0, 2.0)) for i in (4, 3, 0, 1)))
    kernel = _armless(tab, (5, slots, ((((("d1", 1),), ids),), ())))
    cases = [[1e16 + 1e16j, 3 + 5j, -1e16 - 1e16j, 0.1 + 0j, 0.2j]]
    cases += [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(5)] for _ in range(20)]
    for products in cases:
        book = kernel(products, 1.0)
        assert repr(book.amps) == repr(_dict_slots(slots, products))
    assert kernel(cases[0], 1.0).amps[0] not in (3 + 5j, 0j)  # the order shows


def test_split_and_merge_run_on_the_plan_table(monkeypatch):
    # the prologue's signal holds the split's ids and the heralded states the merge's ids, each
    # interned in the plan's table
    plan = analyze(builtin_doc("ecp1"))
    tab, wins, rounds = plan.table, set(), ecpsim.engine._rounds

    def record(plan, ts, chains, target):
        wins.update(q for chain in chains for book in chain for ids in book.wins if ids for q in ids)
        return rounds(plan, ts, chains, target)

    monkeypatch.setattr(ecpsim.engine, "_rounds", record)
    _run_batch("ecp1", seed=3)
    split = {tab.ids[(((sp, pol), 1),)] for sp, pol in (("b3", "H"), ("b2", "V"))}
    merged = {tab.ids[((("b10", pol), 1),)] for pol in "HV"}
    signal = _prologue(plan, POL)({"alpha": ENT.alpha, "beta": ENT.beta, "gamma": POL.gamma, "delta": POL.delta})[0]
    assert split <= signal.keys() and not any(pattern_count(tab.patterns[q], "b1") for q in signal)
    assert merged <= wins and not any(pattern_count(tab.patterns[q], m) for q in wins for m in ("b6", "b9"))


def test_plans_and_their_tables_are_cached_per_document():
    doc = builtin_doc("ecp2")
    assert analyze(doc) is analyze(parse(builtin_text("ecp2")))
    assert analyze.cache_info().maxsize is not None


def test_a_deep_chain_does_round_work_only_until_its_fixed_point(monkeypatch):
    # once t saturates a round returns its own input, so later rounds repeat
    # it: round work (rounds computed by a round function) grows with the
    # rounds to saturation, not with --rounds
    calls = []

    def counted(*args):
        calls.append(args)
        return _ChainRound(*args)

    monkeypatch.setattr(ecpsim.engine, "_ChainRound", counted)
    report = run_ecp2(ENT, rounds=100_000)
    assert 0 < len(calls) <= 16
    assert len(report.rounds) == 100_000
    last = report.rounds[-1]
    assert (last.k, last.t, last.heralded_fidelity) == (100_000, 1.0, None)
    assert vars(report.rounds[len(calls)]) | {"k": last.k} == vars(last)


def test_variable_coupler_ports_are_checked_where_a_round_is_compiled():
    # the parser rejects a repeated port, so only a hand-built arm reaches the engine's check,
    # made before the round function of the arm's chain is compiled (a fresh plan, as it keeps it)
    plan = analyze.__wrapped__(builtin_doc("ecp2_stripped"))
    [arm] = plan.arms
    bad = dataclasses.replace(arm, label="bad", vbs=dataclasses.replace(arm.vbs, transmit=arm.vbs.inp))
    signal, _, _, auxes = _prologue(plan, None)({"alpha": ENT.alpha, "beta": ENT.beta})
    message = f"vbs: ports must be distinct, {arm.vbs.inp!r} repeats"
    with pytest.raises(PortContractError) as err:
        ecpsim.engine._slots(plan, [bad], (tuple(signal), auxes[0][0]))
    assert str(err.value) == message
    with pytest.raises(PortContractError) as err:
        _run_chain(plan, [bad], signal, [(vbs_pair(0.5),)], auxes, DetectorModel())
    assert str(err.value) == message
    assert not _kernels(plan)


# -- real amplitudes as floats --------------------------------------------

SHIPPED = ["ecp1", "ecp2", "ecp1_stripped", "ecp2_stripped"]


def _chain_values(books):
    return [a for b in books for a in (*b.amps, *b.recycle_next.values())]


def test_real_points_hold_floats_and_a_miswired_coupler_complex(monkeypatch):
    # real parameters and couplers keep every amplitude a float, from the photons to the next
    # round's input; the miswired coupler's 1j phase runs the same round functions on complex
    books = []

    def record(*args):
        books.extend(chain := _run_chain(*args))
        return chain

    monkeypatch.setattr(ecpsim.engine, "_run_chain", record)
    for name in SHIPPED:
        _run_batch(name, seed=4)
    values = _chain_values(books)
    assert len(values) > 100 and {type(a) for a in values} == {float}
    books.clear()
    with corrupted_coupler():
        for name in SHIPPED:
            with contextlib.suppress(TopologyError, DegenerateStateError):
                _run_batch(name, seed=4)
    assert any(type(a) is complex for a in _chain_values(books))


def _close(x, y, rel):
    return x == y or (x is not None and y is not None and abs(x - y) <= rel * max(abs(x), abs(y)))


@pytest.mark.parametrize("accounting", ["branch", "joint"])
@pytest.mark.parametrize("name", SHIPPED)
def test_complex_inputs_under_a_global_phase_agree_with_the_real_run(name, accounting):
    # alpha, beta times e^{0.7i} and gamma, delta times e^{-1.1i} run in complex arithmetic;
    # a global phase moves no probability and no fidelity
    rng = random.Random(19)
    compared = 0
    for i in range(12):
        ent = EntanglementParams.from_alpha_sq(rng.uniform(0.1, 0.9))
        pol = None if name.endswith("_stripped") else PolarizationParams.from_gamma_sq(rng.uniform(0.1, 0.9))
        phased = (EntanglementParams(ent.alpha * cmath.exp(0.7j), ent.beta * cmath.exp(0.7j)),
                  pol and PolarizationParams(pol.gamma * cmath.exp(-1.1j), pol.delta * cmath.exp(-1.1j)))
        options = dict(rounds=i % 5 + 1 if name.startswith("ecp2") else 1, accounting=accounting,
                       model=DetectorModel(eta_p=(1.0, 0.8)[i % 2]))
        try:
            real = execute(builtin_doc(name), ent, pol, **options)
        except (TopologyError, ValueError) as exc:
            with pytest.raises(type(exc)):
                execute(builtin_doc(name), *phased, **options)
            continue
        report = execute(builtin_doc(name), *phased, **options)
        assert type(report.rounds[0].p_success) is float
        assert len(report.rounds) == len(real.rounds)
        for got, want in zip(report.rounds, real.rounds):
            for field in ("t", "p_success", "p_fail_recyclable", "heralded_fidelity"):
                assert _close(getattr(got, field), getattr(want, field), 1e-12), (field, got, want)
        assert _close(report.p_total, real.p_total, 1e-12)
        compared += 1
    assert compared >= 6


def test_a_bare_schedule_parameter_reads_the_planned_list():
    # t=t1 takes the planned value as evaluate_real gives it (an int prints as a float); an
    # expression of it is evaluated round by round, to the same values
    for t1 in (1, 0.3):
        report = execute(parse(ONE_ARM), ENT, t1=t1)
        assert report.schedule["plus"] == [float(t1)] and type(report.schedule["plus"][0]) is float
        assert f'"plus": [\n      {float(t1)!r}\n    ]' in report.to_json()
        evaluated = execute(parse(ONE_ARM.replace("t=t1", "t=1*t1")), ENT, t1=t1)
        assert evaluated.to_json() == report.to_json()
    ent = EntanglementParams.from_alpha_sq(0.9)
    report = run_ecp2(ent, PolarizationParams.from_gamma_sq(0.3), rounds=8, accounting="joint")
    planned = [evaluate_real("t_plus", {"t_plus": t}) for t in vbs_schedule(ent, 8)]
    assert report.schedule == {"plus": planned, "minus": planned}


def test_an_evaluated_coupler_repeats_its_value_over_repeated_rounds(monkeypatch):
    # at alpha^2 0.5 the doubling schedule stays at t 0.5, so each later round's bindings equal
    # the first's and the coupler expression is evaluated once
    texts = []
    evaluate = ecpsim.engine.evaluate_real
    monkeypatch.setattr(ecpsim.engine, "evaluate_real", lambda text, b: texts.append(text) or evaluate(text, b))
    ent = EntanglementParams.from_alpha_sq(0.5)
    evaluated = execute(parse(builtin_text("ecp2_stripped").replace("t=t_plus", "t=t_plus*1")), ent, rounds=6)
    assert texts == ["t_plus*1"]
    assert evaluated.schedule == run_ecp2(ent, rounds=6).schedule == {"plus": [0.5] * 6, "minus": []}


def test_late_recycling_rounds_run_in_the_warm_round_functions(monkeypatch):
    # at alpha^2 0.9 the reflected factor sqrt(1 - t) of every auxiliary photon falls from 2e-8 in
    # round 5 toward 0 (t rounds to 1 from round 6); every round still runs in the round function
    # of its auxiliary and input ids, so a warm chain compiles none, and every round down to the
    # underflow keeps its mass
    ent = EntanglementParams.from_alpha_sq(0.9)
    for accounting in ("branch", "joint"):
        run_ecp2(ent, POL, rounds=12, accounting=accounting)
    built = []
    monkeypatch.setattr(ecpsim.engine, "_kernel", lambda *args: built.append(args) or _kernel(*args))
    for accounting in ("branch", "joint"):
        report = run_ecp2(ent, POL, rounds=12, accounting=accounting)
        assert max(report.schedule["plus"][:5]) < 1.0 == min(report.schedule["plus"][5:])
        assert all(r.p_success > 0.0 for r in report.rounds[:8])
    assert not built


# -- pruned photon components ---------------------------------------------

# gamma^2 0 and 1, where a signal and a target component are exactly zero and dropped, and gamma
# or delta 1.2e-15, where they are tiny and kept
EDGES = [PolarizationParams.from_gamma_sq(0.0), PolarizationParams.from_gamma_sq(1.0),
         PolarizationParams(1.2e-15, 1.0), PolarizationParams(1.0, 1.2e-15)]


def _edge_outcomes():
    """Polarized ecp1 and ecp2 (3 rounds) at the ``EDGES``, under both accountings, alpha^2 0.3,
    0.6 and 0.9 and eta 0.8, with and without the miswired coupler: each report's bytes, or the
    error's type and message."""
    texts = []
    for corrupt, name, pol, accounting, a2 in itertools.product(
            (False, True), ("ecp1", "ecp2"), EDGES, ("branch", "joint"), (0.3, 0.6, 0.9)):
        with corrupted_coupler() if corrupt else contextlib.nullcontext():
            try:
                texts.append(execute(builtin_doc(name), EntanglementParams.from_alpha_sq(a2), pol,
                                     rounds=3 if name == "ecp2" else 1, accounting=accounting,
                                     model=DetectorModel(eta_p=0.8)).to_json())
            except (TopologyError, ValueError) as exc:
                texts.append(f"{type(exc).__name__}: {exc}")
    return texts


def test_zero_and_tiny_signal_and_target_components_give_the_pinned_reports():
    texts = _edge_outcomes()
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
        "8a867a5c77b1b9a9201d5b464d732b2c2e675c6b4e3f9f3798290e8a43dca349")
    for pol in EDGES:  # the prologue drops half the signal and target ids where they are exactly zero
        bindings = {"alpha": ENT.alpha, "beta": ENT.beta, "gamma": pol.gamma, "delta": pol.delta}
        signal, _, (tids, tamps, _), _ = _prologue(analyze(builtin_doc("ecp2")), pol)(bindings)
        ids = 2 if 0.0 in (pol.gamma, pol.delta) else 4
        assert len(signal) == len(tids) == len(tamps) == ids and type(tids) is tuple
