"""Engine: topology recognition, document execution, configuration errors."""

import cmath
import collections
import contextlib
import dataclasses
import hashlib
import itertools
import json
import linecache
import math
import random
import sys

import pytest

import ecpsim.dsl
import ecpsim.elements
import ecpsim.engine
import ecpsim.fock
import ecpsim.report
from ecpsim.circuits import builtin_doc, builtin_text
from ecpsim.dsl import DetectDecl, evaluate_expr, evaluate_real, parse
from ecpsim.elements import PortContractError, bs_matrix, bs_rules, merge_terms, vbs_pair, vbs_rules
from ecpsim.engine import (
    ConfigError,
    TopologyError,
    _ChainRound,
    _bound,
    _masked,
    _prologue,
    _round_kernel,
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
    prune,
    single_photon,
    tensor,
    terms_fidelity,
    terms_norm_sq,
)
from ecpsim.measurement import MIXTURE, DetectorGroup, DetectorModel, detection_factor, herald_terms, qnd_class, residual
from ecpsim.params import EntanglementParams, ParameterError, PolarizationParams, vbs_schedule
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
    assert raised == 20
    assert digest.hexdigest() == "029f109b120dc82c8775c1eb25dd1e38347a2c56e812ca407e06f7fb13ea6759"


# -- compiled stage tables ------------------------------------------------

def _table_keys(tab):
    """Every key of a plan's pattern table: interned patterns, stages, and every key of a
    table inside a stage entry (round programs, their round functions by surviving slots,
    pairings), at any depth; the coupler rules a program keeps are keyed on modes and not walked."""
    keys = list(tab.ids)

    def walk(entry):
        if isinstance(entry, ecpsim.engine._Chain):
            entry = [getattr(entry, name) for name in entry.__slots__]
        if isinstance(entry, dict) and not isinstance(entry, CheckedRules):
            keys.extend(entry)
            entry = list(entry.values())
        if isinstance(entry, (tuple, list)):
            for item in entry:
                walk(item)

    for stage, table in tab.stages.items():
        keys.append(stage)
        walk(table)
    return keys


def _kernels(tab):
    """Each generated round function: per round program and surviving-slot key, and per chain,
    auxiliary ids and input ids the one that forms its products."""
    kernels = {(shape, alive): kernel for stage, table in tab.stages.items() if stage[0] == "round"
               for shape, program in table.items() for alive, kernel in program[-1].items()}
    return kernels | {(labels, aux, ids): kernel for labels, chain in tab.stages.get(("chain",), {}).items()
                      for aux, formed in chain.formed.items() for ids, kernel in formed.items()}


def _scorers(tab):
    """Each generated scorer, by its round's win and target ids and surviving paired values."""
    return {(key, alive): scorer for key, scorers in tab.stages.get(("score",), {}).items()
            for alive, scorer in scorers.items()}


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
def test_stage_tables_are_keyed_on_structure_only(name):
    tab = analyze(builtin_doc(name)).table
    _run_batch(name, seed=1)
    warm = _table_keys(tab)
    kernels, scorers = _kernels(tab), _scorers(tab)
    _run_batch(name, seed=2)
    assert _table_keys(tab) == warm  # new parameter values add no entry
    assert _kernels(tab) == kernels and any(len(key) == 3 for key in kernels)  # nor a round function
    assert _scorers(tab) == scorers and scorers  # nor a scorer
    for (*wins, tids), alive in scorers:  # scorers are keyed on ids only
        assert all(type(q) is int for q in (*tids, *itertools.chain(*itertools.chain(*wins))))
        assert alive is None or all(type(x) is bool for x in alive)
    assert not {"<round kernel>", "<round scorer>", "<photons>", "<expression>"} & linecache.cache.keys()  # no source kept
    assert not any(_holds_float(k) for k in warm)
    prologues = tab.stages[("point",)]  # one generated prologue per point kind, keyed on the kind alone
    assert set(prologues) == {"V" if name.endswith("_stripped") else "HV"} and all(map(callable, prologues.values()))
    assert {stage[0] for stage in tab.stages} <= {
        "chain", "round", "pbs split", "pbs merge", "point", "score"}
    # bounded by the layout's reachable patterns, not by the points run
    assert len(tab.patterns) <= 128 and len(warm) <= 512


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
    # after warm-up a point compiles nothing: the merge is a relabel, every round a stored program
    # and generated function, the photons (sources, split and target) one generated prologue,
    # and no chain builds CheckedRules or DetectorGroups, walks an expression tree, runs the
    # split or an expression function of the parser module, or scores through dicts
    _run_batch(name, seed=1)
    counts = dict.fromkeys(("transform", "program", "rules", "groups", "merge", "fidelity", "photon", "walk",
                            "kernel", "scoring", "split", "compiled"), 0)
    parser = set()  # the parser module's functions and generated expressions called

    def counted(key, original):
        def call(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(PatternTable, "transform", counted("transform", PatternTable.transform))
    monkeypatch.setattr(PatternTable, "_program", counted("program", PatternTable._program))
    monkeypatch.setattr(CheckedRules, "__init__", counted("rules", CheckedRules.__init__))
    monkeypatch.setattr(DetectorGroup, "__post_init__", counted("groups", DetectorGroup.__post_init__))
    monkeypatch.setattr(ecpsim.elements, "merge_terms", counted("merge", ecpsim.elements.merge_terms))
    monkeypatch.setattr(ecpsim.fock, "terms_fidelity", counted("fidelity", ecpsim.fock.terms_fidelity))
    monkeypatch.setattr(PatternTable, "photon", counted("photon", PatternTable.photon))
    monkeypatch.setattr(ecpsim.engine, "emit_expr", counted("walk", ecpsim.engine.emit_expr))
    monkeypatch.setattr(ecpsim.engine, "_kernel", counted("kernel", ecpsim.engine._kernel))
    monkeypatch.setattr(ecpsim.engine, "_scoring", counted("scoring", ecpsim.engine._scoring))
    monkeypatch.setattr(ecpsim.engine, "split_terms", counted("split", ecpsim.engine.split_terms))
    monkeypatch.setattr(ecpsim.engine, "compiled", counted("compiled", ecpsim.engine.compiled))
    assert not {"merge_terms", "terms_fidelity", "evaluate_expr"} & vars(ecpsim.engine).keys()  # none bound here

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


def _record_chains(monkeypatch, calls):
    """Record in ``calls`` each ``_run_chain`` call ``execute`` makes from now on, as its arguments
    ``(tab, chain, input, pairs, auxes, model)``, the coupler pairs as a list, then what the staged
    and dict paths read: ``(arms, schedules, bindings, merge)``, the chain's arms, their
    transmittances per arm, the point's bindings and the merge.  Each call's pairs are checked
    against the point's schedule."""
    points, effective = [], ecpsim.engine._effective_schedule  # each point's plan, bindings, schedule

    def schedule(plan, bindings, *args):
        points.append((plan, bindings, effective(plan, bindings, *args)))
        return points[-1][2]

    def record(tab, chain, current, pairs, auxes, model):
        plan, bindings, planned = points[-1]
        [labels] = [labels for labels, bound in tab.stage("chain").items() if bound is chain]
        arms = [a for label in labels for a in plan.arms if a.label == label]
        schedules, pairs = [planned[a.label] for a in arms], list(pairs)
        assert pairs == list(zip(*[list(map(vbs_pair, ts)) for ts in schedules]))
        calls.append(((tab, chain, current, pairs, auxes, model), (arms, schedules, bindings, plan.merge)))
        return _run_chain(tab, chain, current, pairs, auxes, model)

    monkeypatch.setattr(ecpsim.engine, "_effective_schedule", schedule)
    monkeypatch.setattr(ecpsim.engine, "_run_chain", record)


def _staged_successes(tab, terms, couplers, groups, flips, factor):
    """A round's couplers, herald, normalized residual, phase flips, rescaled
    by ``sqrt(weight)``, one stage at a time: ``(weight, probability, raw)``."""
    for bs in couplers:
        terms = tab.transform(terms, bs_rules(bs.in1, bs.in2, bs.out1, bs.out2))
    wins = []
    for _, weight, success, corr, component in herald_terms(tab, terms, groups, flips):
        if success:
            raw = {}
            for q, a in residual(component, weight).items():
                odd = sum(pattern_count(tab.patterns[q], m) for m in corr) % 2
                raw[q] = (-a if odd else a) * math.sqrt(weight)
            wins.append((weight, weight * factor, prune(raw)))
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
    groups = [DetectorGroup(a.success_group.group, a.success_group.modes, a.success_group.eta) for a in arms]
    wins = _staged_successes(
        tab, {p: a for p, a in work.items() if classes[p] <= {1}},
        [a.success_bs for a in arms], groups, {d: m for a in arms for d, m in a.flips.items()},
        detection_factor(groups, model),
    )
    again, nxt = [], {}
    if all(a.recycle_bs for a in arms):
        recycle = [DetectorGroup(a.recycle_group.group, a.recycle_group.modes, a.recycle_group.eta) for a in arms]
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
        nxt = prune({q: a * scale for q, a in first.items()})
    return sum(p for _, p, _ in wins), sum(w for w, _, _ in again), [raw for _, _, raw in wins], nxt


def _states(book):
    """A chain round's heralded states through the merge, as dicts."""
    amps = iter(book.amps)
    return [dict(zip(ids, amps)) for ids in book.wins]


def _assert_terms_close(got, want):
    assert got.keys() == want.keys()
    scale = math.sqrt(terms_norm_sq(want))
    assert all(abs(got[q] - want[q]) <= 1e-14 * scale for q in want)


def _coefficients(arms, ts, bindings):
    """Magnitudes of the auxiliary photons' product coefficients of one round."""
    products = [1.0]
    for arm, t in zip(arms, ts):
        aux = [abs(evaluate_expr(s.amp, bindings)) for s in arm.aux_sources]
        photon = [a * c for a in aux for c in (math.sqrt(1 - t), math.sqrt(t)) if a * c >= PRUNE_EPS]
        products = [p * c for p in products for c in photon]
    return products


@pytest.mark.parametrize("accounting", ["branch", "joint"])
@pytest.mark.parametrize("name", ["ecp1", "ecp2", "ecp1_stripped", "ecp2_stripped"])
def test_compiled_round_matches_the_staged_kernels(name, accounting, monkeypatch):
    calls, pruned_outputs = [], []

    def kernel(tab, program, ports, alive):
        pruned_outputs.append(alive is not None)
        return _round_kernel(tab, program, ports, alive)

    _record_chains(monkeypatch, calls)
    polarized = not name.endswith("_stripped")
    execute(
        builtin_doc(name), ENT, POL if polarized else None,
        rounds=3 if name.startswith("ecp2") else 1, accounting=accounting,
        model=DetectorModel(eta_p=0.8),
    )
    monkeypatch.setattr(ecpsim.engine, "_round_kernel", kernel)
    assert calls
    rng = random.Random(7)
    compared = mixtures = pruned_products = 0
    for (tab, chain, current, pairs, auxes, model), (arms, schedules, bindings, merge) in calls:
        aux_ports = {m for a in arms for m in (a.vbs.reflect, a.vbs.transmit)}
        couplers = [bs for a in arms for bs in (a.success_bs, a.recycle_bs) if bs]
        ports = [(m, pol) for bs in couplers for m in (bs.in1, bs.in2) if m not in aux_ports for pol in "HV"]
        rounds = _run_chain(tab, chain, current, pairs, auxes, model)
        for k in range(len(pairs)):
            ts = [s[k] for s in schedules]
            # the recorded ids reweighted; the same with the first id so small that
            # only its largest product survives, then so small that its products
            # survive but their coupler outputs do not; and one photon over every
            # coupler input that no auxiliary photon occupies, in H, in V and in both
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
                        _run_chain(tab, chain, terms, pairs[k:k + 1], auxes, model)
                    mixtures += 1
                    continue
                [got] = _run_chain(tab, chain, terms, pairs[k:k + 1], auxes, model)
                assert got.p_success == pytest.approx(p_win, rel=1e-14, abs=0.0)
                assert got.p_recycle == pytest.approx(p_rec, rel=1e-14, abs=0.0)
                assert len(got.wins) == len(wins)
                for state, raw in zip(_states(got), wins):
                    _assert_terms_close(state, raw if merge is None else merge_terms(tab, raw, merge.in_h, merge.in_v, merge.out))
                _assert_terms_close(got.recycle_next, nxt)
                compared += 1
    assert compared and mixtures
    assert pruned_products and any(pruned_outputs)


# the dict path the compiled scoring replaced: merge_terms -> pair -> terms_fidelity per round,
# each signature's raw state and the recycle agreement on dicts


def _dict_wins(sides, values, factor):
    """Per side, each signature's ``(weight, probability, raw)`` when it weighs more than
    PRUNE_EPS**2, its slots pruned, relabeled to residual ids, and checked for a mixture."""
    mags, at, out = list(map(abs, values)), 0, []
    for route, side in enumerate(sides):
        wins = []
        for sig, qs in side:
            squares, raw = [], {}
            for s, q in enumerate(qs, at):
                if mags[s] >= PRUNE_EPS:
                    squares.append(mags[s] ** 2)
                    raw[q] = values[s]
            at += len(qs)
            weight = sum(squares)
            if weight > PRUNE_EPS**2:
                if len(raw) < len(squares):
                    raise PolarizationMixtureError(f"click signature {' '.join(f'{d}:{n}' for d, n in sig)}: {MIXTURE}")
                wins.append((weight, weight * (1.0 if route else factor), raw))
        out.append(wins)
    return out


def _dict_combine_recycle(again, weight):
    if not again:
        return {}
    (n0, _, first), *rest = again
    for n, _, other in rest:
        if terms_fidelity(first, other, n0, n) < 1.0 - RECYCLE_AGREEMENT_TOL:
            raise RuntimeError("recycle click patterns disagree after correction; "
                               "feed-forward rules are inconsistent with the coupler convention")
    scale = math.sqrt(weight / n0)
    return prune({p: a * scale for p, a in first.items()})


def _dict_score(tab, sides, values, factor, ports):
    wins, again = _dict_wins(sides, values, factor)
    merged = [raw if not ports else merge_terms(tab, raw, *ports) for _, _, raw in wins]
    p_rec = sum((w for w, _, _ in again), 0.0)
    return sum((p for _, p, _ in wins), 0.0), merged, p_rec, _dict_combine_recycle(again, p_rec)


def _dict_pair(plus, minus):
    combined = dict(plus)
    for p, amp in minus.items():
        combined[p] = 0.5 * (combined[p] + amp) if p in combined else amp
    return prune(combined)


def _dict_rounds(ts, chains, target):
    tdict = dict(zip(*target[:2]))
    out = []
    for k, (t, books) in enumerate(zip(ts, zip(*chains))):
        if not k or any(b is not c[k - 1] for b, c in zip(books, chains)):
            fid = None
            if all(b.wins for b in books):
                merged = [_states(b) for b in books]
                states = merged[0] if len(merged) == 1 else [_dict_pair(a, b) for a in merged[0] for b in merged[1]]
                fid = min([terms_fidelity(st, tdict, nb=terms_norm_sq(tdict)) for st in states])
        out.append((k + 1, t, sum(b.p_success for b in books), sum(b.p_recycle for b in books), fid))
    return out


def _outcome(call, show=repr):
    """``show`` of its result (its repr by default), or its exception's type and message."""
    try:
        return show(call())
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _as_is(value):
    return value


def _reweighted(values, rng):
    """Slot values (or products) reweighted at random, then with one per five at 1.01 PRUNE_EPS and
    one at 0.99 PRUNE_EPS (pruned), then every fourth at 0.6 PRUNE_EPS (a signature weighing too little)."""
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
    return (None, count, tuple(((s, 1.0),) for s in range(count)), sides, {})


def _scored(tab, program, products, factor, ports, show=repr):
    """The round function's result as ``_outcome(_dict_score)`` gives it: a repr, or the error's
    type and message, where a merge error is kept in the round rather than raised."""
    return _book(lambda: _round_kernel(tab, program, ports, None)(products, factor), show)


def _book(call, show=repr):
    try:
        book = call()
    except (ValueError, RuntimeError) as exc:
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
    ``aux * s``, pruned, then every product input-major, pruned; the shape of what survives,
    and whether every product of the surviving factors does."""
    shape, products, whole = [tuple(current)], list(current.values()), True
    for (xs, amps), rs in zip(auxes, pairs):
        factors = [(x, f) for x, f in zip(xs, [a * c for a in amps for c in rs]) if abs(f) >= PRUNE_EPS]
        products = [v * f for v in products for _, f in factors]
        alive = tuple(abs(p) >= PRUNE_EPS for p in products)
        products = [p for p, kept in zip(products, alive) if kept]
        shape.append((tuple(x for x, _ in factors), alive))
        whole = whole and all(alive)
    return tuple(shape), products, whole


def _factor_mask(auxes, pairs):
    """Which of every arm's factors ``aux * r``, ``aux * s`` survive the prune, arm after arm."""
    return tuple(abs(a * c) >= PRUNE_EPS for (_, amps), rs in zip(auxes, pairs) for a in amps for c in rs)


def _dict_round(tab, chain, auxes, current, ts, model):
    """One round of ``chain`` through the dict path on the engine's slot program of the round's
    shape: ``(outcome, whole, sides, slot values, factor, merge ports)``, the outcome as the
    result itself or the error's type and message, ``whole`` where no product is pruned."""
    shape, products, whole = _dict_products(current, auxes, [(math.sqrt(1.0 - t), math.sqrt(t)) for t in ts])
    _, slots, sides = ecpsim.engine._slots(tab, shape, chain.rules, chain)
    factor, values = detection_factor(chain.setup[0][0], model), _dict_slots(slots, products)
    return _outcome(lambda: _dict_score(tab, sides, values, factor, chain.ports), _as_is), whole, sides, values, factor, chain.ports


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
    # every round against the product stage, slot gather and dict path it replaced, bit for bit:
    # on the recorded inputs, reweighted at random, with entries at 1.01, 0.99 and 0.6 PRUNE_EPS
    # and with every entry at magnitude 4, each also with the first arm's transmitted factor at
    # 0.6 PRUNE_EPS (so the round function of the surviving factors runs, or hands over to the
    # masked path where a product is pruned); through a program
    # of the same signatures whose slot s is product s, on the slot values and their reweightings;
    # and every scorer against the dict pairing and fidelities.  The dict path sums from 0j: where
    # the round holds a float it is that sum's real part, repr for repr, its imaginary part 0;
    # fed the recorded inputs as complex(x, 0.0), the round is the dict path's, repr for repr.
    # Also under a miswired coupler (where the recycle agreement fails on both paths)
    calls, rounds, handed = [], [], []

    def masked(tab, chain, kernels, current, auxes, pairs, factor):
        # True: the round function of these input ids and surviving factors handed a pruned product over
        handed.append((tuple(current), _factor_mask(auxes, pairs)) in kernels)
        return _masked(tab, chain, kernels, current, auxes, pairs, factor)

    _record_chains(monkeypatch, calls)
    monkeypatch.setattr(ecpsim.engine, "_rounds", lambda *a: rounds.append(a) or _rounds(*a))
    polarized = not name.endswith("_stripped")
    with corrupted_coupler() if corrupt else contextlib.nullcontext():
        for alpha_sq in (0.3, 0.6, 0.9):
            with contextlib.suppress(RuntimeError, DegenerateStateError):
                execute(builtin_doc(name), EntanglementParams.from_alpha_sq(alpha_sq), POL if polarized else None,
                        rounds=5 if name.startswith("ecp2") else 1, accounting=accounting,
                        model=DetectorModel(eta_p=0.8))
        assert calls and (rounds or corrupt)
        monkeypatch.setattr(ecpsim.engine, "_masked", masked)
        rng = random.Random(16)
        outcomes = collections.Counter()
        for (tab, chain, current, pairs, auxes, model), (_, schedules, _, _) in calls:
            for k in range(len(pairs)):
                ts = [s[k] for s in schedules]
                inputs = [current] + [dict(zip(current, vals)) for vals in _reweighted(list(current.values()), rng)]
                inputs.append({w: 4.0 * a / abs(a) for w, a in current.items()})  # 4 * 0.6 PRUNE_EPS survives a pruned factor
                inputs += [{w: complex(a, 0.0) for w, a in terms.items()} for terms in (current, inputs[-1])]
                for i, (terms, t) in enumerate(itertools.product(inputs, (ts, [(0.6 * PRUNE_EPS) ** 2, *ts[1:]]))):
                    want, whole, sides, values, factor, ports = _dict_round(tab, chain, auxes, terms, t, model)
                    handed.clear()
                    got = _book(lambda: _run_chain(tab, chain, terms, [tuple(map(vbs_pair, t))], auxes, model)[0], _as_is)
                    complex_input = all(type(a) is complex for a in terms.values())
                    assert repr(got) == repr(want if complex_input else _real_where(want, got))
                    outcomes["floats"] += repr(got) != repr(want)
                    assert handed in ([False], [] if whole else [True])  # new input ids or factors, or the masked path
                    outcomes["handed"] += handed == [True]
                    outcomes["pruned factor, generated"] += handed == [] and t[0] != ts[0]
                    outcomes[want[0] if len(want) == 2 else "scored"] += 1
                    if i == 0:
                        identity = _identity(sides, len(values))
                        cases = [(vals, vals) for vals in [values, *_reweighted(values, rng)]]
                        if not any(v.imag for v in values):  # the slot values as floats
                            cases.append(([v.real for v in values], values))
                        for vals, slots in cases:
                            got = _scored(tab, identity, vals, factor, ports, _as_is)
                            want = _outcome(lambda: _dict_score(tab, sides, slots, factor, ports), _as_is)
                            assert repr(got) == repr(_real_where(want, got) if vals is not slots else want)
                            outcomes[got[0] if len(got) == 2 else "scored"] += 1
                try:
                    [book] = _run_chain(tab, chain, current, pairs[k:k + 1], auxes, model)
                except (RuntimeError, ValueError):
                    break
                current = book.recycle_next
    assert outcomes["scored"] and (outcomes["RuntimeError"] or not name.startswith("ecp2"))
    assert outcomes["handed"] and outcomes["pruned factor, generated"] and (outcomes["floats"] or corrupt)
    pruned = 0
    for tab, ts, chains, target in rounds:
        # the recorded wins; reweighted; with shared plus and minus ids near cancelling, or one
        # pair at 0.6 PRUNE_EPS; at random; every amplitude at 0.6 PRUNE_EPS, no state surviving;
        # and as complex(x, 0.0)
        weights = {id(b): _reweighted(b.amps, rng) for chain in chains for b in chain}
        variants = [chains, *[_rescaled(chains, lambda i, b: weights[id(b)][r]) for r in range(6)]]
        for scale in (1.0, -1.0 + 1.01 * PRUNE_EPS):
            variants.append(_rescaled(chains, lambda i, b: [a * scale if i else a for a in b.amps]))
        variants += [_cancelling(chains)] if len(chains) == 2 else []
        variants.append(_rescaled(chains, lambda i, b: [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in b.amps]))
        variants.append(_rescaled(chains, lambda i, b: [a / abs(a) * 0.6 * PRUNE_EPS for a in b.amps]))
        variants.append(_rescaled(chains, lambda i, b: [complex(a, 0.0) for a in b.amps]))
        for chains in variants:
            got = _outcome(lambda: [tuple(vars(r).values()) for r in _rounds(tab, ts, chains, target)])
            assert got == _outcome(lambda: _dict_rounds(ts, chains, target))
            outcomes[got[0] if isinstance(got, tuple) else "rounds"] += 1
            pruned += len(chains) == 2 and len(chains[0][0].wins) and any(
                len(_dict_pair(a, b)) < len(a | b) for a in _states(chains[0][0]) for b in _states(chains[1][0]))
    assert pruned or accounting == "joint" or not polarized or corrupt
    assert outcomes["DegenerateStateError"] or corrupt


def test_the_merge_scale_and_its_prune_match_merge_terms():
    # two photons in the merged mode: the merge scales by sqrt(N_out!) / sqrt(n_in!) and prunes;
    # V on the merge's H input is the merge error, kept in the round
    tab = PatternTable()
    pair = tab.intern(((("b9", "H"), 2),))
    mixed = tab.intern(((("b6", "V"), 1), (("b9", "H"), 1)))
    wrong = tab.intern(((("b9", "V"), 1),))
    won = (((("d1", 1),), (pair, mixed)), ((("d2", 1),), (wrong,)))
    ports = ("b9", "b6", "b10")
    rng = random.Random(5)
    near = (cmath.rect(PRUNE_EPS * (1 + rng.randrange(64) * 2.0**-52), rng.uniform(0, 2 * math.pi)) for _ in range(10**5))
    edge = next(a for a in near if abs(a) >= PRUNE_EPS > abs((a * math.sqrt(2)) / math.sqrt(2)))  # pruned once merged
    sizes = []
    for values in ([0.3 + 0.4j, -0.5j], [edge, 0.6 + 0.0j], [0.7 + 0.1j, edge]):
        program = _identity((won[:1], ()), 2)
        assert _scored(tab, program, values, 0.8, ports) == _outcome(lambda: _dict_score(tab, program[3], values, 0.8, ports))
        sizes.append(len(_states(_round_kernel(tab, program, ports, None)(values, 0.8))[0]))
        program = _identity((won, ()), 3)
        got = _scored(tab, program, [*values, 0.1j], 0.8, ports)
        assert got == _outcome(lambda: _dict_score(tab, program[3], [*values, 0.1j], 0.8, ports))
        assert got == ("PortContractError", "pbs merge: input 'b9' carries V amplitude")
    assert sizes == [2, 1, 2]  # the merge prune drops the edge amplitude on the two-photon id only


def test_a_signature_weighing_prune_eps_squared_is_dropped():
    # a slot at exactly PRUNE_EPS survives the prune, but alone it weighs PRUNE_EPS**2: too little
    tab = PatternTable()
    ids = tuple(tab.intern(((("b1", pol), 1),)) for pol in "HV")
    won, recycled = (((("d1", 1),), ids[:1]),), (((("d2", 1),), ids[1:]),)
    program = _identity((won, recycled), 2)
    for values in ([PRUNE_EPS + 0j, 0.6 + 0j], [0.6 + 0j, PRUNE_EPS + 0j], [PRUNE_EPS + 0j] * 2):
        got = _scored(tab, program, values, 0.8, ())
        assert got == _outcome(lambda: _dict_score(tab, program[3], values, 0.8, ()))
        assert "e-15" not in got and "e-30" not in got


def test_a_slot_sums_its_products_from_0j_in_order():
    # no shipped layout compiles a slot of more than one product: here each slot sums several,
    # in the order it lists them, so 1e16 + 3 - 1e16 rounds as the slot gather rounds it
    tab = PatternTable()
    ids = tuple(tab.intern(((("b1", pol), 1),)) for pol in "HV")
    rng = random.Random(17)
    slots = (((0, 1.0), (1, 1.0), (2, 1.0)), tuple((i, rng.uniform(-2.0, 2.0)) for i in (4, 3, 0, 1)))
    program = (None, 5, slots, ((((("d1", 1),), ids),), ()), {})
    cases = [[1e16 + 1e16j, 3 + 5j, -1e16 - 1e16j, 0.1 + 0j, 0.2j]]
    cases += [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(5)] for _ in range(20)]
    for products in cases:
        book = _round_kernel(tab, program, (), None)(products, 1.0)
        assert repr(book.amps) == repr(_dict_slots(slots, products))
    assert _round_kernel(tab, program, (), None)(cases[0], 1.0).amps[0] not in (3 + 5j, 0j)  # the order shows


def test_split_and_merge_run_on_the_plan_table():
    tab = analyze(builtin_doc("ecp1")).table
    _run_batch("ecp1", seed=3)
    assert tab.stages[("pbs split", "b1", "b3", "b2")]
    assert tab.stages[("pbs merge", "b9", "b6", "b10")]


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


def test_variable_coupler_ports_are_checked_once_per_chain():
    # the parser rejects a repeated port, so only a hand-built arm reaches the engine's check
    plan = analyze(builtin_doc("ecp2_stripped"))
    [arm] = plan.arms
    bad = dataclasses.replace(arm, label="bad", vbs=dataclasses.replace(arm.vbs, transmit=arm.vbs.inp))
    with pytest.raises(PortContractError) as err:
        _bound(PatternTable(), [bad], None, bs_matrix())
    assert str(err.value) == f"vbs: ports must be distinct, {arm.vbs.inp!r} repeats"


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
            with contextlib.suppress(RuntimeError, DegenerateStateError):
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
        except (RuntimeError, ValueError) as exc:
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


def test_late_recycling_rounds_run_in_round_functions(monkeypatch):
    # at alpha^2 0.9 the schedule reaches t = 1 in round 6, pruning the reflected factor
    # sqrt(1 - t) of every auxiliary photon; the products of the factors that survive all
    # survive, so a warm chain runs that round in a round function too, keyed on those factors.
    # Round 5 (1 - t = 4e-16) still goes through the masked path: its products v * sqrt(1 - t)
    # fall under PRUNE_EPS
    ent = EntanglementParams.from_alpha_sq(0.9)
    for accounting in ("branch", "joint"):
        run_ecp2(ent, POL, rounds=8, accounting=accounting)
    masked = []
    monkeypatch.setattr(ecpsim.engine, "_masked", lambda *args: masked.append(args) or _masked(*args))
    for accounting in ("branch", "joint"):
        report = run_ecp2(ent, POL, rounds=8, accounting=accounting)
        assert max(report.schedule["plus"][:5]) < 1.0 == min(report.schedule["plus"][5:])
    assert masked
    for *_, current, auxes, pairs, _ in masked:
        assert all(r > 0.0 for r, _ in pairs)  # not a round at t = 1
        assert min(abs(v) for v in current.values()) * min(r for r, _ in pairs) < PRUNE_EPS


# -- pruned photon components ---------------------------------------------

# gamma^2 0 and 1, where a signal and a target component prune, and gamma or delta 1.2e-15, where
# a target component survives the sum's prune but not the one after normalizing
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
            except (RuntimeError, ValueError) as exc:
                texts.append(f"{type(exc).__name__}: {exc}")
    return texts


def test_pruned_signal_and_target_components_give_the_pinned_reports():
    # the digest of the same 96 outcomes before the photons were generated as one prologue
    texts = _edge_outcomes()
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
        "5e42349423a8c46c8a679d37490569e5e5b210e4aa867129390432c65364d95f")
    for pol in EDGES:  # the prologue prunes half the signal and target ids
        bindings = {"alpha": ENT.alpha, "beta": ENT.beta, "gamma": pol.gamma, "delta": pol.delta}
        signal, _, (tids, tamps, _), _ = _prologue(analyze(builtin_doc("ecp2")), pol)(bindings)
        assert len(signal) == 2 and len(tids) == len(tamps) == 2 and type(tids) is tuple
