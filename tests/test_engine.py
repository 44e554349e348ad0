"""Engine: topology recognition, document execution, configuration errors."""

import cmath
import collections
import contextlib
import dataclasses
import hashlib
import json
import math
import random

import pytest

import ecpsim.dsl
import ecpsim.elements
import ecpsim.engine
import ecpsim.fock
import ecpsim.report
from ecpsim.circuits import builtin_doc, builtin_text
from ecpsim.dsl import DetectDecl, evaluate_expr, parse
from ecpsim.elements import bs_rules, merge_terms, vbs_coefficients, vbs_rules
from ecpsim.engine import (
    ConfigError,
    TopologyError,
    _photon,
    _rounds,
    _run_chain,
    _score,
    _terms,
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
from ecpsim.params import EntanglementParams, ParameterError, PolarizationParams
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
    polarized = _terms(_photon(plan.table, plan.signal_sources), bindings)
    assert len(polarized) == 4
    assert terms_norm_sq(polarized) == pytest.approx(1.0)
    plan = analyze(builtin_doc("ecp1_stripped"))
    stripped = _terms(_photon(plan.table, plan.signal_sources), bindings)
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
    table inside a stage entry (round programs, their scoring, pairings), at any depth; the
    coupler rules a program keeps are keyed on modes and not walked."""
    keys = list(tab.ids)

    def walk(entry):
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
    _run_batch(name, seed=2)
    assert _table_keys(tab) == warm  # new parameter values add no entry
    assert not any(_holds_float(k) for k in warm)
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
    # after warm-up a point compiles nothing: the split and the merge are
    # relabels, every round and its scoring a stored program, sources and
    # target compiled id lists, and no chain builds CheckedRules or
    # DetectorGroups, walks an expression tree or scores through dicts
    _run_batch(name, seed=1)
    counts = dict.fromkeys(("transform", "program", "rules", "groups", "merge", "fidelity", "photon", "walk"), 0)

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
    monkeypatch.setattr(ecpsim.dsl, "_compile", counted("walk", ecpsim.dsl._compile))
    assert not {"merge_terms", "terms_fidelity", "evaluate_expr"} & vars(ecpsim.engine).keys()  # none bound here
    _run_batch(name, seed=2)
    assert counts == dict.fromkeys(counts, 0)


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

    def record(*args):
        calls.append(args)
        return _run_chain(*args)

    def score(tab, program, values, factor, ports):
        pruned_outputs.append(min(map(abs, values), default=1.0) < PRUNE_EPS)
        return _score(tab, program, values, factor, ports)

    monkeypatch.setattr(ecpsim.engine, "_run_chain", record)
    polarized = not name.endswith("_stripped")
    execute(
        builtin_doc(name), ENT, POL if polarized else None,
        rounds=3 if name.startswith("ecp2") else 1, accounting=accounting,
        model=DetectorModel(eta_p=0.8),
    )
    monkeypatch.setattr(ecpsim.engine, "_score", score)
    assert calls
    rng = random.Random(7)
    compared = mixtures = pruned_products = 0
    for tab, arms, current, schedules, bindings, model, merge in calls:
        aux_ports = {m for a in arms for m in (a.vbs.reflect, a.vbs.transmit)}
        couplers = [bs for a in arms for bs in (a.success_bs, a.recycle_bs) if bs]
        ports = [(m, pol) for bs in couplers for m in (bs.in1, bs.in2) if m not in aux_ports for pol in "HV"]
        rounds = _run_chain(tab, arms, current, schedules, bindings, model, merge)
        for k in range(len(schedules[0])):
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
                        _run_chain(tab, arms, terms, [[t] for t in ts], bindings, model, merge)
                    mixtures += 1
                    continue
                [got] = _run_chain(tab, arms, terms, [[t] for t in ts], bindings, model, merge)
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


def _outcome(call):
    """Its result, or its exception's type and message."""
    try:
        return repr(call())
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _reweighted(values, rng):
    """Slot values reweighted at random, then with a slot per five at 1.01 PRUNE_EPS and one at
    0.99 PRUNE_EPS (pruned), then every fourth at 0.6 PRUNE_EPS (a signature weighing too little)."""
    out = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) * abs(v) for v in values] for _ in range(3)]
    for scale, step in ((1.01, 5), (0.99, 5), (0.6, 4)):
        out.append([v / abs(v) * scale * PRUNE_EPS if abs(v) and i % step == 0 else v for i, v in enumerate(values)])
    return out


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("accounting", ["branch", "joint"])
@pytest.mark.parametrize("name", ["ecp1", "ecp2", "ecp1_stripped", "ecp2_stripped"])
def test_compiled_scoring_matches_the_dict_path(name, accounting, corrupt, monkeypatch):
    # every round's scoring and every point's rounds against the dict path, bit for bit, on
    # recorded round inputs reweighted at random and with entries at 1.01 PRUNE_EPS, also
    # under a miswired coupler (where the recycle agreement fails on both paths)
    scores, rounds = [], []
    monkeypatch.setattr(ecpsim.engine, "_score", lambda *a: scores.append(a) or _score(*a))
    monkeypatch.setattr(ecpsim.engine, "_rounds", lambda *a: rounds.append(a) or _rounds(*a))
    polarized = not name.endswith("_stripped")
    with corrupted_coupler() if corrupt else contextlib.nullcontext():
        for alpha_sq in (0.3, 0.6, 0.9):
            with contextlib.suppress(RuntimeError, DegenerateStateError):
                execute(builtin_doc(name), EntanglementParams.from_alpha_sq(alpha_sq), POL if polarized else None,
                        rounds=5 if name.startswith("ecp2") else 1, accounting=accounting,
                        model=DetectorModel(eta_p=0.8))
    assert scores and (rounds or corrupt)
    rng = random.Random(16)
    outcomes = collections.Counter()
    for tab, program, values, factor, ports in scores:
        for vals in [values, *_reweighted(values, rng)]:
            got = _outcome(lambda: _score(tab, program, vals, factor, ports))
            want = _outcome(lambda: _dict_score(tab, program[4], vals, factor, ports))
            if isinstance(got, str):
                book = _score(tab, program, vals, factor, ports)
                got = repr((book.p_success, _states(book), book.p_recycle, book.recycle_next))
            assert got == want
            outcomes[got[0] if isinstance(got, tuple) else "scored"] += 1
    assert outcomes["scored"] and (outcomes["RuntimeError"] or not name.startswith("ecp2"))
    pruned = 0
    for tab, ts, chains, target in rounds:
        # the recorded wins, reweighted, and with shared plus and minus ids near cancelling
        variants = [chains]
        for scale in (1.0, -1.0 + 1.01 * PRUNE_EPS):
            variants.append([[dataclasses.replace(b, amps=[a * scale if i else a for a in b.amps])
                              for b in chain] for i, chain in enumerate(chains)])
        variants.append([[dataclasses.replace(b, amps=[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in b.amps])
                          for b in chain] for chain in chains])
        for chains in variants:
            got = _outcome(lambda: [tuple(vars(r).values()) for r in _rounds(tab, ts, chains, target)])
            assert got == _outcome(lambda: _dict_rounds(ts, chains, target))
            pruned += len(chains) == 2 and len(chains[0][0].wins) and any(
                len(_dict_pair(a, b)) < len(a | b) for a in _states(chains[0][0]) for b in _states(chains[1][0]))
    assert pruned or accounting == "joint" or not polarized or corrupt


def test_the_merge_scale_and_its_prune_match_merge_terms():
    # two photons in the merged mode: the merge scales by sqrt(N_out!) / sqrt(n_in!) and prunes
    tab = PatternTable()
    pair = tab.intern(((("b9", "H"), 2),))
    mixed = tab.intern(((("b6", "V"), 1), (("b9", "H"), 1)))
    signature = (("d1", 1),)
    program = (None, None, None, None, (((signature, (pair, mixed)),), ()), {})  # its sides and scoring
    ports = ("b9", "b6", "b10")
    rng = random.Random(5)
    near = (cmath.rect(PRUNE_EPS * (1 + rng.randrange(64) * 2.0**-52), rng.uniform(0, 2 * math.pi)) for _ in range(10**5))
    edge = next(a for a in near if abs(a) >= PRUNE_EPS > abs((a * math.sqrt(2)) / math.sqrt(2)))  # pruned once merged
    sizes = []
    for values in ([0.3 + 0.4j, -0.5j], [edge, 0.6 + 0.0j], [0.7 + 0.1j, edge]):
        book = _score(tab, program, values, 0.8, ports)
        got = (book.p_success, _states(book), book.p_recycle, book.recycle_next)
        assert repr(got) == repr(_dict_score(tab, program[4], values, 0.8, ports))
        sizes.append(len(_states(book)[0]))
    assert sizes == [2, 1, 2]  # the merge prune drops the edge amplitude on the two-photon id only


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
    # it: round work grows with the rounds to saturation, not with --rounds
    calls = []

    def counted(*args):
        calls.append(args)
        return vbs_coefficients(*args)

    monkeypatch.setattr(ecpsim.engine, "vbs_coefficients", counted)
    report = run_ecp2(ENT, rounds=100_000)
    assert len(calls) <= 16
    assert len(report.rounds) == 100_000
    last = report.rounds[-1]
    assert (last.k, last.t, last.heralded_fidelity) == (100_000, 1.0, None)
    assert vars(report.rounds[len(calls)]) | {"k": last.k} == vars(last)
