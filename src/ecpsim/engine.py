"""Protocol execution: one engine path from circuit document to report.

``execute`` runs the concentration layout that ``circuits.layout``
recognizes in a circuit document, rather than interpreting the statements
one by one: the nondemolition comparison makes parts of the mesh
conditional (the kept component moves on to the heralding coupler, the
rejected component to the recycling coupler), so the document cannot
simply be folded left to right.  A layout is scored against the published
ECP1 closed forms when no arm has a nondemolition comparison, against the
ECP2 ones when every arm has one, and against none (protocol ``custom``)
otherwise.

Two accounting conventions are supported:

* ``branch``: each arm is propagated with its own auxiliary photon on the
  unnormalized component of the input it acts on, and probabilities are
  squared norms summed over arms.  This reproduces the published
  per-branch bookkeeping, including its overcounting of the shared
  signal-at-home component (surfaced in the comparison block, never
  silently corrected).
* ``joint``: the full multi-photon state evolves coherently and success
  requires every arm's detector group to click in the same run, with the
  detector efficiency raised to the number of groups.

Both go through one round loop, ``_run_chain``: branch accounting runs it
once per arm, joint accounting once with all arms.  Arms without a
nondemolition comparison pass the whole state on to their heralding
coupler.  ``analyze`` is cached per document and adds to the layout one
``fock.PatternTable``, compiled lazily: the first time a pattern id meets a
stage (auxiliary photon through its coupler, tensor product, nondemolition
class, polarizing merge, a round's couplers, herald and flips together),
its entry is derived and kept, keyed on the id and the stage's ports, never
on alpha, gamma, t or a result.  A round's entry is what the staged kernels
make of the unit input ``{id: 1}``, kept beside the coupler rules it bakes
in.  Amplitudes run through the tables as ``{id: amplitude}`` dicts, pruned
where the ``State`` kernels prune, except that a round prunes at its end.

States stay unnormalized throughout; squared norms are absolute
probabilities.  Recycling rounds rebuild the auxiliary photon, rebind the
coupler transmittance from the doubling schedule, and continue on the
corrected residual; the distinct recycle click patterns must agree after
correction (an internal invariant, checked) so the rounds form a single
chain rather than a branching tree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .circuits import Arm, Layout, TopologyError, builtin_doc, layout  # TopologyError re-exported
from .dsl import (
    CircuitDoc,
    DetectDecl,
    PbsMergeDecl,
    SourceDecl,
    evaluate_expr,
    evaluate_real,
    expr_variables,
    parse_expr,
)
from .elements import bs_rules, merge_terms, split_terms, vbs_rules
from .fock import (
    PRUNE_EPS,
    PatternTable,
    State,
    pattern_count,
    prune,
    single_photon,
    terms_fidelity,
    terms_norm_sq,
)
from .formulas import (
    branch_success_minus,
    branch_success_plus,
    claimed_total,
    joint_total_one_round,
    qnd_round_success,
    round_success_series,
)
from .measurement import (
    DetectorGroup,
    DetectorModel,
    IDEAL_DETECTORS,
    detection_factor,
    herald_terms,
    qnd_class,
)
from .params import EntanglementParams, PolarizationParams, vbs_schedule
from .report import EngineInfo, ProtocolReport, RoundResult, comparison_entry

RECYCLE_AGREEMENT_TOL = 1e-9
MAX_ROUNDS = 100_000  # deepest recycling chain a run may ask for


class ConfigError(ValueError):
    """Run configuration inconsistent with the circuit (rounds, couplers)."""


@dataclass
class Plan(Layout):
    """A recognized layout and the ``PatternTable`` its runs share."""

    table: PatternTable = field(default_factory=PatternTable, compare=False, repr=False)


@functools.lru_cache(maxsize=32)
def analyze(doc: CircuitDoc) -> Plan:
    """``circuits.layout(doc)`` with a fresh ``PatternTable``; raises
    TopologyError on a document that is not a concentration layout.

    Cached per document, so runs share the plan and its table.
    """
    return Plan(**vars(layout(doc)))


# ---------------------------------------------------------------------------
# state construction

def _source_state(sources: list[SourceDecl], bindings: dict[str, complex]) -> State:
    return single_photon(
        [(s.mode, s.pol, evaluate_expr(s.amp, bindings)) for s in sources]
    )


def _detector_group(g: DetectDecl) -> DetectorGroup:
    return DetectorGroup(g.group, g.modes, g.eta)


def _target_state(outputs: tuple[str, ...], pol: PolarizationParams | None) -> State:
    comps = []
    for m in outputs:
        if pol is None:
            comps.append((m, "V", 1.0))
        else:
            comps.append((m, "H", pol.gamma))
            comps.append((m, "V", pol.delta))
    return single_photon(comps).normalized()


# ---------------------------------------------------------------------------
# recycling chain

def _successes(tab: PatternTable, terms, couplers, groups, flips, factor: float):
    """A round's couplers, herald and flips, one program per id: per success
    signature, in order, ``(weight, probability, phase-flipped residual)``."""
    rules = tuple(bs_rules(bs.in1, bs.in2, bs.out1, bs.out2) for bs in couplers)
    names = tuple(g.name for g in groups)
    programs = tab.stage("successes", *names)
    residuals = tab.stage("residuals", *names)  # output id -> residual id
    acc: dict[tuple, dict[int, complex]] = {}
    for w, amp in terms.items():
        entry = programs.get(w)
        if entry is None or entry[0] != rules:  # never serve another coupler matrix
            entry = programs[w] = (rules, _program(tab, w, rules, groups, flips, residuals))
        for sig, outs in entry[1]:
            out = acc.setdefault(sig, {})
            for p, c in outs:
                out[p] = out.get(p, 0j) + amp * c
    wins = []
    for sig in sorted(acc):
        out = prune(acc[sig])  # the outputs the last coupler's transform would keep
        weight = terms_norm_sq(out)
        if weight > PRUNE_EPS**2:
            raw: dict[int, complex] = {}
            for p, a in out.items():
                raw[residuals[p]] = raw.get(residuals[p], 0j) + a
            wins.append((weight, weight * factor, prune(raw)))
    return wins


def _program(tab: PatternTable, w: int, rules, groups, flips, residuals: dict) -> tuple:
    """The staged kernels on ``{w: 1}``, one output id at a time: ``(signature, ((output
    id, flipped coefficient), ...))`` per success; ``residuals`` gets their residual ids."""
    terms = {w: 1.0}
    for r in rules:
        terms = tab.transform(terms, r, {})
    program: dict[tuple, list] = {}
    for p, c in terms.items():
        for sig, _, success, corr, [(q, _)] in herald_terms(tab, {p: c}, groups, flips):
            if success:
                residuals[p] = q
                odd = sum(pattern_count(tab.patterns[q], m) for m in corr) % 2
                program.setdefault(sig, []).append((p, -c if odd else c))
    return tuple((sig, tuple(outs)) for sig, outs in program.items())


def _combine_recycle(raws: list[dict[int, complex]]) -> dict[int, complex]:
    """Collapse equivalent recycle continuations into one weighted component."""
    if not raws:
        return {}
    first = raws[0]
    for other in raws[1:]:
        if terms_fidelity(first, other) < 1.0 - RECYCLE_AGREEMENT_TOL:
            raise RuntimeError(
                "recycle click patterns disagree after correction; "
                "feed-forward rules are inconsistent with the coupler convention"
            )
    total = sum(terms_norm_sq(r) for r in raws)
    scale = math.sqrt(total / terms_norm_sq(first))
    return prune({p: a * scale for p, a in first.items()})


@dataclass
class _ChainRound:
    p_success: float
    p_recycle: float
    wins: list[dict[int, complex]]  # corrected heralded components, by pattern id
    recycle_next: dict[int, complex]  # the next round's input, by pattern id


def _run_chain(
    tab: PatternTable,
    arms: list[Arm],
    current: State,
    schedules: list[list[float]],
    bindings: dict[str, complex],
    model: DetectorModel,
) -> list[_ChainRound]:
    """Run every round of ``arms`` together on one state.

    Each round attaches every arm's auxiliary photon at the arm's scheduled
    transmittance, then splits by the nondemolition comparisons of the arms
    that have one: class 1 on all of them goes on to the heralding couplers,
    class 0 on all of them to the recycling couplers.  Success needs every
    arm's group to click at once; the combined recycle continuation is the
    next round's input.  Rounds run on the plan's ``PatternTable`` ``tab``.
    """
    success = (
        [a.success_bs for a in arms],
        [_detector_group(a.success_group) for a in arms],
        {d: m for a in arms for d, m in a.flips.items()},
    )
    recycles = all(a.recycle_bs for a in arms)
    if recycles:
        recycle = (
            [a.recycle_bs for a in arms],
            [_detector_group(a.recycle_group) for a in arms],
            {d: m for a in arms for d, m in a.recycle_flips.items()},
        )
    factor = detection_factor(success[1], model)
    qnds = [(a.qnd.a, a.qnd.b) for a in arms if a.qnd is not None]
    classes = tab.stage("qnd", *(a.label for a in arms))  # id -> (kept, dropped)
    auxes: list[dict[int, complex] | None] = [None] * len(arms)
    current = tab.of(current)
    results = []
    for k in range(len(schedules[0])):
        if not current:
            results.append(_ChainRound(0.0, 0.0, [], {}))
            continue
        work = current
        for i, (arm, ts) in enumerate(zip(arms, schedules)):
            if auxes[i] is None:  # the same photon every round
                auxes[i] = tab.of(_source_state(arm.aux_sources, bindings))
            ports = (arm.vbs.inp, arm.vbs.reflect, arm.vbs.transmit)
            aux = tab.transform(auxes[i], vbs_rules(*ports, ts[k]), tab.stage("vbs", *ports))
            work = tab.tensor(work, aux)
        for p in work.keys() - classes.keys():
            cs = {qnd_class(tab.patterns[p], qa, qb) for qa, qb in qnds}
            classes[p] = (cs <= {1}, cs <= {0})
        kept = {p: a for p, a in work.items() if classes[p][0]}
        dropped = {p: a for p, a in work.items() if classes[p][1]}
        wins = _successes(tab, kept, *success, factor) if kept else []
        p_rec, nxt = 0.0, {}
        if recycles and dropped:
            again = _successes(tab, dropped, *recycle, 1.0)
            p_rec = sum((w for w, _, _ in again), 0.0)
            nxt = _combine_recycle([raw for _, _, raw in again])
        p_win = sum((p for _, p, _ in wins), 0.0)
        results.append(_ChainRound(p_win, p_rec, [raw for _, _, raw in wins], nxt))
        current = nxt
    return results


def _merge_pair(tab: PatternTable, merge: PbsMergeDecl, raw_plus: dict, raw_minus: dict) -> dict:
    a = merge_terms(tab, raw_plus, merge.in_h, merge.in_v, merge.out)
    b = merge_terms(tab, raw_minus, merge.in_h, merge.in_v, merge.out)
    combined = dict(a)
    for p, amp in b.items():
        # both arms carry the signal-at-home component; the published
        # recombination counts it once, so shared amplitudes average
        combined[p] = 0.5 * (combined[p] + amp) if p in combined else amp
    return tab.admit(combined)


def _rounds(
    ts: list[float],
    chains: list[list[_ChainRound]],
    heralded: list[list[dict[int, complex]]],
    target: dict[int, complex],
) -> list[RoundResult]:
    """Round results summed over ``chains``; fidelity is the worst heralded state."""
    rounds = []
    for k, t in enumerate(ts):
        fids = [terms_fidelity(s, target) for s in heralded[k]]
        rounds.append(
            RoundResult(
                k=k + 1,
                t=t,
                p_success=sum(c[k].p_success for c in chains),
                p_fail_recyclable=sum(c[k].p_recycle for c in chains),
                heralded_fidelity=min(fids) if fids else None,
            )
        )
    return rounds


# ---------------------------------------------------------------------------
# entry points

def execute(
    doc: CircuitDoc,
    ent: EntanglementParams | None = None,
    pol: PolarizationParams | None = None,
    *,
    rounds: int = 1,
    accounting: str = "branch",
    model: DetectorModel | None = None,
    t1: float | None = None,
    t2: float | None = None,
) -> ProtocolReport:
    """Run a circuit document exactly and assemble the full report.

    ``t1`` and ``t2`` set the first-round transmittance parameters of the
    plus and minus arms of a layout without recycling; recycling layouts
    follow ``vbs_schedule`` and reject both, and a one-arm layout rejects
    ``t2``.  An option the document never reads is rejected too: ``t1``
    (``t2``) when no coupler expression reads ``t1``/``t_plus``
    (``t2``/``t_minus``), ``pol`` when no expression reads ``gamma`` or
    ``delta``.  Degenerate entanglement parameters raise ParameterError.
    """
    if accounting not in ("branch", "joint"):
        raise ConfigError(f"unknown accounting mode {accounting!r}")
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    if rounds > MAX_ROUNDS:
        raise ConfigError(f"rounds must be at most {MAX_ROUNDS}, got {rounds}")
    model = model or IDEAL_DETECTORS
    plan = analyze(doc)
    if ent is None:
        raise ConfigError("entanglement parameters are required for this circuit")
    ent.require_nondegenerate()

    bindings: dict[str, complex] = {"alpha": ent.alpha, "beta": ent.beta}
    if pol is not None:
        bindings["gamma"] = pol.gamma
        bindings["delta"] = pol.delta

    coupler_reads = _reads(arm.vbs.t for arm in plan.arms)
    reads = coupler_reads | _reads(s.amp for s in doc.statements if isinstance(s, SourceDecl))
    if pol is not None and not {"gamma", "delta"} & reads:
        raise ConfigError("polarization is given but no expression in the circuit reads gamma or delta")

    if plan.has_recycling:
        if t1 is not None or t2 is not None:
            raise ConfigError(
                "t1 and t2 do not apply to a recycling layout; "
                "its couplers follow the doubling schedule"
            )
        ts_plus = list(vbs_schedule(ent, rounds))
        ts_minus = list(ts_plus)
    else:
        if rounds != 1:
            raise ConfigError("circuit has no recycling path; rounds must be 1")
        if t2 is not None and len(plan.arms) == 1:
            raise ConfigError("t2 sets the second arm's coupler; this circuit has one arm")
        if t1 is not None and not {"t1", "t_plus"} & coupler_reads:
            raise ConfigError("t1 is given but no coupler expression reads t1 or t_plus")
        if t2 is not None and not {"t2", "t_minus"} & coupler_reads:
            raise ConfigError("t2 is given but no coupler expression reads t2 or t_minus")
        default_t = ent.alpha_sq
        ts_plus = [default_t if t1 is None else t1]
        ts_minus = [default_t if t2 is None else t2]
    for t in (*ts_plus, *ts_minus):
        if not 0.0 <= t <= 1.0:
            raise ConfigError(f"transmittance {t} outside [0, 1]")

    # the document's coupler expressions are authoritative; the planned
    # schedule only feeds their transmittance parameters
    eff_plus, eff_minus = _effective_schedule(plan, bindings, ts_plus, ts_minus)

    tab = plan.table
    target = tab.of(_target_state(plan.outputs, pol))
    signal = _source_state(plan.signal_sources, bindings)
    if plan.split is not None:
        split = plan.split
        signal = tab.state(split_terms(tab, tab.of(signal), split.inp, split.out_h, split.out_v))
    schedules = [eff_plus if arm.label == "plus" else eff_minus for arm in plan.arms]
    per_arm_p1: dict[str, float] = {}
    if accounting == "branch":
        # each arm acts only on the component where the signal is not in
        # the other arm
        chains = []
        for arm, ts in zip(plan.arms, schedules):
            others = [a.signal_mode for a in plan.arms if a is not arm]
            inp = signal.filtered(lambda p: all(pattern_count(p, m) == 0 for m in others))
            chains.append(_run_chain(tab, [arm], inp, [ts], bindings, model))
            per_arm_p1[arm.label] = chains[-1][0].p_success
        eta_exponent = 1
    else:
        chains = [_run_chain(tab, plan.arms, signal, schedules, bindings, model)]
        eta_exponent = len(plan.arms)
    merge = plan.merge
    if len(chains) == 2:
        heralded = [
            [_merge_pair(tab, merge, rp, rm) for rp in p.wins for rm in m.wins]
            for p, m in zip(*chains)
        ]
    else:
        heralded = [
            [
                raw if merge is None else merge_terms(tab, raw, merge.in_h, merge.in_v, merge.out)
                for raw in r.wins
            ]
            for r in chains[0]
        ]
    round_results = _rounds(eff_plus, chains, heralded, target)

    p_total = sum(r.p_success for r in round_results)
    schedule_out = {
        "plus": list(eff_plus),
        "minus": list(eff_minus) if len(plan.arms) == 2 else [],
    }
    report = ProtocolReport(
        protocol=plan.protocol,
        accounting=accounting,
        alpha_sq=ent.alpha_sq,
        gamma_sq=pol.gamma_sq if pol is not None else None,
        eta_p=model.eta_p,
        schedule=schedule_out,
        rounds=round_results,
        p_total=p_total,
        engine=EngineInfo("exact", eta_exponent),
    )
    report.paper_comparison = _comparison(
        plan, report, ent, pol, model, eff_plus, per_arm_p1
    )
    return report


def _reads(texts) -> set[str]:
    """Parameters that any of the expression ``texts`` reads."""
    return set().union(*(expr_variables(parse_expr(t)) for t in texts))


def _effective_schedule(
    plan: Plan,
    bindings: dict[str, complex],
    ts_plus: list[float],
    ts_minus: list[float],
) -> tuple[list[float], list[float]]:
    eff = {"plus": [], "minus": []}
    for k in range(len(ts_plus)):
        round_bindings = dict(bindings)
        round_bindings.update(
            {
                "t1": ts_plus[k],
                "t2": ts_minus[k],
                "t_plus": ts_plus[k],
                "t_minus": ts_minus[k],
            }
        )
        for arm in plan.arms:
            v = evaluate_real(arm.vbs.t, round_bindings)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(
                    f"coupler expression {arm.vbs.t!r} gives {v}, outside [0, 1]"
                )
            eff[arm.label].append(v)
    return eff["plus"], eff["minus"]


def _comparison(
    plan: Plan,
    report: ProtocolReport,
    ent: EntanglementParams,
    pol: PolarizationParams | None,
    model: DetectorModel,
    ts_plus: list[float],
    per_arm_p1: dict[str, float],
) -> dict[str, dict[str, float]]:
    a2 = ent.alpha_sq
    eta = model.eta_p
    m = report.engine.eta_exponent
    factor = eta**m
    out: dict[str, dict[str, float]] = {}
    n_rounds = len(report.rounds)
    stripped = pol is None

    if plan.protocol == "custom":
        return out
    if plan.protocol == "ecp1":
        if not stripped and report.accounting == "branch":
            d2 = pol.delta_sq
            g2 = pol.gamma_sq
            out["claimed_success_plus"] = comparison_entry(
                branch_success_plus(a2, d2) * factor, per_arm_p1.get("plus", 0.0)
            )
            out["claimed_success_minus"] = comparison_entry(
                branch_success_minus(a2, g2) * factor, per_arm_p1.get("minus", 0.0)
            )
            out["claimed_branch_sum"] = comparison_entry(
                3.0 * a2 * (1.0 - a2) * factor, report.p_total
            )
        out["claimed_total"] = comparison_entry(
            claimed_total(a2) * factor, report.p_total
        )
        if report.accounting == "joint" and not stripped:
            out["predicted_joint_total"] = comparison_entry(
                joint_total_one_round(a2) * factor, report.p_total
            )
    else:
        if stripped:
            series = round_success_series(a2, eta, n_rounds)
            for k, (pk, r) in enumerate(zip(series, report.rounds), start=1):
                out[f"series_round_{k}"] = comparison_entry(pk, r.p_success)
            out["series_total"] = comparison_entry(sum(series), report.p_total)
        else:
            if report.accounting == "branch":
                d2 = pol.delta_sq
                g2 = pol.gamma_sq
                t1 = ts_plus[0]
                out["claimed_round1_plus"] = comparison_entry(
                    qnd_round_success(a2, d2, t1) * factor, per_arm_p1.get("plus", 0.0)
                )
                out["claimed_round1_minus"] = comparison_entry(
                    qnd_round_success(a2, g2, t1) * factor, per_arm_p1.get("minus", 0.0)
                )
            out["claimed_total"] = comparison_entry(
                claimed_total(a2) * factor, report.p_total
            )
            out["stripped_series_total"] = comparison_entry(
                sum(round_success_series(a2, factor, n_rounds)), report.p_total
            )
            if report.accounting == "joint":
                out["predicted_joint_total"] = comparison_entry(
                    joint_total_one_round(a2) * factor, report.p_total
                )
    return out


def run_ecp1(
    ent: EntanglementParams,
    pol: PolarizationParams | None = None,
    *,
    t1: float | None = None,
    t2: float | None = None,
    accounting: str = "branch",
    model: DetectorModel | None = None,
) -> ProtocolReport:
    """Single-round linear-optics concentration (polarized or stripped)."""
    doc = builtin_doc("ecp1" if pol is not None else "ecp1_stripped")
    return execute(
        doc, ent, pol, rounds=1, accounting=accounting, model=model, t1=t1, t2=t2
    )


def run_ecp2(
    ent: EntanglementParams,
    pol: PolarizationParams | None = None,
    *,
    rounds: int = 1,
    accounting: str = "branch",
    model: DetectorModel | None = None,
) -> ProtocolReport:
    """Nondemolition-assisted concentration with recycling rounds."""
    doc = builtin_doc("ecp2" if pol is not None else "ecp2_stripped")
    return execute(doc, ent, pol, rounds=rounds, accounting=accounting, model=model)
