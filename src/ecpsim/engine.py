"""Protocol execution: one engine path from circuit document to report.

``execute`` lowers a circuit document to a protocol plan by structural
analysis rather than blind statement-by-statement interpretation: the
standard concentration topology (optional polarizing split, one or two arms
of variable coupler + optional nondemolition comparison + heralding coupler
+ feed-forward flip, optional recycling coupler, optional polarizing merge)
is recognized from the wiring.  The nondemolition comparison makes parts of
the mesh conditional (the kept component moves on to the heralding coupler,
the rejected component to the recycling coupler), which is why the document
cannot simply be folded left to right.  A document that does not fit the
concentration shape, including one with no variable coupler arm, is
rejected.  A layout is scored against the published ECP1 closed forms when
no arm has a nondemolition comparison, against the ECP2 ones when every arm
has one, and against none (protocol ``custom``) otherwise.

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
coupler.

States stay unnormalized throughout; squared norms are absolute
probabilities.  Recycling rounds rebuild the auxiliary photon, rebind the
coupler transmittance from the doubling schedule, and continue on the
corrected residual; the distinct recycle click patterns must agree after
correction (an internal invariant, checked) so the rounds form a single
chain rather than a branching tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from .circuits import builtin_doc
from .dsl import (
    BsDecl,
    CircuitDoc,
    CircuitError,
    DetectDecl,
    FlipDecl,
    PbsMergeDecl,
    PbsSplitDecl,
    QndDecl,
    SourceDecl,
    VbsDecl,
    evaluate_expr,
    evaluate_real,
    expr_variables,
    parse_expr,
)
from .elements import apply_bs, apply_pbs, apply_pbs_merge, apply_vbs
from .fock import State, fidelity, pattern_count, single_photon, tensor
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
    HeraldOutcome,
    IDEAL_DETECTORS,
    herald,
    qnd_component,
)
from .params import EntanglementParams, PolarizationParams, vbs_schedule
from .report import EngineInfo, ProtocolReport, RoundResult, comparison_entry

RECYCLE_AGREEMENT_TOL = 1e-9
MAX_ROUNDS = 100_000  # deepest recycling chain a run may ask for


class TopologyError(CircuitError):
    """The document does not describe a supported concentration layout."""


class ConfigError(ValueError):
    """Run configuration inconsistent with the circuit (rounds, couplers)."""


@dataclass
class ArmPlan:
    label: str
    signal_mode: str
    aux_sources: list[SourceDecl]
    vbs: VbsDecl
    qnd: QndDecl | None
    success_bs: BsDecl
    success_group: DetectDecl
    flips: dict[str, str]
    recycle_bs: BsDecl | None = None
    recycle_group: DetectDecl | None = None
    recycle_flips: dict[str, str] = dc_field(default_factory=dict)


@dataclass
class Plan:
    doc: CircuitDoc
    signal_sources: list[SourceDecl]
    split: PbsSplitDecl | None
    arms: list[ArmPlan]
    merge: PbsMergeDecl | None
    outputs: tuple[str, ...]

    @property
    def protocol(self) -> str:
        with_qnd = sum(a.qnd is not None for a in self.arms)
        if with_qnd == 0:
            return "ecp1"
        return "ecp2" if with_qnd == len(self.arms) else "custom"

    @property
    def has_recycling(self) -> bool:
        return any(a.recycle_bs for a in self.arms)


def _photon_groups(doc: CircuitDoc) -> list[list[SourceDecl]]:
    groups: dict[object, list[SourceDecl]] = {}
    for i, st in enumerate(doc.statements):
        if isinstance(st, SourceDecl):
            key = st.photon if st.photon is not None else ("#anon", i)
            groups.setdefault(key, []).append(st)
    return list(groups.values())


def analyze(doc: CircuitDoc) -> Plan:
    """Recognize the concentration topology; raise TopologyError otherwise."""
    groups = _photon_groups(doc)
    vbs_list = [st for st in doc.statements if isinstance(st, VbsDecl)]
    bs_list = [st for st in doc.statements if isinstance(st, BsDecl)]
    qnd_list = [st for st in doc.statements if isinstance(st, QndDecl)]
    detect_list = [st for st in doc.statements if isinstance(st, DetectDecl)]
    flip_list = [st for st in doc.statements if isinstance(st, FlipDecl)]
    splits = [st for st in doc.statements if isinstance(st, PbsSplitDecl)]
    merges = [st for st in doc.statements if isinstance(st, PbsMergeDecl)]
    outputs = doc.output_modes()

    if not vbs_list:
        raise TopologyError("circuit has no variable coupler arms")

    # attach one auxiliary photon to each coupler arm
    remaining = list(groups)
    aux_of: dict[int, list[SourceDecl]] = {}
    for i, v in enumerate(vbs_list):
        matches = [g for g in remaining if {s.mode for s in g} == {v.inp}]
        if len(matches) != 1:
            raise TopologyError(
                f"variable coupler on {v.inp!r} needs exactly one dedicated source photon"
            )
        aux_of[i] = matches[0]
        remaining.remove(matches[0])
    if len(remaining) != 1:
        raise TopologyError(
            f"expected exactly one signal photon, found {len(remaining)}"
        )
    signal_sources = remaining[0]
    signal_support = {s.mode for s in signal_sources}

    if len(splits) > 1:
        raise TopologyError("more than one polarizing split")
    split = splits[0] if splits else None
    if split is not None and split.inp not in signal_support:
        raise TopologyError("polarizing split does not consume the signal photon")
    if len(merges) > 1:
        raise TopologyError("more than one polarizing merge")
    merge = merges[0] if merges else None

    claimed_bs: set[int] = set()
    claimed_qnd: set[int] = set()
    claimed_detect: set[int] = set()
    arms: list[ArmPlan] = []
    for i, v in enumerate(vbs_list):
        touching = [
            (j, b) for j, b in enumerate(bs_list) if v.reflect in (b.in1, b.in2)
        ]
        success = [(j, b) for j, b in touching if v.transmit not in (b.in1, b.in2)]
        recycle = [(j, b) for j, b in touching if v.transmit in (b.in1, b.in2)]
        if len(success) != 1 or len(recycle) > 1:
            raise TopologyError(
                f"arm at coupler {v.inp!r}: expected one heralding coupler "
                f"and at most one recycling coupler on {v.reflect!r}"
            )
        j, sbs = success[0]
        claimed_bs.add(j)
        signal_mode = sbs.in2 if sbs.in1 == v.reflect else sbs.in1
        allowed = {split.out_h, split.out_v} if split else signal_support
        if signal_mode not in allowed:
            raise TopologyError(
                f"heralding coupler input {signal_mode!r} is not a signal-side mode"
            )
        qnds = [q for q in qnd_list if {q.a, q.b} == {signal_mode, v.reflect}]
        if len(qnds) > 1:
            raise TopologyError(f"duplicate nondemolition comparison on arm {signal_mode!r}")
        for qi, q in enumerate(qnd_list):
            if qnds and q is qnds[0]:
                claimed_qnd.add(qi)
        qnd = qnds[0] if qnds else None
        sgroup = _group_for(detect_list, sbs, claimed_detect)
        flips = {
            f.when: f.mode for f in flip_list if f.when in sgroup.modes
        }
        arm = ArmPlan(
            label="",
            signal_mode=signal_mode,
            aux_sources=aux_of[i],
            vbs=v,
            qnd=qnd,
            success_bs=sbs,
            success_group=sgroup,
            flips=flips,
        )
        if recycle:
            rj, rbs = recycle[0]
            if qnd is None:
                raise TopologyError(
                    "recycling coupler requires a nondemolition comparison on the arm"
                )
            claimed_bs.add(rj)
            arm.recycle_bs = rbs
            arm.recycle_group = _group_for(detect_list, rbs, claimed_detect)
            arm.recycle_flips = {
                f.when: f.mode for f in flip_list if f.when in arm.recycle_group.modes
            }
        arms.append(arm)

    if len(claimed_bs) != len(bs_list):
        raise TopologyError("coupler not attached to any arm")
    if len(claimed_qnd) != len(qnd_list):
        raise TopologyError("nondemolition comparison not attached to any arm")
    if len(claimed_detect) != len(detect_list):
        raise TopologyError("detector group not attached to any arm")
    if len(arms) > 2:
        raise TopologyError(f"more than two arms ({len(arms)})")
    if len(arms) == 2 and split is None:
        raise TopologyError("two arms need a polarizing split")
    if len(arms) == 2 and merge is None:
        raise TopologyError("two arms need a polarizing merge")

    if split is not None and len(arms) == 2:
        plus = next(a for a in arms if a.signal_mode == split.out_v)
        minus = next(a for a in arms if a.signal_mode == split.out_h)
        plus.label, minus.label = "plus", "minus"
        arms = [plus, minus]
    else:
        arms[0].label = "plus"

    recycling = [bool(a.recycle_bs) for a in arms]
    if len(set(recycling)) != 1:
        raise TopologyError("either every arm recycles or none does")

    return Plan(doc, signal_sources, split, arms, merge, outputs)


def _group_for(
    detect_list: list[DetectDecl], bs: BsDecl, claimed: set[int]
) -> DetectDecl:
    wanted = {bs.out1, bs.out2}
    for i, g in enumerate(detect_list):
        if set(g.modes) == wanted:
            if i in claimed:
                raise TopologyError(f"detector group {g.group!r} claimed twice")
            claimed.add(i)
            return g
    raise TopologyError(f"no detector group covers coupler outputs {sorted(wanted)}")


# ---------------------------------------------------------------------------
# state construction

def _source_state(sources: list[SourceDecl], bindings: dict[str, complex]) -> State:
    return single_photon(
        [(s.mode, s.pol, evaluate_expr(s.amp, bindings)) for s in sources]
    )


def _detector_group(g: DetectDecl) -> DetectorGroup:
    return DetectorGroup(g.group, g.modes, g.eta)


def _combine_recycle(raws: list[State]) -> State:
    """Collapse equivalent recycle continuations into one weighted state."""
    if not raws:
        return State()
    first = raws[0]
    for other in raws[1:]:
        if fidelity(first, other) < 1.0 - RECYCLE_AGREEMENT_TOL:
            raise RuntimeError(
                "recycle click patterns disagree after correction; "
                "feed-forward rules are inconsistent with the coupler convention"
            )
    total = sum(r.norm_sq() for r in raws)
    return first.scaled(math.sqrt(total / first.norm_sq()))


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

@dataclass
class _ChainRound:
    p_success: float
    p_recycle: float
    success_raws: list[State]
    recycle_next: State = dc_field(default_factory=State)


def _successes(
    state: State,
    couplers: list[BsDecl],
    groups: list[DetectorGroup],
    flips: dict[str, str],
    model: DetectorModel,
) -> list[HeraldOutcome]:
    for bs in couplers:
        state = apply_bs(state, bs.in1, bs.in2, bs.out1, bs.out2)
    return [o for o in herald(state, groups, model, flips) if o.success]


def _run_chain(
    arms: list[ArmPlan],
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
    next round's input.
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
    results = []
    for k in range(len(schedules[0])):
        if current.is_empty:
            results.append(_ChainRound(0.0, 0.0, []))
            continue
        work = current
        for arm, ts in zip(arms, schedules):
            aux = _source_state(arm.aux_sources, bindings)
            aux = apply_vbs(aux, arm.vbs.inp, arm.vbs.reflect, arm.vbs.transmit, ts[k])
            work = tensor(work, aux)
        kept = dropped = work
        for arm in arms:
            if arm.qnd is not None:
                kept = qnd_component(kept, arm.qnd.a, arm.qnd.b, 1)
                dropped = qnd_component(dropped, arm.qnd.a, arm.qnd.b, 0)
        wins = [] if kept.is_empty else _successes(kept, *success, model)
        p_rec, nxt = 0.0, State()
        if recycles and not dropped.is_empty:
            again = _successes(dropped, *recycle, model)
            p_rec = sum((o.weight for o in again), 0.0)
            nxt = _combine_recycle([o.corrected_raw() for o in again])
        results.append(
            _ChainRound(
                sum((o.probability for o in wins), 0.0),
                p_rec,
                [o.corrected_raw() for o in wins],
                nxt,
            )
        )
        current = nxt
    return results


def _merge_pair(merge: PbsMergeDecl, raw_plus: State, raw_minus: State) -> State:
    a = apply_pbs_merge(raw_plus, merge.in_h, merge.in_v, merge.out)
    b = apply_pbs_merge(raw_minus, merge.in_h, merge.in_v, merge.out)
    combined = dict(a.items())
    for p, amp in b.items():
        # both arms carry the signal-at-home component; the published
        # recombination counts it once, so shared amplitudes average
        combined[p] = 0.5 * (combined[p] + amp) if p in combined else amp
    return State(combined)


def _rounds(
    ts: list[float],
    chains: list[list[_ChainRound]],
    heralded: list[list[State]],
    target: State,
) -> list[RoundResult]:
    """Round results summed over ``chains``; fidelity is the worst heralded state."""
    rounds = []
    for k, t in enumerate(ts):
        fids = [fidelity(s, target) for s in heralded[k]]
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

    target = _target_state(plan.outputs, pol)
    signal = _source_state(plan.signal_sources, bindings)
    if plan.split is not None:
        signal = apply_pbs(signal, plan.split.inp, plan.split.out_h, plan.split.out_v)
    schedules = [eff_plus if arm.label == "plus" else eff_minus for arm in plan.arms]
    per_arm_p1: dict[str, float] = {}
    if accounting == "branch":
        # each arm acts only on the component where the signal is not in
        # the other arm
        chains = []
        for arm, ts in zip(plan.arms, schedules):
            others = [a.signal_mode for a in plan.arms if a is not arm]
            inp = signal.filtered(lambda p: all(pattern_count(p, m) == 0 for m in others))
            chains.append(_run_chain([arm], inp, [ts], bindings, model))
            per_arm_p1[arm.label] = chains[-1][0].p_success
        eta_exponent = 1
    else:
        chains = [_run_chain(plan.arms, signal, schedules, bindings, model)]
        eta_exponent = len(plan.arms)
    merge = plan.merge
    if len(chains) == 2:
        heralded = [
            [_merge_pair(merge, rp, rm) for rp in p.success_raws for rm in m.success_raws]
            for p, m in zip(*chains)
        ]
    else:
        heralded = [
            [
                raw if merge is None else apply_pbs_merge(raw, merge.in_h, merge.in_v, merge.out)
                for raw in r.success_raws
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
        series = round_success_series(a2, eta, n_rounds)
        if stripped:
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
