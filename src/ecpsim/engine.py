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
``fock.PatternTable``, compiled lazily and keyed on pattern ids, ports and
labels, never on alpha, gamma, t or a result.  Sources, target and branch
restriction run on its ids; the polarizing split and merge are relabels of
them.  Each chain's setup is built once per arm labels.  A round is one
slot program, keyed on its surviving products (input id and auxiliary
photon ids): each output slot sums product amplitudes times the
coefficients that the staged kernels (couplers, herald, flips) give each
product from the unit input, and each click signature reads its slots and
their residual ids in sorted order.  Programs are kept beside the coupler
rules they bake in.  A round prunes where the kernels it replaces pruned:
each auxiliary photon after its coupler, the product after each factor,
and each signature's outputs.  Each distinct round's heralded states are
then merged, paired across arms and scored in one pass.

States stay unnormalized throughout; squared norms are absolute
probabilities.  Recycling rounds send the auxiliary photon through its
coupler at the transmittance of the doubling schedule and continue on the
corrected residual; the distinct recycle click patterns must agree after
correction (an internal invariant, checked) so the rounds form a single
chain rather than a branching tree.  A round whose input and
transmittances equal the previous round's repeats its result.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import mul
from dataclasses import dataclass, field

from .circuits import Arm, Layout, TopologyError, builtin_doc, layout  # TopologyError re-exported
from .dsl import (
    CircuitDoc,
    PbsMergeDecl,
    SourceDecl,
    evaluate_expr,
    evaluate_real,
    expr_variables,
    parse_expr,
)
from .elements import bs_rules, merge_terms, split_terms, vbs_coefficients
from .fock import (
    NORM_TOL,
    PHOTON_CAP,
    PRUNE_EPS,
    RECYCLE_AGREEMENT_TOL,
    DegenerateStateError,
    ModeCollisionError,
    PatternTable,
    PhotonBudgetError,
    PolarizationMixtureError,
    make_pattern,
    pattern_count,
    prune,
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
    DetectorModel,
    IDEAL_DETECTORS,
    MIXTURE,
    detection_factor,
    herald_terms,
    qnd_class,
)
from .params import EntanglementParams, PolarizationParams, vbs_schedule
from .report import EngineInfo, ProtocolReport, RoundResult, comparison_entry

MAX_ROUNDS = 100_000  # deepest recycling chain a run may ask for


class ConfigError(ValueError):
    """Run configuration inconsistent with the circuit (rounds, couplers)."""


@dataclass
class Plan(Layout):
    """A recognized layout, the parameters its expressions read, and the
    ``PatternTable`` its runs share."""

    coupler_reads: set[str] = field(default_factory=set)
    reads: set[str] = field(default_factory=set)  # by couplers and sources
    table: PatternTable = field(default_factory=PatternTable, compare=False, repr=False)


@functools.lru_cache(maxsize=32)
def analyze(doc: CircuitDoc) -> Plan:
    """``circuits.layout(doc)`` with a fresh ``PatternTable``; raises
    TopologyError on a document that is not a concentration layout.

    Cached per document, so runs share the plan and its table.
    """
    lay = layout(doc)
    couplers = _reads(arm.vbs.t for arm in lay.arms)
    sources = _reads(s.amp for s in doc.statements if isinstance(s, SourceDecl))
    return Plan(**vars(lay), coupler_reads=couplers, reads=couplers | sources)


# ---------------------------------------------------------------------------
# states on the plan's pattern ids

def _sources(tab: PatternTable, sources: list[SourceDecl], bindings) -> dict[int, complex]:
    return tab.photon([(s.mode, s.pol, evaluate_expr(s.amp, bindings)) for s in sources])


def _target(tab: PatternTable, outputs: tuple[str, ...], pol: PolarizationParams | None):
    pols = [("V", 1.0)] if pol is None else [("H", pol.gamma), ("V", pol.delta)]
    terms = tab.photon([(m, p, c) for m in outputs for p, c in pols])
    n2 = terms_norm_sq(terms)
    if n2 <= NORM_TOL * NORM_TOL:
        raise DegenerateStateError("cannot normalize a (near-)zero state")
    return prune({p: a * (1.0 / math.sqrt(n2)) for p, a in terms.items()})


def _aux(tab: PatternTable, arm: Arm, bindings) -> list[tuple[int, complex, int]]:
    """The arm's auxiliary photon after its coupler: ``(output id, amplitude, j)``,
    the amplitude times ``sqrt(1-t)`` when j is 0 (reflected), ``sqrt(t)`` when 1."""
    out = []
    for x, a in _sources(tab, arm.aux_sources, bindings).items():
        [((_, pol), _)] = tab.patterns[x]
        out += [(tab.intern((((m, pol), 1),)), a, j) for j, m in enumerate((arm.vbs.reflect, arm.vbs.transmit))]
    return out


# ---------------------------------------------------------------------------
# recycling chain

def _chain(tab: PatternTable, arms: list[Arm]) -> tuple:
    """``(couplers, setup, qnds, programs)`` of a chain of ``arms``, built once per plan and
    arm labels: per side its balanced couplers' ports, detector groups and flips; the
    nondemolition pairs; the table of round programs."""
    labels = tuple(a.label for a in arms)
    chains = tab.stage("chain")
    if labels not in chains:
        sides = [[(a.success_bs, a.success_group, a.flips) for a in arms]]
        if all(a.recycle_bs for a in arms):
            sides.append([(a.recycle_bs, a.recycle_group, a.recycle_flips) for a in arms])
        couplers = tuple(tuple((bs.in1, bs.in2, bs.out1, bs.out2) for bs, _, _ in side) for side in sides)
        setup = [([g for _, g, _ in side], {d: m for _, _, f in side for d, m in f.items()}) for side in sides]
        qnds = [(a.qnd.a, a.qnd.b) for a in arms if a.qnd is not None]
        chains[labels] = (couplers, setup, qnds, tab.stage("round", *labels))
    return chains[labels]


def _outputs(tab: PatternTable, key: tuple[int, ...], qnds, rules: tuple, setup) -> tuple:
    """``(route, outputs)`` of input id ``key[0]`` with auxiliary photon ids ``key[1:]``: their
    product's nondemolition route (0 heralds, 1 recycles, None neither) and the route's side
    (couplers, herald, flips) on the unit product, ``(signature, output id, residual id,
    flipped coefficient)`` per success output."""
    counts = dict(tab.patterns[key[0]])
    for x in key[1:]:
        shared = counts.keys() & {m for m, _ in tab.patterns[x]}
        if shared:
            raise ModeCollisionError(f"tensor operands share modes {sorted(shared)}")
        counts.update(tab.patterns[x])
    pid = tab.intern(make_pattern(counts))
    if tab.photons[pid] > PHOTON_CAP:
        raise PhotonBudgetError(f"pattern holds {tab.photons[pid]} photons, cap is {PHOTON_CAP}")
    cs = {qnd_class(tab.patterns[pid], qa, qb) for qa, qb in qnds}
    route = 0 if cs <= {1} else 1 if cs <= {0} and len(setup) == 2 else None
    if route is None:
        return None, []
    groups, flips = setup[route]
    terms = {pid: 1.0}
    for r in rules[route]:
        terms = tab.transform(terms, r)
    outs = []
    for p, c in terms.items():
        for sig, _, success, corr, [(q, _)] in herald_terms(tab, {p: c}, groups, flips):
            if success:
                odd = sum(pattern_count(tab.patterns[q], m) for m in corr) % 2
                outs.append((sig, p, q, -c if odd else c))
    return route, outs


def _slots(tab: PatternTable, products: tuple, rules: tuple, chain: tuple) -> tuple:
    """``(index, coef, spans, sides)`` of a round whose surviving products are ``products``:
    slot s (an output id of one side) sums ``product[index[j]] * coef[j]`` over j in ``spans[s]``
    in the order the products reach it; ``sides`` lists per side each signature, sorted, as (itself
    if two of its outputs share a residual id, else None, its ``(slot, residual id)`` pairs)."""
    _, setup, qnds, _ = chain
    slots: dict[tuple, list] = {}  # (route, signature, output id, residual id) -> [(product index, coefficient)]
    for i, key in enumerate(products):
        route, outs = _outputs(tab, key, qnds, rules, setup)
        for sig, p, q, c in outs:
            slots.setdefault((route, sig, p, q), []).append((i, c))
    pairs: tuple[dict, dict] = ({}, {})  # per route: signature -> [(slot, residual id)]
    for s, (route, sig, _, q) in enumerate(slots):
        pairs[route].setdefault(sig, []).append((s, q))
    flat = [ic for contributions in slots.values() for ic in contributions]
    ends = list(itertools.accumulate(map(len, slots.values())))
    return tuple(i for i, _ in flat), tuple(c for _, c in flat), tuple(map(slice, [0, *ends], ends)), tuple(
        tuple((sig if len({q for _, q in ps}) < len(ps) else None, tuple(ps))
              for sig, ps in sorted(by_sig.items()))
        for by_sig in pairs
    )


def _wins(sigs: tuple, values: list, mags: list, factor: float) -> list:
    """Per success signature, in order, ``(weight, probability, raw)``: its outputs pruned as
    the last coupler's transform prunes, weighed and relabeled to their residual ids (raising
    PolarizationMixtureError if two share one); a signature of weight <= ``PRUNE_EPS**2`` is dropped."""
    wins = []
    for sig, pairs in sigs:
        squares, raw = [], {}
        for s, q in pairs:
            m = mags[s]
            if m >= PRUNE_EPS:
                squares.append(m**2)
                raw[q] = values[s]
        weight = sum(squares)
        if weight > PRUNE_EPS**2:
            if sig is not None and len(raw) < len(squares):
                raise PolarizationMixtureError(f"click signature {' '.join(f'{d}:{n}' for d, n in sig)}: {MIXTURE}")
            wins.append((weight, weight * factor, raw))
    return wins


def _combine_recycle(again: list, weight: float) -> dict[int, complex]:
    """Collapse equivalent recycle continuations ``(weight, _, raw)`` into one of ``weight``."""
    if not again:
        return {}
    (n0, _, first), *rest = again
    for n, _, other in rest:
        if terms_fidelity(first, other, n0, n) < 1.0 - RECYCLE_AGREEMENT_TOL:
            raise RuntimeError(
                "recycle click patterns disagree after correction; "
                "feed-forward rules are inconsistent with the coupler convention"
            )
    scale = math.sqrt(weight / n0)
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
    current: dict[int, complex],
    schedules: list[list[float]],
    bindings: dict[str, complex],
    model: DetectorModel,
) -> list[_ChainRound]:
    """Run every round of ``arms`` together on the input ``current`` (by id).

    Each round attaches every arm's auxiliary photon at the arm's scheduled
    transmittance, then splits by the nondemolition comparisons of the arms
    that have one: class 1 on all of them goes on to the heralding couplers,
    class 0 on all of them to the recycling couplers.  Success needs every
    arm's group to click at once; the combined recycle continuation is the
    next round's input.  A round whose input and transmittances equal the
    previous round's repeats that round's result.
    """
    chain = _chain(tab, arms)
    couplers, setup, _, programs = chain
    rules = tuple(tuple(bs_rules(*ports) for ports in side) for side in couplers)
    factor = detection_factor(setup[0][0], model)
    auxes: list[list | None] = [None] * len(arms)
    results: list[_ChainRound] = []
    last = None
    for k in range(len(schedules[0])):
        ts = [s[k] for s in schedules]
        if last == (current, ts):  # a fixed point: the same round again
            results.append(results[-1])
            continue
        last = (current, ts)
        # the tensor product on (input id, auxiliary photon ids), pruned after each factor
        products = [((w,), amp) for w, amp in current.items()]
        for i, (arm, t) in enumerate(zip(arms, ts)):
            if auxes[i] is None:  # the same photon every round
                auxes[i] = _aux(tab, arm, bindings)
            rs = vbs_coefficients(arm.vbs.inp, arm.vbs.reflect, arm.vbs.transmit, t)
            photon = [(x, c) for x, a, j in auxes[i] if abs(c := a * rs[j]) >= PRUNE_EPS]
            products = [(k + (x,), v) for k, a in products for x, c in photon if abs(v := a * c) >= PRUNE_EPS]
        keys, vals = zip(*products) if products else ((), ())
        program = programs.get(keys)
        if program is None or program[0] != rules:  # never serve another coupler matrix
            program = programs[keys] = (rules, *_slots(tab, keys, rules, chain))
        _, index, coef, spans, (won, recycled) = program
        terms = list(map(mul, map(vals.__getitem__, index), coef))
        values = list(map(sum, map(terms.__getitem__, spans), itertools.repeat(0j)))
        mags = list(map(abs, values))
        wins = _wins(won, values, mags, factor)
        again = _wins(recycled, values, mags, 1.0)
        p_rec = sum((w for w, _, _ in again), 0.0)
        current = _combine_recycle(again, p_rec)  # a raw's weight is its squared norm
        p_win = sum((p for _, p, _ in wins), 0.0)
        results.append(_ChainRound(p_win, p_rec, [raw for _, _, raw in wins], current))
    return results


def _pair(plus: dict, minus: dict) -> dict:
    combined = dict(plus)
    for p, amp in minus.items():
        # both arms carry the signal-at-home component; the published
        # recombination counts it once, so shared amplitudes average
        combined[p] = 0.5 * (combined[p] + amp) if p in combined else amp
    return prune(combined)


def _rounds(
    tab: PatternTable,
    merge: PbsMergeDecl | None,
    ts: list[float],
    chains: list[list[_ChainRound]],
    target: dict[int, complex],
) -> list[RoundResult]:
    """Round results summed over ``chains``.  Each distinct round's heralded states are
    its raws through the merge, with two chains (branch accounting) every plus state
    paired with every minus one; fidelity is the worst of them against ``target``."""
    target_norm = terms_norm_sq(target)
    rounds = []
    for k, (t, books) in enumerate(zip(ts, zip(*chains))):
        if not k or any(b is not c[k - 1] for b, c in zip(books, chains)):  # not a repeated round
            fid = None
            if all(b.wins for b in books):
                merged = [
                    [raw if merge is None else merge_terms(tab, raw, merge.in_h, merge.in_v, merge.out) for raw in b.wins]
                    for b in books
                ]
                states = merged[0] if len(merged) == 1 else [_pair(a, b) for a in merged[0] for b in merged[1]]
                fid = min([terms_fidelity(s, target, nb=target_norm) for s in states])
        p_success = sum(b.p_success for b in books)
        p_recycle = sum(b.p_recycle for b in books)
        rounds.append(RoundResult(k + 1, t, p_success, p_recycle, fid))
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

    if pol is not None and not {"gamma", "delta"} & plan.reads:
        raise ConfigError("polarization is given but no expression in the circuit reads gamma or delta")

    if plan.has_recycling:
        if t1 is not None or t2 is not None:
            raise ConfigError(
                "t1 and t2 do not apply to a recycling layout; "
                "its couplers follow the doubling schedule"
            )
        ts_plus = ts_minus = vbs_schedule(ent, rounds)
    else:
        if rounds != 1:
            raise ConfigError("circuit has no recycling path; rounds must be 1")
        if t2 is not None and len(plan.arms) == 1:
            raise ConfigError("t2 sets the second arm's coupler; this circuit has one arm")
        if t1 is not None and not {"t1", "t_plus"} & plan.coupler_reads:
            raise ConfigError("t1 is given but no coupler expression reads t1 or t_plus")
        if t2 is not None and not {"t2", "t_minus"} & plan.coupler_reads:
            raise ConfigError("t2 is given but no coupler expression reads t2 or t_minus")
        ts_plus = [ent.alpha_sq if t1 is None else t1]
        ts_minus = [ent.alpha_sq if t2 is None else t2]
        for t in (*ts_plus, *ts_minus):
            if not 0.0 <= t <= 1.0:
                raise ConfigError(f"transmittance {t} outside [0, 1]")

    # the document's coupler expressions are authoritative; the planned
    # schedule only feeds their transmittance parameters
    schedule = _effective_schedule(plan, bindings, ts_plus, ts_minus)

    tab = plan.table
    target = _target(tab, plan.outputs, pol)
    signal = _sources(tab, plan.signal_sources, bindings)
    if plan.split is not None:
        signal = split_terms(tab, signal, plan.split.inp, plan.split.out_h, plan.split.out_v)
    if accounting == "branch":
        # each arm acts only on the component where the signal is not in
        # the other arm
        chains = []
        for arm in plan.arms:
            others = [a.signal_mode for a in plan.arms if a is not arm]
            inp = {
                p: a for p, a in signal.items()
                if all(pattern_count(tab.patterns[p], m) == 0 for m in others)
            }
            chains.append(_run_chain(tab, [arm], inp, [schedule[arm.label]], bindings, model))
        eta_exponent = 1
    else:
        schedules = [schedule[arm.label] for arm in plan.arms]
        chains = [_run_chain(tab, plan.arms, signal, schedules, bindings, model)]
        eta_exponent = len(plan.arms)
    round_results = _rounds(tab, plan.merge, schedule["plus"], chains, target)

    report = ProtocolReport(
        protocol=plan.protocol,
        accounting=accounting,
        alpha_sq=ent.alpha_sq,
        gamma_sq=pol.gamma_sq if pol is not None else None,
        eta_p=model.eta_p,
        schedule=schedule,
        rounds=round_results,
        p_total=sum(r.p_success for r in round_results),
        engine=EngineInfo("exact", eta_exponent),
    )
    report.paper_comparison = _comparison(plan, report, pol, chains)
    return report


def _reads(texts) -> set[str]:
    """Parameters that any of the expression ``texts`` reads."""
    return set().union(*(expr_variables(parse_expr(t)) for t in texts))


def _effective_schedule(
    plan: Plan,
    bindings: dict[str, complex],
    ts_plus: list[float],
    ts_minus: list[float],
) -> dict[str, list[float]]:
    """The report's ``schedule``: per arm label the transmittance its coupler expression
    gives in each round, with ``ts_plus``/``ts_minus`` bound to its parameters (``minus``
    empty on a one-arm layout)."""
    eff: dict[str, list[float]] = {"plus": [], "minus": []}
    for k, (plus, minus) in enumerate(zip(ts_plus, ts_minus)):
        if k and (plus, minus) == (ts_plus[k - 1], ts_minus[k - 1]):
            for arm in plan.arms:  # the same bindings give the same values
                eff[arm.label].append(eff[arm.label][-1])
            continue
        round_bindings = {**bindings, "t1": plus, "t2": minus, "t_plus": plus, "t_minus": minus}
        for arm in plan.arms:
            v = evaluate_real(arm.vbs.t, round_bindings)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"coupler expression {arm.vbs.t!r} gives {v}, outside [0, 1]")
            eff[arm.label].append(v)
    return eff


def _comparison(
    plan: Plan,
    report: ProtocolReport,
    pol: PolarizationParams | None,
    chains: list[list[_ChainRound]],
) -> dict[str, dict[str, float]]:
    """The published closed forms against the simulated values.  Two facts decide the
    entries: a stripped ecp2 run is scored only against its round series, and
    a polarized branch run adds the per-arm entries of its protocol (one chain per arm)."""
    out: dict[str, dict[str, float]] = {}
    if plan.protocol == "custom":
        return out
    a2 = report.alpha_sq
    factor = report.eta_p**report.engine.eta_exponent
    ecp2 = plan.protocol == "ecp2"
    if ecp2 and pol is None:
        series = round_success_series(a2, report.eta_p, len(report.rounds))
        for k, (pk, r) in enumerate(zip(series, report.rounds), start=1):
            out[f"series_round_{k}"] = comparison_entry(pk, r.p_success)
        out["series_total"] = comparison_entry(sum(series), report.p_total)
        return out
    if pol is not None and report.accounting == "branch":
        if ecp2:
            t1 = report.rounds[0].t
            arms = {"claimed_round1_plus": qnd_round_success(a2, pol.delta_sq, t1),
                    "claimed_round1_minus": qnd_round_success(a2, pol.gamma_sq, t1)}
        else:
            arms = {"claimed_success_plus": branch_success_plus(a2, pol.delta_sq),
                    "claimed_success_minus": branch_success_minus(a2, pol.gamma_sq)}
        per_arm = {a.label: c[0].p_success for a, c in zip(plan.arms, chains)}
        for (name, claimed), label in zip(arms.items(), ("plus", "minus")):
            out[name] = comparison_entry(claimed * factor, per_arm.get(label, 0.0))
        if not ecp2:
            out["claimed_branch_sum"] = comparison_entry(3.0 * a2 * (1.0 - a2) * factor, report.p_total)
    out["claimed_total"] = comparison_entry(claimed_total(a2) * factor, report.p_total)
    if ecp2:
        out["stripped_series_total"] = comparison_entry(
            sum(round_success_series(a2, factor, len(report.rounds))), report.p_total
        )
    if pol is not None and report.accounting == "joint":
        out["predicted_joint_total"] = comparison_entry(joint_total_one_round(a2) * factor, report.p_total)
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
