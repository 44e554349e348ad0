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
once per arm, joint accounting once with all arms.  ``analyze`` is cached
per document and adds one ``fock.PatternTable``, whose stage tables hold
all that is compiled from pattern ids, ports and labels (never from alpha,
gamma, t or a result): the sources, target and auxiliary photons as id
lists, whose amplitudes a point evaluates; per round shape (input ids,
auxiliary photon ids, surviving products) one slot program, kept beside
the coupler rules it bakes in, each slot summing product amplitudes times
the coefficients of the couplers, herald and flips; inside it, per set of
surviving slots, the round's scoring (each click signature's slots,
residual ids and merge relabel, the recycle agreement's products); per
round's win ids, the pairing and the products with the target.  A point
computes only amplitudes, with the prunes, summation order and errors of
the dict path these replace.

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
from operator import is_, mul, truediv
from dataclasses import dataclass, field

from .circuits import Arm, Layout, TopologyError, builtin_doc, layout  # TopologyError re-exported
from .dsl import (
    CircuitDoc,
    PbsMergeDecl,
    SourceDecl,
    compile_expr,
    evaluate_real,
    expr_variables,
    parse_expr,
)
from .elements import PortContractError, bs_matrix, bs_rules, merge_relabels, split_terms, vbs_coefficients
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
    mode,
    pattern_count,
    prune,
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

def _photon(tab: PatternTable, sources: list[SourceDecl]) -> tuple:
    """``tab.photon`` of ``sources`` compiled: amplitude functions, ids (first seen), sources per id."""
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(sources):
        groups.setdefault(tab.intern(((mode(s.mode, s.pol), 1),)), []).append(i)
    return [compile_expr(s.amp) for s in sources], tuple(groups), tuple(map(tuple, groups.values()))


def _terms(photon: tuple, bindings) -> dict[int, complex]:
    """A compiled photon at ``bindings``: per id its amplitudes summed from 0j, pruned."""
    fns, ids, groups = photon
    amps = [f(bindings) for f in fns]
    return {p: a for p, g in zip(ids, groups) if abs(a := sum(map(amps.__getitem__, g), 0j)) >= PRUNE_EPS}


def _target(photon: tuple, bindings) -> tuple:
    """``(ids, amplitudes, squared norm)`` of the normalized target."""
    terms = _terms(photon, bindings)
    n2 = terms_norm_sq(terms)
    if n2 <= NORM_TOL * NORM_TOL:
        raise DegenerateStateError("cannot normalize a (near-)zero state")
    target = prune({p: a * (1.0 / math.sqrt(n2)) for p, a in terms.items()})
    return tuple(target), list(target.values()), terms_norm_sq(target)


def _point(plan: Plan, pol: PolarizationParams | None) -> tuple:
    """Signal and target photons for points with or without ``pol``; a target without it is kept whole."""
    points = plan.table.stage("point")
    key = "V" if pol is None else "HV"
    if key not in points:
        amps = {"V": "1"} if pol is None else {"H": "gamma", "V": "delta"}
        target = _photon(plan.table, [SourceDecl(m, p, amps[p]) for m in plan.outputs for p in key])
        points[key] = _photon(plan.table, plan.signal_sources), _target(target, {}) if pol is None else target
    return points[key]


def _survivors(amps: list) -> tuple:
    """``(alive, kept)``: which of ``amps`` the prune keeps (None for all of them) and those."""
    if not amps or min(map(abs, amps)) >= PRUNE_EPS:
        return None, amps
    alive = tuple([abs(a) >= PRUNE_EPS for a in amps])
    return alive, list(itertools.compress(amps, alive))


def _spans(lists) -> tuple:
    """The slices that cut the concatenation of ``lists`` back into them."""
    ends = list(itertools.accumulate(map(len, lists)))
    return tuple(map(slice, [0, *ends], ends))


def _aligned(first: list, second: list) -> tuple:
    """``terms_inner(first, second)``'s products for states listed as ``(position, id)``: the
    positions of the shared ids, the conjugated factor's first, in the order it takes them."""
    x, y = (second, first) if len(first) > len(second) else (first, second)
    at = dict(map(reversed, y))
    shared = [(i, at[q]) for i, q in x if q in at]
    return tuple(i for i, _ in shared), tuple(j for _, j in shared)


def _inners(values: list, firsts: tuple, seconds: tuple, spans: tuple):
    """Per span, ``sum(values[i].conjugate() * values[j], 0j)`` over its ``(firsts, seconds)``."""
    conjugates = map(complex.conjugate, map(values.__getitem__, firsts))
    products = list(map(mul, conjugates, map(values.__getitem__, seconds)))
    return map(sum, map(products.__getitem__, spans), itertools.repeat(0j))


# ---------------------------------------------------------------------------
# recycling chain

def _chain(tab: PatternTable, arms: list[Arm], merge: PbsMergeDecl | None) -> tuple:
    """``(couplers, setup, qnds, photons, ports, programs)`` of a chain of ``arms``, once per arm
    labels and merge: per side its couplers' ports, detector groups and flips; the nondemolition
    pairs; each arm's photon with its ids' (reflected, transmitted) ids; merge ports; programs."""
    labels = tuple(a.label for a in arms)
    ports = () if merge is None else (merge.in_h, merge.in_v, merge.out)
    chains = tab.stage("chain")
    if (labels, ports) not in chains:
        sides = [[(a.success_bs, a.success_group, a.flips) for a in arms]]
        if all(a.recycle_bs for a in arms):
            sides.append([(a.recycle_bs, a.recycle_group, a.recycle_flips) for a in arms])
        couplers = tuple(tuple((bs.in1, bs.in2, bs.out1, bs.out2) for bs, _, _ in side) for side in sides)
        setup = [([g for _, g, _ in side], {d: m for _, _, f in side for d, m in f.items()}) for side in sides]
        qnds = [(a.qnd.a, a.qnd.b) for a in arms if a.qnd is not None]
        photons = []
        for a in arms:
            photon, outputs = _photon(tab, a.aux_sources), {}
            for x in photon[1]:
                [((_, pol), _)] = tab.patterns[x]
                outputs[x] = tuple(tab.intern((((m, pol), 1),)) for m in (a.vbs.reflect, a.vbs.transmit))
            photons.append((photon, outputs))
        chains[labels, ports] = (couplers, setup, qnds, photons, ports, tab.stage("round", labels, ports))
    return chains[labels, ports]


@functools.lru_cache(maxsize=64)
def _rules(couplers: tuple, matrix: tuple) -> tuple:
    """Each side's balanced couplers at the coupler ``matrix`` in force (``bs_rules`` reads it)."""
    return tuple(tuple(bs_rules(*ports) for ports in side) for side in couplers)


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


def _slots(tab: PatternTable, shape: tuple, rules: tuple, chain: tuple) -> tuple:
    """``(index, coef, spans, sides)`` of a round of product ``shape``: slot s (an output id) sums
    ``product[index[j]] * coef[j]`` over j in ``spans[s]``; the slots run by side, signature (sorted)
    and first touch, ``sides`` listing each signature and its residual ids."""
    _, setup, qnds, *_ = chain
    products = [(w,) for w in shape[0]]
    for xs, alive in shape[1:]:
        products = [k + (x,) for k in products for x in xs]
        products = products if alive is None else list(itertools.compress(products, alive))
    slots: dict[tuple, list] = {}  # (route, signature, output id, residual id) -> [(product index, coefficient)]
    for i, key in enumerate(products):
        route, outs = _outputs(tab, key, qnds, rules, setup)
        for sig, p, q, c in outs:
            slots.setdefault((route, sig, p, q), []).append((i, c))
    order = sorted(slots, key=lambda slot: slot[:2])
    sides: tuple[list, list] = ([], [])
    for (route, sig), run in itertools.groupby(order, key=lambda slot: slot[:2]):
        sides[route].append((sig, tuple(q for *_, q in run)))
    flat = [ic for slot in order for ic in slots[slot]]
    return (tuple(i for i, _ in flat), tuple(c for _, c in flat),
            _spans([slots[slot] for slot in order]), tuple(map(tuple, sides)))


def _scoring(tab: PatternTable, sides: tuple, alive: tuple | None, ports: tuple) -> tuple:
    """``(won, recycled, agreements, scale)`` of a round whose slots survive where ``alive`` (None:
    all).  Per side, each signature's ``(start, stop, mixture, ids, error)``: the span of its
    surviving slots; itself if two of them share a residual id (a mixture), else None; their
    residual ids, on the won side merged by ``ports``; and on the won side the merge's
    ``(type, message)`` if it raises (ids then None).  ``agreements`` is filled by ``_continuation``;
    ``scale`` holds sqrt(N_out!) and sqrt(n_in!) per won slot (None without a merge)."""
    out, at, pos, scale = [], 0, 0, []
    for route, side in enumerate(sides):
        entries = []
        for sig, qs in side:
            ids = tuple(q for i, q in enumerate(qs, at) if alive is None or alive[i])
            start, at, pos = pos, at + len(qs), pos + len(ids)
            mixture = sig if len(set(ids)) < len(ids) else None
            error = None
            if ports and route == 0:
                try:
                    stage = merge_relabels(tab, ids, *ports)
                except (PortContractError, ModeCollisionError) as exc:
                    error, stage = (type(exc), str(exc)), dict.fromkeys(ids, (None, 1.0, 1.0))
                scale += [stage[q][1:] for q in ids]
                ids = None if error else tuple(stage[q][0] for q in ids)
            entries.append((start, pos, mixture, ids, error))
        out.append(tuple(entries))
    won, recycled = out
    if not ports:
        return won, recycled, {}, None
    return won, recycled, {}, tuple(zip(*scale)) or ((), ())


@dataclass(slots=True)
class _ChainRound:
    p_success: float
    p_recycle: float
    wins: tuple  # each corrected heralded state's ids through the merge (None where it raises)
    amps: list  # their amplitudes, one state after the other
    recycle_next: dict[int, complex]  # the next round's input, by pattern id
    error: tuple | None  # (type, message) of the first win's merge error


def _score(tab: PatternTable, program: tuple, values: list, factor: float, ports: tuple) -> _ChainRound:
    """The round of slot ``values``: each signature weighs its surviving squares, summed in order;
    each win merges as ``(a * N) / n``, pruned; the recycle signatures give the next round's input
    (``_continuation``)."""
    *_, sides, scores = program
    mags = list(map(abs, values))
    alive = None
    if mags and min(mags) < PRUNE_EPS:  # the prune after the last coupler
        alive = tuple([m >= PRUNE_EPS for m in mags])
        values, mags = list(itertools.compress(values, alive)), list(itertools.compress(mags, alive))
    scoring = scores.get(alive)
    if scoring is None:
        scoring = scores[alive] = _scoring(tab, sides, alive, ports)
    won, recycled, agreements, scale = scoring
    squares = [m**2 for m in mags]
    merged, pruned = values[:won[-1][1]] if won else [], False
    if scale is not None:  # the merge, then its prune
        merged = list(map(truediv, map(mul, merged, scale[0]), scale[1]))
        pruned = bool(merged) and min(map(abs, merged)) < PRUNE_EPS
    p_win, wins, amps, error = 0.0, [], [], None
    for start, stop, mixture, ids, err in won:
        weight = sum(squares[start:stop])
        if weight > PRUNE_EPS**2:
            if mixture is not None:
                raise _mixture(mixture)
            p_win += weight * factor
            if err is not None:  # raised where every chain of the round has a win
                error = error or err
            elif pruned:
                keep, win = _survivors(merged[start:stop])
                ids = ids if keep is None else tuple(itertools.compress(ids, keep))
                amps += win
            else:
                amps += merged[start:stop]
            wins.append(ids)
    again = []  # (weight, index) of each recycle signature that weighs enough
    for i, (start, stop, mixture, _, _) in enumerate(recycled):
        weight = sum(squares[start:stop])
        if weight > PRUNE_EPS**2:
            if mixture is not None:
                raise _mixture(mixture)
            again.append((weight, i))
    p_rec = sum([w for w, _ in again], 0.0)
    recycle_next = _continuation(values, recycled, agreements, again, p_rec)
    return _ChainRound(p_win, p_rec, tuple(wins), amps, recycle_next, error)


def _continuation(values: list, recycled: tuple, agreements: dict, again: list, weight: float) -> dict:
    """The next round's input: the first of the recycle signatures ``again`` rescaled to ``weight``
    and pruned, once every later one agrees with it after correction (its products with the
    first, ``_aligned``, kept in ``agreements`` per pair of signatures)."""
    if not again:
        return {}
    (n0, i), *rest = again
    start, stop, _, ids, _ = recycled[i]
    for n, j in rest:
        aligned = agreements.get((i, j))
        if aligned is None:
            other_start, _, _, other_ids, _ = recycled[j]
            aligned = agreements[i, j] = _aligned(list(enumerate(ids, start)), list(enumerate(other_ids, other_start)))
        if n0 <= NORM_TOL**2 or n <= NORM_TOL**2:
            raise DegenerateStateError("fidelity of a (near-)zero state is undefined")
        firsts, seconds = aligned
        conjugates = map(complex.conjugate, map(values.__getitem__, firsts))
        inner = sum(map(mul, conjugates, map(values.__getitem__, seconds)), 0j)
        if min(abs(inner) ** 2 / (n0 * n), 1.0) < 1.0 - RECYCLE_AGREEMENT_TOL:
            raise RuntimeError(
                "recycle click patterns disagree after correction; "
                "feed-forward rules are inconsistent with the coupler convention"
            )
    scale = math.sqrt(weight / n0)
    return {q: v for q, a in zip(ids, values[start:stop]) if abs(v := a * scale) >= PRUNE_EPS}


def _mixture(sig: tuple) -> PolarizationMixtureError:
    return PolarizationMixtureError(f"click signature {' '.join(f'{d}:{n}' for d, n in sig)}: {MIXTURE}")


def _run_chain(
    tab: PatternTable,
    arms: list[Arm],
    current: dict[int, complex],
    schedules: list[list[float]],
    bindings: dict[str, complex],
    model: DetectorModel,
    merge: PbsMergeDecl | None,
) -> list[_ChainRound]:
    """Run every round of ``arms`` together on the input ``current`` (by id).

    Each round attaches every arm's auxiliary photon at the arm's scheduled
    transmittance, then splits by the nondemolition comparisons of the arms
    that have one: class 1 on all of them goes on to the heralding couplers,
    class 0 on all of them to the recycling couplers.  Success needs every
    arm's group to click at once, and the heralded state then goes through
    ``merge``; the combined recycle continuation is the next round's input.
    A round whose input and transmittances equal the previous round's
    repeats that round's result.
    """
    chain = _chain(tab, arms, merge)
    couplers, setup, _, photons, ports, programs = chain
    rules = _rules(couplers, bs_matrix())
    factor = detection_factor(setup[0][0], model)
    auxes: list[tuple | None] = [None] * len(arms)
    results: list[_ChainRound] = []
    last = None
    for k in range(len(schedules[0])):
        ts = [s[k] for s in schedules]
        if last == (current, ts):  # a fixed point: the same round again
            results.append(results[-1])
            continue
        last = (current, ts)
        # the product with each arm's photon, pruned per factor; shape: ids and survivors per factor
        shape, vals = [tuple(current)], list(current.values())
        for i, (arm, t) in enumerate(zip(arms, ts)):
            if auxes[i] is None:  # the same photon every round: its output ids and amplitudes
                photon, outputs = photons[i]
                terms = _terms(photon, bindings)
                auxes[i] = tuple(x for p in terms for x in outputs[p]), [a for a in terms.values() for _ in "rt"]
            rs = vbs_coefficients(arm.vbs.inp, arm.vbs.reflect, arm.vbs.transmit, t)
            keep, cs = _survivors(list(map(mul, auxes[i][1], itertools.cycle(rs))))  # sqrt(1-t), sqrt(t)
            xs = auxes[i][0] if keep is None else tuple(itertools.compress(auxes[i][0], keep))
            alive, vals = _survivors([a * c for a in vals for c in cs])
            shape.append((xs, alive))
        shape = tuple(shape)
        program = programs.get(shape)
        if program is None or program[0] != rules:  # never serve another coupler matrix
            program = programs[shape] = (rules, *_slots(tab, shape, rules, chain), {})
        _, index, coef, spans, _, _ = program
        terms = list(map(mul, map(vals.__getitem__, index), coef))
        values = list(map(sum, map(terms.__getitem__, spans), itertools.repeat(0j)))
        results.append(_score(tab, program, values, factor, ports))
        current = results[-1].recycle_next
    return results


def _pairing(books: tuple) -> tuple:
    """``(ops, states, masks)`` of a round whose chains' wins hold the ids ``books``: with one chain
    its wins (``ops`` None); with two every plus win paired with every minus one, plus ids first,
    shared ids averaged (both arms carry the signal-at-home component, counted once): value j
    is ``amps[i]`` or ``0.5 * (amps[i] + amps[k])`` for ``ops[j] == (i, k)``; ``states`` lists
    each state's ids and span; ``masks`` keeps ``_fidelities`` by surviving values."""
    if len(books) == 1:
        return None, tuple(zip(books[0], _spans(books[0]))), {}
    starts = list(itertools.accumulate(map(len, books[0] + books[1]), initial=0))
    ops, states = [], []
    for a, plus in enumerate(books[0]):
        for b, minus in enumerate(books[1], len(books[0])):
            pair = {q: (i, None) for i, q in enumerate(plus, starts[a])}
            for j, q in enumerate(minus, starts[b]):
                pair[q] = (pair[q][0], j) if q in pair else (j, None)
            states.append((tuple(pair), slice(len(ops), len(ops) + len(pair))))
            ops += pair.values()
    return tuple(ops), tuple(states), {}


def _fidelities(states: tuple, alive: tuple | None, target: tuple) -> tuple:
    """``(spans, firsts, seconds, products)`` of a round's states whose values survive where
    ``alive`` (None: all): each state's span of the surviving values and its products with the
    ``target`` ids (``_aligned``), indexing the surviving values and then the target's."""
    lists, at = [], 0
    for ids, span in states:
        lists.append(list(enumerate([q for j, q in enumerate(ids, span.start) if alive is None or alive[j]], at)))
        at += len(lists[-1])
    aligned = [_aligned(pairs, list(enumerate(target, at))) for pairs in lists]
    return (_spans(lists), tuple(i for a, _ in aligned for i in a), tuple(j for _, b in aligned for j in b),
            _spans([a for a, _ in aligned]))


def _rounds(
    tab: PatternTable,
    ts: list[float],
    chains: list[list[_ChainRound]],
    target: tuple,
) -> list[RoundResult]:
    """Round results summed over ``chains``.  Each distinct round's heralded states are its wins,
    paired (``_pairing``) and pruned; its fidelity is the worst of theirs against ``target``,
    ``(ids, amplitudes, squared norm)``, both compiled in the plan table's ``score`` stage."""
    tids, tamps, tnorm = target
    table = tab.stage("score")
    rounds, last = [], None
    for k, (t, books) in enumerate(zip(ts, zip(*chains))):
        if last is None or not all(map(is_, books, last)):  # not a repeated round
            last, fid = books, None
            if all(b.wins for b in books):
                for b in books:
                    if b.error:
                        raise b.error[0](b.error[1])
                key = (*[b.wins for b in books], tids)
                pairing = table.get(key)
                if pairing is None:
                    pairing = table[key] = _pairing(key[:-1])
                ops, states, masks = pairing
                amps = books[0].amps if len(books) == 1 else books[0].amps + books[1].amps
                alive = None
                if ops is not None:  # paired, then pruned
                    alive, amps = _survivors([amps[i] if j is None else 0.5 * (amps[i] + amps[j]) for i, j in ops])
                fidelities = masks.get(alive)
                if fidelities is None:
                    fidelities = masks[alive] = _fidelities(states, alive, tids)
                spans, firsts, seconds, products = fidelities
                squares = [abs(a) ** 2 for a in amps]
                norms = list(map(sum, map(squares.__getitem__, spans)))
                if min(norms) <= NORM_TOL**2 or tnorm <= NORM_TOL**2:
                    raise DegenerateStateError("fidelity of a (near-)zero state is undefined")
                inners = _inners(amps + tamps, firsts, seconds, products)
                fid = min(min([abs(v) ** 2 / (n * tnorm) for v, n in zip(inners, norms)]), 1.0)
            p_success = sum([b.p_success for b in books])
            p_recycle = sum([b.p_recycle for b in books])
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
    signal, target = _point(plan, pol)
    target = target if pol is None else _target(target, bindings)
    signal = _terms(signal, bindings)
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
            chains.append(_run_chain(tab, [arm], inp, [schedule[arm.label]], bindings, model, plan.merge))
        eta_exponent = 1
    else:
        schedules = [schedule[arm.label] for arm in plan.arms]
        chains = [_run_chain(tab, plan.arms, signal, schedules, bindings, model, plan.merge)]
        eta_exponent = len(plan.arms)
    round_results = _rounds(tab, schedule["plus"], chains, target)

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
    round_bindings = dict(bindings)
    for k, (plus, minus) in enumerate(zip(ts_plus, ts_minus)):
        if k and plus == ts_plus[k - 1] and minus == ts_minus[k - 1]:
            for arm in plan.arms:  # the same bindings give the same values
                eff[arm.label].append(eff[arm.label][-1])
            continue
        round_bindings.update(t1=plus, t2=minus, t_plus=plus, t_minus=minus)
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
    """The published closed forms against the simulated values.  Two facts decide the entries: a
    one-arm ecp2 run without polarization is scored only against its round series, and a
    two-arm polarized branch run adds the per-arm entries of its protocol (one chain per arm)."""
    out: dict[str, dict[str, float]] = {}
    if report.protocol == "custom":
        return out
    a2 = report.alpha_sq
    factor = report.eta_p**report.engine.eta_exponent
    ecp2 = report.protocol == "ecp2"
    if ecp2 and pol is None and len(plan.arms) == 1:
        series = round_success_series(a2, report.eta_p, len(report.rounds))
        for k, (pk, r) in enumerate(zip(series, report.rounds), start=1):
            out[f"series_round_{k}"] = comparison_entry(pk, r.p_success)
        out["series_total"] = comparison_entry(sum(series), report.p_total)
        return out
    if pol is not None and report.accounting == "branch" and len(plan.arms) == 2:
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
