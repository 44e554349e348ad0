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
per document and adds one ``fock.PatternTable``; the plan keeps all that is
compiled from its pattern ids, ports and labels (never from alpha, gamma, t
or a result): per point kind (with or without polarization) one generated
prologue (``_prologue``) that evaluates every photon's amplitude expressions
as ``dsl`` writes them and hands out each chain's input after the split and
the branch restriction, the normalized target and each arm's auxiliary
photon; per chain of arms and its auxiliary and input ids, the whole round
as one generated function (``_slots``, ``_kernel``, compiled afresh under
another coupler matrix) that forms the products, sums each slot (an output
id: product amplitudes times the coefficients of the couplers, herald and
flips), weighs each click signature, merges the wins and checks and
rescales the recycle continuation as straight-line code on locals; per
round's win and target ids, one generated scorer (``_scoring``) that pairs
the wins and scores them against the target.  Each is built on first
touch.  A point computes only amplitudes and its coupler pairs
``(sqrt(1-t), sqrt(t))``; a recycling plan whose couplers read a bare
planned parameter takes them from the log-odds
(``params.vbs_pair_schedule``), free of the cancellation in 1 - t.

No computed value is dropped: the prologue drops only exactly zero photon
amplitudes, a round keeps every slot, and a signature counts where it
weighs more than 0.  Nor does the compile step prune: it keeps every
coefficient of the unit products it maps.  A round whose probability
is 0 (it underflows, or its detectors have efficiency 0) cannot succeed: it
reports p 0 and fidelity null.

Amplitudes are floats wherever they are real, so a point at real parameters
runs in float arithmetic; a complex parameter or coupler phase runs the same
functions in complex arithmetic, with the same real parts.

States stay unnormalized throughout; squared norms are absolute
probabilities, written as products (``m * m``, never ``** 2``, whose
platform ``pow`` is not correctly rounded everywhere).  Recycling rounds
send the auxiliary photon through its coupler at the transmittance of the
doubling schedule and continue on the corrected residual; the distinct
recycle click patterns must agree after correction (checked on the
normalized states, at any scale; miswired flips are a ``TopologyError``)
so the rounds form a single chain rather than a branching tree.  A round
whose input and coupler pairs equal the previous round's repeats its result.
"""

from __future__ import annotations

import cmath  # noqa: F401
import functools
import itertools
import math

from .circuits import Arm, Layout, TopologyError, builtin_doc, layout  # TopologyError re-exported
from .dsl import (
    BindingError,  # raised by the generated photon code, as ParameterError and cmath are read there
    CircuitDoc,
    SourceDecl,
    compiled,
    emit_expr,
    evaluate_real,
    expr_variables,
    parse_expr,
)
from .elements import PortContractError, bs_matrix, bs_rules, merge_terms, split_terms, vbs_pair, vbs_ports
from .fock import (
    PHOTON_CAP,
    RECYCLE_AGREEMENT_TOL,
    DegenerateStateError,
    ModeCollisionError,
    PatternTable,
    PhotonBudgetError,
    PolarizationMixtureError,
    make_pattern,
    mode,
    pattern_count,
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
from .params import EntanglementParams, ParameterError, PolarizationParams, vbs_pair_schedule, vbs_schedule
from .record import Record
from .report import EngineInfo, ProtocolReport, RoundResult, comparison_entry

MAX_ROUNDS = 100_000  # deepest recycling chain a run may ask for


class ConfigError(ValueError):
    """Run configuration inconsistent with the circuit (rounds, couplers)."""


class Plan(Layout):
    """A recognized layout, the parameters its couplers read (``coupler_reads``) and its couplers and
    sources read (``reads``), the ``PatternTable`` its runs share, and what its runs compile on that
    table's ids, each built on first touch: ``prologues`` by point kind, ``chains`` by arm labels
    (the coupler matrix compiled at, {auxiliary ids: {input ids: round function}}) and ``scorers``
    by win and target ids."""

    def __init__(self, coupler_reads: set[str], reads: set[str], **layout):
        super().__init__(**layout)
        self.coupler_reads, self.reads, self.table = coupler_reads, reads, PatternTable()
        self.prologues, self.chains, self.scorers = {}, {}, {}


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

def _real(x):
    """``x`` as a float where its imaginary part is zero."""
    return x if x.imag else x.real


def _target(terms: dict) -> tuple:
    """``(ids, amplitudes, squared norm)`` of the photon ``terms`` (a unit norm's within
    ``NORM_TOL``, as ``PolarizationParams`` holds it) normalized."""
    scale = 1.0 / math.sqrt(terms_norm_sq(terms))
    target = {p: a * scale for p, a in terms.items()}
    return tuple(target), list(target.values()), terms_norm_sq(target)


def _prologue(plan: Plan, pol: PolarizationParams | None):
    """``prologue(b) -> (signal, branches, target, auxes)``: a point's photons at the bindings
    ``b``, generated once per plan and point kind (with or without ``pol``).  Each photon's
    amplitudes are evaluated as ``dsl`` writes them (``emit_expr``), in source order, then summed
    per id from 0j, dropped where the sum is exactly zero and handed out as floats where its
    imaginary part is zero.  The target (per output a V photon, or with ``pol`` ``gamma`` H and
    ``delta`` V) is normalized by ``_target``; the signal's ids go through the split
    (``split_terms``, a relabel) into the joint chain's input and,
    per arm, the branch input of the ids holding no photon in another arm's signal mode; each
    arm's auxiliary photon is its ids' (reflected, transmitted) ids and amplitudes.  An amplitude
    that cannot be evaluated raises its ``BindingError`` or ``ParameterError`` from the call,
    before any chain runs."""
    tab, prologues = plan.table, plan.prologues
    kind = "V" if pol is None else "HV"
    if kind in prologues:
        return prologues[kind]
    code, consts, loaded = [], {}, {}

    def const(value) -> str:
        consts[name := f"k{len(consts)}"] = value
        return name

    def photon(sources: list) -> list:
        """Lines evaluating each source's amplitude, then each id's sum: ``[(id, sum)]``, first
        seen first."""
        groups: dict[int, list[str]] = {}
        for s in sources:
            amp = emit_expr(parse_expr(s.amp), s.amp, code, consts, loaded)
            groups.setdefault(tab.intern(((mode(s.mode, s.pol), 1),)), []).append(amp)
        for p, amps in groups.items():
            total = f"0j + {amps[0]}" if len(amps) == 1 else f"sum(({', '.join(amps)}), 0j)"
            code.append(f"s{len(code)} = {total}")
            groups[p] = f"s{len(code) - 1}"
        return list(groups.items())

    def real(s: str) -> str:
        return f"({s} if {s}.imag else {s}.real)"

    amps = {"V": "1"} if pol is None else {"H": "gamma", "V": "delta"}
    terms = photon([SourceDecl(m, p, amps[p]) for m in plan.outputs for p in kind])
    code.append("t = {}")
    for p, s in terms:
        code.append(f"if {s}: t[{const(p)}] = {real(s)}")
    code.append("target = _target(t)")
    signal = photon(plan.signal_sources)
    moved = {p: p for p, _ in signal}  # each id's id after the split, a one-to-one relabel
    if (split := plan.split) is not None:
        moved = dict(zip(moved, split_terms(tab, dict.fromkeys(moved), split.inp, split.out_h, split.out_v)))
    branches = {}  # the ids of each arm's input that is not the whole signal
    for i, arm in enumerate(plan.arms):
        ids = {q for q in moved.values() if not any(
            pattern_count(tab.patterns[q], a.signal_mode) for a in plan.arms if a is not arm)}
        branches.update({f"branch{i}": ids} if len(ids) < len(moved) else {})
    code.append(f"signal, {''.join(f'{b}, ' for b in branches)}= {'{}, ' * (len(branches) + 1)}")
    for p, s in signal:
        inputs = ["signal", *[b for b in branches if moved[p] in branches[b]]]
        code += [f"if {s}:", f"    x = {real(s)}", *[f"    {name}[{const(moved[p])}] = x" for name in inputs]]
    for i, arm in enumerate(plan.arms):
        code.append("xs, amps = (), []")
        for p, s in photon(arm.aux_sources):
            [((_, hv), _)] = tab.patterns[p]
            outputs = tuple(tab.intern((((m, hv), 1),)) for m in (arm.vbs.reflect, arm.vbs.transmit))
            code += [f"if {s}:",
                     f"    xs += {const(outputs)}",
                     f"    amps.append({real(s)})"]
        code.append(f"aux{i} = xs, amps")
    arms = range(len(plan.arms))
    by_arm = "".join(f"{f'branch{i}' if f'branch{i}' in branches else 'signal'}, " for i in arms)
    code.append(f"return signal, ({by_arm}), target, ({''.join(f'aux{i}, ' for i in arms)})")
    prologues[kind] = compiled("b", code, consts, "<photons>", globals())
    return prologues[kind]


def _aligned(first: list, second: list) -> tuple:
    """``terms_inner(first, second)``'s products for states listed as ``(name, id)``: the
    names of the shared ids, the conjugated factor's first, in the order it takes them."""
    x, y = (second, first) if len(first) > len(second) else (first, second)
    at = dict(map(reversed, y))
    shared = [(i, at[q]) for i, q in x if q in at]
    return tuple(i for i, _ in shared), tuple(j for _, j in shared)


# ---------------------------------------------------------------------------
# recycling chain

def _outputs(tab: PatternTable, key: tuple[int, ...], qnds: list, routes: list) -> tuple:
    """``(route, outputs)`` of input id ``key[0]`` with auxiliary photon ids ``key[1:]``: their
    product's nondemolition route (0 heralds, 1 recycles, None neither) and the route's side
    (``routes[route]``: coupler rules, detector groups, flips) on the unit product,
    ``(signature, output id, residual id, flipped coefficient)`` per success output."""
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
    route = 0 if cs <= {1} else 1 if cs <= {0} and len(routes) == 2 else None
    if route is None:
        return None, []
    rules, groups, flips = routes[route]
    terms = {pid: 1.0}
    for r in rules:
        terms = tab.transform(terms, r)
    outs = []
    for p, c in terms.items():
        for sig, _, success, corr, [(q, _)] in herald_terms(tab, {p: c}, groups, flips):
            if success:
                odd = sum(pattern_count(tab.patterns[q], m) for m in corr) % 2
                outs.append((sig, p, q, -c if odd else c))
    return route, outs


def _slots(plan: Plan, arms: list[Arm], shape: tuple) -> tuple:
    """``(products, slots, sides)`` of a round of ``arms`` of product ``shape`` (input ids, then
    per arm its auxiliary output ids), products input-major: slot s (an output id) sums its
    ``(product index, coefficient)`` pairs ``slots[s]``; the slots run by side, signature (sorted)
    and first touch, ``sides`` listing each signature and its residual ids.  Each side (heralding,
    then recycling where every arm recycles) takes its couplers' rules at the matrix in force
    (``bs_rules``), its detector groups and flips from the arms, whose variable-coupler ports are
    checked here."""
    for a in arms:
        vbs_ports(a.vbs.inp, a.vbs.reflect, a.vbs.transmit)
    wiring = [[(a.success_bs, a.success_group, a.flips) for a in arms]]
    if all(a.recycle_bs for a in arms):
        wiring.append([(a.recycle_bs, a.recycle_group, a.recycle_flips) for a in arms])
    routes = [([bs_rules(bs.in1, bs.in2, bs.out1, bs.out2) for bs, _, _ in side], [g for _, g, _ in side],
               {d: m for _, _, f in side for d, m in f.items()}) for side in wiring]
    qnds = [(a.qnd.a, a.qnd.b) for a in arms if a.qnd is not None]
    products = [(w,) for w in shape[0]]
    for xs in shape[1:]:
        products = [k + (x,) for k in products for x in xs]
    slots: dict[tuple, list] = {}  # (route, signature, output id, residual id) -> [(product index, coefficient)]
    for i, key in enumerate(products):
        route, outs = _outputs(plan.table, key, qnds, routes)
        for sig, p, q, c in outs:
            slots.setdefault((route, sig, p, q), []).append((i, c))
    order = sorted(slots, key=lambda slot: slot[:2])
    sides: tuple[list, list] = ([], [])
    for (route, sig), run in itertools.groupby(order, key=lambda slot: slot[:2]):
        sides[route].append((sig, tuple(q for *_, q in run)))
    return len(products), tuple(tuple(slots[slot]) for slot in order), tuple(map(tuple, sides))


class _ChainRound(Record):
    """``wins``: each corrected heralded state's ids through the merge (None where it raises);
    ``amps``: their amplitudes, one state after the other; ``recycle_next``: the next round's input,
    by pattern id; ``error``: (type, message) of the first win's merge error, or None."""

    __slots__ = ("p_success", "p_recycle", "wins", "amps", "recycle_next", "error")

    def __init__(self, p_success: float, p_recycle: float, wins: tuple, amps: list, recycle_next: dict, error):
        self.p_success, self.p_recycle, self.wins, self.amps, self.recycle_next, self.error = (
            p_success, p_recycle, wins, amps, recycle_next, error)


def _kernel(plan: Plan, program: tuple, inputs: int, counts: tuple):
    """``kernel(v, factor, a, c) -> _ChainRound``: the round of slot ``program`` ``(products,
    slots, sides)``, written out as straight-line Python and compiled.  It forms the products
    (``_products``) from ``v``, the ``inputs`` input amplitudes, ``a`` and ``c``, the auxiliary
    amplitudes (``counts`` per arm) and coupler pairs; with no arm the products are the input
    amplitudes.  Slot s is ``0.0 + p*c + ...`` in the order of ``slots[s]``.  Each signature
    weighs its squares; one that weighs more than 0 raises if two of its slots share a residual id
    (a mixture), else a win adds ``weight * factor`` and its state, its ids merged by the plan's
    merge (``merge_terms``), or keeps the merge's ``(type, message)``; the first recycle signature that
    weighs more than 0, once each later one agrees with it after correction (``_aligned``), is
    rescaled to their summed weight: the next round's input.  No value is dropped.  Coefficients,
    scales and ids are bound by name, a coefficient or scale as a float where its imaginary part
    is zero."""
    _, slots, sides = program
    tab, merge = plan.table, plan.merge
    ports = () if merge is None else (merge.in_h, merge.in_v, merge.out)
    consts = {"AGREE": 1.0 - RECYCLE_AGREEMENT_TOL}

    def const(value) -> str:
        consts[name := f"k{len(consts)}"] = value
        return name

    code = _products(inputs, counts)
    for s, terms in enumerate(slots):
        code += [f"s{s} = 0.0{''.join(f' + p{i} * {const(_real(c))}' for i, c in terms)}", f"m{s} = abs(s{s})"]
    slot = itertools.count()  # the slots run side by side, signature by signature
    code.append("p_win, wins, amps, error = 0.0, [], [], None")
    for sig, qs in sides[0]:
        run = [(next(slot), q) for q in qs]  # the signature's (slot, residual id) pairs
        w, ids = f"w{run[0][0]}", tuple(qs)
        code += [f"{w} = {' + '.join(f'm{s} * m{s}' for s, _ in run)}", f"if {w} > 0.0:"]
        if len(set(ids)) < len(ids):
            code.append(f"    raise _mixture({const(sig)})")
            continue
        code.append(f"    p_win += {w} * factor")
        try:  # the merge relabels the ids one to one and leaves the amplitudes as they are
            merged = tuple(merge_terms(tab, dict.fromkeys(ids), *ports)) if ports else ids
        except (PortContractError, ModeCollisionError) as exc:  # raised where every chain of the round has a win
            code += [f"    error = error or {const((type(exc), str(exc)))}", "    wins.append(None)"]
            continue
        code += [f"    wins.append({const(merged)})", f"    amps += ({''.join(f's{s}, ' for s, _ in run)})"]
    again = []  # each recycle signature that can continue: its weight's name and slots
    for sig, qs in sides[1]:
        run = [(next(slot), q) for q in qs]
        r = f"r{run[0][0]}"
        code.append(f"{r} = {' + '.join(f'm{s} * m{s}' for s, _ in run)}")
        if len(set(qs)) < len(qs):
            code.append(f"if {r} > 0.0: raise _mixture({const(sig)})")
        else:
            again.append((r, run))
    for i, (r, run) in enumerate(again):  # the first that weighs more than 0 continues
        code += [f"{'elif' if i else 'if'} {r} > 0.0:", f"    p_rec = 0.0 + {r}"]
        for other, other_run in again[i + 1:]:
            firsts, seconds = _aligned(run, other_run)
            code += [f"    if {other} > 0.0:",
                     f"        p_rec += {other}",
                     f"        inner = 0.0{''.join(f' + s{a}.conjugate() * s{b}' for a, b in zip(firsts, seconds))}",
                     f"        x = abs(inner) / math.sqrt({r}) / math.sqrt({other})",
                     "        if x * x < AGREE:",
                     "            raise TopologyError(_DISAGREE)"]
        code += [f"    scale = math.sqrt(p_rec / {r})",
                 f"    nxt = {{{', '.join(f'{const(q)}: s{s} * scale' for s, q in run)}}}"]
    code += ["else:", "    p_rec, nxt = 0.0, {}"] if again else ["p_rec, nxt = 0.0, {}"]
    code.append("return _ChainRound(p_win, p_rec, tuple(wins), amps, nxt, error)")
    return compiled("v, factor, a, c", code, consts, "<round kernel>", globals())


def _products(inputs: int, counts: tuple) -> list:
    """Lines that form a round's products ``p0, p1, ...`` from ``v`` (the ``inputs`` input
    amplitudes), ``a`` (every arm's auxiliary amplitudes, ``counts`` per arm) and ``c`` (each
    arm's coupler pair ``(sqrt(1-t), sqrt(t))``): per arm its factors ``aux * r`` and ``aux * s``,
    then the products input-major, ``(v * f1) * f2``."""
    level = [f"{'v' if counts else 'p'}{i}" for i in range(inputs)]
    code = [f"{''.join(f'{x}, ' for x in level)}= v"] if level else []
    code += [f"{''.join(f'a{j}, ' for j in range(sum(counts)))}= a"] if sum(counts) else []
    code += [f"{''.join(f'(r{i}, s{i}), ' for i in range(len(counts)))}= c"] if counts else []
    at = 0
    for i, n in enumerate(counts):
        fs = [f"f{x}" for x in range(2 * at, 2 * (at + n))]
        code += [f"{f} = a{at + j // 2} * {'rs'[j % 2]}{i}" for j, f in enumerate(fs)]
        at += n
        names = [f"p{x}" if i == len(counts) - 1 else f"q{i}_{x}" for x in range(len(level) * len(fs))]
        code += [f"{x} = {u} * {f}" for x, (u, f) in zip(names, itertools.product(level, fs))]
        level = names
    return code


_DISAGREE = ("recycle click patterns disagree after correction; "
             "feed-forward rules are inconsistent with the coupler convention")


def _mixture(sig: tuple) -> PolarizationMixtureError:
    return PolarizationMixtureError(f"click signature {' '.join(f'{d}:{n}' for d, n in sig)}: {MIXTURE}")


def _run_chain(plan: Plan, arms: list[Arm], current: dict[int, complex], pairs, auxes: list,
               model: DetectorModel) -> list[_ChainRound]:
    """Run every round of the chain of ``arms`` on the input ``current`` (by id).

    Each round attaches every arm's auxiliary photon (``auxes``, from the point's prologue) at
    the arm's coupler pair ``(sqrt(1-t), sqrt(t))`` for the round (``pairs``, per round one per
    arm), then splits by the nondemolition comparisons of the arms that have one: class 1 on all
    of them goes on to the heralding couplers, class 0 on all of them to the recycling couplers.
    Success needs every arm's group to click at once, and the heralded state then goes through
    the merge; the combined recycle continuation is the next round's input.  The round runs in
    the chain's round function of its auxiliary and input ids, generated (``_slots``,
    ``_kernel``) on first touch and kept in ``plan.chains``, whose entry starts afresh under
    another coupler matrix.  A round whose input and coupler pairs equal the previous round's
    repeats that round's result.
    """
    factor = detection_factor([a.success_group for a in arms], model)
    labels, matrix = tuple([a.label for a in arms]), bs_matrix()
    chain = plan.chains.get(labels)
    if chain is None or chain[0] != matrix:
        chain = plan.chains[labels] = (matrix, {})
    xs = tuple([xs for xs, _ in auxes])
    kernels = chain[1].get(xs) or chain[1].setdefault(xs, {})
    amps = [a for _, aux in auxes for a in aux]
    results: list[_ChainRound] = []
    last = before = None
    for c in pairs:
        if c == before and current == last:  # a fixed point: the same round again
            results.append(results[-1])
            continue
        last, before = current, c
        kernel = kernels.get(ids := tuple(current))
        if kernel is None:
            program = _slots(plan, arms, (ids, *xs))
            kernel = kernels[ids] = _kernel(plan, program, len(ids), tuple(len(a) for _, a in auxes))
        results.append(result := kernel(list(current.values()), factor, amps, c))
        current = result.recycle_next
    return results


def _scoring(key: tuple):
    """``scorer(target, tnorm, a, b) -> worst fidelity``, written out as straight-line Python and
    compiled, of a round whose chains' wins hold the ids ``key[:-1]`` (amplitudes ``a`` and, with
    two chains, ``b``) against the target ids ``key[-1]``.  With one chain its wins are the states;
    with two every plus win is paired with every minus one, plus ids first, shared ids averaged as
    ``0.5 * (plus + minus)`` (both arms carry the signal-at-home component, counted once).  A
    state's norm is ``math.hypot`` of its moduli (no square underflows), an exactly zero one
    raises, and its fidelity is ``(|0.0 + conj(x) * y + ...| / norm)^2 / tnorm`` over the ids it
    shares with the target (``_aligned``), normalized before it is squared, so a round whose p is
    subnormal still scores its state; the worst, at most 1.0, is returned."""
    *books, tids = key
    code, wins = [], []  # per chain, each win's (value name, id) pairs
    for c, book in enumerate(books):
        names = iter(f"{'ab'[c]}{n}" for n in itertools.count())
        wins.append([[(next(names), q) for q in ids] for ids in book])
        flat = [x for win in wins[-1] for x, _ in win]
        code += [f"{''.join(f'{x}, ' for x in flat)}= {'ab'[c]}"] if flat else []
    states = wins[0]
    if len(books) == 2:
        states, values = [], itertools.count()
        for plus in wins[0]:
            for minus in wins[1]:
                pair = {q: x for x, q in plus}
                for y, q in minus:
                    pair[q] = f"0.5 * ({pair[q]} + {y})" if q in pair else y
                states.append([(f"x{next(values)}", q) for q in pair])
                code += [f"{x} = {pair[q]}" for x, q in states[-1]]
    targets = [(f"t{n}", q) for n, q in enumerate(tids)]
    code += [f"{''.join(f'{x}, ' for x, _ in targets)}= t"] if targets else []
    norms = [f"n{s}" for s in range(len(states))]
    code += [f"n{s} = math.hypot({', '.join(f'abs({x})' for x, _ in state)})" for s, state in enumerate(states)]
    least = norms[0] if len(norms) == 1 else f"min({', '.join(norms)})"
    code += [f"if not {least}:", "    raise DegenerateStateError('fidelity of a zero state is undefined')"]
    for s, state in enumerate(states):
        firsts, seconds = _aligned(state, targets)
        code.append(f"f{s} = abs(0.0{''.join(f' + {x}.conjugate() * {y}' for x, y in zip(firsts, seconds))}) / n{s}")
    code.append(f"return min(min([{', '.join(f'f{s} * f{s} / tnorm' for s in range(len(states)))}]), 1.0)")
    return compiled("t, tnorm, a, b", code, {}, "<round scorer>", globals())


def _rounds(plan: Plan, ts: list[float], chains: list[list[_ChainRound]], target: tuple) -> list[RoundResult]:
    """Round results summed over ``chains`` (one or two).  A distinct round whose summed
    ``p_success`` is above 0 raises its merge error, if any, and its fidelity is the worst of its
    wins' against ``target``, ``(ids, amplitudes, squared norm)``, by the scorer of its win and
    target ids (``_scoring``), generated on first touch and kept in ``plan.scorers``: the wins of
    two chains paired where both herald, else those of the one that does, scored alone as a
    one-chain round's.  Any other round cannot succeed, and its fidelity is null."""
    tids, tamps, tnorm = target
    rounds, last, other, one = [], None, None, len(chains) == 1
    for k, (t, first, second) in enumerate(zip(ts, chains[0], chains[-1]), 1):
        if first is not last or second is not other:  # not a repeated round
            last, other, fid = first, second, None
            # sum() of one or two probabilities, none of them -0.0
            p_success = first.p_success if one else first.p_success + second.p_success
            p_recycle = first.p_recycle if one else first.p_recycle + second.p_recycle
            if p_success > 0.0 and (first.wins or second.wins):
                if error := first.error or second.error:
                    raise error[0](error[1])
                if not (first.wins and second.wins):  # one of two chains heralds: its wins are scored alone
                    first = second = first if first.wins else second
                key = (first.wins, tids) if first is second else (first.wins, second.wins, tids)
                scorer = plan.scorers.get(key) or plan.scorers.setdefault(key, _scoring(key))
                fid = scorer(tamps, tnorm, first.amps, second.amps)
        rounds.append(RoundResult(k, t, p_success, p_recycle, fid))
    return rounds


# ---------------------------------------------------------------------------
# entry points

def execute(
    doc: CircuitDoc,
    ent: EntanglementParams,
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

    signal, branches, target, auxes = _prologue(plan, pol)(bindings)
    # each round's coupler pairs: a recycling plan's bare planned parameter takes them from the
    # log-odds, free of the cancellation in 1 - t; any other coupler from its transmittance
    odds = vbs_pair_schedule(ent, rounds) if plan.has_recycling else None
    pairs = {arm.label: odds if odds and arm.planned is not None else list(map(vbs_pair, schedule[arm.label]))
             for arm in plan.arms}
    if accounting == "branch":
        # each arm acts only on the component where the signal is not in the other arm
        chains = [_run_chain(plan, [arm], inp, zip(pairs[arm.label]), [aux], model)
                  for arm, inp, aux in zip(plan.arms, branches, auxes)]
        eta_exponent = 1
    else:
        chains = [_run_chain(plan, plan.arms, signal, zip(*[pairs[arm.label] for arm in plan.arms]), auxes, model)]
        eta_exponent = len(plan.arms)
    round_results = _rounds(plan, schedule["plus"], chains, target)

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
    report.paper_comparison = _comparison(plan, report, pol, chains, model)
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
    empty on a one-arm layout).  A coupler that reads one of them bare takes the planned list,
    as floats (``evaluate_real`` gives ``float(t)``), already checked to lie in [0, 1]."""
    eff: dict[str, list[float]] = {"plus": [], "minus": []}
    arms = []  # the couplers whose expressions are evaluated round by round
    for arm in plan.arms:
        if arm.planned is None:
            arms.append(arm)
        else:
            eff[arm.label] = list(map(float, (ts_plus, ts_minus)[arm.planned]))
    round_bindings = dict(bindings)
    for k, (plus, minus) in enumerate(zip(ts_plus, ts_minus) if arms else ()):
        if k and plus == ts_plus[k - 1] and minus == ts_minus[k - 1]:
            for arm in arms:  # the same bindings give the same values
                eff[arm.label].append(eff[arm.label][-1])
            continue
        round_bindings.update(t1=plus, t2=minus, t_plus=plus, t_minus=minus)
        for arm in arms:
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
    model: DetectorModel,
) -> dict[str, dict[str, float]]:
    """The published closed forms against the simulated values.  Two facts decide the entries: a
    one-arm ecp2 run without polarization is scored only against its round series, and a
    two-arm polarized branch run adds the per-arm entries of its protocol (one chain per arm).
    Each paper value takes the detection factor the run applied: a per-arm entry its arm's, any
    other the product over the arms under joint accounting, else the arms' one factor; a branch
    run whose arms' factors differ has no such entry."""
    out: dict[str, dict[str, float]] = {}
    if report.protocol == "custom":
        return out
    a2 = report.alpha_sq
    factors = [detection_factor([a.success_group], model) for a in plan.arms]
    if report.accounting == "joint":
        factor = detection_factor([a.success_group for a in plan.arms], model)
    else:
        factor = factors[0] if len(set(factors)) == 1 else None
    ecp2 = report.protocol == "ecp2"
    if ecp2 and pol is None and len(plan.arms) == 1:
        series = round_success_series(a2, factor, len(report.rounds))
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
        for (name, claimed), arm_factor, chain in zip(arms.items(), factors, chains):
            out[name] = comparison_entry(claimed * arm_factor, chain[0].p_success)
        if not ecp2 and factor is not None:
            out["claimed_branch_sum"] = comparison_entry(3.0 * a2 * (1.0 - a2) * factor, report.p_total)
    if factor is None:
        return out
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
