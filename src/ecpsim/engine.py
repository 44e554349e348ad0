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
gamma, t or a result): per point kind (with or without polarization) one
generated prologue (``_prologue``) that evaluates every photon's amplitude
expressions as ``dsl`` writes them and hands out each chain's input after
the split and the branch restriction, the normalized target and each arm's
auxiliary photon; per chain of arms, bound once per coupler matrix
(``_bound``), its coupler rules, detector groups, flips and round tables;
per round shape (input ids,
auxiliary photon ids, surviving products) one slot program, kept beside
the coupler rules it bakes in, each slot summing product amplitudes times
the coefficients of the couplers, herald and flips; inside it, per set of
surviving slots, the whole round as one generated function (``_kernel``)
that sums the slots, weighs each click signature, merges the wins and
checks and rescales the recycle continuation as straight-line code on
locals.  Where every product survives, the function first forms the
products from the input, auxiliary and coupler amplitudes, and is kept per
chain by input ids and which auxiliary factors survive; a pruned product
hands the round to the masked path (``_masked``).  Per round's win ids, one
generated scorer (``_scoring``) pairs the wins, prunes, and scores them
against the target.  A point computes only amplitudes and its coupler
pairs ``(sqrt(1-t), sqrt(t))``, with the prunes, summation order and errors
of the dict path these replace.

Amplitudes are floats wherever they are real, so a point at real parameters
runs in float arithmetic; a complex parameter or coupler phase runs the same
functions in complex arithmetic, with the same real parts.

States stay unnormalized throughout; squared norms are absolute
probabilities.  Recycling rounds send the auxiliary photon through its
coupler at the transmittance of the doubling schedule and continue on the
corrected residual; the distinct recycle click patterns must agree after
correction (an internal invariant, checked) so the rounds form a single
chain rather than a branching tree.  A round whose input and coupler
pairs equal the previous round's repeats its result.
"""

from __future__ import annotations

import cmath  # noqa: F401
import functools
import itertools
import math
from dataclasses import dataclass, field

from .circuits import Arm, Layout, TopologyError, builtin_doc, layout  # TopologyError re-exported
from .dsl import (
    BindingError,  # raised by the generated photon code, as ParameterError and cmath are read there
    CircuitDoc,
    PbsMergeDecl,
    SourceDecl,
    compiled,
    emit_expr,
    evaluate_real,
    expr_variables,
    parse_expr,
)
from .elements import PortContractError, bs_matrix, bs_rules, merge_relabels, split_terms, vbs_pair, vbs_ports
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
from .params import EntanglementParams, ParameterError, PolarizationParams, vbs_schedule
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
    planned: tuple = field(kw_only=True)  # per arm, 0 where its t is t1/t_plus, 1 where t2/t_minus, else None
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
    planned = tuple(_PLANNED.get(node[1]) if (node := parse_expr(arm.vbs.t))[0] == "var" else None
                    for arm in lay.arms)
    return Plan(**vars(lay), coupler_reads=couplers, reads=couplers | sources, planned=planned)


_PLANNED = {"t1": 0, "t_plus": 0, "t2": 1, "t_minus": 1}  # which planned schedule a parameter is


# ---------------------------------------------------------------------------
# states on the plan's pattern ids

def _real(x):
    """``x`` as a float where its imaginary part is zero."""
    return x if x.imag else x.real


def _target(terms: dict) -> tuple:
    """``(ids, amplitudes, squared norm)`` of the pruned photon ``terms`` normalized, then pruned."""
    n2 = terms_norm_sq(terms)
    if n2 <= NORM_TOL * NORM_TOL:
        raise DegenerateStateError("cannot normalize a (near-)zero state")
    target = prune({p: a * (1.0 / math.sqrt(n2)) for p, a in terms.items()})
    return tuple(target), list(target.values()), terms_norm_sq(target)


def _prologue(plan: Plan, pol: PolarizationParams | None):
    """``prologue(b) -> (signal, branches, target, auxes)``: a point's photons at the bindings
    ``b``, generated once per plan and point kind (with or without ``pol``).  Each photon's
    amplitudes are evaluated as ``dsl`` writes them (``emit_expr``), in source order, then summed
    per id from 0j, pruned and handed out as floats where the sum's imaginary part is zero.  The
    target (per output a V photon, or with ``pol`` ``gamma`` H and ``delta`` V) is normalized by
    ``_target``; the signal goes through the split (a relabel) into the joint chain's input and,
    per arm, the branch input of the ids holding no photon in another arm's signal mode; each
    arm's auxiliary photon is its ids' (reflected, transmitted) ids and amplitudes, or the error
    evaluating it raised, which the arm's chain raises where it reads the photon."""
    tab, points = plan.table, plan.table.stage("point")
    kind = "V" if pol is None else "HV"
    if kind in points:
        return points[kind]
    code, consts, loaded = [], {}, {}

    def const(value) -> str:
        consts[name := f"k{len(consts)}"] = value
        return name

    def photon(sources: list, loaded: dict) -> list:
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
    terms = photon([SourceDecl(m, p, amps[p]) for m in plan.outputs for p in kind], loaded)
    code.append("t = {}")
    for p, s in terms:
        code.append(f"if abs({s}) >= PRUNE_EPS: t[{const(p)}] = {real(s)}")
    code.append("target = _target(t)")
    signal = photon(plan.signal_sources, loaded)
    moved = {p: (p, 1.0, 1.0) for p, _ in signal}  # each id's (new id, scale, divisor) through the split
    if (split := plan.split) is not None:
        split_terms(tab, dict.fromkeys(moved, 1.0), split.inp, split.out_h, split.out_v)
        moved = {p: tab.stage("pbs split", split.inp, split.out_h, split.out_v)[p] for p in moved}
    branches = {}  # the ids of each arm's input that is not the whole signal
    for i, arm in enumerate(plan.arms):
        ids = {q for q, *_ in moved.values() if not any(
            pattern_count(tab.patterns[q], a.signal_mode) for a in plan.arms if a is not arm)}
        branches.update({f"branch{i}": ids} if len(ids) < len(moved) else {})
    code.append(f"signal, {''.join(f'{b}, ' for b in branches)}= {'{}, ' * (len(branches) + 1)}")
    for p, s in signal:
        q, scale, divisor = moved[p]
        inputs = ["signal", *[b for b in branches if q in branches[b]]]
        stores = [f"{name}[{const(q)}] = x" for name in inputs]
        code += [f"if abs({s}) >= PRUNE_EPS:", f"    x = {real(s)}"]
        if split is not None:
            code += [f"    x = x * {const(scale)} / {const(divisor)}", "    if abs(x) >= PRUNE_EPS:"]
            stores = [f"    {line}" for line in stores]
        code += [f"    {line}" for line in stores]
    for i, arm in enumerate(plan.arms):
        code.append("try:")
        start, terms = len(code), photon(arm.aux_sources, dict(loaded))
        code.append("xs, amps = (), []")
        for p, s in terms:
            [((_, hv), _)] = tab.patterns[p]
            outputs = tuple(tab.intern((((m, hv), 1),)) for m in (arm.vbs.reflect, arm.vbs.transmit))
            code += [f"if abs({s}) >= PRUNE_EPS:",
                     f"    xs += {const(outputs)}",
                     f"    amps.append({real(s)})"]
        code.append(f"aux{i} = xs, amps")
        code[start:] = [f"    {line}" for line in code[start:]]
        # raised where the arm's chain reads the photon
        code += ["except (BindingError, ParameterError) as exc:", f"    aux{i} = exc"]
    arms = range(len(plan.arms))
    by_arm = "".join(f"{f'branch{i}' if f'branch{i}' in branches else 'signal'}, " for i in arms)
    code.append(f"return signal, ({by_arm}), target, ({''.join(f'aux{i}, ' for i in arms)})")
    points[kind] = compiled("b", code, consts, "<photons>", globals())
    return points[kind]


def _survivors(amps: list) -> tuple:
    """``(alive, kept)``: which of ``amps`` the prune keeps (None for all of them) and those."""
    if not amps or min(map(abs, amps)) >= PRUNE_EPS:
        return None, amps
    alive = tuple([abs(a) >= PRUNE_EPS for a in amps])
    return alive, list(itertools.compress(amps, alive))


def _kept(names: list, pruned: list = ()) -> str:
    """Source of ``_survivors``' test that every one of ``names`` survives the prune and none of
    ``pruned`` does (one of the two lists not empty)."""
    def magnitude(extreme: str, xs: list) -> str:
        return f"{extreme}({', '.join(f'abs({x})' for x in xs)})" if len(xs) > 1 else f"abs({xs[0]})"
    below = [f"{magnitude('max', pruned)} <"] if pruned else []
    return " ".join([*below, "PRUNE_EPS", *([f"<= {magnitude('min', names)}"] if names else [])])


def _aligned(first: list, second: list) -> tuple:
    """``terms_inner(first, second)``'s products for states listed as ``(name, id)``: the
    names of the shared ids, the conjugated factor's first, in the order it takes them."""
    x, y = (second, first) if len(first) > len(second) else (first, second)
    at = dict(map(reversed, y))
    shared = [(i, at[q]) for i, q in x if q in at]
    return tuple(i for i, _ in shared), tuple(j for _, j in shared)


# ---------------------------------------------------------------------------
# recycling chain

class _Chain:
    """A chain of arms as its points run it, bound once per plan, arm labels and coupler matrix:
    the balanced-coupler ``matrix`` its ``rules`` (per side, its couplers' rules) are at, per side
    its detector groups and flips (``setup``), the nondemolition pairs (``qnds``), the merge's
    ``ports`` (() without one), the round ``programs`` by shape and, per auxiliary output ids, the
    round functions that form the products, by input ids (``formed``).  A plain class: building a
    dataclass costs every fresh interpreter about a millisecond."""

    __slots__ = ("matrix", "rules", "setup", "qnds", "ports", "programs", "formed")

    def __init__(self, matrix: tuple, rules: tuple, setup: list, qnds: list, ports: tuple, programs: dict):
        self.matrix, self.rules, self.setup, self.qnds, self.ports = matrix, rules, setup, qnds, ports
        self.programs, self.formed = programs, {}


def _bound(tab: PatternTable, arms: list[Arm], merge: PbsMergeDecl | None, matrix: tuple) -> _Chain:
    """The chain of ``arms``, bound once per arm labels and rebuilt under another coupler
    ``matrix`` (each variable coupler's ports checked then): per side (heralding, then recycling
    where every arm recycles) its couplers' rules, detector groups and flips; the nondemolition
    pairs; the merge's ports; and the tables of round programs and functions."""
    labels = tuple([a.label for a in arms])
    chain = (chains := tab.stage("chain")).get(labels)
    if chain is None or chain.matrix != matrix:
        for a in arms:
            vbs_ports(a.vbs.inp, a.vbs.reflect, a.vbs.transmit)
        sides = [[(a.success_bs, a.success_group, a.flips) for a in arms]]
        if all(a.recycle_bs for a in arms):
            sides.append([(a.recycle_bs, a.recycle_group, a.recycle_flips) for a in arms])
        rules = tuple(tuple(bs_rules(bs.in1, bs.in2, bs.out1, bs.out2) for bs, _, _ in side) for side in sides)
        setup = [([g for _, g, _ in side], {d: m for _, _, f in side for d, m in f.items()}) for side in sides]
        ports = () if merge is None else (merge.in_h, merge.in_v, merge.out)
        qnds = [(a.qnd.a, a.qnd.b) for a in arms if a.qnd is not None]
        chain = chains[labels] = _Chain(matrix, rules, setup, qnds, ports, tab.stage("round", labels, ports))
    return chain


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


def _slots(tab: PatternTable, shape: tuple, rules: tuple, chain: _Chain) -> tuple:
    """``(products, slots, sides)`` of a round of product ``shape``: slot s (an output id) sums its
    ``(product index, coefficient)`` pairs ``slots[s]``; the slots run by side, signature (sorted)
    and first touch, ``sides`` listing each signature and its residual ids."""
    setup, qnds = chain.setup, chain.qnds
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
    return len(products), tuple(tuple(slots[slot]) for slot in order), tuple(map(tuple, sides))


@dataclass(slots=True)
class _ChainRound:
    p_success: float
    p_recycle: float
    wins: tuple  # each corrected heralded state's ids through the merge (None where it raises)
    amps: list  # their amplitudes, one state after the other
    recycle_next: dict[int, complex]  # the next round's input, by pattern id
    error: tuple | None  # (type, message) of the first win's merge error


def _round_kernel(tab: PatternTable, program: tuple, ports: tuple, alive: tuple | None):
    """``program``'s round function for the slots that survive where ``alive`` (None: all of
    them), generated (``_kernel``) once per program and key."""
    kernels = program[-1]
    kernel = kernels.get(alive)
    if kernel is None:
        kernel = kernels[alive] = _kernel(tab, program, alive, ports)
    return kernel


def _kernel(tab: PatternTable, program: tuple, alive: tuple | None, ports: tuple, form: tuple | None = None):
    """``kernel(products, factor) -> _ChainRound``: ``program``'s round, its slots surviving where
    ``alive``, written out as straight-line Python and compiled.  With ``form`` (for a round whose
    products all survive: the chain's round functions by input ids and factors, then
    ``_products``' arguments) it is ``kernel(inputs, factor, auxes, pairs)`` and forms the
    products first, returning None where one is pruned.  Slot s is ``0.0 + p*c + ...`` in the
    order of ``slots[s]``; with ``alive`` None a slot under PRUNE_EPS hands the products to the
    function of the slots that survive.  Each signature weighs its surviving squares; one that
    weighs more than PRUNE_EPS**2 raises if two of its slots share a residual id (a mixture),
    else a win adds ``weight * factor`` and its state, merged by ``ports`` as ``(a * N) / n`` and
    pruned, or keeps the merge's ``(type, message)``; the first recycle signature that weighs
    enough, once each later one agrees with it after correction (``_aligned``), is rescaled to
    their summed weight and pruned: the next round's input.  Coefficients, scales and ids are
    bound by name, a coefficient or scale as a float where its imaginary part is zero."""
    _, products, slots, sides, _ = program
    consts = {"TAB": tab, "PROGRAM": program, "PORTS": ports, "EPS2": PRUNE_EPS**2,
              "NORM2": NORM_TOL**2, "AGREE": 1.0 - RECYCLE_AGREEMENT_TOL}

    def const(value) -> str:
        consts[name := f"k{len(consts)}"] = value
        return name

    live = [s for s in range(len(slots)) if alive is None or alive[s]]
    if form is None:
        code, handed = [f"{''.join(f'p{i}, ' for i in range(products))}= v"] if products else [], "v"
    else:
        consts["FORMED"], consts["IDS"] = form[:2]
        code, handed = _products(*form[1:]), f"({''.join(f'p{i}, ' for i in range(products))})"
    for s in live:
        code += [f"s{s} = 0.0{''.join(f' + p{i} * {const(_real(c))}' for i, c in slots[s])}", f"m{s} = abs(s{s})"]
    if alive is None and live:
        code += [f"if {' or '.join(f'm{s} < PRUNE_EPS' for s in live)}:  # the prune after the last coupler",
                 f"    alive = tuple([m >= PRUNE_EPS for m in ({''.join(f'm{s}, ' for s in live)})])",
                 f"    return _round_kernel(TAB, PROGRAM, PORTS, alive)({handed}, factor)"]
    signatures, at = [], 0  # per side, each signature's (signature, [(slot, residual id)] surviving)
    for side in sides:
        signatures.append([])
        for sig, qs in side:
            signatures[-1].append((sig, [(s, q) for s, q in enumerate(qs, at) if alive is None or alive[s]]))
            at += len(qs)
    code.append("p_win, wins, amps, error = 0.0, [], [], None")
    for sig, kept in signatures[0]:
        ids = tuple(q for _, q in kept)
        error = None
        if ports:
            try:
                stage = merge_relabels(tab, ids, *ports)
            except (PortContractError, ModeCollisionError) as exc:
                error = (type(exc), str(exc))
        if not kept:
            continue
        w = f"w{kept[0][0]}"
        code += [f"{w} = {' + '.join(f'm{s}**2' for s, _ in kept)}", f"if {w} > EPS2:"]
        if len(set(ids)) < len(ids):
            code.append(f"    raise _mixture({const(sig)})")
            continue
        code.append(f"    p_win += {w} * factor")
        if error:  # raised where every chain of the round has a win
            code += [f"    error = error or {const(error)}", "    wins.append(None)"]
        elif ports:  # the merge, then its prune
            us = "".join(f"u{s}, " for s, _ in kept)
            merged = const(tuple(stage[q][0] for q in ids))
            code += [f"    u{s} = (s{s} * {const(_real(stage[q][1]))}) / {const(_real(stage[q][2]))}" for s, q in kept]
            code += [f"    if {' and '.join(f'abs(u{s}) >= PRUNE_EPS' for s, _ in kept)}:",
                     f"        wins.append({merged})",
                     f"        amps += ({us})",
                     "    else:",
                     f"        keep, win = _survivors([{us}])",
                     f"        wins.append(tuple(itertools.compress({merged}, keep)))",
                     "        amps += win"]
        else:
            code += [f"    wins.append({const(ids)})", f"    amps += ({''.join(f's{s}, ' for s, _ in kept)})"]
    again = []  # each recycle signature that can continue: its weight's name and surviving slots
    for sig, kept in signatures[1]:
        if not kept:
            continue
        r = f"r{kept[0][0]}"
        code.append(f"{r} = {' + '.join(f'm{s}**2' for s, _ in kept)}")
        if len({q for _, q in kept}) < len(kept):
            code.append(f"if {r} > EPS2: raise _mixture({const(sig)})")
        else:
            again.append((r, kept))
    for i, (r, kept) in enumerate(again):  # the first that weighs enough continues
        code += [f"{'elif' if i else 'if'} {r} > EPS2:", f"    p_rec = 0.0 + {r}"]
        for other, other_kept in again[i + 1:]:
            firsts, seconds = _aligned(kept, other_kept)
            code += [f"    if {other} > EPS2:",
                     f"        p_rec += {other}",
                     f"        if {r} <= NORM2 or {other} <= NORM2:",
                     "            raise DegenerateStateError('fidelity of a (near-)zero state is undefined')",
                     f"        inner = 0.0{''.join(f' + s{a}.conjugate() * s{b}' for a, b in zip(firsts, seconds))}",
                     f"        if min(abs(inner) ** 2 / ({r} * {other}), 1.0) < AGREE:",
                     "            raise RuntimeError(_DISAGREE)"]
        code += [f"    scale = math.sqrt(p_rec / {r})", "    nxt = {}"]
        for s, q in kept:
            code += [f"    x = s{s} * scale", f"    if abs(x) >= PRUNE_EPS: nxt[{const(q)}] = x"]
    code += ["else:", "    p_rec, nxt = 0.0, {}"] if again else ["p_rec, nxt = 0.0, {}"]
    code.append("return _ChainRound(p_win, p_rec, tuple(wins), amps, nxt, error)")
    params = "v, factor" if form is None else "v, factor, a, c"
    return compiled(params, code, consts, "<round kernel>", globals())


def _products(ids: tuple, counts: tuple, mask: tuple) -> list:
    """Lines that form a round's products from ``v`` (the amplitudes of input ``ids``), ``a``
    (every arm's auxiliary amplitudes, ``counts`` per arm) and ``c`` (each arm's coupler pair
    ``(sqrt(1-t), sqrt(t))``), as the masked path (``_masked``) forms them: per arm its factors
    ``aux * r`` and ``aux * s``, of which those ``mask`` marks survive the prune, then the
    products of those input-major, ``(v * f1) * f2``.  Where other factors survive, the function
    hands over to the one of their mask (``FORMED``, by ``IDS`` and mask), or returns None where
    there is none yet; where a product's ``_survivors`` test fails, it returns None."""
    code = [f"{''.join(f'v{i}, ' for i in range(len(ids)))}= v"] if ids else []
    code += [f"{''.join(f'a{j}, ' for j in range(sum(counts)))}= a"] if sum(counts) else []
    code.append(f"{''.join(f'(r{i}, s{i}), ' for i in range(len(counts)))}= c")
    factors, at = [f"f{x}" for x in range(len(mask))], 0
    for i, n in enumerate(counts):
        code += [f"f{x} = a{x // 2} * {'rs'[x % 2]}{i}" for x in range(2 * at, 2 * (at + n))]
        at += n
    if factors:
        kept, pruned = ([f for f, m in zip(factors, mask) if m == keep] for keep in (True, False))
        code += [f"if not {_kept(kept, pruned)}:  # other factors survive",
                 f"    kernel = FORMED.get((IDS, tuple([abs(f) >= PRUNE_EPS for f in ({''.join(f'{f}, ' for f in factors)})])))",
                 "    return None if kernel is None else kernel(v, factor, a, c)"]
    level, at = [f"v{i}" for i in range(len(ids))], 0
    for i, n in enumerate(counts):
        fs = [f"f{x}" for x in range(2 * at, 2 * (at + n)) if mask[x]]
        at += n
        names = [f"p{x}" if i == len(counts) - 1 else f"q{i}_{x}" for x in range(len(level) * len(fs))]
        code += [f"{x} = {u} * {f}" for x, (u, f) in zip(names, itertools.product(level, fs))]
        code += [f"if not {_kept(names)}: return None"] if names else []
        level = names
    return code


_DISAGREE = ("recycle click patterns disagree after correction; "
             "feed-forward rules are inconsistent with the coupler convention")


def _mixture(sig: tuple) -> PolarizationMixtureError:
    return PolarizationMixtureError(f"click signature {' '.join(f'{d}:{n}' for d, n in sig)}: {MIXTURE}")


def _run_chain(tab: PatternTable, chain: _Chain, current: dict[int, complex], pairs, auxes: list,
               model: DetectorModel) -> list[_ChainRound]:
    """Run every round of ``chain`` on the input ``current`` (by id).

    Each round attaches every arm's auxiliary photon (``auxes``, from the point's prologue) at
    the arm's coupler pair ``(sqrt(1-t), sqrt(t))`` for the round (``pairs``, per round one per
    arm), then splits by the nondemolition comparisons of the arms that have one: class 1 on all
    of them goes on to the heralding couplers, class 0 on all of them to the recycling couplers.
    Success needs every arm's group to click at once, and the heralded state then goes through
    the merge; the combined recycle continuation is the next round's input.  A round whose
    input and coupler pairs equal the previous round's repeats that round's result.
    """
    factor = detection_factor(chain.setup[0][0], model)
    for aux in auxes:
        if type(aux) is not tuple:  # the error evaluating the photon
            raise aux
    kernels = chain.formed.get(key := tuple([xs for xs, _ in auxes])) or chain.formed.setdefault(key, {})
    amps = [a for _, aux in auxes for a in aux]
    results: list[_ChainRound] = []
    last = before = None
    for c in pairs:
        if c == before and current == last:  # a fixed point: the same round again
            results.append(results[-1])
            continue
        last, before = current, c
        kernel = kernels.get(tuple(current))
        result = None if kernel is None else kernel(list(current.values()), factor, amps, c)
        if result is None:  # input ids or surviving factors not seen yet, or a pruned product
            result = _masked(tab, chain, kernels, current, auxes, c, factor)
        results.append(result)
        current = result.recycle_next
    return results


def _masked(tab: PatternTable, chain: _Chain, kernels: dict, current: dict, auxes: list, pairs: tuple,
            factor: float) -> _ChainRound:
    """A round of ``current`` whose products are formed here, pruned after each factor; their
    shape (input ids, then per arm the surviving output ids and which products survive, None for
    all) keys the program, built from the products that survive.  Where every product survives,
    the round function that forms them itself is generated and kept in ``kernels`` by input ids
    and which factors survive, and by input ids alone where it is the first for them."""
    shape, vals, mask = [tuple(current)], list(current.values()), ()
    for (xs, amps), rs in zip(auxes, pairs):
        keep, cs = _survivors([a * c for a in amps for c in rs])
        xs = xs if keep is None else tuple(itertools.compress(xs, keep))
        alive, vals = _survivors([a * c for a in vals for c in cs])
        shape.append((xs, alive))
        mask += keep or (True,) * len(xs)
    shape = tuple(shape)
    program = chain.programs.get(shape)
    if program is None or program[0] != chain.rules:  # never serve another coupler matrix
        program = chain.programs[shape] = (chain.rules, *_slots(tab, shape, chain.rules, chain), {})
    if all(alive is None for _, alive in shape[1:]):
        form = kernels, shape[0], tuple(len(amps) for _, amps in auxes), mask
        kernel = kernels[shape[0], mask] = _kernel(tab, program, None, chain.ports, form)
        kernels.setdefault(shape[0], kernel)
        return kernel(list(current.values()), factor, [a for _, aux in auxes for a in aux], pairs)
    return _round_kernel(tab, program, chain.ports, None)(vals, factor)


def _scorer(table: dict, key: tuple, alive: tuple | None):
    """The scorer of a round whose chains' wins and target hold the ids ``key``, for the paired
    values that survive where ``alive`` (None: all of them), generated (``_scoring``) once per key
    and ``alive`` and kept in ``table``."""
    scorers = table.get(key) or table.setdefault(key, {})
    scorer = scorers.get(alive)
    if scorer is None:
        scorer = scorers[alive] = _scoring(table, key, alive)
    return scorer


def _scoring(table: dict, key: tuple, alive: tuple | None):
    """``scorer(target, tnorm, a, b) -> worst fidelity``, written out as straight-line Python and
    compiled, of a round whose chains' wins hold the ids ``key[:-1]`` (amplitudes ``a`` and, with
    two chains, ``b``) against the target ids ``key[-1]``.  With one chain its wins are the states;
    with two every plus win is paired with every minus one, plus ids first, shared ids averaged as
    ``0.5 * (plus + minus)`` (both arms carry the signal-at-home component, counted once), and
    with ``alive`` None a paired value under PRUNE_EPS hands the amplitudes to the scorer of
    those that survive.  A state's squared norm is ``sum`` of its squares, a (near-)zero one
    raises, and its fidelity is ``|0.0 + conj(x) * y + ...|**2 / (norm * tnorm)`` over the ids it
    shares with the target (``_aligned``); the worst, at most 1.0, is returned."""
    *books, tids = key
    code, wins = [], []  # per chain, each win's (value name, id) pairs
    for c, book in enumerate(books):
        names = iter(f"{'ab'[c]}{n}" for n in itertools.count())
        wins.append([[(next(names), q) for q in ids] for ids in book])
        flat = [x for win in wins[-1] for x, _ in win]
        code += [f"{''.join(f'{x}, ' for x in flat)}= {'ab'[c]}"] if flat else []
    states = wins[0]
    if len(books) == 2:
        states, values = [], []
        for plus in wins[0]:
            for minus in wins[1]:
                pair = {q: x for x, q in plus}
                for y, q in minus:
                    pair[q] = f"0.5 * ({pair[q]} + {y})" if q in pair else y
                states.append([])
                for q, value in pair.items():
                    if alive is None or alive[len(values)]:
                        code.append(f"x{len(values)} = {value}")
                        states[-1].append((f"x{len(values)}", q))
                    values.append(f"x{len(values)}")
        if alive is None and values:
            code += [f"if not {_kept(values)}:  # the prune after the pairing",
                     f"    alive = tuple([abs(x) >= PRUNE_EPS for x in ({''.join(f'{x}, ' for x in values)})])",
                     "    return _scorer(TABLE, KEY, alive)(t, tnorm, a, b)"]
    targets = [(f"t{n}", q) for n, q in enumerate(tids)]
    code += [f"{''.join(f'{x}, ' for x, _ in targets)}= t"] if targets else []
    norms = [f"n{s}" for s in range(len(states))]
    code += [f"n{s} = sum(({''.join(f'abs({x}) ** 2, ' for x, _ in state)}))" for s, state in enumerate(states)]
    least = norms[0] if len(norms) == 1 else f"min({', '.join(norms)})"
    code += [f"if {least} <= NORM2 or tnorm <= NORM2:",
             "    raise DegenerateStateError('fidelity of a (near-)zero state is undefined')"]
    for s, state in enumerate(states):
        firsts, seconds = _aligned(state, targets)
        code.append(f"i{s} = 0.0{''.join(f' + {x}.conjugate() * {y}' for x, y in zip(firsts, seconds))}")
    code.append(f"return min(min([{', '.join(f'abs(i{s}) ** 2 / (n{s} * tnorm)' for s in range(len(states)))}]), 1.0)")
    consts = {"TABLE": table, "KEY": key, "NORM2": NORM_TOL**2}
    return compiled("t, tnorm, a, b", code, consts, "<round scorer>", globals())


def _rounds(
    tab: PatternTable,
    ts: list[float],
    chains: list[list[_ChainRound]],
    target: tuple,
) -> list[RoundResult]:
    """Round results summed over ``chains`` (one or two).  Each distinct round's fidelity is the
    worst of its paired and pruned wins' against ``target``, ``(ids, amplitudes, squared norm)``,
    by the round's scorer (``_scorer``) in the plan table's ``score`` stage."""
    tids, tamps, tnorm = target
    table, rounds, last, other, one = tab.stage("score"), [], None, None, len(chains) == 1
    for k, (t, first, second) in enumerate(zip(ts, chains[0], chains[-1]), 1):
        if first is not last or second is not other:  # not a repeated round
            last, other, fid = first, second, None
            if first.wins and second.wins:
                if error := first.error or second.error:
                    raise error[0](error[1])
                key = (first.wins, tids) if one else (first.wins, second.wins, tids)
                fid = _scorer(table, key, None)(tamps, tnorm, first.amps, second.amps)
            # sum() of one or two probabilities, none of them -0.0
            p_success = first.p_success if one else first.p_success + second.p_success
            p_recycle = first.p_recycle if one else first.p_recycle + second.p_recycle
        rounds.append(RoundResult(k, t, p_success, p_recycle, fid))
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

    tab, matrix = plan.table, bs_matrix()
    signal, branches, target, auxes = _prologue(plan, pol)(bindings)
    # each round's coupler pairs, shared by the arms where their schedules agree
    pairs = {"plus": list(map(vbs_pair, schedule["plus"]))}
    pairs["minus"] = pairs["plus"] if schedule["minus"] == schedule["plus"] else list(map(vbs_pair, schedule["minus"]))
    if accounting == "branch":
        # each arm acts only on the component where the signal is not in the other arm
        chains = []
        for arm, inp, aux in zip(plan.arms, branches, auxes):
            chain = _bound(tab, [arm], plan.merge, matrix)
            chains.append(_run_chain(tab, chain, inp, zip(pairs[arm.label]), [aux], model))
        eta_exponent = 1
    else:
        chains = [_run_chain(tab, _bound(tab, plan.arms, plan.merge, matrix), signal,
                             zip(*[pairs[arm.label] for arm in plan.arms]), auxes, model)]
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
    empty on a one-arm layout).  A coupler that reads one of them bare takes the planned list,
    as floats (``evaluate_real`` gives ``float(t)``), already checked to lie in [0, 1]."""
    eff: dict[str, list[float]] = {"plus": [], "minus": []}
    arms = []  # the couplers whose expressions are evaluated round by round
    for arm, planned in zip(plan.arms, plan.planned):
        if planned is None:
            arms.append(arm)
        else:
            eff[arm.label] = list(map(float, (ts_plus, ts_minus)[planned]))
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
