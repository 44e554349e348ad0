"""Independent cross-check of protocol numbers by single-photon path sums.

Everything here is derived a second time from first principles: photons are
enumerated as individual path alternatives, joint amplitudes are products of
single-photon transfer amplitudes with an explicit bosonic factor for
repeated landing sites, and detector statistics come from classifying the
final landing multiset.  The module imports only the parser (``dsl``) and
the layout recognizer with the shipped documents (``circuits``), nothing
from the operator-based simulation core, so agreement between the two is a
meaningful consistency check rather than the same code talking to itself.

The wiring comes from the ``circuits.Layout`` of the document, the one the
engine runs too: each arm's auxiliary photon, coupler ``t=`` expression,
heralding and recycling couplers, detector ``eta=``, signal mode, QND and
flips, and the signal sources, split, merge and outputs.  The physics stays
here: the coupler matrix, the path sums and the doubling schedule are this
module's own.  ``oracle_ecp1`` and ``oracle_ecp2`` run the shipped
documents through one round loop, ``_run_chain``; branch accounting runs
it per arm, joint accounting once with every arm.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator

from .circuits import Arm, builtin_doc, layout
from .dsl import BindingError, CircuitDoc, ParameterError, PbsMergeDecl, parse_expr

_R = 0.7071067811865476  # 1 / sqrt(2)
_OPS = {"neg": operator.neg, "add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}

# photon path alternative: (amplitude, spatial_mode, polarization), and once routed its start mode


def _value(node, text: str, bindings) -> complex:
    """``node`` of ``dsl.parse_expr(text)`` on ``bindings``, in the complex operations of
    ``dsl.evaluate_real``, so that infinities and signed zeros come out as there."""
    kind, *args = node
    if kind == "num":
        return complex(args[0])
    if kind == "var":
        if args[0] not in bindings:
            raise BindingError(f"parameter {args[0]!r} has no bound value")
        return complex(bindings[args[0]])
    xs = [_value(a, text, bindings) for a in args]
    if kind == "div" and xs[1] == 0:
        raise ParameterError(f"expression {text!r} divides by zero")
    if kind == "sqrt":
        [x] = xs
        return complex(math.sqrt(x.real) + 0.0) if x.imag == 0 and x.real >= 0 else cmath.sqrt(x)
    return _OPS[kind](*xs)


def _real(text: str, bindings) -> float:
    v = _value(parse_expr(text), text, bindings)
    if abs(v.imag) > 1e-12:
        raise BindingError(f"expression {text!r} evaluated to a complex value {v}")
    return v.real


def _coupler_rules(couplers) -> dict:
    """One side's couplers as one map ``(mode, pol) -> alternatives``: in a recognized layout
    no coupler output feeds another coupler, so applying them in turn is applying this map."""
    rules = {}
    for b in couplers:
        for pol in ("H", "V"):
            rules[(b.in1, pol)] = ((_R, b.out1, pol), (-_R, b.out2, pol))
            rules[(b.in2, pol)] = ((_R, b.out1, pol), (_R, b.out2, pol))
    return rules


def _vec_norm_sq(vec: dict) -> float:
    return sum((m := abs(a)) * m for a in vec.values())


def _vec_norm(vec: dict) -> float:
    return math.hypot(*(abs(a) for a in vec.values()))


def _vec_fidelity(vec: dict, target: dict) -> float:
    """|<target|vec>|^2 of the normalized vectors, each amplitude normalized before it is
    multiplied, so that no product underflows."""
    n1, n2 = _vec_norm(vec), _vec_norm(target)
    if not n1 or not n2:
        raise ValueError("fidelity of an empty amplitude vector")
    m = abs(sum((target[k] / n2).conjugate() * (a / n1) for k, a in vec.items() if k in target))
    return min(m * m, 1.0)


def _flip(vec: dict, spatial: str) -> dict:
    return {(m, p): (-a if m == spatial else a) for (m, p), a in vec.items()}


def _schedule(alpha_sq: float, rounds: int) -> list[tuple[float, float]]:
    """Round k's coupler pair (sqrt(1 - t), sqrt(t)) = (1/sqrt(1 + e^-x), 1/sqrt(1 + e^x)), from the
    log-odds x = 2^(k-1) ln((1 - alpha^2) / alpha^2) without forming 1 - t; the smaller entry is
    e^(-|x|/2) / sqrt(1 + e^-|x|), so that no exponential overflows."""
    x = math.log(1.0 - alpha_sq) - math.log(alpha_sq)
    out = []
    for _ in range(rounds):
        e = math.exp(-abs(x))
        large, small = 1.0 / math.sqrt(1.0 + e), math.exp(-0.5 * abs(x)) / math.sqrt(1.0 + e)
        out.append((large, small) if x >= 0.0 else (small, large))
        x += x
    return out


def _pair(t: float) -> tuple[float, float]:
    return math.sqrt(1.0 - t), math.sqrt(t)


def _aux_photon(arm: Arm, pair: tuple[float, float], bindings) -> list:
    """The arm's auxiliary photon behind its coupler, of pair (sqrt(1 - t), sqrt(t))."""
    out = []
    for s in arm.aux_sources:
        amp = _real(s.amp, bindings)
        out += [(amp * pair[0], arm.vbs.reflect, s.pol), (amp * pair[1], arm.vbs.transmit, s.pol)]
    return out


def _signal_photon(sources, split, bindings) -> list:
    out = []
    for s in sources:
        mode = s.mode
        if split is not None and mode == split.inp:
            mode = split.out_h if s.pol == "H" else split.out_v
        out.append((_real(s.amp, bindings), mode, s.pol))
    return out


def _merged(vec: dict, merge: PbsMergeDecl) -> dict:
    out: dict = {}
    for (m, p), a in vec.items():
        key = (merge.out, p) if m in (merge.in_h, merge.in_v) else (m, p)
        out[key] = out.get(key, 0j) + a
    return out


def _merge_arm_pair(vec_plus: dict, vec_minus: dict, merge: PbsMergeDecl) -> dict:
    a = _merged(vec_plus, merge)
    b = _merged(vec_minus, merge)
    out = {}
    # iterate in insertion order: a set's order follows the hash seed, and
    # the fidelity sum over ``out`` must not
    for k in {**a, **b}:
        if k in a and k in b:
            # the signal-at-home component is shared between the two arm
            # books and must be counted once
            out[k] = 0.5 * (a[k] + b[k])
        else:
            out[k] = a.get(k, b.get(k))
    return out


def _combine_recycle(per_click: dict):
    vecs = list(per_click.values())
    if not vecs:
        return None, 0.0
    for v in vecs[1:]:
        if _vec_fidelity(vecs[0], v) < 1.0 - 1e-9:
            raise ValueError("recycle continuations disagree after correction")
    norms = [_vec_norm(v) for v in vecs]
    scale = math.hypot(*norms) / norms[0]
    return {k: a * scale for k, a in vecs[0].items()}, sum(map(_vec_norm_sq, vecs))


def _herald(arms, photons, couplers, want: int, flips: dict) -> dict:
    """Corrected residual vectors by click signature, one click per coupler's two outputs.

    The QND stages come before the couplers, so a path's QND class is fixed where its photons
    start: |starts at the signal mode - starts at the reflected mode| on each arm with a QND, and
    ``want`` is the class kept (1 on the success side, 0 on the recycle side).  A final's amplitude
    is its sum over the kept combinations times the root of its repeated landing factor; raises
    ValueError where finals whose absorbed photons differ in polarization leave one residual.
    """
    qnd = [(a.signal_mode, a.vbs.reflect) for a in arms if a.qnd is not None]
    rules = _coupler_rules(couplers)  # an alternative no coupler takes keeps its amplitude (None)
    paths = [[(amp if w is None else amp * w, m2, p2, m) for (amp, m, p) in photon
              for (w, m2, p2) in rules.get((m, p), ((None, m, p),))] for photon in photons]
    sums: dict = {}
    for combo in itertools.product(*paths):
        if any(abs(sum((c[3] == a) - (c[3] == b) for c in combo)) != want for a, b in qnd):
            continue
        amp = 1.0 + 0j
        for c in combo:
            amp *= c[0]
        final = tuple(sorted((c[1], c[2]) for c in combo))
        sums[final] = sums.get(final, 0j) + amp
    groups = [(b.out1, b.out2) for b in couplers]
    detectors = {m for g in groups for m in g}
    residuals: dict = {}
    landings: dict = {}
    for final, amp in sums.items():
        landing = [x for x in final if x[0] in detectors]
        if any(sum(m in g for m, _p in landing) != 1 for g in groups):
            continue
        clicks = tuple((m, 1) for m, _p in landing)  # sorted, as ``final`` is
        residual = tuple(x for x in final if x[0] not in detectors)
        amp *= math.sqrt(math.prod(math.factorial(final.count(x)) for x in set(final)))
        if amp and landings.setdefault((clicks, residual), landing) != landing:
            raise ValueError(f"click signature {clicks}: absorbed photons of either polarization leave a mixture")
        vec = residuals.setdefault(clicks, {})
        vec[residual[0]] = vec.get(residual[0], 0j) + amp
    corrected = {}
    for clicks, vec in residuals.items():
        if not _vec_norm_sq(vec):  # the one underflow rule: a weight that squares to 0 is no click
            continue
        for (d, _n) in clicks:
            if d in flips:
                vec = _flip(vec, flips[d])
        corrected[clicks] = vec
    return corrected


def _run_round(arms, photons, eta: float, flips: dict):
    """One heralding round over the given arms, evolved coherently.

    Returns (success residual vectors by click signature, success
    probability with the analytic detector factor, combined recycle
    continuation or None, recycle weight).  Each heralding group counts
    its own ``eta=`` when it sets one, else ``eta``; recycle detectors are
    ideal.
    """
    corrected = _herald(arms, photons, [a.success_bs for a in arms], 1, flips)
    factor = math.prod(eta if a.success_group.eta is None else a.success_group.eta for a in arms)
    p_success = sum(_vec_norm_sq(v) * factor for v in corrected.values())
    if arms[0].recycle_bs is None:
        return corrected, p_success, None, 0.0
    per_click = _herald(arms, photons, [a.recycle_bs for a in arms], 0, flips)
    return (corrected, p_success, *_combine_recycle(per_click))


def _run_chain(doc: CircuitDoc, schedules, accounting: str, eta: float, bindings, pol):
    """Rounds of ``doc`` over the coupler pairs ``schedules[0]`` (of ``t1``/``t_plus``) and
    ``schedules[-1]`` (of ``t2``/``t_minus``): an arm whose ``t=`` reads one bare takes its pair
    (``Arm.planned``), any other ``t=`` is evaluated with each parameter bound to its pair's
    sqrt(t) squared.

    Branch accounting runs one chain per arm, on the signal components not
    in another arm; joint accounting one chain with every arm.  ``pol`` is
    ``(gamma, delta)`` for a polarized target, or None.  Returns per round
    the success probability of each chain, keyed by its arm's signal mode
    (None when joint), and the round's book.
    """
    lay = layout(doc)
    arms, merge = lay.arms, lay.merge
    flips = {d: m for a in arms for d, m in (*a.flips.items(), *a.recycle_flips.items())}
    signal = _signal_photon(lay.signal_sources, lay.split, bindings)
    comps = [("V", 1.0)] if pol is None else [("H", pol[0]), ("V", pol[1])]
    target = {(m, p): _R * c for m in lay.outputs for p, c in comps}
    if accounting == "branch":
        chains = [[arm] for arm in arms]
        currents = [
            [s for s in signal if s[1] not in {o.signal_mode for o in arms if o is not arm}]
            for arm in arms
        ]
    else:
        chains, currents = [arms], [signal]
    out = []
    for plus, minus in zip(schedules[0], schedules[-1]):
        pairs = {"t1": plus, "t_plus": plus, "t2": minus, "t_minus": minus}
        round_bindings = {**bindings, **{name: s * s for name, (_c, s) in pairs.items()}}
        arm_pairs = {a.vbs.t: (plus, minus)[a.planned] if a.planned is not None
                     else _pair(_real(a.vbs.t, round_bindings)) for a in arms}
        per_chain, p_round, p_rec_round, books = {}, 0.0, 0.0, []
        for i, chain_arms in enumerate(chains):
            label = chain_arms[0].signal_mode if accounting == "branch" else None
            rv, p, pr, corrected = None, 0.0, 0.0, {}
            if currents[i]:
                aux = [_aux_photon(a, arm_pairs[a.vbs.t], bindings) for a in chain_arms]
                corrected, p, rv, pr = _run_round(chain_arms, [currents[i]] + aux, eta, flips)
                p_round += p
                p_rec_round += pr
            per_chain[label] = p
            books.append(list(corrected.values()))
            currents[i] = [(amp, *key) for key, amp in (rv or {}).items()]
        if len(books) == 2:
            vecs = [_merge_arm_pair(vp, vm, merge) for vp in books[0] for vm in books[1]]
        else:
            vecs = [v if merge is None else _merged(v, merge) for v in books[0]]
        fids = [_vec_fidelity(v, target) for v in vecs] if p_round > 0.0 else []  # a round that cannot succeed
        out.append((per_chain, {
            "p_success": p_round,
            "p_recycle": p_rec_round,
            "fidelity": min(fids) if fids else None,
        }))
    return out


def _point(alpha_sq: float, gamma_sq: float | None):
    """Document suffix, parameter bindings and target polarization."""
    bindings = {"alpha": math.sqrt(alpha_sq), "beta": math.sqrt(1.0 - alpha_sq)}
    if gamma_sq is None:
        return "_stripped", bindings, None
    pol = (math.sqrt(gamma_sq), math.sqrt(1.0 - gamma_sq))
    bindings["gamma"], bindings["delta"] = pol
    return "", bindings, pol


def oracle_ecp1(
    alpha_sq: float,
    gamma_sq: float | None = None,
    t1: float | None = None,
    t2: float | None = None,
    accounting: str = "branch",
    eta: float = 1.0,
) -> dict:
    suffix, bindings, pol = _point(alpha_sq, gamma_sq)
    schedules = [[_pair(alpha_sq if t1 is None else t1)], [_pair(alpha_sq if t2 is None else t2)]]
    [(per_chain, book)] = _run_chain(
        builtin_doc("ecp1" + suffix), schedules, accounting, eta, bindings, pol
    )
    if accounting == "branch":
        return {"p_total": sum(per_chain.values()), "per_arm": per_chain, "fidelity": book["fidelity"]}
    return {"p_total": book["p_success"], "fidelity": book["fidelity"]}


def oracle_ecp2(
    alpha_sq: float,
    gamma_sq: float | None = None,
    rounds: int = 1,
    accounting: str = "branch",
    eta: float = 1.0,
) -> dict:
    suffix, bindings, pol = _point(alpha_sq, gamma_sq)
    ts = _schedule(alpha_sq, rounds)
    chain = _run_chain(builtin_doc("ecp2" + suffix), [ts, ts], accounting, eta, bindings, pol)
    round_books = [book for _per_chain, book in chain]
    return {
        "rounds": round_books,
        "p_total": sum(r["p_success"] for r in round_books),
    }
