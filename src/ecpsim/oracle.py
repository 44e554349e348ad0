"""Independent cross-check of protocol numbers by single-photon path sums.

Everything here is derived a second time from first principles: photons are
enumerated as individual path alternatives, joint amplitudes are products of
single-photon transfer amplitudes with an explicit bosonic factor for
repeated landing sites, and detector statistics come from classifying the
final landing multiset.  The module imports nothing from the operator-based
simulation core, so agreement between the two is a meaningful consistency
check rather than the same code talking to itself.

Layouts for the two concentration protocols are hard-coded to mirror the
shipped circuit documents.  Only the built-in protocols are covered; custom
meshes are the engine's job.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

_R = 0.7071067811865476  # 1 / sqrt(2)

# photon path alternative: (amplitude, spatial_mode, polarization)
# propagation stage: ("map", {(mode, pol): ((amp, mode, pol), ...)})
#                 or ("qnd", mode_a, mode_b)


def _coupler_rules(in1: str, in2: str, out1: str, out2: str) -> dict:
    rules = {}
    for pol in ("H", "V"):
        rules[(in1, pol)] = ((_R, out1, pol), (-_R, out2, pol))
        rules[(in2, pol)] = ((_R, out1, pol), (_R, out2, pol))
    return rules


def _propagate(alternatives, stages):
    paths = [(a, m, p, ()) for (a, m, p) in alternatives]
    for si, stage in enumerate(stages):
        new = []
        for (a, m, p, marks) in paths:
            if stage[0] == "map":
                rules = stage[1]
                if (m, p) in rules:
                    for (w, m2, p2) in rules[(m, p)]:
                        new.append((a * w, m2, p2, marks))
                else:
                    new.append((a, m, p, marks))
            else:
                new.append((a, m, p, marks + ((si, m),)))
        paths = new
    return paths


def _buckets(photon_paths, qnd_indices):
    """Joint Fock amplitudes keyed by (qnd classes, landing multiset).

    The sum over path combinations times the square root of the repeated
    landing factor is the standard multi-photon interference amplitude for
    photons that start in distinct modes.
    """
    out: dict = {}
    for combo in itertools.product(*photon_paths):
        amp = 1.0 + 0j
        for c in combo:
            amp *= c[0]
        classes = []
        for (si, a, b) in qnd_indices:
            at_a = sum(1 for c in combo if (si, a) in c[3])
            at_b = sum(1 for c in combo if (si, b) in c[3])
            classes.append(abs(at_a - at_b))
        final = tuple(sorted((c[1], c[2]) for c in combo))
        key = (tuple(classes), final)
        out[key] = out.get(key, 0j) + amp
    result = {}
    for (classes, final), amp in out.items():
        f = 1.0
        for n in Counter(final).values():
            f *= math.factorial(n)
        result[(classes, final)] = amp * math.sqrt(f)
    return result


def _split_final(final, detectors):
    clicks: dict = {}
    residual = []
    for (m, p) in final:
        if m in detectors:
            clicks[m] = clicks.get(m, 0) + 1
        else:
            residual.append((m, p))
    return tuple(sorted(clicks.items())), tuple(residual)


def _vec_norm_sq(vec: dict) -> float:
    return sum(abs(a) ** 2 for a in vec.values())


def _vec_fidelity(vec: dict, target: dict) -> float:
    n1 = _vec_norm_sq(vec)
    n2 = _vec_norm_sq(target)
    if n1 <= 0.0 or n2 <= 0.0:
        raise ValueError("fidelity of an empty amplitude vector")
    ip = sum(target[k].conjugate() * a for k, a in vec.items() if k in target)
    return min(abs(ip) ** 2 / (n1 * n2), 1.0)


def _flip(vec: dict, spatial: str) -> dict:
    return {(m, p): (-a if m == spatial else a) for (m, p), a in vec.items()}


def _schedule(alpha_sq: float, rounds: int) -> list[float]:
    ratio = (1.0 - alpha_sq) / alpha_sq
    out = []
    for _ in range(rounds):
        out.append(1.0 / (1.0 + ratio))
        ratio = ratio * ratio
    return out


class _Arm:
    def __init__(
        self,
        signal_mode,
        reflect,
        transmit,
        success_d,
        success_flip,
        recycle_d=None,
        recycle_flip=None,
        qnd=False,
    ):
        self.signal_mode = signal_mode
        self.reflect = reflect
        self.transmit = transmit
        self.success_d = success_d
        self.success_flip = success_flip  # (detector, spatial mode to flip)
        self.recycle_d = recycle_d
        self.recycle_flip = recycle_flip
        self.qnd = qnd


ECP1_PLUS = _Arm("b2", "b5", "b6", ("d1", "d2"), ("d2", "b6"))
ECP1_MINUS = _Arm("b3", "b8", "b9", ("d3", "d4"), ("d4", "b9"))
ECP2_PLUS = _Arm(
    "b2", "b5", "b6", ("d1", "d2"), ("d2", "b6"), ("d3", "d4"), ("d4", "b2"), qnd=True
)
ECP2_MINUS = _Arm(
    "b3", "b8", "b9", ("d5", "d6"), ("d6", "b9"), ("d7", "d8"), ("d8", "b3"), qnd=True
)

_AUX_POL = {"b2": "V", "b3": "H"}


def _post_vbs_aux(arm: _Arm, t: float):
    pol = _AUX_POL[arm.signal_mode]
    return [
        (math.sqrt(1.0 - t), arm.reflect, pol),
        (math.sqrt(t), arm.transmit, pol),
    ]


def _signal_alternatives(alpha, beta, gamma, delta, polarized: bool):
    if not polarized:
        return [(alpha, "a1", "V"), (beta, "b2", "V")]
    # the polarizing split routes the away-side H to b3 and V to b2
    return [
        (alpha * gamma, "a1", "H"),
        (alpha * delta, "a1", "V"),
        (beta * gamma, "b3", "H"),
        (beta * delta, "b2", "V"),
    ]


def _target(polarized: bool, gamma, delta, merged: bool):
    away = "b10" if merged else "b6"
    if not polarized:
        return {("a1", "V"): _R, (away, "V"): _R}
    return {
        ("a1", "H"): _R * gamma,
        ("a1", "V"): _R * delta,
        (away, "H"): _R * gamma,
        (away, "V"): _R * delta,
    }


def _merge_to_b10(vec: dict) -> dict:
    out: dict = {}
    for (m, p), a in vec.items():
        key = ("b10", p) if m in ("b6", "b9") else (m, p)
        out[key] = out.get(key, 0j) + a
    return out


def _merge_arm_pair(vec_plus: dict, vec_minus: dict) -> dict:
    a = _merge_to_b10(vec_plus)
    b = _merge_to_b10(vec_minus)
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


def _collect_heralded(buckets, detectors, want_classes, group_sets, flips):
    """Corrected residual vector per click signature, one click per group."""
    residuals: dict = {}
    for (classes, final), amp in buckets.items():
        if classes != want_classes:
            continue
        clicks, residual = _split_final(final, detectors)
        counts = dict(clicks)
        if not all(
            sum(counts.get(m, 0) for m in group) == 1 for group in group_sets
        ):
            continue
        vec = residuals.setdefault(clicks, {})
        vec[residual[0]] = vec.get(residual[0], 0j) + amp
    corrected = {}
    for clicks, vec in residuals.items():
        for (d, _n) in clicks:
            if d in flips:
                vec = _flip(vec, flips[d])
        corrected[clicks] = vec
    return corrected


def _combine_recycle(per_click: dict):
    vecs = list(per_click.values())
    if not vecs:
        return None, 0.0
    for v in vecs[1:]:
        if _vec_fidelity(vecs[0], v) < 1.0 - 1e-9:
            raise AssertionError("recycle continuations disagree after correction")
    weight = sum(_vec_norm_sq(v) for v in vecs)
    scale = math.sqrt(weight / _vec_norm_sq(vecs[0]))
    return {k: a * scale for k, a in vecs[0].items()}, weight


def _run_round(arms, photon_alternatives, eta: float):
    """One heralding round over the given arms, evolved coherently.

    Returns (success residual vectors by click signature, success
    probability with the analytic detector factor, combined recycle
    continuation or None, recycle weight).  Recycle detectors are ideal.
    """
    qnd_stages = []
    qnd_idx = []
    for arm in arms:
        if arm.qnd:
            qnd_idx.append((len(qnd_stages), arm.signal_mode, arm.reflect))
            qnd_stages.append(("qnd", arm.signal_mode, arm.reflect))
    succ_stages = list(qnd_stages)
    detectors = set()
    for arm in arms:
        succ_stages.append(
            ("map", _coupler_rules(arm.signal_mode, arm.reflect, *arm.success_d))
        )
        detectors |= set(arm.success_d)
    paths = [_propagate(p, succ_stages) for p in photon_alternatives]
    buckets = _buckets(paths, qnd_idx)
    want = tuple(1 for a in arms if a.qnd)
    corrected = _collect_heralded(
        buckets,
        detectors,
        want,
        [set(a.success_d) for a in arms],
        {a.success_flip[0]: a.success_flip[1] for a in arms},
    )
    p_success = sum(_vec_norm_sq(v) for v in corrected.values()) * eta ** len(arms)
    recycle_vec = None
    p_recycle = 0.0
    if arms[0].recycle_d is not None:
        rec_stages = list(qnd_stages)
        rec_detectors = set()
        for arm in arms:
            rec_stages.append(
                ("map", _coupler_rules(arm.reflect, arm.transmit, *arm.recycle_d))
            )
            rec_detectors |= set(arm.recycle_d)
        rpaths = [_propagate(p, rec_stages) for p in photon_alternatives]
        rbuckets = _buckets(rpaths, qnd_idx)
        per_click = _collect_heralded(
            rbuckets,
            rec_detectors,
            tuple(0 for a in arms if a.qnd),
            [set(a.recycle_d) for a in arms],
            {a.recycle_flip[0]: a.recycle_flip[1] for a in arms},
        )
        recycle_vec, p_recycle = _combine_recycle(per_click)
    return corrected, p_success, recycle_vec, p_recycle


def _arm_filtered(signal, arms, arm):
    return [
        (a, m, p)
        for (a, m, p) in signal
        if all(m != other.signal_mode for other in arms if other is not arm)
    ]


def _vec_to_alternatives(vec):
    return [(a, m, p) for (m, p), a in vec.items()] if vec else []


def oracle_ecp1(
    alpha_sq: float,
    gamma_sq: float | None = None,
    t1: float | None = None,
    t2: float | None = None,
    accounting: str = "branch",
    eta: float = 1.0,
) -> dict:
    alpha = math.sqrt(alpha_sq)
    beta = math.sqrt(1.0 - alpha_sq)
    polarized = gamma_sq is not None
    gamma = math.sqrt(gamma_sq) if polarized else None
    delta = math.sqrt(1.0 - gamma_sq) if polarized else None
    t_plus = alpha_sq if t1 is None else t1
    t_minus = alpha_sq if t2 is None else t2
    signal = _signal_alternatives(alpha, beta, gamma, delta, polarized)
    arms = [ECP1_PLUS, ECP1_MINUS] if polarized else [ECP1_PLUS]
    target = _target(polarized, gamma, delta, merged=polarized)
    ts = {"b2": t_plus, "b3": t_minus}
    if accounting == "branch":
        per_arm = {}
        books = []
        for arm in arms:
            alts = _arm_filtered(signal, arms, arm)
            aux = _post_vbs_aux(arm, ts[arm.signal_mode])
            corrected, p, _rv, _pr = _run_round([arm], [alts, aux], eta)
            per_arm[arm.signal_mode] = p
            books.append(list(corrected.values()))
        fids = []
        if polarized:
            for vp in books[0]:
                for vm in books[1]:
                    fids.append(_vec_fidelity(_merge_arm_pair(vp, vm), target))
        else:
            fids = [_vec_fidelity(v, target) for v in books[0]]
        return {
            "p_total": sum(per_arm.values()),
            "per_arm": per_arm,
            "fidelity": min(fids) if fids else None,
        }
    aux_alts = [_post_vbs_aux(arm, ts[arm.signal_mode]) for arm in arms]
    corrected, p, _rv, _pr = _run_round(arms, [signal] + aux_alts, eta)
    fids = [
        _vec_fidelity(_merge_to_b10(v) if polarized else v, target)
        for v in corrected.values()
    ]
    return {"p_total": p, "fidelity": min(fids) if fids else None}


def oracle_ecp2(
    alpha_sq: float,
    gamma_sq: float | None = None,
    rounds: int = 1,
    accounting: str = "branch",
    eta: float = 1.0,
) -> dict:
    alpha = math.sqrt(alpha_sq)
    beta = math.sqrt(1.0 - alpha_sq)
    polarized = gamma_sq is not None
    gamma = math.sqrt(gamma_sq) if polarized else None
    delta = math.sqrt(1.0 - gamma_sq) if polarized else None
    signal = _signal_alternatives(alpha, beta, gamma, delta, polarized)
    arms = [ECP2_PLUS, ECP2_MINUS] if polarized else [ECP2_PLUS]
    target = _target(polarized, gamma, delta, merged=polarized)
    ts = _schedule(alpha_sq, rounds)
    round_books = []
    if accounting == "branch":
        currents = {
            arm.signal_mode: _arm_filtered(signal, arms, arm) for arm in arms
        }
        for t in ts:
            p_round = 0.0
            p_rec_round = 0.0
            books = []
            nexts = {}
            for arm in arms:
                alts = currents[arm.signal_mode]
                if not alts:
                    books.append([])
                    nexts[arm.signal_mode] = []
                    continue
                aux = _post_vbs_aux(arm, t)
                corrected, p, rv, pr = _run_round([arm], [alts, aux], eta)
                p_round += p
                p_rec_round += pr
                books.append(list(corrected.values()))
                nexts[arm.signal_mode] = _vec_to_alternatives(rv)
            fids = []
            if polarized and books[0] and books[1]:
                for vp in books[0]:
                    for vm in books[1]:
                        fids.append(_vec_fidelity(_merge_arm_pair(vp, vm), target))
            elif not polarized and books and books[0]:
                fids = [_vec_fidelity(v, target) for v in books[0]]
            round_books.append(
                {
                    "p_success": p_round,
                    "p_recycle": p_rec_round,
                    "fidelity": min(fids) if fids else None,
                }
            )
            currents = nexts
    else:
        current = signal
        for t in ts:
            if not current:
                round_books.append(
                    {"p_success": 0.0, "p_recycle": 0.0, "fidelity": None}
                )
                continue
            aux_alts = [_post_vbs_aux(arm, t) for arm in arms]
            corrected, p, rv, pr = _run_round(arms, [current] + aux_alts, eta)
            fids = [
                _vec_fidelity(_merge_to_b10(v) if polarized else v, target)
                for v in corrected.values()
            ]
            round_books.append(
                {
                    "p_success": p,
                    "p_recycle": pr,
                    "fidelity": min(fids) if fids else None,
                }
            )
            current = _vec_to_alternatives(rv)
    return {
        "rounds": round_books,
        "p_total": sum(r["p_success"] for r in round_books),
    }
