"""Linear optical elements as mode transforms.

Sign and routing conventions (fixed, and relied on by every heralding
correction downstream):

* PBS, splitting orientation: H transmits straight through to ``out_h``,
  V reflects to ``out_v``.  Merging orientation: two inputs combine into one
  output, legal only while the H input carries no V amplitude and vice versa
  (otherwise two photons of the same mode would have to leave one port and
  the device is no longer reversible on that subspace).
* 50:50 coupler: ``in1 -> (out1 - out2)/sqrt(2)``, ``in2 -> (out1 + out2)/sqrt(2)``.
  The minus sign sits on the first input's reflected arm.
* Variable-ratio coupler with transmittance ``t``:
  ``in -> sqrt(1-t)*reflect + sqrt(t)*transmit`` with real nonnegative
  coefficients.
* Phase flip on a spatial mode: every term with an odd total photon count in
  that mode (both polarizations) changes sign.  Self-inverse.

All elements are polarization-preserving except the PBS, which routes on
polarization but never rotates it.  Both PBS orientations move every photon
to one mode at coefficient 1, so on a ``PatternTable`` they run as a per-id
relabel (``split_terms``, ``merge_terms``), compiled once per id from the
transform's own program; the couplers run as transforms.
"""

from __future__ import annotations

import functools
import math
from typing import Mapping

from .fock import (
    ISOMETRY_TOL,
    PRUNE_EPS,
    IsometryError,
    Mode,
    PatternTable,
    State,
    POLARIZATIONS,
    CheckedRules,
    apply_mode_transform,
    pattern_count,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Test hook: the phase picked up by the second input of a 50:50 coupler.
# The correct convention is +1; fault injection replaces it with a nontrivial
# phase (still unitary, not a mere port relabeling) to verify that the
# heralded-fidelity checks actually detect a miswired coupler
# (see verify.corrupted_coupler).
BS_IN2_PHASE: complex = 1.0


class PortContractError(ValueError):
    """An element was wired in a way its port contract forbids."""


@functools.lru_cache(maxsize=256)  # once per port tuple
def _require_distinct(kind: str, **ports: str) -> None:
    seen: set[str] = set()
    for spatial in ports.values():
        if spatial in seen:
            raise PortContractError(f"{kind}: ports must be distinct, {spatial!r} repeats")
        seen.add(spatial)


# The fixed transforms are built and isometry-checked once per port tuple
# (and coupler matrix); the variable coupler's column norm depends on ``t`` and
# is checked on every call.  The ``*_rules`` builders also check the ports.
@functools.lru_cache(maxsize=256)
def _pbs_rules(h_in: str, h_out: str, v_in: str, v_out: str) -> CheckedRules:
    """H photons of ``h_in`` to ``h_out``, V photons of ``v_in`` to ``v_out``."""
    return CheckedRules(
        {(h_in, "H"): [((h_out, "H"), 1.0)], (v_in, "V"): [((v_out, "V"), 1.0)]}
    )


def _relabel(tab: PatternTable, terms: Mapping[int, complex], stage: dict, rules: CheckedRules):
    """``tab.transform(terms, rules)`` for ``rules`` that send each moved mode to one mode at
    coefficient 1, as a per-id relabel: each id's ``(new id, sqrt(N_out!), sqrt(n_in!))``
    is taken from its program when first seen and kept in ``stage``."""
    for p in terms:
        if p not in stage:
            layers, finals, norm_in = tab._program(tab.patterns[p], rules)
            stage[p] = (finals, 1.0, 1.0) if layers is None else (*finals[0][1:], norm_in)
    return {r[0]: v for p, a in terms.items() if abs(v := a * (r := stage[p])[1] / r[2]) >= PRUNE_EPS}


def split_terms(tab: PatternTable, terms: Mapping[int, complex], inp: str, out_h: str, out_v: str):
    """``apply_pbs`` on ``tab``'s ids, as a relabel."""
    _require_distinct("pbs", inp=inp, out_h=out_h, out_v=out_v)
    return _relabel(tab, terms, tab.stage("pbs split", inp, out_h, out_v), _pbs_rules(inp, out_h, inp, out_v))


def apply_pbs(state: State, inp: str, out_h: str, out_v: str) -> State:
    """Polarizing splitter: H component of ``inp`` to ``out_h``, V to ``out_v``."""
    tab = PatternTable()
    return tab.state(split_terms(tab, tab.of(state), inp, out_h, out_v))


def merge_relabels(tab: PatternTable, ids, in_h: str, in_v: str, out: str) -> dict:
    """The ``pbs merge`` stage, holding the relabel of each of ``ids``; raises as ``merge_terms``
    raises on a state over ``ids``, an id's ports checked when first seen."""
    _require_distinct("pbs merge", in_h=in_h, in_v=in_v, out=out)
    stage = tab.stage("pbs merge", in_h, in_v, out)
    for p in ids:
        if p not in stage:
            for (sp, pol), _n in tab.patterns[p]:
                if (sp, pol) in ((in_h, "V"), (in_v, "H")):
                    raise PortContractError(f"pbs merge: input {sp!r} carries {pol} amplitude")
    _relabel(tab, dict.fromkeys(ids, 0j), stage, _pbs_rules(in_h, out, in_v, out))
    return stage


def merge_terms(tab: PatternTable, terms: Mapping[int, complex], in_h: str, in_v: str, out: str):
    """``apply_pbs_merge`` on ``tab``'s ids, as a relabel."""
    return _relabel(tab, terms, merge_relabels(tab, terms, in_h, in_v, out), _pbs_rules(in_h, out, in_v, out))


def apply_pbs_merge(state: State, in_h: str, in_v: str, out: str) -> State:
    """Polarizing combiner: H from ``in_h`` and V from ``in_v`` into ``out``.

    Raises PortContractError if the state carries V amplitude on ``in_h`` or
    H amplitude on ``in_v``; those photons would exit the unmonitored port.
    """
    tab = PatternTable()
    return tab.state(merge_terms(tab, tab.of(state), in_h, in_v, out))


def bs_matrix() -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Rows are inputs, columns outputs, of the 50:50 convention."""
    ph = BS_IN2_PHASE
    return (
        (_INV_SQRT2, -_INV_SQRT2),
        (ph * _INV_SQRT2, ph * _INV_SQRT2),
    )


@functools.lru_cache(maxsize=256)
def _bs_rules(in1: str, in2: str, out1: str, out2: str, matrix) -> CheckedRules:
    if in1 == in2 or out1 == out2:
        raise PortContractError("bs: input ports and output ports must each be distinct")
    (r11, r12), (r21, r22) = matrix
    rules: dict[Mode, list[tuple[Mode, complex]]] = {}
    for pol in POLARIZATIONS:
        rules[(in1, pol)] = [((out1, pol), r11), ((out2, pol), r12)]
        rules[(in2, pol)] = [((out1, pol), r21), ((out2, pol), r22)]
    return CheckedRules(rules)


def bs_rules(in1: str, in2: str, out1: str, out2: str) -> CheckedRules:
    """The balanced coupler at the matrix in force now (see ``BS_IN2_PHASE``)."""
    return _bs_rules(in1, in2, out1, out2, bs_matrix())


def apply_bs(state: State, in1: str, in2: str, out1: str, out2: str) -> State:
    """Balanced coupler on two spatial modes, polarization preserved."""
    return apply_mode_transform(state, bs_rules(in1, in2, out1, out2))


def vbs_pair(t: float) -> tuple[float, float]:
    """``(sqrt(1-t), sqrt(t))`` once ``t`` passes the coupler's range and isometry checks."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"vbs transmittance must lie in [0, 1], got {t}")
    r = math.sqrt(1.0 - t)
    s = math.sqrt(t)
    if abs(r * r + s * s - 1.0) > ISOMETRY_TOL:  # the H and V columns share no output
        raise IsometryError(f"vbs column norm {r * r + s * s}, expected 1")
    return r, s


def vbs_ports(inp: str, reflect: str, transmit: str) -> None:
    """The variable coupler's port check: the three ports are distinct."""
    _require_distinct("vbs", inp=inp, reflect=reflect, transmit=transmit)


def vbs_coefficients(inp: str, reflect: str, transmit: str, t: float) -> tuple[float, float]:
    """``vbs_pair(t)`` once the ports pass ``vbs_ports`` too."""
    pair = vbs_pair(t)
    vbs_ports(inp, reflect, transmit)
    return pair


def vbs_rules(inp: str, reflect: str, transmit: str, t: float) -> CheckedRules:
    r, s = vbs_coefficients(inp, reflect, transmit, t)
    rules = {(inp, pol): [((reflect, pol), r), ((transmit, pol), s)] for pol in POLARIZATIONS}
    return CheckedRules(rules)


def apply_vbs(state: State, inp: str, reflect: str, transmit: str, t: float) -> State:
    """Variable coupler: sqrt(1-t) to ``reflect``, sqrt(t) to ``transmit``."""
    return apply_mode_transform(state, vbs_rules(inp, reflect, transmit, t))


def apply_phase_flip(state: State, spatial: str) -> State:
    """Negate every term holding an odd photon count in ``spatial``."""
    return State._trusted({
        p: -a if pattern_count(p, spatial) % 2 else a for p, a in state.items()
    })
