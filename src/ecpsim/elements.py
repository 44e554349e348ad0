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
of a mode to one mode at coefficient 1 and keep every occupation count, so
on a ``PatternTable`` they run as a relabel of ids that leaves amplitudes
unchanged (``split_terms``, ``merge_terms``); the couplers run as transforms.
"""

from __future__ import annotations

import math
from typing import Mapping

from .fock import (
    COLLISION,
    ISOMETRY_TOL,
    IsometryError,
    Mode,
    ModeCollisionError,
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


def _require_distinct(kind: str, **ports: str) -> None:
    seen: set[str] = set()
    for spatial in ports.values():
        if spatial in seen:
            raise PortContractError(f"{kind}: ports must be distinct, {spatial!r} repeats")
        seen.add(spatial)


def _relabel(tab: PatternTable, terms: Mapping[int, complex], moves: dict[Mode, Mode]) -> dict[int, complex]:
    """``terms`` with each mode of ``moves`` renamed, amplitudes unchanged: the transform of
    ``moves`` at coefficient 1, whose ``sqrt(N_out!) / sqrt(n_in!)`` is 1 on every id.  One to
    one, so the ids keep their order; an occupied mode that ``moves`` also targets raises the
    transform's ModeCollisionError."""
    targets = set(moves.values())
    out = {}
    for p, a in terms.items():
        counts = []
        for m, n in tab.patterns[p]:
            if m in moves:
                m = moves[m]
            elif m in targets:
                raise ModeCollisionError(COLLISION)
            counts.append((m, n))
        out[tab.intern(tuple(sorted(counts)))] = a
    return out


def split_terms(tab: PatternTable, terms: Mapping[int, complex], inp: str, out_h: str, out_v: str):
    """``apply_pbs`` on ``tab``'s ids, as a relabel."""
    _require_distinct("pbs", inp=inp, out_h=out_h, out_v=out_v)
    return _relabel(tab, terms, {(inp, "H"): (out_h, "H"), (inp, "V"): (out_v, "V")})


def apply_pbs(state: State, inp: str, out_h: str, out_v: str) -> State:
    """Polarizing splitter: H component of ``inp`` to ``out_h``, V to ``out_v``."""
    tab = PatternTable()
    return tab.state(split_terms(tab, tab.of(state), inp, out_h, out_v))


def merge_terms(tab: PatternTable, terms: Mapping[int, complex], in_h: str, in_v: str, out: str):
    """``apply_pbs_merge`` on ``tab``'s ids, as a relabel, once every id passes the port check."""
    _require_distinct("pbs merge", in_h=in_h, in_v=in_v, out=out)
    for p in terms:
        for (sp, pol), _n in tab.patterns[p]:
            if (sp, pol) in ((in_h, "V"), (in_v, "H")):
                raise PortContractError(f"pbs merge: input {sp!r} carries {pol} amplitude")
    return _relabel(tab, terms, {(in_h, "H"): (out, "H"), (in_v, "V"): (out, "V")})


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


def bs_rules(in1: str, in2: str, out1: str, out2: str) -> CheckedRules:
    """The balanced coupler at the matrix in force now (see ``BS_IN2_PHASE``)."""
    if in1 == in2 or out1 == out2:
        raise PortContractError("bs: input ports and output ports must each be distinct")
    (r11, r12), (r21, r22) = bs_matrix()
    rules: dict[Mode, list[tuple[Mode, complex]]] = {}
    for pol in POLARIZATIONS:
        rules[(in1, pol)] = [((out1, pol), r11), ((out2, pol), r12)]
        rules[(in2, pol)] = [((out1, pol), r21), ((out2, pol), r22)]
    return CheckedRules(rules)


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


def vbs_rules(inp: str, reflect: str, transmit: str, t: float) -> CheckedRules:
    r, s = vbs_pair(t)
    vbs_ports(inp, reflect, transmit)
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
