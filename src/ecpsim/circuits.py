"""Builtin concentration circuits, shipped as ``.ecp`` files.

The files next to this module in ``circuits/`` are the one source of the
shipped layouts; ``builtin_doc`` parses one on first use and hands out the
same immutable document afterwards.  Mode naming follows the wiring
diagrams: ``a1`` is the kept spectator mode, ``b1`` the far-end signal
input split by polarization into ``b2``/``b3``, each arm consumes an
auxiliary photon through a variable coupler, and ``b10`` is the recombined
output.  ``d*`` are detectors.

Four documents:

* ``ecp1``: single-round linear-optics concentration, two arms.
* ``ecp2``: nondemolition-assisted concentration with recycling couplers,
  two arms.
* ``ecp1_stripped`` / ``ecp2_stripped``: one-arm variants without the
  polarization degree of freedom (the signal is V-polarized throughout);
  these realize the reference series the closed-form totals describe.

``layout`` recognizes the concentration topology in any document, shipped
or not: optional polarizing split, one or two arms of variable coupler +
optional nondemolition comparison + heralding coupler + feed-forward flip,
optional recycling coupler, optional polarizing merge.  A document that
does not fit this shape, including one with no variable coupler arm, is
rejected with a ``TopologyError``.  The exact engine and the path-sum
oracle both run on the ``Layout`` it returns, its wiring included, so this
module imports only the standard library and the parser.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import resources

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
    parse,
    parse_expr,
)

BUILTIN_NAMES = ("ecp1", "ecp2", "ecp1_stripped", "ecp2_stripped")
_PLANNED = {"t1": 0, "t_plus": 0, "t2": 1, "t_minus": 1}  # which planned schedule a parameter is


@functools.cache
def builtin_doc(name: str) -> CircuitDoc:
    """The parsed shipped layout (cached: documents are immutable)."""
    return parse(builtin_text(name))


def builtin_text(name: str) -> str:
    """Content of the shipped ``.ecp`` file for a builtin circuit."""
    if name not in BUILTIN_NAMES:
        raise KeyError(f"no builtin circuit {name!r}; have {BUILTIN_NAMES}")
    return (
        resources.files(__package__).joinpath("circuits").joinpath(f"{name}.ecp").read_text()
    )


class TopologyError(CircuitError):
    """The document does not describe a supported concentration layout."""


@dataclass
class Arm:
    label: str
    signal_mode: str
    aux_sources: list[SourceDecl]
    vbs: VbsDecl
    qnd: QndDecl | None
    success_bs: BsDecl
    success_group: DetectDecl
    flips: dict[str, str]
    planned: int | None  # 0 where the coupler reads t1/t_plus bare, 1 where t2/t_minus, else None
    recycle_bs: BsDecl | None = None
    recycle_group: DetectDecl | None = None
    recycle_flips: dict[str, str] = field(default_factory=dict)


@dataclass
class Layout:
    signal_sources: list[SourceDecl]
    split: PbsSplitDecl | None
    arms: list[Arm]  # the plus arm first
    merge: PbsMergeDecl | None
    outputs: tuple[str, ...]
    protocol: str  # ecp1 where no arm has a nondemolition comparison, ecp2 where all do, else custom
    has_recycling: bool


def layout(doc: CircuitDoc) -> Layout:
    """Recognize the concentration topology; raise TopologyError otherwise."""
    by_type: defaultdict[type, list] = defaultdict(list)  # the statements by type, in order
    photons: dict[object, list[SourceDecl]] = {}  # by photon name; an unnamed source by its index
    for i, st in enumerate(doc.statements):
        if isinstance(st, SourceDecl):
            photons.setdefault(i if st.photon is None else st.photon, []).append(st)
        by_type[type(st)].append(st)
    splits, merges = by_type[PbsSplitDecl], by_type[PbsMergeDecl]
    outputs = doc.output_modes()

    if not by_type[VbsDecl]:
        raise TopologyError("circuit has no variable coupler arms")

    # attach one auxiliary photon to each coupler arm; the one photon left is the signal
    remaining = list(photons.values())
    aux_of = []
    for v in by_type[VbsDecl]:
        matches = [g for g in remaining if {s.mode for s in g} == {v.inp}]
        if len(matches) != 1:
            raise TopologyError(
                f"variable coupler on {v.inp!r} needs exactly one dedicated source photon"
            )
        aux_of.append(matches[0])
        remaining.remove(matches[0])
    if len(remaining) != 1:
        raise TopologyError(f"expected exactly one signal photon, found {len(remaining)}")
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

    claimed: set[int] = set()  # the statements an arm attaches, by identity

    def claim(st):
        claimed.add(id(st))
        return st

    def unclaimed(kind: type) -> bool:
        # counted per listed statement, so one object listed twice leaves a copy unclaimed
        return len(claimed & {id(st) for st in by_type[kind]}) != len(by_type[kind])

    def group_for(bs: BsDecl) -> DetectDecl:
        wanted = {bs.out1, bs.out2}
        for g in by_type[DetectDecl]:
            if set(g.modes) == wanted:
                if len(g.modes) != len(wanted):
                    raise TopologyError(f"detector group {g.group!r} repeats a mode")
                if id(g) in claimed:
                    raise TopologyError(f"detector group {g.group!r} claimed twice")
                return claim(g)
        raise TopologyError(f"no detector group covers coupler outputs {sorted(wanted)}")

    def flips(group: DetectDecl) -> dict[str, str]:
        return {f.when: f.mode for f in by_type[FlipDecl] if f.when in group.modes}

    arms: list[Arm] = []
    for v, aux in zip(by_type[VbsDecl], aux_of):
        touching = [b for b in by_type[BsDecl] if v.reflect in (b.in1, b.in2)]
        success = [b for b in touching if v.transmit not in (b.in1, b.in2)]
        recycle = [b for b in touching if v.transmit in (b.in1, b.in2)]
        if len(success) != 1 or len(recycle) > 1:
            raise TopologyError(
                f"arm at coupler {v.inp!r}: expected one heralding coupler "
                f"and at most one recycling coupler on {v.reflect!r}"
            )
        sbs = claim(success[0])
        signal_mode = sbs.in2 if sbs.in1 == v.reflect else sbs.in1
        allowed = {split.out_h, split.out_v} if split else signal_support
        if signal_mode not in allowed:
            raise TopologyError(
                f"heralding coupler input {signal_mode!r} is not a signal-side mode"
            )
        qnds = [q for q in by_type[QndDecl] if {q.a, q.b} == {signal_mode, v.reflect}]
        if len(qnds) > 1:
            raise TopologyError(f"duplicate nondemolition comparison on arm {signal_mode!r}")
        qnd = claim(qnds[0]) if qnds else None
        sgroup = group_for(sbs)
        node = parse_expr(v.t)
        arm = Arm(
            label="",
            signal_mode=signal_mode,
            aux_sources=aux,
            vbs=v,
            qnd=qnd,
            success_bs=sbs,
            success_group=sgroup,
            flips=flips(sgroup),
            planned=_PLANNED.get(node[1]) if node[0] == "var" else None,
        )
        if recycle:
            if qnd is None:
                raise TopologyError(
                    "recycling coupler requires a nondemolition comparison on the arm"
                )
            arm.recycle_bs = claim(recycle[0])
            group = arm.recycle_group = group_for(arm.recycle_bs)
            if group.eta not in (None, 1.0):  # a recycle detection is ideal by convention
                raise TopologyError(
                    f"recycling detector group {group.group!r} sets eta={group.eta}; "
                    "recycle detectors are ideal (eta=1.0)"
                )
            arm.recycle_flips = flips(group)
        arms.append(arm)

    if unclaimed(BsDecl):
        raise TopologyError("coupler not attached to any arm")
    if unclaimed(QndDecl):
        raise TopologyError("nondemolition comparison not attached to any arm")
    if unclaimed(DetectDecl):
        raise TopologyError("detector group not attached to any arm")
    if len(arms) > 2:
        raise TopologyError(f"more than two arms ({len(arms)})")
    if len(arms) == 2:
        if split is None:
            raise TopologyError("two arms need a polarizing split")
        if merge is None:
            raise TopologyError("two arms need a polarizing merge")
        by_mode = {a.signal_mode: a for a in arms}
        if by_mode.keys() != {split.out_h, split.out_v}:
            raise TopologyError("two arms need one polarizing split output each")
        arms = [by_mode[split.out_v], by_mode[split.out_h]]
    for arm, label in zip(arms, ("plus", "minus")):
        arm.label = label

    if len({a.recycle_bs is None for a in arms}) != 1:
        raise TopologyError("either every arm recycles or none does")
    has_recycling = arms[0].recycle_bs is not None

    with_qnd = sum(a.qnd is not None for a in arms)
    if with_qnd == 0:
        protocol = "ecp1"
    else:
        protocol = "ecp2" if with_qnd == len(arms) else "custom"
    return Layout(signal_sources, split, arms, merge, outputs, protocol, has_recycling)
