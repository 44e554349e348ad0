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
oracle both run on the ``Layout`` it returns, so this module imports
only the standard library and the parser.
"""

from __future__ import annotations

import functools
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
)

BUILTIN_NAMES = ("ecp1", "ecp2", "ecp1_stripped", "ecp2_stripped")


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


def _photon_groups(doc: CircuitDoc) -> list[list[SourceDecl]]:
    groups: dict[object, list[SourceDecl]] = {}
    for i, st in enumerate(doc.statements):
        if isinstance(st, SourceDecl):
            key = st.photon if st.photon is not None else ("#anon", i)
            groups.setdefault(key, []).append(st)
    return list(groups.values())


def layout(doc: CircuitDoc) -> Layout:
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

    claimed_bs: set[int] = set()
    claimed_qnd: set[int] = set()
    claimed_detect: set[int] = set()
    arms: list[Arm] = []
    for i, v in enumerate(vbs_list):
        touching = [(j, b) for j, b in enumerate(bs_list) if v.reflect in (b.in1, b.in2)]
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
        claimed_qnd.update(qi for qi, q in enumerate(qnd_list) if q in qnds)
        qnd = qnds[0] if qnds else None
        sgroup = _group_for(detect_list, sbs, claimed_detect)
        flips = {f.when: f.mode for f in flip_list if f.when in sgroup.modes}
        arm = Arm(
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
        by_mode = {a.signal_mode: a for a in arms}
        if by_mode.keys() != {split.out_h, split.out_v}:
            raise TopologyError("two arms need one polarizing split output each")
        plus, minus = by_mode[split.out_v], by_mode[split.out_h]
        plus.label, minus.label = "plus", "minus"
        arms = [plus, minus]
    else:
        arms[0].label = "plus"

    if len({a.recycle_bs is None for a in arms}) != 1:
        raise TopologyError("either every arm recycles or none does")

    with_qnd = sum(a.qnd is not None for a in arms)
    if with_qnd == 0:
        protocol = "ecp1"
    else:
        protocol = "ecp2" if with_qnd == len(arms) else "custom"
    has_recycling = any(a.recycle_bs for a in arms)
    return Layout(signal_sources, split, arms, merge, outputs, protocol, has_recycling)


def _group_for(detect_list: list[DetectDecl], bs: BsDecl, claimed: set[int]) -> DetectDecl:
    wanted = {bs.out1, bs.out2}
    for i, g in enumerate(detect_list):
        if set(g.modes) == wanted:
            if len(g.modes) != len(wanted):
                raise TopologyError(f"detector group {g.group!r} repeats a mode")
            if i in claimed:
                raise TopologyError(f"detector group {g.group!r} claimed twice")
            claimed.add(i)
            return g
    raise TopologyError(f"no detector group covers coupler outputs {sorted(wanted)}")
