"""Photon-number detection, heralding, and nondemolition comparison.

Heralding enumerates the distinct detector click patterns a state supports,
tags each as success or failure against the one per-group requirement,
``exactly_one`` (a single photon at a single detector of the group, none at
the others; a two-photon bunch is a failure), and returns the collapsed
residual together with any feed-forward phase correction the pattern calls
for.  Probabilities are squared norms, so feeding an unnormalized branch
component yields absolute branch probabilities directly.

Detector inefficiency enters here as an analytic factor ``eta_p`` per
required click multiplied onto success probabilities; per-photon Bernoulli
thinning lives in the Monte Carlo sampler, which starts from ideal-detector
runs.

The nondemolition comparison projects onto classes of the absolute photon
number difference between two spatial modes, modeling a dispersive probe
that reads out |n_a - n_b| but cannot sign it.  Within a class the
superposition survives untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .fock import PRUNE_EPS, Pattern, State
from .elements import apply_phase_flip


@dataclass(frozen=True)
class DetectorModel:
    """Per-photon detection efficiency ``eta_p``.

    Heralding multiplies success probabilities by ``eta_p`` once per
    detector group that must click (a group's own ``eta`` replaces it).
    """

    eta_p: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.eta_p <= 1.0:
            raise ValueError(f"eta_p must lie in [0, 1], got {self.eta_p}")


IDEAL_DETECTORS = DetectorModel(eta_p=1.0)


@dataclass(frozen=True)
class DetectorGroup:
    """A named set of detectors that succeeds on exactly one click.

    ``eta`` overrides the run-level detector efficiency for this group when
    set (the recycling detectors of the nondemolition protocol are modeled
    as ideal, for instance).
    """

    name: str
    modes: tuple[str, ...]
    eta: float | None = None

    def __post_init__(self):
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"detector group {self.name!r} repeats a mode")


@dataclass(frozen=True)
class HeraldOutcome:
    """One detector click pattern and what it leaves behind.

    ``clicks`` maps detector modes to photon counts (zero counts omitted).
    ``weight`` is the squared norm of the matching component before any
    efficiency factor; ``probability`` includes the analytic efficiency
    factor for success outcomes.  ``residual`` is normalized (empty when the
    detectors swallowed everything); ``correction`` lists the spatial modes
    whose phase must be flipped, already determined by the click pattern but
    not yet applied.
    """

    clicks: tuple[tuple[str, int], ...]
    weight: float
    probability: float
    success: bool
    correction: tuple[str, ...] = ()
    residual: State = field(default_factory=State)

    def corrected_residual(self) -> State:
        s = self.residual
        for m in self.correction:
            s = apply_phase_flip(s, m)
        return s

    def corrected_raw(self) -> State:
        """Correction applied to the unnormalized component (weight kept)."""
        return self.corrected_residual().scaled(math.sqrt(self.weight))


def herald(
    state: State,
    groups: Sequence[DetectorGroup],
    model: DetectorModel = IDEAL_DETECTORS,
    corrections: Mapping[str, str] | None = None,
) -> list[HeraldOutcome]:
    """Enumerate click patterns over the union of detector groups.

    An outcome is a success when every group individually sees exactly one
    click.  ``corrections`` maps a detector mode to the spatial mode
    that needs a phase flip when that detector fires.  Outcomes are sorted
    by click signature; their weights partition the input's squared norm.
    """
    corrections = corrections or {}
    all_detectors: list[str] = []
    for g in groups:
        all_detectors.extend(g.modes)
    index = {d: i for i, d in enumerate(all_detectors)}
    # click signature -> [(residual pattern, amplitude), ...] in state order
    buckets: dict[tuple[tuple[str, int], ...], list[tuple[Pattern, complex]]] = {}
    for pattern, amp in state.items():
        clicks = [0] * len(all_detectors)
        kept = []
        for entry in pattern:  # ((spatial, pol), count)
            i = index.get(entry[0][0])
            if i is None:
                kept.append(entry)
            else:
                clicks[i] += entry[1]
        sig = tuple((d, n) for d, n in zip(all_detectors, clicks) if n)
        buckets.setdefault(sig, []).append((tuple(kept), amp))
    outcomes = []
    for sig in sorted(buckets):
        component = buckets[sig]
        weight = sum(abs(a) ** 2 for _, a in component)
        if weight <= PRUNE_EPS**2:
            continue
        counts = dict(sig)
        success = True
        factor = 1.0
        for g in groups:
            in_group = {d: counts.get(d, 0) for d in g.modes}
            if sum(in_group.values()) != 1:
                success = False
            factor *= model.eta_p if g.eta is None else g.eta
        corr = tuple(
            sorted(corrections[d] for d, _ in sig if d in corrections)
        )
        # the residual keeps what the detectors did not absorb
        residual_terms: dict[Pattern, complex] = {}
        for kept, amp in component:
            residual_terms[kept] = residual_terms.get(kept, 0j) + amp
        residual = State._trusted(residual_terms).scaled(1.0 / math.sqrt(weight))
        probability = weight * (factor if success else 1.0)
        outcomes.append(
            HeraldOutcome(
                clicks=sig,
                weight=weight,
                probability=probability,
                success=success,
                correction=corr if success else (),
                residual=residual,
            )
        )
    return outcomes


def qnd_component(state: State, mode_a: str, mode_b: str, cls: int) -> State:
    """Unnormalized restriction to |n_a - n_b| == cls; both signs survive coherently."""
    kept = {}
    for pattern, amp in state.items():
        diff = 0
        for (sp, _), n in pattern:
            if sp == mode_a:
                diff += n
            if sp == mode_b:
                diff -= n
        if abs(diff) == cls:
            kept[pattern] = amp
    return State._trusted(kept)
