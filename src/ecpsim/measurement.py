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
from typing import Mapping, Sequence

from .dsl import DetectDecl
from .fock import PRUNE_EPS, Pattern, PatternTable, PolarizationMixtureError, State, prune
from .record import Frozen

MIXTURE = "outputs that differ only in an absorbed photon's polarization leave a mixture, not a state"


class DetectorModel(Frozen):
    """Per-photon detection efficiency ``eta_p``.

    Heralding multiplies success probabilities by ``eta_p`` once per
    detector group that must click (a group's own ``eta`` replaces it).
    """

    def __init__(self, eta_p: float = 1.0):
        if not 0.0 <= eta_p <= 1.0:
            raise ValueError(f"eta_p must lie in [0, 1], got {eta_p}")
        self.__dict__["eta_p"] = eta_p


IDEAL_DETECTORS = DetectorModel(eta_p=1.0)


class HeraldOutcome(Frozen):
    """One detector click pattern and what it leaves behind.

    ``clicks`` maps detector modes to photon counts (zero counts omitted).
    ``weight`` is the squared norm of the matching component before any
    efficiency factor; ``probability`` includes the analytic efficiency
    factor for success outcomes.  ``residual`` is normalized (empty when the
    detectors swallowed everything); ``correction`` lists the spatial modes
    whose phase must be flipped, already determined by the click pattern but
    not yet applied.
    """

    __slots__ = ("clicks", "weight", "probability", "success", "correction", "residual")

    def __init__(self, clicks: tuple[tuple[str, int], ...], weight: float, probability: float, success: bool,
                 correction: tuple[str, ...] = (), residual: State | None = None):
        self._set(clicks, weight, probability, success, correction, State() if residual is None else residual)


def detection_factor(groups: Sequence[DetectDecl], model: DetectorModel) -> float:
    """The efficiency factor of a success: one per group that must click."""
    factor = 1.0
    for g in groups:
        factor *= model.eta_p if g.eta is None else g.eta
    return factor


def herald_terms(tab: PatternTable, terms, groups, corrections) -> list[tuple]:
    """``herald`` on ``tab``'s ids: ``(clicks, weight, success, correction, component)``
    per signature, in order, ``component`` listing ``(residual id, amplitude)``; every signature
    counts, where ``herald`` drops those of weight at most ``PRUNE_EPS``²."""
    detectors = [d for g in groups for d in g.modes]
    index = {d: i for i, d in enumerate(detectors)}
    buckets: dict[tuple[tuple[str, int], ...], list[tuple[int, complex]]] = {}
    for p, amp in terms.items():
        clicks = [0] * len(detectors)
        kept = []
        for entry in tab.patterns[p]:  # ((spatial, pol), count)
            i = index.get(entry[0][0])
            if i is None:
                kept.append(entry)
            else:
                clicks[i] += entry[1]
        sig = tuple((d, n) for d, n in zip(detectors, clicks) if n)
        buckets.setdefault(sig, []).append((tab.intern(tuple(kept)), amp))
    outcomes = []
    for sig in sorted(buckets):
        component = buckets[sig]
        weight = sum([(m := abs(a)) * m for _, a in component])
        counts = dict(sig)
        success = all(sum(counts.get(d, 0) for d in g.modes) == 1 for g in groups)
        corr = sorted(corrections[d] for d, _ in sig if d in corrections) if success else ()
        outcomes.append((sig, weight, success, tuple(corr), component))
    return outcomes


def residual(component: list[tuple[int, complex]], weight: float) -> dict[int, complex]:
    """What the detectors did not absorb, normalized: ``HeraldOutcome.residual``.
    Two outputs of one signature with one residual raise PolarizationMixtureError."""
    terms = dict(component)
    if len(terms) < len(component):
        raise PolarizationMixtureError(MIXTURE)
    down = 1.0 / math.sqrt(weight)
    return prune({q: a * down for q, a in prune(terms).items()})


def herald(
    state: State,
    groups: Sequence[DetectDecl],
    model: DetectorModel = IDEAL_DETECTORS,
    corrections: Mapping[str, str] | None = None,
) -> list[HeraldOutcome]:
    """Enumerate click patterns over the union of detector groups.

    An outcome is a success when every group individually sees exactly one
    click.  ``corrections`` maps a detector mode to the spatial mode
    that needs a phase flip when that detector fires.  Outcomes are sorted
    by click signature; their weights partition the input's squared norm.
    Raises ValueError if a group repeats a mode.
    """
    for g in groups:
        if len(set(g.modes)) != len(g.modes):
            raise ValueError(f"detector group {g.group!r} repeats a mode")
    factor = detection_factor(groups, model)
    tab = PatternTable()
    return [
        HeraldOutcome(sig, w, w * (factor if ok else 1.0), ok, corr, tab.state(residual(comp, w)))
        for sig, w, ok, corr, comp in herald_terms(tab, tab.of(state), groups, corrections or {})
        if w > PRUNE_EPS * PRUNE_EPS
    ]


def qnd_class(pattern: Pattern, mode_a: str, mode_b: str) -> int:
    """|n_a - n_b| of one term."""
    diff = 0
    for (sp, _), n in pattern:
        if sp == mode_a:
            diff += n
        if sp == mode_b:
            diff -= n
    return abs(diff)


def qnd_component(state: State, mode_a: str, mode_b: str, cls: int) -> State:
    """Unnormalized restriction to |n_a - n_b| == cls; both signs survive coherently."""
    return state.filtered(lambda p: qnd_class(p, mode_a, mode_b) == cls)
