"""Run results and their stable JSON form.

The JSON document has a fixed field order and uses Python's shortest float
repr, so identical runs produce identical bytes; tests and the command line
both rely on that.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class RoundResult:
    """One recycling round (k counts from 1).

    ``t`` is the V-routed arm's coupler transmittance for the round (the
    full per-arm schedules live on the report).  ``p_success`` and
    ``p_fail_recyclable`` are absolute probabilities, summed over arms in
    per-branch accounting.  ``heralded_fidelity`` is the worst fidelity of
    the corrected output over the round's successful click patterns, or
    None when the round cannot succeed at all.
    """

    k: int
    t: float | None
    p_success: float
    p_fail_recyclable: float
    heralded_fidelity: float | None


@dataclass(frozen=True)
class EngineInfo:
    """Provenance: which evaluation path produced the numbers.

    ``eta_exponent`` is the power of the detector efficiency applied to each
    round's success probability (number of detector groups that must click:
    one per arm heralding, recycle detections are ideal by convention).
    """

    kind: str
    eta_exponent: int

    def __post_init__(self):
        if self.kind not in ("exact", "monte_carlo"):
            raise ValueError(f"unknown engine kind {self.kind!r}")


def comparison_entry(paper_value: float, simulated_value: float) -> dict[str, float]:
    return {
        "paper_value": paper_value,
        "simulated_value": simulated_value,
        "delta": simulated_value - paper_value,
    }


# The field order of ProtocolReport, RoundResult and EngineInfo is the JSON
# key order of the report: ``to_json`` writes each object's fields as declared.
@dataclass
class ProtocolReport:
    protocol: str
    accounting: str
    alpha_sq: float | None
    gamma_sq: float | None
    eta_p: float
    schedule: dict[str, list[float]]
    rounds: list[RoundResult]
    p_total: float
    engine: EngineInfo
    seed: int | None = None
    trials: int | None = None
    stderr: float | None = None
    paper_comparison: dict[str, dict[str, float]] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(self, indent=2, default=vars) + "\n"
