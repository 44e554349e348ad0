"""Run results and their stable JSON form.

The JSON document has a fixed field order and uses Python's shortest float
repr, so identical runs produce identical bytes; tests and the command line
both rely on that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii


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


_LITERALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity",
             "None": "null", "True": "true", "False": "false"}


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
        return _json(self, "\n") + "\n"


def _json(obj, newline: str) -> str:
    """``json.dumps(obj, indent=2, default=vars)``, which with an indent never
    takes the C encoder; ``newline`` holds the current indent."""
    if isinstance(obj, (float, int)) or obj is None:  # bool is an int
        text = float.__repr__(obj) if isinstance(obj, float) else repr(obj)
        return _LITERALS.get(text, text)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if not isinstance(obj, (dict, list, tuple)):  # the report dataclasses
        obj = vars(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = newline + "  "
    if isinstance(obj, dict):
        items = [f"{inner}{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in obj.items()]
        return "{" + ",".join(items) + newline + "}"
    return "[" + ",".join([inner + _json(v, inner) for v in obj]) + newline + "]"
