"""Run results and their stable JSON form: a fixed field order and Python's
shortest float repr, so identical runs give identical bytes, which tests and
the command line rely on.  ``to_json`` lays out one text template per report
shape (strings, keys, lengths) and fills in the numbers: ``json.dumps`` bytes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import index


@dataclass(frozen=True, init=False)
class RoundResult:
    """One recycling round (k counts from 1).

    ``t`` is the V-routed arm's coupler transmittance for the round (the
    full per-arm schedules live on the report).  ``p_success`` and
    ``p_fail_recyclable`` are absolute probabilities, summed over arms in
    per-branch accounting.  ``heralded_fidelity`` is the worst fidelity of
    the corrected output over the round's successful click patterns, or
    None when the round cannot succeed at all (its ``p_success`` is 0).
    """

    k: int
    t: float | None
    p_success: float
    p_fail_recyclable: float
    heralded_fidelity: float | None

    def __init__(self, k, t, p_success, p_fail_recyclable, heralded_fidelity):
        # the fields go straight into the instance dict, in field order, without the frozen
        # class's object.__setattr__ per field
        fields = self.__dict__
        fields["k"], fields["t"], fields["p_success"] = k, t, p_success
        fields["p_fail_recyclable"], fields["heralded_fidelity"] = p_fail_recyclable, heralded_fidelity


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
_PLAIN = {float, int, bool, type(None)}  # the types whose repr json.dumps writes
_TEMPLATES: dict[tuple, list] = {}  # report shape -> JSON text pieces, None where a number goes


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
        """``json.dumps(self, indent=2, default=vars)`` and a newline: the template of the
        report's shape (its strings, keys and lengths) filled with its numbers in order."""
        schedule, rounds, comparison = self.schedule, self.rounds, self.paper_comparison
        numbers = [
            self.alpha_sq, self.gamma_sq, self.eta_p, *chain.from_iterable(schedule.values()),
            *chain.from_iterable(map(dict.values, map(vars, rounds))), self.p_total, self.engine.eta_exponent,
            self.seed, self.trials, self.stderr, *chain.from_iterable(map(dict.values, comparison.values())),
        ]
        if not _PLAIN.issuperset(map(type, numbers)):  # a subclass writes as its base type
            numbers = [x if x is None or type(x) is bool else float(x) if isinstance(x, float) else index(x)
                       for x in numbers]
        shape = (
            self.protocol, self.accounting, self.engine.kind, tuple(schedule),
            tuple(map(len, schedule.values())), len(rounds), tuple(comparison),
            tuple(map(tuple, comparison.values())),
        )
        template = _TEMPLATES.get(shape)
        if template is None:  # the first report of its shape lays the text out
            if len(_TEMPLATES) >= 256:
                del _TEMPLATES[next(iter(_TEMPLATES))]
            pieces = list(map(sys.intern, (_layout(self, "\n") + "\n").split("\0")))  # no NUL escaped
            template = _TEMPLATES[shape] = [None] * (2 * len(pieces) - 1)
            template[::2] = pieces  # interned: a deep report repeats a few pieces many times
        out = [template[0]]  # by chunks: a deep report never holds every number's text at once
        for i in range(0, len(numbers), 4096):
            texts = list(map(repr, numbers[i:i + 4096]))
            parts = template[2 * i + 1:2 * (i + len(texts)) + 1]
            parts[::2] = map(_LITERALS.get, texts, texts)
            out.append("".join(parts))
        return "".join(out)


def _layout(obj, newline: str) -> str:
    """``json.dumps(obj, indent=2, default=vars)`` with a NUL for each number (or None);
    ``newline`` holds the current indent."""
    if isinstance(obj, (float, int)) or obj is None:
        return "\0"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if not isinstance(obj, (dict, list)):  # the report dataclasses
        obj = vars(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = newline + "  "
    if isinstance(obj, dict):
        items = [f"{inner}{encode_basestring_ascii(k)}: {_layout(v, inner)}" for k, v in obj.items()]
        return "{" + ",".join(items) + newline + "}"
    return "[" + ",".join([inner + _layout(v, inner) for v in obj]) + newline + "]"
