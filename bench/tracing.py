"""Outside-in span tracing of ecpsim's public functions.

``Tracer`` wraps each function in ``LAYERS`` for the duration of a ``with``
block and restores every name afterwards.  Code such as ``from .fock import
tensor`` binds the function into the importing module, so the wrapper is
installed in every ``ecpsim`` module namespace that holds the original, not
only in the defining module.

Each call records one span ``(layer, cover_start, start, end, cover_end,
parent)`` in an in-memory array.  ``[start, end]`` is the call itself; the
wider cover interval also holds the wrapper's counter bookkeeping (norms and
term counts taken from ``State`` arguments and results), which is charged to
the tracer rather than to the layer or to its caller.  A span's self time is
its duration minus the cover intervals of its children, so

    sum(self time) + tracer bookkeeping + unwrapped remainder == traced wall

holds by construction; ``summarize`` checks that every part is nonnegative,
which fails if spans overlap or escape the timed calls.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable


def _transform_counts(args, kwargs, result, acc):
    state = args[0]
    acc["terms_in"] += state.num_terms
    acc["terms_out"] += result.num_terms
    acc["mass_lost"] += state.norm_sq() - result.norm_sq()


def _tensor_counts(args, kwargs, result, acc):
    acc["terms_out"] += result.num_terms


def _herald_counts(args, kwargs, result, acc):
    state = args[0]
    acc["terms_in"] += state.num_terms
    acc["outcomes"] += len(result)
    acc["weight_in"] += state.norm_sq()
    acc["success_weight"] += sum(o.weight for o in result if o.success)


def _qnd_counts(args, kwargs, result, acc):
    acc["terms_in"] += args[0].num_terms
    acc["kept_terms"] += result.num_terms


def _execute_counts(args, kwargs, result, acc):
    acc["rounds"] += len(result.rounds)
    acc["rounds_with_mass"] += sum(1 for r in result.rounds if r.p_success > 0.0)


def _sample_counts(args, kwargs, result, acc):
    acc["trials"] += args[2] if len(args) > 2 else kwargs["trials"]


def _json_counts(args, kwargs, result, acc):
    acc["bytes"] += len(result.encode())


@dataclass(frozen=True)
class Layer:
    module: str  # ecpsim submodule that defines the function
    attr: str  # function name, or Class.method
    time_stat: str  # "s" (inclusive) or "self_s", the time the metrics report
    counts: Callable | None = None
    name: str = ""  # metric prefix; defaults to module.attr

    @property
    def prefix(self) -> str:
        return self.name or f"{self.module}.{self.attr}"


LAYERS = (
    Layer("fock", "apply_mode_transform", "self_s", _transform_counts),
    Layer("fock", "tensor", "s", _tensor_counts),
    Layer("fock", "fidelity", "s"),
    Layer("elements", "apply_bs", "self_s"),
    Layer("elements", "apply_vbs", "self_s"),
    Layer("elements", "apply_pbs", "self_s"),
    Layer("elements", "apply_pbs_merge", "self_s"),
    Layer("elements", "apply_phase_flip", "self_s"),
    Layer("measurement", "herald", "self_s", _herald_counts),
    Layer("measurement", "qnd_component", "s", _qnd_counts),
    Layer("engine", "analyze", "s"),
    Layer("engine", "execute", "self_s", _execute_counts),
    Layer("circuits", "builtin_doc", "s"),
    Layer("dsl", "parse", "s"),
    Layer("params", "vbs_schedule", "s"),
    Layer("montecarlo", "sample_chain", "s", _sample_counts),
    Layer("montecarlo", "tables_from_report", "s"),
    Layer("oracle", "oracle_ecp1", "s"),
    Layer("oracle", "oracle_ecp2", "s"),
    Layer("verify", "run_checks", "s"),
    Layer("report", "ProtocolReport.to_json", "s", _json_counts, name="report.to_json"),
    Layer("cli", "main", "self_s"),
)

# counters each layer reports, beyond calls and its time stat
_COUNTERS = {
    "fock.apply_mode_transform": ("terms_in", "terms_out", "mass_lost"),
    "fock.tensor": ("terms_out",),
    "measurement.herald": ("terms_in", "outcomes", "success_weight_ratio"),
    "measurement.qnd_component": ("kept_terms_ratio",),
    "montecarlo.sample_chain": ("trials",),
    "report.to_json": ("bytes",),
}


def metric_unit(metric: str) -> str:
    """Unit of a per-layer metric, from its last name component."""
    stat = metric.rsplit(".", 1)[1]
    if stat in ("s", "self_s") or metric.endswith("_s"):
        return "s"
    if stat.endswith("ratio"):
        return "ratio"
    if stat == "mass_lost":
        return "prob"
    if stat == "bytes":
        return "B"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(layer: Layer, stats: dict) -> dict[str, float]:
    """The per-layer metrics of one layer, keyed by full metric name."""
    p = layer.prefix
    acc = stats["acc"]
    out = {f"{p}.calls": stats["calls"], f"{p}.{layer.time_stat}": stats[layer.time_stat]}
    derived = {
        "success_weight_ratio": _ratio(acc["success_weight"], acc["weight_in"]),
        "kept_terms_ratio": _ratio(acc["kept_terms"], acc["terms_in"]),
    }
    for key in _COUNTERS.get(p, ()):
        out[f"{p}.{key}"] = derived[key] if key in derived else acc[key]
    if p == "engine.execute":
        out["engine.rounds_with_mass_ratio"] = _ratio(acc["rounds_with_mass"], acc["rounds"])
    return out


_FIELDS = 6
_BLANK = array("q", [0] * _FIELDS)


def _records(spans: array):
    it = iter(spans)
    return zip(*[it] * _FIELDS)


class Tracer:
    """Span recorder over ``LAYERS``; use as a context manager.

    Spans are recorded only while ``on[0]`` is true, so checks made between
    timed calls pass through the wrappers without leaving spans.
    """

    def __init__(self):
        self.layers = LAYERS
        # six int64 fields per span, flat: layer, cover start, start, end,
        # cover end, parent span number (-1 for a root)
        self.spans = array("q")
        self.acc = [defaultdict(int) for _ in LAYERS]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: list = []
        self.on = [False]

    def _wrap(self, lid: int, fn, counts):
        spans, stack, acc, on = self.spans, self._stack, self.acc[lid], self.on

        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            c0 = perf_counter_ns()
            base = len(spans)
            spans.extend(_BLANK)
            parent = stack[-1] if stack else -1
            stack.append(base // _FIELDS)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter_ns()
                stack.pop()
                spans[base : base + _FIELDS] = array("q", (lid, c0, t0, t1, t1, parent))
                raise
            t1 = perf_counter_ns()
            stack.pop()
            if counts is not None:
                counts(args, kwargs, result, acc)
            spans[base : base + _FIELDS] = array("q", (lid, c0, t0, t1, perf_counter_ns(), parent))
            return result

        traced.__wrapped__ = fn
        self._wrappers.append(traced)
        return traced

    def __enter__(self) -> "Tracer":
        owners = [importlib.import_module(f"ecpsim.{layer.module}") for layer in self.layers]
        modules = [m for n, m in sys.modules.items() if n == "ecpsim" or n.startswith("ecpsim.")]
        for lid, (layer, mod) in enumerate(zip(self.layers, owners)):
            if "." in layer.attr:
                cls_name, meth = layer.attr.split(".")
                owner = getattr(mod, cls_name)
                self._set(owner, meth, self._wrap(lid, vars(owner)[meth], layer.counts))
                continue
            orig = getattr(mod, layer.attr)
            wrapper = self._wrap(lid, orig, layer.counts)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, name, wrapper)
        return self

    def _set(self, owner, name, wrapper):
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def __exit__(self, *exc) -> None:
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()

    def restored(self) -> bool:
        """True when no ecpsim namespace or class still holds a wrapper."""
        wrappers = {id(w) for w in self._wrappers}
        for n, m in list(sys.modules.items()):
            if n != "ecpsim" and not n.startswith("ecpsim."):
                continue
            for value in list(vars(m).values()):
                inner = vars(value).values() if isinstance(value, type) else ()
                if id(value) in wrappers or any(id(v) in wrappers for v in inner):
                    return False
        return True

    def summarize(self, wall_ns: int) -> dict:
        """Per-layer stats, tracer time and remainder for one traced run."""
        n = len(self.layers)
        calls, total, self_ns = [0] * n, [0] * n, [0] * n
        n_spans = len(self.spans) // _FIELDS
        child_cover = [0] * n_spans
        tracer_ns = root_ns = 0
        for lid, c0, t0, t1, c1, parent in _records(self.spans):
            calls[lid] += 1
            total[lid] += t1 - t0
            tracer_ns += (c1 - c0) - (t1 - t0)
            if parent < 0:
                root_ns += c1 - c0
            else:
                child_cover[parent] += c1 - c0
        overlaps = 0  # spans whose children cover more than the span itself
        for (lid, c0, t0, t1, c1, parent), cover in zip(_records(self.spans), child_cover):
            self_ns[lid] += (t1 - t0) - cover
            overlaps += cover > t1 - t0
        remainder_ns = wall_ns - root_ns
        stats = {
            layer.prefix: {
                "calls": calls[i],
                "s": total[i] / 1e9,
                "self_s": self_ns[i] / 1e9,
                "acc": self.acc[i],
            }
            for i, layer in enumerate(self.layers)
        }
        return {
            "layers": stats,
            "tracer_s": tracer_ns / 1e9,
            "remainder_s": remainder_ns / 1e9,
            "wall_s": wall_ns / 1e9,
            # each part is a real share of the wall time only if no span is
            # overlapped by its children and the roots fit in the timed calls
            "consistent": overlaps == 0 and remainder_ns >= 0,
            "spans": n_spans,
        }

    def write_spans(self, path) -> None:
        """Write every span as CSV (layer,start_ns,end_ns,parent), gzipped."""
        names = [layer.prefix for layer in self.layers]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,layer,start_ns,end_ns,parent\n")
            for idx, (lid, c0, t0, t1, c1, parent) in enumerate(_records(self.spans)):
                fh.write(f"{idx},{names[lid]},{t0},{t1},{parent}\n")
