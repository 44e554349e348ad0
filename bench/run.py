"""ecpsim benchmark: exact-grid throughput, sampler throughput, CLI latency.

Run from the repository root:

    python3 bench/run.py --workload exact_grid --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Workloads (see workloads.py):

* ``exact_grid``  seeded exact points through ``run_ecp1``/``run_ecp2``
* ``mc_chain``    ``run_monte_carlo`` chains at 10^6 trials, eta = 0.8
* ``cli_mix``     fresh ``python -m ecpsim.cli`` processes, one at a time

Each run sets up (a fresh interpreter imports ecpsim and builds the four
shipped circuits, several times), then runs one closed loop for
``--seconds`` of timed calls, checking every output outside the timed
region.  With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` the loop runs under
``tracing.Tracer`` (CLI calls are replayed in-process through
``ecpsim.cli.main``) and the object holds the per-layer metrics instead.

End-to-end metrics, on every workload.  An operation is one exact point, one
sampled chain or one CLI call:

* ``setup_s``           median s of a fresh interpreter's set-up
* ``throughput_per_s``  work of passed operations per timed second, median
                        over whole blocks: points/s (exact_points_per_s),
                        trials/s (mc_trials_per_s) or calls/s
* ``op_s_p50``, ``op_s_p75``  median and p75 s of a passed operation
                        (cli_call_s_p50 and cli_call_s_p75 on cli_mix)
* ``peak_rss_mb``       peak RSS of the process that ran the operations
* ``pass_share``        passed / attempted operations (1 - fail_share)

Times are wall times rescaled to a fixed machine speed (see ``Loop``); the
unscaled wall times are printed and recorded beside them.

A run's operations are a fixed list drawn from the seed, which the timed loop
calls in turn, round and round.  In the result object, ``attempted`` is the
length of that list and ``failed`` counts its operations whose output failed
its check, whose call raised, or whose output changed between calls; both
depend only on the seed and the program.  ``correct`` is the harness's own
soundness: replaying the leading operations reproduces the output digest, a
planted coupler fault raises the failure count on ``exact_grid``, and, when
traced, every patched name is restored and the self times add up to the
traced wall time.

Every run also writes ``bench/results/<workload>-seed<seed>-trace<t>.json``
with the environment, the output digest, the failures by configuration and,
when traced, the per-layer table; a traced run writes its spans next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import math
import mmap
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

SETUP_REPS = 11
IMPORTTIME_REPS = 3
MIN_OPS = 40  # timed calls of passed operations; leaves at least ten above p75
REF_ITERATIONS = 10000
MEM_PROBE_BYTES = 2 << 20
PAGE_BYTES = 4096
REF_NS = 960_000  # floor of reference_ns() on the 2-vCPU Intel Xeon VM the bounds were set on
REF_EVERY_NS = 100_000_000
SETUP_CODE = "import ecpsim\nfor name in ecpsim.BUILTIN_NAMES:\n    ecpsim.builtin_doc(name)\n"

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_p75": "s",
    "peak_rss_mb": "MB",
    "pass_share": "ratio",
}
# the names these numbers go by on the one workload where they are the headline
ALIASES = {
    ("exact_grid", "throughput_per_s"): ("exact_points_per_s", "points/s"),
    ("mc_chain", "throughput_per_s"): ("mc_trials_per_s", "trials/s"),
    ("cli_mix", "op_s_p50"): ("cli_call_s_p50", "s"),
    ("cli_mix", "op_s_p75"): ("cli_call_s_p75", "s"),
}
WORKLOAD_NAMES = ("exact_grid", "mc_chain", "cli_mix")
_NUMBER = re.compile(r"[-+]?\d[\d.]*(e[-+]?\d+)?")  # failures are grouped with numbers masked


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def time_setup(env: dict) -> tuple[float, float]:
    """Median s for a fresh interpreter to import ecpsim and build the circuits.

    Returns (at reference speed, unscaled wall); each set-up is rescaled by
    the probes taken right before and after it, as in ``Loop``.
    """
    cmd = [sys.executable, "-c", SETUP_CODE]
    # no timeout: with one, subprocess polls for the exit in steps of up to 50 ms
    subprocess.run(cmd, cwd=ROOT, env=env, check=True)  # warms the bytecode cache
    scaled, wall = [], []
    probe = reference_ns()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
        wall.append(time.perf_counter() - t0)
        after = reference_ns()
        scaled.append(at_reference_speed(wall[-1], probe, after))
        probe = after
    return statistics.median(scaled), statistics.median(wall)


def pin_to_one_cpu() -> None:
    """Keep the probe, the loop and its child processes on one CPU, so the
    probe sees the contention the measured work sees."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def import_breakdown(env: dict) -> dict[str, float]:
    """Cumulative import s of numpy and of ecpsim, from ``-X importtime``."""
    found: dict[str, list[float]] = {"numpy": [], "ecpsim": []}
    for _ in range(IMPORTTIME_REPS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ecpsim"],
            cwd=ROOT, env=env, check=True, capture_output=True, text=True, timeout=60,
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {
        "setup.import_numpy_s": statistics.median(found["numpy"]) if found["numpy"] else 0.0,
        "setup.import_ecpsim_s": statistics.median(found["ecpsim"]),
    }


def _kernel_ns() -> int:
    t0 = time.perf_counter_ns()
    acc = [0.0] * 64
    for i in range(REF_ITERATIONS):
        acc[i & 63] += math.sqrt(i) * 1.0000001
    return time.perf_counter_ns() - t0


def _memory_ns() -> int:
    t0 = time.perf_counter_ns()
    # an anonymous mapping always gets fresh zeroed pages from the kernel,
    # whatever the program under test has done to the allocator's heap
    with mmap.mmap(-1, MEM_PROBE_BYTES) as buf:
        buf[::PAGE_BYTES] = b"\1" * (MEM_PROBE_BYTES // PAGE_BYTES)  # fault in every page
        buf.find(b"\2")  # and read them all back
    return time.perf_counter_ns() - t0


def reference_ns() -> float:
    """Machine-speed probe: geometric mean of the shortest of three runs of a
    fixed pure-Python kernel and of a page-faulting memory kernel.

    The Python kernel alone follows contention for the CPU; neighbours' memory
    traffic slows numpy sampling and process start-up more than it slows
    that kernel, and the memory kernel follows that part.  Neither kernel
    allocates anything the garbage collector tracks, so their times do not
    grow with the heap of the program under test.
    """
    return math.sqrt(min(_kernel_ns() for _ in range(3)) * min(_memory_ns() for _ in range(3)))


def at_reference_speed(ns: float, probe_before: float, probe_after: float) -> float:
    """``ns`` measured between two probes, rescaled to a probe time of ``REF_NS``."""
    return ns * REF_NS / ((probe_before + probe_after) / 2)


class Loop:
    """One closed-loop measurement: timed calls, checks, digest, failures.

    The seed fixes a list of ``workload.ops`` operations.  The timed loop
    calls them in order for ``seconds``, going round the list again when it
    reaches the end; operations the loop did not reach in time are called
    afterwards, untimed.  Each operation is checked once, after its first
    call, and every later call must give the same output bytes.  So
    ``attempted`` (the list) and ``failed`` (operations that failed a check,
    raised, or changed output between calls) depend on the seed and the
    program only, not on how many calls fit into the timed window.

    On a shared virtual machine, neighbours on the host can slow the CPU by
    up to 1.6x for seconds at a time (seen on a 2-vCPU Intel Xeon VM), which
    moves raw wall times more than any bound worth having.  So the loop runs
    ``reference_ns`` after every ``REF_EVERY_NS`` of timed calls, and each
    call's time is also kept rescaled to reference speed: multiplied by
    ``REF_NS`` over the mean of the probes before and after it.  Uncontended,
    the rescaled time equals the wall time.
    """

    def __init__(self, workload):
        self.workload = workload
        self.ops: list = []  # the seeded operation list
        self.verdicts: list = []  # per operation: None when it passed, else the reason
        self.first_out: list = []  # per operation: sha256 of its first call's output bytes
        self.inputs: list = []  # per timed call: the operation called
        self.op_index: list[int] = []  # per timed call: its index into ops
        self.wall_ns: list[int] = []  # per timed call: wall ns
        self.scaled_ns: list[float] = []  # per timed call: wall ns at reference speed
        self.digest = hashlib.sha256()
        self.probes: list[float] = []
        self.problems: list[str] = []  # faults of the harness itself; clear `correct`

    @property
    def timed_ns(self) -> int:
        return sum(self.wall_ns)

    def run(self, seed: int, seconds: float, tracer=None) -> "Loop":
        wl = self.workload
        self.ops = list(itertools.islice(wl.inputs(seed), wl.ops))
        self.verdicts = [None] * len(self.ops)
        timed = since_probe = passed_calls = 0
        probe = reference_ns()
        while timed < seconds * 1e9 or (passed_calls < MIN_OPS and timed < 2 * seconds * 1e9):
            i = len(self.inputs) % len(self.ops)
            x = self.ops[i]
            self.inputs.append(x)
            self.op_index.append(i)
            out, detail, reason, dt = self.call(x, tracer)
            self.wall_ns.append(dt)
            timed += dt
            since_probe += dt
            self.settle(i, out, detail, reason)
            passed_calls += self.verdicts[i] is None
            if since_probe >= REF_EVERY_NS:
                probe = self._rescale(probe)
                since_probe = 0
        self._rescale(probe)
        for i in range(len(self.first_out), len(self.ops)):
            self.settle(i, *self.call(self.ops[i])[:3])
        return self

    def settle(self, i: int, out: bytes, detail, reason) -> None:
        """Check operation ``i``'s first call; hold later calls to its output bytes."""
        digest = hashlib.sha256(out).digest()
        if i == len(self.first_out):
            self.first_out.append(digest)
            if i < self.workload.digest_ops:
                self.digest.update(out)
            if reason is None:
                reason = self.check(self.ops[i], detail)
            self.verdicts[i] = reason
        elif digest != self.first_out[i] and self.verdicts[i] is None:
            self.verdicts[i] = "output bytes differ between calls"

    def _rescale(self, probe_before: float) -> float:
        probe_after = reference_ns()
        self.probes.append(probe_after)
        pending = self.wall_ns[len(self.scaled_ns):]
        self.scaled_ns += [at_reference_speed(dt, probe_before, probe_after) for dt in pending]
        return probe_after

    def call(self, x, tracer=None):
        """Timed call; returns (output bytes, detail, failure reason, ns)."""
        if tracer is not None:
            tracer.on[0] = True
        t0 = time.perf_counter_ns()
        try:
            out, detail = self.workload.run(x)
            reason = None
        except Exception as exc:  # the program failed this operation; count it
            out, detail = f"error {type(exc).__name__}\n".encode(), None
            reason = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.on[0] = False
        return out, detail, reason, dt

    def check(self, x, detail) -> str | None:
        try:
            return self.workload.check(x, detail)
        except Exception as exc:  # a reference or parser that raises fails the operation
            return f"check raised {type(exc).__name__}: {exc}"

    def replay(self, inputs) -> tuple[float, str]:
        """Untraced re-run of ``inputs``; (ns at reference speed, digest of the leading ones)."""
        digest = hashlib.sha256()
        total = pending = 0
        probe = reference_ns()
        for i, x in enumerate(inputs):
            out, _, _, dt = self.call(x)
            pending += dt
            if i < self.workload.digest_ops:
                digest.update(out)
            if pending >= REF_EVERY_NS or i == len(inputs) - 1:
                after = reference_ns()
                total += at_reference_speed(pending, probe, after)
                probe, pending = after, 0
        return total, digest.hexdigest()

    @property
    def outcomes(self) -> list[bool]:
        """Per timed call: its operation passed."""
        return [self.verdicts[i] is None for i in self.op_index]

    @property
    def units(self) -> int:
        """Work units of the timed calls whose operation passed."""
        return sum(self.workload.units(x) for x, ok in zip(self.inputs, self.outcomes) if ok)

    @property
    def failures(self) -> Counter:
        """Failed operations by configuration and reason, numbers masked."""
        return Counter(
            (x.label, _NUMBER.sub("#", reason)[:70])
            for x, reason in zip(self.ops, self.verdicts)
            if reason is not None
        )

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(reason is not None for reason in self.verdicts)


def self_test(loop: Loop) -> tuple[int, int, int]:
    """(ops, failures, failures under a planted coupler fault) on the digest prefix."""
    from ecpsim.verify import corrupted_coupler

    n = loop.workload.digest_ops
    planted = 0
    with corrupted_coupler():
        for x in loop.ops[:n]:
            _, detail, reason, _ = loop.call(x)
            planted += (reason or loop.check(x, detail)) is not None
    return n, sum(reason is not None for reason in loop.verdicts[:n]), planted


def timing(loop: Loop, per_op_ns: list) -> dict[str, float]:
    """Throughput and latency quartiles of passed operations from per-call ns.

    Throughput is the median, over the whole blocks of timed calls (every
    configuration once), of the work of passed operations per second of the
    block, so a burst of contention on the host moves only the blocks it
    overlaps.  A run too short for a whole block divides the totals.
    """
    units = [loop.workload.units(x) if ok else 0 for x, ok in zip(loop.inputs, loop.outcomes)]
    n = loop.workload.block
    rates = [
        sum(units[i : i + n]) / (sum(per_op_ns[i : i + n]) / 1e9)
        for i in range(0, len(per_op_ns) // n * n, n)
    ]
    lat = [ns / 1e9 for ns, ok in zip(per_op_ns, loop.outcomes) if ok]
    return {
        "throughput_per_s": statistics.median(rates) if rates else sum(units) / (sum(per_op_ns) / 1e9),
        "op_s_p50": statistics.median(lat) if lat else 0.0,
        "op_s_p75": statistics.quantiles(lat, n=4)[2] if len(lat) > 1 else 0.0,
    }


def end_to_end(loop: Loop, setup_s: float, peak_rss_kib: int) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        **timing(loop, loop.scaled_ns),
        "peak_rss_mb": peak_rss_kib / 1024,
        "pass_share": (loop.attempted - loop.failed) / loop.attempted,
    }


def print_layer_table(summary: dict) -> None:
    rows = sorted(summary["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    wall = summary["wall_s"]
    print(f"{'layer':34s} {'calls':>9s} {'s':>10s} {'self_s':>10s} {'self%':>6s}")
    for name, st in rows:
        if st["calls"]:
            share = 100 * st["self_s"] / wall
            print(f"{name:34s} {st['calls']:9d} {st['s']:10.4f} {st['self_s']:10.4f} {share:6.1f}")
    for name in ("tracer_s", "remainder_s"):
        label = "(tracer bookkeeping)" if name == "tracer_s" else "(unwrapped remainder)"
        print(f"{label:34s} {'':9s} {'':10s} {summary[name]:10.4f} {100 * summary[name] / wall:6.1f}")
    self_total = sum(st["self_s"] for st in summary["layers"].values())
    print(
        f"accounted: self {self_total:.4f} + tracer {summary['tracer_s']:.4f} + remainder "
        f"{summary['remainder_s']:.4f} = {self_total + summary['tracer_s'] + summary['remainder_s']:.4f} s"
        f" of traced wall {wall:.4f} s ({summary['spans']} spans)"
    )


def timed_run(loop: Loop, name: str, seed: int, seconds: float, setup: tuple) -> tuple[dict, dict]:
    """Untraced loop; (end-to-end metrics, record fields)."""
    loop.run(seed, seconds)
    _, replay_digest = loop.replay(loop.ops[: loop.workload.digest_ops])
    if replay_digest != loop.digest.hexdigest():
        loop.problems.append("replaying the leading operations gave different output bytes")
    who = resource.RUSAGE_CHILDREN if name == "cli_mix" else resource.RUSAGE_SELF
    values = end_to_end(loop, setup[0], resource.getrusage(who).ru_maxrss)
    raw = {"setup_s": setup[1], **timing(loop, loop.wall_ns)}
    for key, value in values.items():
        alias = ALIASES.get((name, key))
        note = f"   = {alias[0]} ({alias[1]})" if alias else ""
        print(f"{key:20s} {value:16.6f} {END_TO_END_UNITS[key]:6s}{note}")
    print(f"{'fail_share':20s} {1.0 - values['pass_share']:16.6f} ratio")
    print(
        "unscaled wall: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
        + f"; reference probe median {statistics.median(loop.probes):.0f} ns (REF_NS {REF_NS})"
    )
    return values, {"unscaled_wall": raw}


def traced_run(loop: Loop, name: str, seed: int, seconds: float, env: dict) -> tuple[dict, dict]:
    """Loop under the tracer, then an untraced replay; (per-layer metrics, record fields)."""
    with tracing.Tracer() as tracer:
        loop.run(seed, seconds, tracer)
    if not tracer.restored():
        loop.problems.append("a traced name was not restored")
    summary = tracer.summarize(loop.timed_ns)
    if not summary["consistent"]:
        loop.problems.append("spans overlap or fall outside the timed calls")
    untraced_ns, replay_digest = loop.replay(loop.inputs)  # the timed calls, in order
    if replay_digest != loop.digest.hexdigest():
        loop.problems.append("the untraced replay gave different output bytes")
    traced_ns = sum(loop.scaled_ns)
    overhead = traced_ns / untraced_ns
    values = {}
    for layer in tracing.LAYERS:
        values.update(tracing.layer_metrics(layer, summary["layers"][layer.prefix]))
    values.update(import_breakdown(env))
    values["trace.overhead_ratio"] = overhead
    values["trace.tracer_s"] = summary["tracer_s"]
    values["trace.remainder_s"] = summary["remainder_s"]
    print_layer_table(summary)
    print(
        f"tracing overhead: traced {traced_ns / 1e9:.3f} s / untraced {untraced_ns / 1e9:.3f} s"
        f" = {overhead:.3f} (both at reference speed)"
    )
    tracer.write_spans(RESULTS / f"{name}-seed{seed}.spans.csv.gz")
    return values, {"layers": summary["layers"], "spans": summary["spans"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    pin_to_one_cpu()
    env = program_env()
    info = environment(seed)
    print(f"ecpsim benchmark: workload {name}, seed {seed}, {seconds:g} s timed, trace {int(trace)}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    setup = time_setup(env)

    sys.path.insert(0, str(SRC))
    import workloads

    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH_DIR) as work:
        wl = workloads.build(name, ROOT, env, Path(work), in_process=trace)
        loop = Loop(wl)
        if trace:
            values, record = traced_run(loop, name, seed, seconds, env)
            units = {k: tracing.metric_unit(k) for k in values}
        else:
            values, record = timed_run(loop, name, seed, seconds, setup)
            units = END_TO_END_UNITS
        if name == "exact_grid":
            n, base, planted = self_test(loop)
            print(f"self-test: planted coupler fault fails {planted} of {n} operations (normally {base})")
            if planted <= base:
                loop.problems.append("a planted coupler fault did not raise the failure count")

    digest = loop.digest.hexdigest()
    print(
        f"operations: {loop.attempted} attempted, {loop.failed} failed "
        f"(fail_share {loop.failed / loop.attempted:.4f}); {len(loop.inputs)} timed calls, "
        f"{loop.units} {wl.unit} passed"
    )
    for (label, reason), count in sorted(loop.failures.items()):
        print(f"  failed {count:5d}  {label:32s} {reason}")
    print(f"output digest: sha256 {digest} over the first {wl.digest_ops} operations")
    for problem in loop.problems:
        print(f"HARNESS PROBLEM: {problem}")
    result = {
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record.update(environment=info, workload=name, seconds=seconds, trace=int(trace), digest=digest,
                  digest_ops=wl.digest_ops, failures={f"{k[0]} {k[1]}": v for k, v in loop.failures.items()},
                  result=result)
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, then one summary with the headline names."""
    rows = []
    ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        rows.append((name, result))
    print("\nsummary")
    for name, result in rows:
        m = result["metrics"]
        for key, entry in m.items():
            alias, unit = ALIASES.get((name, key), (key, entry["unit"]))
            print(f"{name:12s} {alias:20s} {entry['value']:16.6f} {unit}")
        print(f"{name:12s} {'fail_share':20s} {result['failed'] / result['attempted']:16.6f} ratio")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ecpsim" / "__init__.py").is_file():
        print(f"error: no ecpsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
