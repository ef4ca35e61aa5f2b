"""Benchmark for byzgrad: one workload, one seed, one run, in one process.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0

Imports the package from this checkout's src/, sets the workload up at
least five times and for at least three seconds (reporting the median set-up
time), runs one untimed cycle of its operations to fingerprint the
transcripts and metrics rows, and then repeats the cycle, timing every call,
for at least --seconds. Operations run one after another: a closed loop with
a single caller. Timings are rescaled to a fixed speed of the host, measured
by a reference loop between calls.

With --trace 1 it instead runs a warm-up cycle, one cycle untraced and the
same cycle with every layer wrapped in spans, and reports per-layer calls,
seconds and self seconds, exact counters and the tracing overhead. Spans
are written to .perfbench_out/spans-<workload>-<seed>.csv.gz.

Every operation's output is checked. The last stdout line is a JSON object
with keys correct, attempted, failed and metrics; the line before it is a
JSON report with sample counts, fingerprint and environment. The exit code
is 0 only if every check passed, and 2 if the package is not found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MODULES = ("field", "assignment", "linalg", "coding", "protocol", "adversary", "harness")
# Set up at least SETUP_REPEATS times and for at least SETUP_SECONDS, so that
# the median of a cheap set-up rests on more samples than that of a dear one.
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
FACTS = (
    "protocol.rounds", "protocol.c_oh", "protocol.local_computations",
    "protocol.downlink_bits", "protocol.events",
)


def import_package() -> types.SimpleNamespace:
    """Import byzgrad afresh from this checkout, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "byzgrad" or m.startswith("byzgrad.")]:
        del sys.modules[name]
    pkg = importlib.import_module("byzgrad")
    if Path(pkg.__file__).resolve().parent != (SRC / "byzgrad").resolve():
        raise ImportError(f"byzgrad imported from {pkg.__file__}, not from {SRC}")
    mods = {m: importlib.import_module(f"byzgrad.{m}") for m in MODULES}
    return types.SimpleNamespace(modules=mods, **mods)


# The host's speed drifts by up to about 1.4x over seconds to minutes, more
# than any run of affordable length averages out. A fixed pure-Python loop,
# timed between operations, follows that drift, and every timing below is
# rescaled to the speed at which the loop takes REFERENCE_NS.
REFERENCE_NS = 500_000
REFERENCE_EVERY_NS = 20_000_000


def reference_loop() -> int:
    """Fixed integer work in the style of the library's field arithmetic."""
    q, acc, row = 2147483647, 1, []
    for i in range(1200):
        acc = acc * 48271 % q
        row.append(acc ^ i)
    return sum(a * b for a, b in zip(row, row[1:])) % q


def reference_ns(loops: int = 1) -> float:
    """Median time of the reference loop, with the program's garbage left uncollected."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(loops):
            t0 = time.perf_counter_ns()
            reference_loop()
            times.append(time.perf_counter_ns() - t0)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


def smoothed(samples: list[int]) -> list[float]:
    """Each reference sample replaced by the median of its five neighbours."""
    return [statistics.median(samples[max(0, i - 2): i + 3]) for i in range(len(samples))]


class Stopwatch:
    """Raw times of pieces of work, rescaled to the reference speed.

    A reference sample is taken at the start, at a tick once REFERENCE_EVERY_NS
    have passed since the last one, and at the end. Each piece is rescaled by
    the smoothed samples before and after it.
    """

    def __init__(self, loops: int = 1):
        self.loops = loops
        self.refs = [reference_ns(loops)]
        self.pieces: list[tuple[int, int]] = []  # (index of the reference before, raw ns)
        self.ref_ns = 0  # time spent sampling after the first sample
        self.last = time.perf_counter_ns()

    def add(self, raw_ns: int) -> None:
        self.pieces.append((len(self.refs) - 1, raw_ns))

    def tick(self) -> None:
        now = time.perf_counter_ns()
        if now - self.last >= REFERENCE_EVERY_NS:
            self.refs.append(reference_ns())
            self.last = time.perf_counter_ns()
            self.ref_ns += self.last - now

    def stop(self) -> list[float]:
        """Every piece's time at reference speed."""
        self.refs.append(reference_ns(self.loops))
        ref = smoothed(self.refs)
        return [raw * 2 * REFERENCE_NS / (ref[i] + ref[i + 1]) for i, raw in self.pieces]


@dataclass
class Cycle:
    """One pass over a workload's operations."""

    latencies_ns: list[float] = field(default_factory=list)  # at reference speed
    references_ns: list[float] = field(default_factory=list)
    wall_ns: int = 0  # without the reference samples
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    digest: str = ""
    facts: list[int] = field(default_factory=lambda: [0] * (len(FACTS) + 1))
    transcript_bytes: int = 0

    @property
    def busy_ns(self) -> float:
        return sum(self.latencies_ns)


def run_cycle(wl, bg, ops, *, fingerprint: bool, tracer: Tracer | None = None) -> Cycle:
    """Call every operation once, timing each call and checking its output.

    With fingerprint, also hash each transcript and metrics row and sum the
    protocol totals; that work falls outside the per-call times. Each call's
    time is rescaled by the reference samples taken before and after it.
    """
    cyc = Cycle()
    sha = hashlib.sha256()
    clock = time.perf_counter_ns
    if tracer is not None:
        tracer.install(bg.modules)
    try:
        watch = Stopwatch()
        start = clock()
        for k, op in enumerate(ops):
            cyc.attempted += 1
            t0 = clock()
            try:
                out = tracer.call(k, wl.call, bg, op) if tracer else wl.call(bg, op)
            except Exception as exc:  # any exception is a failed operation
                cyc.failures.append(f"op {k}: {type(exc).__name__}: {exc}")
                continue
            watch.add(clock() - t0)
            reason = wl.failure(op, out)
            if reason:
                cyc.failures.append(f"op {k}: {reason}")
            elif fingerprint:
                transcript, row, facts = wl.record(op, out)
                sha.update(transcript)
                sha.update(row.encode("ascii") + b"\n")
                cyc.transcript_bytes += len(transcript)
                cyc.facts = [a + b for a, b in zip(cyc.facts, facts)]
            watch.tick()
        cyc.wall_ns = clock() - start - watch.ref_ns
    finally:
        if tracer is not None:
            tracer.uninstall()
    cyc.latencies_ns = watch.stop()
    cyc.references_ns = watch.refs
    cyc.digest = sha.hexdigest() if fingerprint else ""
    return cyc


class Bench:
    """Set-up, cycles and working files of one workload run."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.wl = WORKLOADS[name]
        OUT.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
        self.bg = None
        self.ops = None

    def setup(self, tracer: Tracer | None = None) -> float:
        """Set the workload up; returns seconds at reference speed."""
        for entry in os.scandir(self.workdir):
            os.unlink(entry.path)
        self.bg = self.ops = None
        gc.collect()  # free the previous import, so peak memory does not depend on the cycle count
        watch = Stopwatch(loops=5)
        clock = time.perf_counter_ns
        t0 = clock()

        def tick() -> None:
            nonlocal t0
            watch.add(clock() - t0)
            watch.tick()
            t0 = clock()

        self.bg = import_package()
        self.ops = self.wl.setup(self.bg, self.seed, self.workdir, tracer, tick)
        watch.add(clock() - t0)
        return sum(watch.stop()) / 1e9

    def cycle(self, **kw) -> Cycle:
        if self.wl.cold:
            self.setup()
        return run_cycle(self.wl, self.bg, self.ops, **kw)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return max(values, default=0.0)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure(bench: Bench, seconds: float) -> tuple[dict, dict, list[Cycle]]:
    setup_s: list[float] = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        setup_s.append(bench.setup())
    first = bench.cycle(fingerprint=True)
    timed: list[Cycle] = []
    t_end = time.perf_counter() + seconds
    while not timed or time.perf_counter() < t_end:
        timed.append(bench.cycle(fingerprint=False))
    lat_ms = [ns / 1e6 for c in timed for ns in c.latencies_ns]
    rate = len(lat_ms) / (sum(lat_ms) / 1e3) if lat_ms else 0.0
    metrics = {
        "ops_per_s": (rate, "1/s"),
        "op_ms_p50": (percentile(lat_ms, 50), "ms"),
        "op_ms_p90": (percentile(lat_ms, 90), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # The same figures under the names the workload's users know them by.
    op = "replay" if bench.name == "replay" else "run"
    tail = 99 if bench.name == "grid" else 90
    samples = f"{len(lat_ms)} calls, {len(timed)} cycles"
    calls = sum(c.attempted for c in timed)
    refs = [ns / 1e6 for c in timed for ns in c.references_ns]
    named = {
        f"{op}s_per_s": (rate, "1/s", samples),
        f"{op}_ms_p50": (metrics["op_ms_p50"][0], "ms", samples),
        f"{op}_ms_p{tail}": (percentile(lat_ms, tail), "ms", samples),
        "setup_s": (metrics["setup_s"][0], "s", f"median of {len(setup_s)} set-ups"),
        "peak_rss_mb": (metrics["peak_rss_mb"][0], "MB", "1 process"),
        "wall_ops_per_s": (calls / (sum(c.wall_ns for c in timed) / 1e9), "1/s", f"{calls} calls"),
        "reference_ms": (statistics.median(refs), "ms", f"median of {len(refs)} samples"),
    }
    return metrics, {"named": named, "fingerprint": first.digest}, [first] + timed


def measure_traced(bench: Bench) -> tuple[dict, dict, list[Cycle]]:
    tracer = Tracer()
    bench.setup(tracer)
    warm = bench.cycle(fingerprint=False)  # so that both compared cycles run warm
    plain = bench.cycle(fingerprint=True)
    traced = bench.cycle(fingerprint=True, tracer=tracer)
    metrics = {k: (v, layer_unit(k)) for k, v in tracer.layer_metrics().items()}
    for name, total in zip(FACTS, traced.facts):
        metrics[name] = (total, "count")
    metrics["protocol.outcome_ecc_share"] = (traced.facts[-1] / len(bench.ops), "ratio")
    metrics["harness.transcript_bytes"] = (traced.transcript_bytes, "bytes")
    metrics["trace.overhead_ratio"] = (traced.busy_ns / plain.busy_ns, "ratio")
    spans = OUT / f"spans-{bench.name}-{bench.seed}.csv.gz"
    tracer.write(spans)
    extra = {
        "fingerprint": plain.digest,
        "traced_fingerprint": traced.digest,
        "spans": len(tracer.spans),
        "spans_file": str(spans.relative_to(ROOT)),
        "unwrapped": tracer.missing,
    }
    return metrics, extra, [warm, plain, traced]


def layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith(("_per_decode", "_ratio")):
        return "ratio"
    return "count"


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    src_lines = 0
    for path in sorted((SRC / "byzgrad").rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "byzgrad" / "__init__.py").is_file():
        print(f"byzgrad sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = Bench(args.workload, args.seed)
    try:
        if args.trace:
            metrics, extra, cycles = measure_traced(bench)
        else:
            metrics, extra, cycles = measure(bench, args.seconds)
    finally:
        bench.close()

    attempted = sum(c.attempted for c in cycles)
    failures = [f for c in cycles for f in c.failures]
    failed = len(failures)
    if extra.get("traced_fingerprint", extra["fingerprint"]) != extra["fingerprint"]:
        failures.append("traced fingerprint differs from the untraced one")
    if extra.get("unwrapped"):
        failures.append(f"trace points not found: {', '.join(extra['unwrapped'])}")
    correct = not failures
    named = extra.pop("named", {})
    named["failed_frac"] = (failed / attempted, "ratio", f"{attempted} operations")
    for name, (value, unit, samples) in named.items():
        print(f"{args.workload} {name} {value:.6g} {unit} ({samples})")
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in named.items()},
        **extra, "failures": failures[:20], "environment": environment(),
    }
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
