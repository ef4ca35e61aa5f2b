"""Steadiness check for the benchmark: ten seeds, two sets.

    python3 perfbench/steady.py

Runs perfbench/run.py once per (set, workload, seed), one run at a time, on
every workload of BENCHMARK.json with its run_seconds. Per set and workload
it prints each end-to-end metric's median and its quartile spread,
(Q3 - Q1) / median, and fails if a spread exceeds the metric's bound or if a
later set's median differs from the first set's by more than the bound. A
spread above a third of the bound is flagged. It also runs the traced
benchmark for the first two seeds of every set and fails unless the exact
counters and the fingerprints of one seed are identical across sets and
modes. Exit code 0 means every check passed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
SETS = 2
TRACED_SEEDS = SEEDS[:2]


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    report = json.loads(lines[-2].removeprefix("report "))
    expected = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != expected:
        raise SystemExit(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(result['metrics']) ^ expected)}")
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} trace={trace}: output check failed: {report['failures']}")
    return result, report


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def exact_counters(metrics: dict) -> dict:
    """Per-layer values that count work; seconds and the overhead ratio vary."""
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] != "s" and k != "trace.overhead_ratio"}


def main() -> int:
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    problems: list[str] = []
    medians: dict[tuple[str, str], float] = {}
    seen: dict[tuple, object] = {}

    def same(key, value, what):
        if seen.setdefault(key, value) != value:
            problems.append(f"{key[0]} seed {key[1]}: {what} differs between runs")

    for s in range(SETS):
        for workload in (w["name"] for w in SPEC["workloads"]):
            values: dict[str, list[float]] = {name: [] for name in bounds}
            for seed in SEEDS:
                result, report = run(workload, seed, 0)
                same((workload, seed, "fp"), report["fingerprint"], "fingerprint")
                for name, m in result["metrics"].items():
                    values[name].append(m["value"])
            for seed in TRACED_SEEDS:
                result, report = run(workload, seed, 1)
                same((workload, seed, "fp"), report["traced_fingerprint"], "traced fingerprint")
                same((workload, seed, "counters"), exact_counters(result["metrics"]), "exact counters")
                overhead = result["metrics"]["trace.overhead_ratio"]["value"]
                print(f"set {s} {workload} seed {seed} traced: overhead {overhead:.3f}, "
                      f"{len(result['metrics'])} per-layer metrics")
            for name, vals in values.items():
                bound = bounds[name]["bound"]
                med, spr = statistics.median(vals), spread(vals)
                flag = ""
                if spr > bound:
                    flag = "  SPREAD OVER BOUND"
                    problems.append(f"set {s} {workload} {name}: spread {spr:.3f} > {bound}")
                elif spr > bound / 3:
                    flag = "  spread over bound/3"
                first = medians.setdefault((workload, name), med)
                moved = (med - first) / first
                if abs(moved) > bound:
                    flag += "  MEDIAN MOVED FROM SET 0"
                    problems.append(f"set {s} {workload} {name}: median {moved:+.3f} from set 0")
                print(f"set {s} {workload:16s} {name:12s} median {med:12.6g} "
                      f"spread {spr:.4f} bound {bound}{flag}  "
                      f"[{' '.join(f'{v:.4g}' for v in vals)}]", flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
