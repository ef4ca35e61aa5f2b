"""Command line interface: simulate, sweep, verify, replay.

simulate runs one protocol instance, writes a JSONL transcript plus a
one-row metrics CSV, and exits 0 only if the gradient was exact and all
bounds held. sweep runs a parameter grid and aggregates a CSV. verify runs
the exhaustive checks. replay re-executes a recorded transcript. Bad input
or an output path that cannot be written exits 2 with `error: ...`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable

from .adversary import LIE_PLANS
from .checks import CHECKS
from .errors import InvalidParamsError, TranscriptReplayError
from .field import DEFAULT_MODULUS
from .harness import (
    ADVERSARY_NAMES,
    ASSIGNMENT_KINDS,
    METRICS_HEADER,
    SimulationConfig,
    grid_configs,
    replay_transcript,
    run_simulation,
    run_sweep,
    write_transcript,
)


def _parse_int_list(text: str) -> list[int]:
    """"1,4,9" or "4-8" or a mix of both."""
    out: list[int] = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            if "-" in tok[1:]:
                lo, hi = map(int, tok.split("-", 1))
                if hi < lo:
                    raise ValueError(f"descending range {tok}")
                out.extend(range(lo, hi + 1))
            elif tok:
                out.append(int(tok))
        except ValueError as e:
            raise InvalidParamsError(f"bad integer list {text!r}: {e}") from e
    return out


def _default_seed() -> int:
    text = os.environ.get("BYZGRAD_SEED", "0")
    try:
        return int(text)
    except ValueError as e:
        raise InvalidParamsError(f"BYZGRAD_SEED must be an integer, got {text!r}") from e


def _print_lines(lines: Iterable[str]) -> None:
    """Print each line to stdout; a reader that closes it early ends the output quietly.

    The lines are flushed here, so a closed pipe (`byzgrad sweep ... | head`)
    raises here or nowhere. Its descriptor then points at /dev/null, so the
    flush at exit cannot fail again, and the command keeps its exit status.
    """
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):  # io.UnsupportedOperation is a ValueError
            return  # no descriptor behind this stdout: nothing is left to flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def _add_instance_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--n", type=int, help="number of workers")
    sp.add_argument("--s", type=int, help="malicious worker budget")
    sp.add_argument("--u", type=int, help="redundancy parameter, 1 <= u <= s+1")
    sp.add_argument("--p", type=int, help="number of samples")
    sp.add_argument("--d", type=int, help="gradient dimension")
    sp.add_argument("--q", type=int, help="prime field modulus")
    sp.add_argument("--assignment", help=" | ".join(ASSIGNMENT_KINDS))
    sp.add_argument("--assignment-path", help="assignment text file when --assignment file")
    sp.add_argument("--adversary", help=" | ".join(ADVERSARY_NAMES))
    sp.add_argument("--seed", type=int, help="run seed (default $BYZGRAD_SEED or 0)")
    sp.add_argument("--grouping", help="lowest | shuffled")
    sp.add_argument("--controlled", help="random | first | last | 1-based ids like 2;5")
    sp.add_argument(
        "--lie-plan", help=" | ".join([*(plan or "''" for plan in LIE_PLANS), "lie,honest,..."])
    )
    sp.add_argument("--out", help="output directory (default .)")


def _build_config(args: argparse.Namespace) -> SimulationConfig:
    values: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        # ValueError covers bad JSON and bad UTF-8, RecursionError too deep nesting.
        except (OSError, ValueError, RecursionError) as e:
            raise InvalidParamsError(f"cannot read config {args.config}: {e}") from e
        if not isinstance(loaded, dict):
            raise InvalidParamsError(f"config {args.config} must hold a JSON object")
        values.update(loaded)
    fields = SimulationConfig.__dataclass_fields__
    values.update({k: v for k, v in vars(args).items() if k in fields and v is not None})
    values.setdefault("seed", _default_seed())
    missing = [k for k in ("n", "s", "u", "p") if k not in values]
    if missing:
        raise InvalidParamsError(f"missing required parameters: {missing}")
    return SimulationConfig.from_dict(values)


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _build_config(args)
    out = run_simulation(config)
    outdir = args.out or "."
    stem = (
        f"run_n{config.n}_s{config.s}_u{config.u}_p{config.p}_d{config.d}"
        f"_{config.assignment}_{config.adversary}_seed{config.seed}"
    )
    transcript_path = args.transcript or os.path.join(outdir, stem + ".jsonl")
    metrics_path = args.metrics or os.path.join(outdir, stem + ".csv")
    try:
        os.makedirs(outdir, exist_ok=True)
        write_transcript(out.result, transcript_path)
        with open(metrics_path, "w", encoding="ascii") as fh:
            fh.write(METRICS_HEADER + "\n")
            fh.write(out.metrics.csv_row() + "\n")
        if args.save_assignment:
            with open(args.save_assignment, "w", encoding="ascii") as fh:
                fh.write(out.result.transcript.events[0]["assignment"])
    except OSError as e:
        raise InvalidParamsError(f"cannot write output: {e}") from e
    _print_lines([METRICS_HEADER, out.metrics.csv_row(), f"transcript: {transcript_path}"])
    violations = out.metrics.bound_violations()
    for v in violations:
        print(f"bound violation: {v}", file=sys.stderr)
    if not out.metrics.correct:
        print("gradient mismatch against ground truth", file=sys.stderr)
    return 0 if out.metrics.correct and not violations else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise InvalidParamsError(f"need --seeds >= 1, got {args.seeds}")
    us: object = "auto"
    if args.u and args.u != "auto":
        us = _parse_int_list(args.u)
    items = list(
        grid_configs(
            ns=_parse_int_list(args.n),
            ss=_parse_int_list(args.s),
            us=us,
            ps=_parse_int_list(args.p),
            ds=_parse_int_list(args.d),
            assignments=[a.strip() for a in args.assignments.split(",")],
            adversaries=[a.strip() for a in args.adversaries.split(",")],
            seeds=args.seeds,
            q=args.q,
            grouping=args.grouping or "lowest",
        )
    )
    # Reject a bad grid before sweep.csv is opened (and truncated) or any run starts.
    for item in items:
        if isinstance(item, SimulationConfig):
            item.validate()
    outdir = args.out or "."
    csv_path = os.path.join(outdir, "sweep.csv")
    # Open the output before the grid runs, so an unwritable path costs no runs.
    try:
        os.makedirs(outdir, exist_ok=True)
        fh = open(csv_path, "w", encoding="ascii")
    except OSError as e:
        raise InvalidParamsError(f"cannot write output: {e}") from e
    with fh:
        report = run_sweep(items, jobs=args.jobs)
        fh.write(METRICS_HEADER + "\n")
        for m in report.rows:
            fh.write(m.csv_row() + "\n")
    skipped = (f"skipped {sk.params}: {sk.reason}" for sk in report.skipped)
    _print_lines([*skipped, report.summary(), f"metrics: {csv_path}"])
    bad = report.violations()
    for m, v in bad[:20]:
        print(f"violation: {m.csv_row()}: {v}", file=sys.stderr)
    return 0 if not bad else 1


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(CHECKS) if args.which == "all" else [args.which]
    ok = True
    for name in names:
        result = CHECKS[name]()
        _print_lines([result.report()])
        ok = ok and result.passed
    return 0 if ok else 1


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        gradient = replay_transcript(args.transcript)
    except (OSError, TranscriptReplayError) as e:
        print(f"replay failed: {e}", file=sys.stderr)
        return 1
    _print_lines([f"replayed gradient: {gradient}"])
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="byzgrad",
        description="Byzantine-resilient gradient coding simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="run one protocol instance")
    _add_instance_flags(sp)
    sp.add_argument("--config", help="JSON config file; flags override its keys")
    sp.add_argument("--transcript", help="transcript path (default derived from params)")
    sp.add_argument("--metrics", help="metrics CSV path (default derived from params)")
    sp.add_argument("--save-assignment", help="also write the assignment text file here")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="run a parameter grid")
    sp.add_argument("--n", required=True, help="worker counts, e.g. 4-8 or 4,6")
    sp.add_argument("--s", required=True, help="malicious budgets, e.g. 1-3")
    sp.add_argument("--u", default="auto", help="redundancy values or 'auto' (1..min(s+1, n-s))")
    sp.add_argument("--p", required=True, help="sample counts, e.g. 1,4,9,16")
    sp.add_argument("--d", default="1", help="gradient dimensions")
    sp.add_argument(
        "--assignments", default="cyclic,fractional,random", help="comma list of kinds"
    )
    sp.add_argument(
        "--adversaries",
        default="honest,random-always,random-initial-only,tournament-liar",
        help="comma list of strategies",
    )
    sp.add_argument("--seeds", type=int, default=20, help="seeds 0..N-1 per combo")
    sp.add_argument("--q", type=int, default=DEFAULT_MODULUS)
    sp.add_argument("--grouping", help="lowest | shuffled")
    sp.add_argument("--jobs", type=int, default=os.cpu_count(), help="parallel processes")
    sp.add_argument("--out", help="output directory (default .)")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="run exhaustive correctness checks")
    sp.add_argument(
        "which",
        choices=["all", *CHECKS.keys()],
        help="which guarantee to check",
    )
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("replay", help="re-execute a recorded transcript")
    sp.add_argument("transcript", help="JSONL transcript path")
    sp.set_defaults(func=cmd_replay)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidParamsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
