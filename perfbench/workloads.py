"""The four benchmark workloads: inputs, the timed call and its output check.

Every workload turns the benchmark seed into a fixed list of operations, one
cycle, that the benchmark repeats. The program receives only the generated
SimulationConfigs and transcript files. Why each workload exists is written
in README.md next to this file.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random


@dataclasses.dataclass
class Op:
    arg: object  # SimulationConfig, or a transcript path for replay
    expect: list[int] | None = None  # replay: gradient of the recorded run
    row: str = ""  # replay: csv_row() of the recorded run
    facts: tuple = ()  # replay: protocol totals of the recorded run


def transcript_blob(result) -> bytes:
    """The transcript serialized exactly as harness.write_transcript writes it."""
    return "".join(
        json.dumps(ev, separators=(",", ":")) + "\n" for ev in result.transcript.events
    ).encode("ascii")


def run_facts(out) -> tuple:
    """(rounds, c_oh, local_computations, downlink_bits, events, ecc outcome)."""
    tr = out.result.transcript
    return (
        tr.rounds, tr.comm_overhead, tr.local_computations, tr.downlink_bits,
        len(tr.events), int(out.result.outcome == "ecc"),
    )


def run_failure(out) -> str | None:
    if out.result.gradient != out.truth:
        return "gradient differs from the true sum"
    if not out.metrics.correct:
        return "metrics report an incorrect run"
    bad = out.metrics.bound_violations()
    if bad:
        return "; ".join(bad)
    return None


class RunWorkload:
    """Operations are run_simulation calls."""

    # Re-import the package before every cycle, so each cycle starts cold.
    cold = False

    def configs(self, bg, seed: int) -> list:
        raise NotImplementedError

    def setup(self, bg, seed: int, workdir: str, tracer=None, tick=lambda: None) -> list[Op]:
        """The cycle's operations; tick() is called between pieces of set-up work."""
        ops = [Op(c) for c in self.configs(bg, seed)]
        tick()
        if not self.cold:
            # Warm the instance cache with a run outside the cycle; a fixed
            # controlled set keeps the warm-up's cost the same for every seed.
            bg.harness.run_simulation(dataclasses.replace(ops[0].arg, controlled="first"))
        return ops

    @staticmethod
    def call(bg, op: Op):
        return bg.harness.run_simulation(op.arg)

    @staticmethod
    def failure(op: Op, out) -> str | None:
        return run_failure(out)

    @staticmethod
    def record(op: Op, out) -> tuple[bytes, str, tuple]:
        """The operation's transcript bytes, metrics row and protocol totals."""
        return transcript_blob(out.result), out.metrics.csv_row(), run_facts(out)


class Grid(RunWorkload):
    """The acceptance-criterion-2 grid shape with one seed per combination."""

    cold = True

    def configs(self, bg, seed):
        items = bg.harness.grid_configs(
            ns=range(4, 9), ss=range(1, 4), us="auto", ps=(1, 4, 9, 16), ds=(1, 3),
            assignments=("cyclic", "fractional", "random"),
            adversaries=("honest", "random-always", "random-initial-only", "tournament-liar"),
            seeds=1,
        )
        cfg = bg.harness.SimulationConfig
        configs = [c for c in items if isinstance(c, cfg)]
        # Distinct seeds, so that controlled sets and random assignments vary
        # across the grid instead of repeating one draw per (n, s).
        return [dataclasses.replace(c, seed=seed * len(configs) + k) for k, c in enumerate(configs)]


class EccCliff(RunWorkload):
    """n=12, s=3, u=4: s = u-1, so every run is one exhaustive ecc_decode."""

    n, s, u, p, d = 12, 3, 4, 12, 4
    # ecc_decode tries error patterns in lexicographic order, so a run's cost
    # grows with the rank of its controlled set among the C(12, 3) triples.
    # One run per rank stratum keeps the cost mix, and so the percentiles,
    # the same for every seed. 110 strata of two triples each give a p90
    # with eleven runs beyond it.
    strata = 110

    def configs(self, bg, seed):
        h = bg.harness
        rank = {c: i for i, c in enumerate(itertools.combinations(range(self.n), self.s))}
        width = len(rank) / self.strata
        rng = random.Random(f"ecc_cliff:{seed}")
        chosen: dict[int, object] = {}
        while len(chosen) < self.strata:
            cfg = h.SimulationConfig(
                n=self.n, s=self.s, u=self.u, p=self.p, d=self.d,
                adversary="random-always", controlled="random", seed=rng.randrange(2**31),
            )
            chosen.setdefault(int(rank[h.resolve_controlled(cfg)] / width), cfg)
        ops = list(chosen.values())
        rng.shuffle(ops)
        return ops


class TournamentDeep(RunWorkload):
    """n=24, s=6, u=1, p=256: six rounds of full-depth tournament matches."""

    def configs(self, bg, seed):
        rng = random.Random(f"tournament_deep:{seed}")
        return [
            bg.harness.SimulationConfig(
                n=24, s=6, u=1, p=256, d=16, adversary="tournament-liar",
                lie_plan="consistent", seed=rng.randrange(2**31),
            )
            for _ in range(100)
        ]


class Replay(RunWorkload):
    """replay_transcript on transcripts recorded during set-up."""

    n, s = 16, 4
    adversaries = ("tournament-liar", "random-always", "random-initial-only")
    # Replay cost follows the protocol path, which the controlled set decides.
    # Fixed controlled sets, evenly spaced in lexicographic order, keep the
    # path mix the same for every seed; the seed varies gradients and errors.
    controlled_sets = 34

    def setup(self, bg, seed, workdir, tracer=None, tick=lambda: None):
        h = bg.harness
        sets = list(itertools.combinations(range(1, self.n + 1), self.s))
        step = len(sets) / self.controlled_sets
        picks = [sets[int((k + 0.5) * step)] for k in range(self.controlled_sets)]
        rng = random.Random(f"replay:{seed}")
        runs = []
        for adversary in self.adversaries:
            for workers in picks:
                cfg = h.SimulationConfig(
                    n=self.n, s=self.s, u=2, p=128, d=8, adversary=adversary,
                    controlled=";".join(map(str, workers)), seed=rng.randrange(2**31),
                )
                out = h.run_simulation(cfg)
                reason = run_failure(out)
                if reason:
                    raise RuntimeError(f"recording run failed ({reason}): {cfg}")
                runs.append(out)
                tick()
        rng.shuffle(runs)
        if tracer is not None:
            tracer.run_id = "setup"
            tracer.install(bg.modules)
        try:
            ops = []
            for k, out in enumerate(runs):
                path = os.path.join(workdir, f"{k:03d}.jsonl")
                h.write_transcript(out.result, path)
                ops.append(Op(path, out.result.gradient, out.metrics.csv_row(), run_facts(out)))
        finally:
            if tracer is not None:
                tracer.uninstall()
        return ops

    @staticmethod
    def call(bg, op):
        return bg.harness.replay_transcript(op.arg)

    @staticmethod
    def failure(op, out):
        return None if out == op.expect else "replay does not return the recorded gradient"

    @staticmethod
    def record(op, out):
        with open(op.arg, "rb") as fh:
            return fh.read(), op.row, op.facts


WORKLOADS = {
    "grid": Grid(),
    "ecc_cliff": EccCliff(),
    "tournament_deep": TournamentDeep(),
    "replay": Replay(),
}
