"""Simulation harness: configuration, metrics, sweeps, transcript replay.

A run is fully determined by its SimulationConfig; identical configs produce
byte-identical transcripts and metrics. The per-run CSV schema is

    n,s,u,p,d,q,assignment,adversary,seed,correct,c,C_oh,rounds,downlink_bits,eliminated

with eliminated as a semicolon-joined list of 1-based worker ids.

Replay runs the same ProtocolRun engine as a simulation, fed the worker
answers, local computations and (for shuffled grouping) group orders that a
transcript recorded, and accepts the transcript only if the regenerated
event list equals the recorded one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from typing import Iterable, Optional, Sequence

from . import adversary as adv
from .assignment import (
    AssignmentMatrix,
    assignment_feasible,
    assignment_from_text,
    assignment_to_text,
    make_cyclic,
    make_fractional,
    make_random_regular,
)
from .coding import CodeContext, build_code_context
from .errors import (
    AdversaryBudgetExceededError,
    InfeasibleStateError,
    InvalidParamsError,
    ProtocolInvariantViolation,
    TranscriptReplayError,
)
from .field import DEFAULT_MODULUS, draw_below
from .protocol import START_FIELDS, ProtocolResult, ProtocolRun, run_protocol

# Not used here: perfbench/tracing.py wraps these at their harness names.
from .coding import build_encoding_matrix, combining_vector, ecc_decode  # noqa: F401
from .field import is_prime  # noqa: F401
from .protocol import detect_contradiction, group_response  # noqa: F401

METRICS_HEADER = "n,s,u,p,d,q,assignment,adversary,seed,correct,c,C_oh,rounds,downlink_bits,eliminated"


def _random(persistence: str):
    return lambda config: adv.RandomCorruption(
        resolve_controlled(config), config.seed, persistence
    )


# Adversary name -> its strategy for a validated config.
_ADVERSARIES = {
    "honest": lambda config: adv.AdversaryStrategy(),
    "random-always": _random("always"),
    "random-initial-only": _random("initial_only"),
    "random-coin": _random("per_query_coin"),
    "tournament-liar": lambda config: adv.tournament_liar(
        resolve_controlled(config), config.lie_plan, config.seed
    ),
    "symmetrization": lambda config: adv.SymmetrizationStrategy(),
}
ADVERSARY_NAMES = tuple(_ADVERSARIES)

ASSIGNMENT_KINDS = ("cyclic", "fractional", "random", "file")

_CONTROLLED_RULES = ("random", "first", "last")

_INT_FIELDS = ("n", "s", "u", "p", "d", "q", "seed")
_STR_FIELDS = (
    "assignment", "adversary", "grouping", "controlled", "lie_plan", "assignment_path",
)


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class SimulationConfig:
    n: int
    s: int
    u: int
    p: int
    d: int = 1
    q: int = DEFAULT_MODULUS
    assignment: str = "cyclic"
    adversary: str = "honest"
    seed: int = 0
    grouping: str = "lowest"
    controlled: str = "random"  # "random" | "first" | "last" | "1;3" explicit 1-based
    lie_plan: str = "consistent"
    assignment_path: Optional[str] = None

    @property
    def rho(self) -> int:
        return self.s + self.u

    def validate(self) -> CodeContext:
        """Raise InvalidParamsError on a bad config; return the code it describes."""
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidParamsError(f"{name} must be an integer, got {value!r}")
        for name in _STR_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, str) and (name != "assignment_path" or value is not None):
                raise InvalidParamsError(f"{name} must be a string, got {value!r}")
        if self.s < 1:
            raise InvalidParamsError(f"need s >= 1, got s={self.s}")
        ctx = build_code_context(self.n, self.s, self.u, self.q)  # raises on a bad u, n or q
        if self.p < 1 or self.d < 1:
            raise InvalidParamsError("need p >= 1 and d >= 1")
        if self.assignment not in ASSIGNMENT_KINDS:
            raise InvalidParamsError(f"unknown assignment kind {self.assignment!r}")
        if self.assignment == "file" and not self.assignment_path:
            raise InvalidParamsError("assignment 'file' needs assignment_path")
        if self.adversary not in ADVERSARY_NAMES:
            raise InvalidParamsError(f"unknown adversary {self.adversary!r}")
        if self.grouping not in ("lowest", "shuffled"):
            raise InvalidParamsError(f"unknown grouping mode {self.grouping!r}")
        if self.controlled not in _CONTROLLED_RULES:
            _explicit_controlled(self)
        adv.lie_plan_persistence(self.lie_plan)  # raises on a malformed plan
        return ctx

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise InvalidParamsError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


def build_assignment(config: SimulationConfig) -> AssignmentMatrix:
    """The assignment read from a file config's assignment_path."""
    try:
        with open(config.assignment_path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InvalidParamsError(f"cannot read assignment file: {e}") from e
    a_mat, file_rho = assignment_from_text(text)
    if a_mat.n != config.n or a_mat.p != config.p or file_rho != config.rho:
        raise InvalidParamsError("assignment file disagrees with config dimensions")
    return a_mat


def resolve_controlled(config: SimulationConfig) -> tuple[int, ...]:
    """0-based controlled worker set of size at most s."""
    rule = config.controlled
    if rule == "random":
        rng = random.Random(f"{config.seed}:controlled")
        return tuple(sorted(rng.sample(range(config.n), config.s)))
    if rule == "first":
        return tuple(range(config.s))
    if rule == "last":
        return tuple(range(config.n - config.s, config.n))
    return _explicit_controlled(config)


def _explicit_controlled(config: SimulationConfig) -> tuple[int, ...]:
    """0-based ids of an explicit 1-based controlled set such as "1;3"."""
    rule = config.controlled
    try:
        ids = [int(tok) for tok in rule.replace(",", ";").split(";") if tok.strip()]
    except ValueError as e:
        raise InvalidParamsError(f"controlled workers must be integers: {rule!r}") from e
    if any(not (1 <= j <= config.n) for j in ids):
        raise InvalidParamsError(f"controlled workers out of range: {rule!r}")
    if len(set(ids)) > config.s:
        raise InvalidParamsError(f"at most s={config.s} workers may be controlled")
    return tuple(sorted(j - 1 for j in set(ids)))


def make_adversary(config: SimulationConfig):
    if config.adversary not in ADVERSARY_NAMES:
        raise InvalidParamsError(f"unknown adversary {config.adversary!r}")
    return _ADVERSARIES[config.adversary](config)


@lru_cache(maxsize=256)
def _cached_assignment(
    kind: str, n: int, p: int, rho: int, seed: int
) -> tuple[AssignmentMatrix, str]:
    """The cyclic, fractional or (seeded) random regular assignment, and its text."""
    if kind == "cyclic":
        a_mat = make_cyclic(n, p, rho)
    elif kind == "fractional":
        a_mat = make_fractional(n, p, rho)
    else:
        a_mat = make_random_regular(n, p, rho, seed)
    return a_mat, assignment_to_text(a_mat, rho)


# ---------------------------------------------------------------------------
# Metrics


def ceil_log2(p: int) -> int:
    return (p - 1).bit_length()


@dataclass(frozen=True)
class RunMetrics:
    config: SimulationConfig
    correct: bool
    c: int
    c_oh: int
    rounds: int
    downlink_bits: int
    eliminated: tuple[int, ...]  # 1-based

    def bound_violations(self) -> list[str]:
        cfg = self.config
        budget = cfg.s + 1 - cfg.u
        overhead = (cfg.n - cfg.rho + 2) * budget * ceil_log2(cfg.p)
        out = []
        if self.c > budget:
            out.append(f"local computations {self.c} > {budget}")
        if self.c_oh > overhead:
            out.append(f"communication overhead {self.c_oh} > {overhead}")
        if self.rounds > budget:
            out.append(f"rounds {self.rounds} > {budget}")
        return out

    def csv_row(self) -> str:
        cfg = self.config
        elim = ";".join(map(str, self.eliminated))
        return (
            f"{cfg.n},{cfg.s},{cfg.u},{cfg.p},{cfg.d},{cfg.q},"
            f"{cfg.assignment},{cfg.adversary},{cfg.seed},"
            f"{'true' if self.correct else 'false'},{self.c},{self.c_oh},"
            f"{self.rounds},{self.downlink_bits},{elim}"
        )


@dataclass
class SimulationOutput:
    metrics: RunMetrics
    result: ProtocolResult
    truth: list[int]


def run_simulation(config: SimulationConfig) -> SimulationOutput:
    """Build the instance from the config, run the protocol, collect metrics."""
    ctx = config.validate()
    if config.assignment == "file":
        a_mat = build_assignment(config)
        text = assignment_to_text(a_mat, config.rho)
    else:
        aseed = config.seed if config.assignment == "random" else 0
        a_mat, text = _cached_assignment(config.assignment, config.n, config.p, config.rho, aseed)
    grad_rng = random.Random(f"{config.seed}:gradients")
    # One draw of all d·p values, row after row, equals d draws of a row each.
    flat = draw_below(grad_rng, config.q, config.d * config.p)
    gradients = [flat[i : i + config.p] for i in range(0, len(flat), config.p)]
    strategy = make_adversary(config)
    grouping_rng = (
        random.Random(f"{config.seed}:grouping") if config.grouping == "shuffled" else None
    )
    meta = {
        "assignment": text,
        "assignment_kind": config.assignment,
        "adversary": config.adversary,
        "seed": config.seed,
    }
    result = run_protocol(ctx, a_mat, gradients, strategy, grouping_rng=grouping_rng, meta=meta)
    truth = [sum(row) % config.q for row in gradients]
    tr = result.transcript
    metrics = RunMetrics(
        config=config,
        correct=result.gradient == truth,
        c=tr.local_computations,
        c_oh=tr.comm_overhead,
        rounds=tr.rounds,
        downlink_bits=tr.downlink_bits,
        eliminated=tuple(j + 1 for j in result.eliminated),
    )
    return SimulationOutput(metrics, result, truth)


# ---------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class SkippedRow:
    params: dict
    reason: str


@dataclass
class SweepReport:
    rows: list[RunMetrics]
    skipped: list[SkippedRow]

    def violations(self) -> list[tuple[RunMetrics, str]]:
        out = []
        for m in self.rows:
            for v in m.bound_violations():
                out.append((m, v))
            if not m.correct:
                out.append((m, "incorrect gradient"))
        return out

    def summary(self) -> str:
        rows = self.rows
        nruns = len(rows)
        bad = self.violations()
        lines = [
            f"runs: {nruns}  skipped: {len(self.skipped)}  "
            f"violations: {len(bad)}  incorrect: {sum(not m.correct for m in rows)}"
        ]
        if rows:
            for label, key in (
                ("c", lambda m: m.c),
                ("C_oh", lambda m: m.c_oh),
                ("rounds", lambda m: m.rounds),
                ("downlink_bits", lambda m: m.downlink_bits),
            ):
                vals = [key(m) for m in rows]
                lines.append(
                    f"{label}: max {max(vals)}  mean {sum(vals) / nruns:.3f}"
                )
        return "\n".join(lines)


def grid_configs(
    ns: Sequence[int],
    ss: Sequence[int],
    us: Sequence[int] | str,
    ps: Sequence[int],
    ds: Sequence[int],
    assignments: Sequence[str],
    adversaries: Sequence[str],
    seeds: int,
    q: int = DEFAULT_MODULUS,
    grouping: str = "lowest",
) -> Iterable[SimulationConfig | SkippedRow]:
    """Cartesian product of the grid; infeasible combos become SkippedRow."""
    for n in ns:
        for s in ss:
            if us == "auto":
                u_list = list(range(1, min(s + 1, n - s) + 1)) or [1]  # no feasible u: skip u = 1
            else:
                u_list = list(us)
            for u in u_list:
                if u < 1 or u > s + 1 or n < s + u:
                    yield SkippedRow(
                        {"n": n, "s": s, "u": u},
                        "parameters outside 1 <= u <= s+1 and n >= s+u",
                    )
                    continue
                rho = s + u
                for p in ps:
                    for kind in assignments:
                        ok, reason = assignment_feasible(kind, n, p, rho)
                        if not ok:
                            yield SkippedRow(
                                {"n": n, "s": s, "u": u, "p": p, "assignment": kind},
                                reason,
                            )
                            continue
                        for d in ds:
                            for name in adversaries:
                                for seed in range(seeds):
                                    yield SimulationConfig(
                                        n=n, s=s, u=u, p=p, d=d, q=q,
                                        assignment=kind, adversary=name,
                                        seed=seed, grouping=grouping,
                                    )


def _run_one(config: SimulationConfig) -> RunMetrics:
    return run_simulation(config).metrics


def run_sweep(
    items: Iterable[SimulationConfig | SkippedRow], jobs: int | None = None
) -> SweepReport:
    configs: list[SimulationConfig] = []
    skipped: list[SkippedRow] = []
    for item in items:
        if isinstance(item, SkippedRow):
            skipped.append(item)
        else:
            configs.append(item)
    if jobs and jobs > 1 and len(configs) > 1:
        from multiprocessing import Pool  # only here: a single run needs no pool
        with Pool(jobs) as pool:
            rows = pool.map(_run_one, configs, chunksize=64)
    else:
        rows = [_run_one(c) for c in configs]
    return SweepReport(rows, skipped)


# ---------------------------------------------------------------------------
# Transcript IO and replay


def write_transcript(result: ProtocolResult, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for ev in result.transcript.events:
            fh.write(json.dumps(ev, separators=(",", ":")) + "\n")


def _no_float(text: str):
    raise ValueError(f"transcripts hold no floats, got {text}")


# A transcript holds only ints, strings, lists and objects. Rejecting floats
# while parsing (and booleans after) keeps 2.0 or true from standing in for
# an equal int, which Python's == would let through the event comparison.
_DECODER = json.JSONDecoder(parse_float=_no_float, parse_constant=_no_float)


def _has_bool(value) -> bool:
    """Whether true or false occurs at any depth of a decoded JSON value."""
    stack = [value]
    while stack:
        value = stack.pop()
        if type(value) is bool:
            return True
        if type(value) is dict:
            stack.extend(value.values())
        elif type(value) is list:
            stack.extend(value)
    return False


def read_events(path: str) -> list[dict]:
    """The transcript's events.

    Bad JSON, non-ASCII bytes, floats and booleans raise TranscriptReplayError.
    """
    with open(path, "r", encoding="ascii") as fh:
        try:
            lines = [line for line in fh if line.strip()]
            events = [_DECODER.decode(line) for line in lines]
        # JSONDecodeError and UnicodeDecodeError alike, and nesting deeper
        # than the decoder's recursion limit.
        except (ValueError, RecursionError) as e:
            raise TranscriptReplayError(f"unreadable transcript: {e}") from e
    if not all(type(ev) is dict and type(ev.get("event")) is str for ev in events):
        raise TranscriptReplayError("every line must be a JSON object with an event name")
    if any(
        ("true" in line or "false" in line) and _has_bool(ev) for line, ev in zip(lines, events)
    ):
        raise TranscriptReplayError("transcripts hold no true/false values")
    return events


def _is_int_list(value, length: int | None = None, q: int | None = None) -> bool:
    """A list of ints, optionally of the given length and all in [0, q)."""
    if type(value) is not list or (length is not None and len(value) != length):
        return False
    for v in value:
        if type(v) is not int or q is not None and not 0 <= v < q:
            return False
    return True


class RecordedResponder:
    """Worker answers and local computations read back from a transcript.

    Answers are handed out in file order; whether each one answers the query
    the engine asked is settled by comparing the regenerated events.
    """

    def __init__(self, events: list[dict], d: int):
        self.d = d
        self._answers = iter([ev.get("values") for ev in events if ev["event"] == "response_set"])
        self._truths = iter([ev.get("value") for ev in events if ev["event"] == "local_compute"])

    def bind(self, ctx: CodeContext, a_mat: AssignmentMatrix) -> None:
        self.n, self.q = ctx.n, ctx.q

    def _symbols(self, value, length: int) -> list[int]:
        if not _is_int_list(value, length, self.q):
            raise TranscriptReplayError(f"recorded {value!r} is not {length} field elements")
        return value

    def initial(self) -> list[list[int]]:
        cols = next(self._answers, None)
        if type(cols) is not list or len(cols) != self.n:
            raise TranscriptReplayError(f"initial responses must come from {self.n} workers")
        return [self._symbols(col, self.d) for col in cols]

    def match(self, query, workers) -> list[int]:
        return self._symbols(next(self._answers, None), len(workers))

    def truth(self, i: int) -> list[int]:
        return self._symbols(next(self._truths, None), self.d)


class RecordedGroupOrder:
    """The shuffling rng of a shuffled run, read back from its decode events.

    Each shuffle yields the order the next round's groups were formed from:
    their shared root, then each group's satellite. form_groups rejects an
    order that repeats a worker or names an inactive one.
    """

    def __init__(self, events: list[dict]):
        self._groups = iter([ev.get("groups") for ev in events if ev["event"] == "decode"])

    def shuffle(self, order: list[int]) -> None:
        groups = next(self._groups, None)
        if not (type(groups) is list and groups and all(_is_int_list(g) for g in groups)):
            raise TranscriptReplayError("a shuffled round needs a decode event with its groups")
        root = set(groups[0]).intersection(*groups[1:])
        order[:] = [j - 1 for j in sorted(root)] + [j - 1 for g in groups for j in g if j not in root]


# What the code build or the engine raise on a malformed or tampered transcript.
_REPLAY_ERRORS = (
    ValueError, InfeasibleStateError, ProtocolInvariantViolation, AdversaryBudgetExceededError,
)


def replay_transcript(path: str) -> list[int]:
    """Re-run the protocol engine on the answers recorded in a transcript.

    Rebuilds the code and the assignment from the start event and requires
    the assignment to be regular with replication s+u, since the main node's
    leaf check reads W's rows from that closed form; W itself is never
    built. Runs ProtocolRun with the recorded worker answers and local
    computations (and, for shuffled grouping, the recorded group order), and
    requires the regenerated event list to equal the recorded one. Returns
    the gradient; a malformed or tampered transcript raises
    TranscriptReplayError.
    """
    events = read_events(path)
    hdr = events[0] if events else {}
    if hdr.get("event") != "start":
        raise TranscriptReplayError("transcript must begin with a start event")
    if (
        any(type(hdr.get(k)) is not int for k in ("n", "s", "u", "p", "d", "q"))
        or not _is_int_list(hdr.get("eval_points"))
        or type(hdr.get("assignment")) is not str
    ):
        raise TranscriptReplayError(
            "start needs integers n, s, u, p, d, q and eval_points, and the assignment text"
        )
    try:
        ctx = build_code_context(hdr["n"], hdr["s"], hdr["u"], hdr["q"], hdr["eval_points"])
        a_mat, rho = assignment_from_text(hdr["assignment"])
        if rho != ctx.s + ctx.u:
            raise TranscriptReplayError("assignment replication disagrees with header")
        result = ProtocolRun(
            ctx, a_mat, RecordedResponder(events, hdr["d"]),
            grouping_rng=RecordedGroupOrder(events) if hdr.get("grouping") == "shuffled" else None,
            meta={k: v for k, v in hdr.items() if k not in START_FIELDS},
        ).run()
    except _REPLAY_ERRORS as e:
        raise TranscriptReplayError(f"transcript does not replay: {e}") from e
    regenerated = result.transcript.events
    if regenerated != events:
        k = next(k for k, (a, b) in enumerate(zip_longest(regenerated, events)) if a != b)
        raise TranscriptReplayError(f"event {k + 1} does not reproduce the recorded one")
    return result.gradient
