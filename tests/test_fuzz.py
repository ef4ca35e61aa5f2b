"""Chaos fuzzing: arbitrary causal misbehaviour must never corrupt the output.

The guarantee being hammered: for any adversary controlling at most s
workers, whatever it transmits, the run ends with the exact full gradient,
only truly deviating workers eliminated, and costs within their bounds.
The chaos strategy below answers each query with an arbitrary value
(honest, zero, fresh random, shifted honest, or a replay of its own past
transmission), which covers patterns the structured strategies never hit.
"""

import argparse
import json
import random

import pytest

from byzgrad import harness
from byzgrad.cli import _build_config
from byzgrad.adversary import AdversaryStrategy
from byzgrad.assignment import (
    assignment_to_text,
    make_cyclic,
    make_fractional,
    make_random_regular,
)
from byzgrad.coding import build_code_context
from byzgrad.errors import InvalidParamsError, TranscriptReplayError
from byzgrad.field import DEFAULT_MODULUS
from byzgrad.harness import (
    SimulationConfig,
    assignment_feasible,
    replay_transcript,
    run_simulation,
    write_transcript,
)
from byzgrad.protocol import run_protocol


class ChaosStrategy(AdversaryStrategy):
    """Arbitrary deterministic-by-seed responses from controlled workers."""

    name = "chaos"

    def __init__(self, controlled, seed):
        super().__init__(controlled, seed)
        self.sent: dict[int, list[int]] = {j: [] for j in controlled}

    def _twist(self, j: int, honest: int) -> int:
        q = self.ctx.q
        mode = self.rng.randrange(5)
        if mode == 0:
            value = honest
        elif mode == 1:
            value = 0
        elif mode == 2:
            value = self.rng.randrange(q)
        elif mode == 3:
            value = (honest + self.rng.randrange(q)) % q
        else:
            past = self.sent[j]
            value = self.rng.choice(past) if past else honest
        self.sent[j].append(value)
        return value

    def initial_response(self, j, honest):
        return [self._twist(j, h) for h in honest]

    def match_response(self, j, query, honest):
        return self._twist(j, honest)


def test_chaos_adversary_never_corrupts_output(tmp_path):
    rng = random.Random(0)
    runs = 0
    eliminations = 0
    replayed = 0
    while runs < 400:
        n = rng.randrange(3, 9)
        s = rng.randrange(1, min(4, n))
        u = rng.randrange(1, min(s + 1, n - s) + 1)
        p = rng.choice([1, 2, 3, 5, 8, 13])
        d = rng.choice([1, 2, 3])
        kind = rng.choice(["cyclic", "fractional", "random"])
        rho = s + u
        ok, _ = assignment_feasible(kind, n, p, rho)
        if not ok:
            continue
        runs += 1
        seed = rng.randrange(10**9)
        q = 11 if (max(n, p) < 11 and rng.random() < 0.5) else 101
        ctx = build_code_context(n, s, u, q)
        if kind == "cyclic":
            a_mat = make_cyclic(n, p, rho)
        elif kind == "fractional":
            a_mat = make_fractional(n, p, rho)
        else:
            a_mat = make_random_regular(n, p, rho, seed)
        g = [[rng.randrange(q) for _ in range(p)] for _ in range(d)]
        controlled = rng.sample(range(n), rng.randrange(1, s + 1))
        shuffled = rng.choice(["lowest", "shuffled"]) == "shuffled"
        res = run_protocol(
            ctx, a_mat, g, ChaosStrategy(controlled, seed),
            grouping_rng=random.Random(seed) if shuffled else None,
            meta={"assignment": assignment_to_text(a_mat, rho)},
        )
        truth = [sum(row) % q for row in g]
        assert res.gradient == truth, (n, s, u, p, d, kind, seed)
        assert set(res.eliminated) <= set(controlled), (n, s, u, p, d, kind, seed)
        tr = res.transcript
        budget = s + 1 - u
        assert tr.local_computations <= budget
        assert tr.rounds <= budget
        assert tr.comm_overhead <= (ctx.r + 2) * budget * (p - 1).bit_length()
        eliminations += len(res.eliminated)
        if runs % 50 == 0:
            path = tmp_path / f"chaos{runs}.jsonl"
            write_transcript(res, str(path))
            assert replay_transcript(str(path)) == res.gradient
            replayed += 1
    assert eliminations > 0  # the fuzz actually exercised tournaments
    assert replayed == 8


def test_chaos_property_exact_within_bounds():
    # Arbitrary shapes up to p = 64, so matches dispute arbitrary coordinates
    # of gradients with up to 4 of them.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 12), "n")
        s = data.draw(st.integers(1, min(4, n - 1)), "s")
        u = data.draw(st.integers(1, min(s + 1, n - s)), "u")
        kind = data.draw(st.sampled_from(("cyclic", "fractional", "random")), "kind")
        p = data.draw(st.integers(1, 64), "p")
        hypothesis.assume(assignment_feasible(kind, n, p, s + u)[0])
        d = data.draw(st.integers(1, 4), "d")
        q = data.draw(st.sampled_from((67, 101, DEFAULT_MODULUS)), "q")
        controlled = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=s, unique=True), "controlled"
        )
        seed = data.draw(st.integers(0, 2**32 - 1), "seed")
        grouping = data.draw(st.sampled_from(("lowest", "shuffled")), "grouping")
        config = SimulationConfig(
            n=n, s=s, u=u, p=p, d=d, q=q, assignment=kind, adversary="random-always",
            seed=seed, grouping=grouping,
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "make_adversary", lambda cfg: ChaosStrategy(controlled, cfg.seed))
            out = run_simulation(config)
        assert out.result.gradient == out.truth
        assert out.metrics.bound_violations() == []
        assert set(out.result.eliminated) <= set(controlled)

    check()


# Boundary fuzz: arbitrary JSON where a transcript or a config file is read.
# Keys include "self" and "event", which collide with Python and engine
# names; integers stay below 100 so no draw could ask for a large instance.
CONFIG_FIELDS = tuple(SimulationConfig.__dataclass_fields__)


def json_strategies(st):
    keys = st.sampled_from(("self", "event", *CONFIG_FIELDS, "eval_points")) | st.text(max_size=4)
    values = st.recursive(
        st.none() | st.booleans() | st.integers(-100, 99) | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3),
        max_leaves=10,
    )
    return keys, values


def test_start_label_property_replays_or_rejects(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    keys, values = json_strategies(st)
    recorded = []
    for grouping in ("lowest", "shuffled"):
        out = run_simulation(SimulationConfig(
            n=5, s=2, u=1, p=6, d=2, q=101, adversary="tournament-liar", seed=1,
            grouping=grouping,
        ))
        recorded.append((out.result.transcript.events, out.result.gradient))
    path = tmp_path / "t.jsonl"

    # An extra start label, or a new value for an existing one.
    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.sampled_from(recorded), keys, values)
    def check(run, key, value):
        events, gradient = run
        start = {**events[0], key: value}
        path.write_text("".join(json.dumps(ev) + "\n" for ev in [start, *events[1:]]))
        try:
            assert replay_transcript(str(path)) == gradient
        except TranscriptReplayError:
            pass

    check()


def test_config_file_property_raises_only_invalid_params(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    keys, values = json_strategies(st)
    plausible = st.integers(-5, 99) | st.sampled_from((
        "cyclic", "file", "tournament-liar", "shuffled", "first", "1;3", "lie,honest", "",
    ))
    field_values = values | plausible
    configs = values | st.fixed_dictionaries(
        {name: field_values for name in ("n", "s", "u", "p")},
        optional={name: field_values for name in CONFIG_FIELDS if name not in "nsup"},
    )
    path = tmp_path / "cfg.json"
    flags = ("n", "s", "u", "p", "d", "q", "assignment", "assignment_path", "adversary",
             "seed", "grouping", "controlled", "lie_plan")
    args = argparse.Namespace(config=str(path), **dict.fromkeys(flags))

    # Config building and validation only: a valid config is never run.
    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(configs)
    def check(config):
        path.write_text(json.dumps(config))
        try:
            _build_config(args).validate()
        except InvalidParamsError:
            pass

    check()
