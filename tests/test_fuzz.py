"""Chaos fuzzing: arbitrary causal misbehaviour must never corrupt the output.

The guarantee being hammered: for any adversary controlling at most s
workers, whatever it transmits, the run ends with the exact full gradient,
only truly deviating workers eliminated, and costs within their bounds.
The chaos strategy below answers each query with an arbitrary value
(honest, zero, fresh random, shifted honest, or a replay of its own past
transmission), which covers patterns the structured strategies never hit.
"""

import random

import pytest

from byzgrad import harness
from byzgrad.adversary import AdversaryStrategy
from byzgrad.assignment import (
    assignment_to_text,
    make_cyclic,
    make_fractional,
    make_random_regular,
)
from byzgrad.coding import build_code_context
from byzgrad.field import DEFAULT_MODULUS
from byzgrad.harness import (
    SimulationConfig,
    assignment_feasible,
    replay_transcript,
    run_simulation,
    write_transcript,
)
from byzgrad.linalg import Matrix
from byzgrad.protocol import run_protocol


class ChaosStrategy(AdversaryStrategy):
    """Arbitrary deterministic-by-seed responses from controlled workers."""

    name = "chaos"

    def __init__(self, controlled, seed):
        super().__init__(controlled, seed)
        self.sent: dict[int, list[int]] = {j: [] for j in controlled}

    def _twist(self, j: int, honest: int) -> int:
        q = self.ctx.field.q
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
        g = Matrix(ctx.field, d, p, [rng.randrange(q) for _ in range(d * p)])
        controlled = rng.sample(range(n), rng.randrange(1, s + 1))
        shuffled = rng.choice(["lowest", "shuffled"]) == "shuffled"
        res = run_protocol(
            ctx, a_mat, g, ChaosStrategy(controlled, seed),
            grouping_rng=random.Random(seed) if shuffled else None,
            meta={"assignment": assignment_to_text(a_mat, rho)},
        )
        truth = [sum(g.row_values(t)) % q for t in range(d)]
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
