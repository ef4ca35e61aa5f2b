import hashlib
import json
import random
from itertools import combinations, product

import pytest

from byzgrad import adversary as adv
from byzgrad.adversary import (
    AdversaryStrategy,
    RandomCorruption,
    SymmetrizationStrategy,
    TournamentLiar,
    pick_attack_support,
    tournament_liar,
)
from byzgrad.assignment import assignment_feasible, make_cyclic, make_random_regular
from byzgrad.checks import symmetrization_attack
from byzgrad.coding import (
    build_code_context,
    build_encoding_matrix,
    combining_vector,
    response_matrix,
)
from byzgrad.errors import InvalidParamsError, ProtocolInvariantViolation
from byzgrad.harness import ADVERSARY_NAMES, SimulationConfig, run_simulation
from byzgrad.protocol import (
    form_groups,
    group_response,
    leaf_depths,
    pack_responses,
    run_protocol,
)

from oracles import leaf_depth_walk, small_instances


def make_gradients(ctx, p, d, seed):
    rng = random.Random(seed)
    return [[rng.randrange(ctx.q) for _ in range(p)] for _ in range(d)]


def full_sum(ctx, g):
    return [sum(row) % ctx.q for row in g]


# baseline strategies ------------------------------------------------------------


def test_honest_strategy_is_transparent():
    # A subclass that overrides nothing controls worker 1: the base class's
    # initial_response runs for it and passes its honest values through.
    class Passive(AdversaryStrategy):
        pass

    ctx = build_code_context(4, 1, 1, 101)
    a_mat = make_cyclic(4, 4, 2)
    g = make_gradients(ctx, 4, 1, seed=0)
    z = response_matrix(ctx, g, build_encoding_matrix(ctx, a_mat))
    honest = [list(col) for col in zip(*z)]
    for strategy in (AdversaryStrategy(), Passive([1])):
        res = run_protocol(ctx, a_mat, g, strategy)
        tr = res.transcript
        assert (tr.local_computations, tr.comm_overhead) == (0, 0)
        assert res.eliminated == ()
        assert res.outcome == "agreement"
        assert res.gradient == full_sum(ctx, g)
        initial = next(e for e in tr.events if e["event"] == "response_set")
        assert initial["kind"] == "initial" and initial["values"] == honest


def test_rng_is_seeded_on_first_use():
    ctx = build_code_context(6, 2, 2, 101)
    a_mat = make_cyclic(6, 6, 4)
    g = make_gradients(ctx, 6, 3, seed=2)
    for strategy in (AdversaryStrategy(), SymmetrizationStrategy()):
        run_protocol(ctx, a_mat, g, strategy)
        assert "rng" not in vars(strategy)
    # A drawing policy draws what an rng seeded at construction would.
    strategy = RandomCorruption([2], seed=9)
    assert "rng" not in vars(strategy)
    strategy.bind(ctx, a_mat)
    expected = random.Random("9:adversary")
    errors = [expected.randrange(101) for _ in range(3)]
    assert any(errors)
    honest_values = [5, 0, 100]
    sent = strategy.initial_response(2, honest_values)
    assert sent == [(h + e) % 101 for h, e in zip(honest_values, errors)]
    assert strategy.match_response(2, None, 7) == (7 + expected.randrange(1, 101)) % 101
    assert strategy.rng is vars(strategy)["rng"]


def test_empty_controlled_set_behaves_honestly():
    ctx = build_code_context(4, 1, 1, 101)
    a_mat = make_cyclic(4, 4, 2)
    g = make_gradients(ctx, 4, 1, seed=1)
    res = run_protocol(ctx, a_mat, g, RandomCorruption([], seed=1))
    assert res.eliminated == ()
    assert res.transcript.comm_overhead == 0


def test_persistent_corruption_identified_within_budget():
    for seed in range(30):
        ctx = build_code_context(6, 2, 1, 101)
        a_mat = make_cyclic(6, 6, 3)
        g = make_gradients(ctx, 6, 1, seed=seed)
        strat = RandomCorruption([0, 3], seed=seed, persistence="always")
        res = run_protocol(ctx, a_mat, g, strat)
        assert res.gradient == full_sum(ctx, g)
        assert res.transcript.rounds <= ctx.s - (ctx.u - 1)
        assert set(res.eliminated) <= {0, 3}


def test_bad_persistence_rejected():
    with pytest.raises(InvalidParamsError):
        RandomCorruption([0], seed=0, persistence="sometimes")


def test_initial_only_corruption_pinned_by_commitments():
    # honest during the search, yet the committed initial response still
    # localizes to a leaf where the claim fails the local check
    caught = 0
    for seed in range(10):
        ctx = build_code_context(4, 1, 1, 101)
        a_mat = make_cyclic(4, 6, 2)
        g = make_gradients(ctx, 6, 1, seed=seed)
        strat = RandomCorruption([0], seed=seed, persistence="initial_only")
        res = run_protocol(ctx, a_mat, g, strat)
        assert res.gradient == full_sum(ctx, g)
        assert set(res.eliminated) <= {0}
        caught += bool(res.eliminated)
    assert caught >= 1  # worker 0 sits in round-one groups, so it does get caught


# tournament liar ------------------------------------------------------------------


def test_liar_empty_plan_caught_from_initial_commitment():
    ctx = build_code_context(4, 1, 1, 101)
    a_mat = make_cyclic(4, 5, 2)
    g = make_gradients(ctx, 5, 1, seed=2)
    strat = tournament_liar([1], "", seed=2)
    res = run_protocol(ctx, a_mat, g, strat)
    assert res.gradient == full_sum(ctx, g)
    assert res.eliminated == (1,)


def test_liar_inconsistent_plan_soundness():
    for seed in range(15):
        ctx = build_code_context(5, 2, 1, 101)
        a_mat = make_cyclic(5, 6, 3)
        g = make_gradients(ctx, 6, 1, seed=seed)
        strat = tournament_liar([0, 2], "inconsistent", seed=seed)
        res = run_protocol(ctx, a_mat, g, strat)
        assert res.gradient == full_sum(ctx, g)
        assert set(res.eliminated) <= {0, 2}
        assert len(res.eliminated) >= 1


def test_liar_per_level_script():
    ctx = build_code_context(4, 1, 1, 101)
    a_mat = make_cyclic(4, 8, 2)
    g = make_gradients(ctx, 8, 1, seed=4)
    strat = tournament_liar([2], "lie,honest", seed=4)
    res = run_protocol(ctx, a_mat, g, strat)
    assert res.gradient == full_sum(ctx, g)
    assert res.eliminated == (2,)


def test_liar_rejects_malformed_plan():
    with pytest.raises(InvalidParamsError):
        tournament_liar([0], "lie,maybe", seed=0)


def test_liar_plans_other_than_the_story_are_random_corruption():
    assert type(tournament_liar([0], seed=1)) is TournamentLiar
    for plan in ("inconsistent", "", "lie,honest", "honest,lie,lie", " lie "):
        assert type(tournament_liar([0], plan, seed=1)) is RandomCorruption
    # The persistence words name no lie plan.
    for word in ("always", "initial_only", "per_query_coin"):
        with pytest.raises(InvalidParamsError, match="bad lie plan"):
            tournament_liar([0], word, seed=0)
    # The seed is keyword-only, so a plan passed by position fails loudly.
    with pytest.raises(TypeError):
        TournamentLiar([0], "inconsistent")


def test_a_rebound_liar_tells_a_new_story_at_the_new_dimension():
    # bind starts a run: one liar reused for d = 2, 4 and 1 draws offsets of
    # each run's dimension, its rng running on from the run before.
    ctx = build_code_context(6, 2, 1, 101)
    a_mat = make_cyclic(6, 8, 3)
    liar = TournamentLiar([0, 3], seed=5)
    for d in (2, 4, 1):
        g = make_gradients(ctx, 8, d, seed=d)
        res = run_protocol(ctx, a_mat, g, liar)
        assert res.gradient == full_sum(ctx, g)
        assert res.eliminated and set(res.eliminated) <= {0, 3}
        assert [len(offsets) for offsets in liar._offsets.values()] == [d, d]


def test_liar_coefficients_equal_the_encoding_entries():
    # bind reads each controlled worker's entry at its target from the closed
    # form of the target's column; it must be that entry of the workers' W, on
    # every feasible generated shape with n <= 12 and p <= 24.
    instances = small_instances()
    for ctx, a_mat in instances:
        w = build_encoding_matrix(ctx, a_mat).w
        liar = TournamentLiar(range(ctx.n))
        liar.bind(ctx, a_mat)
        for j, target in liar._targets.items():
            assert a_mat.bits[j][target] == 1
            assert liar._coefficients[j] == w[target][j], (ctx.n, a_mat, j)
    assert len(instances) == 5766


# Every adversary name under every kind of lie plan, transcripts and metrics
# rows alike: the plans other than "consistent" run random corruption.
CATALOGUE_DIGEST = "154a6aadea2760198264a7f0a6eddbc937b47c8b6e1fe623795d5566782ec6d7"


def test_adversary_catalogue_golden_digest():
    digest = hashlib.sha256()
    runs = 0
    for (n, s, u, p, q), kind, adversary, plan in product(
        ((4, 1, 1, 4, 5), (6, 2, 1, 9, 11), (8, 3, 1, 16, 17), (12, 3, 2, 64, 67)),
        ("cyclic", "fractional", "random"),
        ADVERSARY_NAMES,
        ("consistent", "inconsistent", "", "lie,honest", "honest,lie,lie", " lie "),
    ):
        if not assignment_feasible(kind, n, p, s + u)[0]:
            continue
        for seed in range(3):
            out = run_simulation(SimulationConfig(
                n=n, s=s, u=u, p=p, d=3, q=q, assignment=kind, adversary=adversary,
                lie_plan=plan, seed=seed, grouping=("lowest", "shuffled")[seed % 2],
            ))
            runs += 1
            for ev in out.result.transcript.events:
                digest.update((json.dumps(ev, separators=(",", ":")) + "\n").encode())
            digest.update((out.metrics.csv_row() + "\n").encode())
    assert runs == 1188
    assert digest.hexdigest() == CATALOGUE_DIGEST


# symmetrization --------------------------------------------------------------------


def test_attack_single_group_always_works():
    ctx = build_code_context(5, 2, 1, 101)
    groups = form_groups(range(5), ctx.r, ctx.s)[:1]
    # A lone group has no root to avoid: the support is its first member.
    member = groups[0][0]
    assert pick_attack_support(groups) == [member]
    err = symmetrization_attack(ctx, groups, [member])
    assert err is not None
    assert [j for j, e in enumerate(err) if e] == [member]
    packed = pack_responses(ctx, [[e] for e in err])
    assert group_response(ctx, packed, combining_vector(ctx, groups[0]), 1) == [1]


def test_attack_on_fewer_groups_fools_them():
    for n, s, u in ((5, 2, 1), (6, 2, 2), (7, 3, 1)):
        ctx = build_code_context(n, s, u, 101)
        groups = form_groups(range(n), ctx.r, s)[:s]
        support = pick_attack_support(groups)
        assert len(support) <= s
        err = symmetrization_attack(ctx, groups, support)
        assert err is not None
        assert len(err) == n and all(err[j] == 0 for j in range(n) if j not in support)
        p = max(2, n // (s + u) + 1)
        a_mat = make_random_regular(n, p, s + u, seed=0)
        enc = build_encoding_matrix(ctx, a_mat)
        g = make_gradients(ctx, p, 1, seed=0)
        z = response_matrix(ctx, g, enc)
        corrupted = [[(v + e) % ctx.q for v in col] for col, e in zip(zip(*z), err)]
        packed = pack_responses(ctx, corrupted)
        responses = [group_response(ctx, packed, combining_vector(ctx, gr), 1) for gr in groups]
        assert all(resp == responses[0] for resp in responses)
        assert responses[0] != full_sum(ctx, g)


def test_attack_infeasible_against_full_grouping_exhaustive():
    for n, s, u in ((5, 2, 1), (6, 2, 2)):
        ctx = build_code_context(n, s, u, 101)
        groups = form_groups(range(n), ctx.r, s)
        for support in combinations(range(n), s):
            assert symmetrization_attack(ctx, groups, support) is None


def test_symmetrization_closed_form_matches_the_solved_attack():
    """bind's diagonal closed form equals the general solve on every small shape."""
    shapes = root_support = 0
    for q in (11, 101, 2**31 - 1):
        for n in range(1, min(q - 1, 13) + 1):
            for s in range(n):
                for u in range(1, min(s + 1, n - s) + 1):
                    ctx = build_code_context(n, s, u, q)
                    strat = SymmetrizationStrategy()
                    if s == 0:
                        g = make_gradients(ctx, n, 1, seed=n)
                        res = run_protocol(ctx, make_cyclic(n, n, 1), g, strat)
                        assert res.gradient == full_sum(ctx, g)
                        assert strat.error == [0] * n
                    else:
                        strat.bind(ctx, None)  # the attack reads only the code
                    groups = form_groups(range(n), ctx.r, s)
                    support = pick_attack_support(groups[:s])
                    assert sorted(strat.controlled) == support
                    assert strat.error == symmetrization_attack(ctx, groups[:s], support)
                    assert symmetrization_attack(ctx, groups, support) is None
                    shapes += 1
                    # s = 1 attacks one lone group through a root worker,
                    # which the last group holds too.
                    root_support += s == 1 and ctx.r >= 1 and support[0] in groups[-1]
    assert shapes == 629
    assert root_support > 0


def _patched_vectors(monkeypatch, swap):
    """Make adversary.combining_vector answer swap[group] for the groups swap names."""
    real = adv.combining_vector
    monkeypatch.setattr(
        adv, "combining_vector", lambda c, g: swap.get(tuple(g)) or real(c, g)
    )


def test_symmetrization_bind_rejects_an_attackable_full_grouping(monkeypatch):
    ctx = build_code_context(5, 2, 1, 101)
    groups = form_groups(range(5), ctx.r, ctx.s)
    # The last group reads the first one's vector, so b_last . e = 1.
    _patched_vectors(monkeypatch, {groups[-1]: combining_vector(ctx, groups[0])})
    with pytest.raises(ProtocolInvariantViolation, match="full grouping admits"):
        SymmetrizationStrategy().bind(ctx, None)


def test_symmetrization_bind_rejects_a_group_with_two_support_workers(monkeypatch):
    ctx = build_code_context(5, 2, 1, 101)
    groups = form_groups(range(5), ctx.r, ctx.s)
    # An all-one vector reaches both satellites: the system is no longer diagonal.
    _patched_vectors(monkeypatch, {groups[1]: [1] * ctx.n})
    with pytest.raises(ProtocolInvariantViolation, match="attack against one fewer group"):
        SymmetrizationStrategy().bind(ctx, None)


def test_symmetrization_strategy_never_corrupts_output():
    for n, s, u, p in ((5, 2, 1, 6), (6, 2, 2, 6), (4, 1, 1, 4), (7, 3, 2, 8)):
        ctx = build_code_context(n, s, u, 101)
        a_mat = make_cyclic(n, p, s + u)
        for seed in range(5):
            g = make_gradients(ctx, p, 1, seed=seed)
            strat = SymmetrizationStrategy()
            res = run_protocol(ctx, a_mat, g, strat)
            assert res.gradient == full_sum(ctx, g)
            assert set(res.eliminated) <= set(strat.controlled)


def test_symmetrization_hides_from_targeted_groups_round_one():
    ctx = build_code_context(5, 2, 1, 101)
    a_mat = make_cyclic(5, 6, 3)
    g = make_gradients(ctx, 6, 1, seed=7)
    strat = SymmetrizationStrategy()
    res = run_protocol(ctx, a_mat, g, strat)
    decode = next(ev for ev in res.transcript.events if ev["event"] == "decode")
    values = decode["values"]
    # the first s groups decode the same wrong value; the last disagrees
    assert values[0] == values[1]
    assert values[2] != values[0]
    assert res.gradient == full_sum(ctx, g)


# No benchmark workload runs the symmetrization adversary, so this digest pins
# its transcripts and metrics rows: any change in the attack changes it.
SYMMETRIZATION_DIGEST = "8c204bd7c894e2426d0a7997e5ff6318dc167bcd9769044d1dd65d2f6dfe127c"


def test_symmetrization_golden_digest():
    digest = hashlib.sha256()
    runs = 0
    for n in range(3, 8):
        for s in range(1, 4):
            for u in range(1, s + 2):
                if n < s + u:
                    continue
                for p, kind in product((4, 9), ("cyclic", "fractional", "random")):
                    if not assignment_feasible(kind, n, p, s + u)[0]:
                        continue
                    for grouping in ("lowest", "shuffled"):
                        out = run_simulation(SimulationConfig(
                            n=n, s=s, u=u, p=p, d=2, assignment=kind,
                            adversary="symmetrization", seed=runs, grouping=grouping,
                        ))
                        runs += 1
                        for ev in out.result.transcript.events:
                            digest.update((json.dumps(ev, separators=(",", ":")) + "\n").encode())
                        digest.update((out.metrics.csv_row() + "\n").encode())
    assert runs == 296
    assert digest.hexdigest() == SYMMETRIZATION_DIGEST


def test_cached_leaf_depths_are_shared_immutable_tuples():
    for p in (1, 2, 7, 256):
        depths = leaf_depths(p)
        assert type(depths) is tuple
        assert depths == tuple(leaf_depth_walk(p, i) for i in range(p))
        assert leaf_depths(p) is depths
        with pytest.raises(TypeError):
            depths[0] = 99
