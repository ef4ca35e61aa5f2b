import hashlib
import json
import random
from collections import Counter
from itertools import product

import pytest

from byzgrad import coding, protocol
from byzgrad.adversary import AdversaryStrategy, RandomCorruption, tournament_liar
from byzgrad.assignment import (
    assignment_from_text,
    assignment_to_text,
    make_cyclic,
    make_fractional,
    make_random_regular,
)
from byzgrad.coding import (
    EncodingMatrix,
    build_code_context,
    build_encoding_matrix,
    combining_vector,
    sample_row,
)
from byzgrad.errors import (
    AdversaryBudgetExceededError,
    DimensionError,
    InfeasibleStateError,
    ProtocolInvariantViolation,
    TranscriptReplayError,
)
from byzgrad.field import DEFAULT_MODULUS
from byzgrad.harness import (
    SimulationConfig,
    assignment_feasible,
    replay_transcript,
    run_simulation,
    write_transcript,
)
from byzgrad.protocol import (
    ProtocolRun,
    Query,
    SimulatedResponder,
    detect_contradiction,
    form_groups,
    group_response,
    leaf_depths,
    pack_responses,
    run_protocol,
    split,
)

from oracles import (
    dense_group_response,
    leaf_depth_walk,
    match_answer_slice,
    pairwise_contradiction,
)

# SHA-256 over the transcripts and metrics rows of test_match_golden_digest,
# computed before honest match answers came from per-run prefix sums.
MATCH_DIGEST = "75357748970161434af66c8ee463f7646e06ac5fb30368f363abb6e49d3177a2"
# Likewise for test_wide_run_golden_digest, computed before honest responses
# and group claims were packed into lanes of one big integer.
WIDE_DIGEST = "4de8e923a95395f472d09c58b4c503e9430859472a089d3559f585c119fff5d8"


def make_gradients(ctx, p, d, seed):
    rng = random.Random(seed)
    return [[rng.randrange(ctx.q) for _ in range(p)] for _ in range(d)]


def full_sum(ctx, g):
    return [sum(row) % ctx.q for row in g]


# match tree -------------------------------------------------------------------


def test_tree_leaves_enumerate_samples_once():
    for p in range(1, 33):
        leaves, stack = [], [(0, p)]
        while stack:
            lo, hi = stack.pop()
            if hi - lo == 1:
                leaves.append(lo)
            else:
                mid = split(lo, hi)
                assert lo < mid < hi
                stack += [(mid, hi), (lo, mid)]
        assert leaves == list(range(p))


def test_tree_height_is_ceil_log2():
    import math

    for p in range(1, 33):
        expected = 0 if p == 1 else math.ceil(math.log2(p))
        assert max(leaf_depths(p)) == expected == (p - 1).bit_length()


def test_tree_children_partition_with_larger_first_half():
    assert split(0, 3) == 2
    assert split(0, 2) == 1 and split(2, 3) == 3
    assert leaf_depths(3) == (2, 2, 1)
    for lo in range(5):
        for hi in range(lo + 2, lo + 20):
            first, second = split(lo, hi) - lo, hi - split(lo, hi)
            assert first + second == hi - lo and 0 <= first - second <= 1


def test_leaf_depths_match_per_leaf_walk():
    for p in range(1, 70):
        assert leaf_depths(p) == tuple(leaf_depth_walk(p, i) for i in range(p))
    with pytest.raises(ValueError):
        leaf_depths(0)


def match_tree_nodes(p):
    """Every interval [lo, hi) of the halving over p samples, root to leaves."""
    nodes, stack = [], [(0, p)]
    while stack:
        lo, hi = stack.pop()
        nodes.append((lo, hi))
        if hi - lo > 1:
            mid = split(lo, hi)
            stack += [(mid, hi), (lo, mid)]
    return nodes


def test_leftmost_leaf_is_deepest():
    for p in (3, 5, 6, 7, 9, 12):
        assert leaf_depths(p)[0] == max(leaf_depths(p)) == (p - 1).bit_length()


# grouping ---------------------------------------------------------------------


def test_form_groups_small_example():
    # root (0,), satellites 1 and 2
    assert form_groups([0, 1, 2], r=1, s_t=1) == ((0, 1), (0, 2))


def test_form_groups_no_budget_single_group():
    assert form_groups([0, 1, 2, 3], r=1, s_t=0) == ((0, 1),)


def test_form_groups_shared_root_structure():
    # n=7, s=2, u=1 gives r=4: 3 groups of size 5 sharing 4 workers
    groups = form_groups(range(7), r=4, s_t=2)
    assert len(groups) == 3
    for g in groups:
        assert len(g) == 5
    for i in range(3):
        for j in range(i + 1, 3):
            assert set(groups[i]) & set(groups[j]) == {0, 1, 2, 3}


def test_form_groups_respects_order():
    # root (3,), satellites 1 and 0
    assert form_groups([0, 1, 2, 3], r=1, s_t=1, order=[3, 1, 0, 2]) == ((1, 3), (0, 3))


def test_form_groups_rejects_bad_order():
    with pytest.raises(InfeasibleStateError):
        form_groups([0, 1, 2, 3], r=1, s_t=1, order=[3, 1, 3, 0])  # 3 named twice
    with pytest.raises(InfeasibleStateError):
        form_groups([0, 1, 3], r=1, s_t=1, order=[3, 1, 2])  # 2 is not active
    assert form_groups([0, 1, 3], r=1, s_t=1, order=[3, 1, 0]) == ((1, 3), (0, 3))


def test_form_groups_infeasible():
    with pytest.raises(InfeasibleStateError):
        form_groups([0, 1], r=1, s_t=1)


# contradiction detection --------------------------------------------------------


def test_detect_agreement():
    assert detect_contradiction([[1, 2], [1, 2], [1, 2]]) is None


def test_detect_conflict_lowest_pair():
    assert detect_contradiction([[1, 2], [1, 2], [9, 2]]) == (2, 0)


def test_detect_conflict_first_coordinate():
    assert detect_contradiction([[1, 2, 3], [1, 5, 9]]) == (1, 1)


def test_detect_scan_against_group_zero_matches_pairwise_oracle():
    cases = Counter()
    for d in (1, 2):
        claims = list(product(range(3), repeat=d))
        for m in range(1, 5):
            for responses in product(claims, repeat=m):
                out = detect_contradiction(responses)
                pair = pairwise_contradiction(responses)
                if pair is None:
                    assert out is None, responses
                    cases["agreement"] += 1
                else:
                    # All groups share the root, so the lowest pair starts at group 0.
                    assert pair[0] == 0 and out == pair[1:], responses
                    cases["conflict"] += 1
    assert cases == {"agreement": 48, "conflict": 7452}


def test_group_response_exact_product():
    f = build_code_context(3, 1, 1, 7)
    cols = [[1, 4], [2, 5], [3, 6]]  # d = 2 symbols from each of n = 3 workers
    packed = pack_responses(f, cols)
    assert group_response(f, packed, [1, 0, 2], 2) == [(1 + 6) % 7, (4 + 12) % 7]


def test_group_response_matches_dense_oracle():
    """Claims from packed responses equal the row-by-row product, up to the carry boundary."""
    rng = random.Random(21)
    for q in (7, DEFAULT_MODULUS, 2**61 - 1, 2**64 + 13):
        for _ in range(40):
            n = rng.randrange(2, min(q - 1, 30) + 1)
            s = rng.randrange(1, n)
            u = rng.randrange(1, min(s + 1, n - s) + 1)
            ctx = build_code_context(n, s, u, q)
            d = rng.choice((1, rng.randrange(2, 20)))
            received = [[rng.randrange(q) for _ in range(n)] for _ in range(d)]
            packed = pack_responses(ctx, list(zip(*received)))
            group = rng.sample(range(n), ctx.r + 1)
            for b in (combining_vector(ctx, group), [rng.randrange(q) for _ in range(n)]):
                assert group_response(ctx, packed, b, d) == dense_group_response(ctx, received, b)
        # Every symbol and coefficient at q-1 fills each lane to n * (q-1)^2,
        # with d lanes on both sides of the pack and unpack cutovers.
        for n in {2, min(q - 1, 30)}:
            ctx = build_code_context(n, 1, 1, q)
            for d in (1, 3, 64, 65, 4096):
                received = [[q - 1] * n] * d
                packed = pack_responses(ctx, [[q - 1] * d] * n)
                claims = group_response(ctx, packed, [q - 1] * n, d)
                assert claims == dense_group_response(ctx, received, [q - 1] * n)
                assert claims == [n * (q - 1) ** 2 % q] * d


def test_group_response_rejects_wrong_lengths():
    # A short vector would drop the last workers' terms from the dot product.
    ctx = build_code_context(3, 1, 1, 7)
    packed = pack_responses(ctx, [[1, 4], [2, 5], [3, 6]])
    for b in ([1, 0], [], [1, 0, 2, 0]):
        with pytest.raises(DimensionError):
            group_response(ctx, packed, b, 2)
    with pytest.raises(DimensionError):
        group_response(ctx, packed[:2], [1, 0, 2], 2)


def test_corrupt_shared_worker_weighted_differently_per_group():
    # the shared member's error enters each group with a distinct coefficient,
    # so a single corrupt worker can never make two groups agree
    ctx = build_code_context(3, 1, 1, 7)
    a_mat = make_cyclic(3, 3, 2)
    g = [[2, 3, 4]]
    from byzgrad.coding import response_matrix

    enc = build_encoding_matrix(ctx, a_mat)
    z = response_matrix(ctx, g, enc)
    truth = (2 + 3 + 4) % 7
    for err in range(1, 7):
        data = list(z[0])
        data[2] = (data[2] + err) % 7  # worker 3 sits in both groups below
        packed = pack_responses(ctx, [[v] for v in data])
        r1 = group_response(ctx, packed, combining_vector(ctx, (0, 2)), 1)
        r2 = group_response(ctx, packed, combining_vector(ctx, (1, 2)), 1)
        assert r1 != r2
        assert r1 != [truth] and r2 != [truth]


def test_simulated_responder_truth_is_sample_column():
    from byzgrad.protocol import SimulatedResponder, local_compute

    ctx = build_code_context(3, 1, 1, 7)
    a_mat = make_cyclic(3, 3, 2)
    responder = SimulatedResponder([[2, 3, 4], [5, 6, 0]], AdversaryStrategy())
    responder.bind(ctx, a_mat)
    assert responder.enc == build_encoding_matrix(ctx, a_mat)
    assert responder.truth(1) == [3, 6]
    assert local_compute(responder, 0) == [2, 5]
    assert local_compute(responder, 2) == [4, 0]


def test_each_bind_reads_the_encoding_of_its_own_code_and_assignment():
    # Two assignments of one shape, and two codes that differ only in the
    # order of their points, take turns: a W cached under a coarser key
    # than the whole code and assignment answers for the wrong pair, and
    # the leaf check then eliminates honest workers.
    ctx = build_code_context(6, 2, 1, 101)
    permuted = build_code_context(6, 2, 1, 101, eval_points=ctx.eval_points[::-1])
    assert permuted != ctx
    instances = [
        (code, a_mat)
        for code in (ctx, permuted)
        for a_mat in (make_cyclic(6, 6, 3), make_random_regular(6, 6, 3, 4))
    ]
    assert instances[0][1] != instances[1][1]
    g = [[1, 2, 3, 4, 5, 6]]
    for seed in range(5):
        for code, a_mat in instances:
            responder = SimulatedResponder(g, tournament_liar([0, 3], seed=seed))
            res = ProtocolRun(code, a_mat, responder).run()
            assert responder.enc == build_encoding_matrix(code, a_mat)
            assert res.gradient == full_sum(code, g)
            assert set(res.eliminated) <= {0, 3}


def test_unreduced_gradients_give_field_element_local_computations(tmp_path):
    # Entries below 0 and at or above q: the run must record reduced values
    # that its own replay accepts.
    ctx = build_code_context(4, 1, 1, 101)
    a_mat = make_cyclic(4, 8, 2)
    g = [[-163, 250, 7, -1, 300, 0, 101, -202], [-163, -5, 1000, 2, -3, 4, 99, -100]]
    res = run_protocol(
        ctx, a_mat, g, tournament_liar([0], seed=9),
        meta={"assignment": assignment_to_text(a_mat, 2)},
    )
    truth = [sum(row) % 101 for row in g]
    assert res.eliminated == (0,) and res.gradient == truth
    local = [ev["value"] for ev in res.transcript.events if ev["event"] == "local_compute"]
    assert local == [[row[0] % 101 for row in g]] == [[39, 39]]
    path = tmp_path / "unreduced.jsonl"
    write_transcript(res, str(path))
    assert replay_transcript(str(path)) == truth


@pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
def test_initial_response_of_the_wrong_length_is_rejected(change):
    class WrongLength(AdversaryStrategy):
        def initial_response(self, j, honest):
            return list(honest)[:change] if change < 0 else [*honest, 1]

    ctx = build_code_context(4, 1, 1, 101)
    g = [[1, 2, 3, 4], [5, 6, 7, 8]]
    with pytest.raises(ProtocolInvariantViolation, match="worker 2 sent"):
        run_protocol(ctx, make_cyclic(4, 4, 2), g, WrongLength([1]))


def test_query_is_an_immutable_value():
    query = Query(1, (0, 2), 0)
    assert query == Query(1, (0, 2), 0) == (1, (0, 2), 0)
    assert hash(query) == hash((1, (0, 2), 0))
    assert (query.level, query.mask, query.coordinate) == (1, (0, 2), 0)
    with pytest.raises(AttributeError):
        query.level = 2


def test_meta_labels_follow_the_start_fields_and_may_not_reuse_them():
    ctx = build_code_context(3, 1, 1, 7)
    a_mat = make_cyclic(3, 3, 2)
    start = run_protocol(ctx, a_mat, [[2, 3, 4]], AdversaryStrategy(),
                         meta={"seed": 4, "label": "x"}).transcript.events[0]
    assert list(start) == [
        "event", "n", "s", "u", "r", "p", "d", "q", "eval_points", "grouping", "seed", "label",
    ]
    for name in ("event", "n", "grouping"):
        with pytest.raises(ValueError, match="may not reuse"):
            run_protocol(ctx, a_mat, [[2, 3, 4]], AdversaryStrategy(), meta={name: 1})


def test_protocol_rejects_gradients_without_coordinates(tmp_path):
    ctx = build_code_context(3, 1, 1, 7)
    a_mat = make_cyclic(3, 3, 2)
    with pytest.raises(ValueError, match="need at least one gradient coordinate"):
        run_protocol(ctx, a_mat, [], AdversaryStrategy())
    # The transcript a 0-row run would have written, derived from a 1-row one.
    meta = {"assignment": assignment_to_text(a_mat, 2)}
    events = run_protocol(ctx, a_mat, [[2, 3, 4]], AdversaryStrategy(), meta=meta).transcript.events
    assert [ev["event"] for ev in events] == [
        "start", "query", "response_set", "decode", "agreement", "final",
    ]
    events[0]["d"] = 0
    events[2]["values"] = [[] for _ in events[2]["values"]]
    events[3]["values"] = [[] for _ in events[3]["values"]]
    events[4]["value"] = events[5]["gradient"] = []
    path = tmp_path / "no_coordinates.jsonl"
    path.write_text("".join(json.dumps(ev) + "\n" for ev in events))
    with pytest.raises(TranscriptReplayError, match="need at least one gradient coordinate"):
        replay_transcript(str(path))


def assert_match_answers_equal_slice(ctx, responder, gradients, enc, coords):
    # Coordinates alternate within every interval, so a table keyed by the
    # worker alone answers some coordinate from another's sums. Each node is
    # also asked of a shuffled subset of the workers, so an answer placed
    # by worker index instead of by query position differs.
    n, p = ctx.n, len(gradients[0])
    rng = random.Random(p)
    for (lo, hi), c in product(match_tree_nodes(p), coords):
        for workers in (range(n), rng.sample(range(n), rng.randrange(2, n + 1))):
            out = responder.match(Query(1, (lo, hi), c), workers)
            assert out == [
                match_answer_slice(ctx, gradients, enc, c, lo, hi, j) for j in workers
            ], (p, lo, hi, c, workers)


def test_prefix_match_answers_equal_strided_slice():
    # One responder per p is bound to each assignment in turn, so answers
    # taken from the previous run's table would differ from the oracle.
    s, u = 1, 1
    builders = {
        "cyclic": lambda n, p: make_cyclic(n, p, s + u),
        "fractional": lambda n, p: make_fractional(n, p, s + u),
        "random": lambda n, p: make_random_regular(n, p, s + u, seed=p),
    }
    checked = 0
    for p in range(1, 71):
        n = 4 if p > 1 else 2  # one sample keeps at most s+u workers busy
        ctx = build_code_context(n, s, u, DEFAULT_MODULUS)
        g = make_gradients(ctx, p, 3, seed=p)
        responder = SimulatedResponder(g, AdversaryStrategy())
        for kind, build in builders.items():
            if not assignment_feasible(kind, n, p, s + u)[0]:
                continue
            a_mat = build(n, p)
            enc = build_encoding_matrix(ctx, a_mat)
            responder.bind(ctx, a_mat)
            assert_match_answers_equal_slice(ctx, responder, g, enc, range(3))
            checked += 1
    assert checked == 3 * 70 - 1  # all but the cyclic layout at n=4, p=2


def test_a_rebound_responder_reads_the_lanes_of_its_new_code():
    # The lane shifts come with a run's first prefix: bound in turn to codes
    # of other lane widths and worker counts, one responder reads each new
    # W's lanes.
    p = 9
    g = make_gradients(build_code_context(4, 1, 1, 7), p, 2, seed=1)
    responder = SimulatedResponder(g, AdversaryStrategy())
    for n, q in ((4, 7), (6, DEFAULT_MODULUS), (4, 2**61 - 1), (6, 7)):
        ctx = build_code_context(n, 1, 1, q)
        a_mat = make_cyclic(n, p, 2)
        responder.bind(ctx, a_mat)
        enc = build_encoding_matrix(ctx, a_mat)
        assert_match_answers_equal_slice(ctx, responder, g, enc, range(2))


@pytest.mark.parametrize("q", [7, 2**61 - 1, 2**64 + 13], ids=["7", "2^61-1", "2^64+13"])
def test_prefix_match_answers_cover_moduli_and_unreduced_gradients(q):
    # Entries in [-2q, 3q): the prefix must reduce each gradient row mod q
    # first, or a negative entry borrows and a large one carries across lanes.
    s, u, n = 1, 1, 4
    ctx = build_code_context(n, s, u, q)
    rng = random.Random(q)
    for p in (5, 8, 13, 33):
        g = [[rng.randrange(-2 * q, 3 * q) for _ in range(p)] for _ in range(3)]
        g[0][:2] = [-1, q]
        responder = SimulatedResponder(g, AdversaryStrategy())
        for build in (make_cyclic, make_fractional):
            a_mat = build(n, p, s + u)
            enc = build_encoding_matrix(ctx, a_mat)
            responder.bind(ctx, a_mat)
            assert_match_answers_equal_slice(ctx, responder, g, enc, range(3))


@pytest.mark.parametrize("q", [7, 2**61 - 1, 2**64 + 13], ids=["7", "2^61-1", "2^64+13"])
def test_prefix_match_answers_fill_the_lane_at_every_q_minus_one(q, monkeypatch):
    # Every entry of W and of the gradient is q-1 (as q-1, -1 and 2q-1), so
    # the root query sums p·(q-1)² in every lane: the most a lane of
    # lane_bytes(q, p) bytes must hold, and more than a byte narrower holds.
    # The hand-made W takes the place of the responder's own.
    n = 4
    ctx = build_code_context(n, 1, 1, q)
    for p in (7, 8, 255, 256, 257, 300):
        enc = EncodingMatrix(((q - 1,) * n,) * p, q)
        width, _ = enc.sample_lanes
        if width > 1:
            assert p * (q - 1) ** 2 >= 1 << 8 * (width - 1)
        g = [[q - 1] * p, [-1] * p, [2 * q - 1] * p]
        monkeypatch.setattr(protocol, "_all_one_encoding", lambda ctx, a_mat: enc)
        responder = SimulatedResponder(g, AdversaryStrategy())
        responder.bind(ctx, make_cyclic(n, p, 2))
        assert responder.enc is enc
        assert_match_answers_equal_slice(ctx, responder, g, enc, range(3))


def test_match_golden_digest():
    # Match-heavy runs: small fields put conflicts on several coordinates,
    # and p = 256 runs every match to full depth.
    digest = hashlib.sha256()
    runs, coordinates = 0, set()
    for (n, s, u, p, q), kind, (adversary, plan) in product(
        ((4, 1, 1, 4, 5), (6, 2, 1, 9, 11), (8, 3, 1, 16, 17), (12, 3, 2, 64, 67),
         (16, 4, 1, 256, 257)),
        ("cyclic", "fractional", "random"),
        (("tournament-liar", "consistent"), ("tournament-liar", "inconsistent"),
         ("random-always", "consistent")),
    ):
        if not assignment_feasible(kind, n, p, s + u)[0]:
            continue
        for seed in range(8):
            out = run_simulation(SimulationConfig(
                n=n, s=s, u=u, p=p, d=4, q=q, assignment=kind, adversary=adversary,
                lie_plan=plan, seed=seed, grouping=("lowest", "shuffled")[seed % 2],
            ))
            runs += 1
            assert out.result.gradient == out.truth
            for ev in out.result.transcript.events:
                if ev["event"] == "conflict":
                    coordinates.add(ev["coordinate"])
                digest.update((json.dumps(ev, separators=(",", ":")) + "\n").encode())
            digest.update((out.metrics.csv_row() + "\n").encode())
    assert runs == 312
    assert len(coordinates) >= 3
    assert digest.hexdigest() == MATCH_DIGEST


def test_wide_run_golden_digest():
    # The benchmark's width, n=24, p=256, d=16: every response and group claim
    # spans many field elements, in three fields, one of them above 2^64.
    digest = hashlib.sha256()
    runs = 0
    for q, adversary, (kind, u) in product(
        (2**31 - 1, 2**61 - 1, 2**64 + 13),
        ("tournament-liar", "random-always"),
        (("cyclic", 1), ("cyclic", 2), ("fractional", 2), ("random", 1), ("random", 2)),
    ):
        for seed in range(2):
            out = run_simulation(SimulationConfig(
                n=24, s=6, u=u, p=256, d=16, q=q, assignment=kind, adversary=adversary,
                seed=seed, grouping=("lowest", "shuffled")[seed],
            ))
            runs += 1
            assert out.result.gradient == out.truth
            for ev in out.result.transcript.events:
                digest.update((json.dumps(ev, separators=(",", ":")) + "\n").encode())
            digest.update((out.metrics.csv_row() + "\n").encode())
    assert runs == 60
    assert digest.hexdigest() == WIDE_DIGEST


# worked example ---------------------------------------------------------------


def test_worked_example_run():
    ctx = build_code_context(3, 1, 1, 7)
    a_mat = make_cyclic(3, 3, 2)
    g = [[2, 3, 4]]
    strat = tournament_liar([2], "consistent", seed=1)
    res = run_protocol(ctx, a_mat, g, strat)
    assert res.gradient == [(2 + 3 + 4) % 7]
    assert res.eliminated == (2,)
    tr = res.transcript
    assert tr.local_computations == 1
    assert tr.comm_overhead <= 6
    assert tr.rounds == 1
    assert tr.downlink_bits <= 2


def test_honest_run_costs_nothing():
    ctx = build_code_context(5, 2, 1, 101)
    a_mat = make_cyclic(5, 6, 3)
    g = make_gradients(ctx, 6, 2, seed=0)
    res = run_protocol(ctx, a_mat, g, AdversaryStrategy())
    assert res.outcome == "agreement"
    assert res.gradient == full_sum(ctx, g)
    assert res.eliminated == ()
    assert res.transcript.local_computations == 0
    assert res.transcript.comm_overhead == 0
    assert res.transcript.downlink_bits == 0


def test_full_redundancy_skips_interaction():
    # u = s+1 decodes immediately by error correction
    ctx = build_code_context(6, 2, 3, 101)
    a_mat = make_random_regular(6, 4, 5, seed=3)
    g = make_gradients(ctx, 4, 1, seed=3)
    strat = RandomCorruption([1, 4], seed=3, persistence="always")
    res = run_protocol(ctx, a_mat, g, strat)
    assert res.outcome == "ecc"
    assert res.gradient == full_sum(ctx, g)
    tr = res.transcript
    assert (tr.rounds, tr.local_computations, tr.comm_overhead) == (0, 0, 0)


def test_single_sample_match_needs_no_communication():
    ctx = build_code_context(2, 1, 1, 11)
    a_mat = make_cyclic(2, 1, 2)
    g = [[5]]
    strat = RandomCorruption([0], seed=3, persistence="always")
    res = run_protocol(ctx, a_mat, g, strat)
    assert res.gradient == [5]
    assert res.eliminated == (0,)
    tr = res.transcript
    assert tr.comm_overhead == 0
    assert tr.local_computations == 1


def test_consistent_liar_forces_full_depth():
    # worker 0 holds sample 0, whose leaf sits at maximum depth
    ctx = build_code_context(4, 1, 1, 101)
    a_mat = make_cyclic(4, 8, 2)
    g = make_gradients(ctx, 8, 1, seed=9)
    strat = tournament_liar([0], "consistent", seed=9)
    res = run_protocol(ctx, a_mat, g, strat)
    assert res.gradient == full_sum(ctx, g)
    assert res.eliminated == (0,)
    tr = res.transcript
    levels = [ev for ev in tr.events if ev["event"] == "match_level"]
    assert len(levels) == max(leaf_depths(8)) == 3
    assert tr.comm_overhead == (ctx.r + 2) * 3


def test_soundness_and_progress_many_runs():
    rng = random.Random(123)
    for trial in range(60):
        n = rng.randrange(4, 8)
        s = rng.randrange(1, 3)
        u = rng.randrange(1, min(s + 1, n - s) + 1)
        p = rng.choice([1, 3, 5, 8])
        if (s + u) * p < n or p + (s + u) - 1 < n:
            continue
        ctx = build_code_context(n, s, u, 101)
        a_mat = make_cyclic(n, p, s + u)
        g = make_gradients(ctx, p, rng.choice([1, 2]), seed=trial)
        controlled = rng.sample(range(n), s)
        kind = rng.choice(["always", "initial_only", "per_query_coin"])
        strat = RandomCorruption(controlled, seed=trial, persistence=kind)
        res = run_protocol(ctx, a_mat, g, strat)
        assert res.gradient == full_sum(ctx, g)
        assert set(res.eliminated) <= set(controlled)
        tr = res.transcript
        budget = s + 1 - u
        assert tr.local_computations <= budget
        assert tr.rounds <= budget
        # every conflict round eliminated someone
        conflicts = sum(ev["event"] == "conflict" for ev in tr.events)
        eliminations = sum(ev["event"] == "elimination" for ev in tr.events)
        assert conflicts == eliminations
        assert len(res.eliminated) >= conflicts


def test_shuffled_grouping_still_sound():
    ctx = build_code_context(6, 2, 1, 101)
    a_mat = make_cyclic(6, 6, 3)
    for seed in range(20):
        g = make_gradients(ctx, 6, 1, seed=seed)
        strat = RandomCorruption([1, 4], seed=seed, persistence="always")
        res = run_protocol(
            ctx, a_mat, g, strat, grouping_rng=random.Random(seed),
        )
        assert res.gradient == full_sum(ctx, g)
        assert set(res.eliminated) <= {1, 4}


def test_budget_exceeded_detected():
    ctx = build_code_context(3, 1, 1, 101)
    a_mat = make_cyclic(3, 3, 2)
    g = [[7, 8, 9]]
    strat = RandomCorruption([1, 2], seed=0, persistence="always")
    with pytest.raises(AdversaryBudgetExceededError):
        run_protocol(ctx, a_mat, g, strat)


def test_transcript_structure():
    ctx = build_code_context(3, 1, 1, 7)
    a_mat = make_cyclic(3, 3, 2)
    g = [[2, 3, 4]]
    res = run_protocol(ctx, a_mat, g, tournament_liar([2], "consistent", seed=1))
    events = res.transcript.events
    assert events[0]["event"] == "start"
    assert events[-1]["event"] == "final"
    final = events[-1]
    assert final["local_computations"] == res.transcript.local_computations
    assert final["comm_overhead"] == res.transcript.comm_overhead
    assert final["eliminated"] == [3]
    # response sets follow their queries
    for i, ev in enumerate(events):
        if ev["event"] == "response_set":
            assert events[i - 1]["event"] == "query"
    # all indices are 1-based
    for ev in events:
        if ev["event"] == "elimination":
            assert all(w >= 1 for w in ev["workers"])


def test_protocol_path_does_no_dense_product(tmp_path, monkeypatch):
    # Honest responses come from response_matrix's packed class sums and
    # claims from group_response's packed dot product: the per-worker dense
    # product G @ W[:, j] raises at every name it is reachable by.
    def no_product(*args, **kwargs):
        raise RuntimeError("dense per-worker product on the protocol path")

    calls = []
    packed = protocol.response_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return packed(*args, **kwargs)

    # Match answers come from one packed prefix per disputed coordinate,
    # never from one per worker.
    prefixes = []
    accumulate = protocol.accumulate

    def counted_prefix(*args):
        prefixes.append(1)
        return accumulate(*args)

    for module in (coding, protocol):
        monkeypatch.setattr(module, "worker_response", no_product)
    monkeypatch.setattr(protocol, "response_matrix", counted)
    monkeypatch.setattr(protocol, "accumulate", counted_prefix)
    liar = run_simulation(
        SimulationConfig(n=8, s=2, u=1, p=8, d=3, adversary="tournament-liar", seed=1)
    )
    events = liar.result.transcript.events
    disputed = {ev["coordinate"] for ev in events if ev["event"] == "conflict"}
    assert disputed and len(prefixes) == len(disputed)
    # tau = 3: s = u-1, so the decode corrects the liars without a match.
    corrected = run_simulation(
        SimulationConfig(n=12, s=3, u=4, p=12, d=3, adversary="random-always", seed=3)
    )
    symmetrized = run_simulation(
        SimulationConfig(n=7, s=2, u=1, p=9, d=2, adversary="symmetrization", seed=2)
    )
    assert len(calls) == 3
    assert liar.result.eliminated and corrected.result.outcome == "ecc"
    for out in (liar, corrected, symmetrized):
        assert out.result.gradient == out.truth
    path = tmp_path / "liar.jsonl"
    write_transcript(liar.result, str(path))
    assert replay_transcript(str(path)) == liar.truth


def test_an_assignment_and_its_text_round_trip_share_one_encoding():
    # Built apart, equal assignments are equal, hash equal (each computes
    # its hash once) and find one entry of the responder's encoding cache.
    ctx = build_code_context(6, 2, 1, 101)
    for a in (make_cyclic(6, 9, 3), make_fractional(6, 9, 3), make_random_regular(6, 9, 3, 5)):
        b, _ = assignment_from_text(assignment_to_text(a, 3))
        assert b == a and b is not a and hash(b) == hash(a)
        assert protocol._all_one_encoding(ctx, b) is protocol._all_one_encoding(ctx, a)


def test_leaf_row_cache_equals_sample_row():
    # The main node's leaf rows come from a cache keyed on the code and the
    # leaf's column; two fields give two rows for one column.
    for q in (101, DEFAULT_MODULUS):
        ctx = build_code_context(6, 2, 1, q)
        for a in (make_cyclic(6, 9, 3), make_fractional(6, 9, 3), make_random_regular(6, 9, 3, 5)):
            for column in zip(*a.bits):
                assert protocol._leaf_row(ctx, column) == sample_row(ctx, column)


def test_a_run_packs_each_class_of_w_once(monkeypatch):
    # The initial responses and the match answers read one packing of W:
    # response_matrix takes each class row from the per-sample lanes.
    calls = []
    pack = coding.pack

    def counted(*args):
        calls.append(1)
        return pack(*args)

    # A W cached by an earlier test would come packed already.
    protocol._all_one_encoding.cache_clear()
    monkeypatch.setattr(coding, "pack", counted)
    ctx = build_code_context(8, 2, 1, 101)
    a_mat = make_cyclic(8, 16, 3)
    enc = build_encoding_matrix(ctx, a_mat)
    g = make_gradients(ctx, 16, 3, seed=4)
    res = run_protocol(ctx, a_mat, g, tournament_liar([0, 5], "consistent", seed=4))
    assert res.gradient == full_sum(ctx, g) and res.eliminated == (0, 5)
    assert any(ev["event"] == "match_level" for ev in res.transcript.events)
    assert len(calls) == len(enc.row_classes) == 8
