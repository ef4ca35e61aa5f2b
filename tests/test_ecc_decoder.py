"""Syndrome errors-and-erasures decoder against the Gao and exhaustive oracles."""

import random
import time

import pytest

from byzgrad import adversary, coding, linalg
from byzgrad.assignment import make_random_regular
from byzgrad.coding import (
    build_code_context,
    build_encoding_matrix,
    ecc_decode,
    response_matrix,
)
from byzgrad.errors import DecodeFailureError
from byzgrad.field import DEFAULT_MODULUS
from byzgrad.harness import SimulationConfig, replay_transcript, run_simulation, write_transcript

from oracles import exhaustive_ecc_decode, gao_ecc_decode


def decode_or_failure(decoder, ctx, received, identified):
    try:
        return decoder(ctx, received, identified)
    except DecodeFailureError:
        return None


def corrupt_instance(rng, ctx, p, d, identified_count, corrupt_count):
    """Random gradients, their all-one responses, and a corrupted copy.

    Returns (received, identified, corrupted workers, true gradient). Each
    corrupted or identified worker errs on a random non-empty subset of the
    d coordinates.
    """
    n, q = ctx.n, ctx.field.q
    a_mat = make_random_regular(n, p, ctx.s + ctx.u, rng.randrange(2**31))
    enc = build_encoding_matrix(ctx, a_mat, [1] * p)
    g = [[rng.randrange(q) for _ in range(p)] for _ in range(d)]
    received = response_matrix(ctx, g, enc)
    truth = [sum(row) % q for row in g]
    identified = rng.sample(range(n), identified_count)
    rest = [j for j in range(n) if j not in identified]
    corrupted = rng.sample(rest, min(corrupt_count, len(rest)))
    for j in corrupted + identified:
        coords = [t for t in range(d) if rng.random() < 0.5] or [rng.randrange(d)]
        for t in coords:
            received[t][j] = (received[t][j] + rng.randrange(1, q)) % q
    return received, identified, corrupted, truth


def decode_or_message(decoder, ctx, received, identified):
    try:
        return decoder(ctx, received, identified)
    except DecodeFailureError as exc:
        return str(exc)


def test_gao_matches_exhaustive_oracle():
    rng = random.Random(20031)
    counts = {"within_with_errors": 0, "diverged": 0, "both_failed": 0}
    for _ in range(2000):
        q = rng.choice((11, 13, 101, DEFAULT_MODULUS))
        n = rng.randint(2, min(12, q - 1))
        s = rng.randint(1, min(4, n - 1))
        u = rng.randint(1, min(s + 1, n - s))
        ctx = build_code_context(n, s, u, q)
        p = rng.randint(-(-n // (s + u)), 6)
        d = rng.randint(1, 3)
        identified_count = rng.randint(0, s)
        corrupt_count = rng.randint(0, s + 1 - identified_count)
        received, identified, corrupted, truth = corrupt_instance(
            rng, ctx, p, d, identified_count, corrupt_count
        )
        new = decode_or_failure(gao_ecc_decode, ctx, received, identified)
        old = decode_or_failure(exhaustive_ecc_decode, ctx, received, identified)
        errors = len(corrupted)
        within = errors <= min(u - 1, s - len(identified))
        tau = min(u - 1, (n - len(identified) - ctx.r - 1) // 2)
        if new is not None:
            assert old == new
        if within:
            assert new == truth and old == truth
            counts["within_with_errors"] += errors > 0
        if new != old:
            assert tau < u - 1 and not within
            counts["diverged"] += 1
        counts["both_failed"] += new is None and old is None
    # Every regime is exercised, including the over-budget divergence.
    assert all(counts.values()), counts


def random_case(rng):
    """A random code, a corrupted all-one response and the identified workers.

    q is one of 11, 13, 101 and 2^31-1 and n <= 16. Up to s+2 workers are
    identified or corrupted, so instances run from clean words to beyond the
    unique radius; a few leave fewer than r+1 workers available.
    """
    while True:
        q = rng.choice((11, 13, 101, DEFAULT_MODULUS))
        n = rng.randint(2, min(16, q - 1))
        s = rng.randint(1, min(5, n - 1))
        u = rng.randint(1, min(s + 1, n - s))
        ctx = build_code_context(n, s, u, q)
        identified_count = rng.randint(0, s)
        if n - identified_count >= ctx.r + 1 or rng.random() < 0.05:
            break
    p = rng.randint(-(-n // (s + u)), 8)
    d = rng.randint(1, 4)
    corrupt_count = rng.randint(0, s + 2 - identified_count)
    received, identified, _, _ = corrupt_instance(rng, ctx, p, d, identified_count, corrupt_count)
    return ctx, received, identified


def test_syndrome_decoder_matches_gao_oracle(monkeypatch):
    # The decoder's steps are wrapped to record which regime each decode took.
    log = []
    located = coding._located_pattern
    share = coding._pattern_share

    def log_located(*args):
        log.append("located")
        out = located(*args)
        log.append("berlekamp_massey" if out is not None else "located_none")
        return out

    def log_share(*args):
        out = share(*args)
        # Outside a Berlekamp-Massey step, the points are the pooled positions.
        if out is not None and (not log or log[-1] != "located"):
            log.append("pooled")
        return out

    monkeypatch.setattr(coding, "_located_pattern", log_located)
    monkeypatch.setattr(coding, "_pattern_share", log_share)
    rng = random.Random(80211)
    regimes = dict.fromkeys(
        ["clean", "pooled", "berlekamp_massey", "tau0_failure", "coordinate_failure"]
        + ["budget_failure", "odd_redundancy", "even_redundancy"],
        0,
    )
    for _ in range(2400):
        ctx, received, identified = random_case(rng)
        log.clear()
        new = decode_or_message(ecc_decode, ctx, received, identified)
        assert new == decode_or_message(gao_ecc_decode, ctx, received, identified)
        redundancy = ctx.n - len(identified) - ctx.r - 1
        if redundancy >= 0:
            regimes["odd_redundancy" if redundancy % 2 else "even_redundancy"] += 1
        if isinstance(new, list):
            regimes["clean"] += not log
            regimes["pooled"] += "pooled" in log
            regimes["berlekamp_massey"] += "berlekamp_massey" in log
        elif "exceed the budget" in new:
            regimes["budget_failure"] += 1
        elif "within 0 errors" in new:
            regimes["tau0_failure"] += 1
        elif new.startswith("coordinate"):
            regimes["coordinate_failure"] += 1
    assert all(regimes.values()), regimes


def test_over_budget_beyond_tau_fails_where_oracle_misdecodes():
    # n=7, s=3, u=2: r=2, k=3. Three identified workers (> s-u+1 = 2) leave
    # n'=4 available, so tau = min(1, (4-3)//2) = 0, and one more corrupted
    # column is over budget. Erasing any one available worker leaves k
    # columns, which always fit a codeword, so the exhaustive search returns
    # a wrong gradient; the unique decoder refuses.
    ctx = build_code_context(7, 3, 2, 11)
    enc = build_encoding_matrix(ctx, make_random_regular(7, 5, 5, seed=4), [1] * 5)
    z = response_matrix(ctx, [[1, 2, 3, 4, 5]], enc)
    truth = [(1 + 2 + 3 + 4 + 5) % 11]
    data = list(z[0])
    data[5] = (data[5] + 3) % 11
    received = [data]
    identified = [0, 1, 2]
    wrong = exhaustive_ecc_decode(ctx, received, identified)
    assert wrong != truth
    with pytest.raises(DecodeFailureError):
        ecc_decode(ctx, received, identified)
    # Within budget, the same instance without the extra corruption decodes.
    assert ecc_decode(ctx, z, identified) == truth


def test_shared_locator_pools_errors_across_coordinates():
    # Two workers each corrupt a different coordinate only; u-1 = 2 covers both.
    ctx = build_code_context(9, 3, 3, 101)
    enc = build_encoding_matrix(ctx, make_random_regular(9, 6, 6, seed=7), [1] * 6)
    rng = random.Random(5)
    g = [[rng.randrange(101) for _ in range(6)] for _ in range(2)]
    received = response_matrix(ctx, g, enc)
    truth = [sum(row) % 101 for row in g]
    received[0][2] = (received[0][2] + 1) % 101
    received[1][6] = (received[1][6] + 1) % 101
    assert ecc_decode(ctx, received, []) == truth
    # A third worker in error exceeds tau = 2 even though each coordinate
    # alone is within the unique radius (n'-k)//2 = 3.
    received[0][4] = (received[0][4] + 1) % 101
    with pytest.raises(DecodeFailureError):
        ecc_decode(ctx, received, [])


def test_pooled_errors_capped_by_unique_radius():
    # n=7, s=3, u=3: k=2. Three identified workers leave n'=4, so the unique
    # radius (n'-k)//2 = 1 caps tau below u-1 = 2. Two workers erring on
    # different coordinates are each within the radius per coordinate, but
    # together they are beyond it, where a codeword need not be unique.
    ctx = build_code_context(7, 3, 3, 101)
    enc = build_encoding_matrix(ctx, make_random_regular(7, 4, 6, seed=2), [1] * 4)
    received = response_matrix(ctx, [[1, 2, 3, 4], [5, 6, 7, 8]], enc)
    received[0][3] = (received[0][3] + 9) % 101
    received[1][5] = (received[1][5] + 9) % 101
    with pytest.raises(DecodeFailureError):
        ecc_decode(ctx, received, [0, 1, 2])


def test_too_few_available_workers_fail():
    ctx = build_code_context(5, 2, 1, 11)  # k = r+1 = 3
    received = [[0] * 5]
    with pytest.raises(DecodeFailureError):
        ecc_decode(ctx, received, [0, 1, 2])


def test_scale_probes_decode_exactly():
    # s = u-1 with the last s workers lying on every query: one decode that
    # corrects s errors, which the exhaustive search made cost C(n, <= s)
    # solves (24.8 s at n=20).
    start = time.perf_counter()
    for n, s, u in ((20, 6, 7), (32, 10, 11), (64, 21, 22)):
        cfg = SimulationConfig(
            n=n, s=s, u=u, p=n, d=4, adversary="random-always", controlled="last", seed=1
        )
        out = run_simulation(cfg)
        assert out.result.gradient == out.truth
        assert out.metrics.correct
        assert out.metrics.bound_violations() == []
        assert out.result.outcome == "ecc"
    assert time.perf_counter() - start < 5.0


def test_scale_probes_full_depth_matches():
    # One consistent liar per round drags each of the s matches down to a
    # leaf of a 1024- or 2048-sample tree before the final erasure decode.
    start = time.perf_counter()
    for n, s, p, d in ((64, 21, 1024, 8), (128, 42, 2048, 4)):
        cfg = SimulationConfig(n=n, s=s, u=1, p=p, d=d, adversary="tournament-liar", seed=1)
        out = run_simulation(cfg)
        assert out.result.gradient == out.truth
        assert out.metrics.correct
        assert out.metrics.bound_violations() == []
        assert out.result.transcript.rounds == s
        assert out.result.outcome == "ecc"
    assert time.perf_counter() - start < 5.0


def test_protocol_path_does_no_linear_solve(tmp_path, monkeypatch):
    def no_solve(*args, **kwargs):
        raise RuntimeError("linear solve on the protocol path")

    for module in (linalg, coding, adversary):
        monkeypatch.setattr(module, "solve_linear", no_solve)
    # tau = 3: s = u-1, so the decode corrects the liars without a match.
    corrected = run_simulation(
        SimulationConfig(n=12, s=3, u=4, p=12, d=3, adversary="random-always", seed=3)
    )
    # tau = 0: both liars are eliminated, then the decode only erases.
    erased = run_simulation(
        SimulationConfig(n=8, s=2, u=1, p=8, d=3, adversary="tournament-liar", seed=1)
    )
    # The symmetrization attack is built in closed form when it binds.
    attacked = run_simulation(
        SimulationConfig(n=8, s=2, u=1, p=8, d=3, adversary="symmetrization", seed=2)
    )
    assert erased.result.eliminated and attacked.result.eliminated
    for out in (corrected, erased):
        assert out.result.outcome == "ecc"
    for out in (corrected, erased, attacked):
        assert out.result.gradient == out.truth
    for name, out in (("erased", erased), ("attacked", attacked)):
        path = tmp_path / f"{name}.jsonl"
        write_transcript(out.result, str(path))
        assert replay_transcript(str(path)) == out.truth
