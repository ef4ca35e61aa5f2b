"""Syndrome errors-and-erasures decoder against the Gao and exhaustive oracles."""

import inspect
import random
from itertools import combinations, product

import pytest

from byzgrad import adversary, coding, linalg, protocol
from byzgrad.assignment import make_random_regular
from byzgrad.coding import (
    build_code_context,
    build_encoding_matrix,
    ecc_decode,
    response_matrix,
)
from byzgrad.errors import DecodeFailureError, DimensionError
from byzgrad.field import DEFAULT_MODULUS
from byzgrad.harness import SimulationConfig, replay_transcript, run_simulation, write_transcript

from oracles import (
    exhaustive_ecc_decode,
    forney_values,
    gao_ecc_decode,
    row_table_ecc_decode,
)


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
    n, q = ctx.n, ctx.q
    a_mat = make_random_regular(n, p, ctx.s + ctx.u, rng.randrange(2**31))
    enc = build_encoding_matrix(ctx, a_mat)
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


def _count_calls(monkeypatch, owner, name, counts):
    """Wrap owner.name so that each call adds one to counts[name]."""
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


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


def random_case(rng, moduli=(11, 13, 101, DEFAULT_MODULUS)):
    """A random code, a corrupted all-one response and the identified workers.

    q is one of the moduli and n <= 16. Up to s+2 workers are identified or
    corrupted, so instances run from clean words to beyond the unique
    radius; a few leave fewer than r+1 workers available.
    """
    while True:
        q = rng.choice(moduli)
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
    # The decoder's steps are wrapped to record which regime each decode
    # took, and to check the pool every share is tried on.
    log = []
    pool = {}  # worker -> point, over the roots located so far in this decode
    located = coding._located_pattern
    share = coding._pattern_share

    def log_located(avail, xs, syndromes, q):
        log.append("located")
        out = located(avail, xs, syndromes, q)
        if out is not None:
            roots, _, locator = out
            # A first pool is Berlekamp-Massey's locator reversed: the roots' own.
            assert locator[::-1] == coding._pool_locator(roots.values(), q)
            pool.update(roots)
        log.append("berlekamp_massey" if out is not None else "located_none")
        return out

    def log_share(rev, syndromes, q):
        assert rev == coding._pool_locator(pool.values(), q)
        if log.count("berlekamp_massey") == 1:  # the pool Berlekamp-Massey seeded
            log.append("first_pool")
        out = share(rev, syndromes, q)
        if out is not None:
            log.append("pooled")
        return out

    monkeypatch.setattr(coding, "_located_pattern", log_located)
    monkeypatch.setattr(coding, "_pattern_share", log_share)
    rng = random.Random(80211)
    regimes = dict.fromkeys(
        ["clean", "pooled", "first_pool", "berlekamp_massey", "tau0_failure"]
        + ["coordinate_failure", "budget_failure", "odd_redundancy", "even_redundancy"],
        0,
    )
    for _ in range(2400):
        ctx, received, identified = random_case(rng)
        log.clear()
        pool.clear()
        new = decode_or_message(ecc_decode, ctx, received, identified)
        assert new == decode_or_message(gao_ecc_decode, ctx, received, identified)
        redundancy = ctx.n - len(identified) - ctx.r - 1
        if redundancy >= 0:
            regimes["odd_redundancy" if redundancy % 2 else "even_redundancy"] += 1
        if isinstance(new, list):
            regimes["clean"] += not log
            regimes["pooled"] += "pooled" in log
            regimes["first_pool"] += "first_pool" in log
            regimes["berlekamp_massey"] += "berlekamp_massey" in log
        elif "exceed the budget" in new:
            regimes["budget_failure"] += 1
        elif "within 0 errors" in new:
            regimes["tau0_failure"] += 1
        elif new.startswith("coordinate"):
            regimes["coordinate_failure"] += 1
    assert all(regimes.values()), regimes


@pytest.mark.parametrize("q", [11, 13, 101, DEFAULT_MODULUS, 2**61 - 1, 2**64 + 13])
def test_packed_decoder_matches_row_table_oracle(q):
    # One dot product with the packed columns gives every syndrome and the
    # moment that the row table's N-k+1 dot products give.
    rng = random.Random(q)
    outcomes = {"decoded": 0, "failed": 0}
    for _ in range(300):
        ctx, received, identified = random_case(rng, (q,))
        new = decode_or_message(ecc_decode, ctx, received, identified)
        assert new == decode_or_message(row_table_ecc_decode, ctx, received, identified)
        outcomes["decoded" if isinstance(new, list) else "failed"] += 1
    assert all(outcomes.values()), outcomes


def test_packed_decoder_at_the_carry_boundary():
    # Every symbol q-1 fills each lane with N products of elements of [0, q)
    # as near its width as a word can: a lane one byte short would carry.
    rng = random.Random(7)
    fields = (2, 3, 11, 13, 257, DEFAULT_MODULUS, 2**61 - 1, 2**64 + 13)
    decoded = 0
    for q in fields:
        for n in range(1, min(q - 1, 16) + 1):
            for s in range(1, n):
                for u in range(1, min(s + 1, n - s) + 1):
                    ctx = build_code_context(n, s, u, q)
                    identified = rng.sample(range(n), rng.randint(0, s))
                    received = [[q - 1] * n, [rng.choice((0, q - 1)) for _ in range(n)]]
                    new = decode_or_message(ecc_decode, ctx, received, identified)
                    old = decode_or_message(row_table_ecc_decode, ctx, received, identified)
                    assert new == old, (q, n, s, u, identified)
                    decoded += isinstance(new, list)
    assert decoded


def test_one_lane_table_matches_the_row_table_oracle():
    # u = 1 with s workers erased leaves N = k = r+1 available: the table has
    # no parity checks and one lane, as in every tournament_deep final decode.
    # Any word is then a codeword; honest words give the true gradient.
    rng = random.Random(27)
    cases = 0
    for q in (11, 257, DEFAULT_MODULUS, 2**61 - 1):
        for n in (2, 3, 5, 8, 13, 24):
            if n >= q:
                continue
            for s in sorted({1, n // 2, n - 1}):
                ctx = build_code_context(n, s, 1, q)
                identified = rng.sample(range(n), s)
                for d in (1, 2, 7):
                    p = rng.randint(-(-n // (s + 1)), n + 2)  # no idle worker
                    a_mat = make_random_regular(n, p, s + 1, rng.randrange(2**31))
                    g = [[rng.randrange(q) for _ in range(p)] for _ in range(d)]
                    honest = response_matrix(ctx, g, build_encoding_matrix(ctx, a_mat))
                    truth = [sum(row) % q for row in g]
                    assert ecc_decode(ctx, honest, identified) == truth
                    noise = [[rng.randrange(q) for _ in range(n)] for _ in range(d)]
                    for z in (honest, noise):
                        want = row_table_ecc_decode(ctx, z, identified)
                        assert ecc_decode(ctx, z, identified) == want
                    assert coding._syndrome_table(
                        ctx.eval_points, frozenset(identified), q, ctx.r + 1
                    )[1] == 1
                    cases += 1
    assert cases > 100


def test_over_budget_beyond_tau_fails_where_oracle_misdecodes():
    # n=7, s=3, u=2: r=2, k=3. Three identified workers (> s-u+1 = 2) leave
    # n'=4 available, so tau = min(1, (4-3)//2) = 0, and one more corrupted
    # column is over budget. Erasing any one available worker leaves k
    # columns, which always fit a codeword, so the exhaustive search returns
    # a wrong gradient; the unique decoder refuses.
    ctx = build_code_context(7, 3, 2, 11)
    enc = build_encoding_matrix(ctx, make_random_regular(7, 5, 5, seed=4))
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
    enc = build_encoding_matrix(ctx, make_random_regular(9, 6, 6, seed=7))
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


def test_pool_locator_covers_every_pooled_worker(monkeypatch):
    # Worker 2 errs at coordinate 1, worker 6 at 2 and worker 2 again at 3.
    # Berlekamp-Massey locates the first two; the third is the pooled share
    # over both workers, which a locator of the last located roots alone misses.
    ctx = build_code_context(9, 3, 3, 101)
    enc = build_encoding_matrix(ctx, make_random_regular(9, 6, 6, seed=7))
    rng = random.Random(6)
    g = [[rng.randrange(101) for _ in range(6)] for _ in range(3)]
    received = response_matrix(ctx, g, enc)
    for t, j in ((0, 2), (1, 6), (2, 2)):
        received[t][j] = (received[t][j] + 5) % 101
    counts = {}
    _count_calls(monkeypatch, coding, "_located_pattern", counts)
    assert ecc_decode(ctx, received, []) == [sum(row) % 101 for row in g]
    assert counts == {"_located_pattern": 2}


def test_pooled_errors_capped_by_unique_radius():
    # n=7, s=3, u=3: k=2. Three identified workers leave n'=4, so the unique
    # radius (n'-k)//2 = 1 caps tau below u-1 = 2. Two workers erring on
    # different coordinates are each within the radius per coordinate, but
    # together they are beyond it, where a codeword need not be unique.
    ctx = build_code_context(7, 3, 3, 101)
    enc = build_encoding_matrix(ctx, make_random_regular(7, 4, 6, seed=2))
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


def test_response_rows_must_hold_one_symbol_per_worker():
    # The full-width table would read a short row's missing workers as 0.
    ctx = build_code_context(5, 1, 2, 11)
    for bad in ([[0] * 4], [[0] * 5, [0] * 6]):
        with pytest.raises(DimensionError, match="n=5 symbols"):
            ecc_decode(ctx, bad, [4])


def test_scale_probes_decode_exactly(monkeypatch):
    # s = u-1 with the last s workers lying on every query: one decode that
    # corrects s errors, which the exhaustive search made cost C(n, <= s)
    # solves (24.8 s at n=20). Berlekamp-Massey locates the liars once, at
    # the first coordinate, and each later coordinate solves on that pool.
    for n, s, u in ((20, 6, 7), (32, 10, 11), (64, 21, 22)):
        counts = {}
        for owner, name in ((protocol, "ecc_decode"), (coding, "_located_pattern"),
                            (coding, "_pattern_share")):
            _count_calls(monkeypatch, owner, name, counts)
        cfg = SimulationConfig(
            n=n, s=s, u=u, p=n, d=4, adversary="random-always", controlled="last", seed=1
        )
        out = run_simulation(cfg)
        assert out.result.gradient == out.truth
        assert out.metrics.correct
        assert out.metrics.bound_violations() == []
        assert out.result.outcome == "ecc"
        assert counts == {"ecc_decode": 1, "_located_pattern": 1, "_pattern_share": 3}, (n, counts)
        monkeypatch.undo()


def test_scale_probes_full_depth_matches(monkeypatch):
    # One consistent liar per round drags each of the s matches down to a
    # leaf of a 1024- or 2048-sample tree before the final erasure decode.
    # Every level is one responder answer read off the one prefix the run
    # builds for its disputed coordinate.
    for n, s, p, d in ((64, 21, 1024, 8), (128, 42, 2048, 4)):
        counts = {}
        _count_calls(monkeypatch, protocol, "accumulate", counts)
        _count_calls(monkeypatch, protocol.SimulatedResponder, "match", counts)
        cfg = SimulationConfig(n=n, s=s, u=1, p=p, d=d, adversary="tournament-liar", seed=1)
        out = run_simulation(cfg)
        assert out.result.gradient == out.truth
        assert out.metrics.correct
        assert out.metrics.bound_violations() == []
        assert out.result.transcript.rounds == s
        assert out.result.outcome == "ecc"
        assert counts == {"accumulate": 1, "match": s * (p.bit_length() - 1)}, (n, counts)
        monkeypatch.undo()


def test_protocol_path_does_no_linear_solve(tmp_path, monkeypatch):
    # The run path computes in closed form: every linalg function, and the
    # solver at the names the tracer wraps it by, raises if called.
    def no_linalg(*args, **kwargs):
        raise RuntimeError("dense linear algebra on the protocol path")

    public = [
        name
        for name, obj in vars(linalg).items()
        if inspect.isfunction(obj) and obj.__module__ == linalg.__name__ and name[0] != "_"
    ]
    assert "solve_linear" in public and "invert" in public
    for name in public:
        monkeypatch.setattr(linalg, name, no_linalg)
    for module in (coding, adversary):
        monkeypatch.setattr(module, "solve_linear", no_linalg)
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
    symmetrized = run_simulation(
        SimulationConfig(n=7, s=2, u=1, p=9, d=2, adversary="symmetrization", seed=2)
    )
    assert erased.result.eliminated and attacked.result.eliminated
    for out in (corrected, erased):
        assert out.result.outcome == "ecc"
    for out in (corrected, erased, attacked, symmetrized):
        assert out.result.gradient == out.truth
    for name, out in (("erased", erased), ("attacked", attacked)):
        path = tmp_path / f"{name}.jsonl"
        write_transcript(out.result, str(path))
        assert replay_transcript(str(path)) == out.truth


def test_located_patterns_lie_within_the_radius_with_nonzero_values():
    # Every nonzero syndrome word over q = 7, of every length up to N, on
    # every set of N = 2..4 available points. Berlekamp-Massey returns the
    # shortest generator, so no located pattern has a zero Forney value.
    q = 7
    words = located = 0
    for size in range(2, 5):
        avail = list(range(1, 2 * size, 2))
        for xs in combinations(range(1, q), size):
            for length in range(1, size + 1):
                for syndromes in product(range(q), repeat=length):
                    if not any(syndromes):
                        continue
                    words += 1
                    found = coding._located_pattern(avail, xs, syndromes, q)
                    if found is None:
                        continue
                    located += 1
                    roots, share, locator = found
                    points = list(roots.values())
                    assert locator == coding._berlekamp_massey(syndromes, q)
                    assert len(locator) - 1 == len(roots) and 2 * len(roots) <= length
                    assert all(x == xs[avail.index(j)] for j, x in roots.items())
                    for x in points:  # x^L * locator(1/x)
                        at = [c * pow(x, len(roots) - i, q) for i, c in enumerate(locator)]
                        assert sum(at) % q == 0
                    values = forney_values(locator, syndromes, points, q)
                    assert all(values), (xs, syndromes)
                    pattern = [
                        sum(c * pow(x, m, q) for c, x in zip(values, points)) % q
                        for m in range(length + 1)
                    ]
                    assert pattern == [*syndromes, share], (xs, syndromes)
                    # The share is the next term of the locator's recurrence.
                    tail = syndromes[length - len(roots) :][::-1]
                    assert share == -sum(c * v for c, v in zip(locator[1:], tail)) % q
    assert (words, located) == (50670, 5220)


def test_pooled_share_is_the_located_share():
    # ecc_decode tries the workers pooled at earlier coordinates before
    # Berlekamp-Massey. Whenever a pool of at most len(S)/2 points yields a
    # share, Berlekamp-Massey finds the same share with its roots in the pool:
    # two patterns within the radius with equal syndromes differ by a
    # codeword of weight at most N-k, which is zero.
    rng = random.Random(19)
    seen = {"in pool": 0, "anywhere": 0, "random": 0}  # syndromes with a pooled share
    for q in (7, 11, 13, 101):
        for _ in range(1500):
            size = rng.randrange(3, min(9, q - 1) + 1)
            avail = sorted(rng.sample(range(12), size))
            xs = rng.sample(range(1, q), size)
            length = rng.randrange(2, size)  # len(S) = N - k with k >= 1
            pool = rng.sample(range(size), rng.randrange(1, length // 2 + 1))
            kind = rng.choice(list(seen))
            if kind == "random":
                syndromes = [rng.randrange(q) for _ in range(length)]
            else:
                support = pool if kind == "in pool" else range(size)
                errs = rng.sample(support, rng.randrange(1, min(len(support), length // 2) + 1))
                values = [rng.randrange(q) for _ in errs]
                syndromes = [
                    sum(c * pow(xs[i], m, q) for c, i in zip(values, errs)) % q
                    for m in range(length)
                ]
            points = [xs[i] for i in pool]
            share = coding._pattern_share(coding._pool_locator(points, q), syndromes, q)
            if share is None:
                continue
            seen[kind] += 1
            roots, located, _ = coding._located_pattern(avail, xs, syndromes, q)
            assert located == share, (q, xs, points, syndromes)
            assert set(roots.values()) <= set(points), (q, xs, points, syndromes)
    assert seen == {"in pool": 2019, "anywhere": 468, "random": 71}
