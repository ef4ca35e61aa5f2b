import dataclasses
import math
import random
from itertools import combinations
from operator import mul

import pytest

from byzgrad import coding
from byzgrad.assignment import (
    AssignmentMatrix,
    assignment_from_text,
    make_cyclic,
    make_fractional,
    make_random_regular,
)
from byzgrad.checks import _query_rows
from byzgrad.coding import (
    EncodingMatrix,
    _syndrome_table,
    build_code_context,
    build_encoding_matrix,
    combining_vector,
    ecc_decode,
    lane_bytes,
    pack,
    response_matrix,
    sample_row,
    unpack,
    worker_response,
)
from byzgrad.errors import (
    AssignmentMismatchError,
    DecodeFailureError,
    DimensionError,
    InvalidParamsError,
)
from byzgrad.field import DEFAULT_MODULUS
from byzgrad.linalg import determinant, solve_linear

from oracles import (
    _row_syndrome_table,
    columns,
    row_classes_of_w,
    dense_response_matrix,
    generator_matrix,
    loop_pack,
    loop_unpack,
    mat_mul,
    small_instances,
    solve_encoding_matrix,
    vandermonde_inverse_last_column,
    zero_set,
)


def small_context():
    return build_code_context(3, 1, 1, 7)


def random_instance(rng, q=101, max_n=6, max_p=6):
    while True:
        n = rng.randrange(3, max_n + 1)
        s = rng.randrange(1, n)
        u = rng.randrange(1, min(s + 1, n - s) + 1)
        p = rng.randrange(1, max_p + 1)
        if (s + u) * p >= n:
            ctx = build_code_context(n, s, u, q)
            a_mat = make_random_regular(n, p, s + u, rng.randrange(10**6))
            return ctx, a_mat


# context --------------------------------------------------------------------


def test_context_small():
    ctx = small_context()
    assert ctx.r == 1
    assert generator_matrix(ctx) == [[1, 1, 1], [1, 2, 3]]
    assert build_code_context(5, 2, 2, 101).r == 1


def test_context_hash_agrees_with_equality():
    # The hash is computed once and kept; equal codes still hash alike.
    a, b = build_code_context(6, 2, 1, 101), build_code_context(6, 2, 1, 101)
    assert a == b and a is not b and hash(a) == hash(b) == hash(a)
    assert {a: 1}[b] == 1
    other = build_code_context(6, 2, 1, 101, eval_points=[1, 2, 3, 4, 5, 7])
    assert other != a and {a: 1}.get(other) is None


def test_context_rejects_bad_params():
    with pytest.raises(InvalidParamsError):
        build_code_context(3, 1, 1, 3)  # q <= n
    with pytest.raises(InvalidParamsError):
        build_code_context(3, 1, 1, 8)  # composite
    with pytest.raises(InvalidParamsError):
        build_code_context(3, 1, 3, 101)  # u > s+1
    with pytest.raises(InvalidParamsError):
        build_code_context(2, 2, 1, 101)  # n < s+u
    with pytest.raises(InvalidParamsError):
        build_code_context(3, 1, 1, 101, eval_points=[0, 1, 2])
    with pytest.raises(InvalidParamsError):
        build_code_context(3, 1, 1, 101, eval_points=[1, 1, 2])


def test_every_generator_submatrix_invertible():
    for n, s, u in ((6, 2, 3), (8, 3, 4), (5, 2, 2)):
        ctx = build_code_context(n, s, u, 101)
        f = generator_matrix(ctx)
        for cols in combinations(range(n), ctx.r + 1):
            assert determinant(columns(f, cols), 101) != 0


# encoding matrix -------------------------------------------------------------


def test_encoding_matrix_worked_instance():
    ctx = small_context()
    a_mat = make_cyclic(3, 3, 2)
    enc = build_encoding_matrix(ctx, a_mat)
    assert enc.w == ((6, 0, 1), (5, 6, 0), (0, 1, 2))
    # any two workers recover the full sum
    for pair in combinations(range(3), 2):
        b = combining_vector(ctx, pair)
        for i in range(3):
            assert sum(enc.w[i][j] * b[j] for j in pair) % 7 == 1


def test_encoding_zero_query_gives_zero_matrix():
    ctx = small_context()
    a_mat = make_cyclic(3, 3, 2)
    w = _query_rows(ctx, a_mat, [0, 0, 0])
    assert not any(map(any, w))
    assert w == solve_encoding_matrix(ctx, a_mat, [0, 0, 0]).w


def test_encoding_zero_pattern_random_instances():
    rng = random.Random(2)
    for _ in range(40):
        ctx, a_mat = random_instance(rng)
        a = [rng.randrange(101) for _ in range(a_mat.p)]
        w = _query_rows(ctx, a_mat, a)
        assert w == solve_encoding_matrix(ctx, a_mat, a).w
        for j in range(ctx.n):
            for i in range(a_mat.p):
                if not a_mat.bits[j][i]:
                    assert w[i][j] == 0


def test_encoding_span_all_groups_exhaustive():
    rng = random.Random(3)
    for _ in range(15):
        ctx, a_mat = random_instance(rng, max_n=7)
        a = [rng.randrange(101) for _ in range(a_mat.p)]
        w = _query_rows(ctx, a_mat, a)
        for group in combinations(range(ctx.n), ctx.r + 1):
            b = combining_vector(ctx, group)
            got = [sum(row[j] * b[j] for j in group) % 101 for row in w]
            assert got == [v % 101 for v in a]


def test_encoding_rejects_wrong_replication():
    ctx = small_context()
    bad = AssignmentMatrix(3, 2, ((1, 1), (1, 1), (1, 1)))  # rho=3, so r would be 0
    with pytest.raises(AssignmentMismatchError):
        build_encoding_matrix(ctx, bad)
    # Samples 1, 2 and 4 share a good column; sample 3's is the first bad one.
    ctx = build_code_context(5, 2, 1, 101)
    columns = [(1, 1, 1, 0, 0), (1, 1, 1, 0, 0), (0, 1, 1, 1, 1), (1, 1, 1, 0, 0), (1, 0, 0, 0, 0)]
    mixed = AssignmentMatrix(5, 5, tuple(zip(*columns)))
    message = "^sample 3 is missing from 1 workers, expected r=2$"
    with pytest.raises(AssignmentMismatchError, match=message):
        build_encoding_matrix(ctx, mixed)
    with pytest.raises(AssignmentMismatchError, match=message):
        solve_encoding_matrix(ctx, mixed, [1] * 5)


# A file assignment written by hand: every sample on 3 of 6 workers, no two
# samples on the same three.
HAND_ASSIGNMENT = "6 5 3\n11001\n10110\n01101\n01010\n10010\n00101\n"


@pytest.mark.parametrize("q", [7, 101, 2**31 - 1, 2**64 + 13], ids=["7", "101", "2^31-1", "2^64+13"])
def test_sample_row_equals_the_encoding_rows(q):
    # The main node's leaf check reads sample_row; the workers answer from
    # build_encoding_matrix's W. The two must agree on every sample, and with
    # the zero-constraint solve, which shares no code with either.
    hand, rho = assignment_from_text(HAND_ASSIGNMENT)
    assert rho == 3
    for points in (None, (3, 1, 6, 2, 5, 4)):
        ctx = build_code_context(6, 2, 1, q, points)
        for a_mat in (
            make_cyclic(6, 12, 3),
            make_fractional(6, 12, 3),
            make_random_regular(6, 12, 3, seed=q % 997),
            hand,
        ):
            w = build_encoding_matrix(ctx, a_mat).w
            solved = solve_encoding_matrix(ctx, a_mat, [1] * a_mat.p).w
            for i, column in enumerate(zip(*a_mat.bits)):
                row = sample_row(ctx, column)
                assert row == w[i] == tuple(solved[i]), (q, points, a_mat, i)
                assert all(v != 0 for v, held in zip(row, column) if held)


def test_encoding_rejects_shape_mismatches():
    ctx = build_code_context(4, 1, 1, 11)
    with pytest.raises(AssignmentMismatchError):
        build_encoding_matrix(ctx, make_cyclic(5, 5, 2))


def test_closed_form_encoder_matches_solve_oracle():
    """The product formula for W equals the zero-constraint solve, entry by entry.

    The all-one W from build_encoding_matrix, and a general query's W from
    the certificates' scaled rows.
    """
    rng = random.Random(2024)
    seen = {"cyclic": 0, "fractional": 0, "random": 0, "r0": 0, "points": 0, "zero": 0, "scaled": 0}
    for q in (7, 11, 101, DEFAULT_MODULUS):
        cases = 0
        while cases < 80:
            n = rng.randrange(2, min(q - 1, 9) + 1)
            s = rng.randrange(1, n)
            u = rng.randrange(1, min(s + 1, n - s) + 1)
            if rng.random() < 0.25 and n - s <= s + 1:
                u = n - s  # r = 0
            rho = s + u
            p = rng.randrange(1, 13)
            kind = rng.choice(("cyclic", "fractional", "random"))
            try:
                if kind == "cyclic":
                    a_mat = make_cyclic(n, p, rho)
                elif kind == "fractional":
                    a_mat = make_fractional(n, p, rho)
                else:
                    a_mat = make_random_regular(n, p, rho, rng.randrange(10**6))
            except InvalidParamsError:
                continue  # no layout of this kind for (n, p, rho)
            points = None
            if rng.random() < 0.5:
                points = rng.sample(range(1, q), n)
                seen["points"] += 1
            ctx = build_code_context(n, s, u, q, eval_points=points)
            ones = solve_encoding_matrix(ctx, a_mat, [1] * p).w
            assert build_encoding_matrix(ctx, a_mat).w == ones, (q, n, s, u, p, kind, points)
            a = [rng.choice((0, 1, -1, rng.randrange(q))) for _ in range(p)]
            w = _query_rows(ctx, a_mat, a)
            assert w == solve_encoding_matrix(ctx, a_mat, a).w, (q, n, s, u, p, kind, points, a)
            cases += 1
            seen[kind] += 1
            seen["r0"] += ctx.r == 0
            seen["zero"] += any(v % q == 0 for v in a)
            seen["scaled"] += any(v % q not in (0, 1) for v in a)
    assert all(seen.values()), seen


# restriction -----------------------------------------------------------------


def restrict(w, mask):
    """The all-one rows with every row outside the 0/1 mask zeroed."""
    keep = set(mask)
    return tuple(row if i in keep else (0,) * len(row) for i, row in enumerate(w))


def test_restrict_full_and_empty_masks():
    ctx = small_context()
    a_mat = make_cyclic(3, 3, 2)
    w = build_encoding_matrix(ctx, a_mat).w
    assert _query_rows(ctx, a_mat, [1, 1, 1]) == restrict(w, range(3)) == w
    assert _query_rows(ctx, a_mat, [0, 0, 0]) == restrict(w, []) == ((0, 0, 0),) * 3


def test_restrict_matches_rebuild():
    # A 0/1 query's W is the all-one W with the rows outside the mask
    # zeroed: the identity the restriction certificate checks.
    rng = random.Random(4)
    for _ in range(30):
        ctx, a_mat = random_instance(rng)
        w = build_encoding_matrix(ctx, a_mat).w
        mask = [i for i in range(a_mat.p) if rng.random() < 0.5]
        indicator = [1 if i in set(mask) else 0 for i in range(a_mat.p)]
        rebuilt = _query_rows(ctx, a_mat, indicator)
        assert restrict(w, mask) == rebuilt == solve_encoding_matrix(ctx, a_mat, indicator).w


# combining vectors ------------------------------------------------------------


def test_combining_vector_singleton_group():
    ctx = build_code_context(3, 1, 2, 101)  # r = 0
    assert combining_vector(ctx, (1,)) == [0, 1, 0]


def test_combining_vector_worked_values():
    ctx = small_context()
    assert combining_vector(ctx, (0, 2)) == [3, 0, 4]
    f = columns(generator_matrix(ctx), [0, 2])
    assert mat_mul(f, [[3], [4]], 7) == [[0], [1]]


def test_combining_vector_matches_solver_all_groups():
    for n, s, u in ((5, 2, 1), (6, 2, 2), (7, 3, 2)):
        ctx = build_code_context(n, s, u, 101)
        f = generator_matrix(ctx)
        unit = [[0]] * ctx.r + [[1]]
        for group in combinations(range(n), ctx.r + 1):
            closed = combining_vector(ctx, group)
            out = solve_linear(columns(f, group), unit, 101)
            assert out.kind == "unique"
            by_solve = [0] * n
            for j, (v,) in zip(group, out.solution):
                by_solve[j] = v
            assert closed == by_solve


def test_closed_form_combining_vector_matches_group_inverse():
    """Per-code weights times the non-members' differences equal the group's own inverse.

    The oracle inverts the Vandermonde over the members' points alone and
    places its last column at the member indices. Over F_7 the one product
    loop is checked on every member set S of every code with n <= 6 and every
    set of n points: the products vanish exactly off S, equal the
    zero-constraint solve's row of W when S is a sample's s+u holders, and
    scaled by the code's weights w, or started at them, equal
    1 / prod_{m in S, m != j} (x_j - x_m) computed directly, the combining
    vector when |S| = r+1.
    """
    q = 7
    for n in range(1, 7):
        member_sets = [c for size in range(n + 1) for c in combinations(range(n), size)]
        for points in combinations(range(1, q), n):
            weights = coding._point_weights(q, points)
            for members in member_sets:
                products = coding._vanishing_products(q, points, members)
                assert [j for j in range(n) if products[j]] == list(members), (points, members)
                lagrange = [0] * n
                for j in members:
                    lagrange[j] = pow(
                        math.prod(points[j] - points[m] for m in members if m != j), -1, q
                    )
                assert [w * v % q for w, v in zip(weights, products)] == lagrange
                assert coding._vanishing_products(q, points, members, weights) == tuple(lagrange)
            for s in range(n):
                for u in range(1, min(s + 1, n - s) + 1):
                    ctx = build_code_context(n, s, u, q, points)
                    held = [c for c in member_sets if len(c) == s + u]
                    bits = tuple(bytes(j in c for c in held) for j in range(n))
                    a_mat = AssignmentMatrix(n, len(held), bits)
                    solved = solve_encoding_matrix(ctx, a_mat, [1] * len(held)).w
                    for members, row in zip(held, solved):
                        assert coding._vanishing_products(q, points, members) == tuple(row)
                    for group in combinations(range(n), ctx.r + 1):
                        expected = coding._vanishing_products(q, points, group, weights)
                        assert combining_vector(ctx, group) == list(expected)
    rng = random.Random(909)
    seen = {"singleton": 0, "everyone": 0, "custom": 0}
    for q in (7, 11, 101, DEFAULT_MODULUS):
        for _ in range(60):
            n = rng.randrange(1, min(q - 1, 12) + 1)
            r = rng.randrange(n)
            u = rng.randrange(1, (n - r + 1) // 2 + 1)  # u <= s+1 with s+u = n-r
            points = None
            if rng.random() < 0.5:
                # Permuted distinct nonzero points, many of them near or above q.
                points = [x + q * rng.randrange(3) for x in rng.sample(range(1, q), n)]
                seen["custom"] += 1
            ctx = build_code_context(n, n - r - u, u, q, points)
            seen["singleton"] += r == 0
            seen["everyone"] += r + 1 == n
            for _ in range(3):
                group = rng.sample(range(n), r + 1)  # members in any order
                expected = [0] * n
                xs = [ctx.eval_points[j] for j in group]
                for j, c in zip(group, vandermonde_inverse_last_column(q, xs)):
                    expected[j] = c
                assert combining_vector(ctx, group) == expected
            if r + 1 < n:
                with pytest.raises(InvalidParamsError):
                    combining_vector(ctx, rng.sample(range(n), r + 2))
            if r:
                with pytest.raises(InvalidParamsError):
                    combining_vector(ctx, rng.sample(range(n), r))
                members = rng.sample(range(n), r)
                with pytest.raises(InvalidParamsError):
                    combining_vector(ctx, members + [members[0]])
            with pytest.raises(InvalidParamsError):
                combining_vector(ctx, rng.sample(range(n), r) + [n])
    assert min(seen.values()) >= 10, seen


def test_combining_vector_size_check():
    ctx = small_context()
    with pytest.raises(InvalidParamsError):
        combining_vector(ctx, (0,))


def test_cached_combining_vector_cannot_be_poisoned():
    ctx = build_code_context(7, 2, 2, 101)
    group = (0, 2, 4, 5)
    first = combining_vector(ctx, group)
    expected = list(first)
    first[0] += 1
    first[2] = 0
    assert combining_vector(ctx, list(group)) == expected
    assert combining_vector(ctx, group) is not combining_vector(ctx, group)


def test_cached_syndrome_table_is_immutable():
    points, q, k = (1, 2, 3, 5, 8, 13, 21), 101, 2
    erased = frozenset({1, 5})
    table = _syndrome_table(points, erased, q, k)
    width, count, cols, avail, xs = table
    assert all(type(part) is tuple for part in (cols, avail, xs))
    assert all(type(col) is int for col in cols)
    with pytest.raises(TypeError):
        cols[0] = 1
    assert _syndrome_table(points, frozenset([5, 1, 5]), q, k) is table  # keyed by the set
    assert table == _syndrome_table.__wrapped__(points, erased, q, k)
    assert avail == (0, 2, 3, 4, 6) and xs == tuple(points[j] for j in avail)
    assert (width, count, len(cols)) == (lane_bytes(q, len(xs)), len(xs) - k + 1, len(points))
    # Full width: an erased worker's column is 0, and an available worker's
    # lanes are its column of the row table, w_j * x_j**m for m = 0..N-k.
    assert [cols[j] for j in sorted(erased)] == [0, 0]
    rows = _row_syndrome_table(points, avail, q, k)
    for col, want in zip([cols[j] for j in avail], zip(*rows)):
        assert unpack(col, width, count, q) == list(want)
        assert col < 1 << 8 * width * count  # no bits above the top lane
    # On any polynomial of degree below k the first len(xs)-k lanes of a
    # word's dot product vanish and the last reads off its coefficient of
    # x^(k-1), whatever the erased workers' symbols.
    rng = random.Random(3)
    for _ in range(20):
        f = [rng.randrange(q) for _ in range(k)]
        word = [sum(c * pow(x, i, q) for i, c in enumerate(f)) % q for x in points]
        for j in erased:
            word[j] = rng.randrange(-q, 5 * q)
        dots = unpack(sum(map(mul, word, cols)), width, count, q)
        assert dots == [0] * (len(xs) - k) + [f[k - 1]]


def test_syndrome_weights_from_code_weights_match_fresh_inverse():
    """The weight lane derived from the code's weights is the available points' own."""
    rng = random.Random(11)
    for q in (11, 101, DEFAULT_MODULUS, 2**64 + 13):
        for _ in range(30):
            n = rng.randrange(2, min(q - 1, 18) + 1)
            points = tuple(rng.sample(range(1, min(q, 10**6)), n))
            erased = frozenset(rng.sample(range(n), rng.randrange(n)))
            k = rng.randrange(1, n - len(erased) + 1)
            width, count, cols, avail, xs = _syndrome_table(points, erased, q, k)
            fresh = vandermonde_inverse_last_column(q, list(xs))
            assert [unpack(cols[j], width, count, q)[0] for j in avail] == fresh


# decoding matrix --------------------------------------------------------------


def test_decoding_matrix_worked_instance():
    ctx = small_context()
    a_mat = make_cyclic(3, 3, 2)
    enc = build_encoding_matrix(ctx, a_mat)
    for group in [(0, 2), (1, 2)]:
        b = combining_vector(ctx, group)
        # sum_j W[i][j] * b_g[j] = a_i, with b_g supported only on its group
        assert [sum(map(mul, row, b)) % 7 for row in enc.w] == [1, 1, 1]
        assert all(b[j] == 0 for j in range(3) if j not in group)


def test_decoding_identity_random_groupings():
    rng = random.Random(5)
    for _ in range(10):
        ctx, a_mat = random_instance(rng, max_n=7)
        groups = [
            tuple(sorted(rng.sample(range(ctx.n), ctx.r + 1))) for _ in range(3)
        ]
        vectors = [combining_vector(ctx, g) for g in groups]
        for g, b in zip(groups, vectors):
            assert all(b[j] == 0 for j in range(ctx.n) if j not in g)
        for _ in range(10):
            a = [rng.randrange(101) for _ in range(a_mat.p)]
            w = _query_rows(ctx, a_mat, a)
            for b in vectors:
                prod = [sum(map(mul, row, b)) % 101 for row in w]
                assert prod == [v % 101 for v in a]


# worker responses --------------------------------------------------------------


def test_worker_response_zero_column():
    ctx = small_context()
    a_mat = make_cyclic(3, 3, 2)
    w = _query_rows(ctx, a_mat, [0, 0, 0])
    enc = EncodingMatrix(w, 7, row_classes_of_w(w))
    assert worker_response(ctx, [[1, 2, 3]], enc, 0) == [0]


def test_responses_of_an_encoding_with_no_samples():
    # With p = 0, W has no row to read n off: each gradient row of no
    # samples gets n zero responses, the code's n.
    ctx = build_code_context(4, 1, 1, 101)
    enc = build_encoding_matrix(ctx, AssignmentMatrix(4, 0, (b"",) * 4))
    assert enc.w == () and enc.row_classes == ()
    g = [[], []]
    assert response_matrix(ctx, g, enc) == [[0] * 4] * 2
    assert [worker_response(ctx, g, enc, j) for j in range(4)] == [[0, 0]] * 4


def test_worker_response_matches_matrix_product():
    rng = random.Random(6)
    for _ in range(20):
        ctx, a_mat = random_instance(rng)
        d = rng.randrange(1, 4)
        g = [[rng.randrange(101) for _ in range(a_mat.p)] for _ in range(d)]
        enc = build_encoding_matrix(ctx, a_mat)
        z = response_matrix(ctx, g, enc)
        for j in range(ctx.n):
            assert worker_response(ctx, g, enc, j) == [row[j] for row in z]


def _check_row_classes(enc):
    """Every class holds equal rows, and every row is in one."""
    w = enc.w
    samples = enc.row_classes
    members = [i for c in samples for i in c]
    assert sorted(members) == list(range(len(w)))
    for c in samples:
        assert list(c) == sorted(c)
        assert all(w[i] == w[c[0]] for i in c)
    reps = [w[c[0]] for c in samples]
    assert len(set(reps)) == len(reps)
    assert samples == row_classes_of_w(w)


# Worker rows of a 4-worker file assignment with rho = 2: samples 0, 1 and 3
# share a column, unevenly spaced, and so do samples 2 and 5.
FILE_ASSIGNMENT = "4 6 2\n110110\n110100\n001001\n001011\n"


def _layout_sums(enc, row):
    """{packed class row: class sum} read off enc.class_layout for a row of p values."""
    singles, gatherers, rows = enc.class_layout
    sums = list(singles(row)) if singles else []
    sums += [sum(gather(row)) for gather in gatherers]
    assert len(sums) == len(rows) == len(enc.row_classes)
    return dict(zip(rows, sums))


def _oracle_sums(enc, row):
    """{packed class row: class sum} over row_classes_of_w's classes."""
    width = enc.sample_lanes[0]
    return {pack(enc.w[c[0]], width): sum(row[i] for i in c) for c in row_classes_of_w(enc.w)}


def test_row_classes_and_gatherers_equal_the_oracles():
    # The classes of an encoding, the all-one one build_encoding_matrix
    # makes or a general query's, must be W's equal rows. The layout's
    # one-sample gatherer and per-class gatherers, read in layout order
    # against its packed rows, must give each class's sum, from a list or
    # a tuple.
    rng = random.Random(5)
    file_mat, _ = assignment_from_text(FILE_ASSIGNMENT)
    instances = [
        ("cyclic", build_code_context(8, 2, 1), make_cyclic(8, 16, 3)),
        ("cyclic", build_code_context(24, 6, 1), make_cyclic(24, 256, 7)),
        ("cyclic", build_code_context(8, 2, 1), make_cyclic(8, 6, 3)),
        ("fractional", build_code_context(8, 2, 2), make_fractional(8, 16, 4)),
        ("fractional", build_code_context(9, 2, 1), make_fractional(9, 20, 3)),
        ("random", build_code_context(8, 2, 1), make_random_regular(8, 16, 3, seed=4)),
        ("random", build_code_context(5, 1, 1), make_random_regular(5, 40, 2, seed=9)),
        ("random", build_code_context(12, 3, 4), make_random_regular(12, 12, 7, seed=5)),
        ("file", build_code_context(4, 1, 1, 101), file_mat),
    ]
    forms, kinds = set(), set()
    for kind, ctx, a_mat in instances:
        p = a_mat.p
        a = [rng.choice((0, 1, 1, -1, 5)) for _ in range(p)]
        w = _query_rows(ctx, a_mat, a)
        general = EncodingMatrix(w, ctx.q, row_classes_of_w(w))
        for enc in (build_encoding_matrix(ctx, a_mat), general):
            classes = enc.row_classes
            assert classes == row_classes_of_w(enc.w), (kind, a)
            singles, gatherers, rows = enc.class_layout
            ones = sum(len(c) == 1 for c in classes)
            assert (singles is None) == (ones == 0) and len(gatherers) == len(classes) - ones
            assert enc.class_layout is enc.class_layout  # laid out once
            kinds.add("none" if not ones else "all" if ones == len(classes) else "mixed")
            row = [rng.randrange(ctx.q) for _ in range(p)]
            for form in (row, tuple(row)):
                assert _layout_sums(enc, form) == _oracle_sums(enc, row), (kind, a)
            forms.update(type(g(row)) for g in (*gatherers, singles) if g)
    classes = build_encoding_matrix(instances[-1][1], file_mat).row_classes
    assert classes == ((0, 1, 3), (2, 5), (4,))  # a one-sample class after the others
    assert kinds == {"none", "all", "mixed"}
    assert forms == {list, tuple}  # a lone sample's slice of a list, and itemgetter's tuples


def test_recorded_row_classes_equal_the_classes_of_w():
    # build_encoding_matrix records the classes from the assignment's
    # columns; they must be W's classes of equal rows, read off W, on every
    # feasible generated shape with n <= 12 and p <= 24 (random at two
    # seeds) and on a file assignment whose classes are unevenly spaced.
    file_mat, _ = assignment_from_text(FILE_ASSIGNMENT)
    cases = [(build_code_context(4, 1, 1, 101), file_mat), *small_instances()]
    for ctx, a_mat in cases:
        enc = build_encoding_matrix(ctx, a_mat)
        assert enc.row_classes == row_classes_of_w(enc.w), (ctx.n, a_mat)
    assert len(cases) == 5767


def test_response_matrix_matches_dense_product():
    """Class sums times packed class rows equal G @ W, whatever built the encoding."""
    rng = random.Random(77)
    seen = dict.fromkeys(
        ("cyclic", "fractional", "random", "p<n", "p=n", "p>>n", "p=1", "d=1",
         "zero", "minus", "scaled", "oracle", "restricted", "empty", "unreduced", "negative",
         "no one-sample", "one one-sample", "all one-sample", "mixed"),
        0,
    )
    for q in (7, 101, DEFAULT_MODULUS, 2**61 - 1, 2**64 + 13):
        cases = 0
        while cases < 60:
            n = rng.randrange(2, min(q - 1, 9) + 1)
            s = rng.randrange(1, n)
            u = rng.randrange(1, min(s + 1, n - s) + 1)
            rho = s + u
            p = rng.choice((1, rng.randrange(1, n + 1), n, rng.randrange(3 * n, 8 * n)))
            kind = rng.choice(("cyclic", "fractional", "random"))
            try:
                if kind == "cyclic":
                    a_mat = make_cyclic(n, p, rho)
                elif kind == "fractional":
                    a_mat = make_fractional(n, p, rho)
                else:
                    a_mat = make_random_regular(n, p, rho, rng.randrange(10**6))
            except InvalidParamsError:
                continue  # no layout of this kind for (n, p, rho)
            ctx = build_code_context(n, s, u, q)
            style = rng.choice(("ones", "mixed", "oracle", "restricted"))
            if style == "ones":
                enc = build_encoding_matrix(ctx, a_mat)
            elif style in ("mixed", "oracle"):
                a = [rng.choice((0, 1, -1, rng.randrange(q))) for _ in range(p)]
                if style == "mixed":
                    w = _query_rows(ctx, a_mat, a)
                    enc = EncodingMatrix(w, q, row_classes_of_w(w))
                else:
                    enc = solve_encoding_matrix(ctx, a_mat, a)
                a = [v % q for v in a]
                seen["zero"] += 0 in a
                seen["minus"] += q - 1 in a
                seen["scaled"] += any(v not in (0, 1, q - 1) for v in a)
            else:
                full = build_encoding_matrix(ctx, a_mat).w
                mask = [i for i in range(p) if rng.random() < 0.5]
                w = restrict(full, mask)
                enc = EncodingMatrix(w, q, row_classes_of_w(w))
                seen["empty"] += not mask
            d = rng.randrange(1, 5)
            entries = rng.choice(("field", "unreduced", "negative"))
            lo, hi = {"field": (0, q), "unreduced": (0, 5 * q), "negative": (-5 * q, q)}[entries]
            g = [[rng.randrange(lo, hi) for _ in range(p)] for _ in range(d)]
            z = response_matrix(ctx, g, enc)
            assert z == dense_response_matrix(ctx, g, enc), (
                q, n, s, u, p, kind, style, entries,
            )
            _check_row_classes(enc)
            cases += 1
            seen[kind] += 1
            seen["p=1" if p == 1 else "p<n" if p < n else "p=n" if p == n else "p>>n"] += 1
            seen["d=1"] += d == 1
            seen["oracle"] += style == "oracle"
            seen["restricted"] += style == "restricted"
            seen[entries] = seen.get(entries, 0) + 1
            seen[_partition_kind(enc)] += 1
    # Partitions the random shapes above rarely give: every sample alone in
    # its class, at p = 1, for cyclic p < n and at random n=24, p=256; and
    # exactly one one-sample class beside others.
    file_mat, _ = assignment_from_text(FILE_ASSIGNMENT)
    for ctx, a_mat, kind in (
        (build_code_context(3, 1, 2, 101), make_cyclic(3, 1, 3), "all one-sample"),
        (build_code_context(8, 2, 1), make_cyclic(8, 6, 3), "all one-sample"),
        (build_code_context(24, 6, 1), make_random_regular(24, 256, 7, seed=1), "all one-sample"),
        (build_code_context(4, 1, 1, 101), file_mat, "one one-sample"),
        (build_code_context(8, 2, 1), make_cyclic(8, 16, 3), "no one-sample"),
    ):
        enc = build_encoding_matrix(ctx, a_mat)
        assert _partition_kind(enc) == kind
        g = [[rng.randrange(-ctx.q, 5 * ctx.q) for _ in range(a_mat.p)] for _ in range(3)]
        assert response_matrix(ctx, g, enc) == dense_response_matrix(ctx, g, enc)
        seen[kind] += 1
    assert all(seen.values()), seen


def _partition_kind(enc):
    """How many of enc's row classes hold one sample: none, one, all of them, or some."""
    ones = sum(len(c) == 1 for c in enc.row_classes)
    if ones == len(enc.row_classes):
        return "all one-sample"
    return {0: "no one-sample", 1: "one one-sample"}.get(ones, "mixed")


def test_response_matrix_lanes_at_the_carry_boundary():
    """Every class sum and class entry at q-1 fills a lane to classes * (q-1)^2."""
    for q, classes in ((7, 6), (101, 100), (DEFAULT_MODULUS, 300), (2**61 - 1, 300),
                       (2**64 + 13, 300)):
        for n in (2, 5):
            ctx = build_code_context(n, 1, 1, q)
            # Distinct rows, each q-1 everywhere but in the last worker.
            w = tuple((q - 1,) * (n - 1) + (c + 1,) for c in range(classes))
            enc = EncodingMatrix(w, q, row_classes_of_w(w))
            assert len(enc.row_classes) == classes
            for g in ([[q - 1] * classes], [[-1] * classes, [2 * q - 1] * classes]):
                z = response_matrix(ctx, g, enc)
                assert z == dense_response_matrix(ctx, g, enc)
                assert z[0][0] == classes * (q - 1) ** 2 % q
            width = enc.sample_lanes[0]
            assert width == lane_bytes(q, len(enc.w))  # one sample per class here
            assert classes * (q - 1) ** 2 >= 1 << 8 * (width - 1)  # one byte less carries


def test_pack_and_unpack_equal_the_shift_loops_at_both_cutovers():
    # Lane counts on both sides of both cutovers and far past them, with
    # random elements and with every lane filled to terms * (q-1)^2, the
    # most it holds: a lane one byte short would carry into the next.
    rng = random.Random(3)
    counts = sorted({1, 4096} | {
        cut + step for cut in (coding._PACK_BYTES_FROM, coding._UNPACK_BYTES_FROM)
        for step in (-1, 0, 1)
    })
    for q in (2, 7, DEFAULT_MODULUS, 2**61 - 1):
        for terms in (1, 256):
            width = lane_bytes(q, terms)
            for count in counts:
                row = [rng.randrange(q) for _ in range(count)]
                x = pack(row, width)
                assert x == loop_pack(row, width)
                assert unpack(x, width, count, q) == loop_unpack(x, width, count, q) == row
                full = terms * (q - 1) * pack([q - 1] * count, width)
                assert full == terms * (q - 1) * loop_pack([q - 1] * count, width)
                peak = [terms * (q - 1) ** 2 % q] * count
                assert unpack(full, width, count, q) == loop_unpack(full, width, count, q) == peak


def test_bytes_lanes_reject_what_a_lane_cannot_hold():
    # From the cutovers on, a negative or over-wide value raises where the
    # shift loops would spill it into the next lane.
    count = coding._UNPACK_BYTES_FROM
    for bad in (-1, 256):
        with pytest.raises(OverflowError):
            pack([0] * (count - 1) + [bad], 1)
    for bad in (-1, 1 << 8 * count):
        with pytest.raises(OverflowError):
            unpack(bad, 1, count, 7)


def test_response_matrix_rejects_mismatches():
    ctx = small_context()
    enc = build_encoding_matrix(ctx, make_cyclic(3, 3, 2))
    with pytest.raises(DimensionError):
        response_matrix(ctx, [[1, 2]], enc)
    with pytest.raises(DimensionError):
        response_matrix(ctx, [[1, 2, 3], [1, 2]], enc)  # ragged rows
    with pytest.raises(DimensionError):
        worker_response(ctx, [[1, 2, 3], [1, 2]], enc, 0)


def test_row_class_counts():
    cyclic = make_cyclic(24, 256, 7)
    enc = build_encoding_matrix(build_code_context(24, 6, 1), cyclic)
    assert len(enc.row_classes) == 24
    for n, s, u in ((24, 5, 1), (12, 2, 2), (9, 2, 1)):
        rho = s + u
        frac = make_fractional(n, 60, rho)
        enc = build_encoding_matrix(build_code_context(n, s, u), frac)
        assert len(enc.row_classes) == n // rho
    rand = make_random_regular(24, 256, 7, seed=1)
    assert len({tuple(zero_set(rand, i)) for i in range(256)}) == 256  # all patterns distinct
    enc = build_encoding_matrix(build_code_context(24, 6, 1), rand)
    assert len(enc.row_classes) == 256


def test_row_classes_are_immutable_and_leave_the_fields_alone():
    ctx = build_code_context(6, 2, 1, 101)
    a_mat = make_cyclic(6, 9, 3)
    enc = build_encoding_matrix(ctx, a_mat)
    twin = build_encoding_matrix(ctx, a_mat)
    samples = enc.row_classes
    for part in (samples, *samples):
        assert type(part) is tuple
    with pytest.raises(TypeError):
        samples[0][0] = 5
    width, packed = enc.sample_lanes
    assert type(packed) is tuple and enc.sample_lanes[1] is packed  # packed once
    assert width == lane_bytes(101, len(enc.w))
    assert [f.name for f in dataclasses.fields(enc)] == ["w", "q", "row_classes"]
    assert enc == twin and hash(enc) == hash(twin)


def test_encoding_rows_are_shared_tuples_and_columns_are_cached():
    ctx = build_code_context(6, 2, 1, 101)
    a_mat = make_cyclic(6, 12, 3)  # samples i and i + 6 share a zero set
    enc = build_encoding_matrix(ctx, a_mat)
    assert type(enc.w) is tuple and all(type(row) is tuple for row in enc.w)
    assert all(enc.w[i] is enc.w[i + 6] for i in range(6))  # one tuple per zero set


def test_fig_instance_pairwise_decodable():
    ctx = small_context()
    a_mat = make_cyclic(3, 3, 2)
    enc = build_encoding_matrix(ctx, a_mat)
    z = response_matrix(ctx, [[2, 3, 4]], enc)
    total = (2 + 3 + 4) % 7
    for pair in combinations(range(3), 2):
        b = combining_vector(ctx, pair)
        assert sum(z[0][j] * b[j] for j in pair) % 7 == total


# errors-and-erasures -----------------------------------------------------------


def test_ecc_erasure_only_path():
    # u=1: all malicious identified, plain erasure decode from any r+1 workers
    ctx = build_code_context(5, 2, 1, 11)
    a_mat = make_random_regular(5, 4, 3, seed=0)
    enc = build_encoding_matrix(ctx, a_mat)
    z = response_matrix(ctx, [[3, 7, 1, 9]], enc)
    truth = [(3 + 7 + 1 + 9) % 11]
    corrupted = list(z[0])
    corrupted[0] = (corrupted[0] + 5) % 11
    corrupted[3] = (corrupted[3] + 2) % 11
    assert ecc_decode(ctx, [corrupted], [0, 3]) == truth


def test_ecc_single_residual_error():
    ctx = build_code_context(7, 2, 2, 11)
    a_mat = make_random_regular(7, 5, 4, seed=1)
    enc = build_encoding_matrix(ctx, a_mat)
    z = response_matrix(ctx, [[1, 2, 3, 4, 5]], enc)
    truth = [(1 + 2 + 3 + 4 + 5) % 11]
    for corrupt in range(1, 7):
        for err in (1, 5, 10):
            data = list(z[0])
            data[corrupt] = (data[corrupt] + err) % 11
            assert ecc_decode(ctx, [data], [0]) == truth


def test_ecc_over_budget_fails():
    ctx = build_code_context(3, 1, 1, 7)
    a_mat = make_cyclic(3, 3, 2)
    enc = build_encoding_matrix(ctx, a_mat)
    z = response_matrix(ctx, [[2, 3, 4]], enc)
    data = list(z[0])
    data[1] = (data[1] + 3) % 7
    with pytest.raises(DecodeFailureError):
        ecc_decode(ctx, [data], [])


def test_ecc_multivector_gradient():
    ctx = build_code_context(6, 2, 3, 101)  # u = s+1, immediate-decode regime
    a_mat = make_random_regular(6, 4, 5, seed=2)
    enc = build_encoding_matrix(ctx, a_mat)
    rng = random.Random(0)
    g = [[rng.randrange(101) for _ in range(4)] for _ in range(3)]
    received = response_matrix(ctx, g, enc)
    truth = [sum(row) % 101 for row in g]
    for j in (1, 4):  # two corrupt workers, within u-1 = 2
        for row in received:
            row[j] = (row[j] + 17) % 101
    assert ecc_decode(ctx, received, []) == truth
