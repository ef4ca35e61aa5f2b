"""Slow reference implementations kept as differential-test oracles."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, zip_longest
from operator import mul
from typing import Iterable, Sequence

from byzgrad.assignment import AssignmentMatrix
from byzgrad.coding import CodeContext, EncodingMatrix, _located_pattern, _member_weights
from byzgrad.errors import (
    AssignmentMismatchError,
    DecodeFailureError,
    DimensionError,
    ProtocolInvariantViolation,
    SingularMatrixError,
)
from byzgrad.linalg import solve_linear, vandermonde


def transpose(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*rows)]


def columns(rows: Sequence[Sequence[int]], idx: Sequence[int]) -> list[list[int]]:
    """The rows restricted to the column indices idx, in that order."""
    return [[row[j] for j in idx] for row in rows]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], q: int) -> list[list[int]]:
    """The product a @ b mod q of two matrices given as int rows."""
    if any(len(row) != len(b) for row in a):
        raise DimensionError(f"every row of a must have {len(b)} entries, one per row of b")
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) % q for col in cols] for row in a]


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def vandermonde_inverse_last_column(q: int, points: Sequence[int]) -> list[int]:
    """Closed-form combining coefficients for a set of distinct points.

    Entry j is 1 / prod_{m != j} (x_j - x_m). This is the last row of the
    inverse of the point-rows Vandermonde, equivalently the last column of
    the inverse of its transpose (the power-rows generator shape). Computed
    afresh for any point set, where the code caches its own points' weights.
    """
    pts = [x % q for x in points]
    if len(set(pts)) != len(pts):
        raise SingularMatrixError("evaluation points must be pairwise distinct")
    out = []
    for j, xj in enumerate(pts):
        prod = 1
        for m, xm in enumerate(pts):
            if m != j:
                prod = prod * (xj - xm) % q
        out.append(pow(prod, -1, q))
    return out


def column_sum(a: AssignmentMatrix, i: int) -> int:
    """How many workers hold sample i."""
    return sum(row[i] for row in a.bits)


def row_sum(a: AssignmentMatrix, j: int) -> int:
    """How many samples worker j holds."""
    return sum(a.bits[j])


def zero_set(a: AssignmentMatrix, i: int) -> list[int]:
    """Workers that do not hold sample i."""
    return [j for j in range(a.n) if not a.bits[j][i]]


def validate_regular_by_columns(a: AssignmentMatrix, rho: int) -> bool:
    """True iff every column sums to rho and every row sums to >= 1, one column at a time."""
    if any(len(row) != a.p for row in a.bits) or len(a.bits) != a.n:
        return False
    for i in range(a.p):
        if column_sum(a, i) != rho:
            return False
    return all(row_sum(a, j) >= 1 for j in range(a.n))


def generator_matrix(ctx: CodeContext) -> list[list[int]]:
    """The (r+1) x n generator F as rows, entry [k][j] = eval_points[j]**k."""
    return transpose(vandermonde(ctx.eval_points, ctx.q, ctx.r + 1))


def solve_encoding_matrix(
    ctx: CodeContext, a_mat: AssignmentMatrix, a: Sequence[int]
) -> EncodingMatrix:
    """Solve the per-sample zero constraints and assemble W = (Q | a) F.

    Requires each sample to be missing from exactly r workers, which is what
    a regular assignment with replication s+u guarantees.
    """
    q = ctx.q
    n, r = ctx.n, ctx.r
    p = a_mat.p
    if a_mat.n != n:
        raise AssignmentMismatchError(f"assignment has {a_mat.n} workers, code has {n}")
    if len(a) != p:
        raise DimensionError(f"query vector length {len(a)} != p = {p}")
    f_rows = generator_matrix(ctx)  # r+1 rows of length n
    unit_cache: dict[tuple[int, ...], list[int]] = {}
    w_rows: list[list[int]] = []
    for i in range(p):
        zeros = tuple(zero_set(a_mat, i))
        if len(zeros) != r:
            raise AssignmentMismatchError(
                f"sample {i + 1} is missing from {len(zeros)} workers, expected r={r}"
            )
        ai = a[i] % q
        if ai == 0:
            # Homogeneous constraints with an invertible block force q_i = 0.
            w_rows.append([0] * n)
            continue
        if r == 0:
            qi: list[int] = []
        else:
            unit = unit_cache.get(zeros)
            if unit is None:
                # Solve the a_i = 1 instance once per zero pattern; the
                # constraints are linear in a_i, so other values just scale it.
                top_t = [[f_rows[k][j] for k in range(r)] for j in zeros]
                rhs = [[-f_rows[r][j]] for j in zeros]
                out = solve_linear(top_t, rhs, q)
                if out.kind != "unique":
                    raise ProtocolInvariantViolation(
                        "zero-constraint system is not uniquely solvable; "
                        "Vandermonde block should be invertible"
                    )
                unit = [row[0] for row in out.solution]
                unit_cache[zeros] = unit
            qi = [ai * v % q for v in unit]
        row = []
        for j in range(n):
            acc = ai * f_rows[r][j]
            for k in range(r):
                acc += qi[k] * f_rows[k][j]
            row.append(acc % q)
        w_rows.append(row)
    return EncodingMatrix(tuple(map(tuple, w_rows)), q)


def exhaustive_ecc_decode(
    ctx: CodeContext, z: Sequence[Sequence[int]], identified: Iterable[int]
) -> list[int]:
    """Errors-and-erasures decoding by trying every error pattern.

    Identified workers are erased outright. Among the rest, every error
    pattern of weight at most u-1 is tried in order of weight, then
    lexicographically: erase it, decode the information word from one r+1
    column block, and accept iff the re-encoded codeword matches every
    remaining column. This costs up to C(n', <= u-1) Gaussian solves.
    """
    q = ctx.q
    z = [[v % q for v in row] for row in z]
    erased = set(identified)
    avail = [j for j in range(ctx.n) if j not in erased]
    k = ctx.r + 1
    f = generator_matrix(ctx)
    budget = ctx.u - 1
    for t_size in range(budget + 1):
        for trial in combinations(avail, t_size):
            keep = [j for j in avail if j not in trial]
            if len(keep) < k:
                continue
            info_set = keep[:k]
            out = solve_linear(
                transpose(columns(f, info_set)), transpose(columns(z, info_set)), q
            )
            if out.kind != "unique":
                raise ProtocolInvariantViolation("generator block must be invertible")
            c = transpose(out.solution)  # d x (r+1)
            if mat_mul(c, columns(f, keep), q) == columns(z, keep):
                return [row[k - 1] for row in c]
    raise DecodeFailureError(
        f"no codeword within {budget} errors over {len(avail)} available workers"
    )


@lru_cache(maxsize=16)
def _row_syndrome_table(
    eval_points: tuple[int, ...], avail: tuple[int, ...], q: int, k: int
) -> tuple[tuple[int, ...], ...]:
    """Rows m = 0..N-k of v_j * x_j**m over the N available points x_j.

    v_j = 1 / prod_{i != j} (x_j - x_i) over the available points, from the
    code's weights (_member_weights). Row m dotted with a word is the
    coefficient of x^(N-1) in the interpolant of x^m times the word. On a
    codeword f of degree below k it is 0 for m < N-k, so those rows are
    parity checks, and f's coefficient of x^(k-1) for m = N-k. Tuples,
    because the cache hands them to every caller.
    """
    xs = [eval_points[j] for j in avail]
    weights = _member_weights(q, eval_points, avail)
    rows = [tuple(weights[j] for j in avail)]
    for _ in range(len(xs) - k):
        rows.append(tuple(w * x % q for w, x in zip(rows[-1], xs)))
    return tuple(rows)


def points_pattern_share(points: Sequence[int], syndromes: Sequence[int], q: int) -> int | None:
    """sum_j c_j x_j**len(S) for the values c_j on the points with S_m = sum_j c_j x_j**m.

    Such values exist, the points being distinct, exactly when the locator
    prod_j (1 - x_j x) generates the syndromes: sum_i locator[i] * S[m-i] = 0
    for L <= m < len(S). Its recurrence then gives the next term, the
    pattern's share of the gradient row. None if some window fails. Builds
    the locator from the points on every call.
    """
    rev = [1]  # prod_j (x - x_j) lowest first, the locator's coefficients reversed
    for x in points:
        rev = [(lo - x * hi) % q for lo, hi in zip([0] + rev, rev + [0])]
    size = len(points)
    for m in range(size, len(syndromes)):
        if sum(map(mul, rev, syndromes[m - size : m + 1])) % q:
            return None
    return -sum(map(mul, rev, syndromes[len(syndromes) - size :])) % q


def row_table_ecc_decode(
    ctx: CodeContext, z: Sequence[Sequence[int]], identified: Iterable[int]
) -> list[int]:
    """Errors-and-erasures decoding with one dot product per syndrome row.

    The decoder byzgrad.coding.ecc_decode replaced with packed columns; it
    must give the same gradient or the same DecodeFailureError message, and
    takes symbols of any size. Each coordinate is dotted with every row of
    one cached table: N-k parity checks, all zero exactly on a codeword, and
    a row giving its coefficient of x^r, the gradient. A nonzero syndrome
    fails when tau = 0. Else error values are solved for on the workers
    pooled in error at earlier coordinates, if at most (N-k)/2, or else
    Berlekamp-Massey locates the errors. The gradient is the last row less
    the pattern's share; with no such pattern the coordinate fails. More
    than tau pooled workers is a failure too.
    """
    erased = set(identified)
    avail = [j for j in range(ctx.n) if j not in erased]
    k = ctx.r + 1
    tau = min(ctx.u - 1, (len(avail) - k) // 2)
    if tau < 0:
        raise DecodeFailureError(f"{len(avail)} available workers cannot fix {k} symbols")
    q = ctx.q
    xs = tuple(ctx.eval_points[j] for j in avail)
    *checks, last = _row_syndrome_table(ctx.eval_points, tuple(avail), q, k)
    errors: dict[int, int] = {}  # pooled worker -> its evaluation point
    gradient = []
    for t, row in enumerate(z):
        ys = [row[j] for j in avail]
        moment = sum(map(mul, ys, last))
        syndromes = [sum(map(mul, ys, check)) % q for check in checks]
        if any(syndromes):
            share = None
            if tau and errors and 2 * len(errors) <= len(checks):
                share = points_pattern_share(list(errors.values()), syndromes, q)
            located = tau and share is None and _located_pattern(avail, xs, syndromes, q)
            if located:
                roots, share = located
                errors.update(roots)
            if share is None:
                raise DecodeFailureError(
                    f"coordinate {t + 1} has no codeword within {tau} errors over "
                    f"{len(avail)} available workers"
                )
            moment -= share
        gradient.append(moment % q)
    if len(errors) > tau:
        raise DecodeFailureError(f"{len(errors)} workers in error exceed the budget of {tau}")
    return gradient


def _trim(poly: list[int]) -> list[int]:
    """Drop zero leading coefficients in place; the zero polynomial is []."""
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _poly_divmod(num: list[int], den: list[int], q: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num / den (coefficient lists, lowest first)."""
    rem = list(num)
    dd = len(den) - 1
    if len(rem) <= dd:
        return [], _trim(rem)
    inv_lead = pow(den[-1], -1, q)
    quo = [0] * (len(rem) - dd)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + dd] * inv_lead % q
        quo[i] = c
        if c:
            for m in range(dd):
                rem[i + m] = (rem[i + m] - c * den[m]) % q
    return _trim(quo), _trim(rem[:dd])


def _poly_mul(a: list[int], b: list[int], q: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim([v % q for v in out])


def _poly_sub(a: list[int], b: list[int], q: int) -> list[int]:
    return _trim([(x - y) % q for x, y in zip_longest(a, b, fillvalue=0)])


def _poly_eval(poly: list[int], x: int, q: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % q
    return acc


@lru_cache(maxsize=16)
def _lagrange_basis(
    xs: tuple[int, ...], q: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """g0 = prod (x - x_j) and the Lagrange basis over xs, by coefficient.

    Basis polynomial j is w_j * g0 / (x - x_j), with the barycentric weight
    w_j = 1 / prod_{m != j} (x_j - x_m), so it is 1 at x_j and 0 at the rest.
    The basis comes transposed: entry [i][j] is coefficient i of polynomial
    j. Both parts are tuples, because the cache hands them to every caller.
    """
    g0 = [1]
    for x in xs:
        g0 = [(lo - x * hi) % q for lo, hi in zip([0] + g0, g0 + [0])]
    basis = []
    for xj, w in zip(xs, vandermonde_inverse_last_column(q, xs)):
        # Synthetic division of g0 by (x - x_j), highest coefficient first.
        quo = [0] * (len(g0) - 1)
        acc = 0
        for i in range(len(g0) - 1, 0, -1):
            acc = (g0[i] + acc * xj) % q
            quo[i - 1] = acc
        basis.append([c * w % q for c in quo])
    return tuple(g0), tuple(zip(*basis))


def _gao_message(q: int, g0: Sequence[int], g1: list[int], k: int) -> list[int] | None:
    """The message polynomial nearest to the word that g1 interpolates.

    Gao's decoder: run the extended Euclidean algorithm on (g0, g1), where
    g0 vanishes on all n points, until the remainder g has degree below
    (n+k)/2 with cofactor v of g1. Then f = g / v is the message polynomial
    when at most (n-k)/2 positions are in error. Returns None when the
    division leaves a remainder, i.e. the word is beyond the unique radius;
    the caller still checks deg f < k.
    """
    n = len(g0) - 1
    r0, r1 = g0, g1
    v0: list[int] = []
    v1 = [1]
    while 2 * (len(r1) - 1) >= n + k:
        quo, rem = _poly_divmod(r0, r1, q)
        r0, r1 = r1, rem
        v0, v1 = v1, _poly_sub(v0, _poly_mul(quo, v1, q), q)
    f, rem = _poly_divmod(r1, v1, q)
    return None if rem else f


def gao_ecc_decode(
    ctx: CodeContext, z: Sequence[Sequence[int]], identified: Iterable[int]
) -> list[int]:
    """Errors-and-erasures decoding by interpolation, Gao's algorithm and re-encoding.

    The decoder byzgrad.coding.ecc_decode replaced; it must give the same
    gradient or the same DecodeFailureError message. Identified workers are
    erased. Among the n' available ones, k = r+1 symbols fix a codeword, so
    at most tau = min(u-1, (n'-k)//2) errors are corrected. Each coordinate is
    interpolated over the available points with one shared Lagrange basis;
    when tau > 0, Gao's algorithm turns the interpolant into the message
    polynomial f. A coordinate whose f is missing or has degree k or more is
    a decoding failure. f is then re-encoded at every available point: the
    points where it departs from the received symbol are that coordinate's
    errors. The error positions are pooled across coordinates, since a
    corrupted worker may leave some coordinates intact, and more than tau of
    them is a decoding failure. The gradient is each f's coefficient of x^r.
    """
    erased = set(identified)
    avail = [j for j in range(ctx.n) if j not in erased]
    k = ctx.r + 1
    tau = min(ctx.u - 1, (len(avail) - k) // 2)
    if tau < 0:
        raise DecodeFailureError(f"{len(avail)} available workers cannot fix {k} symbols")
    q = ctx.q
    xs = tuple(ctx.eval_points[j] for j in avail)
    g0, columns = _lagrange_basis(xs, q)
    errors: set[int] = set()
    gradient = []
    for t, row in enumerate(z):
        ys = [row[j] for j in avail]
        f = _trim([sum(map(mul, ys, col)) % q for col in columns])
        if tau:
            f = _gao_message(q, g0, f, k)
        if f is None or len(f) > k:
            raise DecodeFailureError(
                f"coordinate {t + 1} has no codeword within {tau} errors over "
                f"{len(avail)} available workers"
            )
        errors.update(j for j, x, y in zip(avail, xs, ys) if _poly_eval(f, x, q) != y)
        gradient.append(f[k - 1] if len(f) == k else 0)
    if len(errors) > tau:
        raise DecodeFailureError(f"{len(errors)} workers in error exceed the budget of {tau}")
    return gradient


def leaf_depth_walk(p: int, i: int) -> int:
    """Depth of sample i in the match tree over p samples, by one walk from the root.

    Each node [lo, hi) splits at lo + ceil((hi - lo) / 2), so the first child
    takes the larger half.
    """
    lo, hi, depth = 0, p, 0
    while hi - lo > 1:
        mid = lo + (hi - lo + 1) // 2
        lo, hi = (lo, mid) if i < mid else (mid, hi)
        depth += 1
    return depth


def match_answer_slice(
    ctx: CodeContext,
    gradients: Sequence[Sequence[int]],
    enc: EncodingMatrix,
    coord: int,
    lo: int,
    hi: int,
    j: int,
) -> int:
    """Worker j's honest match answer: sum over samples lo..hi-1 of G[coord][i]·W[i][j].

    Reads entry j of W's rows lo..hi-1 directly, recomputed for every query.
    """
    grow = gradients[coord][lo:hi]
    return sum(g * row[j] for g, row in zip(grow, enc.w[lo:hi])) % ctx.q


def dense_response_matrix(
    ctx: CodeContext, gradients: Sequence[Sequence[int]], enc: EncodingMatrix
) -> list[list[int]]:
    """Z = G @ W by one dot product per coordinate and worker over W's columns."""
    q = ctx.q
    columns = list(zip(*enc.w))
    return [[sum(map(mul, row, col)) % q for col in columns] for row in gradients]


def dense_group_response(
    ctx: CodeContext, received: Sequence[Sequence[int]], b: Sequence[int]
) -> list[int]:
    """One group's claim: received (d rows of n) times the combining vector, row by row."""
    q = ctx.q
    return [sum(map(mul, row, b)) % q for row in received]


def forney_values(
    locator: Sequence[int], syndromes: Sequence[int], roots: Sequence[int], q: int
) -> list[int]:
    """Error values c_j on the locator's roots x_j, with S_m = sum_j c_j x_j**m.

    Forney's formula: c_j = x_j^(L-1) O(1/x_j) / prod_{i != j} (x_j - x_i),
    with the evaluator O = S * locator mod x^L and L = len(roots). Needs
    len(S) >= L.
    """
    size = len(locator) - 1
    omega = [sum(map(mul, locator[: m + 1], syndromes[m::-1])) % q for m in range(size)]
    out = []
    for j, x in enumerate(roots):
        acc = 0
        for coef in omega:  # x^(L-1) * O(1/x)
            acc = (acc * x + coef) % q
        den = 1
        for i, y in enumerate(roots):
            if i != j:
                den = den * (x - y) % q
        out.append(acc * pow(den, -1, q) % q)
    return out


def pairwise_contradiction(
    responses: Sequence[Sequence[int]],
) -> tuple[int, int, int] | None:
    """The lowest differing pair by trying every pair (k1, k2) in lexicographic order.

    The scan byzgrad.protocol.detect_contradiction replaced: None if all
    agree, else (k1, k2, coordinate) with the first position where the pair
    differs.
    """
    m = len(responses)
    for k1 in range(m):
        for k2 in range(k1 + 1, m):
            for coord, (x, y) in enumerate(zip(responses[k1], responses[k2])):
                if x != y:
                    return k1, k2, coord
    return None


def loop_draw_below(rng, q: int, count: int) -> list[int]:
    """count draws of rng.randrange(q), one getrandbits(q.bit_length()) call per try.

    The loop byzgrad.field.draw_below runs below its bulk cutover, and in
    full where it has none.
    """
    k = q.bit_length()
    out = []
    for _ in range(count):
        v = rng.getrandbits(k)
        while v >= q:
            v = rng.getrandbits(k)
        out.append(v)
    return out


def loop_pack(values: Iterable[int], width: int) -> int:
    """Lanes of width bytes, the first value on top, by one shift of the accumulator per value."""
    shift, acc = 8 * width, 0
    for v in values:
        acc = acc << shift | v
    return acc


def loop_unpack(x: int, width: int, count: int, q: int) -> list[int]:
    """The count lanes of x, top lane first, mod q, by one shift of x per lane."""
    shift = 8 * width
    mask = (1 << shift) - 1
    return [(x >> k & mask) % q for k in range(shift * (count - 1), -1, -shift)]


def samples_by_bit_scan(a: AssignmentMatrix, j: int) -> list[int]:
    """The samples worker j holds, testing every bit of its row."""
    return [i for i in range(a.p) if a.bits[j][i]]


def stdlib_samples(rng, n: int, k: int, count: int) -> list[list[int]]:
    """count successive rng.sample(range(n), k): what byzgrad.field.draw_samples must equal."""
    return [rng.sample(range(n), k) for _ in range(count)]


def sample_per_column_random_regular(n: int, p: int, rho: int, seed: int) -> AssignmentMatrix:
    """A copy of make_random_regular that draws each column with its own rng.sample call."""
    rng = random.Random(seed)
    bits = [[0] * p for _ in range(n)]
    for i in range(p):
        for j in rng.sample(range(n), rho):
            bits[j][i] = 1
    for _ in range(1000):
        empty = [j for j in range(n) if not any(bits[j])]
        if not empty:
            break
        j = empty[0]
        candidates = [
            (jj, i)
            for jj in range(n)
            if sum(bits[jj]) >= 2
            for i in range(p)
            if bits[jj][i] and not bits[j][i]
        ]
        jj, i = rng.choice(candidates)
        bits[jj][i] = 0
        bits[j][i] = 1
    else:
        raise AssertionError("row repair did not converge within 1000 passes")
    return AssignmentMatrix(n, p, tuple(map(bytes, bits)))


def row_classes_of_w(w: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Samples grouped by equal rows of W, ordered by first sample, read off W.

    The derivation EncodingMatrix.row_classes makes, kept apart here so that
    a faster derivation there is checked against this one.
    """
    index: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(w):
        index.setdefault(tuple(row), []).append(i)
    return tuple(map(tuple, index.values()))


def set_is_int_list(value, length: int | None = None, q: int | None = None) -> bool:
    """A list of ints, optionally of the given length and all in [0, q), by its set of types.

    The form byzgrad.harness._is_int_list had before its one early-exit loop.
    """
    if type(value) is not list or (length is not None and len(value) != length):
        return False
    return not value or (
        set(map(type, value)) == {int} and (q is None or 0 <= min(value) and max(value) < q)
    )
