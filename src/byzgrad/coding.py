"""Gradient code construction over a prime field.

The generator matrix F is a (r+1) x n Vandermonde on distinct nonzero
evaluation points, so every r+1 columns form an invertible block (MDS).
Worker j's coefficients for the all-one query, the sum of every sample's
gradient, are column j of W = (Q | 1) F: row i evaluates the monic
polynomial of degree r that vanishes at the workers not holding sample i,
which in closed form is W[i][j] = prod_{m in Z_i} (x_j - x_m). Row i thus
depends only on Z_i, so a regular assignment has few distinct rows, and
the honest responses G @ W are computed per class of equal rows from the
sum of that class's gradient columns. The match's 0/1 interval queries
are answered from prefix sums over this W, so no other query's W is
built here.
Dense products over F_q run on lanes: pack puts field elements side by side
in one Python int, lane_bytes(q, terms) bytes each, so that a sum of terms
products of two elements of [0, q) fits its lane without carrying into the
next. One big-integer dot product of packed rows with field elements then
does a whole row's products inside CPython's integer arithmetic, and unpack
reads each lane off and reduces it mod q. W is packed once per encoding:
each sample's row across the workers, a class's samples sharing one int, in
lanes wide enough for all p samples. A running sum of G[c][i] times those
rows holds every worker's prefix sum, and a coordinate's n responses are
one dot product of its class sums with the class rows.
Any r+1 workers suffice to recover the sum via a closed-form
combining vector: member j's entry is w_j times the product of x_j - x_m
over the non-members m, with the weights w_j = 1 / prod_{m != j} (x_j - x_m)
over all n points computed once per code, and each vector cached per code
and group. So each coordinate of the all-one responses evaluates a
polynomial of degree at most r whose coefficient of x^r is the gradient.
Once few enough liars remain, the errors-and-erasures decoder erases the
identified workers and reads every coordinate's syndromes and gradient off
one cached table of parity checks over the N available points, whose
weights come from the same closed form. The table is packed too: one column
per available point, its lanes the point's parity-check entries, so a
coordinate's symbols, which must be elements of [0, q), take one dot
product with the columns and one unpack. It corrects at most
tau = min(u-1, (N-(r+1))//2) errors, pooled across coordinates, with
Berlekamp-Massey and never interpolates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from operator import itemgetter, mul
from typing import Callable, Iterable, Sequence

from .assignment import AssignmentMatrix
from .errors import (
    AssignmentMismatchError,
    DecodeFailureError,
    DimensionError,
    InvalidParamsError,
)
from . import field
from .field import DEFAULT_MODULUS

# Not used here: perfbench/tracing.py wraps solve_linear at its coding name.
from .linalg import solve_linear  # noqa: F401


@dataclass(frozen=True)
class CodeContext:
    """Shared code parameters: n workers, s malicious, u redundancy, r = n-(s+u), prime q."""

    n: int
    s: int
    u: int
    r: int
    q: int
    eval_points: tuple[int, ...]

    def __hash__(self) -> int:
        # Caches keyed on the code look it up on every run: hash the
        # evaluation points once, as AssignmentMatrix hashes its bits.
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(
                (self.n, self.s, self.u, self.r, self.q, self.eval_points)
            )
        return h

    @cached_property
    def response_lanes(self) -> int:
        """Lane width for one symbol per worker: a dot product over the n workers cannot carry."""
        return lane_bytes(self.q, self.n)


def build_code_context(
    n: int,
    s: int,
    u: int,
    q: int = DEFAULT_MODULUS,
    eval_points: Sequence[int] | None = None,
) -> CodeContext:
    if not (1 <= u <= s + 1):
        raise InvalidParamsError(f"need 1 <= u <= s+1, got s={s}, u={u}")
    if n < s + u:
        raise InvalidParamsError(f"need n >= s+u, got n={n}, s={s}, u={u}")
    if not field.is_prime(q):
        raise InvalidParamsError(f"modulus must be prime, got {q}")
    if q <= n:
        raise InvalidParamsError(f"modulus must exceed worker count, got q={q}, n={n}")
    if eval_points is None:
        eval_points = tuple(range(1, n + 1))
    else:
        eval_points = tuple(x % q for x in eval_points)
    if len(eval_points) != n:
        raise InvalidParamsError("need one evaluation point per worker")
    if 0 in eval_points or len(set(eval_points)) != n:
        raise InvalidParamsError("evaluation points must be distinct and nonzero")
    return CodeContext(n, s, u, n - (s + u), q, eval_points)


@dataclass(frozen=True)
class EncodingMatrix:
    """The all-one query's worker coefficient matrix W (p x n) over F_q.

    W is a tuple of p row tuples; samples with equal rows share one tuple.
    """

    w: tuple[tuple[int, ...], ...]
    q: int

    @cached_property
    def row_classes(self) -> tuple[tuple[int, ...], ...]:
        """Samples grouped by equal rows of W.

        Class c holds, in increasing order, the samples whose rows equal that
        of its first sample; classes are ordered by first sample. Row i
        depends only on the zero set Z_i, so a regular encoding has few
        classes: n for cyclic, n/rho for fractional. Derived from W itself,
        so it holds for any W; tuples, because every caller shares the
        cached value.
        """
        index: dict[tuple[int, ...], list[int]] = {}
        for i, row in enumerate(self.w):
            index.setdefault(row, []).append(i)
        return tuple(map(tuple, index.values()))

    @cached_property
    def sample_lanes(self) -> tuple[int, tuple[int, ...]]:
        """(width, rows): each sample's row of W as one int of n lanes, worker 0's on top.

        width is lane_bytes(q, p), so a sum over any samples of their packed
        rows times elements of [0, q) fills every lane without a carry. The
        samples of a class share their class's int, packed once.
        """
        w = self.w
        width = lane_bytes(self.q, len(w))
        rows = [0] * len(w)
        for c in self.row_classes:
            packed = pack(w[c[0]], width)
            for i in c:
                rows[i] = packed
        return width, tuple(rows)

    @cached_property
    def class_gatherers(self) -> tuple[Callable[[Sequence[int]], Sequence[int]], ...]:
        """Per class, a C-level gatherer of its samples' entries from a row of p values.

        A class whose samples step evenly, as every cyclic and fractional
        class does, is gathered as a slice, any other by its indices. Either
        way a gatherer returns a sequence: a lone sample is a slice of one,
        since itemgetter of a single index returns the bare value.
        """
        out = []
        for c in self.row_classes:
            step = c[1] - c[0] if len(c) > 1 else 1
            if c == tuple(range(c[0], c[-1] + 1, step)):
                out.append(itemgetter(slice(c[0], c[-1] + 1, step)))
            else:
                out.append(itemgetter(*c))
        return tuple(out)


def lane_bytes(q: int, terms: int) -> int:
    """The fewest bytes, at least one, holding a sum of terms products of elements of [0, q)."""
    return max(1, ((q - 1) ** 2 * terms).bit_length() + 7 >> 3)


# Lane counts from which pack and unpack go through bytes, in time linear in
# the count; below them the shift loops, quadratic in it, are the faster.
_PACK_BYTES_FROM = 64
_UNPACK_BYTES_FROM = 128


def pack(values: Sequence[int], width: int) -> int:
    """Elements of [0, q) side by side in lanes of width bytes, the first on top.

    From _PACK_BYTES_FROM values on the lanes are joined as bytes, and a
    value that is negative or wider than a lane raises OverflowError.
    """
    if len(values) >= _PACK_BYTES_FROM:
        return int.from_bytes(b"".join(map(int.to_bytes, values, repeat(width), repeat("big"))), "big")
    shift, acc = 8 * width, 0
    for v in values:
        acc = acc << shift | v
    return acc


def unpack(x: int, width: int, count: int, q: int) -> list[int]:
    """The count lanes of x, width bytes each, top lane first, each reduced mod q.

    From _UNPACK_BYTES_FROM lanes on they are read from x's bytes, and an x
    that is negative or wider than count lanes raises OverflowError.
    """
    if count >= _UNPACK_BYTES_FROM:
        return _unpack_bytes(x, width, count, q)
    shift = 8 * width
    mask = (1 << shift) - 1
    out = []  # a loop, not a comprehension: cheaper for the few lanes of a small run
    for k in range(shift * (count - 1), -1, -shift):
        out.append((x >> k & mask) % q)
    return out


def _unpack_bytes(x: int, width: int, count: int, q: int) -> list[int]:
    # Apart from unpack: a comprehension there would make q a cell variable,
    # which slows the shift loop that every run uses.
    view, from_bytes = memoryview(x.to_bytes(width * count, "big")), int.from_bytes
    return [from_bytes(view[k : k + width], "big") % q for k in range(0, width * count, width)]


def sample_row(ctx: CodeContext, column: Sequence[int]) -> tuple[int, ...]:
    """A sample's row of the all-one W from its assignment column, in closed form.

    Entry j is prod_{m not holding the sample} (x_j - x_m) mod q at each
    holder j, which is nonzero, the points being distinct, and 0 elsewhere.
    """
    q, pts = ctx.q, ctx.eval_points
    roots = [x for x, held in zip(pts, column) if not held]
    row = []
    for xj, held in zip(pts, column):
        acc = 0
        if held:
            acc = 1
            for xm in roots:
                acc *= xj - xm
        row.append(acc % q)
    return tuple(row)


def build_encoding_matrix(ctx: CodeContext, a_mat: AssignmentMatrix) -> EncodingMatrix:
    """The all-one encoding: W[i][j] = prod_{m in Z_i} (x_j - x_m), in closed form.

    Row i of W = (Q | 1) F evaluates a monic polynomial of degree at most r
    at every worker's point; vanishing on the r workers Z_i that do not hold
    sample i pins it to the polynomial with those roots. One row
    (sample_row) is built per distinct zero pattern. Requires each sample
    to be missing from exactly r workers, which is what a regular
    assignment with replication s+u guarantees.
    """
    n, r = ctx.n, ctx.r
    if a_mat.n != n:
        raise AssignmentMismatchError(f"assignment has {a_mat.n} workers, code has {n}")
    by_column: dict[tuple[int, ...], tuple[int, ...]] = {}
    rows: list[tuple[int, ...]] = []
    # Samples with equal assignment columns share a zero set and a row.
    for i, column in enumerate(zip(*a_mat.bits)):
        row = by_column.get(column)
        if row is None:
            missing = column.count(0)
            if missing != r:
                raise AssignmentMismatchError(
                    f"sample {i + 1} is missing from {missing} workers, expected r={r}"
                )
            row = by_column[column] = sample_row(ctx, column)
        rows.append(row)
    return EncodingMatrix(tuple(rows), ctx.q)


def combining_vector(ctx: CodeContext, group: Sequence[int]) -> list[int]:
    """Length-n coefficients fusing a size-(r+1) group's responses into G @ a.

    Entry j for a group member is 1 / prod over the other members' evaluation
    point differences, computed as w_j * prod_{m not in group} (x_j - x_m)
    from the code's per-point weights w_j = 1 / prod_{m != j} (x_j - x_m);
    entries outside the group are zero. Each call returns a fresh list built
    from a per-(code, group) cache.
    """
    return list(_combining_vector(ctx.q, ctx.eval_points, ctx.r, tuple(group)))


@lru_cache(maxsize=16)
def _point_weights(q: int, eval_points: tuple[int, ...]) -> tuple[int, ...]:
    """w_j = 1 / prod_{m != j} (x_j - x_m) over all of the code's points."""
    weights = []
    for j, xj in enumerate(eval_points):
        acc = 1
        for m, xm in enumerate(eval_points):
            if m != j:
                acc = acc * (xj - xm) % q
        weights.append(pow(acc, -1, q))
    return tuple(weights)


@lru_cache(maxsize=256)
def _combining_vector(
    q: int, eval_points: tuple[int, ...], r: int, members: tuple[int, ...]
) -> tuple[int, ...]:
    n = len(eval_points)
    if len(members) != r + 1 or len(set(members)) != len(members):
        raise InvalidParamsError(f"group must contain r+1 = {r + 1} distinct workers")
    if not all(0 <= j < n for j in members):
        raise InvalidParamsError(f"group members must be workers 0..{n - 1}")
    return _member_weights(q, eval_points, members)


def _member_weights(
    q: int, eval_points: tuple[int, ...], members: Sequence[int]
) -> tuple[int, ...]:
    """Length n: 1 / prod_{m in members, m != j} (x_j - x_m) at each member j, else 0.

    The code's weight w_j has the product over all other points in its
    denominator, so member j's entry is w_j * prod_{m not in members} (x_j - x_m).
    """
    weights = _point_weights(q, eval_points)
    inside = set(members)
    others = [x for m, x in enumerate(eval_points) if m not in inside]
    b = [0] * len(eval_points)
    for j in members:
        xj, acc = eval_points[j], weights[j]
        for xm in others:
            acc *= xj - xm
        b[j] = acc % q
    return tuple(b)


def worker_response(
    ctx: CodeContext, gradients: Sequence[Sequence[int]], enc: EncodingMatrix, j: int
) -> list[int]:
    """Honest response of worker j: G @ W[:, j], a length-d vector."""
    if any(len(row) != len(enc.w) for row in gradients):
        raise DimensionError("gradient matrix width must equal sample count")
    q, col = ctx.q, [row[j] for row in enc.w]
    return [sum(map(mul, row, col)) % q for row in gradients]


def response_matrix(
    ctx: CodeContext, gradients: Sequence[Sequence[int]], enc: EncodingMatrix
) -> list[list[int]]:
    """All honest responses at once: Z = G @ W, as d rows of n.

    Equal rows of W form one class (EncodingMatrix.row_classes), so
    Z[t][j] = sum over classes c of S[t][c] * W[c][j], where S[t][c] is the
    sum of G[t][i] over the samples i in c, reduced mod q, which c's
    gatherer (EncodingMatrix.class_gatherers) picks out. Class c's row is
    its samples' packed int (EncodingMatrix.sample_lanes), with lanes for p
    terms, at least one per class; so per coordinate the class sums take one
    dot product with the class rows, and its n lanes mod q are the responses.
    """
    if any(len(row) != len(enc.w) for row in gradients):
        raise DimensionError("gradient matrix width must equal sample count")
    q, n = ctx.q, len(enc.w[0])
    gatherers = enc.class_gatherers
    width, rows = enc.sample_lanes
    packed = [rows[c[0]] for c in enc.row_classes]
    out = []
    for row in gradients:
        sums = [sum(gather(row)) % q for gather in gatherers]
        out.append(unpack(sum(map(mul, sums, packed)), width, n, q))
    return out


@lru_cache(maxsize=16)
def _syndrome_table(
    eval_points: tuple[int, ...], avail: tuple[int, ...], q: int, k: int
) -> tuple[int, int, tuple[int, ...]]:
    """(width, count, columns): one packed column per available point x_j.

    Column j holds v_j * x_j**m mod q for m = 0..N-k, count = N-k+1 lanes
    of width = lane_bytes(q, N) bytes, m = 0 on top, where
    v_j = 1 / prod_{i != j} (x_j - x_i) over the N available points, from
    the code's weights (_member_weights). A word of N elements of [0, q)
    dotted with the columns sums N products per lane without a carry, and
    lane m is the coefficient of x^(N-1) in the interpolant of x^m times the
    word. On a codeword f of degree below k it is 0 for m < N-k, so those
    lanes are parity checks, and f's coefficient of x^(k-1) for m = N-k.
    Built in one pass, with no rows; ints and a tuple, so the cache hands
    every caller the same immutable table.
    """
    count, width = len(avail) - k + 1, lane_bytes(q, len(avail))
    shift = 8 * width
    weights = _member_weights(q, eval_points, avail)
    columns = []
    for j in avail:
        x = eval_points[j]
        acc = v = weights[j]
        for _ in range(count - 1):
            v = v * x % q
            acc = acc << shift | v
        columns.append(acc)
    return width, count, tuple(columns)


def _berlekamp_massey(syndromes: Sequence[int], q: int) -> list[int]:
    """Massey's shortest connection polynomial C of S, C[0] = 1, lowest first.

    With L = len(C) - 1, sum_i C[i] * S[m-i] = 0 for every L <= m < len(S).
    When S_m = sum_j c_j x_j**m over at most len(S)/2 nonzero terms, C is
    the error locator prod_j (1 - x_j x).
    """
    c, b = [1], [1]
    length, shift, scale = 0, 1, 1  # scale: inverse of the discrepancy when b was kept
    for m, s in enumerate(syndromes):
        # The discrepancy sum_i c[i] * S[m-i]; c has degree at most length <= m.
        d = sum(map(mul, c, syndromes[m::-1])) % q
        if not d:
            shift += 1
            continue
        coef = d * scale % q
        prev, c = c, c + [0] * (shift + len(b) - len(c))
        for i, bi in enumerate(b, shift):
            c[i] = (c[i] - coef * bi) % q
        if 2 * length <= m:
            length, b, scale, shift = m + 1 - length, prev, pow(d, -1, q), 1
        else:
            shift += 1
        del c[length + 1 :]  # only zeros: c keeps degree at most length
    return c


def _pool_locator(points: Iterable[int], q: int) -> list[int]:
    """prod_j (x - x_j) lowest first: the locator prod_j (1 - x_j x) of the points, reversed."""
    rev = [1]
    for x in points:
        rev = [(lo - x * hi) % q for lo, hi in zip([0] + rev, rev + [0])]
    return rev


def _pattern_share(rev: Sequence[int], syndromes: Sequence[int], q: int) -> int | None:
    """sum_j c_j x_j**len(S) for the values c_j on the points with S_m = sum_j c_j x_j**m.

    rev is the points' _pool_locator. Such values exist, the points being
    distinct, exactly when the locator prod_j (1 - x_j x) generates the
    syndromes: sum_i locator[i] * S[m-i] = 0 for L <= m < len(S). Its
    recurrence then gives the next term, the pattern's share of the gradient
    row. None if some window fails.
    """
    size = len(rev) - 1
    for m in range(size, len(syndromes)):
        if sum(map(mul, rev, syndromes[m - size : m + 1])) % q:
            return None
    return -sum(map(mul, rev, syndromes[len(syndromes) - size :])) % q


def _located_pattern(
    avail: Sequence[int], xs: Sequence[int], syndromes: Sequence[int], q: int
) -> tuple[dict[int, int], int] | None:
    """Error workers with their points, and the pattern's share, by Berlekamp-Massey.

    The locator's degree L must be at most len(S)/2, with L roots among the
    available points; None otherwise. Every error value is then nonzero:
    values on L roots with one zero would make the other L-1 points generate
    S, and Berlekamp-Massey returns the shortest such locator (Massey, IEEE
    Trans. IT 1969). The locator generates S by construction, so no window
    needs checking, and the share is the next term of its recurrence,
    -sum_{k=1..L} C[k] * S[N-k] for N = len(S).
    """
    locator = _berlekamp_massey(syndromes, q)
    size = len(locator) - 1
    if 2 * size > len(syndromes):
        return None
    values = [1] * len(xs)
    for coef in locator[1:]:  # x^L * locator(1/x), zero at the error points
        values = [(v * x + coef) % q for v, x in zip(values, xs)]
    roots = {j: x for j, x, v in zip(avail, xs, values) if not v}
    if len(roots) != size:
        return None
    return roots, -sum(map(mul, locator[1:], syndromes[: -size - 1 : -1])) % q


def ecc_decode(
    ctx: CodeContext, z: Sequence[Sequence[int]], identified: Iterable[int]
) -> list[int]:
    """Recover the full gradient from the all-one responses z, d rows of n.

    Every symbol must be an element of [0, q), as group_response requires:
    the packed table's lanes are sized for reduced symbols. Identified
    workers are erased. Among the N available ones, k = r+1 symbols fix a
    codeword, so at most tau = min(u-1, (N-k)//2) errors are corrected: u-1
    is the protocol's residual budget and (N-k)//2 the unique-decoding
    radius of the punctured code. Each coordinate takes one dot product with
    the cached packed columns, whose lanes are N-k parity checks, all zero
    exactly on a codeword, and its coefficient of x^r, the gradient. A
    nonzero syndrome fails when tau = 0. Else error values are solved for on
    the workers pooled in error at earlier coordinates, whose locator is
    built when the pool grows, if at most (N-k)/2, or else Berlekamp-Massey
    locates the errors. The pattern must reproduce every syndrome, so the
    codeword is the unique one within (N-k)//2, and the gradient is the last
    lane less the pattern's share; with no such pattern the coordinate
    fails. More than tau pooled workers is a failure too.
    """
    erased = set(identified)
    avail = [j for j in range(ctx.n) if j not in erased]
    k = ctx.r + 1
    tau = min(ctx.u - 1, (len(avail) - k) // 2)
    if tau < 0:
        raise DecodeFailureError(f"{len(avail)} available workers cannot fix {k} symbols")
    q = ctx.q
    xs = tuple(ctx.eval_points[j] for j in avail)
    width, count, columns = _syndrome_table(ctx.eval_points, tuple(avail), q, k)
    errors: dict[int, int] = {}  # pooled worker -> its evaluation point
    pooled = [1]  # _pool_locator of the pooled points
    gradient = []
    for t, row in enumerate(z):
        packed = sum(map(mul, [row[j] for j in avail], columns))
        *syndromes, moment = unpack(packed, width, count, q)
        if any(syndromes):
            share = None
            # Berlekamp-Massey alone finds the same share but cut ecc_cliff runs/s by ~20 %.
            if tau and errors and 2 * len(errors) <= len(syndromes):
                share = _pattern_share(pooled, syndromes, q)
            located = tau and share is None and _located_pattern(avail, xs, syndromes, q)
            if located:
                roots, share = located
                if not roots.keys() <= errors.keys():
                    errors.update(roots)
                    pooled = _pool_locator(errors.values(), q)
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
