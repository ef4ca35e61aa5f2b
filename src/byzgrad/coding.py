"""Gradient code construction over a prime field.

The generator matrix F is a (r+1) x n Vandermonde on distinct nonzero
evaluation points, so every r+1 columns form an invertible block (MDS).
Worker j's coefficients for the all-one query, the sum of every sample's
gradient, are column j of W = (Q | 1) F: row i evaluates the monic
polynomial of degree r that vanishes at the workers not holding sample i,
which in closed form is W[i][j] = prod_{m in Z_i} (x_j - x_m). Every
coefficient the code uses is such a product over a set's complement, and
_vanishing_products, start_j * prod_{m not in S} (x_j - x_m) at each member
j of a set S, is the module's one loop for it. Row i is its product over
the holders of sample i, so it depends only on Z_i, and a regular
assignment has few distinct rows: the builder records each class of equal
rows as it groups the assignment's columns, one row per distinct column.
sample_row computes each row once per code and column, for the encoder,
the leaf check and the adversary alike.
The honest responses G @ W are computed per class from the sum of that
class's gradient columns; a class of one sample needs no sum, so all such
classes are gathered in one call. The match's 0/1 interval queries are
answered from prefix sums over this W, so no other query's W is built here.
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
combining vector, the Lagrange weights 1 / prod_{m in S, m != j} (x_j - x_m)
of the group S: member j's entry is w_j times the product of x_j - x_m
over the non-members m, the group's products started at the weights
w_j = 1 / prod_{m != j} (x_j - x_m) over all n points, each the inverse of
a one-point set's product, computed once per code, and each vector cached
per code and group. So each coordinate of the all-one responses evaluates a
polynomial of degree at most r whose coefficient of x^r is the gradient.
Once few enough liars remain, the errors-and-erasures decoder erases the
identified workers and reads every coordinate's syndromes and gradient off
one table of parity checks over the N available points, cached per erased
set, whose weights are the available set's Lagrange weights, from the same
products. The table is packed too and full width: one column per worker, 0
for an erased one, its lanes an available point's parity-check entries, so
a coordinate's n symbols, which must be elements of [0, q) at the available
workers, take one dot product with the columns and one unpack. It corrects
at most tau = min(u-1, (N-(r+1))//2) errors, pooled across coordinates,
with Berlekamp-Massey and never interpolates; the first errors located seed
the pool with Berlekamp-Massey's own locator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress, repeat
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

# A C-level picker of some entries of a row, returned as a sequence.
Gatherer = Callable[[Sequence[int]], Sequence[int]]


@dataclass(frozen=True)
class CodeContext:
    """Shared code parameters: n workers, s malicious, u redundancy, r = n-(s+u), prime q."""

    n: int
    s: int
    u: int
    r: int
    q: int
    eval_points: tuple[int, ...]

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
    row_classes groups the samples by equal rows, each class increasing and
    the classes ordered by first sample: n for cyclic, n/rho for fractional.
    build_encoding_matrix records them as it groups the assignment's columns.
    """

    w: tuple[tuple[int, ...], ...]
    q: int
    row_classes: tuple[tuple[int, ...], ...]

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
    def class_layout(self) -> tuple[Gatherer | None, tuple[Gatherer, ...], tuple[int, ...]]:
        """(singles, gatherers, rows): the row classes laid out for response_matrix.

        A class of one sample needs no sum: its class sum is that sample's
        value. singles is one _gatherer of every one-sample class's sample
        from a row of p values, None when there is no such class; gatherers
        holds one per class of two or more samples. rows is each
        class's packed row (sample_lanes), the one-sample classes first in
        singles' order, then the others in gatherers' order.
        """
        classes = self.row_classes
        ones = [c[0] for c in classes if len(c) == 1]
        many = [c for c in classes if len(c) > 1]
        packed = self.sample_lanes[1]
        rows = tuple(packed[i] for i in ones + [c[0] for c in many])
        singles = _gatherer(tuple(ones)) if ones else None
        return singles, tuple(map(_gatherer, many)), rows


def _gatherer(samples: tuple[int, ...]) -> Gatherer:
    """A C-level gatherer of the entries at samples from a row, as a sequence.

    A lone sample is a slice of one, since itemgetter of a single index
    returns the bare value.
    """
    if len(samples) == 1:
        return itemgetter(slice(samples[0], samples[0] + 1))
    return itemgetter(*samples)


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


def _vanishing_products(
    q: int, eval_points: Sequence[int], members: Sequence[int], start: Sequence[int] | None = None
) -> tuple[int, ...]:
    """Length n: start_j * prod_{m not in members} (x_j - x_m) mod q at each member j, else 0.

    start holds one factor per point, 1 at every point when None. The one
    product loop of the code: W's rows, the point weights and, started at
    those weights, every Lagrange weight 1 / prod_{m in members, m != j} (x_j - x_m).
    """
    inside = set(members)
    others = [x for m, x in enumerate(eval_points) if m not in inside]
    out = [0] * len(eval_points)
    for j in members:
        xj, acc = eval_points[j], start[j] if start else 1
        for xm in others:
            acc *= xj - xm
        out[j] = acc % q
    return tuple(out)


@lru_cache(maxsize=1024)
def sample_row(ctx: CodeContext, column: tuple[int, ...]) -> tuple[int, ...]:
    """A sample's row of the all-one W from its assignment column, in closed form.

    Entry j is prod_{m not holding the sample} (x_j - x_m) mod q at each
    holder j, which is nonzero, the points being distinct, and 0 elsewhere.
    Cached per code and column, the pair that fixes the row.
    """
    return _vanishing_products(ctx.q, ctx.eval_points, list(compress(range(ctx.n), column)))


def build_encoding_matrix(ctx: CodeContext, a_mat: AssignmentMatrix) -> EncodingMatrix:
    """The all-one encoding: W[i][j] = prod_{m in Z_i} (x_j - x_m), in closed form.

    Row i of W = (Q | 1) F evaluates a monic polynomial of degree at most r
    at every worker's point; vanishing on the r workers Z_i that do not hold
    sample i pins it to the polynomial with those roots. One row
    (sample_row) is built per distinct zero pattern, and the samples that
    share it form one row class (EncodingMatrix.row_classes). Requires each
    sample to be missing from exactly r workers, which is what a regular
    assignment with replication s+u guarantees.
    """
    n, r = ctx.n, ctx.r
    if a_mat.n != n:
        raise AssignmentMismatchError(f"assignment has {a_mat.n} workers, code has {n}")
    by_column: dict[tuple[int, ...], tuple[tuple[int, ...], list[int]]] = {}
    rows: list[tuple[int, ...]] = []
    # Samples with equal assignment columns share a zero set and a row, and
    # no other sample shares that row: its zeros are the column's.
    for i, column in enumerate(zip(*a_mat.bits)):
        entry = by_column.get(column)
        if entry is None:
            missing = column.count(0)
            if missing != r:
                raise AssignmentMismatchError(
                    f"sample {i + 1} is missing from {missing} workers, expected r={r}"
                )
            entry = by_column[column] = (sample_row(ctx, column), [])
        entry[1].append(i)
        rows.append(entry[0])
    classes = tuple(tuple(samples) for _, samples in by_column.values())
    return EncodingMatrix(tuple(rows), ctx.q, classes)


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
    return tuple(
        pow(_vanishing_products(q, eval_points, (j,))[j], -1, q) for j in range(len(eval_points))
    )


@lru_cache(maxsize=256)
def _combining_vector(
    q: int, eval_points: tuple[int, ...], r: int, members: tuple[int, ...]
) -> tuple[int, ...]:
    n = len(eval_points)
    if len(members) != r + 1 or len(set(members)) != len(members):
        raise InvalidParamsError(f"group must contain r+1 = {r + 1} distinct workers")
    if not all(0 <= j < n for j in members):
        raise InvalidParamsError(f"group members must be workers 0..{n - 1}")
    return _vanishing_products(q, eval_points, members, _point_weights(q, eval_points))


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
    sum of G[t][i] over the samples i in c, reduced mod q. Per coordinate,
    one gather takes the sums of every one-sample class, its sample's value,
    and one gatherer per larger class its samples (EncodingMatrix.class_layout).
    Class c's row is its samples' packed int (EncodingMatrix.sample_lanes),
    with lanes for p terms, at least one per class; so the class sums take
    one dot product with the class rows, and its n lanes mod q are the
    responses.
    """
    if any(len(row) != len(enc.w) for row in gradients):
        raise DimensionError("gradient matrix width must equal sample count")
    q, n = ctx.q, ctx.n
    singles, gatherers, rows = enc.class_layout
    width = enc.sample_lanes[0]
    out = []
    for row in gradients:
        sums = [v % q for v in singles(row)] if singles else []
        sums += [sum(gather(row)) % q for gather in gatherers]
        out.append(unpack(sum(map(mul, sums, rows)), width, n, q))
    return out


@lru_cache(maxsize=16)
def _syndrome_table(
    eval_points: tuple[int, ...], erased: frozenset[int], q: int, k: int
) -> tuple[int, int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(width, count, columns, avail, xs): the decode table of an erased set.

    avail lists the N workers not erased, in order, and xs their points.
    columns holds one packed int per worker, full width: 0 for an erased
    worker, and for an available one, at point x_j, v_j * x_j**m mod q for
    m = 0..N-k, count = N-k+1 lanes of width = lane_bytes(q, N) bytes,
    m = 0 on top, where v_j = 1 / prod_{i != j} (x_j - x_i) over the N
    available points: w_j times the erased points' differences, the
    available points' _vanishing_products started at the code's weights
    (_point_weights). A word of n symbols, elements of [0, q) at the
    available workers, dotted with the columns sums N products per lane
    without a carry, and lane m is the coefficient of x^(N-1) in the
    interpolant of x^m times the available symbols. On a codeword f of
    degree below k it is 0 for m < N-k, so those lanes are parity checks,
    and f's coefficient of x^(k-1) for m = N-k. Built in one pass, with no
    rows; ints and tuples, so the cache hands every caller the same
    immutable table.
    """
    avail = tuple(j for j in range(len(eval_points)) if j not in erased)
    count, width = len(avail) - k + 1, lane_bytes(q, len(avail))
    shift = 8 * width
    weights = _vanishing_products(q, eval_points, avail, _point_weights(q, eval_points))
    columns = [0] * len(eval_points)
    for j in avail:
        x = eval_points[j]
        acc = v = weights[j]
        for _ in range(count - 1):
            v = v * x % q
            acc = acc << shift | v
        columns[j] = acc
    return width, count, tuple(columns), avail, tuple(eval_points[j] for j in avail)


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
) -> tuple[dict[int, int], int, list[int]] | None:
    """Error workers with their points, the pattern's share and its locator, by Berlekamp-Massey.

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
    tail = locator[1:]
    roots = {}
    for j, x in zip(avail, xs):
        v = 1
        for coef in tail:  # x^L * locator(1/x), zero at the error points
            v = (v * x + coef) % q
        if not v:
            roots[j] = x
    if len(roots) != size:
        return None
    return roots, -sum(map(mul, tail, syndromes[: -size - 1 : -1])) % q, locator


def ecc_decode(
    ctx: CodeContext, z: Sequence[Sequence[int]], identified: Iterable[int]
) -> list[int]:
    """Recover the full gradient from the all-one responses z, d rows of n.

    A row of any other width raises DimensionError. Every available
    worker's symbol must be an element of [0, q), as group_response
    requires: the packed table's lanes are sized for reduced symbols.
    Identified workers are erased, their columns 0. Among the N available
    ones, k = r+1 symbols fix a codeword, so at most
    tau = min(u-1, (N-k)//2) errors are corrected: u-1 is the protocol's
    residual budget and (N-k)//2 the unique-decoding radius of the punctured
    code. Each coordinate's row of n symbols takes one dot product with the
    cached packed columns, whose lanes are N-k parity checks, all zero
    exactly on a codeword, and its coefficient of x^r, the gradient. A
    nonzero syndrome fails when tau = 0. Else error values are solved for on
    the workers pooled in error at earlier coordinates, if at most (N-k)/2,
    or else Berlekamp-Massey locates the errors. The pool's locator is
    Berlekamp-Massey's own, reversed, for the first errors located, and is
    built from the pooled points whenever the pool grows later. The pattern
    must reproduce every syndrome, so the codeword is the unique one within
    (N-k)//2, and the gradient is the last lane less the pattern's share;
    with no such pattern the coordinate fails. More than tau pooled workers
    is a failure too.
    """
    if any(len(row) != ctx.n for row in z):
        raise DimensionError(f"every response row must hold n={ctx.n} symbols")
    k = ctx.r + 1
    q = ctx.q
    width, count, columns, avail, xs = _syndrome_table(
        ctx.eval_points, frozenset(identified), q, k
    )
    tau = min(ctx.u - 1, (len(avail) - k) // 2)
    if tau < 0:
        raise DecodeFailureError(f"{len(avail)} available workers cannot fix {k} symbols")
    errors: dict[int, int] = {}  # pooled worker -> its evaluation point
    pooled = [1]  # _pool_locator of the pooled points
    gradient = []
    for t, row in enumerate(z):
        *syndromes, moment = unpack(sum(map(mul, row, columns)), width, count, q)
        if any(syndromes):
            share = None
            # Berlekamp-Massey alone finds the same share but cut ecc_cliff runs/s by ~20 %.
            if tau and errors and 2 * len(errors) <= len(syndromes):
                share = _pattern_share(pooled, syndromes, q)
            located = tau and share is None and _located_pattern(avail, xs, syndromes, q)
            if located:
                roots, share, locator = located
                if not errors:  # prod_j (1 - x_j x) reversed is the roots' _pool_locator
                    errors, pooled = roots, locator[::-1]
                elif not roots.keys() <= errors.keys():
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
