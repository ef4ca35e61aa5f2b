"""Gradient code construction over a prime field.

The generator matrix F is a (r+1) x n Vandermonde on distinct nonzero
evaluation points, so every r+1 columns form an invertible block (MDS).
Worker j's coefficients for a queried combination a are column j of
W = (Q | a) F: row i evaluates a polynomial of degree r with leading
coefficient a_i that vanishes at the workers not holding sample i, which in
closed form is W[i][j] = a_i * prod_{m in Z_i} (x_j - x_m). Row i thus
depends only on a_i and Z_i, so a regular assignment has few distinct rows,
and the honest responses G @ W are computed per class of equal rows from
the sum of that class's gradient columns. Any r+1 workers suffice to
recover the combination via a closed-form combining vector, cached per code
and group. So each coordinate of the all-one responses evaluates a
polynomial of degree at most r whose coefficient of x^r is the gradient.
Once few enough liars remain, the errors-and-erasures decoder
erases the identified workers, interpolates the rest with one Lagrange
basis, cached per point set and shared across the d gradient coordinates,
corrects at most tau = min(u-1, (n'-(r+1))//2) errors among the n'
available ones with Gao's algorithm, and re-encodes the decoded polynomial
at every available point to locate and bound the errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import zip_longest
from operator import mul
from typing import Iterable, Sequence

from .assignment import AssignmentMatrix
from .errors import (
    AssignmentMismatchError,
    DecodeFailureError,
    DimensionError,
    InvalidParamsError,
)
from .field import DEFAULT_MODULUS, PrimeField
from .linalg import Matrix, vandermonde_inverse_last_column

# Not used here: perfbench/tracing.py wraps solve_linear at its coding name.
from .linalg import solve_linear  # noqa: F401


@dataclass(frozen=True)
class CodeContext:
    """Shared code parameters: n workers, s malicious, u redundancy, r = n-(s+u)."""

    n: int
    s: int
    u: int
    r: int
    field: PrimeField
    eval_points: tuple[int, ...]


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
    field = PrimeField(q)
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
    return CodeContext(n, s, u, n - (s + u), field, eval_points)


@dataclass(frozen=True)
class EncodingMatrix:
    """Query coefficients a together with the worker coefficient matrix W (p x n)."""

    a: tuple[int, ...]
    w: Matrix

    @cached_property
    def row_classes(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """Samples grouped by equal nonzero rows of W, with each worker's entry per group.

        Returns (samples, columns): samples[c] holds, in increasing order, the
        samples whose rows equal class c's, classes ordered by first sample;
        columns[j][c] is W[i][j] for any i in samples[c]. Row i depends only on
        a_i and the zero set Z_i, so a regular all-one encoding has few
        classes: n for cyclic, n/rho for fractional. All-zero rows join no
        class. Derived from W itself, so it holds for any encoding; tuples,
        because every caller shares the cached value.
        """
        w = self.w
        n, data = w.cols, w.data
        index: dict[tuple[int, ...], list[int]] = {}
        for i in range(w.rows):
            row = tuple(data[i * n : (i + 1) * n])
            if any(row):
                index.setdefault(row, []).append(i)
        samples = tuple(map(tuple, index.values()))
        # Transpose the distinct rows; with no class every worker's entry list is empty.
        columns = tuple(zip(*index)) if index else ((),) * n
        return samples, columns


def build_encoding_matrix(ctx: CodeContext, a_mat: AssignmentMatrix, a: Sequence[int]) -> EncodingMatrix:
    """W[i][j] = a_i * prod_{m in Z_i} (x_j - x_m), in closed form.

    Row i of W = (Q | a) F evaluates a polynomial of degree at most r with
    leading coefficient a_i at every worker's point; vanishing on the r
    workers Z_i that do not hold sample i pins it to a_i times the monic
    polynomial with those roots. One base row is built per distinct zero
    pattern and scaled by a_i. Requires each sample to be missing from
    exactly r workers, which is what a regular assignment with replication
    s+u guarantees.
    """
    q = ctx.field.q
    n, r = ctx.n, ctx.r
    p = a_mat.p
    if a_mat.n != n:
        raise AssignmentMismatchError(f"assignment has {a_mat.n} workers, code has {n}")
    if len(a) != p:
        raise DimensionError(f"query vector length {len(a)} != p = {p}")
    pts = ctx.eval_points
    zeros = [0] * n
    bases: dict[tuple[int, ...], list[int]] = {}
    data: list[int] = []
    for i in range(p):
        zero_set = tuple(a_mat.zero_set(i))
        if len(zero_set) != r:
            raise AssignmentMismatchError(
                f"sample {i + 1} is missing from {len(zero_set)} workers, expected r={r}"
            )
        base = bases.get(zero_set)
        if base is None:
            roots = [pts[m] for m in zero_set]
            base = []
            for xj in pts:
                acc = 1
                for xm in roots:
                    acc = acc * (xj - xm) % q
                base.append(acc)
            bases[zero_set] = base
        ai = a[i] % q
        if ai == 1:
            data.extend(base)
        elif ai == 0:
            data.extend(zeros)
        else:
            data.extend(ai * v % q for v in base)
    return EncodingMatrix(tuple(v % q for v in a), Matrix(ctx.field, p, n, data))


def restrict_encoding(enc: EncodingMatrix, mask: Iterable[int]) -> EncodingMatrix:
    """Encoding for a 0/1 sub-query: zero the rows outside the mask.

    Only valid when enc was built for the all-one query; workers never solve
    the coefficient system afresh mid-protocol.
    """
    if any(v != 1 for v in enc.a):
        raise InvalidParamsError("restriction requires the all-one base encoding")
    keep = set(mask)
    p, n = enc.w.rows, enc.w.cols
    zeros = [0] * n
    rows = [enc.w.row_values(i) if i in keep else list(zeros) for i in range(p)]
    a = tuple(1 if i in keep else 0 for i in range(p))
    return EncodingMatrix(a, Matrix.from_rows(enc.w.field, rows))


def combining_vector(ctx: CodeContext, group: Sequence[int]) -> list[int]:
    """Length-n coefficients fusing a size-(r+1) group's responses into G @ a.

    Entry j for a group member is 1 / prod over the other members' evaluation
    point differences; entries outside the group are zero. Each call returns
    a fresh list built from a per-(code, group) cache.
    """
    return list(_combining_vector(ctx.field.q, ctx.eval_points, ctx.r, tuple(group)))


@lru_cache(maxsize=256)
def _combining_vector(
    q: int, eval_points: tuple[int, ...], r: int, members: tuple[int, ...]
) -> tuple[int, ...]:
    if len(members) != r + 1 or len(set(members)) != len(members):
        raise InvalidParamsError(f"group must contain r+1 = {r + 1} distinct workers")
    coeffs = vandermonde_inverse_last_column(PrimeField(q), [eval_points[j] for j in members])
    b = [0] * len(eval_points)
    for j, c in zip(members, coeffs):
        b[j] = c
    return tuple(b)


@dataclass(frozen=True)
class DecodingMatrix:
    groups: tuple[tuple[int, ...], ...]
    b: Matrix  # n x m, column k = combining vector of group k


def build_decoding_matrix(ctx: CodeContext, groups: Sequence[Sequence[int]]) -> DecodingMatrix:
    cols = [combining_vector(ctx, g) for g in groups]
    data = [cols[k][j] for j in range(ctx.n) for k in range(len(cols))]
    b = Matrix(ctx.field, ctx.n, len(cols), data)
    return DecodingMatrix(tuple(tuple(g) for g in groups), b)


def worker_response(gradients: Matrix, enc: EncodingMatrix, j: int) -> list[int]:
    """Honest response of worker j: G @ W[:, j], a length-d vector."""
    q = gradients.field.q
    d, p = gradients.rows, gradients.cols
    if p != enc.w.rows:
        raise DimensionError("gradient matrix width must equal sample count")
    col = enc.w.col_values(j)
    return [sum(map(mul, gradients.row_values(t), col)) % q for t in range(d)]


def response_matrix(gradients: Matrix, enc: EncodingMatrix) -> Matrix:
    """All honest responses at once: Z = G @ W, shape d x n.

    Equal rows of W form one class (EncodingMatrix.row_classes), so
    Z[t][j] = sum over classes c of (sum of G[t][i] over i in c) * W[c][j]:
    per coordinate, one sum per class, then one dot product over the classes
    per worker. When every class is a single sample this is the dense
    product plus d*p additions.
    """
    w = enc.w
    if gradients.field.q != w.field.q:
        raise DimensionError("operands live in different fields")
    if gradients.cols != w.rows:
        raise DimensionError("gradient matrix width must equal sample count")
    q = w.field.q
    samples, columns = enc.row_classes
    data: list[int] = []
    for t in range(gradients.rows):
        get = gradients.row_values(t).__getitem__
        sums = [get(c[0]) if len(c) == 1 else sum(map(get, c)) for c in samples]
        data.extend([sum(map(mul, sums, col)) % q for col in columns])
    return Matrix(w.field, gradients.rows, w.cols, data)


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
    for xj, w in zip(xs, vandermonde_inverse_last_column(PrimeField(q), xs)):
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


def ecc_decode(ctx: CodeContext, z: Matrix, identified: Iterable[int]) -> list[int]:
    """Recover the full gradient from the d x n all-one responses z.

    Identified workers are erased. Among the n' available ones, k = r+1
    symbols fix a codeword, so at most tau = min(u-1, (n'-k)//2) errors are
    corrected: u-1 is the protocol's residual budget and (n'-k)//2 the
    unique-decoding radius of the punctured code. Each coordinate is
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
    q = ctx.field.q
    xs = tuple(ctx.eval_points[j] for j in avail)
    g0, columns = _lagrange_basis(xs, q)
    errors: set[int] = set()
    gradient = []
    for t in range(z.rows):
        row = z.row_values(t)
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
