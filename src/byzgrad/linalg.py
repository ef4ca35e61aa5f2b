"""Dense exact linear algebra over a prime field.

Matrices store int residues row-major. They and Gaussian elimination serve
only the certificates in checks and the test oracles: a protocol run
carries plain int rows, the code computes its combining weights in closed
form, and the symmetrization strategy solves its diagonal system directly.
Elimination uses first-nonzero pivoting; over an exact field no magnitude
pivoting is needed. Includes the determinant of a Cauchy-like block with an
appended all-one column, which backs the grouping-soundness argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DegenerateInputError, DimensionError, SingularMatrixError
from .field import PrimeField


class Matrix:
    """Immutable-by-convention dense matrix over a PrimeField."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: PrimeField, rows: int, cols: int, data: list[int]):
        if len(data) != rows * cols:
            raise DimensionError(f"need {rows * cols} entries, got {len(data)}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, field: PrimeField, rows: Sequence[Sequence[int]]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        q = field.q
        data = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionError("ragged rows")
            data.extend(v % q for v in r)
        return cls(field, nrows, ncols, data)

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Matrix":
        data = [0] * (n * n)
        for i in range(n):
            data[i * n + i] = 1
        return cls(field, n, n, data)

    @classmethod
    def column(cls, field: PrimeField, values: Sequence[int]) -> "Matrix":
        q = field.q
        return cls(field, len(values), 1, [v % q for v in values])

    def at(self, i: int, j: int) -> int:
        return self.data[i * self.cols + j]

    def row_values(self, i: int) -> list[int]:
        c = self.cols
        return self.data[i * c : (i + 1) * c]

    def col_values(self, j: int) -> list[int]:
        return self.data[j :: self.cols]

    def to_rows(self) -> list[list[int]]:
        return [self.row_values(i) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        r, c, d = self.rows, self.cols, self.data
        data = [0] * (r * c)
        for i in range(r):
            base = i * c
            for j in range(c):
                data[j * r + i] = d[base + j]
        return Matrix(self.field, c, r, data)

    def take_columns(self, idx: Sequence[int]) -> "Matrix":
        c = self.cols
        d = self.data
        data = []
        for i in range(self.rows):
            base = i * c
            data.extend(d[base + j] for j in idx)
        return Matrix(self.field, self.rows, len(idx), data)

    def _check_field(self, other: "Matrix") -> None:
        if self.field.q != other.field.q:
            raise DimensionError("operands live in different fields")

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        q = self.field.q
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.data, other.data
        data = [0] * (n * m)
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            out = i * m
            for j in range(m):
                acc = 0
                for t in range(k):
                    acc += arow[t] * b[t * m + j]
                data[out + j] = acc % q
        return Matrix(self.field, n, m, data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field.q == other.field.q
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, self.row_values(i))) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols} mod {self.field.q}: {body})"


@dataclass(frozen=True)
class LinearSolveOutcome:
    """Result of Gaussian elimination on an augmented system.

    kind is one of "unique", "underdetermined", "inconsistent"; solution is
    None exactly when the system is inconsistent.
    """

    kind: str
    solution: Optional[Matrix]


def solve_linear(coeffs: Matrix, rhs: Matrix) -> LinearSolveOutcome:
    """Solve coeffs @ X = rhs exactly; rhs may have several columns.

    Returns a particular solution (free variables set to 0) when the system
    is consistent, flagging whether it was unique.
    """
    coeffs._check_field(rhs)
    if coeffs.rows != rhs.rows:
        raise DimensionError("coefficient and right-hand side row counts differ")
    q = coeffs.field.q
    m, k, t = coeffs.rows, coeffs.cols, rhs.cols
    aug = [coeffs.row_values(i) + rhs.row_values(i) for i in range(m)]
    width = k + t
    pivots: list[int] = []
    rank = 0
    for col in range(k):
        piv = None
        for rr in range(rank, m):
            if aug[rr][col]:
                piv = rr
                break
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = pow(aug[rank][col], -1, q)
        aug[rank] = [v * inv % q for v in aug[rank]]
        prow = aug[rank]
        for rr in range(m):
            if rr != rank and aug[rr][col]:
                f = aug[rr][col]
                row = aug[rr]
                aug[rr] = [(a - f * b) % q for a, b in zip(row, prow)]
        pivots.append(col)
        rank += 1
    # Rows below the rank have an all-zero coefficient part; any nonzero
    # augmented entry there is a pivot in the augmented block.
    inconsistent = any(any(aug[rr][k:width]) for rr in range(rank, m))
    if inconsistent:
        return LinearSolveOutcome("inconsistent", None)
    sol = [0] * (k * t)
    for idx, col in enumerate(pivots):
        sol[col * t : (col + 1) * t] = aug[idx][k:width]
    kind = "unique" if rank == k else "underdetermined"
    return LinearSolveOutcome(kind, Matrix(coeffs.field, k, t, sol))


def invert(mat: Matrix) -> Matrix:
    if mat.rows != mat.cols:
        raise DimensionError("only square matrices are invertible")
    out = solve_linear(mat, Matrix.identity(mat.field, mat.rows))
    if out.kind != "unique":
        raise SingularMatrixError("matrix is singular")
    return out.solution


def determinant(mat: Matrix) -> int:
    if mat.rows != mat.cols:
        raise DimensionError("determinant requires a square matrix")
    q = mat.field.q
    n = mat.rows
    rows = [mat.row_values(i) for i in range(n)]
    det = 1
    for col in range(n):
        piv = None
        for rr in range(col, n):
            if rows[rr][col]:
                piv = rr
                break
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det % q
        pval = rows[col][col]
        det = det * pval % q
        inv = pow(pval, -1, q)
        prow = rows[col]
        for rr in range(col + 1, n):
            if rows[rr][col]:
                f = rows[rr][col] * inv % q
                rows[rr] = [(a - f * b) % q for a, b in zip(rows[rr], prow)]
    return det


def vandermonde(field: PrimeField, points: Sequence[int], ncols: int | None = None) -> Matrix:
    """Vandermonde matrix with one row per evaluation point, columns = powers 0..ncols-1."""
    if ncols is None:
        ncols = len(points)
    q = field.q
    data = []
    for x in points:
        x %= q
        v = 1
        for _ in range(ncols):
            data.append(v)
            v = v * x % q
    return Matrix(field, len(points), ncols, data)


def cauchy_like_det(field: PrimeField, zetas: Sequence[int], deltas: Sequence[int]) -> int:
    """Determinant of the (k+1)x(k+1) block [1/(zeta_j - delta_i) | 1].

    Rows are indexed by the k+1 deltas; the first k columns by the zetas; the
    last column is all ones. Nonzero whenever all 2k+1 elements are distinct.
    """
    q = field.q
    zs = [z % q for z in zetas]
    ds = [d % q for d in deltas]
    if len(ds) != len(zs) + 1:
        raise DimensionError("need exactly one more delta than zetas")
    if len(set(zs) | set(ds)) != len(zs) + len(ds):
        raise DegenerateInputError("all elements must be pairwise distinct")
    k = len(zs)
    rows = []
    for d in ds:
        row = [pow(z - d, -1, q) for z in zs]
        row.append(1)
        rows.append(row)
    return determinant(Matrix.from_rows(field, rows))
