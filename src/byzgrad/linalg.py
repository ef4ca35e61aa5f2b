"""Dense exact linear algebra over a prime field, on plain int rows.

A matrix is a sequence of int rows, the run path's own layout, and every
function takes the modulus as an int q; any matrix returned is a list of
int rows reduced mod q. Gaussian elimination serves only the certificates
in checks and the test oracles: a protocol run computes its combining
weights in closed form, and the symmetrization strategy solves its diagonal
system directly. Elimination uses first-nonzero pivoting; over an exact
field no magnitude pivoting is needed. Includes the determinant of a
Cauchy-like block with an appended all-one column, which backs the
grouping-soundness argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DegenerateInputError, DimensionError, SingularMatrixError


def _reduced(rows: Sequence[Sequence[int]], q: int) -> list[list[int]]:
    """Fresh rows reduced mod q; DimensionError if they differ in length."""
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise DimensionError("ragged rows")
    return [[v % q for v in row] for row in rows]


def _check_square(rows: Sequence[Sequence[int]], what: str) -> None:
    if any(len(row) != len(rows) for row in rows):
        raise DimensionError(f"{what} requires a square matrix")


@dataclass(frozen=True)
class LinearSolveOutcome:
    """Result of Gaussian elimination on an augmented system.

    kind is one of "unique", "underdetermined", "inconsistent"; solution is
    the rows of X, or None exactly when the system is inconsistent.
    """

    kind: str
    solution: Optional[list[list[int]]]


def solve_linear(
    coeffs: Sequence[Sequence[int]], rhs: Sequence[Sequence[int]], q: int
) -> LinearSolveOutcome:
    """Solve coeffs @ X = rhs exactly over F_q; rhs may have several columns.

    Returns a particular solution (free variables set to 0) when the system
    is consistent, flagging whether it was unique.
    """
    if len(coeffs) != len(rhs):
        raise DimensionError("coefficient and right-hand side row counts differ")
    left, right = _reduced(coeffs, q), _reduced(rhs, q)
    m = len(left)
    k = len(left[0]) if m else 0
    aug = [a + b for a, b in zip(left, right)]
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
    if any(any(aug[rr][k:]) for rr in range(rank, m)):
        return LinearSolveOutcome("inconsistent", None)
    sol = [[0] * len(right[0]) for _ in range(k)]  # k > 0 implies m > 0
    for idx, col in enumerate(pivots):
        sol[col] = aug[idx][k:]
    kind = "unique" if rank == k else "underdetermined"
    return LinearSolveOutcome(kind, sol)


def invert(rows: Sequence[Sequence[int]], q: int) -> list[list[int]]:
    _check_square(rows, "inversion")
    n = len(rows)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    out = solve_linear(rows, identity, q)
    if out.kind != "unique":
        raise SingularMatrixError("matrix is singular")
    return out.solution


def determinant(rows: Sequence[Sequence[int]], q: int) -> int:
    _check_square(rows, "determinant")
    rows = _reduced(rows, q)
    n = len(rows)
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


def vandermonde(points: Sequence[int], q: int, ncols: int | None = None) -> list[list[int]]:
    """One row per evaluation point x, holding x**0 .. x**(ncols-1) mod q."""
    if ncols is None:
        ncols = len(points)
    return [[pow(x, e, q) for e in range(ncols)] for x in points]


def cauchy_like_det(q: int, zetas: Sequence[int], deltas: Sequence[int]) -> int:
    """Determinant of the (k+1)x(k+1) block [1/(zeta_j - delta_i) | 1].

    Rows are indexed by the k+1 deltas; the first k columns by the zetas; the
    last column is all ones. Nonzero whenever all 2k+1 elements are distinct.
    """
    zs = [z % q for z in zetas]
    ds = [d % q for d in deltas]
    if len(ds) != len(zs) + 1:
        raise DimensionError("need exactly one more delta than zetas")
    if len(set(zs) | set(ds)) != len(zs) + len(ds):
        raise DegenerateInputError("all elements must be pairwise distinct")
    return determinant([[pow(z - d, -1, q) for z in zs] + [1] for d in ds], q)
