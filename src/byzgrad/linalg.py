"""Dense exact linear algebra over a prime field, on plain int rows.

A matrix is a sequence of int rows, the run path's own layout, and every
function takes the modulus as an int q; any matrix returned is a list of
int rows reduced mod q. Gaussian elimination serves only the certificates
in checks and the test oracles: a protocol run computes its combining
weights in closed form, and the symmetrization strategy solves its diagonal
system directly. solve_linear, invert and determinant share one
Gauss-Jordan core with first-nonzero pivoting; over an exact field no
magnitude pivoting is needed. Includes the determinant of a Cauchy-like
block with an appended all-one column, which backs the grouping-soundness
argument.
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


def _eliminate(aug: list[list[int]], cols: int, q: int) -> tuple[list[int], int]:
    """Gauss-Jordan in place on the first cols columns of the reduced rows aug.

    Returns the pivot columns and, when aug has cols rows, the determinant of
    those columns: the product of the pivots, negated per row swap.
    """
    pivots: list[int] = []
    det = 1
    for col in range(cols):
        rank = len(pivots)
        for piv in range(rank, len(aug)):
            if aug[piv][col]:
                break
        else:
            det = 0
            continue
        if piv != rank:
            aug[rank], aug[piv] = aug[piv], aug[rank]
            det = -det
        pval = aug[rank][col]
        det = det * pval % q
        inv = pow(pval, -1, q)
        prow = aug[rank] = [v * inv % q for v in aug[rank]]
        for rr, row in enumerate(aug):
            f = row[col]
            if f and rr != rank:
                aug[rr] = [(a - f * b) % q for a, b in zip(row, prow)]
        pivots.append(col)
    return pivots, det


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
    k = len(left[0]) if left else 0
    aug = [a + b for a, b in zip(left, right)]
    pivots, _ = _eliminate(aug, k, q)
    rank = len(pivots)
    # Rows below the rank have an all-zero coefficient part; any nonzero
    # augmented entry there is a pivot in the augmented block.
    if any(any(row[k:]) for row in aug[rank:]):
        return LinearSolveOutcome("inconsistent", None)
    sol = [[0] * len(right[0]) for _ in range(k)]  # k > 0 implies rows exist
    for row, col in zip(aug, pivots):
        sol[col] = row[k:]
    kind = "unique" if rank == k else "underdetermined"
    return LinearSolveOutcome(kind, sol)


def invert(rows: Sequence[Sequence[int]], q: int) -> list[list[int]]:
    _check_square(rows, "inversion")
    n = len(rows)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(_reduced(rows, q))]
    if not _eliminate(aug, n, q)[1]:
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in aug]


def determinant(rows: Sequence[Sequence[int]], q: int) -> int:
    _check_square(rows, "determinant")
    return _eliminate(_reduced(rows, q), len(rows), q)[1]


def vandermonde(points: Sequence[int], q: int) -> list[list[int]]:
    """One row per evaluation point x, holding x**0 .. x**(len(points)-1) mod q."""
    return [[pow(x, e, q) for e in range(len(points))] for x in points]


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
