"""Slow reference implementations kept as differential-test oracles."""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from byzgrad.assignment import AssignmentMatrix
from byzgrad.coding import CodeContext, EncodingMatrix
from byzgrad.errors import (
    AssignmentMismatchError,
    DecodeFailureError,
    DimensionError,
    ProtocolInvariantViolation,
)
from byzgrad.linalg import Matrix, solve_linear, vandermonde


def generator_matrix(ctx: CodeContext) -> Matrix:
    """The (r+1) x n generator F, entry [k][j] = eval_points[j]**k."""
    return vandermonde(ctx.field, ctx.eval_points, ctx.r + 1).transpose()


def solve_encoding_matrix(
    ctx: CodeContext, a_mat: AssignmentMatrix, a: Sequence[int]
) -> EncodingMatrix:
    """Solve the per-sample zero constraints and assemble W = (Q | a) F.

    Requires each sample to be missing from exactly r workers, which is what
    a regular assignment with replication s+u guarantees.
    """
    field = ctx.field
    q = field.q
    n, r = ctx.n, ctx.r
    p = a_mat.p
    if a_mat.n != n:
        raise AssignmentMismatchError(f"assignment has {a_mat.n} workers, code has {n}")
    if len(a) != p:
        raise DimensionError(f"query vector length {len(a)} != p = {p}")
    f_rows = generator_matrix(ctx).to_rows()  # r+1 rows of length n
    unit_cache: dict[tuple[int, ...], list[int]] = {}
    w_rows: list[list[int]] = []
    for i in range(p):
        zero_set = tuple(a_mat.zero_set(i))
        if len(zero_set) != r:
            raise AssignmentMismatchError(
                f"sample {i + 1} is missing from {len(zero_set)} workers, expected r={r}"
            )
        ai = a[i] % q
        if ai == 0:
            # Homogeneous constraints with an invertible block force q_i = 0.
            w_rows.append([0] * n)
            continue
        if r == 0:
            qi: list[int] = []
        else:
            unit = unit_cache.get(zero_set)
            if unit is None:
                # Solve the a_i = 1 instance once per zero pattern; the
                # constraints are linear in a_i, so other values just scale it.
                top_t = Matrix.from_rows(
                    field, [[f_rows[k][j] for k in range(r)] for j in zero_set]
                )
                rhs = Matrix.column(field, [-f_rows[r][j] for j in zero_set])
                out = solve_linear(top_t, rhs)
                if out.kind != "unique":
                    raise ProtocolInvariantViolation(
                        "zero-constraint system is not uniquely solvable; "
                        "Vandermonde block should be invertible"
                    )
                unit = [out.solution.at(k, 0) for k in range(r)]
                unit_cache[zero_set] = unit
            qi = [ai * v % q for v in unit]
        row = []
        for j in range(n):
            acc = ai * f_rows[r][j]
            for k in range(r):
                acc += qi[k] * f_rows[k][j]
            row.append(acc % q)
        w_rows.append(row)
    return EncodingMatrix(tuple(v % q for v in a), Matrix.from_rows(field, w_rows))


def exhaustive_ecc_decode(
    ctx: CodeContext, z: Matrix, identified: Iterable[int]
) -> list[int]:
    """Errors-and-erasures decoding by trying every error pattern.

    Identified workers are erased outright. Among the rest, every error
    pattern of weight at most u-1 is tried in order of weight, then
    lexicographically: erase it, decode the information word from one r+1
    column block, and accept iff the re-encoded codeword matches every
    remaining column. This costs up to C(n', <= u-1) Gaussian solves.
    """
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
                f.take_columns(info_set).transpose(), z.take_columns(info_set).transpose()
            )
            if out.kind != "unique":
                raise ProtocolInvariantViolation("generator block must be invertible")
            c = out.solution.transpose()  # d x (r+1)
            if c * f.take_columns(keep) == z.take_columns(keep):
                return c.col_values(k - 1)
    raise DecodeFailureError(
        f"no codeword within {budget} errors over {len(avail)} available workers"
    )
