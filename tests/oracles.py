"""Slow reference implementations kept as differential-test oracles."""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from byzgrad.coding import CodeContext, ResponseMatrix
from byzgrad.errors import DecodeFailureError, InvalidParamsError, ProtocolInvariantViolation
from byzgrad.linalg import solve_linear


def exhaustive_ecc_decode(
    ctx: CodeContext, received: ResponseMatrix, identified: Iterable[int]
) -> list[int]:
    """Errors-and-erasures decoding by trying every error pattern.

    Identified workers are erased outright. Among the rest, every error
    pattern of weight at most u-1 is tried in order of weight, then
    lexicographically: erase it, decode the information word from one r+1
    column block, and accept iff the re-encoded codeword matches every
    remaining column. This costs up to C(n', <= u-1) Gaussian solves.
    """
    if any(v != 1 for v in received.query):
        raise InvalidParamsError("errors-and-erasures decoding runs on the all-one query")
    erased = set(identified)
    avail = [j for j in range(ctx.n) if received.present[j] and j not in erased]
    k = ctx.r + 1
    f = ctx.generator
    z = received.values
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
