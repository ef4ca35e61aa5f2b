"""Exhaustive and randomized verification of the scheme's guarantees.

Each check runs at a fixed desk scale, counts its cases, and reports any
counterexample it finds (none are expected). The CLI exposes them under
`byzgrad verify`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from itertools import combinations, permutations
from typing import Optional, Sequence

from .adversary import pick_attack_support
from .assignment import AssignmentMatrix, assignment_feasible, make_random_regular
from .coding import (
    CodeContext,
    _point_weights,
    build_code_context,
    build_encoding_matrix,
    combining_vector,
    ecc_decode,
    response_matrix,
    sample_row,
)
from .linalg import cauchy_like_det, invert, solve_linear, vandermonde
from .protocol import form_groups, group_response, pack_responses


@dataclass
class CheckResult:
    name: str
    cases: int = 0
    failures: list[str] = dc_field(default_factory=list)
    notes: list[str] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def report(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"[{status}] {self.name}: {self.cases} cases, {len(self.failures)} failures"]
        lines.extend(f"    counterexample: {f}" for f in self.failures[:10])
        lines.extend(f"    note: {n}" for n in self.notes)
        return "\n".join(lines)


def check_vandermonde_closed_form() -> CheckResult:
    """The code's per-point weights against full Gaussian inversion.

    For random distinct point sets, the weights must equal both the last row
    of the inverse of the point-rows Vandermonde and the last column of the
    inverse of its transpose.
    """
    res = CheckResult("vandermonde inverse closed form")
    rng = random.Random(0)
    for q in (101, 2**31 - 1):
        for size in range(1, 9):
            for _ in range(200):
                pts = rng.sample(range(1, q), size)
                res.cases += 1
                closed = list(_point_weights(q, tuple(pts)))
                v = vandermonde(pts, q)
                by_row = invert(v, q)[size - 1]
                by_col = [row[size - 1] for row in invert(list(zip(*v)), q)]
                if closed != by_row or closed != by_col:
                    res.failures.append(f"q={q} points={pts}")
    return res


def check_cauchy_determinant() -> CheckResult:
    """The bordered Cauchy block has a nonzero determinant for distinct inputs."""
    res = CheckResult("bordered Cauchy determinant nonzero")
    rng = random.Random(0)
    q = 10007
    for _ in range(1000):
        k = rng.randrange(0, 6)
        elems = rng.sample(range(q), 2 * k + 1)
        zetas, deltas = elems[:k], elems[k:]
        res.cases += 1
        if cauchy_like_det(q, zetas, deltas) == 0:
            res.failures.append(f"q={q} zetas={zetas} deltas={deltas}")
    q = 11
    for k in range(3):
        for elems in permutations(range(q), 2 * k + 1):
            zetas, deltas = list(elems[:k]), list(elems[k:])
            res.cases += 1
            if cauchy_like_det(q, zetas, deltas) == 0:
                res.failures.append(f"q={q} zetas={zetas} deltas={deltas}")
    return res


def _query_rows(
    ctx: CodeContext, a_mat: AssignmentMatrix, a: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Rows of W = (Q | a) F for a general query a: sample i's all-one row times a_i.

    Row i must vanish off sample i's holders and have leading coefficient
    a_i, which scaling the monic all-one row (coding.sample_row) gives.
    """
    q = ctx.q
    return tuple(
        tuple(ai * v % q for v in sample_row(ctx, column))
        for ai, column in zip(a, zip(*a_mat.bits))
    )


def _solved_rows(
    ctx: CodeContext, a_mat: AssignmentMatrix, a: Sequence[int]
) -> Optional[tuple[tuple[int, ...], ...]]:
    """Rows of W = (Q | a) F solved from their defining equations, or None.

    F's row k holds every point's k-th power. Row i is (c_i | a_i) F, c_i
    being row i of Q, and vanishes on the r workers that do not hold sample
    i: r equations in the r unknowns c_i. None if one of these systems is
    not uniquely solvable.
    """
    q, r, pts = ctx.q, ctx.r, ctx.eval_points
    rows = []
    for ai, column in zip(a, zip(*a_mat.bits)):
        roots = [x for x, held in zip(pts, column) if not held]
        coeffs = [[pow(x, k, q) for k in range(r)] for x in roots]
        out = solve_linear(coeffs, [[-ai * pow(x, r, q)] for x in roots], q)
        if out.kind != "unique":
            return None
        poly = [c for (c,) in out.solution] + [ai]
        rows.append(tuple(sum(c * pow(x, k, q) for k, c in enumerate(poly)) % q for x in pts))
    return tuple(rows)


def _random_shape(rng: random.Random, max_n: int, max_p: int) -> Optional[tuple[int, ...]]:
    """A random small (n, s, u, p), or None when no regular assignment fits it."""
    n = rng.randrange(3, max_n + 1)
    s = rng.randrange(1, n)
    u = rng.randrange(1, min(s + 1, n - s) + 1)
    p = rng.randrange(1, max_p + 1)
    return (n, s, u, p) if assignment_feasible("random", n, p, s + u)[0] else None


def check_encoding_matrix() -> CheckResult:
    """Zero pattern and group-span property of a general query's encoding matrix.

    For random small instances and queries a (W from _query_rows): W
    vanishes wherever the assignment does, and for every group of r+1
    workers the combining vector recovers the queried coefficients exactly.
    """
    res = CheckResult("encoding matrix zero pattern and span")
    rng = random.Random(0)
    q = 101
    for _ in range(60):
        shape = _random_shape(rng, 6, 6)
        if shape is None:
            continue
        n, s, u, p = shape
        ctx = build_code_context(n, s, u, q)
        a_mat = make_random_regular(n, p, s + u, rng.randrange(10**6))
        a = [rng.randrange(q) for _ in range(p)]
        w = _query_rows(ctx, a_mat, a)
        res.cases += 1
        for j in range(n):
            for i in range(p):
                if a_mat.bits[j][i] == 0 and w[i][j] != 0:
                    res.failures.append(f"n={n} s={s} u={u} p={p}: W[{i},{j}] != 0")
        for group in combinations(range(n), ctx.r + 1):
            b = combining_vector(ctx, group)
            got = [sum(row[j] * b[j] for j in group) % q for row in w]
            if got != [v % q for v in a]:
                res.failures.append(f"n={n} s={s} u={u} group={group}: span miss")
    return res


def check_restriction_equivalence() -> CheckResult:
    """Zeroing rows of the all-one encoding equals rebuilding for the 0/1 query.

    The rebuilt rows are solved from W's defining equations (_solved_rows),
    not read from the closed form that builds the all-one encoding.
    """
    res = CheckResult("mask restriction equals rebuilt encoding")
    rng = random.Random(0)
    q = 101
    while res.cases < 500:
        shape = _random_shape(rng, 7, 8)
        if shape is None:
            continue
        n, s, u, p = shape
        ctx = build_code_context(n, s, u, q)
        a_mat = make_random_regular(n, p, s + u, rng.randrange(10**6))
        w = build_encoding_matrix(ctx, a_mat).w
        mask = [i for i in range(p) if rng.random() < 0.5]
        res.cases += 1
        keep, zeros = set(mask), (0,) * n
        restricted = tuple(row if i in keep else zeros for i, row in enumerate(w))
        rebuilt = _solved_rows(ctx, a_mat, [1 if i in keep else 0 for i in range(p)])
        if restricted != rebuilt:
            res.failures.append(f"n={n} s={s} u={u} p={p} mask={mask}")
    return res


def symmetrization_attack(
    ctx: CodeContext, groups: Sequence[Sequence[int]], controlled: Sequence[int]
) -> Optional[list[int]]:
    """Error making every given group decode the same wrong value, or None.

    Solves b_k . e = 1 for every group's combining vector b_k, with the error
    e supported on the controlled workers, so each group's decoded response
    shifts by the same nonzero offset; the system is linear in the offset, so
    1 stands for any. Returns e as a length-n list, or None when the system
    is inconsistent, which is guaranteed for the full root-plus-satellites
    grouping with one more group than unidentified malicious workers.
    """
    support = sorted(set(controlled))
    vectors = [combining_vector(ctx, g) for g in groups]
    coeffs = [[b[j] for j in support] for b in vectors]
    out = solve_linear(coeffs, [[1]] * len(vectors), ctx.q)
    if out.kind == "inconsistent":
        return None
    err = [0] * ctx.n
    for j, (e,) in zip(support, out.solution):
        err[j] = e
    return err


# The (n, s, u) codes over F_101 that both grouping certificates run on.
_GROUPING_INSTANCES = ((5, 2, 1), (6, 2, 2))


def check_grouping_agreement_sound() -> CheckResult:
    """With one more group than unidentified malicious workers, unanimity is honest.

    For every candidate malicious set of that size, the system asking all
    groups to shift by a common nonzero offset must be inconsistent: the
    symmetrization attack finds no error.
    """
    res = CheckResult("unanimous groups cannot all be corrupted")
    for n, s, u in _GROUPING_INSTANCES:
        ctx = build_code_context(n, s, u, 101)
        groups = form_groups(range(n), ctx.r, s)
        for bad in combinations(range(n), s):
            res.cases += 1
            if symmetrization_attack(ctx, groups, bad) is not None:
                res.failures.append(f"n={n} s={s} u={u} malicious={bad}")
    return res


def check_fewer_groups_attackable() -> CheckResult:
    """With only s_t groups, one corruption can make them unanimous and wrong.

    Builds the attack, then recomputes every group's decoded response on the
    corrupted transmissions and asserts they are identical and differ from
    the true gradient. Also reports how often the same attack lands when the
    grouping order is randomized, where no guarantee is claimed.
    """
    res = CheckResult("one fewer group admits a unanimous lie")
    rng = random.Random(0)
    q, d, shuffled_trials = 101, 2, 50
    for n, s, u in _GROUPING_INSTANCES:
        ctx = build_code_context(n, s, u, q)
        groups = form_groups(range(n), ctx.r, s)[:s]
        support = pick_attack_support(groups)
        res.cases += 1
        err = symmetrization_attack(ctx, groups, support)
        if err is None:
            res.failures.append(f"n={n} s={s} u={u}: attack infeasible")
            continue
        rho = s + u
        a_mat = make_random_regular(n, max(n // rho + 1, 2), rho, 0)
        enc = build_encoding_matrix(ctx, a_mat)
        gradients = [[rng.randrange(q) for _ in range(a_mat.p)] for _ in range(d)]
        z = response_matrix(ctx, gradients, enc)
        corrupted = [[(v + e) % q for v in col] for col, e in zip(zip(*z), err)]
        packed = pack_responses(ctx, corrupted)
        truth = [sum(row) % q for row in gradients]
        responses = [group_response(ctx, packed, combining_vector(ctx, g), d) for g in groups]
        if any(resp != responses[0] for resp in responses[1:]):
            res.failures.append(f"n={n} s={s} u={u}: groups not unanimous under attack")
        if responses[0] == truth:
            res.failures.append(f"n={n} s={s} u={u}: attack did not change the value")
        hits = 0
        for trial in range(shuffled_trials):
            order = list(range(n))
            rng.shuffle(order)
            shuffled = form_groups(range(n), ctx.r, s, order)[:s]
            sresp = [group_response(ctx, packed, combining_vector(ctx, g), d) for g in shuffled]
            unanimous = all(r == sresp[0] for r in sresp[1:]) and sresp[0] != truth
            hits += unanimous
        res.notes.append(
            f"n={n} s={s} u={u}: fixed-support attack fooled "
            f"{hits}/{shuffled_trials} randomized groupings"
        )
    return res


def check_errors_and_erasures() -> CheckResult:
    """Exhaustive single-error correction after one identification.

    For every pre-identified worker, every remaining error position and every
    nonzero error value, decoding the corrupted all-one responses recovers
    the exact gradient.
    """
    res = CheckResult("errors-and-erasures decoding, exhaustive")
    rng = random.Random(0)
    n, s, u, q, p = 7, 2, 2, 11, 5
    ctx = build_code_context(n, s, u, q)
    a_mat = make_random_regular(n, p, s + u, 0)
    enc = build_encoding_matrix(ctx, a_mat)
    gradients = [[rng.randrange(q) for _ in range(p)]]
    z = response_matrix(ctx, gradients, enc)
    truth = [sum(row) % q for row in gradients]
    for identified in range(n):
        for corrupt in range(n):
            if corrupt == identified:
                continue
            for err in range(1, q):
                res.cases += 1
                received = [list(row) for row in z]
                for row in received:
                    row[corrupt] = (row[corrupt] + err) % q
                got = ecc_decode(ctx, received, [identified])
                if got != truth:
                    res.failures.append(
                        f"identified={identified + 1} corrupt={corrupt + 1} err={err}"
                    )
    return res


CHECKS = {
    "vandermonde": check_vandermonde_closed_form,
    "cauchy": check_cauchy_determinant,
    "lemma2": check_encoding_matrix,
    "lemma3": check_grouping_agreement_sound,
    "theorem-optimality": check_fewer_groups_attackable,
    "ecc": check_errors_and_erasures,
    "restriction": check_restriction_equivalence,
}
