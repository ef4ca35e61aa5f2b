"""Pluggable Byzantine strategies for the simulated workers.

A strategy owns a set of controlled workers and maps each query's honest
value to the transmitted one; everything else passes through untouched.
Policies are deterministic given their seed and the query history, so runs
replay bit-identically.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .assignment import AssignmentMatrix
from .coding import CodeContext, DecodingMatrix, EncodingMatrix, build_decoding_matrix
from .errors import InvalidParamsError, ProtocolInvariantViolation
from .linalg import Matrix, solve_linear
from .protocol import Query, form_groups, leaf_depths


class AdversaryStrategy:
    """Base policy: honest behaviour, bookkeeping for history and rng."""

    name = "honest"

    def __init__(self, controlled: Iterable[int] = (), seed: int = 0):
        self.controlled = frozenset(controlled)
        self.seed = seed
        self.history: list[Query] = []
        self.ctx: Optional[CodeContext] = None
        self.a_mat: Optional[AssignmentMatrix] = None
        self.enc: Optional[EncodingMatrix] = None

    @cached_property
    def rng(self) -> random.Random:
        """Seeded on first use, so a policy that draws nothing hashes no seed string."""
        return random.Random(f"{self.seed}:adversary")

    def bind(self, ctx: CodeContext, a_mat: AssignmentMatrix, enc: EncodingMatrix) -> None:
        """Called once before the initial responses; the code is public."""
        self.ctx = ctx
        self.a_mat = a_mat
        self.enc = enc

    def record(self, query: Query) -> None:
        self.history.append(query)

    def initial_response(self, j: int, honest: Sequence[int]) -> list[int]:
        return list(honest)

    def match_response(self, j: int, query: Query, honest: int) -> int:
        return honest

    # helpers shared by subclasses

    def _nonzero_vector(self, d: int) -> list[int]:
        q = self.ctx.field.q
        while True:
            v = [self.rng.randrange(q) for _ in range(d)]
            if any(v):
                return v

    def _nonzero_scalar(self) -> int:
        return self.rng.randrange(1, self.ctx.field.q)


def honest() -> AdversaryStrategy:
    return AdversaryStrategy()


class RandomCorruption(AdversaryStrategy):
    """Adds uniformly random nonzero errors according to a persistence policy.

    persistence: "always" corrupts every response, "initial_only" corrupts
    only the first transmission, "per_query_coin" flips a fair coin per
    worker per query.
    """

    name = "random"

    def __init__(self, controlled: Iterable[int], seed: int = 0, persistence: str = "always"):
        if persistence not in ("always", "initial_only", "per_query_coin"):
            raise InvalidParamsError(f"unknown persistence {persistence!r}")
        super().__init__(controlled, seed)
        self.persistence = persistence
        self.name = f"random-{persistence.replace('_', '-')}"

    def initial_response(self, j, honest):
        if self.persistence == "per_query_coin" and self.rng.random() < 0.5:
            return list(honest)
        err = self._nonzero_vector(len(honest))
        q = self.ctx.field.q
        return [(h + e) % q for h, e in zip(honest, err)]

    def match_response(self, j, query, honest):
        if self.persistence == "initial_only":
            return honest
        if self.persistence == "per_query_coin" and self.rng.random() < 0.5:
            return honest
        return (honest + self._nonzero_scalar()) % self.ctx.field.q


def random_corruption(
    controlled: Iterable[int], seed: int = 0, persistence: str = "always"
) -> RandomCorruption:
    return RandomCorruption(controlled, seed, persistence)


class TournamentLiar(AdversaryStrategy):
    """Scripted lying during the dispute search.

    lie_plan selects the script:
      - "consistent": each controlled worker commits to a fake value for one
        assigned sample (the one with the deepest leaf) and answers every
        query from that story, which drags the search through the full tree
        depth before the leaf check exposes it.
      - "inconsistent": corrupt the initial response, then add a fresh random
        error to every match response regardless of earlier commitments.
      - "" (empty): corrupt the initial response only and answer matches
        honestly; the committed initial value is still pinned to a leaf.
      - "a,b,c": per-level actions from {lie, honest} applied to match
        levels 1, 2, ...; levels beyond the list are honest. The initial
        response is corrupted.
    """

    name = "tournament-liar"

    def __init__(self, controlled: Iterable[int], lie_plan: str = "consistent", seed: int = 0):
        super().__init__(controlled, seed)
        self.lie_plan = lie_plan
        self.level_actions: list[str] = []
        if lie_plan not in ("consistent", "inconsistent", ""):
            actions = [tok.strip() for tok in lie_plan.split(",")]
            if any(tok not in ("lie", "honest") for tok in actions):
                raise InvalidParamsError(f"bad lie plan {lie_plan!r}")
            self.level_actions = actions
        self._offsets: dict[int, list[int]] = {}
        self._targets: dict[int, int] = {}

    def bind(self, ctx, a_mat, enc):
        super().bind(ctx, a_mat, enc)
        if self.lie_plan == "consistent":
            depth = leaf_depths(a_mat.p)
            for j in sorted(self.controlled):
                self._targets[j] = max(a_mat.samples_of(j), key=depth.__getitem__)
        # Offsets are drawn lazily once the gradient dimension is known.

    def _offset(self, j: int, d: int) -> list[int]:
        if j not in self._offsets:
            self._offsets[j] = self._nonzero_vector(d)
        return list(self._offsets[j])

    def initial_response(self, j, honest):
        q = self.ctx.field.q
        d = len(honest)
        if self.lie_plan == "consistent":
            target = self._targets[j]
            wij = self.enc.w.at(target, j)
            off = self._offset(j, d)
            return [(h + wij * e) % q for h, e in zip(honest, off)]
        err = self._nonzero_vector(d)
        return [(h + e) % q for h, e in zip(honest, err)]

    def match_response(self, j, query, honest):
        q = self.ctx.field.q
        if self.lie_plan == "consistent":
            target = self._targets[j]
            lo, hi = query.mask
            if lo <= target < hi:
                wij = self.enc.w.at(target, j)
                off = self._offsets[j]
                return (honest + wij * off[query.coordinate]) % q
            return honest
        if self.lie_plan == "inconsistent":
            return (honest + self._nonzero_scalar()) % q
        if self.lie_plan == "":
            return honest
        idx = query.level - 1
        if idx < len(self.level_actions) and self.level_actions[idx] == "lie":
            return (honest + self._nonzero_scalar()) % q
        return honest


def tournament_liar(
    controlled: Iterable[int], lie_plan: str = "consistent", seed: int = 0
) -> TournamentLiar:
    return TournamentLiar(controlled, lie_plan, seed)


def symmetrization_attack(
    ctx: CodeContext,
    decoding: DecodingMatrix,
    controlled: Sequence[int],
    lam: int = 1,
) -> Optional[Matrix]:
    """Error row making every given group decode the same wrong value.

    Solves for a 1 x n error supported on the controlled workers such that
    each group's decoded response shifts by the same nonzero offset lam.
    Returns None when the system is inconsistent, which is guaranteed for
    the full root-plus-satellites grouping with one more group than
    unidentified malicious workers.
    """
    field = ctx.field
    lam %= field.q
    if lam == 0:
        raise InvalidParamsError("corruption offset must be nonzero")
    s_rows = sorted(set(controlled))
    m = len(decoding.groups)
    coeffs = decoding.b.take_rows(s_rows).transpose()  # m x |S|
    rhs = Matrix(field, m, 1, [lam] * m)
    out = solve_linear(coeffs, rhs)
    if out.kind == "inconsistent":
        return None
    err = [0] * ctx.n
    for idx, j in enumerate(s_rows):
        err[j] = out.solution.at(idx, 0)
    return Matrix.row(field, err)


def pick_attack_support(decoding: DecodingMatrix) -> list[int]:
    """One controlled worker per group, preferring each group's satellite."""
    groups = [set(g) for g in decoding.groups]
    if not groups:
        return []
    root = set.intersection(*groups) if len(groups) > 1 else set()
    support = []
    for g in decoding.groups:
        satellites = [j for j in g if j not in root and j not in support]
        if satellites:
            support.append(satellites[0])
        else:
            rest = [j for j in g if j not in support]
            if rest:
                support.append(rest[0])
    return sorted(support)


class SymmetrizationStrategy(AdversaryStrategy):
    """Initial-response attack aiming to make all compared groups agree on a lie.

    Predicts the first-round grouping (the deterministic lowest-index rule),
    verifies that the full grouping admits no common-offset corruption, and
    falls back to attacking all groups but the last one. The corruption hides
    from those groups and surfaces as a contradiction against the final one.
    """

    name = "symmetrization"

    def __init__(self, seed: int = 0, lam: int = 1):
        super().__init__((), seed)
        self.lam = lam
        self.error_row: Optional[Matrix] = None

    def bind(self, ctx, a_mat, enc):
        super().bind(ctx, a_mat, enc)
        plan = form_groups(range(ctx.n), ctx.r, ctx.s)
        partial = build_decoding_matrix(ctx, plan.groups[: ctx.s])
        support = pick_attack_support(partial)
        # Within budget (|support| = s) the full grouping must be unattackable.
        full = build_decoding_matrix(ctx, plan.groups)
        if symmetrization_attack(ctx, full, support, self.lam) is not None:
            raise ProtocolInvariantViolation(
                "full grouping admits a within-budget symmetrization attack"
            )
        self.error_row = symmetrization_attack(ctx, partial, support, self.lam)
        if self.error_row is None:
            raise ProtocolInvariantViolation(
                "attack against one fewer group should always be feasible"
            )
        self.controlled = frozenset(support)

    def initial_response(self, j, honest):
        q = self.ctx.field.q
        e = self.error_row.at(0, j)
        return [(h + e) % q for h in honest]


def symmetrization(seed: int = 0, lam: int = 1) -> SymmetrizationStrategy:
    return SymmetrizationStrategy(seed, lam)
