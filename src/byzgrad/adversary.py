"""Pluggable Byzantine strategies for the simulated workers.

A strategy owns a set of controlled workers and maps each query's honest
value to the transmitted one; everything else passes through untouched.
Policies are deterministic given their seed and the query history, so runs
replay bit-identically.
"""

from __future__ import annotations

import random
from functools import cached_property
from operator import mul
from typing import Iterable, Optional, Sequence

from .assignment import AssignmentMatrix
from .coding import CodeContext, EncodingMatrix, combining_vector
from .errors import InvalidParamsError, ProtocolInvariantViolation
from .field import draw_below
from .protocol import Query, form_groups, leaf_depths

# Not used here: perfbench/tracing.py wraps solve_linear at its adversary name.
from .linalg import solve_linear  # noqa: F401


class AdversaryStrategy:
    """Base policy: honest behaviour, and the code and rng that subclasses use."""

    def __init__(self, controlled: Iterable[int] = (), seed: int = 0):
        self.controlled = frozenset(controlled)
        self.seed = seed
        self.ctx: Optional[CodeContext] = None
        self.enc: Optional[EncodingMatrix] = None

    @cached_property
    def rng(self) -> random.Random:
        """Seeded on first use, so a policy that draws nothing hashes no seed string."""
        return random.Random(f"{self.seed}:adversary")

    def bind(self, ctx: CodeContext, a_mat: AssignmentMatrix, enc: EncodingMatrix) -> None:
        """Called once before the initial responses; the code is public."""
        self.ctx = ctx
        self.enc = enc

    def initial_response(self, j: int, honest: Sequence[int]) -> list[int]:
        return list(honest)

    def match_response(self, j: int, query: Query, honest: int) -> int:
        return honest

    # helpers shared by subclasses

    def _nonzero_vector(self, d: int) -> list[int]:
        q = self.ctx.q
        while True:
            v = draw_below(self.rng, q, d)
            if any(v):
                return v

    def _nonzero_scalar(self) -> int:
        """rng.randrange(1, q): one draw below q-1, shifted up by one."""
        return 1 + draw_below(self.rng, self.ctx.q - 1, 1)[0]


_PERSISTENCES = ("always", "initial_only", "per_query_coin")

# Lie plans besides per-level scripts, each with the RandomCorruption
# persistence it runs; "consistent" is the TournamentLiar story.
LIE_PLANS = {"consistent": None, "inconsistent": "always", "": "initial_only"}


def _lie_levels(script: str) -> Optional[frozenset[int]]:
    """Match levels a per-level script like "lie,honest" marks lie, or None if malformed."""
    actions = [tok.strip() for tok in script.split(",")]
    if any(tok not in ("lie", "honest") for tok in actions):
        return None
    return frozenset(level for level, tok in enumerate(actions, 1) if tok == "lie")


def lie_plan_persistence(lie_plan: str) -> Optional[str]:
    """The RandomCorruption persistence a lie plan runs; None for "consistent"."""
    if lie_plan in LIE_PLANS:
        return LIE_PLANS[lie_plan]
    if _lie_levels(lie_plan) is None:
        raise InvalidParamsError(f"bad lie plan {lie_plan!r}")
    return lie_plan


class RandomCorruption(AdversaryStrategy):
    """Adds uniformly random nonzero errors according to a persistence policy.

    persistence: "always" corrupts every response, "initial_only" corrupts
    only the first transmission, "per_query_coin" flips a fair coin per
    worker per query, and a per-level script "a,b,c" of {lie, honest}
    corrupts the first transmission and the match levels 1, 2, ... it marks
    lie; levels beyond the script are answered honestly.
    """

    def __init__(self, controlled: Iterable[int], seed: int = 0, persistence: str = "always"):
        self.lie_levels = None if persistence in _PERSISTENCES else _lie_levels(persistence)
        if persistence not in _PERSISTENCES and self.lie_levels is None:
            raise InvalidParamsError(f"unknown persistence {persistence!r}")
        super().__init__(controlled, seed)
        self.persistence = persistence

    def initial_response(self, j, honest):
        if self.persistence == "per_query_coin" and self.rng.random() < 0.5:
            return list(honest)
        err = self._nonzero_vector(len(honest))
        q = self.ctx.q
        return [(h + e) % q for h, e in zip(honest, err)]

    def match_response(self, j, query, honest):
        if self.persistence == "initial_only":
            return honest
        if self.persistence == "per_query_coin" and self.rng.random() < 0.5:
            return honest
        if self.lie_levels is not None and query.level not in self.lie_levels:
            return honest
        return (honest + self._nonzero_scalar()) % self.ctx.q


class TournamentLiar(AdversaryStrategy):
    """Consistent lying during the dispute search.

    Each controlled worker commits to a fake value for one assigned sample
    (the one with the deepest leaf) and answers every query from that story,
    which drags the search through the full tree depth before the leaf check
    exposes it.
    """

    def __init__(self, controlled: Iterable[int], *, seed: int = 0):
        super().__init__(controlled, seed)
        self._offsets: dict[int, list[int]] = {}
        self._targets: dict[int, int] = {}

    def bind(self, ctx, a_mat, enc):
        super().bind(ctx, a_mat, enc)
        depth = leaf_depths(a_mat.p)
        for j in sorted(self.controlled):
            self._targets[j] = max(a_mat.samples_of(j), key=depth.__getitem__)

    def initial_response(self, j, honest):
        # Offsets are drawn lazily once the gradient dimension is known.
        if j not in self._offsets:
            self._offsets[j] = self._nonzero_vector(len(honest))
        q = self.ctx.q
        wij = self.enc.w[self._targets[j]][j]
        return [(h + wij * e) % q for h, e in zip(honest, self._offsets[j])]

    def match_response(self, j, query, honest):
        target = self._targets[j]
        lo, hi = query.mask
        if lo <= target < hi:
            wij = self.enc.w[target][j]
            return (honest + wij * self._offsets[j][query.coordinate]) % self.ctx.q
        return honest


def tournament_liar(
    controlled: Iterable[int], lie_plan: str = "consistent", seed: int = 0
) -> AdversaryStrategy:
    """The consistent story, or the random corruption any other lie plan runs."""
    persistence = lie_plan_persistence(lie_plan)
    if persistence is None:
        return TournamentLiar(controlled, seed=seed)
    return RandomCorruption(controlled, seed, persistence)


def pick_attack_support(groups: Sequence[Sequence[int]]) -> list[int]:
    """One controlled worker per group, preferring each group's satellite.

    A lone group has an empty root, so its first member is picked.
    """
    root = set(groups[0]).intersection(*groups[1:]) if len(groups) > 1 else set()
    support: list[int] = []
    for g in groups:
        rest = [j for j in g if j not in support]
        pick = [j for j in rest if j not in root] or rest
        if pick:
            support.append(pick[0])
    return sorted(support)


class SymmetrizationStrategy(AdversaryStrategy):
    """Initial-response attack aiming to make all compared groups agree on a lie.

    Predicts the first-round grouping (the deterministic lowest-index rule)
    and attacks all groups but the last: b_k . e = 1 for each one's combining
    vector b_k. Each holds one support worker j_k, so e[j_k] = 1 / b_k[j_k]
    is unique, and the full grouping must not read b . e = 1 too. The
    corruption surfaces as a contradiction against the final group.
    """

    def __init__(self, seed: int = 0):
        super().__init__((), seed)
        self.error: Optional[list[int]] = None

    def bind(self, ctx, a_mat, enc):
        super().bind(ctx, a_mat, enc)
        q = ctx.q
        groups = form_groups(range(ctx.n), ctx.r, ctx.s)
        support = pick_attack_support(groups[: ctx.s])
        error = [0] * ctx.n
        for g in groups[: ctx.s]:
            b = combining_vector(ctx, g)
            held = [j for j in support if b[j]]
            if len(held) != 1:
                raise ProtocolInvariantViolation(
                    "attack against one fewer group should always be feasible"
                )
            error[held[0]] = pow(b[held[0]], -1, q)
        # Within budget (|support| = s) the full grouping must be unattackable.
        if sum(map(mul, combining_vector(ctx, groups[-1]), error)) % q == 1:
            raise ProtocolInvariantViolation(
                "full grouping admits a within-budget symmetrization attack"
            )
        self.error = error
        self.controlled = frozenset(support)

    def initial_response(self, j, honest):
        q = self.ctx.q
        e = self.error[j]
        return [(h + e) % q for h in honest]
