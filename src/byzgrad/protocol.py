"""Main-node state machine: grouping, comparison, dispute resolution.

One run proceeds as follows. Every worker first transmits its coded
all-one response. While more unidentified malicious workers remain than the
code's residual error-correction capability (u-1), the main node forms
s_t + 1 groups of r+1 workers sharing an r-worker root and decodes each
group's claimed full gradient from the initial responses. If all groups
agree the value is correct and the run ends. Otherwise two disagreeing
groups play a match: a binary search over sums of sample intervals, one
field symbol per competing worker per level, that corners the dispute into
a single sample. Computing that sample locally exposes at least one
provably lying worker, which is eliminated. Once at most u-1 malicious
workers remain, the gradient is decoded directly with errors-and-erasures.

All bookkeeping uses 0-based indices; transcript events are 1-based.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .assignment import AssignmentMatrix
from .coding import (
    CodeContext,
    EncodingMatrix,
    build_encoding_matrix,
    combining_vector,
    ecc_decode,
    pack,
    response_matrix,
    sample_row,
    unpack,
)
from .errors import (
    AdversaryBudgetExceededError,
    DecodeFailureError,
    DimensionError,
    InfeasibleStateError,
    ProtocolInvariantViolation,
)

# Not used here: perfbench/tracing.py wraps worker_response at its protocol name.
from .coding import worker_response  # noqa: F401


# ---------------------------------------------------------------------------
# Match intervals


def split(lo: int, hi: int) -> int:
    """Where the sample interval [lo, hi) halves; the first half is the larger."""
    return lo + (hi - lo + 1) // 2


@lru_cache(maxsize=64)
def leaf_depths(p: int) -> tuple[int, ...]:
    """How many halvings isolate each of p samples, as a shared tuple."""
    if p < 1:
        raise ValueError("need at least one sample")
    depths = [0] * p
    stack = [(0, p, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        if hi - lo == 1:
            depths[lo] = depth
        else:
            mid = split(lo, hi)
            stack += ((lo, mid, depth + 1), (mid, hi, depth + 1))
    return tuple(depths)


# ---------------------------------------------------------------------------
# Grouping and contradiction detection


def form_groups(
    active: Sequence[int], r: int, s_t: int, order: Sequence[int] | None = None
) -> tuple[tuple[int, ...], ...]:
    """Pick r root workers plus s_t + 1 satellites from the active set.

    Returns the groups: group k is the root together with satellite k, so
    any two groups overlap in exactly the root. By default the lowest-index
    active workers are used; an explicit order exercises other choices and
    must name distinct active workers.
    """
    if order is None:
        pool = sorted(active)
    else:
        pool = list(order)
        if len(set(pool)) != len(pool) or not set(pool) <= set(active):
            raise InfeasibleStateError(f"group order {pool} must name distinct active workers")
    need = r + s_t + 1
    if len(pool) < need:
        raise InfeasibleStateError(
            f"need {need} active workers to form groups, have {len(pool)}"
        )
    root = tuple(pool[:r])
    return tuple(tuple(sorted(root + (sat,))) for sat in pool[r : r + s_t + 1])


def detect_contradiction(responses: Sequence[Sequence[int]]) -> tuple[int, int] | None:
    """None if all group responses match; else (k, coordinate) for group 0 against group k.

    k is the first group that differs from group 0 and coordinate the first
    position where they differ. (0, k) is the lexicographically first
    differing pair: were every group equal to group 0, all would agree. So
    one scan against group 0 finds it.
    """
    if not responses:
        raise ValueError("need at least one group response")
    first = responses[0]
    for k, other in enumerate(responses[1:], 1):
        for coord, (x, y) in enumerate(zip(first, other)):
            if x != y:
                return k, coord
    return None


def pack_responses(ctx: CodeContext, cols: Sequence[Sequence[int]]) -> list[int]:
    """Each worker's d responses, cols[j] for worker j, as one int of lanes.

    Worker j's int holds cols[j][0] in its top lane, for group_response.
    """
    width = ctx.response_lanes
    return [pack(col, width) for col in cols]


def group_response(
    ctx: CodeContext, packed: Sequence[int], b: Sequence[int], d: int
) -> list[int]:
    """Decode one group's claim, d symbols, from the responses and the combining vector.

    packed[j] holds worker j's d symbols (pack_responses), so one dot product
    with b, an element of [0, q) per worker, puts each coordinate's claim in
    its own lane.
    """
    n = ctx.n
    if len(b) != n or len(packed) != n:
        raise DimensionError(f"need {n} responses and coefficients, got {len(packed)}, {len(b)}")
    return unpack(sum(map(mul, packed, b)), ctx.response_lanes, d, ctx.q)


# ---------------------------------------------------------------------------
# Transcript


class Transcript:
    """Ordered event log plus the run totals used as figures of merit.

    Each event is a dict whose first key, "event", names it; the engine
    appends them, and the key order is the order a transcript file writes.
    """

    def __init__(self):
        self.events: list[dict] = []
        self.local_computations = 0
        self.comm_overhead = 0
        self.downlink_bits = 0
        self.rounds = 0


# ---------------------------------------------------------------------------
# Queries seen by the adversary


class Query(NamedTuple):
    """A match query of the main node; the adversary sees these in causal order."""

    level: int
    mask: tuple[int, int]  # 0-based inclusive-exclusive sample interval
    coordinate: int


@dataclass
class ProtocolResult:
    gradient: list[int]
    transcript: Transcript
    eliminated: tuple[int, ...]
    outcome: str


# ---------------------------------------------------------------------------
# Worker answers


@lru_cache(maxsize=256)
def _all_one_encoding(ctx: CodeContext, a_mat: AssignmentMatrix) -> EncodingMatrix:
    """W of the code and assignment: fixed by both, so equal pairs share one build."""
    return build_encoding_matrix(ctx, a_mat)


class SimulatedResponder:
    """Worker answers of a simulated run: honest values through the adversary.

    The gradients are d rows of p. truth(i), the main node's local
    computation of sample i, is column i of the gradients reduced mod q.
    Honest match answers for coordinate c come from one packed prefix P,
    built the first time the run disputes c: P[k] sums (G[c][i] mod q)
    times sample i's packed row of W (EncodingMatrix.sample_lanes) over
    samples i < k, so lane j of P[hi] - P[lo] is worker j's answer before
    its reduction mod q. No lane ever decreases as k grows, so the
    difference borrows nothing, and every later level and round costs one
    subtraction and, in one loop over the competing workers, a lane read
    per worker, with the adversary's answer in place of a controlled
    worker's. Each worker's lane shift is computed with the run's first
    prefix, so a run that never plays a match computes none. bind()
    starts a run and drops the previous run's prefixes: they hold at most
    d·(p+1) packed ints, in practice only those of the disputed
    coordinates. The workers' encoding W is the responder's alone: the
    all-one encoding of the code and assignment it is bound to, built once
    per pair. An adversary reads the rows it needs from coding.sample_row.
    """

    def __init__(self, gradients: Sequence[Sequence[int]], adversary):
        self.gradients = gradients
        self.adversary = adversary
        self.d = len(gradients)

    def bind(self, ctx: CodeContext, a_mat: AssignmentMatrix) -> None:
        if any(len(row) != a_mat.p for row in self.gradients):
            raise InfeasibleStateError("assignment and gradients disagree on shape")
        self.ctx, self.q, self.enc = ctx, ctx.q, _all_one_encoding(ctx, a_mat)
        self._prefix: dict[int, list[int]] = {}
        self.adversary.bind(ctx, a_mat)

    def initial(self) -> list[list[int]]:
        """Every worker's coded d-vector, as one list per worker."""
        adversary, q = self.adversary, self.q
        z = response_matrix(self.ctx, self.gradients, self.enc)
        cols: list[list[int]] = []
        for j, column in enumerate(zip(*z)):
            honest = list(column)
            if j in adversary.controlled:
                sent = [v % q for v in adversary.initial_response(j, honest)]
                # Zipping the columns into rows would hide a short or long column.
                if len(sent) != self.d:
                    raise ProtocolInvariantViolation(
                        f"worker {j + 1} sent {len(sent)} symbols, expected d={self.d}"
                    )
                cols.append(sent)
            else:
                cols.append(honest)
        return cols

    def match(self, query: Query, workers: Sequence[int]) -> list[int]:
        """One field symbol per competing worker, in the order of workers: its share of the interval."""
        adversary, q = self.adversary, self.q
        lo, hi = query.mask
        c = query.coordinate
        sums = self._prefix.get(c)
        if sums is None:
            width, rows = self.enc.sample_lanes
            if not self._prefix:
                # Worker j's lane sits shift * (n-1-j) bits up.
                shift = 8 * width
                self._lanes = (1 << shift) - 1, list(range(shift * (self.ctx.n - 1), -1, -shift))
            grow = [g % q for g in self.gradients[c]]
            sums = self._prefix[c] = [0, *accumulate(map(mul, grow, rows))]
        mask, shifts = self._lanes
        diff = sums[hi] - sums[lo]
        controlled = adversary.controlled
        out = []
        for j in workers:
            v = (diff >> shifts[j] & mask) % q
            if j in controlled:
                v = adversary.match_response(j, query, v) % q
            out.append(v)
        return out

    def truth(self, i: int) -> list[int]:
        q = self.q
        return [row[i] % q for row in self.gradients]


def local_compute(responder, i: int) -> list[int]:
    """The main node's own computation of sample i's gradient."""
    return responder.truth(i)


# ---------------------------------------------------------------------------
# Protocol engine


# The start event's fields, in order, that ProtocolRun writes itself; meta labels follow
# them. Replay passes every other start field back as a label.
START_FIELDS = ("event", "n", "s", "u", "r", "p", "d", "q", "eval_points", "grouping")


class ProtocolRun:
    """The main node's state machine, fed worker answers by a responder.

    A responder has bind(ctx, a_mat), initial(), match(query, workers) (a
    list in the order of workers), truth(i) and the gradient dimension d:
    SimulatedResponder, or the answers a transcript recorded when it is
    replayed. Groups come from the lowest-index active workers, or from
    grouping_rng's shuffle when given. The main node holds no encoding
    matrix: its one use of W, the leaf check, reads the leaf's row from
    the closed form (coding.sample_row, cached per code and column), so
    the assignment must be regular with replication s+u.
    """

    def __init__(
        self,
        ctx: CodeContext,
        a_mat: AssignmentMatrix,
        responder,
        *,
        grouping_rng: Optional[random.Random] = None,
        meta: Optional[dict] = None,
    ):
        if a_mat.n != ctx.n:
            raise InfeasibleStateError("code and assignment disagree on shape")
        if a_mat.p < 1:
            raise ValueError("need at least one sample")
        if responder.d < 1:
            raise ValueError("need at least one gradient coordinate")
        self.ctx = ctx
        self.a_mat = a_mat
        self.responder = responder
        self.grouping_rng = grouping_rng
        self.transcript = Transcript()
        self.active = list(range(ctx.n))
        self.eliminated: list[int] = []
        start = {
            "event": "start", "n": ctx.n, "s": ctx.s, "u": ctx.u, "r": ctx.r, "p": a_mat.p,
            "d": responder.d, "q": ctx.q, "eval_points": list(ctx.eval_points),
            "grouping": "lowest" if grouping_rng is None else "shuffled",
        }
        if meta:
            if not meta.keys().isdisjoint(START_FIELDS):
                fields = list(START_FIELDS)
                raise ValueError(f"meta may not reuse the start event's fields {fields}")
            start.update(meta)
        self.transcript.events.append(start)

    # -- queries ------------------------------------------------------------

    def _transmit_initial(self) -> list[list[int]]:
        """The all-one responses as the transcript records them: d symbols per worker."""
        n, p = self.ctx.n, self.a_mat.p
        cols = self.responder.initial()
        workers = list(range(1, n + 1))
        self.transcript.events += (
            {"event": "query", "t": 1, "kind": "initial", "mask": [1, p], "coordinate": None,
             "workers": workers},
            {"event": "response_set", "t": 1, "kind": "initial", "workers": workers,
             "values": cols},
        )
        return cols

    # -- tournament ---------------------------------------------------------

    def run_match(
        self,
        t: int,
        groups: Sequence[Sequence[int]],
        conflict: tuple[int, int],
        initial: Sequence[Sequence[int]],
        group_claims: Sequence[Sequence[int]],
        vectors: Sequence[Sequence[int]],
    ) -> tuple[int, ...]:
        """Binary-search the dispute between groups 0 and k down to one sample.

        conflict is detect_contradiction's (k, coordinate). Every level
        halves the current interval [lo, hi) and queries its first half; the
        unqueried half's per-worker commitment follows by subtracting from
        the parent commitment. At the leaf each worker's committed symbol is
        checked against truth times its known coefficient, which is a proof
        of deviation whenever it fails. Returns the workers proven to lie.
        Commitments and both groups' combining vectors (vectors, the
        round's) are lists over the union of the two groups, a vector being
        0 at the other group's satellite, so a level's two claims are two
        dot products. Each level is one query: every competing worker sends
        one field symbol, in the order of union, and the transcript records
        their 1-based ids.
        """
        q = self.ctx.q
        tr, match = self.transcript, self.responder.match
        events = tr.events
        k, coord = conflict
        union = sorted(set(groups[0]) | set(groups[k]))
        ids = [j + 1 for j in union]
        b1 = [vectors[0][j] for j in union]
        b2 = [vectors[k][j] for j in union]
        # Per-worker commitments for the current interval, seeded by the initial
        # responses at the disputed coordinate.
        commit = [initial[j][coord] for j in union]
        label1 = group_claims[0][coord]
        label2 = group_claims[k][coord]
        if label1 == label2:
            raise ProtocolInvariantViolation("match started without a dispute")
        lo, hi = 0, self.a_mat.p
        levels = 0
        while hi - lo > 1:
            levels += 1
            mid = split(lo, hi)
            resp = match(Query(levels, (lo, mid), coord), union)
            tr.comm_overhead += len(union)
            tr.downlink_bits += 1
            workers = ids[:]  # a copy per level, so no two levels' events share a list
            events += (
                {"event": "query", "t": t, "kind": "match", "level": levels,
                 "mask": [lo + 1, mid], "coordinate": coord + 1, "workers": workers},
                {"event": "response_set", "t": t, "kind": "match", "level": levels,
                 "workers": workers, "values": resp},
            )
            lc1 = sum(map(mul, resp, b1)) % q
            lc2 = sum(map(mul, resp, b2)) % q
            rc1 = (label1 - lc1) % q
            rc2 = (label2 - lc2) % q
            if lc1 != lc2:
                descend = "left"
                commit = resp
                label1, label2 = lc1, lc2
                nxt = lo, mid
            else:
                if rc1 == rc2:
                    raise ProtocolInvariantViolation(
                        "groups agree on both children of a disputed node"
                    )
                descend = "right"
                commit = [(c - v) % q for c, v in zip(commit, resp)]
                label1, label2 = rc1, rc2
                nxt = mid, hi
            events.append({
                "event": "match_level", "t": t, "level": levels, "node": [lo + 1, hi],
                "queried": [lo + 1, mid], "left_claims": [lc1, lc2], "right_claims": [rc1, rc2],
                "descend": descend,
            })
            lo, hi = nxt
        leaf = lo
        truth_vec = local_compute(self.responder, leaf)
        tr.local_computations += 1
        events.append({"event": "local_compute", "t": t, "sample": leaf + 1, "value": truth_vec})
        truth = truth_vec[coord]
        column = tuple([row[leaf] for row in self.a_mat.bits])
        w_leaf = sample_row(self.ctx, column)
        malicious = []
        for j, committed in zip(union, commit):
            wij = w_leaf[j]
            if column[j] and wij == 0:
                raise ProtocolInvariantViolation(
                    f"assigned worker {j + 1} has zero coefficient for sample {leaf + 1}"
                )
            if committed != truth * wij % q:
                malicious.append(j)
        if not malicious:
            raise ProtocolInvariantViolation("match reached a leaf but found no liar")
        events.append({
            "event": "elimination", "t": t, "leaf": leaf + 1,
            "claims": [[i, committed] for i, committed in zip(ids, commit)],
            "truth_coordinate": truth, "workers": [j + 1 for j in malicious],
        })
        return tuple(malicious)

    # -- main loop ----------------------------------------------------------

    def run(self) -> ProtocolResult:
        ctx, tr = self.ctx, self.transcript
        events = tr.events
        self.responder.bind(ctx, self.a_mat)
        initial = self._transmit_initial()
        packed = None  # the responses in lanes, packed when the first round starts
        d = self.responder.d
        t = 1
        while True:
            s_t = ctx.s - len(self.eliminated)
            if s_t < 0:
                raise AdversaryBudgetExceededError(
                    "more workers eliminated than the declared budget"
                )
            if s_t <= ctx.u - 1:
                try:
                    gradient = ecc_decode(ctx, list(zip(*initial)), self.eliminated)
                except DecodeFailureError as e:
                    raise AdversaryBudgetExceededError(
                        "errors-and-erasures decoding failed; corruption exceeds budget"
                    ) from e
                events.append({
                    "event": "ecc_decode", "identified": [j + 1 for j in sorted(self.eliminated)],
                    "gradient": gradient,
                })
                return self._finish("ecc", gradient)
            order = None
            if self.grouping_rng is not None:
                order = list(self.active)
                self.grouping_rng.shuffle(order)
            groups = form_groups(self.active, ctx.r, s_t, order)
            if packed is None:
                packed = pack_responses(ctx, initial)
            vectors = [combining_vector(ctx, g) for g in groups]
            claims = [group_response(ctx, packed, b, d) for b in vectors]
            tr.rounds += 1
            events.append({
                "event": "decode", "t": t, "groups": [[j + 1 for j in g] for g in groups],
                "values": claims,
            })
            conflict = detect_contradiction(claims)
            if conflict is None:
                events.append({"event": "agreement", "t": t, "value": list(claims[0])})
                return self._finish("agreement", list(claims[0]))
            k, coord = conflict
            events.append(
                {"event": "conflict", "t": t, "first": 1, "second": k + 1, "coordinate": coord + 1}
            )
            for j in self.run_match(t, groups, conflict, initial, claims, vectors):
                self.active.remove(j)
                self.eliminated.append(j)
            t += 1

    def _finish(self, outcome: str, gradient: list[int]) -> ProtocolResult:
        tr = self.transcript
        tr.events.append({
            "event": "final", "outcome": outcome, "gradient": gradient,
            "local_computations": tr.local_computations, "comm_overhead": tr.comm_overhead,
            "rounds": tr.rounds, "downlink_bits": tr.downlink_bits,
            "eliminated": [j + 1 for j in self.eliminated],
        })
        return ProtocolResult(gradient, tr, tuple(self.eliminated), outcome)


def run_protocol(
    ctx: CodeContext,
    a_mat: AssignmentMatrix,
    gradients: Sequence[Sequence[int]],
    adversary,
    *,
    grouping_rng: Optional[random.Random] = None,
    meta: Optional[dict] = None,
) -> ProtocolResult:
    """Run one full protocol instance and return gradient plus transcript."""
    run = ProtocolRun(
        ctx, a_mat, SimulatedResponder(gradients, adversary),
        grouping_rng=grouping_rng, meta=meta,
    )
    return run.run()
