"""Regular data-assignment matrices: which worker holds which sample.

An assignment is an n x p binary matrix with every column summing to exactly
rho (each sample replicated rho times) and every row summing to at least 1
(no idle worker). Workers and samples are 0-indexed in memory; logs and the
text format are 1-indexed. A row is held as bytes, one 0 or 1 per sample, so
reading it from text, summing it and hashing it run in C; code that reads
rows needs only indexing and iteration, which give ints as a tuple would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress

from .errors import InvalidParamsError
from .field import draw_samples


@dataclass(frozen=True)
class AssignmentMatrix:
    """n workers' rows over p samples, one bytes row per worker.

    The hash is the one the frozen dataclass generates: each bytes row
    caches its own, so after the first lookup hashing costs n cached reads.
    """

    n: int
    p: int
    bits: tuple[bytes, ...]  # bits[j][i] == 1 iff sample i is on worker j

    def samples_of(self, j: int) -> list[int]:
        return list(compress(range(self.p), self.bits[j]))


def validate_regular(a: AssignmentMatrix, rho: int) -> bool:
    """True iff every column sums to rho and every row sums to >= 1.

    Each row of 0/1 bits is read as one integer with a lane per sample,
    wide enough for a column sum of up to n, so the rows add up column by
    column with no carry: every column sums to rho iff the total is rho
    times the all-one row. A row sums to at least 1 iff any bit is set.
    With no rows every column sums to 0, which is decided apart.
    """
    bits = a.bits
    if any(len(row) != a.p for row in bits) or len(bits) != a.n:
        return False
    if not bits:
        return a.p == 0 or rho == 0
    width = (a.n.bit_length() + 7) // 8
    lanes = bytearray(width * a.p)
    total = 0
    for row in bits:
        lanes[::width] = row
        total += int.from_bytes(lanes, "little")
    lanes[::width] = b"\x01" * a.p
    return total == rho * int.from_bytes(lanes, "little") and all(map(any, bits))


def assignment_feasible(kind: str, n: int, p: int, rho: int) -> tuple[bool, str]:
    """Whether a regular assignment of this kind exists, and if not, why.

    Each generator below raises InvalidParamsError with this reason. The
    rule is exact: a cyclic worker j >= p holds a sample only if its window
    of rho wraps past n, and the n/rho fractional groups each need a sample
    of their own, which rho*p >= n already gives when rho divides n.
    """
    if not (1 <= rho <= n) or p < 1:
        return False, f"need 1 <= rho <= n and p >= 1, got n={n}, p={p}, rho={rho}"
    if rho * p < n:
        return False, "rho*p < n leaves some worker idle"
    if kind == "cyclic" and p + rho - 1 < n:
        return False, "cyclic layout leaves some worker idle"
    if kind == "fractional" and n % rho != 0:
        return False, "fractional needs rho | n"
    return True, ""


def _require_feasible(kind: str, n: int, p: int, rho: int) -> None:
    ok, reason = assignment_feasible(kind, n, p, rho)
    if not ok:
        raise InvalidParamsError(reason)


def make_cyclic(n: int, p: int, rho: int) -> AssignmentMatrix:
    """Cyclic repetition: worker j holds the samples i with (i - j) mod n < rho.

    Reproduces the usual staircase layout; with n = p = rho it degenerates to
    the all-one matrix. Byte k of the tiled period is 1 iff k mod n < rho,
    so worker j's row is the slice of p bytes from n - j.
    """
    _require_feasible("cyclic", n, p, rho)
    tiled = (b"\x01" * rho + bytes(n - rho)) * (p // n + 2)
    return AssignmentMatrix(n, p, tuple(tiled[n - j : n - j + p] for j in range(n)))


def make_fractional(n: int, p: int, rho: int) -> AssignmentMatrix:
    """Fractional repetition: n/rho worker groups, each holding one sample slice.

    When p is not divisible by the group count, remainder samples go to the
    first groups, keeping slice sizes within 1 of each other.
    """
    _require_feasible("fractional", n, p, rho)
    groups = n // rho
    base, extra = divmod(p, groups)
    rows = []
    for g in range(groups):
        start, size = g * base + min(g, extra), base + (g < extra)
        rows += [bytes(start) + b"\x01" * size + bytes(p - start - size)] * rho
    return AssignmentMatrix(n, p, tuple(rows))


def make_random_regular(n: int, p: int, rho: int, seed: int) -> AssignmentMatrix:
    """Seeded random member of the regular family.

    Columns are sampled independently (rho workers each). Each row idle after
    the draw, lowest first, then takes one sample from a worker holding at
    least two: rho*p >= n ones in at most n-1 rows leave such a worker, and
    the move never idles it.
    """
    _require_feasible("random", n, p, rho)
    rng = random.Random(seed)
    bits = [bytearray(p) for _ in range(n)]
    for i, holders in enumerate(draw_samples(rng, n, rho, p)):  # rng.sample per column
        for j in holders:
            bits[j][i] = 1
    for j in [j for j, row in enumerate(bits) if not any(row)]:
        candidates = [
            (jj, i) for jj, row in enumerate(bits) if sum(row) >= 2
            for i in compress(range(p), row)
        ]
        jj, i = rng.choice(candidates)
        bits[jj][i] = 0
        bits[j][i] = 1
    return AssignmentMatrix(n, p, tuple(map(bytes, bits)))


# Maps the characters "0" and "1" to the bytes 0 and 1 and back, so a row is one C-level pass.
_BITS = bytes.maketrans(b"01", b"\x00\x01")
_TEXT = bytes.maketrans(b"\x00\x01", b"01")


def assignment_to_text(a: AssignmentMatrix, rho: int) -> str:
    """Plain-text form: header "n p rho", then n rows of p '0'/'1' characters."""
    lines = [f"{a.n} {a.p} {rho}"]
    lines.extend(bytes(row).translate(_TEXT).decode() for row in a.bits)
    return "\n".join(lines) + "\n"


def assignment_from_text(text: str) -> tuple[AssignmentMatrix, int]:
    """The matrix and rho that assignment_to_text wrote; the matrix must be regular with rho."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidParamsError("empty assignment text")
    try:
        n, p, rho = map(int, lines[0].split())
    except ValueError as e:
        raise InvalidParamsError(f"bad assignment header: {lines[0]!r}") from e
    if len(lines) != n + 1:
        raise InvalidParamsError(f"expected {n} matrix rows, got {len(lines) - 1}")
    bits = []
    for ln in lines[1:]:
        # An ASCII row holds only 0 and 1 iff deleting them leaves nothing.
        if len(ln) != p or not ln.isascii() or ln.encode().translate(None, b"01"):
            raise InvalidParamsError(f"bad assignment row: {ln!r}")
        bits.append(ln.encode().translate(_BITS))
    a = AssignmentMatrix(n, p, tuple(bits))
    if not validate_regular(a, rho):
        raise InvalidParamsError(f"assignment is not regular with replication {rho}")
    return a, rho
