"""The prime modulus of the field F_q.

Elements are plain Python ints in [0, q); the field object carries the shared
modulus, checked prime. All arithmetic is exact modular integer arithmetic,
done inline by its callers, never floating point.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .errors import InvalidParamsError

# Mersenne prime; large enough that any desk-scale n, p stay below it.
DEFAULT_MODULUS = 2**31 - 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24; memoised per n."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def draw_below(rng: random.Random, q: int, count: int) -> list[int]:
    """count draws of rng.randrange(q), the same values from the same rng state.

    randrange(q) takes getrandbits(q.bit_length()) until the draw is below q;
    this is that loop without randrange's per-call argument handling.
    """
    k = q.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        v = getrandbits(k)
        while v >= q:
            v = getrandbits(k)
        out.append(v)
    return out


class PrimeField:
    """The field F_q for prime q; its elements are int residues modulo q."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not is_prime(q):
            raise InvalidParamsError(f"modulus must be prime, got {q}")
        self.q = q

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and self.q == other.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"
