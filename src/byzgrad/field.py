"""The prime modulus of the field F_q.

There is no field object: the modulus is a plain int q, which is_prime
checks, and elements are plain Python ints in [0, q). All arithmetic is
exact modular integer arithmetic, done inline by its callers with the
modulus they hold, never floating point.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .errors import InvalidParamsError

# Mersenne prime; large enough that any desk-scale n, p stay below it.
DEFAULT_MODULUS = 2**31 - 1

# Miller-Rabin to the prime bases 2..41 is exact below psi_13, the least odd
# composite that is a strong pseudoprime to all thirteen of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < psi_13 (about 3.3e24); memoised per n.

    Raises InvalidParamsError for n >= psi_13, which these bases cannot decide.
    """
    if n >= _MR_BOUND:
        raise InvalidParamsError(f"primality is decided only below {_MR_BOUND}, got {n}")
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
