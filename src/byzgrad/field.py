"""The prime modulus of the field F_q.

There is no field object: the modulus is a plain int q, which is_prime
checks, and elements are plain Python ints in [0, q). All arithmetic is
exact modular integer arithmetic, done inline by its callers with the
modulus they hold, never floating point.
"""

from __future__ import annotations

import random
import struct
import sys
from functools import lru_cache
from math import ceil, log

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


# Below this many draws the per-call loop is the faster one.
_BULK_DRAWS = 64
# A bulk draw reads its 32-bit words through a memoryview in native order.
_WORDS_READ_NATIVELY = sys.byteorder == "little" and struct.calcsize("I") == 4
_REJECTED = b"\xff" * 4


def draw_below(rng: random.Random, q: int, count: int) -> list[int]:
    """count draws of rng.randrange(q), the same values from the same rng state.

    randrange(q) takes getrandbits(k), k = q.bit_length(), until the draw
    is below q. For k <= 32 each getrandbits(k) is the top k bits of one
    32-bit Mersenne Twister word, and getrandbits(32 * m) packs the next m
    words, the first lowest. So for k <= 31 and at least _BULK_DRAWS draws,
    one call draws a batch of words: a shift and a per-word mask leave each
    word's top k bits in its lane, and adding 2**k - q to every lane carries
    into bit k exactly in the lanes at or above q. Those lanes are set to
    all ones and cut out of the batch's bytes: a kept lane is below 2**31,
    so its top byte is not 0xff, and every run of four 0xff bytes found
    starts a lane. The next batch draws as many words as are still missing,
    and the loop below draws the last ones once fewer than _BULK_DRAWS are.
    So the words consumed are the loop's, no more, in the same order.
    """
    k = q.bit_length()
    out: list[int] = []
    if count >= _BULK_DRAWS and k <= 31 and _WORDS_READ_NATIVELY:
        drop, excess = 32 - k, (1 << k) - q
        while count >= _BULK_DRAWS:
            ones = int.from_bytes(b"\x01\x00\x00\x00" * count, "little")  # 1 in every lane
            words = rng.getrandbits(32 * count) >> drop & (ones << k) - ones
            rejected = (words + excess * ones) >> k & ones
            if rejected:
                words |= rejected * 0xFFFFFFFF
            raw = words.to_bytes(4 * count, "little").replace(_REJECTED, b"")
            kept = memoryview(raw).cast("I").tolist()
            out += kept
            count -= len(kept)
    getrandbits = rng.getrandbits
    for _ in range(count):
        v = getrandbits(k)
        while v >= q:
            v = getrandbits(k)
        out.append(v)
    return out


def draw_samples(rng: random.Random, n: int, k: int, count: int) -> list[list[int]]:
    """count successive rng.sample(range(n), k), the same lists from the same rng state.

    CPython's sample draws each index with _randbelow(m), which takes
    getrandbits(m.bit_length()) until the value is below m. While a list of
    n is smaller than a set of k (n <= setsize) it walks a pool: it draws
    below n - i, takes that pool entry and moves the pool's last live entry
    into its place. That branch runs here with getrandbits called directly,
    in sample's order and with its widths, so the words consumed are
    sample's, no more; above setsize this calls sample itself.
    tests/test_field.py pins this against rng.sample, so an interpreter
    whose sample draws otherwise fails there.
    """
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    setsize = 21  # sample's own choice between its branches
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    if n > setsize:
        return [rng.sample(range(n), k) for _ in range(count)]
    getrandbits = rng.getrandbits
    widths = [m.bit_length() for m in range(n, n - k, -1)]
    out = []
    for _ in range(count):
        pool, picked, m = list(range(n)), [], n
        for width in widths:
            j = getrandbits(width)
            while j >= m:
                j = getrandbits(width)
            picked.append(pool[j])
            m -= 1
            pool[j] = pool[m]
        out.append(picked)
    return out
