import random
from math import ceil, log

import pytest

from byzgrad import field
from byzgrad.coding import build_code_context
from byzgrad.errors import InvalidParamsError
from byzgrad.field import DEFAULT_MODULUS, draw_below, draw_samples, is_prime
from byzgrad.harness import SimulationConfig

from oracles import loop_draw_below, stdlib_samples

# psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to the bases
# 2..37; psi_13 is one to 2..41 as well.
PSI_12 = 318_665_857_834_031_151_167_461
PSI_13 = 3_317_044_064_679_887_385_961_981


def test_modulus_must_be_prime():
    for q in (10, 1):
        with pytest.raises(InvalidParamsError, match=f"modulus must be prime, got {q}"):
            build_code_context(1, 0, 1, q)


def test_default_modulus_is_prime():
    assert DEFAULT_MODULUS == 2**31 - 1
    assert is_prime(DEFAULT_MODULUS)


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)
    assert is_prime(10007)
    assert not is_prime(2**31)


def test_is_prime_is_memoised():
    is_prime.cache_clear()
    assert is_prime(DEFAULT_MODULUS)
    assert is_prime(DEFAULT_MODULUS)
    build_code_context(3, 1, 1)
    info = is_prime.cache_info()
    assert (info.hits, info.misses) == (2, 1)


def test_strong_pseudoprime_to_bases_up_to_37_is_composite():
    assert 399_165_290_221 * 798_330_580_441 == PSI_12
    assert not is_prime(PSI_12)
    config = SimulationConfig(n=4, s=1, u=1, p=4, q=PSI_12, adversary="tournament-liar")
    with pytest.raises(InvalidParamsError, match="modulus must be prime"):
        config.validate()
    assert is_prime(2**61 - 1)
    assert is_prime(2**64 + 13)


def test_primality_above_the_exact_bound_raises():
    assert not is_prime(PSI_13 - 2)  # divisible by 17, and still decided
    for n in (PSI_13, PSI_13 + 2, 2**89 - 1):
        with pytest.raises(InvalidParamsError, match=f"only below {PSI_13}"):
            is_prime(n)


# 2^31-2 is the adversary's q-1, 2^30+1 rejects about half the words, 13
# about a fifth; 2^32-5 and 2^61-1 are too wide for a bulk draw.
DRAW_MODULI = (2**31 - 1, 2**31 - 2, 2**30 + 1, 13, 2**32 - 5, 2**61 - 1)


@pytest.mark.parametrize("q", DRAW_MODULI, ids=["2^31-1", "2^31-2", "2^30+1", "13", "2^32-5", "2^61-1"])
def test_bulk_draw_equals_the_per_call_loop(q):
    # On both sides of the cutover and far above it, one draw after another
    # from one rng: the same values, and the rng left in the same state.
    cut = field._BULK_DRAWS
    for seed in range(3):
        rng, ref = random.Random(seed), random.Random(seed)
        for count in (cut - 1, cut, cut + 1, 4096, 1):
            assert draw_below(rng, q, count) == loop_draw_below(ref, q, count)
            assert rng.getstate() == ref.getstate()


def test_draw_samples_equals_the_stdlib_sample():
    # The same lists as rng.sample(range(n), k), two in a row, and the same
    # rng state after them. sample walks a pool while n <= setsize and keeps
    # a set of chosen indices above it; every n <= 40 reaches both.
    branches = {"pool": 0, "set": 0}
    for n in range(41):
        for k in range(n + 1):
            setsize = 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0)
            branches["pool" if n <= setsize else "set"] += 1
            for seed in range(10):
                rng, ref = random.Random(seed), random.Random(seed)
                assert draw_samples(rng, n, k, 2) == stdlib_samples(ref, n, k, 2), (n, k, seed)
                assert rng.getstate() == ref.getstate(), (n, k, seed)
    assert branches["set"] >= 50 and branches["pool"] >= 50, branches
    # Past five draws setsize grows with k: 85 for k = 6..21, 277 for
    # k = 22..85. Both sides of those edges.
    for n, k in ((85, 6), (86, 6), (85, 21), (86, 21), (277, 22), (278, 22), (278, 85)):
        for seed in range(3):
            rng, ref = random.Random(seed), random.Random(seed)
            assert draw_samples(rng, n, k, 2) == stdlib_samples(ref, n, k, 2), (n, k, seed)
            assert rng.getstate() == ref.getstate(), (n, k, seed)


def test_draw_samples_rejects_what_sample_rejects():
    for n, k in ((3, 4), (3, -1), (0, 1)):
        with pytest.raises(ValueError):
            random.Random(0).sample(range(n), k)
        with pytest.raises(ValueError):
            draw_samples(random.Random(0), n, k, 1)
