import pytest

from byzgrad.coding import build_code_context
from byzgrad.errors import InvalidParamsError
from byzgrad.field import DEFAULT_MODULUS, is_prime
from byzgrad.harness import SimulationConfig

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
    with pytest.raises(InvalidParamsError, match="q must be prime"):
        config.validate()
    assert is_prime(2**61 - 1)
    assert is_prime(2**64 + 13)


def test_primality_above_the_exact_bound_raises():
    assert not is_prime(PSI_13 - 2)  # divisible by 17, and still decided
    for n in (PSI_13, PSI_13 + 2, 2**89 - 1):
        with pytest.raises(InvalidParamsError, match=f"only below {PSI_13}"):
            is_prime(n)
