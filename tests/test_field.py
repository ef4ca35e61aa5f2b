import pytest

from byzgrad.errors import InvalidParamsError
from byzgrad.field import DEFAULT_MODULUS, PrimeField, is_prime


def test_modulus_must_be_prime():
    with pytest.raises(InvalidParamsError):
        PrimeField(10)
    with pytest.raises(InvalidParamsError):
        PrimeField(1)


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
    PrimeField(DEFAULT_MODULUS)
    info = is_prime.cache_info()
    assert (info.hits, info.misses) == (2, 1)


def test_field_identity_is_its_modulus():
    assert PrimeField(7) == PrimeField(7) != PrimeField(11)
    assert PrimeField(7) != 7
    assert hash(PrimeField(101)) == hash(PrimeField(101))
    assert repr(PrimeField(101)) == "PrimeField(101)"
