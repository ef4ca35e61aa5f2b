import pytest

from byzgrad.errors import InvalidParamsError
from byzgrad.field import DEFAULT_MODULUS, PrimeField, is_prime


def brute_force_inverse(x, q):
    """Independent oracle: scan all residues."""
    for y in range(q):
        if x * y % q == 1:
            return y
    raise AssertionError(f"{x} has no inverse mod {q}")


def test_inverse_small_examples():
    f7 = PrimeField(7)
    assert f7.inv(3) == 5
    assert 3 * 5 % 7 == 1
    assert f7.inv(1) == 1


def test_inverse_against_brute_force():
    f = PrimeField(101)
    assert brute_force_inverse(17, 101) == 6
    assert f.inv(17) == 6
    for x in range(1, 101):
        assert f.inv(x) == brute_force_inverse(x, 101)


def test_inverse_involution():
    for q in (11, 101):
        f = PrimeField(q)
        for x in range(1, q):
            assert f.inv(f.inv(x)) == x


def test_inverse_matches_fermat():
    # pow(a, -1, q) replaced Fermat's a^(q-2); both must agree for prime q.
    for q in (7, 11, DEFAULT_MODULUS):
        f = PrimeField(q)
        residues = set(range(1, min(q, 200)))
        residues |= {q - 1, q - 2, q // 2, q // 3}
        residues |= {pow(3, e, q) for e in range(0, 64, 5)}
        for x in residues:
            assert f.inv(x) == pow(x, q - 2, q)
            assert f.inv(x + 5 * q) == pow(x, q - 2, q)


def test_zero_has_no_inverse():
    f = PrimeField(7)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.div(3, 0)


def test_field_axioms_exhaustive_small():
    f = PrimeField(5)
    elems = range(5)
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_pow_matches_repeated_multiplication():
    f = PrimeField(11)
    for x in range(1, 11):
        acc = 1
        for e in range(8):
            assert f.pow(x, e) == acc
            acc = acc * x % 11
        assert f.mul(f.pow(x, -1), x) == 1


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
