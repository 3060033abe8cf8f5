"""Primality and quadratic symbols."""

import pytest

from qspt.arith import is_prime, legendre
from qspt.errors import BadModulus


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    assert {n for n in range(25) if is_prime(n)} == primes
    assert is_prime(7919)
    assert not is_prime(7917)


def test_legendre_small_cases():
    assert [legendre(a, 5) for a in range(5)] == [0, 1, -1, -1, 1]
    assert legendre(3, 5) == -1
    assert legendre(3, 7) == -1
    assert legendre(3, 11) == 1
    assert legendre(3, 13) == 1
    assert legendre(-1, 5) == 1
    assert legendre(-23, 5) == -1


def test_legendre_multiplicative():
    p = 23
    for a in range(1, p):
        for b in range(1, p):
            assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_legendre_bad_modulus():
    for p in (1, 2, 9, 15):
        with pytest.raises(BadModulus):
            legendre(3, p)

