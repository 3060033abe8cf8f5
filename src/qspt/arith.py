"""Small number-theoretic helpers: primality, quadratic symbols, and decimal
strings of integers and fractions of any size."""

from fractions import Fraction

from .errors import BadModulus

# Decimal conversion goes in blocks of this many digits: int() and str() refuse
# more digits than sys.get_int_max_str_digits() (4300 by default, 640 at least).
_BLOCK_DIGITS = 512
_BLOCK = 10 ** _BLOCK_DIGITS


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def require_hecke_prime(ell: int) -> None:
    """Raise BadModulus unless ell is a prime >= 5, the primes with ell^2 = 1 mod 24."""
    if ell < 5 or not is_prime(ell):
        raise BadModulus(f"ell must be a prime >= 5, got {ell}")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p, via Euler's criterion."""
    if p <= 2 or not is_prime(p):
        raise BadModulus(f"{p} is not an odd prime")
    return euler_criterion(a, p)


def euler_criterion(a: int, p: int) -> int:
    """(a|p) for a p the caller has checked to be an odd prime: a^((p-1)/2) mod p as 0 or +-1."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def to_decimal(n: int) -> str:
    """str(n) for an integer of any size."""
    if -_BLOCK < n < _BLOCK:
        return str(n)
    sign, n = ("-", -n) if n < 0 else ("", n)
    blocks = []
    while n >= _BLOCK:
        n, r = divmod(n, _BLOCK)
        blocks.append(str(r).zfill(_BLOCK_DIGITS))
    blocks.append(str(n))
    return sign + "".join(reversed(blocks))


def from_decimal(s: str) -> int:
    """int(s) for a decimal string of any length."""
    if len(s) <= _BLOCK_DIGITS:
        return int(s)
    digits = s.lstrip("-")
    head = len(digits) % _BLOCK_DIGITS or _BLOCK_DIGITS
    n = int(digits[:head])
    for i in range(head, len(digits), _BLOCK_DIGITS):
        n = n * _BLOCK + int(digits[i:i + _BLOCK_DIGITS])
    return -n if s.startswith("-") else n


def fraction_str(x: Fraction) -> str:
    """str(x) for a fraction of any size."""
    if x.denominator == 1:
        return to_decimal(x.numerator)
    return f"{to_decimal(x.numerator)}/{to_decimal(x.denominator)}"
