"""Constructors for the classical series: (q;q)_inf, eta(24 tau), E4, E6,
Delta, j, -q dj/dq, alpha, and the partition generating function at level 24."""

from __future__ import annotations

from fractions import Fraction

from .partitions import p_table, pentagonal_terms
from .series import LaurentSeries

_PAD = 8  # internal slack so quotient constructions deliver the full request


def euler_series(P: int) -> LaurentSeries:
    """(q;q)_inf by the pentagonal number theorem, truncated below P."""
    cs = [0] * P
    for g, s in pentagonal_terms(P):
        cs[g] = s
    return LaurentSeries(1, 0, 0, P, cs)


def eta24_series(P: int) -> LaurentSeries:
    """eta(24 tau) = q * (q^24; q^24)_inf, a stride-24 offset-1 series."""
    n = max(0, -((1 - P) // 24))
    cs = [0] * n
    for g, s in pentagonal_terms(n):
        cs[g] = s
    return LaurentSeries(24, 1, 1, P, cs)


def partition_gen24(P: int) -> LaurentSeries:
    """Sum of p(n) q^(24n-1) = 1/eta(24 tau), a stride-24 offset-23 series."""
    nmax = max(P // 24, 0)
    p = p_table(nmax)
    return LaurentSeries(24, 23, -1, P, p)


def _eisenstein(P: int, power: int, factor: int) -> LaurentSeries:
    """1 + factor * sum sigma_power(n) q^n, truncated below P."""
    cs = [1] + [0] * max(P - 1, 0)
    for d in range(1, P):
        dp = factor * d ** power
        for idx in range(d, P, d):
            cs[idx] += dp
    return LaurentSeries(1, 0, 0, P, cs[:P])


def eisenstein_e4(P: int) -> LaurentSeries:
    """E4 = 1 + 240 sum sigma_3(n) q^n."""
    return _eisenstein(P, 3, 240)


def eisenstein_e6(P: int) -> LaurentSeries:
    """E6 = 1 - 504 sum sigma_5(n) q^n."""
    return _eisenstein(P, 5, -504)


def delta_series(P: int) -> LaurentSeries:
    """Delta = (E4^3 - E6^2)/1728, valuation 1."""
    e4 = eisenstein_e4(P)
    e6 = eisenstein_e6(P)
    return (e4.pow(3) - e6.pow(2)).scale(Fraction(1, 1728))


def j_series(P: int) -> LaurentSeries:
    """j = E4^3 / Delta = q^-1 + 744 + 196884 q + ..."""
    q = P + _PAD
    return (eisenstein_e4(q).pow(3) * delta_series(q).invert()).truncate(P)


def jprime_neg_series(P: int) -> LaurentSeries:
    """-q dj/dq = E4^2 E6 / Delta = q^-1 - sum n c(n) q^n."""
    q = P + _PAD
    f = eisenstein_e4(q).pow(2) * eisenstein_e6(q) * delta_series(q).invert()
    return f.truncate(P)


def alpha_series(P: int) -> LaurentSeries:
    """alpha = (q;q)_inf / (-q dj/dq) = q + O(q^2)."""
    q = P + _PAD
    return (euler_series(q) * jprime_neg_series(q).invert()).truncate(P)


_CONSTRUCTORS = {
    "euler": euler_series,
    "eta24": eta24_series,
    "e4": eisenstein_e4,
    "e6": eisenstein_e6,
    "delta": delta_series,
    "j": j_series,
    "jprime_neg": jprime_neg_series,
    "alpha": alpha_series,
    "partition_gen24": partition_gen24,
}

