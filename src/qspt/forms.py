"""Constructors for the classical series: (q;q)_inf, eta(24 tau), E4, E6,
Delta, j, -q dj/dq, alpha, and the partition generating function at level 24."""

from __future__ import annotations

from .partitions import _over_euler, p_table, pentagonal_terms, triangular_terms
from .series import LaurentSeries


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
    """Delta = q (q;q)_inf^24 = q ((q;q)_inf^3)^8, valuation 1, with (q;q)_inf^3 from
    Jacobi's identity; independent of the Eisenstein series (E4^3 - E6^2)/1728."""
    cs = [0] * max(P - 1, 0)
    for e, c in triangular_terms(P - 1):
        cs[e] = c
    return LaurentSeries(1, 0, 0, P - 1, cs).pow(8).shift(1)


def _over_delta(numerator: LaurentSeries, P: int) -> LaurentSeries:
    """numerator / Delta below q^P for a numerator of valuation 0 known below q^(P + 1):
    q^-1 numerator / ((q;q)_inf^3)^8, eight sparse divisions by Jacobi's (q;q)_inf^3."""
    x = numerator.nums
    for _ in range(8):
        x = _over_euler(P, enumerate(x), triangular_terms)
    return LaurentSeries(1, 0, -1, P, x)


def j_series(P: int) -> LaurentSeries:
    """j = E4^3 / Delta = q^-1 + 744 + 196884 q + ..."""
    return _over_delta(eisenstein_e4(P + 1).pow(3), P)


def jprime_neg_series(P: int) -> LaurentSeries:
    """-q dj/dq = E4^2 E6 / Delta = q^-1 - sum n c(n) q^n."""
    return _over_delta(eisenstein_e4(P + 1).pow(2) * eisenstein_e6(P + 1), P)


def alpha_series(P: int) -> LaurentSeries:
    """alpha = (q;q)_inf / (-q dj/dq) = (q;q)_inf Delta / (E4^2 E6) = q + O(q^2)."""
    # one division, by a divisor of valuation 0 that loses no precision
    return euler_series(P) * delta_series(P) / (eisenstein_e4(P).pow(2) * eisenstein_e6(P))


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

