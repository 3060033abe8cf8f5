"""Constructors for the classical series: (q;q)_inf, eta(24 tau), E4, E6,
Delta, j, -q dj/dq, alpha, and the partition generating function at level 24."""

from __future__ import annotations

import math
from typing import Sequence

from .errors import QsptError
from .partitions import column, pentagonal_terms, triangular_terms
from .series import LaurentSeries, _pp_count


def euler_series(P: int) -> LaurentSeries:
    """(q;q)_inf by the pentagonal number theorem, truncated below P."""
    cs = [0] * P
    for g, s in pentagonal_terms(P):
        cs[g] = s
    return LaurentSeries(1, 0, 0, P, cs)


def eta24_series(P: int) -> LaurentSeries:
    """eta(24 tau) = q * (q^24; q^24)_inf, a stride-24 offset-1 series."""
    return euler_series(_pp_count(1, P, 24)).stride_expand(24).shift(1).truncate(P)


def partition_gen24(P: int) -> LaurentSeries:
    """Sum of p(n) q^(24n-1) = 1/eta(24 tau), stride 24 and offset 23, from the p column."""
    nmax = max(P // 24, 0)
    return LaurentSeries(24, 23, -1, P, column("p", nmax)[:nmax + 1])


def _eisenstein(P: int, power: int, factor: int, lead: int = 1) -> LaurentSeries:
    """lead + factor * sum sigma_power(n) q^n, truncated below P."""
    cs = [lead] + [0] * max(P - 1, 0)
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


def _field_width(kernel: Sequence[int], P: int) -> int:
    """A field width B with |x_s(n)| < 2^(B - 2) for every stage s <= 8 and n <= P
    of _over_delta: |x_s(n)| <= sum|K| p_24(n), as 1/T^s has the coefficients
    p_(3s)(n) <= p_24(n), and p_24(n) < exp(4 pi sqrt(n)) by Apostol's proof of
    Thm 14.5 ("Introduction to Analytic Number Theory") for 24 colours. The
    balanced fields need a sign bit; the other bit is a margin for the float
    rounding."""
    return (sum(map(abs, kernel)).bit_length()
            + int(4 * math.pi * math.sqrt(P + 1) / math.log(2)) + 3)


def _over_delta(kernel: Sequence[int], P: int) -> list[int]:
    """x(0..P) solving T^8 X = K, where kernel lists the coefficients of K from q^0
    on (those past q^P are not read, missing ones are 0) and T = (q;q)_inf^3 has
    Jacobi's sparse terms: for a numerator K of valuation 0 known below q^(P + 1),
    q^-1 X is K / Delta below q^P. The eight divisions x_s = x_(s-1) / T, from
    x_0 = K to X = x_8, run in one pass.

    Row n packs x_1(n) .. x_8(n) into y[n], one B-bit field per stage. Since
    x_s(n) = K(n) - sum_(t <= s) sum_(g > 0) d_g x_t(n - g), one sparse sum
    K(n) - sum d_g y[n - g] holds the field differences, a prefix sum over the
    fields turns them into the stage values, and x_8(n) is the top field."""
    nums = list(kernel[:P + 1])
    nums += [0] * (P + 1 - len(nums))
    B = _field_width(nums, P)
    width = 8 * B
    mask, half = (1 << width) - 1, 1 << (width - 1)
    top = 7 * B
    y, out, active = [], [], []
    # each term (g, d_g), g > 0, joins when n reaches g, read as y[-g] from the rows so far
    terms = triangular_terms(P + 1) + [(P + 1, 0)]
    for (g, d), (end, _) in zip(terms, terms[1:]):
        if g:
            active.append((-g, d))
        for n in range(g, end):
            acc = nums[n]
            for h, c in active:
                acc -= c * y[h]
            acc += acc << B
            acc += acc << 2 * B
            acc += acc << 4 * B
            acc = ((acc + half) & mask) - half
            y.append(acc)
            # the fields below the top one sum to less than half its unit
            out.append((acc + (1 << (top - 1))) >> top)
    return out


def j_series(P: int) -> LaurentSeries:
    """j = E4^3 / Delta = q^-1 + 744 + 196884 q + ..., as (691 E12 / Delta + 432000) / 691:
    691 E12 = 441 E4^3 + 250 E6^2 and E4^3 - E6^2 = 1728 Delta give
    E4^3 = E12 + (432000 / 691) Delta (dim M_12 = 2)."""
    x = _over_delta(_eisenstein(P + 1, 11, 65520, 691).nums, P)
    if P > 0:
        x[1] += 432000
    cs = []
    for c in x:
        c, r = divmod(c, 691)
        if r:
            raise QsptError("691 E12 / Delta + 432000 has a coefficient that 691 does not divide")
        cs.append(c)
    return LaurentSeries(1, 0, -1, P, cs)


def jprime_neg_series(P: int) -> LaurentSeries:
    """-q dj/dq = E4^2 E6 / Delta = E14 / Delta = q^-1 - sum n c(n) q^n (dim M_14 = 1)."""
    return LaurentSeries(1, 0, -1, P, _over_delta(_eisenstein(P + 1, 13, -24).nums, P))


def alpha_series(P: int) -> LaurentSeries:
    """alpha = (q;q)_inf / (-q dj/dq) = (q;q)_inf Delta / E14 = q + O(q^2), E14 = E4^2 E6."""
    # one division, by a divisor of valuation 0 that loses no precision
    return euler_series(P) * delta_series(P) / _eisenstein(P, 13, -24)


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

