"""Canonical polynomial families in j: the B_m basis and the Faber polynomials,
and their evaluation at j and at j(24 tau). A polynomial is a tuple of ints,
constant term first, so its degree is len(p) - 1."""

from __future__ import annotations

from operator import mul
from typing import Sequence

from . import forms, series
from .series import LaurentSeries


def b_polynomials(M: int) -> list[tuple[int, ...]]:
    """B_1..B_M with (j(tau) - x) * sum B_m(x) q^m = (q;q)_inf."""
    return _j_recurrence(forms.euler_series(max(M, 1)), 1, M)


def faber_polynomials(M: int) -> list[tuple[int, ...]]:
    """J_0..J_M with (j(tau) - x) * sum J_n(x) q^n = E4^2 E6 / Delta."""
    return _j_recurrence(forms.jprime_neg_series(max(M, 1)), 0, M + 1)


def _j_recurrence(seed: LaurentSeries, start: int, count: int) -> list[tuple[int, ...]]:
    """P_0..P_{count-1} with (j(tau) - x) * sum P_n(x) q^(n+start) = seed.

    Coefficient-matching gives P_0 = 1 and
    P_{n+1} = x*P_n + s(n+start) - sum_{i=0..n} c(n-i) P_i,
    with s the coefficients of seed and c(i) those of j. The recurrence runs on
    integer columns: the coefficient of x^k in P_{n+1} takes one dot product of
    c(n-k), ..., c(0) with the coefficients of x^k in P_k, ..., P_n."""
    if count < 1:
        return []
    j = forms.j_series(max(count - 1, 1))
    c = [int(j.coeff(i)) for i in range(count - 1)]
    rows = [[1]]
    cols = [[1]]  # cols[k]: the coefficients of x^k in P_k, P_(k+1), ...
    for n in range(count - 1):
        nxt = [0] + rows[-1]
        nxt[0] += int(seed.coeff(n + start))
        for k, col in enumerate(cols):
            nxt[k] -= sum(map(mul, col, c[n - k::-1]))
            col.append(nxt[k])
        cols.append([nxt[-1]])
        rows.append(nxt)
    return [tuple(r) for r in rows]


def eval_at_j24(poly: tuple[int, ...], P: int) -> LaurentSeries:
    """A polynomial evaluated at j(24 tau), truncated below P."""
    need = max(series._pp_count(0, P, 24), 1) + len(poly) + 1  # its degree + 2
    j24 = forms.j_series(need).stride_expand(24)
    return eval_at_series([poly], j24)[0].truncate(P)


def eval_at_series(polys: Sequence[tuple[int, ...]], s: LaurentSeries) -> list[LaurentSeries]:
    """Each polynomial evaluated at the series s, as sum c_i s^i over one table of
    powers 1, s, ..., s^d built once for all of them (d the largest degree).

    A value is known below the precision of s, or below that of s^deg where that
    is lower (s of negative valuation), as by Horner's scheme; the zero polynomial
    gives zero below precision(s) - valuation(s)."""
    powers = [s.pow(0), s]
    top = max((len(p) - 1 for p in polys), default=0)
    while len(powers) <= top:
        powers.append(powers[-1] * s)
    return [_combine(p, powers) for p in polys]


def _combine(cs: tuple[int, ...], powers: list[LaurentSeries]) -> LaurentSeries:
    """sum c_i powers[i] over the coefficients cs, on the progression of the sum."""
    s = powers[1]
    if not cs:
        return LaurentSeries.zero(s.precision - s.valuation, s.stride, 0)
    prec = min(s.precision, powers[max(len(cs) - 1, 1)].precision)
    return series._combine([(c, powers[i]) for i, c in enumerate(cs) if c], prec)
