"""Canonical polynomial families in j: the B_m basis and the Faber polynomials,
and their evaluation at j and at j(24 tau)."""

from __future__ import annotations

import math
from operator import add, mul
from typing import Sequence

from . import forms
from .series import LaurentSeries


class IntPolynomial:
    """Dense integer polynomial in one variable, index = degree."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        cs = [int(c) for c in coefficients]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coefficients = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_monic(self) -> bool:
        return bool(self.coefficients) and self.coefficients[-1] == 1

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self.coefficients == other.coefficients
        return NotImplemented

    def __hash__(self):
        return hash(self.coefficients)

    def __repr__(self):
        return f"IntPolynomial({list(self.coefficients)})"

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


def b_polynomials(M: int) -> list[IntPolynomial]:
    """B_1..B_M with (j(tau) - x) * sum B_m(x) q^m = (q;q)_inf."""
    return _j_recurrence(forms.euler_series(max(M, 1)), 1, M)


def faber_polynomials(M: int) -> list[IntPolynomial]:
    """J_0..J_M with (j(tau) - x) * sum J_n(x) q^n = E4^2 E6 / Delta."""
    return _j_recurrence(forms.jprime_neg_series(max(M, 1)), 0, M + 1)


def _j_recurrence(seed: LaurentSeries, start: int, count: int) -> list[IntPolynomial]:
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
    return [IntPolynomial(r) for r in rows]


def eval_at_j24(poly: IntPolynomial, P: int) -> LaurentSeries:
    """A polynomial evaluated at j(24 tau), truncated below P."""
    need = max(-((-P) // 24), 1) + poly.degree + 2
    j24 = forms.j_series(need).stride_expand(24)
    return eval_at_series([poly], j24)[0].truncate(P)


def eval_at_series(polys: Sequence[IntPolynomial], s: LaurentSeries) -> list[LaurentSeries]:
    """Each polynomial evaluated at the series s, as sum c_i s^i over one table of
    powers 1, s, ..., s^d built once for all of them (d the largest degree).

    A value is known below the precision of s, or below that of s^deg where that
    is lower (s of negative valuation), as by Horner's scheme; the zero polynomial
    gives zero below precision(s) - valuation(s)."""
    powers = [s.pow(0), s]
    while len(powers) <= max((p.degree for p in polys), default=0):
        powers.append(powers[-1] * s)
    return [_combine(p.coefficients, powers) for p in polys]


def _combine(cs: tuple[int, ...], powers: list[LaurentSeries]) -> LaurentSeries:
    """sum c_i powers[i] over the coefficients cs, on the progression of the sum."""
    s = powers[1]
    if not cs:
        return LaurentSeries.zero(s.precision - s.valuation, s.stride, 0)
    prec = min(s.precision, powers[max(len(cs) - 1, 1)].precision)
    terms = [(c, powers[i]) for i, c in enumerate(cs) if c]
    top = powers[len(cs) - 1]
    stride = math.gcd(s.stride, *(t.offset - top.offset for _, t in terms))
    val = min(t.valuation for _, t in terms)
    den = math.lcm(*(t.den for _, t in terms))
    n = -((val - prec) // stride)
    out = [0] * n
    for c, t in terms:
        k = (t.valuation - val) // stride
        step = t.stride // stride
        end = k + step * len(t.nums)  # the slice stops at n, and map with it
        out[k:end:step] = map(add, out[k:end:step], map((c * (den // t.den)).__mul__, t.nums))
    return LaurentSeries(stride, val % stride, val, prec, out, den)
