"""The weight-3/2 Hecke operator T(ell^2), the mock modular series M+, and both
sides of the closed-form identity for its Hecke image."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import forms, jbasis
from .arith import legendre, require_hecke_prime, to_decimal
from .errors import BadSupport, QsptError
from .partitions import _over_euler, column, mell_weights, mplus_weight
from .report import VerificationReport
from .series import LaurentSeries, _pp_count


# The largest delta_ell a HeckeContext admits, delta_71 = 210: thm1_1 --ell 71 --window 240
# takes 7.3-9.5 s (fresh processes, Python 3.11.7 on a 2-vCPU VM), and the closed form
# reads j to delta_ell terms at any window.
MAX_DELTA = 210


class HeckeContext(NamedTuple("HeckeContext", [("ell", int)])):
    """A prime ell >= 5 with delta_ell <= MAX_DELTA (ell <= 71), with its derived constants."""

    __slots__ = ()

    def __new__(cls, ell: int) -> HeckeContext:
        self = super().__new__(cls, ell)
        if self.delta_ell > MAX_DELTA:  # before the trial division of require_hecke_prime
            raise QsptError(f"ell capped at delta_ell = (ell^2 - 1)/24 <= {MAX_DELTA} "
                            f"(ell <= 71), got {to_decimal(self.ell)}")
        require_hecke_prime(self.ell)
        return self

    @property
    def delta_ell(self) -> int:
        return (self.ell ** 2 - 1) // 24

    @property
    def eps3(self) -> int:
        return legendre(3, self.ell)


def spt_gen24(P: int) -> LaurentSeries:
    """S(q) = sum spt(n) q^(24n-1), stride 24, offset 23."""
    nmax = P // 24
    return LaurentSeries(24, 23, 23, P, column("spt", nmax)[1:nmax + 1])


def m_plus(P: int) -> LaurentSeries:
    """Holomorphic part of the weight-3/2 mock modular form:
    S(q) + (1/12) q d/dq P(q) = -1/12 q^-1 + sum [spt(n) + (24n-1)/12 p(n)] q^(24n-1)."""
    ws = [mplus_weight(n) for n in range(P // 24, -1, -1)]  # the deepest row first
    return LaurentSeries(24, 23, -1, P, ws[::-1], 12)


def hecke_t(f: LaurentSeries, ctx: HeckeContext) -> LaurentSeries:
    """Apply T(ell^2): a(n) -> a(ell^2 n) + (3|ell)(-n|ell) a(n) + ell a(n/ell^2).

    Requires support on exponents = 23 mod 24, which ell^2 = 1 mod 24 preserves;
    the output precision is the honest ceil(prec/ell^2) on the progression."""
    if f.stride != 24 or f.offset != 23:
        raise BadSupport("Hecke input must be a stride-24, offset-23 series")
    ell = ctx.ell
    ell2 = ell * ell
    eps = ctx.eps3
    coeffs = dict(f.terms())

    def a(n: int) -> Fraction:
        return coeffs.get(n, Fraction(0))

    prec = -(-f.precision // ell2)
    lo = min(f.valuation, ell2 * f.valuation, -(-f.valuation // ell2))
    lo -= (lo + 1) % 24  # round down onto the 23 mod 24 progression
    out = {}
    for n in range(lo, prec, 24):
        val = a(ell2 * n) + eps * legendre(-n, ell) * a(n)
        if n % ell2 == 0:
            val += ell * a(n // ell2)
        if val:
            out[n] = val
    return LaurentSeries.from_terms(out, prec, stride=24, offset=23)


def m_ell(ctx: HeckeContext, P: int) -> LaurentSeries:
    """M_ell = M+ | T(ell^2) - (3|ell)(1+ell) M+ below q^P, read from the tables through
    partitions.mell_weights; hecke_t applied to m_plus gives the same series."""
    return LaurentSeries(24, 23, -ctx.ell ** 2, P, mell_weights(ctx.ell, P // 24), 12)


def m_ell_closed_form(ctx: HeckeContext, P: int) -> LaurentSeries:
    """The closed form -(ell/12) P(q) B_{delta_ell}(j(24 tau)) (E4^2 E6/Delta)(24 tau),
    built as (ell/12) P(q) r_ell(q) with P(q) = q^-1 / (q^24; q^24)_inf: one sparse
    division of the r_ell coefficients by the pentagonal terms of (q; q)_inf."""
    r = r_ell_series(ctx, P + 1)  # r_ell below q^(P+1) gives the product below q^P
    x = _over_euler(_pp_count(r.valuation - 1, P, 24) - 1, r.nums)
    return LaurentSeries(24, 23, r.valuation - 1, P, [ctx.ell * c for c in x], 12)


def r_ell_series(ctx: HeckeContext, P: int) -> LaurentSeries:
    """The series q dj/dq(24 tau) * B_{delta_ell}(j(24 tau)) = sum r_ell(n) q^(24n),
    read from one j: q dj/dq = -E4^2 E6/Delta is its derivative. The product in q, stride
    expanded once, is needed below q^ceil(P/24), so it reads j below
    q^(ceil(P/24) + delta): B_delta has degree delta - 1 and valuation 1 - delta."""
    j = forms.j_series(_pp_count(0, P, 24) + ctx.delta_ell)
    b = jbasis.b_polynomials(ctx.delta_ell)[-1]
    return (j.q_derive() * jbasis.eval_at_series([b], j)[0]).stride_expand(24).truncate(P)


def verify_thm11(ctx: HeckeContext, window: int) -> VerificationReport:
    """Compare M_ell from the Hecke definition against the closed form,
    exponent by exponent up to the window bound (exclusive)."""
    lhs = m_ell(ctx, window)
    rhs = m_ell_closed_form(ctx, window)
    lo = -ctx.ell ** 2
    rep = VerificationReport(check="thm1_1",
                             parameters={"ell": ctx.ell, "window": window},
                             window=(lo, window))
    rep.compare(lhs, rhs, lo, window)
    return rep


def verify_mod_ell(ctx: HeckeContext, window: int) -> VerificationReport:
    """Check 12 (M+ | T(ell^2)) = (3|ell) 12 M+ (mod ell) on integer-cleared
    coefficients, i.e. every coefficient of 12 M_ell lies in ell*Z."""
    series = m_ell(ctx, window).scale(12)
    rep = VerificationReport(check="eq9_mod_ell",
                             parameters={"ell": ctx.ell, "window": window},
                             window=(-ctx.ell ** 2, window))
    for e, c in series.terms():
        # a non-integral c leaves a non-integral, hence nonzero, residue
        rep.record(e, c % ctx.ell, 0)
    return rep

