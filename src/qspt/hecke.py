"""The weight-3/2 Hecke operator T(ell^2), the mock modular series M+, and both
sides of the closed-form identity for its Hecke image."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import forms, jbasis
from .arith import legendre, require_hecke_prime
from .errors import BadSupport
from .partitions import _over_euler, mell_weight, mplus_weight, stat_tables
from .report import VerificationReport
from .series import LaurentSeries


@dataclass(frozen=True)
class HeckeContext:
    """A prime ell >= 5 with its derived constants."""

    ell: int

    def __post_init__(self):
        require_hecke_prime(self.ell)

    @property
    def delta_ell(self) -> int:
        return (self.ell ** 2 - 1) // 24

    @property
    def eps3(self) -> int:
        return legendre(3, self.ell)


def spt_gen24(P: int) -> LaurentSeries:
    """S(q) = sum spt(n) q^(24n-1), stride 24, offset 23."""
    nmax = P // 24
    return LaurentSeries(24, 23, 23, P, stat_tables(nmax).spt[1:nmax + 1])


def m_plus(P: int) -> LaurentSeries:
    """Holomorphic part of the weight-3/2 mock modular form:
    S(q) + (1/12) q d/dq P(q) = -1/12 q^-1 + sum [spt(n) + (24n-1)/12 p(n)] q^(24n-1)."""
    nmax = P // 24
    tables = stat_tables(nmax)
    return LaurentSeries(24, 23, -1, P, [mplus_weight(tables, n) for n in range(nmax + 1)], 12)


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
        if ell2 * n >= f.precision and n >= 0:
            break
        val = a(ell2 * n) + eps * legendre(-n, ell) * a(n)
        if n % ell2 == 0:
            val += ell * a(n // ell2)
        if val:
            out[n] = val
    return LaurentSeries.from_terms(out, prec, stride=24, offset=23)


def m_ell(ctx: HeckeContext, P: int) -> LaurentSeries:
    """M_ell = M+ | T(ell^2) - (3|ell)(1+ell) M+ below q^P, read from the tables through
    partitions.mell_weight; hecke_t applied to m_plus gives the same series."""
    ell, delta, kmax = ctx.ell, ctx.delta_ell, P // 24
    tables = stat_tables(max(ell * ell * kmax - delta, 0))
    cs = [mell_weight(tables, ell, k) for k in range(-delta, kmax + 1)]
    return LaurentSeries(24, 23, -ell * ell, P, cs, 12)


def m_ell_closed_form(ctx: HeckeContext, P: int) -> LaurentSeries:
    """The closed form -(ell/12) P(q) B_{delta_ell}(j(24 tau)) (E4^2 E6/Delta)(24 tau),
    built as (ell/12) P(q) r_ell(q) with P(q) = q^-1 / (q^24; q^24)_inf: one sparse
    division of the r_ell coefficients by the pentagonal terms of (q; q)_inf."""
    r = r_ell_series(ctx, P + 1)  # r_ell below q^(P+1) gives the product below q^P
    n = -((r.valuation - 1 - P) // 24)  # the points r.valuation - 1 + 24i below q^P
    x = _over_euler(n - 1, enumerate(r.nums))
    return LaurentSeries(24, 23, r.valuation - 1, P, [ctx.ell * c for c in x], 12)


def r_ell_series(ctx: HeckeContext, P: int) -> LaurentSeries:
    """The series q dj/dq(24 tau) * B_{delta_ell}(j(24 tau)) = sum r_ell(n) q^(24n),
    read from one j: q dj/dq = -E4^2 E6/Delta is its derivative."""
    nmax = -(-P // 24) + 2
    delta = ctx.delta_ell
    j = forms.j_series(nmax + delta + 4)
    b = jbasis.b_polynomials(delta)[-1]
    beval = jbasis.eval_at_series([b], j.stride_expand(24))[0].truncate(24 * (nmax + 2))
    return (j.q_derive().truncate(nmax + delta + 2).stride_expand(24) * beval).truncate(P)


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

