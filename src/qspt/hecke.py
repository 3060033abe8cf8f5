"""The weight-3/2 Hecke operator T(ell^2), the mock modular series M+, and both
sides of the closed-form identity for its Hecke image."""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from . import forms, jbasis
from .arith import chi12, is_prime, legendre
from .errors import BadModulus, BadSupport
from .partitions import StatTables
from .report import VerificationReport
from .series import LaurentSeries


@dataclass(frozen=True)
class HeckeContext:
    """A prime ell >= 5 with its derived constants."""

    ell: int

    def __post_init__(self):
        if self.ell < 5 or not is_prime(self.ell):
            raise BadModulus(f"ell must be a prime >= 5, got {self.ell}")

    @property
    def delta_ell(self) -> int:
        return (self.ell ** 2 - 1) // 24

    @property
    def eps3(self) -> int:
        return legendre(3, self.ell)


def spt_gen24(P: int, tables: StatTables) -> LaurentSeries:
    """S(q) = sum spt(n) q^(24n-1), stride 24, offset 23."""
    nmax = P // 24
    tables.require(nmax)
    return LaurentSeries(24, 23, 23, P, tables.spt[1:nmax + 1])


def m_plus(P: int, tables: StatTables) -> LaurentSeries:
    """Holomorphic part of the weight-3/2 mock modular form:
    S(q) + (1/12) q d/dq P(q) = -1/12 q^-1 + sum [spt(n) + (24n-1)/12 p(n)] q^(24n-1)."""
    nmax = P // 24
    tables.require(nmax)
    cs = [Fraction(-1, 12)]
    for n in range(1, nmax + 1):
        cs.append(tables.spt[n] + Fraction(24 * n - 1, 12) * tables.p[n])
    return LaurentSeries(24, 23, -1, P, cs)


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


def m_ell(ctx: HeckeContext, P: int, tables: StatTables) -> LaurentSeries:
    """M_ell = M+ | T(ell^2) - (3|ell)(1+ell) M+, computed from the definition."""
    mp = m_plus(P * ctx.ell ** 2, tables)
    image = hecke_t(mp, ctx)
    return (image - mp.scale(ctx.eps3 * (1 + ctx.ell))).truncate(P)


def m_ell_closed_form(ctx: HeckeContext, P: int, tables: StatTables) -> LaurentSeries:
    """The closed form -(ell/12) P(q) B_{delta_ell}(j(24 tau)) (E4^2 E6/Delta)(24 tau),
    built as (ell/12) P(q) r_ell(q)."""
    pgen = forms.partition_gen24(P + 24 * ctx.delta_ell + 48)
    return (pgen * r_ell_series(ctx, P + 24)).scale(Fraction(ctx.ell, 12)).truncate(P)


def thm11_rhs(ctx: HeckeContext, P: int, tables: StatTables) -> LaurentSeries:
    """(3|ell)(1+ell) M+ + closed form: the stated right-hand side for M+ | T(ell^2)."""
    mp = m_plus(P, tables)
    return (mp.scale(ctx.eps3 * (1 + ctx.ell)) + m_ell_closed_form(ctx, P, tables)).truncate(P)


def r_ell_series(ctx: HeckeContext, P: int) -> LaurentSeries:
    """The series q dj/dq(24 tau) * B_{delta_ell}(j(24 tau)) = sum r_ell(n) q^(24n)."""
    nmax = -(-P // 24) + 2
    jp24 = forms.jprime_neg_series(nmax + ctx.delta_ell + 2).stride_expand(24)
    b = jbasis.b_polynomials(ctx.delta_ell)[-1]
    beval = jbasis.eval_at_j24(b, 24 * (nmax + 2))
    return ((-jp24) * beval).truncate(P)


def verify_thm11(ctx: HeckeContext, window: int, tables: StatTables) -> VerificationReport:
    """Compare M_ell from the Hecke definition against the closed form,
    exponent by exponent up to the window bound (exclusive)."""
    t0 = time.monotonic()
    lhs = m_ell(ctx, window, tables)
    rhs = m_ell_closed_form(ctx, window, tables)
    lo = -ctx.ell ** 2
    rep = VerificationReport(check="thm1_1",
                             parameters={"ell": ctx.ell, "window": window},
                             window=(lo, window))
    rep.compare(lhs, rhs, lo, window)
    rep.runtime_ms = int((time.monotonic() - t0) * 1000)
    return rep


def verify_mod_ell(ctx: HeckeContext, window: int, tables: StatTables) -> VerificationReport:
    """Check 12 (M+ | T(ell^2)) = (3|ell) 12 M+ (mod ell) on integer-cleared
    coefficients, i.e. every coefficient of 12 M_ell lies in ell*Z."""
    t0 = time.monotonic()
    series = m_ell(ctx, window, tables).scale(12)
    rep = VerificationReport(check="eq9_mod_ell",
                             parameters={"ell": ctx.ell, "window": window},
                             window=(-ctx.ell ** 2, window))
    for e, c in series.terms():
        # a non-integral c leaves a non-integral, hence nonzero, residue
        rep.record(e, c % ctx.ell, 0)
    rep.runtime_ms = int((time.monotonic() - t0) * 1000)
    return rep

