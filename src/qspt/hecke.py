"""The weight-3/2 Hecke operator T(ell^2), the mock modular series M+, both
sides of the closed-form identity for its Hecke image, and Theorem 1.2's c(n)
formula, which is that identity at ell = 5."""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import NamedTuple

from . import forms, jbasis
from .arith import legendre, require_hecke_prime, to_decimal
from .errors import BadSupport, QsptError
from .partitions import _over_euler, column, pentagonal_terms, s_column
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


def mplus_parts(k: int) -> tuple[int, int]:
    """12 spt(k) and (24k-1) p(k), whose sum is mplus_weight; zeros for k < 0."""
    if k < 0:
        return 0, 0
    return 12 * column("spt", k)[k], (24 * k - 1) * column("p", k)[k]


def mplus_weight(k: int) -> int:
    """Twelve times the coefficient of q^(24k-1) in M+, 0 for k < 0."""
    return sum(mplus_parts(k))


def mell_terms(ctx: HeckeContext, k: int) -> list[tuple[int, int]]:
    """(factor, row) pairs with mell_weight(ctx, k) = sum factor * mplus_weight(row).

    M_ell = M+ | T(ell^2) - (3|ell)(1+ell) M+, where T(ell^2) sends a(m) to
    a(ell^2 m) + (3|ell)(-m|ell) a(m) + ell a(m/ell^2). At m = 24k-1, the first row is the
    deepest: ell^2 m = 24(ell^2 k - delta_ell) - 1."""
    ell, ell2 = ctx.ell, ctx.ell ** 2
    m = 24 * k - 1
    terms = [(1, ell2 * k - ctx.delta_ell), (ctx.eps3 * (legendre(-m, ell) - 1 - ell), k)]
    if m % ell2 == 0:
        terms.append((ell, (m // ell2 + 1) // 24))
    return terms


def mell_weight(ctx: HeckeContext, k: int) -> int:
    """Twelve times the coefficient of q^(24k-1) in M_ell."""
    return sum(f * mplus_weight(row) for f, row in mell_terms(ctx, k))


def mell_weights(ctx: HeckeContext, kmax: int) -> list[int]:
    """[W(-delta_ell), ..., W(kmax)] with W(k) = mell_weight(ctx, k), read from W(kmax)
    down: its rows are the deepest that any W(k) reads, so each column is solved once."""
    return [mell_weight(ctx, k) for k in range(kmax, -ctx.delta_ell - 1, -1)][::-1]


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
    mell_weights; hecke_t applied to m_plus gives the same series."""
    return LaurentSeries(24, 23, -ctx.ell ** 2, P, mell_weights(ctx, P // 24), 12)


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


def c_formula(max_n: int) -> list[Fraction]:
    """[c(1), ..., c(max_n)] by Theorem 1.2, which is Theorem 1.1 at ell = 5: there
    12 eta(24 tau) M_5 = 5 q dj/dq(24 tau), so 5n c(n) = sum e(g) W(n - g) over the terms
    e(g) q^g of (q;q)_inf with g <= n + 1, with W(k) = mell_weight(ctx, k) at ell = 5 from
    k = -1. Its principal part W(-1) = W(0) = -5 carries the paper's s(n). Each weight is
    read once, by mell_weights."""
    w = mell_weights(HeckeContext(5), max_n)  # w[k + 1] = W(k)
    terms = pentagonal_terms(max_n + 2)
    return [Fraction(sum(sign * w[n + 1 - g]
                         for g, sign in terms[:bisect_left(terms, (n + 2,))]), 5 * n)
            for n in range(1, max_n + 1)]


def c1_c2_decompositions() -> list[str]:
    """Itemized reconstruction of the displayed c(1) and c(2) splittings, first
    through spt, then again with the spt terms, which eq (17) writes as 2a - u*,
    parenthesized."""
    _, s1, s2 = s_column(2)
    # c(1) = s(1) + w(1) and c(2) = (s(2) - w(1) + w(2))/2 with w(k) = mell_weight(ctx, k)/5,
    # each w(k) itemized as its mu_k M+ term and the spt and p parts of its top row; c(2)'s
    # top row, 49, is read first, as the deepest
    ctx = HeckeContext(5)
    items = []
    for k in (2, 1):
        (_, top), (mu_k, row) = mell_terms(ctx, k)  # no third term: 25 divides neither 23 nor 47
        t_spt, t_p = (Fraction(x, 5) for x in mplus_parts(top))
        t_mu = Fraction(mu_k * mplus_weight(row), 5)
        items.append((t_mu, t_spt, t_p))
    (t_mu2, t_spt2, t_p2), (t_mu, t_spt, t_p) = items
    lines = []
    for fmt in ("{}", "({})"):
        f_spt, f_spt2 = fmt.format(t_spt), fmt.format(t_spt2)
        lines += [f"c(1) = {s1} + {t_mu} + {f_spt} + {t_p}"
                  f" = {s1 + t_mu + t_spt + t_p}",
                  f"c(2) = (1/2)({s2} - {t_mu} + {t_mu2} - {f_spt} - {t_p}"
                  f" + {f_spt2} + {t_p2})"
                  f" = {(s2 - t_mu + t_mu2 - t_spt - t_p + t_spt2 + t_p2) / 2}"]
    return lines
