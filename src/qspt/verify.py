"""Top-level verification drivers: one function per theorem/corollary check,
each returning a VerificationReport."""

from __future__ import annotations

import time
from fractions import Fraction

from . import forms, jbasis, partitions
from .partitions import StatTables
from .report import VerificationReport
from .series import LaurentSeries


def verify_thm1_2(tables: StatTables, max_n: int = 20) -> VerificationReport:
    """c(n) from the h1/h2 partition formula against the j-expansion."""
    t0 = time.monotonic()
    rep = VerificationReport(check="thm1_2", parameters={"max_n": max_n},
                             window=(1, max_n + 1))
    j = forms.j_series(max_n + 1)
    for n in range(1, max_n + 1):
        rep.record(n, partitions.c_formula(n, tables), j.coeff(n))
    rep.runtime_ms = int((time.monotonic() - t0) * 1000)
    return rep


def verify_thm1_3(tables: StatTables, max_n: int = 40) -> VerificationReport:
    """Signed-triangular-weight enumeration against the A(q) series coefficients."""
    t0 = time.monotonic()
    rep = VerificationReport(check="thm1_3", parameters={"max_n": max_n},
                             window=(1, max_n + 1))
    tables.require(max_n)
    for n in range(1, max_n + 1):
        rep.record(n, partitions.ts_sum_bruteforce(n), tables.a[n])
    rep.runtime_ms = int((time.monotonic() - t0) * 1000)
    return rep


def verify_eq17(tables: StatTables, max_n: int = 30) -> VerificationReport:
    """u* from strongly unimodal enumeration against -spt + 2a."""
    t0 = time.monotonic()
    rep = VerificationReport(check="eq17", parameters={"max_n": max_n},
                             window=(1, max_n + 1))
    tables.require(max_n)
    for n in range(1, max_n + 1):
        rep.record(n, partitions.ustar_bruteforce(n), tables.ustar[n])
    rep.runtime_ms = int((time.monotonic() - t0) * 1000)
    return rep


def verify_cor1_5(tables: StatTables, max_n: int = 20) -> VerificationReport:
    """The u*/a coefficient formula: equals both the h-formula and c(n),
    with the displayed c(1), c(2) decompositions itemized."""
    t0 = time.monotonic()
    rep = VerificationReport(check="cor1_5", parameters={"max_n": max_n},
                             window=(1, max_n + 1))
    j = forms.j_series(max_n + 1)
    spt = partitions.spt_from_ustar(tables)
    for n in range(1, max_n + 1):
        cg = partitions.c_formula(n, tables, spt)
        rep.record(n, cg, j.coeff(n))
        rep.record(n, cg, partitions.c_formula(n, tables))
    rep.details.extend(partitions.c1_c2_decompositions(tables))
    rep.runtime_ms = int((time.monotonic() - t0) * 1000)
    return rep


def verify_internal_identities(ncoeffs: int = 500, poly_max: int = 30) -> VerificationReport:
    """Cross-checks among the classical series and the polynomial bases."""
    t0 = time.monotonic()
    rep = VerificationReport(check="internal_identities",
                             parameters={"coefficients": ncoeffs, "poly_max": poly_max},
                             window=(-poly_max, ncoeffs))
    P = ncoeffs + poly_max + 2
    e4 = forms.eisenstein_e4(P)
    e6 = forms.eisenstein_e6(P)
    delta = forms.delta_series(P)
    euler = forms.euler_series(P)
    j = forms.j_series(P)
    jp = forms.jprime_neg_series(P)

    rep.compare(delta, euler.pow(24).shift(1), hi=ncoeffs, tag="delta = eta^24")
    rep.compare(delta, (e4.pow(3) - e6.pow(2)).scale(Fraction(1, 1728)), hi=ncoeffs,
                tag="delta = (E4^3 - E6^2)/1728")
    rep.compare(jp, -j.q_derive(), hi=ncoeffs, tag="-q dj/dq = E4^2 E6/Delta")
    rep.compare(j * delta, e4.pow(3), hi=ncoeffs, tag="j * Delta = E4^3")

    # The chain alpha J_n(j) = B_n(j) = alpha q^-n + O(q) holds modulo
    # O(q); exact equality of the first pair is impossible on weight
    # grounds, so every comparison stops below exponent 1, and poly_max + 2
    # coefficients of j and alpha are all that it reads.
    j = j.truncate(poly_max + 2)
    alpha = forms.alpha_series(poly_max + 2)
    rep.record(1, alpha.coeff(0), 0)
    rep.record(1, alpha.coeff(1), 1)
    rep.details.append("alpha = q + O(q^2): checked")
    bs = jbasis.b_polynomials(poly_max)
    js = jbasis.faber_polynomials(poly_max)
    for n in range(1, poly_max + 1):
        bj = jbasis.eval_at_series(bs[n - 1], j)
        jn = jbasis.eval_at_series(js[n], j)
        rep.compare(bj, alpha.shift(-n), hi=1, tag=f"B_{n}(j) = alpha q^-{n} + O(q)")
        rep.compare(alpha * jn, bj, hi=1, tag=f"alpha J_{n}(j) = B_{n}(j) + O(q)")
        rep.compare(jn, LaurentSeries(1, 0, -n, 1, [1]), hi=1, tag=f"J_{n}(j) = q^-{n} + O(q)")
    rep.runtime_ms = int((time.monotonic() - t0) * 1000)
    return rep
