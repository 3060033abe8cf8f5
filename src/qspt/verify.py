"""Top-level verification drivers: one function per theorem/corollary check,
each returning a VerificationReport."""

from __future__ import annotations

from fractions import Fraction

from . import forms, jbasis, partitions
from .report import VerificationReport
from .series import LaurentSeries


def verify_thm1_2(max_n: int) -> VerificationReport:
    """c(n) from the M_5 partition formula against the j-expansion."""
    rep = VerificationReport(check="thm1_2", parameters={"max_n": max_n},
                             window=(1, max_n + 1))
    tables = partitions.c_formula_tables(max_n)
    j = forms.j_series(max_n + 1)
    for n in range(1, max_n + 1):
        rep.record(n, partitions.c_formula(n, tables), j.coeff(n))
    return rep


def verify_thm1_3(max_n: int) -> VerificationReport:
    """Signed-triangular-weight enumeration against the A(q) series coefficients."""
    partitions.enumeration_guard("partition", max_n)
    rep = VerificationReport(check="thm1_3", parameters={"max_n": max_n},
                             window=(1, max_n + 1))
    tables = partitions.stat_tables(max_n)
    for n in range(1, max_n + 1):
        rep.record(n, partitions.ts_sum_bruteforce(n), tables.a[n])
    return rep


def verify_eq17(max_n: int) -> VerificationReport:
    """u* from strongly unimodal enumeration against -spt + 2a."""
    partitions.enumeration_guard("unimodal", max_n)
    rep = VerificationReport(check="eq17", parameters={"max_n": max_n},
                             window=(1, max_n + 1))
    tables = partitions.stat_tables(max_n)
    ustar = partitions.ustar_bruteforce(max_n)
    for n in range(1, max_n + 1):
        rep.record(n, ustar[n], tables.ustar[n])
    return rep


def verify_cor1_5(max_n: int) -> VerificationReport:
    """The c(n) formula on the column 2a - u*: equals both the formula on spt and c(n),
    with the displayed c(1), c(2) decompositions itemized."""
    rep = VerificationReport(check="cor1_5", parameters={"max_n": max_n},
                             window=(1, max_n + 1))
    tables = partitions.c_formula_tables(max(max_n, 2))  # the c(2) splitting reads c(2)'s rows
    j = forms.j_series(max_n + 1)
    via_ustar = partitions.tables_via_ustar(tables)
    for n in range(1, max_n + 1):
        cg = partitions.c_formula(n, via_ustar)
        rep.record(n, cg, j.coeff(n))
        rep.record(n, cg, partitions.c_formula(n, tables))
    rep.details.extend(partitions.c1_c2_decompositions(tables))
    return rep


def verify_internal_identities(ncoeffs: int = 500, poly_max: int = 30) -> VerificationReport:
    """Cross-checks among the classical series and the polynomial bases."""
    rep = VerificationReport(check="internal_identities",
                             parameters={"coefficients": ncoeffs, "poly_max": poly_max},
                             window=(-poly_max, ncoeffs))
    # j * Delta is known one coefficient short of P, and the basis chain
    # reads poly_max + 2 coefficients of j.
    P = max(ncoeffs, poly_max + 1) + 1
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
    # B_1..B_poly_max and J_1..J_poly_max, all evaluated from one table of powers of j
    values = jbasis.eval_at_series(jbasis.b_polynomials(poly_max)
                                   + jbasis.faber_polynomials(poly_max)[1:], j)
    for n in range(1, poly_max + 1):
        bj, jn = values[n - 1], values[poly_max + n - 1]
        rep.compare(bj, alpha.shift(-n), hi=1, tag=f"B_{n}(j) = alpha q^-{n} + O(q)")
        rep.compare(alpha * jn, bj, hi=1, tag=f"alpha J_{n}(j) = B_{n}(j) + O(q)")
        rep.compare(jn, LaurentSeries(1, 0, -n, 1, [1]), hi=1, tag=f"J_{n}(j) = q^-{n} + O(q)")
    return rep
