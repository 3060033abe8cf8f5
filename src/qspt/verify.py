"""Top-level verification drivers: one function per theorem/corollary check,
each returning a VerificationReport. This is the one module that builds a report."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from . import forms, hecke, jbasis, partitions
from .arith import euler_criterion, require_hecke_prime, to_decimal
from .errors import QsptError, UnknownCheck
from .hecke import HeckeContext
from .report import VerificationReport
from .series import LaurentSeries


def _hecke_report(check: str, ell: int,
                  window: int | None) -> tuple[HeckeContext, VerificationReport]:
    """The context of ell and an empty report over [-ell^2, window). ell is refused first;
    then a window of None defaults to 4800 for ell = 5, 2400 for 7 and 1200 otherwise, cut
    to the largest multiple of 24 whose deepest row fits partitions.MAX_TABLE_ROW."""
    ctx = HeckeContext(ell)
    if window is None:
        window = {5: 4800, 7: 2400}.get(ell, 1200)
        while hecke.mell_terms(ctx, window // 24)[0][1] > partitions.MAX_TABLE_ROW:
            window -= 24
    return ctx, VerificationReport(check=check, parameters={"ell": ell, "window": window},
                                   window=(-ell ** 2, window))


def verify_thm11(ell: int, window: int | None = None) -> VerificationReport:
    """Compare M_ell from the Hecke definition against the closed form,
    exponent by exponent up to the window bound (exclusive; None for the default)."""
    ctx, rep = _hecke_report("thm1_1", ell, window)
    lo, hi = rep.window
    rep.compare(hecke.m_ell(ctx, hi), hecke.m_ell_closed_form(ctx, hi), lo, hi)
    return rep


def verify_mod_ell(ell: int, window: int | None = None) -> VerificationReport:
    """Check 12 (M+ | T(ell^2)) = (3|ell) 12 M+ (mod ell) on integer-cleared
    coefficients, i.e. every coefficient of 12 M_ell lies in ell*Z, below the window
    (None for the default)."""
    ctx, rep = _hecke_report("eq9_mod_ell", ell, window)
    for e, c in hecke.m_ell(ctx, rep.window[1]).scale(12).terms():
        # a non-integral c leaves a non-integral, hence nonzero, residue
        rep.record(e, c % ell, 0)
    return rep


def _c_formula_against_j(check: str, max_n: int) -> VerificationReport:
    """c(n) from the M_5 partition formula against the j-expansion, n <= max_n."""
    rep = VerificationReport(check=check, parameters={"max_n": max_n},
                             window=(1, max_n + 1))
    cs = hecke.c_formula(max_n)  # first: a max_n past the row cap builds no j
    j = forms.j_series(max_n + 1)
    for n, c in enumerate(cs, 1):
        rep.record(n, c, j.coeff(n))
    return rep


def verify_thm1_2(max_n: int) -> VerificationReport:
    """c(n) from the M_5 partition formula against the j-expansion."""
    return _c_formula_against_j("thm1_2", max_n)


def verify_thm1_3(max_n: int) -> VerificationReport:
    """The signed triangular weight summed over the partitions of n, computed from
    its definition with a size guard, against the A(q) series coefficients."""
    partitions.enumeration_guard("partition", max_n)
    rep = VerificationReport(check="thm1_3", parameters={"max_n": max_n},
                             window=(1, max_n + 1))
    a = partitions.column("a", max_n)  # the a column alone, with no spt solve
    ts = partitions.ts_sum_bruteforce(max_n)
    for n in range(1, max_n + 1):
        rep.record(n, ts[n], a[n])
    return rep


def verify_eq17(max_n: int) -> VerificationReport:
    """u* from strongly unimodal enumeration against -spt + 2a."""
    partitions.enumeration_guard("unimodal", max_n)
    rep = VerificationReport(check="eq17", parameters={"max_n": max_n},
                             window=(1, max_n + 1))
    by_eq17 = partitions.ustar_column(max_n)
    ustar = partitions.ustar_bruteforce(max_n)
    for n in range(1, max_n + 1):
        rep.record(n, ustar[n], by_eq17[n])
    return rep


def verify_cor1_5(max_n: int) -> VerificationReport:
    """The c(n) formula, its spt terms 2a - u* by eq (17), against c(n), with the
    displayed c(1), c(2) decompositions itemized."""
    rep = _c_formula_against_j("cor1_5", max_n)
    rep.details.extend(hecke.c1_c2_decompositions())
    return rep


def verify_internal_identities(ncoeffs: int = 500, poly_max: int = 30) -> VerificationReport:
    """Cross-checks among the classical series and the polynomial bases."""
    rep = VerificationReport(check="internal_identities",
                             parameters={"coefficients": ncoeffs, "poly_max": poly_max},
                             window=(-poly_max, ncoeffs))
    # j * Delta is known one coefficient short of P, and the basis chain
    # reads poly_max + 2 coefficients of j.
    P = max(ncoeffs, poly_max + 1) + 1
    e4_cubed = forms.eisenstein_e4(P).pow(3)
    e6 = forms.eisenstein_e6(P)
    delta = forms.delta_series(P)
    euler = forms.euler_series(P)
    j = forms.j_series(P)
    jp = forms.jprime_neg_series(P)

    rep.compare(delta, euler.pow(24).shift(1), hi=ncoeffs, tag="delta = eta^24")
    rep.compare(delta, (e4_cubed - e6.pow(2)).scale(Fraction(1, 1728)), hi=ncoeffs,
                tag="delta = (E4^3 - E6^2)/1728")
    rep.compare(jp, -j.q_derive(), hi=ncoeffs, tag="-q dj/dq = E4^2 E6/Delta")
    rep.compare(j * delta, e4_cubed, hi=ncoeffs, tag="j * Delta = E4^3")

    # The chain alpha J_n(j) = B_n(j) = alpha q^-n + O(q) holds modulo
    # O(q); exact equality of the first pair is impossible on weight
    # grounds, so every comparison stops below exponent 1, and poly_max + 2
    # coefficients of j and alpha are all that it reads.
    j = j.truncate(poly_max + 2)
    alpha = forms.alpha_series(poly_max + 2)
    rep.record(0, alpha.coeff(0), 0)
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


# ----------------------------------------------------------------------
# congruence checking

def spt_family_instances(ell: int, m: int, max_n: int, sign: str,
                         order: int = 1) -> Iterator[tuple[int, int]]:
    """(n, index) pairs with an integral index (ell^2m * n -+ 1)/24 and (-n|ell) = 1,
    for a prime ell >= 5 that the caller has checked (check_congruences does, once),
    in increasing n, or in decreasing n for order -1. As ell^2m = 1 mod 24, the
    integral indices are those of n = -+1 mod 24."""
    power = ell ** (2 * m)
    shift, first = (1, 23) if sign == "plus" else (-1, 1)
    return ((n, (power * n + shift) // 24) for n in range(first, max_n + 1, 24)[::order]
            if euler_criterion(-n, ell) == 1)


_ANDREWS = ((5, 4), (7, 5), (13, 6))  # (mod, res): spt(mod n + res) = 0 mod mod
_FAMILIES = {"andrews": ("andrews",), "eq5": ("eq5",), "eq6": ("eq6",),
             "cor1_4": ("cor1_4",), "all": ("andrews", "eq5", "cor1_4")}


def _family_reads(family: str, max_n: int, ell: int, m: int, sign: str,
                  order: int = 1) -> list[tuple[int, Iterable[int]]]:
    """The rows a congruence family reads, for its table size and its check alike, as
    (modulus, indices) per group: Andrews' three progressions; for eq5 and eq6 the
    given sign convention, then the other; for cor1_4 the given convention only.
    The indices come in increasing order, or in decreasing order for order -1."""
    if family == "andrews":
        return [(mod, range(res, mod * max_n + res + 1, mod)[::order]) for mod, res in _ANDREWS]
    mm = 1 if family == "eq5" else m
    signs = (sign,) if family == "cor1_4" else (sign, "minus" if sign == "plus" else "plus")
    return [(ell ** mm, (idx for _, idx in spt_family_instances(ell, mm, max_n, s, order)))
            for s in signs]


def _congruence_rows(family: str, max_n: int, ell: int, m: int, sign: str) -> int:
    """The deepest table row a congruence family reads, 0 if none; for 'all', the deepest
    of its three. Each group's first index in decreasing order lists nothing: the walk
    down from max_n meets its largest n within ell steps, as 24 is a unit mod ell."""
    return max(next(iter(indices), 0) for f in _FAMILIES[family]
               for _, indices in _family_reads(f, max_n, ell, m, sign, -1))


def _require_family_rows(ell: int, m: int) -> None:
    """Refuse congruences mod ell^m whose smallest index (ell^2m - 1)/24 is past
    MAX_TABLE_ROW, before the primality test of ell; with ell^2 >= 25 the loop
    stops within five steps, whatever m."""
    power = 1
    for _ in range(m):
        power *= ell * ell
        if power > 24 * partitions.MAX_TABLE_ROW + 1:
            raise QsptError(f"tables capped at row {partitions.MAX_TABLE_ROW:,}, and every index "
                            f"(ell^{to_decimal(2 * m)} n -+ 1)/24 of ell = {ell} is past it")


def check_congruences(family: str, max_n: int, ell: int = 5, m: int = 1,
                      sign: str = "plus") -> VerificationReport:
    """Verify one congruence family over the requested range.

    Families: 'andrews' (the mod 5/7/13 spt congruences), 'eq5' (the mod-ell
    family), 'eq6' (mod ell^m), 'cor1_4' (u* = 2a mod ell^m at the same
    indices), 'all' (every family at its defaults). The spt table is sized once,
    for the deepest row of every family, before any family runs, so a request
    past its cap builds nothing; no family reads p or a."""
    if family not in _FAMILIES:
        raise UnknownCheck(f"unknown congruence family {family!r}")
    if family != "andrews":
        if ell >= 5:  # a smaller ell is refused at once, before ell^2m is formed
            _require_family_rows(ell, 1 if family == "eq5" else m)
        require_hecke_prime(ell)
    rep = VerificationReport(check=f"congruences:{family}",
                             parameters={"max_n": max_n, "ell": ell, "m": m,
                                         "sign_convention": sign},
                             window=(1, max_n + 1))
    spt = partitions.column("spt", _congruence_rows(family, max_n, ell, m, sign))
    for fam in _FAMILIES[family]:
        before, lines = len(rep.mismatches), []
        reads = _family_reads(fam, max_n, ell, m, sign)
        if fam == "andrews":
            for mod, indices in reads:
                for idx in indices:
                    rep.record(idx, spt[idx] % mod, 0)
                lines.append(f"spt({mod}n+{indices.start}) = 0 mod {mod}: n <= {max_n}")
        else:
            # cor1_4 reads u* - 2a, which is -spt by eq (17), at the given convention
            # alone; eq5 and eq6 read spt at both, and record the given one
            sgn = -1 if fam == "cor1_4" else 1
            [(mod, indices), *other] = [(mod, list(idx)) for mod, idx in reads]
            for idx in indices:
                rep.record(idx, sgn * spt[idx] % mod, 0)
            for _, rest in other:
                bad = sum(1 for idx in rest if spt[idx] % mod)
                lines = [f"convention '{sign}': {len(indices)} integral indices, "
                         f"{len(rep.mismatches) - before} failures",
                         f"other convention: {len(rest)} integral indices, {bad} failures"]
        if family == "all":  # each line names its family; cor1_4, with no lines, its status
            status = "pass" if len(rep.mismatches) == before else "fail"
            lines = [f"{fam}: {line}" for line in lines or [status]]
        rep.details += lines
    return rep
