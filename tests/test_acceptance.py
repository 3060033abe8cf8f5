"""Acceptance suite: every headline identity, exact to tolerance zero.

Each criterion prints a single pass/fail line (bypassing capture) and then
asserts, so the full ledger of outcomes is visible in any run log.
"""

import sys
import time
from fractions import Fraction

import pytest

from qspt import hecke, jbasis, partitions, verify
from qspt.hecke import HeckeContext


@pytest.fixture(scope="module")
def _line(request):
    """Print one pass/fail line per criterion, bypassing output capture."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def emit(num: int, ok: bool, desc: str) -> None:
        text = f"criterion {num:2d}: {'pass' if ok else 'FAIL'} - {desc}"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(text, flush=True)
        else:
            print(text, file=sys.__stdout__, flush=True)

    return emit


def test_criterion_01_c_formula(_line):
    t0 = time.monotonic()
    ok = hecke.c_formula(2) == [196884, 21493760]
    rep = verify.verify_thm1_2(max_n=20)
    dt = time.monotonic() - t0
    ok = ok and rep.passed and dt < 10
    _line(1, ok, f"c(n) partition formula matches j for n <= 20 ({dt:.1f}s)")
    assert ok, rep.mismatches[:3]


def test_criterion_02_hecke_identity_ell5(_line):
    t0 = time.monotonic()
    rep = verify.verify_thm11(5, 4800)
    dt = time.monotonic() - t0
    closed = hecke.m_ell_closed_form(HeckeContext(5), 4800)
    nontrivial = sum(1 for _ in closed.terms())
    ok = rep.passed and nontrivial >= 200 and dt < 120
    _line(2, ok, f"T(25) image equals closed form below 4800, "
                 f"{nontrivial} nonzero coefficients ({dt:.1f}s)")
    assert ok, rep.mismatches[:3]


def test_criterion_03_hecke_identity_ell7_ell11(_line):
    t0 = time.monotonic()
    rep7 = verify.verify_thm11(7, 2400)
    rep11 = verify.verify_thm11(11, 1200)
    dt = time.monotonic() - t0
    ok = rep7.passed and rep11.passed and dt < 600
    _line(3, ok, f"T(49) below 2400 and T(121) below 1200 ({dt:.1f}s)")
    assert ok, (rep7.mismatches[:2], rep11.mismatches[:2])


def test_criterion_04_m_ell_leading_coefficients(_line):
    m5 = hecke.m_ell(HeckeContext(5), 48)
    m7 = hecke.m_ell(HeckeContext(7), 48)
    m11 = hecke.m_ell(HeckeContext(11), 48)
    got = [m5.coeff(-25), m5.coeff(-1), m5.coeff(23),
           m7.coeff(-49), m7.coeff(-1), m7.coeff(23),
           m11.coeff(-121), m11.coeff(-1)]
    want = [Fraction(-5, 12), Fraction(-5, 12), Fraction(492205, 6),
            Fraction(-7, 12), Fraction(-7, 12), Fraction(149078125, 12),
            Fraction(-11, 12), Fraction(11, 12)]
    ok = got == want
    _line(4, ok, "leading coefficients of M_5, M_7, M_11")
    assert ok, got


def test_criterion_05_b_polynomials(_line):
    bs = jbasis.b_polynomials(50)
    ok = (bs[1] == (-745, 1)
          and bs[2] == (357395, -1489, 1)
          and bs[4] == (49476686690, -812685832, 2732795, -2977, 1))
    ok = ok and all(len(b) == m and b[-1] == 1
                    for m, b in enumerate(bs, start=1))
    _line(5, ok, "B_2, B_3, B_5 coefficients; monic integer B_m for m <= 50")
    assert ok


def test_criterion_06_signed_weight_sum(_line):
    t0 = time.monotonic()
    rep = verify.verify_thm1_3(max_n=40)
    dt = time.monotonic() - t0
    ok = rep.passed and dt < 30
    _line(6, ok, f"signed triangular weights match the a(n) series, "
                 f"n <= 40 ({dt:.1f}s)")
    assert ok, rep.mismatches[:3]


def test_criterion_07_unimodal_rank_count(_line):
    rep = verify.verify_eq17(max_n=30)
    ok = rep.passed and partitions.ustar_column(6)[1:] == [1, 1, -1, 0, -2, 2]
    _line(7, ok, "u*(n) enumeration equals -spt + 2a for n <= 30")
    assert ok, rep.mismatches[:3]


def test_criterion_08_congruence_suite(_line):
    rep_a = verify.check_congruences("andrews", max_n=200)
    rep_5 = verify.check_congruences("eq5", max_n=200, ell=5)
    rep_c = verify.check_congruences("cor1_4", max_n=200, ell=5, m=1)
    ok = rep_a.passed and rep_5.passed and rep_c.passed
    _line(8, ok, "spt congruences mod 5/7/13 and the mod-5 index family, "
                 "n <= 200")
    assert ok


def test_criterion_09_internal_identities(_line):
    rep = verify.verify_internal_identities(ncoeffs=500, poly_max=30)
    ok = rep.passed
    _line(9, ok, "series cross-identities to 500 coefficients; "
                 "basis chains for n <= 30")
    assert ok, rep.mismatches[:3]


def test_criterion_10_divisibility(_line):
    reps = [verify.verify_mod_ell(ell, window)
            for ell, window in ((5, 4800), (7, 2400), (11, 1200))]
    ok = all(r.passed for r in reps)
    _line(10, ok, "12*M_ell is integral and divisible by ell on full windows")
    assert ok


def test_criterion_11_decompositions(_line):
    rep = verify.verify_cor1_5(max_n=20)
    ok = rep.passed
    ok = ok and any("2 + 49 + 15708 + 181125" in d and d.endswith("= 196884")
                    for d in rep.details)
    ok = ok and sum(1 for d in rep.details if d.endswith("= 21493760")) == 2
    _line(11, ok, "c(n) via u*/a weights for n <= 20 with itemized "
                  "c(1), c(2) splittings")
    assert ok, rep.details


def test_criterion_12_larger_primes_and_m2(_line):
    t0 = time.monotonic()
    reps = []
    for ell, window in ((13, 480), (17, 480), (19, 400), (23, 240)):
        reps += [verify.verify_thm11(ell, window), verify.verify_mod_ell(ell, window)]
    for ell, max_n in ((5, 200), (7, 60)):
        reps += [verify.check_congruences(family, max_n=max_n, ell=ell, m=2)
                 for family in ("eq6", "cor1_4")]
    dt = time.monotonic() - t0
    ok = all(r.passed for r in reps) and dt < 5
    _line(12, ok, f"T(ell^2) closed form and divisibility for ell = 13..23; "
                  f"eq6 and cor1_4 mod ell^2 for ell = 5, 7 ({dt:.1f}s)")
    assert ok, [(r.check, r.parameters, r.mismatches[:2]) for r in reps if not r.passed]
