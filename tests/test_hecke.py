"""Hecke action on half-integral weight expansions and the closed-form identity."""

import random
from fractions import Fraction

import pytest

from qspt import forms, hecke
from qspt.errors import BadModulus, BadSupport
from qspt.hecke import HeckeContext
from qspt.series import LaurentSeries


def test_context_validation():
    for bad in (2, 3, 4, 6, 9, 15):
        with pytest.raises(BadModulus):
            HeckeContext(bad)
    assert HeckeContext(5).delta_ell == 1
    assert HeckeContext(7).delta_ell == 2
    assert HeckeContext(11).delta_ell == 5
    assert HeckeContext(13).delta_ell == 7
    assert [HeckeContext(p).eps3 for p in (5, 7, 11, 13)] == [-1, -1, 1, 1]


def test_spt_gen24(tables):
    s = hecke.spt_gen24(480, tables)
    assert s.stride == 24 and s.offset == 23
    assert [s.coeff(24 * n - 1) for n in range(1, 7)] == [1, 3, 5, 10, 14, 26]


def test_m_plus_leading_coefficients(tables):
    mp = hecke.m_plus(120, tables)
    assert mp.coeff(-1) == Fraction(-1, 12)
    assert mp.coeff(23) == Fraction(35, 12)
    assert mp.coeff(47) == Fraction(65, 6)
    assert mp.coeff(71) == Fraction(91, 4)


def test_hecke_on_monomial():
    ctx = HeckeContext(5)
    f = LaurentSeries(24, 23, -1, 600, [Fraction(1)])
    g = hecke.hecke_t(f, ctx)
    assert g.coeff(-25) == 5
    assert g.coeff(-1) == -1
    assert sum(1 for _ in g.terms()) == 2


def test_hecke_requires_support():
    ctx = HeckeContext(5)
    with pytest.raises(BadSupport):
        hecke.hecke_t(forms.j_series(10), ctx)
    with pytest.raises(BadSupport):
        hecke.hecke_t(forms.eta24_series(100), ctx)


def test_hecke_linearity():
    ctx = HeckeContext(7)
    rng = random.Random(3)
    for _ in range(10):
        fa = {24 * rng.randrange(-2, 40) - 1: rng.randrange(-9, 9) for _ in range(8)}
        ga = {24 * rng.randrange(-2, 40) - 1: rng.randrange(-9, 9) for _ in range(8)}
        f = LaurentSeries.from_terms(fa, 2500, stride=24, offset=23)
        g = LaurentSeries.from_terms(ga, 2500, stride=24, offset=23)
        lhs = hecke.hecke_t(f + g, ctx)
        rhs = hecke.hecke_t(f, ctx) + hecke.hecke_t(g, ctx)
        assert lhs.agrees_with(rhs)


def test_m_ell_principal_parts(tables):
    # principal part of M_ell is -(ell/12) q^(-ell^2) + (3|ell)(ell/12) q^(-1)
    for ell in (5, 7, 11, 13):
        ctx = HeckeContext(ell)
        prec = 24
        mell = hecke.m_ell(ctx, prec, tables)
        assert mell.coeff(-ctx.ell ** 2) == Fraction(-ell, 12)
        assert mell.coeff(-1) == Fraction(ctx.eps3 * ell, 12)


def test_m_ell_displayed_coefficients(tables):
    m5 = hecke.m_ell(HeckeContext(5), 48, tables)
    assert m5.coeff(23) == Fraction(492205, 6)
    m7 = hecke.m_ell(HeckeContext(7), 48, tables)
    assert m7.coeff(23) == Fraction(149078125, 12)


def test_closed_form_matches_definition_small(tables):
    for ell in (5, 7):
        rep = hecke.verify_thm11(HeckeContext(ell), 240, tables)
        assert rep.passed, rep.mismatches[:3]


def test_thm11_rhs_equals_hecke_image(tables):
    ctx = HeckeContext(5)
    mp = hecke.m_plus(240 * 25, tables)
    image = hecke.hecke_t(mp, ctx)
    rhs = hecke.thm11_rhs(ctx, 240, tables)
    assert image.truncate(240).agrees_with(rhs)


def test_r_ell_series(tables):
    ctx = HeckeContext(5)
    r = hecke.r_ell_series(ctx, 120)
    assert r.coeff(-24) == -1
    assert r.coeff(24) == 196884
    assert r.coeff(48) == 42987520
    # r_ell(q) = (12/ell) eta(24 tau) M_ell
    prod = (forms.eta24_series(130) * hecke.m_ell(ctx, 130, tables)).scale(
        Fraction(12, ctx.ell))
    assert r.agrees_with(prod, hi=100)


def test_verify_mod_ell_small(tables):
    rep = hecke.verify_mod_ell(HeckeContext(5), 240, tables)
    assert rep.passed


def test_thm11_fails_at_corrupted_exponent(spt3_plus):
    rep = hecke.verify_thm11(HeckeContext(5), 120, spt3_plus(1))
    assert rep.status == "fail"
    assert [m.exponent for m in rep.mismatches] == [71]


def test_verify_mod_ell_non_integral_fails(spt3_plus):
    rep = hecke.verify_mod_ell(HeckeContext(5), 120, spt3_plus(Fraction(1, 7)))
    assert rep.status == "fail"
    assert [m.exponent for m in rep.mismatches] == [71]
    assert rep.mismatches[0].lhs.denominator == 7
