"""Hecke action on half-integral weight expansions and the closed-form identity."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from qspt import arith, forms, hecke, jbasis, verify
from qspt.errors import BadModulus, BadSupport, OutOfPrecision, QsptError
from qspt.hecke import HeckeContext
from qspt.series import LaurentSeries

import hecke_golden


def test_context_validation():
    for bad in (2, 3, 4, 6, 9, 15):
        with pytest.raises(BadModulus):
            HeckeContext(bad)
    assert HeckeContext(5).delta_ell == 1
    assert HeckeContext(7).delta_ell == 2
    assert HeckeContext(11).delta_ell == 5
    assert HeckeContext(13).delta_ell == 7
    assert [HeckeContext(p).eps3 for p in (5, 7, 11, 13)] == [-1, -1, 1, 1]


def test_context_caps_delta_before_the_primality_test(monkeypatch):
    assert HeckeContext(71).delta_ell == hecke.MAX_DELTA == 210
    tested = []
    monkeypatch.setattr(arith, "is_prime", lambda n: tested.append(n))
    for ell in (73, 1009, 10 ** 40 + 1):
        with pytest.raises(QsptError, match=f"ell capped at .* <= 210 .*got {ell}$"):
            HeckeContext(ell)
    assert tested == []


def test_context_is_an_immutable_value():
    ctx = HeckeContext(5)
    assert ctx == HeckeContext(5) and hash(ctx) == hash(HeckeContext(5))
    assert ctx != HeckeContext(7)
    assert repr(ctx) == "HeckeContext(ell=5)"
    for attr in ("ell", "other"):
        with pytest.raises(AttributeError):
            setattr(ctx, attr, 7)
    with pytest.raises(BadModulus, match=r"^ell must be a prime >= 5, got 4$"):
        HeckeContext(4)
    with pytest.raises(QsptError, match=r"^ell capped at delta_ell = \(ell\^2 - 1\)/24 <= 210 "
                                        r"\(ell <= 71\), got 73$"):
        HeckeContext(73)


def test_spt_gen24():
    s = hecke.spt_gen24(480)
    assert s.stride == 24 and s.offset == 23
    assert [s.coeff(24 * n - 1) for n in range(1, 7)] == [1, 3, 5, 10, 14, 26]


def test_m_plus_leading_coefficients():
    mp = hecke.m_plus(120)
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
        assert lhs == rhs


@pytest.mark.parametrize("ell", [5, 7, 11, 13, 23])
@pytest.mark.parametrize("P", [1, 23, 24, 25, 48, 240])
def test_m_ell_matches_the_operator_definition(ell, P):
    ctx = HeckeContext(ell)
    mp = hecke.m_plus(P * ell ** 2)
    by_definition = hecke.hecke_t(mp, ctx) - mp.truncate(P).scale(ctx.eps3 * (1 + ell))
    name = f"m_ell:{ell}"
    assert hecke.m_ell(ctx, P).to_json_dict(name) == by_definition.to_json_dict(name)
    # the closed-form side against its construction by series products: -q dj/dq from
    # E4^2 E6, B_delta at a second j, and P(q) from partition_gen24 by Kronecker product
    assert (hecke.r_ell_series(ctx, P).to_json_dict("r")
            == _r_ell_by_products(ctx, P).to_json_dict("r"))
    by_products = (forms.partition_gen24(P + 24 * ctx.delta_ell + 48)
                   * _r_ell_by_products(ctx, P + 24)).scale(Fraction(ell, 12)).truncate(P)
    assert (hecke.m_ell_closed_form(ctx, P).to_json_dict(name)
            == by_products.to_json_dict(name))


def _r_ell_by_products(ctx, P):
    nmax = -(-P // 24) + 2
    jp24 = forms.jprime_neg_series(nmax + ctx.delta_ell + 2).stride_expand(24)
    beval = jbasis.eval_at_j24(jbasis.b_polynomials(ctx.delta_ell)[-1], 24 * (nmax + 2))
    return ((-jp24) * beval).truncate(P)


def test_m_ell_principal_parts():
    # principal part of M_ell is -(ell/12) q^(-ell^2) + (3|ell)(ell/12) q^(-1)
    for ell in (5, 7, 11, 13):
        ctx = HeckeContext(ell)
        prec = 24
        mell = hecke.m_ell(ctx, prec)
        assert mell.coeff(-ctx.ell ** 2) == Fraction(-ell, 12)
        assert mell.coeff(-1) == Fraction(ctx.eps3 * ell, 12)


def test_m_ell_displayed_coefficients():
    m5 = hecke.m_ell(HeckeContext(5), 48)
    assert m5.coeff(23) == Fraction(492205, 6)
    m7 = hecke.m_ell(HeckeContext(7), 48)
    assert m7.coeff(23) == Fraction(149078125, 12)


def test_closed_form_matches_definition_small():
    for ell in (5, 7):
        rep = verify.verify_thm11(ell, 240)
        assert rep.passed, rep.mismatches[:3]


def test_r_ell_series():
    ctx = HeckeContext(5)
    r = hecke.r_ell_series(ctx, 120)
    assert r.coeff(-24) == -1
    assert r.coeff(24) == 196884
    assert r.coeff(48) == 42987520
    # r_ell(q) = (12/ell) eta(24 tau) M_ell
    prod = (forms.eta24_series(130) * hecke.m_ell(ctx, 130)).scale(
        Fraction(12, ctx.ell))
    assert r.truncate(100) == prod.truncate(100)


def test_verify_mod_ell_small():
    rep = verify.verify_mod_ell(5, 240)
    assert rep.passed


def test_thm11_fails_at_corrupted_exponent(perturbed):
    # spt(3) is the coefficient of q^71 in M+
    perturbed("spt", 3)
    rep = verify.verify_thm11(5, 120)
    assert rep.status == "fail"
    assert [m.exponent for m in rep.mismatches] == [71]


@pytest.mark.parametrize("exponent, first", [(1, 23), (3, 71)])
def test_thm11_fails_where_a_perturbed_j_reaches_the_closed_form(perturbed_j, exponent, first):
    # B_1 = 1 at ell = 5, so the bump reaches the closed form through q dj/dq alone:
    # c(k) + 1 adds k q^(24k) to r_5, and P(q) spreads it to every exponent from 24k - 1 on
    perturbed_j(exponent)
    rep = verify.verify_thm11(5, 240)
    assert [m.exponent for m in rep.mismatches] == list(range(first, 240, 24))


def test_verify_mod_ell_non_integral_fails(perturbed):
    perturbed("spt", 3, Fraction(1, 7))
    rep = verify.verify_mod_ell(5, 120)
    assert rep.status == "fail"
    assert [m.exponent for m in rep.mismatches] == [71]
    assert rep.mismatches[0].lhs.denominator == 7


@pytest.mark.parametrize("ell", sorted({hecke_golden.ell_of(k) for k in hecke_golden.recorded()
                                        if hecke_golden.ell_of(k) <= 47}))
def test_hecke_side_keeps_its_digests(ell):
    # r_ell and the closed form at precisions 24 and 240, and the thm1_1 reports at
    # ell = 23 and 47; hecke_golden.py checks 53 <= ell <= 71 as a script
    want = {k: v for k, v in hecke_golden.recorded().items() if hecke_golden.ell_of(k) == ell}
    assert {k: hecke_golden.digest(k) for k in want} == want


def test_hecke_golden_reports_the_keys_past_the_cap_as_unchecked():
    # 73 <= ell <= 109 lie past hecke.MAX_DELTA, so the script builds nothing
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(hecke.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, os.path.join(here, "hecke_golden.py"), "73", "109"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == 36
    assert all(": unchecked (ell capped at delta_ell" in line for line in lines)


def test_hecke_golden_lets_errors_within_the_cap_through(monkeypatch, capsys):
    # only HeckeContext's refusal reads as unchecked: a failing build within the
    # cap propagates (the script exits 1 on it), and a wrong digest returns 1
    def fail(key):
        raise OutOfPrecision(f"{key} failed")
    monkeypatch.setattr(hecke_golden, "digest", fail)
    with pytest.raises(OutOfPrecision):
        hecke_golden.check(5, 5)
    monkeypatch.setattr(hecke_golden, "digest", lambda key: "0" * 64)
    assert hecke_golden.check(5, 7) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.endswith(": MISMATCH") for line in lines)
