"""Polynomial bases in j: displayed values, structure, generating identities,
and their evaluation at a series argument."""

from fractions import Fraction

import hypothesis
from hypothesis import example, given
from hypothesis import strategies as st

from qspt import forms, jbasis
from qspt.jbasis import IntPolynomial
from qspt.series import LaurentSeries


def test_int_polynomial_basics():
    p = IntPolynomial([1, 2, 3])
    q = IntPolynomial([0, 0, 0, 5])
    assert p.degree == 2 and q.degree == 3
    assert IntPolynomial([1, 2, 3, 0, 0]).coefficients == (1, 2, 3)
    assert IntPolynomial([0, 0]).coefficients == () and IntPolynomial([]).degree == -1
    assert p(10) == 321
    assert p(Fraction(1, 2)) == Fraction(11, 4)


def test_b_polynomials_displayed():
    bs = jbasis.b_polynomials(3)
    assert bs[0] == IntPolynomial([1])
    assert bs[1] == IntPolynomial([-745, 1])
    assert bs[2] == IntPolynomial([357395, -1489, 1])


def test_b5_coefficients():
    # constant term independently forced: with it B_5 satisfies the ell = 11
    # closed-form identity, with the last digit dropped it does not
    b5 = jbasis.b_polynomials(5)[4]
    assert b5 == IntPolynomial([49476686690, -812685832, 2732795, -2977, 1])


def test_b_polynomials_monic_integer_degree():
    bs = jbasis.b_polynomials(50)
    for m, b in enumerate(bs, start=1):
        assert b.degree == m - 1
        assert b.is_monic()
        assert all(isinstance(c, int) for c in b.coefficients)


def test_b_generating_identity_at_sample_points():
    # (j - x0) * sum_m B_m(x0) q^m = (q;q)_inf + O(q^M) for scalar x0
    M = 32
    j = forms.j_series(M)
    euler = forms.euler_series(M)
    bs = jbasis.b_polynomials(M)
    for x0 in (0, 1, -3, 7, 744):
        gen = LaurentSeries.from_terms(
            {m: b(x0) for m, b in enumerate(bs, start=1)}, M, stride=1, offset=0)
        lhs = (j - LaurentSeries(1, 0, 0, M, [Fraction(x0)])) * gen
        assert lhs.agrees_with(euler, lo=0, hi=M - 1)


def test_faber_polynomials_displayed():
    js = jbasis.faber_polynomials(2)
    assert js[0] == IntPolynomial([1])
    assert js[1] == IntPolynomial([-744, 1])
    assert js[2].degree == 2 and js[2].is_monic()


def test_faber_generating_identity_at_sample_points():
    M = 20
    j = forms.j_series(M)
    d = forms.jprime_neg_series(M)
    js = jbasis.faber_polynomials(M)
    for x0 in (0, 2, -5):
        gen = LaurentSeries.from_terms(
            {m: p(x0) for m, p in enumerate(js) if p(x0)}, M, stride=1, offset=0)
        lhs = (j - LaurentSeries(1, 0, 0, M, [Fraction(x0)])) * gen
        assert lhs.agrees_with(d, lo=-1, hi=M - 1)


def test_eval_at_j24():
    b2 = jbasis.b_polynomials(2)[1]
    f = jbasis.eval_at_j24(b2, 30)
    assert f.coeff(-24) == 1
    assert f.coeff(0) == 744 - 745
    assert f.coeff(24) == 196884
    const = jbasis.eval_at_j24(IntPolynomial([3]), 10)
    assert f.stride == 24
    assert const.coeff(0) == 3


def test_eval_at_series_matches_horner():
    j = forms.j_series(12)
    p = jbasis.b_polynomials(4)[3]
    direct = (j * j * j + j * j * p.coefficients[2]
              + j * p.coefficients[1] + forms.j_series(12).pow(0) * p.coefficients[0])
    [value] = jbasis.eval_at_series([p], j)
    assert value.agrees_with(direct)


def _horner(poly, s):
    """poly(s) by Horner's rule: the reference for the power-table evaluation,
    including the precision it assigns."""
    if not poly.coefficients:
        return LaurentSeries.zero(s.precision - s.valuation, s.stride, 0)
    acc = LaurentSeries(s.stride, 0, 0, s.precision - s.valuation * poly.degree,
                        [poly.coefficients[-1]])
    for c in reversed(poly.coefficients[:-1]):
        acc = acc * s
        if c:
            acc = acc + LaurentSeries(s.stride, 0, 0, acc.precision, [c])
    return acc


@st.composite
def arguments_and_polynomials(draw):
    """A series argument of valuation -1, 0 or positive, stride 1 or 24 and
    denominator 1 or not, and polynomials (zero and constant among them) whose
    Horner value is defined."""
    stride = draw(st.sampled_from((1, 24)))
    val = draw(st.sampled_from((-1, 0, 1, 2))) * draw(st.sampled_from((1, stride)))
    nums = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=6))
    nums[0] = draw(st.integers(1, 9)) * draw(st.sampled_from((1, -1)))
    length = (len(nums) - 1) * stride + 1 + draw(st.integers(0, stride - 1))
    s = LaurentSeries(stride, val % stride, val, val + length, nums,
                      draw(st.sampled_from((1, 1, 3, 4))))
    polys = draw(st.lists(st.lists(st.integers(-30, 30), max_size=6), min_size=1, max_size=5))
    polys = [IntPolynomial(cs) for cs in polys]
    # Horner's rule builds its top coefficient below precision - val * degree and
    # its value below precision + (degree - 1) * min(val, 0); both must be positive
    hypothesis.assume(all(s.precision - max(val, 0) * p.degree >= 1 and
                          s.precision + (p.degree - 1) * min(val, 0) >= 1 for p in polys))
    return s, polys


@given(arguments_and_polynomials())
# 1, s and s^2 lie on three progressions mod 24, and s is known past s^2
@example((LaurentSeries(24, 23, -1, 48, [1, 2, 3]),
          [IntPolynomial([1, 1, 1]), IntPolynomial([0, 5, 0, 1])]))
# both bases at j, as the internal identities evaluate them
@example((forms.j_series(12), jbasis.b_polynomials(8) + jbasis.faber_polynomials(8)))
def test_power_table_evaluation_matches_horner(case):
    s, polys = case
    got = jbasis.eval_at_series(polys, s)
    assert [g.to_json_dict("v") for g in got] == [_horner(p, s).to_json_dict("v") for p in polys]

