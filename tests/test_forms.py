"""Classical series constructors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspt import forms


def test_euler_series_pentagonal_signs():
    f = forms.euler_series(30)
    expect = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1, 22: 1, 26: 1}
    for e in range(30):
        assert f.coeff(e) == expect.get(e, 0)


def test_eta24_support_and_values():
    f = forms.eta24_series(200)
    assert f.stride == 24 and f.offset == 1
    assert f.coeff(1) == 1
    assert f.coeff(25) == -1
    assert f.coeff(49) == -1
    assert f.coeff(73) == 0
    assert f.coeff(121) == 1


def test_partition_gen24_is_eta24_inverse():
    pg = forms.partition_gen24(240)
    assert pg.coeff(-1) == 1
    assert pg.coeff(23) == 1
    assert pg.coeff(4 * 24 - 1) == 5
    prod = pg * forms.eta24_series(240)
    assert prod.coeff(0) == 1
    assert all(c == 0 for e, c in prod.terms() if e != 0)


def test_eisenstein_series():
    e4 = forms.eisenstein_e4(4)
    assert [e4.coeff(n) for n in range(4)] == [1, 240, 2160, 6720]
    e6 = forms.eisenstein_e6(4)
    assert [e6.coeff(n) for n in range(4)] == [1, -504, -16632, -122976]


def test_delta_series():
    d = forms.delta_series(5)
    assert [d.coeff(n) for n in range(1, 5)] == [1, -24, 252, -1472]


def test_delta_equals_eta_power_24():
    d = forms.delta_series(40)
    eta24 = forms.euler_series(40).pow(24).shift(1)
    assert d.agrees_with(eta24)


@given(st.integers(0, 90))
def test_j_and_jprime_neg_equal_division_by_delta(P):
    # the sparse divisions by (q;q)_inf^3 against the dense division by Delta
    q = P + 2  # a quotient by Delta, of valuation 1, is known 2 exponents short
    e4, e6, delta = forms.eisenstein_e4(q), forms.eisenstein_e6(q), forms.delta_series(q)
    assert forms.j_series(P).to_json_dict("j") == (e4.pow(3) / delta).to_json_dict("j")
    assert (forms.jprime_neg_series(P).to_json_dict("jp")
            == (e4.pow(2) * e6 / delta).to_json_dict("jp"))


def test_j_series_display():
    j = forms.j_series(4)
    assert [j.coeff(n) for n in range(-1, 4)] == [
        1, 744, 196884, 21493760, 864299970]


def test_jprime_neg_display():
    jp = forms.jprime_neg_series(3)
    assert jp.coeff(-1) == 1
    assert jp.coeff(0) == 0
    assert jp.coeff(1) == -196884
    assert jp.coeff(2) == -42987520


def test_jprime_neg_is_minus_j_derivative():
    jp = forms.jprime_neg_series(50)
    assert jp.agrees_with(-forms.j_series(50).q_derive())


def test_alpha_series():
    a = forms.alpha_series(4)
    assert [a.coeff(n) for n in range(4)] == [0, 1, -1, 196883]
    # defining relation: alpha * (-q dj/dq) = (q;q)_inf
    a = forms.alpha_series(60)
    assert (a * forms.jprime_neg_series(60)).agrees_with(
        forms.euler_series(60), lo=0, hi=55)


def test_constructors_return_requested_precision():
    for name, build in forms._CONSTRUCTORS.items():
        for P in (1, 2, 30):
            assert build(P).precision == P, (name, P)


@pytest.mark.parametrize("name", sorted(forms._CONSTRUCTORS))
@settings(deadline=None, max_examples=25)
@given(st.integers(1, 60), st.integers(1, 5))
def test_constructors_agree_across_precisions(name, P, k):
    # built to P + k and truncated to P, a series equals the one built to P
    build = forms._CONSTRUCTORS[name]
    assert build(P + k).truncate(P) == build(P)
