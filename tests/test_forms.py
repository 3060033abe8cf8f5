"""Classical series constructors."""

from fractions import Fraction

from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qspt import forms
from qspt.errors import QsptError
from qspt.partitions import triangular_terms


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


def test_partition_gen24_reads_the_p_column(perturbed):
    # one route to p: a corrupted p(3) reaches the coefficient of q^(24*3 - 1)
    perturbed("p", 3)
    assert forms.partition_gen24(240).coeff(71) == 4


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
    assert d == eta24.truncate(40)


@settings(deadline=None)
@example(302)
@example(600)
@example(1200)
@given(st.integers(0, 90))
def test_j_and_jprime_neg_equal_division_by_delta(P):
    # the sparse divisions by (q;q)_inf^3 against the dense division by Delta
    q = P + 2  # a quotient by Delta, of valuation 1, is known 2 exponents short
    e4, e6, delta = forms.eisenstein_e4(q), forms.eisenstein_e6(q), forms.delta_series(q)
    assert forms.j_series(P).to_json_dict("j") == (e4.pow(3) / delta).to_json_dict("j")
    assert (forms.jprime_neg_series(P).to_json_dict("jp")
            == (e4.pow(2) * e6 / delta).to_json_dict("jp"))


def _jacobi_stages(kernel, P):
    """x_1 .. x_8 at q^0 .. q^P with x_0 the kernel and (q;q)_inf^3 x_s = x_(s-1),
    one plain pass per stage: the reference for forms._over_delta."""
    terms = [(g, d) for g, d in triangular_terms(P + 1) if g]
    x = (list(kernel) + [0] * (P + 1))[:P + 1]
    stages = []
    for _ in range(8):
        x = x[:]
        for n in range(P + 1):
            for g, d in terms:
                if g > n:
                    break
                x[n] -= d * x[n - g]
        stages.append(x)
    return stages


# the numerators of j (691 E12, read as (691 E12/Delta + 432000)/691) and of
# -q dj/dq (E14), as forms builds them below q^(P + 1)
NUMERATORS = {"691 E12": (11, 65520, 691), "E14": (13, -24, 1)}


@lru_cache(maxsize=None)
def _numerator_case(name, P):
    power, factor, lead = NUMERATORS[name]
    kernel = forms._eisenstein(P + 1, power, factor, lead).nums
    return kernel, _jacobi_stages(kernel, P)


@settings(deadline=None)
@given(st.integers(0, 200).flatmap(
    lambda P: st.tuples(st.just(P), st.lists(st.integers(-10 ** 40, 10 ** 40), max_size=P + 3))))
def test_packed_pass_equals_eight_passes(case):
    # kernels of either sign, shorter or longer than P + 1 coefficients
    P, kernel = case
    assert forms._over_delta(kernel, P) == _jacobi_stages(kernel, P)[-1]


@pytest.mark.parametrize("P", [302, 600, 1200, 2400])
@pytest.mark.parametrize("name", sorted(NUMERATORS))
def test_packed_pass_equals_eight_passes_on_the_numerators(name, P):
    kernel, stages = _numerator_case(name, P)
    assert forms._over_delta(kernel, P) == stages[-1]


@pytest.mark.parametrize("P", [302, 600, 1200, 2400])
@pytest.mark.parametrize("name", sorted(NUMERATORS))
def test_field_width_clears_every_stage_value(name, P):
    # each field holds a balanced value with a sign bit and a margin bit to spare
    kernel, stages = _numerator_case(name, P)
    widest = max(abs(v).bit_length() for x in stages for v in x)
    assert widest <= forms._field_width(kernel, P) - 2


@pytest.mark.parametrize("P", [1, 2, 30, 302, 600, 1200])
def test_alpha_equals_the_quotient_by_products(P):
    e4, e6 = forms.eisenstein_e4(P), forms.eisenstein_e6(P)
    expect = forms.euler_series(P) * forms.delta_series(P) / (e4.pow(2) * e6)
    assert forms.alpha_series(P).to_json_dict("alpha") == expect.to_json_dict("alpha")


def test_j_series_refuses_a_numerator_that_691_does_not_divide(perturbed_sigma11):
    perturbed_sigma11(7)
    with pytest.raises(QsptError, match="691 does not divide"):
        forms.j_series(50)
    assert forms.j_series(6).coeff(5) == 333202640600  # below q^7 the numerator is intact


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
    assert jp == -forms.j_series(50).q_derive()


def test_alpha_series():
    a = forms.alpha_series(4)
    assert [a.coeff(n) for n in range(4)] == [0, 1, -1, 196883]
    # defining relation: alpha * (-q dj/dq) = (q;q)_inf
    a = forms.alpha_series(60)
    assert (a * forms.jprime_neg_series(60)).truncate(55) == forms.euler_series(55)


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
