"""Laurent series core: construction, ring laws, inversion, serialization."""

import json
import random
from fractions import Fraction

import pytest

from qspt.errors import LeadingZero, OutOfPrecision
from qspt.series import LaurentSeries, _kron_mul, convolve


def dense(coeffs, val=0, prec=None):
    if prec is None:
        prec = val + len(coeffs)
    return LaurentSeries(1, 0, val, prec, coeffs)


def test_construction_trims_and_normalizes():
    f = LaurentSeries(1, 0, -2, 5, [0, 3, 0, 1, 0, 0])
    assert f.valuation == -1
    assert f.coeff(-1) == 3
    assert f.coeff(1) == 1
    assert f.coeff(2) == 0
    assert list(f.terms()) == [(-1, Fraction(3)), (1, Fraction(1))]


def test_coeff_off_progression_is_zero():
    f = LaurentSeries(24, 23, -1, 100, [1, 2])
    assert f.coeff(-1) == 1
    assert f.coeff(23) == 2
    assert f.coeff(0) == 0
    assert f.coeff(24) == 0
    with pytest.raises(OutOfPrecision):
        f.coeff(100)


def test_zero_series():
    z = LaurentSeries.zero(10)
    assert z.is_zero()
    assert z.coeff(3) == 0
    assert (z + dense([1, 2])).coeff(0) == 1


def test_from_terms_infers_progression():
    f = LaurentSeries.from_terms({-1: 1, 23: 5, 47: -2}, 100)
    assert f.stride == 24
    assert f.offset == 23
    assert f.coeff(23) == 5
    assert f.coeff(0) == 0


def test_from_terms_rejects_mixed_support():
    with pytest.raises(ValueError):
        LaurentSeries.from_terms({0: 1, 24: 1, 25: 1}, 100, stride=24, offset=0)


def test_add_mixed_strides():
    f = LaurentSeries(24, 1, 1, 96, [1, 1, 1, 1])
    g = LaurentSeries(24, 23, 23, 96, [2, 2, 2])
    h = f + g
    assert h.coeff(1) == 1 and h.coeff(23) == 2 and h.coeff(25) == 1
    assert h.precision == 96


def test_mul_example():
    f = dense([1, 1])          # 1 + q
    g = dense([1, -1])         # 1 - q
    assert (f * g).coeff(0) == 1
    assert (f * g).coeff(1) == 0
    # precision of a product is limited by both factors
    assert (f * g).precision == 2


def test_scalar_mul_and_neg():
    f = dense([1, 2, 3])
    assert (f * 2).coeff(1) == 4
    assert (Fraction(1, 2) * f).coeff(2) == Fraction(3, 2)
    assert (-f).coeff(0) == -1


def _random_series(rng, stride=1):
    val = rng.randrange(-3, 3)
    n = rng.randrange(1, 6)
    prec = val + stride * rng.randrange(n, n + 4)
    cs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(n)]
    off = val % stride
    return LaurentSeries(stride, off, val, prec, cs)


def test_ring_axioms_randomized():
    rng = random.Random(20240824)
    for _ in range(60):
        f = _random_series(rng, rng.choice([1, 2, 3]))
        g = _random_series(rng, rng.choice([1, 2]))
        h = _random_series(rng)
        assert (f + g).agrees_with(g + f)
        assert ((f + g) + h).agrees_with(f + (g + h))
        assert (f * g).agrees_with(g * f)
        lhs = f * (g + h)
        assert lhs.agrees_with(f * g + f * h, hi=lhs.precision)
        assert ((f * g) * h).agrees_with(f * (g * h))


def test_leibniz_rule_randomized():
    rng = random.Random(7)
    for _ in range(30):
        f = _random_series(rng)
        g = _random_series(rng)
        prod = (f * g).q_derive()
        assert prod.agrees_with(f.q_derive() * g + f * g.q_derive())


def test_stride_expand_is_a_homomorphism():
    rng = random.Random(99)
    for _ in range(20):
        f = _random_series(rng)
        g = _random_series(rng)
        assert (f * g).stride_expand(5).agrees_with(
            f.stride_expand(5) * g.stride_expand(5))
        assert (f + g).stride_expand(3).agrees_with(
            f.stride_expand(3) + g.stride_expand(3))


def test_invert_round_trip():
    rng = random.Random(12)
    for _ in range(25):
        f = _random_series(rng)
        if f.is_zero():
            continue
        inv = f.invert()
        prod = f * inv
        assert prod.coeff(0) == 1
        assert all(c == 0 for e, c in prod.terms() if e != 0)


def test_invert_zero_raises():
    with pytest.raises(LeadingZero):
        LaurentSeries.zero(5).invert()


def test_pow_negative_and_zero():
    f = dense([1, 1, 1, 1, 1, 1])
    assert f.pow(0).coeff(0) == 1
    assert (f.pow(-2) * f * f).coeff(0) == 1
    assert f ** 3 == f * f * f


def test_shift_and_truncate():
    f = dense([1, 2, 3])
    g = f.shift(-5)
    assert g.valuation == -5 and g.coeff(-3) == 3
    t = f.truncate(2)
    assert t.precision == 2
    with pytest.raises(OutOfPrecision):
        t.coeff(2)


def test_json_round_trip_bit_exact():
    f = LaurentSeries(24, 23, -1, 120, [Fraction(-1, 12), Fraction(35, 12), 0, 7])
    doc = f.to_json_dict("sample")
    clone = LaurentSeries.from_json_dict(json.loads(json.dumps(doc)))
    assert clone == f
    assert clone.stride == f.stride and clone.valuation == f.valuation
    assert clone.to_json_dict("sample") == doc


def test_dump_load(tmp_path):
    f = dense([1, 0, Fraction(2, 3)], val=-1)
    path = tmp_path / "f.json"
    f.dump(path, "f")
    name, g = LaurentSeries.load(path)
    assert name == "f" and g == f


def test_kronecker_matches_schoolbook():
    rng = random.Random(5)
    for _ in range(10):
        a = [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(rng.randrange(2, 80))]
        b = [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(rng.randrange(2, 80))]
        n = len(a) + len(b) - 1
        school = [0] * n
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                school[i + j] += x * y
        assert _kron_mul(a, b, n) == school
        assert convolve(a, b, n) == school
