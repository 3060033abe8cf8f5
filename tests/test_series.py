"""Laurent series core: construction, ring laws, inversion, serialization."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qspt.series
from qspt.errors import LeadingZero, OutOfPrecision
from qspt.report import VerificationReport
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


def test_a_zero_series_keeps_its_own_progression():
    # the offset of a zero sum, product or quotient comes from its operands, not
    # from the precision, which lies off the progression here
    z12, z24 = LaurentSeries.zero(10, 12, 11), LaurentSeries.zero(10, 24, 23)
    for h in (z12 + z24, z24 + z12):
        assert (h.stride, h.offset) == (12, 11)
    g = LaurentSeries(12, 11, 11, 40, [1, 2, 3])
    assert ((z24 * g).offset, (z24 / g).offset) == (10, 0)


def test_from_terms_infers_progression():
    f = LaurentSeries.from_terms({-1: 1, 23: 5, 47: -2}, 100)
    assert f.stride == 24
    assert f.offset == 23
    assert f.coeff(23) == 5
    assert f.coeff(0) == 0


def test_from_terms_rejects_mixed_support():
    with pytest.raises(ValueError):
        LaurentSeries.from_terms({0: 1, 24: 1, 25: 1}, 100, stride=24, offset=0)


@pytest.mark.parametrize("args, error, message", [
    ((0, 0, 0, 5, [1]), ValueError, "stride must be >= 1"),
    ((24, 24, 0, 50, [1]), ValueError, "offset must lie in"),
    ((24, -1, 23, 50, [1]), ValueError, "offset must lie in"),
    ((24, 23, 0, 50, [1]), ValueError, "valuation must be congruent"),
    ((1, 0, 6, 5, [1]), ValueError, "valuation exceeds precision"),
    ((24, 23, 23, 50, [1, 2, 3]), ValueError, "longer than the precision window"),
    ((1, 0, 0, 5, [1], 0), ZeroDivisionError, "denominator must be nonzero"),
], ids=["stride", "offset", "negative offset", "valuation", "past precision",
        "too many", "denominator"])
def test_construction_refuses_an_invalid_series(args, error, message):
    with pytest.raises(error, match=message):
        LaurentSeries(*args)


def test_series_refuse_assignment_and_invalid_restriding():
    f = LaurentSeries(24, 23, -1, 100, [1, 2])
    with pytest.raises(AttributeError, match="immutable"):
        f.precision = 50
    with pytest.raises(ValueError, match="expansion factor"):
        f.stride_expand(0)
    with pytest.raises(ValueError, match="must divide the old stride"):
        f._reexpand(5)
    assert (f.precision, f.stride) == (100, 24)


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
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        lhs = f * (g + h)
        assert lhs == (f * g + f * h).truncate(lhs.precision)
        assert (f * g) * h == f * (g * h)


def test_leibniz_rule_randomized():
    rng = random.Random(7)
    for _ in range(30):
        f = _random_series(rng)
        g = _random_series(rng)
        prod = (f * g).q_derive()
        assert VerificationReport("leibniz").compare(prod, f.q_derive() * g + f * g.q_derive())


def test_stride_expand_is_a_homomorphism():
    rng = random.Random(99)
    for _ in range(20):
        f = _random_series(rng)
        g = _random_series(rng)
        assert (f * g).stride_expand(5) == f.stride_expand(5) * g.stride_expand(5)
        assert (f + g).stride_expand(3) == f.stride_expand(3) + g.stride_expand(3)


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


LEADS = (1, -1, 2, -3, Fraction(1, 3))


@st.composite
def series_args(draw, leads=LEADS):
    """Constructor arguments of a series on stride 1, 2 or 24 with a chosen
    leading coefficient and coefficients of mixed denominators, known to a
    precision on or off its progression."""
    stride = draw(st.sampled_from((1, 2, 24)))
    val = draw(st.integers(-30, 30))
    rest = draw(st.lists(st.builds(Fraction, st.integers(-60, 60), st.integers(1, 4)),
                         max_size=12))
    cs = [draw(st.sampled_from(leads))] + rest
    prec = val + stride * (len(cs) + draw(st.integers(0, 3))) + draw(st.integers(0, stride - 1))
    return stride, val % stride, val, prec, cs


def series(leads=LEADS):
    return series_args(leads).map(lambda args: LaurentSeries(*args))


divisions = settings(deadline=None)


@divisions
@given(series(leads=LEADS + (0,)), series())
def test_quotient_times_divisor_is_dividend(f, g):
    prod = (f / g) * g
    assert prod.precision == min(f.precision, f.valuation + g.precision - g.valuation)
    assert prod == f.truncate(prod.precision)


@divisions
@given(series(leads=LEADS + (0,)), series())
def test_division_is_product_with_inverse(f, g):
    assert (f / g).to_json_dict("h") == (f * g.invert()).to_json_dict("h")
    unit = g * g.invert()
    assert unit.precision == g.precision - g.valuation
    assert unit == LaurentSeries.one(unit.precision, g.stride)


@divisions
@given(series(leads=LEADS + (0,)), series(), st.integers(1, 3))
def test_division_is_precision_honest(f, g, k):
    # dividing the longer inputs and truncating equals dividing the shorter ones
    fk = f.truncate(f.precision - k * f.stride)
    gk = g.truncate(g.precision - k * g.stride)
    if gk.is_zero():
        return
    short = fk / gk
    assert (f / g).truncate(short.precision).to_json_dict("h") == short.to_json_dict("h")


@settings(deadline=None)
@pytest.mark.parametrize("op", [
    lambda f, g, m: f + g,
    lambda f, g, m: f * g,
    lambda f, g, m: f.pow(m),
    lambda f, g, m: f.q_derive(),
    lambda f, g, m: f.stride_expand(abs(m) + 1),
], ids=["add", "mul", "pow", "q_derive", "stride_expand"])
@given(series(), series(leads=LEADS + (0,)), st.integers(1, 3), st.integers(-2, 4))
def test_operations_are_precision_honest(op, f, g, k, m):
    # the result of the longer inputs, truncated to the precision of the
    # result of the shorter ones, equals it
    fk = f.truncate(f.precision - k * f.stride)
    gk = g.truncate(g.precision - k * g.stride)
    assume(m >= 0 or not fk.is_zero())
    short = op(fk, gk, m)
    assert op(f, g, m).truncate(short.precision).to_json_dict("h") == short.to_json_dict("h")


@given(series(leads=LEADS + (0,)), st.sampled_from((1, 2, 24)), st.integers(-5, 20))
def test_zero_divisor_raises(f, stride, prec):
    zero = LaurentSeries.zero(prec, stride)
    with pytest.raises(LeadingZero):
        f / zero
    with pytest.raises(LeadingZero):
        zero.invert()



class Ref:
    """Reference model of a series: one Fraction per exponent, and the stride,
    offset and precision rules of LaurentSeries written out directly."""

    def __init__(self, stride, offset, prec, terms):
        self.stride, self.offset, self.prec = stride, offset, prec
        self.terms = {e: Fraction(c) for e, c in terms.items() if c and e < prec}

    @classmethod
    def of(cls, stride, offset, val, prec, cs):
        return cls(stride, offset, prec, {val + stride * i: c for i, c in enumerate(cs)})

    @property
    def val(self):
        return min(self.terms, default=self.prec)

    def c(self, e):
        return self.terms.get(e, Fraction(0))

    def doc(self):
        coeffs = [self.c(e) for e in range(self.val, self.prec, self.stride)]
        return {"name": "h", "stride": self.stride, "offset": self.offset,
                "valuation": self.val, "precision": self.prec,
                "coefficients": [[str(x.numerator), str(x.denominator)] for x in coeffs]}

    def __add__(self, o):
        s = math.gcd(self.stride, o.stride, abs(self.offset - o.offset))
        terms = dict(self.terms)
        for e, x in o.terms.items():
            terms[e] = terms.get(e, 0) + x
        return Ref(s, self.offset % s, min(self.prec, o.prec), terms)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        terms = {}
        for e, x in self.terms.items():
            for d, y in o.terms.items():
                terms[e + d] = terms.get(e + d, 0) + x * y
        s = math.gcd(self.stride, o.stride)
        return Ref(s, (self.offset + o.offset) % s,
                   min(self.prec + o.val, o.prec + self.val), terms)

    def scale(self, c):
        return Ref(self.stride, self.offset, self.prec, {e: c * x for e, x in self.terms.items()})

    def q_derive(self):
        return Ref(self.stride, self.offset, self.prec, {e: e * x for e, x in self.terms.items()})

    def __truediv__(self, o):
        # long division: o * h = self, one quotient coefficient per progression point
        s = math.gcd(self.stride, o.stride)
        val = self.val - o.val
        prec = min(self.prec - o.val, o.prec - 2 * o.val + self.val)
        h = {}
        for e in range(val, prec, s):
            known = sum(o.c(o.val + i) * h[e - i] for i in range(s, e - val + 1, s))
            h[e] = (self.c(e + o.val) - known) / o.c(o.val)
        return Ref(s, (self.offset - o.offset) % s, prec, h)


@settings(deadline=None)
@given(series_args(leads=LEADS + (0,)), series_args(),
       st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)))
def test_operations_match_a_fraction_reference(fa, ga, c):
    f, g = LaurentSeries(*fa), LaurentSeries(*ga)
    rf, rg = Ref.of(*fa), Ref.of(*ga)
    assert f.to_json_dict("h") == rf.doc() and g.to_json_dict("h") == rg.doc()
    assert (f == g) == (rf.prec == rg.prec and rf.terms == rg.terms)
    results = {"+": (f + g, rf + rg), "-": (f - g, rf - rg), "*": (f * g, rf * rg),
               "scale": (f.scale(c), rf.scale(c)), "q_derive": (f.q_derive(), rf.q_derive()),
               "/": (f / g, rf / rg)}
    for op, (got, want) in results.items():
        assert got.to_json_dict("h") == want.doc(), op
        assert got.den > 0 and math.gcd(got.den, *got.nums) == 1, op
    for h in (f, g, results["/"][0]):
        doc = h.to_json_dict("h")
        for p in {h.valuation - 1, h.valuation, (h.valuation + h.precision) // 2,
                  h.precision - 1, h.precision, h.precision + 1}:
            loaded = LaurentSeries.from_json_dict(doc).truncate(p)
            assert loaded == h.truncate(p)
            assert loaded.to_json_dict("h") == h.truncate(p).to_json_dict("h")


def reference_compare(rep, lhs, rhs, lo=None, hi=None, tag=None):
    """VerificationReport.compare written out on two exponent -> Fraction maps:
    each side's terms over [lo, hi), recorded over the sorted union of exponents."""
    known = min(lhs.precision, rhs.precision)
    if hi is None:
        hi = known
    elif hi > known:
        raise OutOfPrecision(f"comparison below {hi} requested, known below {known}")
    a = {e: c for e, c in lhs.terms() if (lo is None or e >= lo) and e < hi}
    b = {e: c for e, c in rhs.terms() if (lo is None or e >= lo) and e < hi}
    before = len(rep.mismatches)
    for e in sorted(set(a) | set(b)):
        rep.record(e, a.get(e, Fraction(0)), b.get(e, Fraction(0)))
    ok = len(rep.mismatches) == before
    if tag is not None:
        rep.details.append(f"{tag}: {'ok' if ok else 'MISMATCH'}")
    return ok


@st.composite
def compare_pairs(draw):
    """A series and either an independent one or a copy of it with some
    coefficients bumped, on the progression its terms then span, known to a
    precision up to three progression steps shorter or longer."""
    f = draw(series())
    if draw(st.booleans()):
        return f, draw(series())
    terms = dict(f.terms())
    for _ in range(draw(st.integers(1, 3))):
        e = draw(st.integers(f.valuation - 6, f.precision - 1))
        terms[e] = terms.get(e, 0) + draw(
            st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)), st.integers(1, 3)))
    prec = f.precision + f.stride * draw(st.integers(-3, 3))
    g = LaurentSeries.from_terms(terms, prec)
    return draw(st.permutations([f, g]))


@settings(deadline=None)
@given(compare_pairs(), st.data())
def test_compare_matches_the_term_dict_reference(pair, data):
    lhs, rhs = pair
    known = min(lhs.precision, rhs.precision)
    lo = data.draw(st.none() | st.integers(min(lhs.valuation, rhs.valuation, known) - 6,
                                           known + 2))
    hi = data.draw(st.none() | st.integers(known - 60, known + 2))
    got, want = VerificationReport(check="c"), VerificationReport(check="c")
    if hi is not None and hi > known:
        with pytest.raises(OutOfPrecision):
            got.compare(lhs, rhs, lo, hi, tag="t")
        return
    ok = got.compare(lhs, rhs, lo, hi, tag="t")
    assert ok == reference_compare(want, lhs, rhs, lo, hi, tag="t")
    assert [(m.exponent, m.lhs, m.rhs) for m in got.mismatches] == \
        [(m.exponent, m.lhs, m.rhs) for m in want.mismatches]
    assert got.details == want.details
    assert (lhs == rhs) == (lhs.precision == rhs.precision
                            and dict(lhs.terms()) == dict(rhs.terms()))


@settings(deadline=None)
@given(compare_pairs(), st.data())
def test_compare_counts_the_points_of_the_difference_progression(pair, data):
    lhs, rhs = pair
    known = min(lhs.precision, rhs.precision)
    lo = data.draw(st.none() | st.integers(min(lhs.valuation, rhs.valuation, known) - 6,
                                           known + 2))
    hi = data.draw(st.integers(known - 60, known))
    rep = VerificationReport(check="c")
    rep.compare(lhs, rhs, lo, hi)
    diff = lhs.truncate(hi) - rhs.truncate(hi)
    start = min(lhs.valuation, rhs.valuation) if lo is None else lo
    points = [e for e in range(start, hi) if e % diff.stride == diff.offset]
    assert rep.compared == len(points)
    assert {m.exponent for m in rep.mismatches} <= set(points)


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


def test_json_round_trip_past_the_digit_limit():
    # 5,000 decimal digits: more than int() and str() accept by default
    num, den = -(10 ** 5000 - 1), 10 ** 5000 + 1
    f = LaurentSeries(1, 0, -1, 6, [Fraction(num, den), 1, 0, Fraction(den, 3)])
    doc = json.loads(json.dumps(f.to_json_dict("big")))
    assert doc["coefficients"][0] == ["-" + "9" * 5000, "1" + "0" * 4999 + "1"]
    clone = LaurentSeries.from_json_dict(doc)
    assert clone == f and clone.to_json_dict("big") == f.to_json_dict("big")
    # every digit count up to 1,600, across the boundaries of any conversion blocks
    nines = LaurentSeries(1, 0, 1, 1601, [(-1) ** k * (10 ** k - 1) for k in range(1, 1601)])
    doc = json.loads(json.dumps(nines.to_json_dict("nines")))
    assert [num for num, _ in doc["coefficients"]] == [
        "-" * (k % 2) + "9" * k for k in range(1, 1601)]
    assert LaurentSeries.from_json_dict(doc) == nines


def test_repr_past_the_digit_limit():
    assert repr(LaurentSeries(1, 0, 0, 2, [10 ** 5000])) == (
        "<LaurentSeries 1" + "0" * 5000 + "*q^0 + O(q^2)>")
    assert repr(LaurentSeries(24, 23, -1, 48, [Fraction(-1, 12), Fraction(35, 12)])) == (
        "<LaurentSeries -1/12*q^-1 + 35/12*q^23 + O(q^48)>")


def test_json_load_below_a_precision_equals_truncation():
    f = LaurentSeries(24, 23, -1, 120, [Fraction(-1, 12), Fraction(35, 12), 0, 7, 0])
    doc = f.to_json_dict("sample")
    for prec in range(-3, 125):
        assert (LaurentSeries.from_json_dict(doc).truncate(prec).to_json_dict("sample")
                == f.truncate(prec).to_json_dict("sample"))


def test_dump_load(tmp_path):
    f = dense([1, 0, Fraction(2, 3)], val=-1)
    path = tmp_path / "f.json"
    with open(path, "w") as fh:
        json.dump(f.to_json_dict("f"), fh)
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["name"] == "f" and LaurentSeries.from_json_dict(doc) == f


def test_kronecker_matches_schoolbook():
    rng = random.Random(5)

    def limbs(length, bits, kind):
        if kind == "negative":
            return [-rng.randrange(1, 2 ** bits + 1) for _ in range(length)]
        if kind == "extreme":  # every product term at the largest magnitude
            return [1 - 2 ** bits] * length
        if kind == "single":
            out = [0] * length
            out[rng.randrange(length)] = rng.choice((-1, 1)) * rng.randrange(1, 2 ** bits + 1)
            return out
        return [rng.randrange(-2 ** bits, 2 ** bits + 1) for _ in range(length)]

    # widths up to the ~5,500-bit coefficients of alpha at precision 608
    for bits in (1, 2, 7, 8, 9, 20, 64, 300, 1000, 6000):
        for kind in ("mixed", "negative", "single", "extreme"):
            a = limbs(rng.randrange(1, 60), bits, kind)
            b = limbs(rng.randrange(1, 60), rng.randrange(1, bits + 1), kind)
            full = len(a) + len(b) - 1
            school = [0] * (full + 5)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    school[i + j] += x * y
            for n in (1, full - 1, full, full + 5):
                assert _kron_mul(a, b, n) == school[:n]
                assert convolve(a, b, n) == school[:n]


def test_convolve_reads_only_the_coefficients_it_outputs(monkeypatch):
    # a long operand by a short one, past the schoolbook cutoff: the Kronecker path is
    # handed each operand cut to the n_out coefficients it outputs
    rng = random.Random(11)
    a = [rng.randrange(-10 ** 9, 10 ** 9) for _ in range(5000)]
    b = [rng.randrange(-10 ** 9, 10 ** 9) for _ in range(300)]
    n = 400
    school = [0] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[:n - i]):
            school[i + j] += x * y
    handed = []

    def spy(x, y, n_out):
        handed.append((len(x), len(y)))
        return _kron_mul(x, y, n_out)

    monkeypatch.setattr(qspt.series, "_kron_mul", spy)
    assert convolve(a, b, n) == convolve(a[:n], b, n) == school
    assert handed == [(n, len(b)), (n, len(b))]
