"""Exact truncated Laurent series over arbitrary-precision rationals.

A series is stored on an arithmetic progression of exponents
(``offset + stride*Z``): only progression points between ``valuation``
(inclusive) and ``precision`` (exclusive) carry coefficients, and every
exponent below ``precision`` that is off the progression is exactly zero.
All values are immutable and every operation is a pure function.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Mapping

from .arith import fraction_str, from_decimal, to_decimal
from .errors import LeadingZero, OutOfPrecision
from .report import VerificationReport

_ZERO = Fraction(0)

# support-size product below which schoolbook convolution beats packing
_SCHOOLBOOK_CUTOFF = 1 << 14


def _pp_count(val: int, prec: int, stride: int) -> int:
    """Number of progression points val, val+stride, ... below prec."""
    if prec <= val:
        return 0
    return -((val - prec) // stride)


def convolve(a: list[int], b: list[int], n_out: int) -> list[int]:
    """First n_out coefficients of the integer convolution a*b."""
    an = [(i, c) for i, c in enumerate(a) if c and i < n_out]
    bn = [(j, c) for j, c in enumerate(b) if c and j < n_out]
    if not an or not bn:
        return [0] * n_out
    if len(an) * len(bn) <= _SCHOOLBOOK_CUTOFF:
        out = [0] * n_out
        for i, ai in an:
            for j, bj in bn:
                k = i + j
                if k >= n_out:
                    break
                out[k] += ai * bj
        return out
    return _kron_mul(a, b, n_out)


def _bias(n: int, nbytes: int) -> int:
    """n limbs of nbytes bytes, each holding half = 2^(8*nbytes - 1)."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")


def _pack(arr: list[int], nbytes: int) -> int:
    """Pack signed limbs, each inside +-2^(8*nbytes - 2), into one integer."""
    half = 1 << (8 * nbytes - 1)
    buf = b"".join((c + half).to_bytes(nbytes, "little") for c in arr)
    return int.from_bytes(buf, "little") - _bias(len(arr), nbytes)


def _kron_mul(a: list[int], b: list[int], n_out: int) -> list[int]:
    """Exact convolution by Kronecker substitution (one big-int multiply).

    Every output coefficient lies strictly inside +-2^(8*nbytes - 2), so
    each limb of product + bias lies in [0, 2^(8*nbytes)) and none carries.
    """
    ma = max(map(abs, a))
    mb = max(map(abs, b))
    k = ma.bit_length() + mb.bit_length() + min(len(a), len(b)).bit_length() + 2
    nbytes = (k + 7) // 8
    p = _pack(a, nbytes) * _pack(b, nbytes) + _bias(n_out, nbytes)
    buf = (p & ((1 << 8 * nbytes * n_out) - 1)).to_bytes(nbytes * n_out, "little")
    half = 1 << (8 * nbytes - 1)
    return [int.from_bytes(buf[i:i + nbytes], "little") - half
            for i in range(0, nbytes * n_out, nbytes)]


def _clear_denominators(a: list[Fraction]) -> tuple[list[int], int]:
    """Integers c and one common denominator d with a = c / d."""
    d = math.lcm(*(x.denominator for x in a))
    return [x.numerator * (d // x.denominator) for x in a], d


def _conv_frac(a: list[Fraction], b: list[Fraction], n_out: int) -> list[Fraction]:
    """Truncated Cauchy product of rational coefficient lists."""
    ai, da = _clear_denominators(a)
    bi, db = _clear_denominators(b)
    ci = convolve(ai, bi, n_out)
    d = da * db
    if d == 1:
        return [Fraction(c) for c in ci]
    return [Fraction(c, d) for c in ci]


class LaurentSeries:
    """Immutable truncated Laurent series with stride/offset compaction."""

    __slots__ = ("stride", "offset", "valuation", "precision", "coeffs")

    def __init__(self, stride: int, offset: int, valuation: int,
                 precision: int, coeffs: Iterable[Fraction | int]):
        if stride < 1:
            raise ValueError("stride must be >= 1")
        if not 0 <= offset < stride:
            raise ValueError("offset must lie in [0, stride)")
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        # trim leading exact zeros; they carry no information
        lead = 0
        while lead < len(cs) and cs[lead] == 0:
            lead += 1
        valuation += stride * lead
        cs = cs[lead:]
        # trim trailing zeros, keeping precision
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            valuation = precision
        elif valuation % stride != offset % stride:
            raise ValueError("valuation must be congruent to offset mod stride")
        if valuation > precision:
            raise ValueError("valuation exceeds precision")
        if cs and len(cs) > _pp_count(valuation, precision, stride):
            raise ValueError("coefficient list longer than the precision window")
        object.__setattr__(self, "stride", stride)
        object.__setattr__(self, "offset", offset % stride)
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, precision: int, stride: int = 1, offset: int = 0) -> "LaurentSeries":
        return cls(stride, offset, precision, precision, [])

    @classmethod
    def one(cls, precision: int, stride: int = 1) -> "LaurentSeries":
        return cls(stride, 0, 0, precision, [Fraction(1)])

    @classmethod
    def from_terms(cls, terms: Mapping[int, Fraction | int], precision: int,
                   stride: int | None = None, offset: int | None = None) -> "LaurentSeries":
        """Build a series from an exponent -> coefficient map, inferring the progression."""
        items = sorted((e, Fraction(c)) for e, c in terms.items() if c != 0 and e < precision)
        if not items:
            return cls.zero(precision, stride or 1, (offset or 0) % (stride or 1))
        exps = [e for e, _ in items]
        if stride is None:
            stride = 0
            for e in exps[1:]:
                stride = math.gcd(stride, e - exps[0])
            stride = stride or 1
        if offset is None:
            offset = exps[0] % stride
        val = exps[0]
        n = _pp_count(val, precision, stride)
        cs = [_ZERO] * n
        for e, c in items:
            if (e - val) % stride:
                raise ValueError("terms are not supported on a single progression")
            cs[(e - val) // stride] = c
        return cls(stride, offset, val, precision, cs)

    # ------------------------------------------------------------------
    # inspection

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, n: int) -> Fraction:
        """Exact coefficient at exponent n; errors past the precision bound."""
        if n >= self.precision:
            raise OutOfPrecision(f"coefficient at {n} requested, known below {self.precision}")
        if not self.coeffs or n < self.valuation or (n - self.valuation) % self.stride:
            return _ZERO
        i = (n - self.valuation) // self.stride
        return self.coeffs[i] if i < len(self.coeffs) else _ZERO

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        """Nonzero (exponent, coefficient) pairs in increasing exponent order."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                yield self.valuation + self.stride * i, c

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.precision == other.precision
                and dict(self.terms()) == dict(other.terms()))

    def __hash__(self):
        return hash((self.precision, tuple(self.terms())))

    def agrees_with(self, other: "LaurentSeries", lo: int | None = None,
                    hi: int | None = None) -> bool:
        """Coefficientwise equality over [lo, hi); see VerificationReport.compare."""
        return VerificationReport(check="agrees_with").compare(self, other, lo, hi)

    def __repr__(self) -> str:
        parts = [f"{fraction_str(c)}*q^{e}" for e, c in list(self.terms())[:6]]
        if len(self.coeffs) > 6:
            parts.append("...")
        body = " + ".join(parts) if parts else "0"
        return f"<LaurentSeries {body} + O(q^{self.precision})>"

    # ------------------------------------------------------------------
    # progression bookkeeping

    def _reexpand(self, stride: int) -> "LaurentSeries":
        """Re-express on a finer progression whose stride divides the current one."""
        if stride == self.stride:
            return self
        if self.stride % stride:
            raise ValueError("new stride must divide the old stride")
        if not self.coeffs:
            return LaurentSeries(stride, self.valuation % stride, self.precision,
                                 self.precision, [])
        step = self.stride // stride
        n = _pp_count(self.valuation, self.precision, stride)
        cs = [_ZERO] * n
        for i, c in enumerate(self.coeffs):
            cs[i * step] = c
        return LaurentSeries(stride, self.valuation % stride, self.valuation,
                             self.precision, cs)

    def shift(self, e: int) -> "LaurentSeries":
        """Multiply by q^e."""
        return LaurentSeries(self.stride, (self.offset + e) % self.stride,
                             self.valuation + e, self.precision + e, self.coeffs)

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        f, g = self, other
        s = math.gcd(f.stride, g.stride, abs(f.offset - g.offset))
        if s == 0:
            s = f.stride
        f = f._reexpand(s)
        g = g._reexpand(s)
        prec = min(f.precision, g.precision)
        if not f.coeffs:
            return g.truncate(prec)
        if not g.coeffs:
            return f.truncate(prec)
        val = min(f.valuation, g.valuation)
        n = _pp_count(val, prec, s)
        cs = [_ZERO] * n
        for i, c in enumerate(f.coeffs):
            k = (f.valuation - val) // s + i
            if k < n:
                cs[k] = c
        for i, c in enumerate(g.coeffs):
            k = (g.valuation - val) // s + i
            if k < n:
                cs[k] += c
        return LaurentSeries(s, val % s, val, prec, cs)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.stride, self.offset, self.valuation,
                             self.precision, [-c for c in self.coeffs])

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other) -> "LaurentSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        f, g = self, other
        s = math.gcd(f.stride, g.stride)
        f = f._reexpand(s)
        g = g._reexpand(s)
        val = f.valuation + g.valuation
        prec = min(f.precision + g.valuation, g.precision + f.valuation)
        if not f.coeffs or not g.coeffs:
            return LaurentSeries.zero(prec, s, (f.offset + g.offset) % s)
        n = _pp_count(val, prec, s)
        if n <= 0:
            return LaurentSeries.zero(prec, s, val % s)
        cs = _conv_frac(list(f.coeffs), list(g.coeffs), n)
        return LaurentSeries(s, val % s, val, prec, cs)

    __rmul__ = __mul__

    def scale(self, c: Fraction | int) -> "LaurentSeries":
        c = Fraction(c)
        if c == 0:
            return LaurentSeries.zero(self.precision, self.stride, self.offset)
        return LaurentSeries(self.stride, self.offset, self.valuation,
                             self.precision, [c * x for x in self.coeffs])

    def __truediv__(self, other: "LaurentSeries") -> "LaurentSeries":
        """Quotient h with other*h = self, on the window of self * other.invert().

        With self = N/dn and other = A/da over integers, h_k = da H_k /
        (dn a0^(k+1)) where H_k = a0^k N_k - sum_{i>=1} A_i a0^(i-1) H_(k-i):
        one exact integer dot product per coefficient. It beats a Newton
        inverse followed by a Kronecker product when the quotient's
        coefficients grow along the series, because Kronecker substitution
        pads every packed limb to the widest coefficient.
        """
        f, g = self, other
        if not g.coeffs:
            raise LeadingZero("cannot divide by a series with zero leading coefficient")
        s = math.gcd(f.stride, g.stride)
        f = f._reexpand(s)
        g = g._reexpand(s)
        val = f.valuation - g.valuation
        prec = min(f.precision - g.valuation, g.precision - 2 * g.valuation + f.valuation)
        if not f.coeffs:
            return LaurentSeries.zero(prec, s, (f.offset - g.valuation) % s)
        n = _pp_count(val, prec, s)
        num, dn = _clear_denominators(f._window_coeffs()[:n])
        den, da = _clear_denominators(g._window_coeffs()[:n])
        a0 = den[0]
        w = [x * a0 ** i for i, x in enumerate(den[1:])]  # A_i a0^(i-1)
        h = []
        for k, x in enumerate(num):
            h.append(a0 ** k * x - sum(map(mul, w, reversed(h))))
        cs = [Fraction(da * x, dn * a0 ** (k + 1)) for k, x in enumerate(h)]
        return LaurentSeries(s, val % s, val, prec, cs)

    def invert(self) -> "LaurentSeries":
        """Multiplicative inverse g with self*g = 1 to the available precision.

        The numerator 1 is known one exponent past the quotient's window, so
        the window is set by self alone and a zero self still reaches the
        LeadingZero check of the division."""
        return LaurentSeries.one(self.precision - self.valuation + 1, self.stride) / self

    def pow(self, k: int) -> "LaurentSeries":
        """Integer power; negative k requires an invertible leading coefficient."""
        if k < 0:
            return self.invert().pow(-k)
        if k == 0:
            # 1 + O(q^prec); a zero series (valuation = precision) does not know the 1
            prec = self.precision - self.valuation
            return LaurentSeries(self.stride, 0, 0, prec, [Fraction(1)] if prec > 0 else [])
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    __pow__ = pow

    # ------------------------------------------------------------------
    # calculus / reindexing

    def q_derive(self) -> "LaurentSeries":
        """Apply q*d/dq: multiply the coefficient at exponent n by n."""
        cs = [c * (self.valuation + self.stride * i) for i, c in enumerate(self.coeffs)]
        return LaurentSeries(self.stride, self.offset, self.valuation,
                             self.precision, cs)

    def stride_expand(self, m: int) -> "LaurentSeries":
        """Substitute q -> q^m: every exponent n becomes m*n."""
        if m < 1:
            raise ValueError("expansion factor must be >= 1")
        if m == 1:
            return self
        return LaurentSeries(self.stride * m, (self.offset * m) % (self.stride * m),
                             self.valuation * m, self.precision * m, self.coeffs)

    def truncate(self, prec: int) -> "LaurentSeries":
        """Forget all coefficients at exponents >= prec."""
        prec = min(prec, self.precision)
        keep = _pp_count(self.valuation, prec, self.stride)
        return LaurentSeries(self.stride, self.offset, min(self.valuation, prec),
                             prec, self.coeffs[:max(keep, 0)])

    # ------------------------------------------------------------------
    # interchange format

    def to_json_dict(self, name: str) -> dict:
        """Series interchange document; round-trips bit-exactly."""
        return {
            "name": name,
            "stride": self.stride,
            "offset": self.offset,
            "valuation": self.valuation,
            "precision": self.precision,
            "coefficients": [[to_decimal(c.numerator), to_decimal(c.denominator)]
                             for c in self._window_coeffs()],
        }

    def _window_coeffs(self) -> list[Fraction]:
        """One coefficient per progression point in [valuation, precision)."""
        n = _pp_count(self.valuation, self.precision, self.stride)
        cs = list(self.coeffs) + [_ZERO] * (n - len(self.coeffs))
        return cs

    @classmethod
    def from_json_dict(cls, doc: dict, precision: int | None = None) -> "LaurentSeries":
        """Inverse of to_json_dict. Given a precision, the series truncated
        below it, converting only the coefficients that are kept."""
        pairs = doc["coefficients"]
        if precision is not None:
            pairs = pairs[:_pp_count(doc["valuation"], precision, doc["stride"])]
        cs = [Fraction(from_decimal(num), from_decimal(den)) for num, den in pairs]
        series = cls(doc["stride"], doc["offset"], doc["valuation"], doc["precision"], cs)
        return series if precision is None else series.truncate(precision)

    def dump(self, path, name: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(name), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path, precision: int | None = None) -> tuple[str, "LaurentSeries"]:
        with open(path) as fh:
            doc = json.load(fh)
        return doc["name"], cls.from_json_dict(doc, precision)
