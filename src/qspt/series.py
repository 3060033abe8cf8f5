"""Exact truncated Laurent series over arbitrary-precision rationals.

A series is stored on an arithmetic progression of exponents
(``offset + stride*Z``): only progression points between ``valuation``
(inclusive) and ``precision`` (exclusive) carry coefficients, and every
exponent below ``precision`` that is off the progression is exactly zero.
The coefficients are integer numerators ``nums`` over one common
denominator ``den`` (positive, coprime to the numerators, and 1 for an
integral series), so the ring operations, division and the interchange
format work on integers; ``coeff`` and ``terms`` hand out ``Fraction``s.
All values are immutable and every operation is a pure function.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from operator import add, mul
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


def _clear_denominators(pairs: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """Integers c and one common denominator d with c[i] / d = n / e for the
    i-th (numerator, denominator) pair (n, e)."""
    pairs = list(pairs)
    d = math.lcm(*(e for _, e in pairs))
    return [n * (d // e) for n, e in pairs], d


class LaurentSeries:
    """Immutable truncated Laurent series with stride/offset compaction.

    The coefficient at exponent valuation + stride*i is nums[i] / den, with
    den > 0 and gcd(den, *nums) == 1, so den is 1 exactly when every
    coefficient is an integer."""

    __slots__ = ("stride", "offset", "valuation", "precision", "nums", "den")

    def __init__(self, stride: int, offset: int, valuation: int,
                 precision: int, coeffs: Iterable[Fraction | int], den: int = 1):
        """The coefficients are coeffs[i] / den; den defaults to 1."""
        nums = list(coeffs)
        if not all(type(c) is int for c in nums):
            nums, d = _clear_denominators((x.numerator, x.denominator)
                                          for x in map(Fraction, nums))
            den *= d
        self._init(stride, offset, valuation, precision, nums, den)

    @classmethod
    def _of(cls, stride: int, offset: int, valuation: int, precision: int,
            nums, den: int = 1) -> "LaurentSeries":
        """The series nums / den, for integer nums: no conversion pass."""
        self = object.__new__(cls)
        self._init(stride, offset, valuation, precision, nums, den)
        return self

    def _init(self, stride, offset, valuation, precision, nums, den) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        if not 0 <= offset < stride:
            raise ValueError("offset must lie in [0, stride)")
        if den == 0:
            raise ZeroDivisionError("denominator must be nonzero")
        # trim leading and trailing exact zeros; they carry no information
        lead, end = 0, len(nums)
        while lead < end and not nums[lead]:
            lead += 1
        while end > lead and not nums[end - 1]:
            end -= 1
        nums = nums[lead:end]
        valuation += stride * lead
        if not nums:
            valuation, den = precision, 1
        elif valuation % stride != offset:
            raise ValueError("valuation must be congruent to offset mod stride")
        if valuation > precision:
            raise ValueError("valuation exceeds precision")
        if len(nums) > _pp_count(valuation, precision, stride):
            raise ValueError("coefficient list longer than the precision window")
        if den != 1:
            if den < 0:
                den, nums = -den, [-c for c in nums]
            g = math.gcd(den, *nums)
            if g > 1:
                den, nums = den // g, [c // g for c in nums]
        object.__setattr__(self, "stride", stride)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, precision: int, stride: int = 1, offset: int = 0) -> "LaurentSeries":
        return cls._of(stride, offset, precision, precision, ())

    @classmethod
    def one(cls, precision: int, stride: int = 1) -> "LaurentSeries":
        return cls._of(stride, 0, 0, precision, (1,))

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

    @property
    def coeffs(self) -> tuple:
        """The stored coefficients, each exposing .numerator and .denominator:
        the integers themselves when den is 1, else reduced Fractions."""
        if self.den == 1:
            return self.nums
        return tuple(Fraction(c, self.den) for c in self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def coeff(self, n: int) -> Fraction:
        """Exact coefficient at exponent n; errors past the precision bound."""
        if n >= self.precision:
            raise OutOfPrecision(f"coefficient at {n} requested, known below {self.precision}")
        if n < self.valuation or (n - self.valuation) % self.stride:
            return _ZERO
        i = (n - self.valuation) // self.stride
        return Fraction(self.nums[i], self.den) if i < len(self.nums) else _ZERO

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        """Nonzero (exponent, coefficient) pairs in increasing exponent order."""
        den = self.den
        for i, c in enumerate(self.nums):
            if c:
                yield self.valuation + self.stride * i, Fraction(c, den)

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
        if len(self.nums) > 6:
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
        if not self.nums:
            return LaurentSeries.zero(self.precision, stride, self.valuation % stride)
        step = self.stride // stride
        cs = [0] * _pp_count(self.valuation, self.precision, stride)
        cs[:len(self.nums) * step:step] = self.nums  # every step-th point, from the first
        return LaurentSeries._of(stride, self.valuation % stride, self.valuation,
                                 self.precision, cs, self.den)

    def shift(self, e: int) -> "LaurentSeries":
        """Multiply by q^e."""
        return LaurentSeries._of(self.stride, (self.offset + e) % self.stride,
                                 self.valuation + e, self.precision + e, self.nums, self.den)

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        f, g = self, other
        s = math.gcd(f.stride, g.stride, abs(f.offset - g.offset))
        f = f._reexpand(s)
        g = g._reexpand(s)
        prec = min(f.precision, g.precision)
        if not f.nums:
            return g.truncate(prec)
        if not g.nums:
            return f.truncate(prec)
        val = min(f.valuation, g.valuation)
        n = _pp_count(val, prec, s)
        den = math.lcm(f.den, g.den)
        cs = [0] * n
        for h in (f, g):
            k = (h.valuation - val) // s
            part = h.nums[:max(n - k, 0)]
            if h.den != den:
                part = [c * (den // h.den) for c in part]
            cs[k:k + len(part)] = map(add, cs[k:k + len(part)], part)
        return LaurentSeries._of(s, val % s, val, prec, cs, den)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries._of(self.stride, self.offset, self.valuation,
                                 self.precision, [-c for c in self.nums], self.den)

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
        if not f.nums or not g.nums:
            return LaurentSeries.zero(prec, s, (f.offset + g.offset) % s)
        n = _pp_count(val, prec, s)
        if n <= 0:
            return LaurentSeries.zero(prec, s, val % s)
        return LaurentSeries._of(s, val % s, val, prec, convolve(f.nums, g.nums, n),
                                 f.den * g.den)

    __rmul__ = __mul__

    def scale(self, c: Fraction | int) -> "LaurentSeries":
        c = Fraction(c)
        if c == 0:
            return LaurentSeries.zero(self.precision, self.stride, self.offset)
        return LaurentSeries._of(self.stride, self.offset, self.valuation, self.precision,
                                 [c.numerator * x for x in self.nums],
                                 c.denominator * self.den)

    def __truediv__(self, other: "LaurentSeries") -> "LaurentSeries":
        """Quotient h with other*h = self, on the window of self * other.invert().

        With self = N/dn and other = A/da over integers, h_k = da H_k /
        (dn a0^(k+1)) where H_k = a0^k N_k - sum_{i>=1} A_i a0^(i-1) H_(k-i):
        one exact integer dot product per coefficient. It beats a Newton
        inverse followed by a Kronecker product when the quotient's
        coefficients grow along the series, because Kronecker substitution
        pads every packed limb to the widest coefficient. The n coefficients
        share the denominator dn a0^n, which is 1 for a monic divisor of an
        integral series.
        """
        f, g = self, other
        if not g.nums:
            raise LeadingZero("cannot divide by a series with zero leading coefficient")
        s = math.gcd(f.stride, g.stride)
        f = f._reexpand(s)
        g = g._reexpand(s)
        val = f.valuation - g.valuation
        prec = min(f.precision - g.valuation, g.precision - 2 * g.valuation + f.valuation)
        if not f.nums:
            return LaurentSeries.zero(prec, s, (f.offset - g.valuation) % s)
        n = _pp_count(val, prec, s)
        num = f._window_nums()[:n]
        den = g._window_nums()[:n]
        a0 = den[0]
        w = [x * a0 ** i for i, x in enumerate(den[1:])]  # A_i a0^(i-1)
        h = []
        for k, x in enumerate(num):
            h.append(a0 ** k * x - sum(map(mul, w, reversed(h))))
        cs = [g.den * x * a0 ** (n - 1 - k) for k, x in enumerate(h)]
        return LaurentSeries._of(s, val % s, val, prec, cs, f.den * a0 ** n)

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
            return LaurentSeries._of(self.stride, 0, 0, prec, (1,) if prec > 0 else ())
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
        cs = [c * (self.valuation + self.stride * i) for i, c in enumerate(self.nums)]
        return LaurentSeries._of(self.stride, self.offset, self.valuation,
                                 self.precision, cs, self.den)

    def stride_expand(self, m: int) -> "LaurentSeries":
        """Substitute q -> q^m: every exponent n becomes m*n."""
        if m < 1:
            raise ValueError("expansion factor must be >= 1")
        if m == 1:
            return self
        return LaurentSeries._of(self.stride * m, (self.offset * m) % (self.stride * m),
                                 self.valuation * m, self.precision * m, self.nums, self.den)

    def truncate(self, prec: int) -> "LaurentSeries":
        """Forget all coefficients at exponents >= prec."""
        prec = min(prec, self.precision)
        keep = _pp_count(self.valuation, prec, self.stride)
        return LaurentSeries._of(self.stride, self.offset, min(self.valuation, prec),
                                 prec, self.nums[:keep], self.den)

    # ------------------------------------------------------------------
    # interchange format

    def to_json_dict(self, name: str) -> dict:
        """Series interchange document; round-trips bit-exactly. Each
        coefficient is written reduced, as a [numerator, denominator] pair."""
        den = self.den
        if den == 1:
            pairs = [[to_decimal(c), "1"] for c in self._window_nums()]
        else:
            pairs = []
            for c in self._window_nums():
                g = math.gcd(c, den)
                pairs.append([to_decimal(c // g), to_decimal(den // g)])
        return {
            "name": name,
            "stride": self.stride,
            "offset": self.offset,
            "valuation": self.valuation,
            "precision": self.precision,
            "coefficients": pairs,
        }

    def _window_nums(self) -> list[int]:
        """One numerator per progression point in [valuation, precision)."""
        n = _pp_count(self.valuation, self.precision, self.stride)
        return list(self.nums) + [0] * (n - len(self.nums))

    @classmethod
    def from_json_dict(cls, doc: dict, precision: int | None = None) -> "LaurentSeries":
        """Inverse of to_json_dict. Given a precision, the series truncated
        below it, converting only the coefficients that are kept."""
        stride, val = doc["stride"], doc["valuation"]
        prec = doc["precision"] if precision is None else min(precision, doc["precision"])
        pairs = doc["coefficients"][:_pp_count(val, prec, stride)]
        if all(d == "1" for _, d in pairs):
            nums, den = [from_decimal(n) for n, _ in pairs], 1
        else:
            nums, den = _clear_denominators((from_decimal(n), from_decimal(d))
                                            for n, d in pairs)
        return cls._of(stride, doc["offset"], min(val, prec), prec, nums, den)

    def dump(self, path, name: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(name), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path, precision: int | None = None) -> tuple[str, "LaurentSeries"]:
        with open(path) as fh:
            doc = json.load(fh)
        return doc["name"], cls.from_json_dict(doc, precision)
