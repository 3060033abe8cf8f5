"""Canonical polynomial families in j: the B_m basis and the Faber polynomials,
their evaluation at j(24 tau), and principal-part decomposition."""

from __future__ import annotations

from fractions import Fraction

from . import forms
from .errors import NotInSpan
from .series import LaurentSeries


class IntPolynomial:
    """Dense integer polynomial in one variable, index = degree."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        cs = [int(c) for c in coefficients]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coefficients = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_monic(self) -> bool:
        return bool(self.coefficients) and self.coefficients[-1] == 1

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self.coefficients == other.coefficients
        return NotImplemented

    def __hash__(self):
        return hash(self.coefficients)

    def __repr__(self):
        return f"IntPolynomial({list(self.coefficients)})"

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + other.scale(-1)

    def scale(self, c: int) -> "IntPolynomial":
        return IntPolynomial([c * x for x in self.coefficients])

    def shift_up(self) -> "IntPolynomial":
        """Multiply by x."""
        return IntPolynomial((0,) + self.coefficients)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


def b_polynomials(M: int) -> list[IntPolynomial]:
    """B_1..B_M with (j(tau) - x) * sum B_m(x) q^m = (q;q)_inf."""
    return _j_recurrence(forms.euler_series(max(M, 1)), 1, M)


def faber_polynomials(M: int) -> list[IntPolynomial]:
    """J_0..J_M with (j(tau) - x) * sum J_n(x) q^n = E4^2 E6 / Delta."""
    return _j_recurrence(forms.jprime_neg_series(max(M, 1)), 0, M + 1)


def _j_recurrence(seed: LaurentSeries, start: int, count: int) -> list[IntPolynomial]:
    """P_0..P_{count-1} with (j(tau) - x) * sum P_n(x) q^(n+start) = seed.

    Coefficient-matching gives P_0 = 1 and
    P_{n+1} = x*P_n + s(n+start) - sum_{i=0..n} c(n-i) P_i,
    with s the coefficients of seed and c(i) those of j."""
    if count < 1:
        return []
    c = forms.j_series(max(count - 1, 1))
    ps = [IntPolynomial([1])]
    for n in range(count - 1):
        nxt = ps[-1].shift_up() + IntPolynomial([int(seed.coeff(n + start))])
        for i in range(n + 1):
            nxt = nxt - ps[i].scale(int(c.coeff(n - i)))
        ps.append(nxt)
    return ps


def eval_at_j24(poly: IntPolynomial, P: int) -> LaurentSeries:
    """Horner evaluation of a polynomial at j(24 tau), truncated below P."""
    need = max(-((-P) // 24), 1) + poly.degree + 2
    j24 = forms.j_series(need).stride_expand(24)
    return eval_at_series(poly, j24).truncate(P)


def eval_at_series(poly: IntPolynomial, s: LaurentSeries) -> LaurentSeries:
    """Horner evaluation of a polynomial at an arbitrary series argument."""
    if not poly.coefficients:
        return LaurentSeries.zero(s.precision - s.valuation, s.stride, 0)
    acc = LaurentSeries(s.stride, 0, 0, s.precision - s.valuation * poly.degree,
                        [Fraction(poly.coefficients[-1])])
    for c in reversed(poly.coefficients[:-1]):
        acc = acc * s
        if c:
            acc = acc + LaurentSeries(s.stride, 0, 0, acc.precision, [Fraction(c)])
    return acc


def basis_decompose(f: LaurentSeries, alpha: LaurentSeries,
                    j: LaurentSeries) -> list[tuple[int, Fraction]]:
    """Principal-part coefficients t(n) of f/alpha, so that
    f = sum t(n) B_{-n}(j(tau)) + O(q); verifies the reconstruction.

    Raises NotInSpan when the residual after subtracting the B-combination
    is not O(q)."""
    quotient = f * alpha.invert()
    principal = [(e, c) for e, c in quotient.terms() if e <= -1]
    if not principal:
        if any(e <= 0 for e, _ in f.terms()):
            raise NotInSpan("nonpositive part of f is not alpha-spanned")
        return []
    depth = -min(e for e, _ in principal)
    bs = b_polynomials(depth)
    recon = None
    for e, c in principal:
        term = eval_at_series(bs[-e - 1], j).scale(c)
        recon = term if recon is None else recon + term
    residual = f - recon
    if any(e <= 0 for e, c in residual.terms()):
        raise NotInSpan("residual after B-decomposition is not O(q)")
    return [(e, c) for e, c in principal]
