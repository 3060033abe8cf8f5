"""Partition statistics: p(n), spt(n), a(n), u*(n), and the combinatorial
coefficient formulas for the j-function.

Scalable computations go through exact integer tables; every combinatorially
defined quantity also has a brute-force enumeration oracle with an explicit
size guard.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import add
from typing import Iterable, Iterator, Sequence

from .arith import legendre
from .errors import EnumerationLimit, TableTooSmall, UnknownCheck
from .report import VerificationReport
from .series import convolve

_SPT_ENUM_GUARD = 60
_UNIMODAL_ENUM_GUARD = 40


def pentagonal_terms(limit: int) -> list[tuple[int, int]]:
    """(exponent, sign) pairs of (q;q)_inf below limit, exponents increasing."""
    out = []
    k = 1
    while k * (3 * k - 1) // 2 < limit:
        s = -1 if k % 2 else 1
        out.append((k * (3 * k - 1) // 2, s))
        if k * (3 * k + 1) // 2 < limit:
            out.append((k * (3 * k + 1) // 2, s))
        k += 1
    out.sort()
    return [(0, 1)] + out


def p_table(N: int) -> list[int]:
    """p(0..N) by the Euler pentagonal recurrence."""
    p = [0] * (N + 1)
    p[0] = 1
    pents = [(g, s) for g, s in pentagonal_terms(N + 1) if g > 0]
    for n in range(1, N + 1):
        acc = 0
        for g, s in pents:
            if g > n:
                break
            acc -= s * p[n - g]
        p[n] = acc
    return p


def spt_table(N: int) -> list[int]:
    """spt(0..N) from the smallest-part generating function.

    For each smallest part s the contribution is (sum_k k q^{sk}) times the
    generating function for partitions into parts > s; the inner sums are
    realized as prefix sums along stride-s progressions.
    """
    total = [0] * (N + 1)
    g = [0] * (N + 1)
    g[0] = 1  # partitions into parts > s, starting from s = N
    for s in range(N, 0, -1):
        u = [0] * s + g[:N + 1 - s]
        for r in range(s):
            u[r::s] = accumulate(u[r::s])
        c = u
        for r in range(s):
            c[r::s] = accumulate(c[r::s])
        total = list(map(add, total, c))
        for r in range(s):
            g[r::s] = accumulate(g[r::s])
    total[0] = 0
    return total


def a_table(N: int) -> list[int]:
    """a(0..N): coefficients of (1/(q;q)_inf) * sum_n (-1)^(n-1) n q^(n(n+1)/2)/(1-q^n)."""
    pd = p_table(N)
    inner = [0] * (N + 1)
    n = 1
    while n * (n + 1) // 2 <= N:
        w = n if n % 2 else -n
        for idx in range(n * (n + 1) // 2, N + 1, n):
            inner[idx] += w
        n += 1
    return convolve(pd, inner, N + 1)


# ----------------------------------------------------------------------
# brute-force oracles

def iter_partitions(n: int) -> Iterator[list[int]]:
    """All partitions of n as ascending part lists (Kelleher's accelAsc)."""
    if n == 0:
        yield []
        return
    a = [0] * (n + 1)
    k = 1
    y = n - 1
    while k != 0:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        ln = k + 1
        while x <= y:
            a[k] = x
            a[ln] = y
            yield a[:k + 2]
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        yield a[:k + 1]


def spt_bruteforce(n: int) -> int:
    """Total multiplicity of smallest parts over all partitions of n."""
    if n > _SPT_ENUM_GUARD:
        raise EnumerationLimit(f"spt enumeration guarded at n <= {_SPT_ENUM_GUARD}")
    total = 0
    for parts in iter_partitions(n):
        total += bisect_right(parts, parts[0])
    return total


@dataclass(frozen=True)
class Partition:
    """A partition as a sorted tuple of positive parts."""

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        object.__setattr__(self, "parts", tuple(sorted(parts)))
        if any(x < 1 for x in self.parts):
            raise ValueError("parts must be positive integers")

    @property
    def size(self) -> int:
        return sum(self.parts)


def t_signed(partition: Partition | Iterable[int]) -> int:
    """Signed triangular weight: sum of (-1)^(k-1) * k * m_k over the maximal
    initial run 1..n of part sizes present; 0 when no part equals 1."""
    parts = partition.parts if isinstance(partition, Partition) else tuple(partition)
    mult: dict[int, int] = {}
    for x in parts:
        mult[x] = mult.get(x, 0) + 1
    total = 0
    k = 1
    while k in mult:
        total += (k if k % 2 else -k) * mult[k]
        k += 1
    return total


def ts_sum_bruteforce(n: int) -> int:
    """Sum of the signed triangular weight over all partitions of n."""
    if n > _SPT_ENUM_GUARD:
        raise EnumerationLimit(f"partition enumeration guarded at n <= {_SPT_ENUM_GUARD}")
    return sum(t_signed(parts) for parts in iter_partitions(n))


def _distinct_partitions(total: int, maxpart: int) -> Iterator[list[int]]:
    if total == 0:
        yield []
        return
    for first in range(min(total, maxpart), 0, -1):
        for rest in _distinct_partitions(total - first, first - 1):
            yield [first] + rest


def ustar_bruteforce(n: int) -> int:
    """Even-rank minus odd-rank count of strongly unimodal sequences of size n.

    A sequence is a strictly increasing run up to a peak followed by a strictly
    decreasing run; its rank is (terms after the peak) - (terms before it)."""
    if n > _UNIMODAL_ENUM_GUARD:
        raise EnumerationLimit(f"unimodal enumeration guarded at n <= {_UNIMODAL_ENUM_GUARD}")
    total = 0
    for peak in range(1, n + 1):
        rem = n - peak
        for m1 in range(rem + 1):
            before = list(_distinct_partitions(m1, peak - 1))
            after = list(_distinct_partitions(rem - m1, peak - 1))
            for asc in before:
                for desc in after:
                    rank = len(desc) - len(asc)
                    total += 1 if rank % 2 == 0 else -1
    return total


# ----------------------------------------------------------------------
# tables

@dataclass(frozen=True)
class StatTables:
    """Immutable exact tables of p, spt, a and u* up to a build limit."""

    limit: int
    p: tuple[int, ...]
    spt: tuple[int, ...]
    a: tuple[int, ...]
    ustar: tuple[int, ...]

    @classmethod
    def build(cls, N: int) -> "StatTables":
        p = p_table(N)
        spt = spt_table(N)
        a = a_table(N)
        ustar = [-s + 2 * x for s, x in zip(spt, a)]
        return cls(N, tuple(p), tuple(spt), tuple(a), tuple(ustar))

    def require(self, n: int) -> None:
        if n > self.limit:
            raise TableTooSmall(f"tables built to {self.limit}, need {n}")


# ----------------------------------------------------------------------
# ingredients of the combinatorial c(n) formulas

def s_fn(n: int) -> int:
    """The sparse pentagonal-square term: contributions from
    24n = (6k+1)^2 - 25 and 24n = (6k+1)^2 - 1; equals 2 at n = 1."""
    if n < 1:
        return 0
    total = 0
    for shift in (25, 1):
        m = 24 * n + shift
        r = _isqrt_exact(m)
        if r is None:
            continue
        if r % 6 == 1:
            k = (r - 1) // 6
        else:
            k = -(r + 1) // 6
        total += 1 if k % 2 else -1
    return total


def _isqrt_exact(m: int) -> int | None:
    import math
    r = math.isqrt(m)
    return r if r * r == m else None


def mu(n: int) -> int:
    """mu_n = 6 - ((1-24n)|5)."""
    return 6 - legendre(1 - 24 * n, 5)


def h1(m: int, tables: StatTables, spt: Sequence[int] | None = None) -> Fraction:
    """Weight attached to exponent m = 24n-1 in the T(25) expansion of M+.

    The coefficient on p(n) in the mu_n term is (24n-1)/5, which is what the
    c(1) and c(2) decompositions force. spt defaults to tables.spt; pass
    2a - u* for the Corollary 1.5 form."""
    if m <= 0 or m % 24 != 23:
        return Fraction(0)
    spt = tables.spt if spt is None else spt
    n = (m + 1) // 24
    tables.require(25 * n - 1)
    return (Fraction(12, 5) * spt[25 * n - 1]
            + 5 * (24 * n - 1) * tables.p[25 * n - 1]
            + mu(n) * (Fraction(12, 5) * spt[n]
                       + Fraction(24 * n - 1, 5) * tables.p[n]))


def h2(m: int, tables: StatTables, spt: Sequence[int] | None = None) -> Fraction:
    """Weight attached to exponent m = 25(24n-1); zero off that support."""
    if m <= 0 or m % 24 != 23 or m % 25 != 0:
        return Fraction(0)
    spt = tables.spt if spt is None else spt
    n = (m // 25 + 1) // 24
    tables.require(25 * n - 1)
    return Fraction(12 * spt[n] + (24 * n - 1) * tables.p[n])


def _pentagonal_k_range(n: int) -> list[int]:
    """All k with (6k+1)^2 < 24n, i.e. a positive argument 24n-(6k+1)^2."""
    ks = []
    k = 0
    while (6 * k + 1) ** 2 < 24 * n:
        ks.append(k)
        k += 1
    k = -1
    while (6 * k + 1) ** 2 < 24 * n:
        ks.append(k)
        k -= 1
    return ks


def c_formula(n: int, tables: StatTables, spt: Sequence[int] | None = None) -> Fraction:
    """c(n) from partition statistics: (s(n) + sum_k (-1)^k [h1+h2](24n-(6k+1)^2))/n."""
    total = Fraction(s_fn(n))
    for k in _pentagonal_k_range(n):
        arg = 24 * n - (6 * k + 1) ** 2
        sign = -1 if k % 2 else 1
        total += sign * (h1(arg, tables, spt) + h2(arg, tables, spt))
    return total / n


def spt_from_ustar(tables: StatTables) -> list[int]:
    """The spt column rebuilt as 2a - u*."""
    return [2 * a - u for a, u in zip(tables.a, tables.ustar)]


def c1_c2_decompositions(tables: StatTables) -> list[str]:
    """Itemized reconstruction of the displayed c(1) and c(2) splittings,
    first through spt, then through 2a - u* with its spt terms parenthesized."""
    return (_c1_c2_lines(tables.p, tables.spt, "{}")
            + _c1_c2_lines(tables.p, spt_from_ustar(tables), "({})"))


def _c1_c2_lines(p: Sequence[int], spt: Sequence[int], fmt: str) -> list[str]:
    # c(1) = s(1) + mu_1*(12/5 spt(1) + 23/5 p(1)) + 12/5 spt(24) + 115 p(24)
    t_mu = mu(1) * (Fraction(12, 5) * spt[1] + Fraction(23, 5) * p[1])
    t_spt = Fraction(12, 5) * spt[24]
    t_p = Fraction(5 * 23 * p[24])
    # c(2) = (s(2) - h1(23) + h1(47))/2, itemized
    t_mu2 = mu(2) * (Fraction(12, 5) * spt[2] + Fraction(47, 5) * p[2])
    t_spt2 = Fraction(12, 5) * spt[49]
    t_p2 = Fraction(5 * 47 * p[49])
    f_spt, f_spt2 = fmt.format(t_spt), fmt.format(t_spt2)
    return [f"c(1) = {s_fn(1)} + {t_mu} + {f_spt} + {t_p}"
            f" = {s_fn(1) + t_mu + t_spt + t_p}",
            f"c(2) = (1/2)({s_fn(2)} - {t_mu} + {t_mu2} - {f_spt} - {t_p}"
            f" + {f_spt2} + {t_p2})"
            f" = {(s_fn(2) - t_mu + t_mu2 - t_spt - t_p + t_spt2 + t_p2) / 2}"]


# ----------------------------------------------------------------------
# congruence checking

def spt_family_instances(ell: int, m: int, max_n: int, sign: str) -> list[tuple[int, int]]:
    """(n, index) pairs with an integral index (ell^2m * n -+ 1)/24 and (-n|ell) = 1."""
    power = ell ** (2 * m)
    out = []
    for n in range(1, max_n + 1):
        if legendre(-n, ell) != 1:
            continue
        num = power * n + (1 if sign == "plus" else -1)
        if num % 24 == 0:
            out.append((n, num // 24))
    return out


def congruence_rows(family: str, max_n: int, ell: int = 5, m: int = 1) -> int:
    """Largest table index check_congruences reads for a family, under
    either sign convention."""
    if family == "andrews":
        return 13 * max_n + 6
    if family == "all":
        return max(congruence_rows(f, max_n, ell, m) for f in ("andrews", "eq5", "cor1_4"))
    mm = 1 if family == "eq5" else m
    return max((idx for sign in ("plus", "minus")
                for _, idx in spt_family_instances(ell, mm, max_n, sign)), default=0)


def check_congruences(family: str, tables: StatTables, max_n: int = 200,
                      ell: int = 5, m: int = 1, sign: str = "plus") -> VerificationReport:
    """Verify one congruence family over the requested range.

    Families: 'andrews' (the mod 5/7/13 spt congruences), 'eq5' (the mod-ell
    family), 'eq6' (mod ell^m), 'cor1_4' (u* = 2a mod ell^m at the same
    indices), 'all' (every family at its defaults)."""
    t0 = time.monotonic()
    rep = VerificationReport(check=f"congruences:{family}",
                             parameters={"max_n": max_n, "ell": ell, "m": m,
                                         "sign_convention": sign},
                             window=(1, max_n + 1))
    if family == "andrews":
        for step, res, mod in ((5, 4, 5), (7, 5, 7), (13, 6, 13)):
            for n in range(0, max_n + 1):
                idx = step * n + res
                tables.require(idx)
                rep.record(idx, tables.spt[idx] % mod, 0)
            rep.details.append(f"spt({step}n+{res}) = 0 mod {mod}: n <= {max_n}")
    elif family in ("eq5", "eq6"):
        mm = 1 if family == "eq5" else m
        modulus = ell ** mm
        inst = spt_family_instances(ell, mm, max_n, sign)
        for n, idx in inst:
            tables.require(idx)
            rep.record(idx, tables.spt[idx] % modulus, 0)
        other = spt_family_instances(ell, mm, max_n, "minus" if sign == "plus" else "plus")
        rep.details.append(f"convention '{sign}': {len(inst)} integral indices, "
                           f"{len(rep.mismatches)} failures")
        tables.require(max((idx for _, idx in other), default=0))
        bad = sum(1 for _, idx in other if tables.spt[idx] % modulus)
        rep.details.append(f"other convention: {len(other)} integral indices, "
                           f"{bad} failures")
    elif family == "cor1_4":
        modulus = ell ** m
        for n, idx in spt_family_instances(ell, m, max_n, sign):
            tables.require(idx)
            rep.record(idx, (tables.ustar[idx] - 2 * tables.a[idx]) % modulus, 0)
    elif family == "all":
        for sub in ("andrews", "eq5", "cor1_4"):
            r = check_congruences(sub, tables, max_n=max_n, ell=ell, m=m, sign=sign)
            rep.mismatches.extend(r.mismatches)
            rep.details.extend(f"{sub}: {d}" for d in r.details or [r.status])
    else:
        raise UnknownCheck(f"unknown congruence family {family!r}")
    rep.runtime_ms = int((time.monotonic() - t0) * 1000)
    return rep
