"""Partition statistics: p(n), spt(n), a(n), u*(n), and the combinatorial
coefficient formulas for the j-function.

Scalable computations go through exact integer tables; every combinatorially
defined quantity also has a brute-force enumeration oracle with an explicit
size guard.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from .arith import legendre, require_hecke_prime
from .errors import EnumerationLimit, TableTooSmall, UnknownCheck
from .report import VerificationReport

_ENUM_GUARDS = {"spt": 60, "partition": 60, "unimodal": 40}


def pentagonal_terms(limit: int) -> list[tuple[int, int]]:
    """(exponent, sign) pairs of (q;q)_inf below limit, exponents increasing."""
    out = [(0, 1)] if limit > 0 else []
    k = 1
    while k * (3 * k - 1) // 2 < limit:
        s = -1 if k % 2 else 1
        out.append((k * (3 * k - 1) // 2, s))
        if k * (3 * k + 1) // 2 < limit:
            out.append((k * (3 * k + 1) // 2, s))
        k += 1
    out.sort()
    return out


def triangular_terms(limit: int) -> list[tuple[int, int]]:
    """(exponent, coefficient) pairs of (q;q)_inf^3 below limit, exponents increasing:
    Jacobi's identity (q;q)_inf^3 = sum_{k>=0} (-1)^k (2k+1) q^(k(k+1)/2)."""
    out = []
    k = 0
    while k * (k + 1) // 2 < limit:
        out.append((k * (k + 1) // 2, -(2 * k + 1) if k % 2 else 2 * k + 1))
        k += 1
    return out


def _over_euler(N: int, kernel: Iterable[tuple[int, int]],
                divisor: Callable[[int], list[tuple[int, int]]] = pentagonal_terms) -> list[int]:
    """x(0..N) solving D(q) X = sum w q^e over the (e, w) pairs of kernel
    (0 <= e <= N), where D = sum d_g q^g, d_0 = 1, has the sparse terms that
    divisor(N + 1) lists: pentagonal_terms for D = (q;q)_inf, so that X is P(q)
    times the kernel, or triangular_terms for D = (q;q)_inf^3. The recurrence is
    x[n] = kernel[n] - sum_{0 < g <= n} d_g x[n - g]."""
    x = [0] * (N + 1)
    for e, w in kernel:
        x[e] += w
    # the g with d_g = -1 add and those with d_g = 1 subtract, with no multiply;
    # any other d_g is scaled; each g joins when n reaches it
    add, sub, scaled = [], [], []
    terms = [(g, d) for g, d in divisor(N + 1) if g > 0] + [(N + 1, 0)]
    for (g, d), (end, _) in zip(terms, terms[1:]):
        if d == -1:
            add.append(g)
        elif d == 1:
            sub.append(g)
        else:
            scaled.append((g, d))
        for n in range(g, end):
            acc = x[n]
            for h in add:
                acc += x[n - h]
            for h in sub:
                acc -= x[n - h]
            for h, c in scaled:
                acc -= c * x[n - h]
            x[n] = acc
    return x


def p_table(N: int) -> list[int]:
    """p(0..N): P(q) = 1/(q;q)_inf by the Euler pentagonal recurrence."""
    return _over_euler(N, [(0, 1)])


def spt_table(N: int) -> list[int]:
    """spt(0..N) by Andrews' identity: P(q) times
    sum sigma(n) q^n + sum_{n>=1} (-1)^n q^(n(3n+1)/2) (1+q^n)/(1-q^n)^2."""
    sigma = ((e, d) for d in range(1, N + 1) for e in range(d, N + 1, d))
    # (1+x)/(1-x)^2 = sum_k (2k+1) x^k
    pentagonal = ((e, (-1) ** n * (2 * k + 1)) for n in range(1, N + 1)
                  for k, e in enumerate(range(n * (3 * n + 1) // 2, N + 1, n)))
    return _over_euler(N, chain(sigma, pentagonal))


def a_table(N: int) -> list[int]:
    """a(0..N): coefficients of
    (1/(q;q)_inf) * sum_n (-1)^(n-1) n q^(n(n+1)/2)/(1-q^n)."""
    return _over_euler(N, ((e, (-1) ** (n - 1) * n) for n in range(1, N + 1)
                           for e in range(n * (n + 1) // 2, N + 1, n)))


# ----------------------------------------------------------------------
# brute-force oracles

def enumeration_guard(kind: str, n: int) -> None:
    """Raise EnumerationLimit if n is past the guard of a 'spt', 'partition' or 'unimodal' walk."""
    if n > _ENUM_GUARDS[kind]:
        raise EnumerationLimit(f"{kind} enumeration guarded at n <= {_ENUM_GUARDS[kind]}")


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
    enumeration_guard("spt", n)
    total = 0
    for parts in iter_partitions(n):
        total += bisect_right(parts, parts[0])
    return total


def t_signed(parts: Sequence[int]) -> int:
    """Signed triangular weight of a partition, its parts in any order: sum of
    (-1)^(k-1) * k * m_k over the maximal initial run 1..n of part sizes
    present; 0 when no part equals 1."""
    total = 0
    k = 1
    while m := parts.count(k):
        total += k * m if k % 2 else -k * m
        k += 1
    return total


def ts_sum_bruteforce(n: int) -> int:
    """Sum of the signed triangular weight over all partitions of n.

    The accelAsc walk of iter_partitions, building no part list: each prefix
    a[:i] keeps its run state, so each partition adds its weight in O(1).
    Parts come in ascending order, so once a prefix skips a size its run stays
    broken and its weight stays fixed."""
    enumeration_guard("partition", n)
    a = [0] * (n + 1)
    # run[i]: the largest part L while a[:i] has exactly the part sizes 1..L,
    # -1 (which matches no part) once that run is broken; wt[i]: the signed
    # weight of a[:i]
    run = [0] * (n + 1)
    wt = [0] * (n + 1)
    total = 0
    k = 1
    y = n - 1
    while k != 0:
        x = a[k - 1] + 1
        k -= 1
        L = run[k]
        w = wt[k]
        while 2 * x <= y:
            a[k] = x
            if x == L or x == L + 1:
                L = x
                w += x if x & 1 else -x
            else:
                L = -1
            y -= x
            k += 1
            run[k] = L
            wt[k] = w
        while x <= y:  # the partition a[:k] + [x, y]
            if x == L or x == L + 1:
                t = w + (x if x & 1 else -x)
                if y - x <= 1:
                    t += y if y & 1 else -y
                total += t
            else:
                total += w
            x += 1
            y -= 1
        v = x + y  # the partition a[:k] + [v], v above every part of a[:k]
        total += w + (v if v & 1 else -v) if v == L + 1 else w
        a[k] = v
        y = v - 1
    return total


def _distinct_parts(limit: int, maxpart: int) -> Iterator[list[int]]:
    """Every set of distinct parts <= maxpart with sum <= limit, as a descending list."""
    yield []
    for first in range(min(limit, maxpart), 0, -1):
        for rest in _distinct_parts(limit - first, first - 1):
            yield [first] + rest


def ustar_bruteforce(N: int) -> list[int]:
    """u*(0..N), where u*(n) is the even-rank minus odd-rank count of the strongly
    unimodal sequences of size n.

    A sequence is a strictly increasing run up to a peak followed by a strictly
    decreasing run; its rank is (terms after the peak) - (terms before it)."""
    enumeration_guard("unimodal", N)
    total = [0] * (N + 1)
    for peak in range(1, N + 1):
        rem = N - peak
        # (-1)^rank = (-1)^len(asc) * (-1)^len(desc), so the sum over pairs of runs
        # with sizes (t, m - t) is S[t] * S[m - t], where S[t] is the signed count of
        # the runs of distinct parts below peak with sum t; each run is enumerated
        # once, for every size up to N - peak
        S = [0] * (rem + 1)
        for run in _distinct_parts(rem, peak - 1):
            S[sum(run)] += -1 if len(run) % 2 else 1
        for m in range(rem + 1):
            total[peak + m] += sum(S[t] * S[m - t] for t in range(m + 1))
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


_TABLES: StatTables | None = None


def stat_tables(n: int) -> StatTables:
    """The process's one table, rebuilt to row n only when a reader asks past it;
    each reader asks for the largest index it reads, so no caller sizes tables."""
    global _TABLES
    if _TABLES is None or _TABLES.limit < n:
        _TABLES = StatTables.build(n)
    return _TABLES


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
    """mu_n = 6 - ((1-24n)|5): the factor of M+[24n-1] in M_5[24n-1] (see mell_terms)."""
    return mell_terms(5, n)[1][0]


def mplus_parts(tables: StatTables, k: int) -> tuple[int, int]:
    """12 spt(k) and (24k-1) p(k), whose sum is mplus_weight; zeros for k < 0."""
    if k < 0:
        return 0, 0
    return 12 * tables.spt[k], (24 * k - 1) * tables.p[k]


def mplus_weight(tables: StatTables, k: int) -> int:
    """Twelve times the coefficient of q^(24k-1) in M+, 0 for k < 0."""
    return sum(mplus_parts(tables, k))


def mell_terms(ell: int, k: int) -> list[tuple[int, int]]:
    """(factor, row) pairs with mell_weight(tables, ell, k) = sum factor * mplus_weight(tables, row).

    M_ell = M+ | T(ell^2) - (3|ell)(1+ell) M+, where T(ell^2) sends a(m) to
    a(ell^2 m) + (3|ell)(-m|ell) a(m) + ell a(m/ell^2). At m = 24k-1, the first row is the
    deepest: ell^2 m = 24(ell^2 k - delta) - 1 with delta = (ell^2 - 1)/24."""
    ell2 = ell * ell
    m = 24 * k - 1
    terms = [(1, ell2 * k - (ell2 - 1) // 24),
             (legendre(3, ell) * (legendre(-m, ell) - 1 - ell), k)]
    if m % ell2 == 0:
        terms.append((ell, (m // ell2 + 1) // 24))
    return terms


def mell_weight(tables: StatTables, ell: int, k: int) -> int:
    """Twelve times the coefficient of q^(24k-1) in M_ell; raises TableTooSmall short of its rows."""
    terms = mell_terms(ell, k)
    tables.require(terms[0][1])
    return sum(f * mplus_weight(tables, row) for f, row in terms)


def c_formula_tables(max_n: int) -> StatTables:
    """The process tables through row 25 max_n - 1, the deepest c_formula(n <= max_n) reads."""
    return stat_tables(25 * max_n - 1)


def c_formula(n: int, tables: StatTables) -> Fraction:
    """c(n) = (s(n) + sum_k (-1)^k (12/5) M_5[24n-(6k+1)^2])/n over the k with (6k+1)^2 < 24n.
    As 24n-(6k+1)^2 = 24(n-g)-1 with g = k(3k+1)/2, the sum runs over the terms (-1)^k q^g
    of (q;q)_inf with g < n, and M_5 is read through mell_weight."""
    total = Fraction(s_fn(n))
    for g, sign in pentagonal_terms(n):
        total += sign * Fraction(mell_weight(tables, 5, n - g), 5)
    return total / n


def tables_via_ustar(tables: StatTables) -> StatTables:
    """The tables with their spt column rebuilt as 2a - u*, which the Corollary 1.5
    checks read in place of spt."""
    return replace(tables, spt=tuple(2 * a - u for a, u in zip(tables.a, tables.ustar)))


def c1_c2_decompositions(tables: StatTables) -> list[str]:
    """Itemized reconstruction of the displayed c(1) and c(2) splittings,
    first through spt, then through 2a - u* with its spt terms parenthesized."""
    tables.require(49)
    return _c1_c2_lines(tables, "{}") + _c1_c2_lines(tables_via_ustar(tables), "({})")


def _c1_c2_lines(tables: StatTables, fmt: str) -> list[str]:
    # c(1) = s(1) + w(1) and c(2) = (s(2) - w(1) + w(2))/2 with w(k) = mell_weight(tables, 5, k)/5,
    # each w(k) itemized as its mu_k M+ term and the spt and p parts of its top row
    items = []
    for k in (1, 2):
        (_, top), (mu_k, row) = mell_terms(5, k)  # no third term: 25 divides neither 23 nor 47
        t_mu = Fraction(mu_k * mplus_weight(tables, row), 5)
        t_spt, t_p = (Fraction(x, 5) for x in mplus_parts(tables, top))
        items.append((t_mu, t_spt, t_p))
    (t_mu, t_spt, t_p), (t_mu2, t_spt2, t_p2) = items
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


def check_congruences(family: str, max_n: int, ell: int = 5, m: int = 1,
                      sign: str = "plus") -> VerificationReport:
    """Verify one congruence family over the requested range.

    Families: 'andrews' (the mod 5/7/13 spt congruences), 'eq5' (the mod-ell
    family), 'eq6' (mod ell^m), 'cor1_4' (u* = 2a mod ell^m at the same
    indices), 'all' (every family at its defaults)."""
    if family in ("eq5", "eq6", "cor1_4", "all"):
        require_hecke_prime(ell)
    rep = VerificationReport(check=f"congruences:{family}",
                             parameters={"max_n": max_n, "ell": ell, "m": m,
                                         "sign_convention": sign},
                             window=(1, max_n + 1))
    if family == "andrews":
        progressions = [(mod, res, range(res, mod * max_n + res + 1, mod))
                        for mod, res in ((5, 4), (7, 5), (13, 6))]
        tables = stat_tables(max(idxs[-1] for _, _, idxs in progressions))
        for mod, res, idxs in progressions:
            for idx in idxs:
                rep.record(idx, tables.spt[idx] % mod, 0)
            rep.details.append(f"spt({mod}n+{res}) = 0 mod {mod}: n <= {max_n}")
    elif family in ("eq5", "eq6"):
        mm = 1 if family == "eq5" else m
        modulus = ell ** mm
        inst = spt_family_instances(ell, mm, max_n, sign)
        other = spt_family_instances(ell, mm, max_n, "minus" if sign == "plus" else "plus")
        tables = stat_tables(max((idx for _, idx in inst + other), default=0))
        for n, idx in inst:
            rep.record(idx, tables.spt[idx] % modulus, 0)
        rep.details.append(f"convention '{sign}': {len(inst)} integral indices, "
                           f"{len(rep.mismatches)} failures")
        bad = sum(1 for _, idx in other if tables.spt[idx] % modulus)
        rep.details.append(f"other convention: {len(other)} integral indices, "
                           f"{bad} failures")
    elif family == "cor1_4":
        modulus = ell ** m
        inst = spt_family_instances(ell, m, max_n, sign)
        tables = stat_tables(max((idx for _, idx in inst), default=0))
        for n, idx in inst:
            rep.record(idx, (tables.ustar[idx] - 2 * tables.a[idx]) % modulus, 0)
    elif family == "all":
        for sub in ("andrews", "eq5", "cor1_4"):
            r = check_congruences(sub, max_n, ell=ell, m=m, sign=sign)
            rep.mismatches.extend(r.mismatches)
            rep.details.extend(f"{sub}: {d}" for d in r.details or [r.status])
    else:
        raise UnknownCheck(f"unknown congruence family {family!r}")
    return rep
