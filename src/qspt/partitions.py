"""Partition statistics: p(n), spt(n), a(n), u*(n), and the combinatorial
coefficient formulas for the j-function.

Scalable computations go through exact integer tables; every combinatorially
defined quantity also has an oracle computed from its definition, with an
explicit size guard.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from decimal import Decimal
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import add, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .arith import euler_criterion, legendre, require_hecke_prime, to_decimal
from .errors import EnumerationLimit, QsptError, UnknownCheck
from .report import VerificationReport

_ENUM_GUARDS = {"spt": 60, "partition": 2000, "unimodal": 40}


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


def _reader(offsets: list[int]):
    """x -> the items x[h] for h in offsets, as a sequence: one itemgetter, save
    for fewer than two offsets, where an itemgetter returns no tuple, and for 20,
    as CPython 3.11 and 3.12 put every freed 20-tuple on a free list that never
    hands it out again (up to 2,000 of them, 400 KB)."""
    if len(offsets) < 2 or len(offsets) == 20:
        return lambda x: [x[h] for h in offsets]
    return itemgetter(*offsets)


def _over_euler(N: int, kernel: Iterable[int]) -> list[int]:
    """x(0..N) solving (q;q)_inf X = K(q), so that X is P(q) times the kernel,
    where kernel yields the coefficients of K from q^0 on (those past q^N are
    not read, missing ones are 0). With the pentagonal terms d_g = +-1 of
    (q;q)_inf the recurrence is x[n] = kernel[n] - sum_{0 < g <= n} d_g x[n - g]."""
    ks = chain(islice(kernel, N + 1), repeat(0))
    x = []
    # the g with d_g = -1 add and those with d_g = 1 subtract, with no multiply; each
    # g joins when n reaches it, read as x[-g] from the rows so far
    plus, minus = [], []
    terms = pentagonal_terms(N + 1) + [(N + 1, 0)]
    for (g, d), (end, _) in zip(terms, terms[1:]):
        if g:
            (plus if d == -1 else minus).append(-g)
        get_add, get_sub = _reader(plus), _reader(minus)
        for v in islice(ks, end - g):
            x.append(v + sum(get_add(x)) - sum(get_sub(x)))
    return x


def p_table(N: int) -> list[int]:
    """p(0..N): P(q) = 1/(q;q)_inf by the Euler pentagonal recurrence."""
    return _over_euler(N, [1])


def spt_table(N: int) -> list[int]:
    """spt(0..N) by Andrews' identity: P(q) times
    sum sigma(n) q^n + sum_{n>=1} (-1)^n q^(n(3n+1)/2) (1+q^n)/(1-q^n)^2."""
    k = [0] * (N + 1)
    # sigma(e) = sum of the divisors of e, in the pairs d + e/d with d <= e/d and
    # d counted once at e = d^2
    for d in range(1, math.isqrt(N) + 1):
        k[d * d::d] = map(add, k[d * d::d], range(2 * d, d + N // d + 1))
        k[d * d] -= d
    # (1+x)/(1-x)^2 = sum_j (2j+1) x^j
    n = 1
    while (start := n * (3 * n + 1) // 2) <= N:
        s = -1 if n & 1 else 1
        k[start::n] = [v + c for v, c in zip(k[start::n], range(s, s * (2 * N + 1), 2 * s))]
        n += 1
    return _over_euler(N, k)


def _a_kernel(N: int) -> list[int]:
    """sum_n (-1)^(n-1) n q^(n(n+1)/2)/(1-q^n) below q^(N+1), which P(q) multiplies into A(q)."""
    k = [0] * (N + 1)
    n = 1
    while (start := n * (n + 1) // 2) <= N:
        c = n if n & 1 else -n
        k[start::n] = [v + c for v in k[start::n]]
        n += 1
    return k


def a_table(N: int) -> list[int]:
    """a(0..N): coefficients of
    (1/(q;q)_inf) * sum_n (-1)^(n-1) n q^(n(n+1)/2)/(1-q^n)."""
    return _over_euler(N, _a_kernel(N))


# ----------------------------------------------------------------------
# guarded oracles

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


def ts_sum_bruteforce(N: int) -> list[int]:
    """[the sum of t_signed over the partitions of n, for n in 0..N].

    A recurrence over part sizes k = 1..N that builds each partition from its
    multiplicities m_k. While its sizes so far are exactly 1..k-1 (a run), any
    m_k >= 1 adds (-1)^(k-1) * k * m_k to its weight and keeps the run going;
    m_k = 0 ends the run, and the weight is frozen whatever larger parts follow.
    By sum: count and weight of the partitions in a run, ended the weight of
    the rest."""
    enumeration_guard("partition", N)
    count = [1] + [0] * N
    weight = [0] * (N + 1)
    ended = [0] * (N + 1)
    for k in range(1, N + 1):
        for s in range(k, N + 1):  # the ended partitions take any number of parts k
            ended[s] += ended[s - k]
        ended = list(map(add, ended, weight))  # the runs that skip k, after the pass
        t = k if k & 1 else -k
        c, w = [0] * (N + 1), [0] * (N + 1)
        for s in range(k, N + 1):  # one more part k on a run at s - k with m_k >= 0
            c[s] = count[s - k] + c[s - k]
            w[s] = weight[s - k] + w[s - k] + t * c[s]
        count, weight = c, w
    return list(map(add, ended, weight))


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

class StatTables(NamedTuple):
    """An spt column solved through a limit: the record of one spt solve."""

    limit: int
    spt: tuple[int, ...]

    @classmethod
    def build(cls, N: int) -> "StatTables":
        return cls(N, tuple(spt_table(N)))


_COLUMNS: dict[str, tuple[int, ...]] = {}  # "spt", "p" and "a", each as deep as its deepest reader
# The deepest row a column is solved to: it admits congruences --ell 5 --m 3, the deepest
# request measured, which reads spt alone to row 124,349 (5.8-7.0 s and 39 MiB in a fresh
# process, Python 3.11.7 on a 2-vCPU VM).
MAX_TABLE_ROW = 125_000


def column(name: str, n: int) -> tuple[int, ...]:
    """The process's column "spt", "p" or "a", solved again, through row n, only when
    a reader reads past its end; a row past MAX_TABLE_ROW raises QsptError before
    anything is solved."""
    col = _COLUMNS.get(name)
    if col is None or len(col) <= n:
        require_table_row(n)
        # looked up at each solve, so that a wrapped or replaced solver sees every call
        solve = {"spt": lambda n: StatTables.build(n).spt, "p": p_table, "a": a_table}[name]
        col = _COLUMNS[name] = tuple(solve(n))
    return col


def require_table_row(n: int) -> None:
    """Raise QsptError if row n is past MAX_TABLE_ROW; Decimal writes an n of any length."""
    if n > MAX_TABLE_ROW:
        raise QsptError(f"tables capped at row {MAX_TABLE_ROW:,}, {Decimal(n):,} requested")


def ustar_column(N: int) -> list[int]:
    """[u*(0), ..., u*(N)] by eq (17): u*(n) = 2a(n) - spt(n)."""
    spt, a = column("spt", N), column("a", N)
    return [2 * a[n] - spt[n] for n in range(N + 1)]


# ----------------------------------------------------------------------
# ingredients of the combinatorial c(n) formulas

def s_column(N: int) -> list[int]:
    """[s(0), ..., s(N)], s(n) = -e(n) - e(n+1) with e(g) the pentagonal signs of (q;q)_inf:
    the paper's sign sum over the k with 24n + 1 or 24n + 25 = (6k+1)^2, as
    24n + 1 = (6k+1)^2 exactly when n = k(3k+1)/2. It is the share of M_5's principal
    part, W(-1) = W(0) = -5, in c_formula's convolution; s(1) = 2."""
    e = [0] * (N + 2)
    for g, sign in pentagonal_terms(N + 2):
        e[g] = sign
    return [-e[n] - e[n + 1] for n in range(N + 1)]


def mplus_parts(k: int) -> tuple[int, int]:
    """12 spt(k) and (24k-1) p(k), whose sum is mplus_weight; zeros for k < 0."""
    if k < 0:
        return 0, 0
    return 12 * column("spt", k)[k], (24 * k - 1) * column("p", k)[k]


def mplus_weight(k: int) -> int:
    """Twelve times the coefficient of q^(24k-1) in M+, 0 for k < 0."""
    return sum(mplus_parts(k))


def mell_terms(ell: int, k: int) -> list[tuple[int, int]]:
    """(factor, row) pairs with mell_weight(ell, k) = sum factor * mplus_weight(row).

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


def mell_weight(ell: int, k: int) -> int:
    """Twelve times the coefficient of q^(24k-1) in M_ell."""
    return sum(f * mplus_weight(row) for f, row in mell_terms(ell, k))


def mell_weights(ell: int, kmax: int) -> list[int]:
    """[W(-delta), ..., W(kmax)] with W(k) = mell_weight(ell, k) and delta = (ell^2 - 1)/24,
    read from W(kmax) down: its rows are the deepest that any W(k) reads, so each
    column is solved once."""
    delta = (ell * ell - 1) // 24
    return [mell_weight(ell, k) for k in range(kmax, -delta - 1, -1)][::-1]


def c_formula(max_n: int) -> list[Fraction]:
    """[c(1), ..., c(max_n)] by Theorem 1.2, which is Theorem 1.1 at ell = 5: there
    12 eta(24 tau) M_5 = 5 q dj/dq(24 tau), so 5n c(n) = sum e(g) W(n - g) over the terms
    e(g) q^g of (q;q)_inf with g <= n + 1, with W(k) = mell_weight(5, k) from k = -1.
    Its principal part W(-1) = W(0) = -5 carries the paper's s(n). Each weight is read
    once, by mell_weights."""
    w = mell_weights(5, max_n)  # w[k + 1] = W(k)
    terms = pentagonal_terms(max_n + 2)
    return [Fraction(sum(sign * w[n + 1 - g]
                         for g, sign in terms[:bisect_left(terms, (n + 2,))]), 5 * n)
            for n in range(1, max_n + 1)]


def c1_c2_decompositions() -> list[str]:
    """Itemized reconstruction of the displayed c(1) and c(2) splittings, first
    through spt, then again with the spt terms, which eq (17) writes as 2a - u*,
    parenthesized."""
    _, s1, s2 = s_column(2)
    # c(1) = s(1) + w(1) and c(2) = (s(2) - w(1) + w(2))/2 with w(k) = mell_weight(5, k)/5,
    # each w(k) itemized as its mu_k M+ term and the spt and p parts of its top row; c(2)'s
    # top row, 49, is read first, as the deepest
    items = []
    for k in (2, 1):
        (_, top), (mu_k, row) = mell_terms(5, k)  # no third term: 25 divides neither 23 nor 47
        t_spt, t_p = (Fraction(x, 5) for x in mplus_parts(top))
        t_mu = Fraction(mu_k * mplus_weight(row), 5)
        items.append((t_mu, t_spt, t_p))
    (t_mu2, t_spt2, t_p2), (t_mu, t_spt, t_p) = items
    lines = []
    for fmt in ("{}", "({})"):
        f_spt, f_spt2 = fmt.format(t_spt), fmt.format(t_spt2)
        lines += [f"c(1) = {s1} + {t_mu} + {f_spt} + {t_p}"
                  f" = {s1 + t_mu + t_spt + t_p}",
                  f"c(2) = (1/2)({s2} - {t_mu} + {t_mu2} - {f_spt} - {t_p}"
                  f" + {f_spt2} + {t_p2})"
                  f" = {(s2 - t_mu + t_mu2 - t_spt - t_p + t_spt2 + t_p2) / 2}"]
    return lines


# ----------------------------------------------------------------------
# congruence checking

def spt_family_instances(ell: int, m: int, max_n: int, sign: str,
                         order: int = 1) -> Iterator[tuple[int, int]]:
    """(n, index) pairs with an integral index (ell^2m * n -+ 1)/24 and (-n|ell) = 1,
    for a prime ell >= 5 that the caller has checked (check_congruences does, once),
    in increasing n, or in decreasing n for order -1. As ell^2m = 1 mod 24, the
    integral indices are those of n = -+1 mod 24."""
    power = ell ** (2 * m)
    shift, first = (1, 23) if sign == "plus" else (-1, 1)
    return ((n, (power * n + shift) // 24) for n in range(first, max_n + 1, 24)[::order]
            if euler_criterion(-n, ell) == 1)


_ANDREWS = ((5, 4), (7, 5), (13, 6))  # (mod, res): spt(mod n + res) = 0 mod mod
_FAMILIES = {"andrews": ("andrews",), "eq5": ("eq5",), "eq6": ("eq6",),
             "cor1_4": ("cor1_4",), "all": ("andrews", "eq5", "cor1_4")}


def _family_reads(family: str, max_n: int, ell: int, m: int, sign: str,
                  order: int = 1) -> list[tuple[int, Iterable[int]]]:
    """The rows a congruence family reads, for its table size and its check alike, as
    (modulus, indices) per group: Andrews' three progressions; for eq5 and eq6 the
    given sign convention, then the other; for cor1_4 the given convention only.
    The indices come in increasing order, or in decreasing order for order -1."""
    if family == "andrews":
        return [(mod, range(res, mod * max_n + res + 1, mod)[::order]) for mod, res in _ANDREWS]
    mm = 1 if family == "eq5" else m
    signs = (sign,) if family == "cor1_4" else (sign, "minus" if sign == "plus" else "plus")
    return [(ell ** mm, (idx for _, idx in spt_family_instances(ell, mm, max_n, s, order)))
            for s in signs]


def _congruence_rows(family: str, max_n: int, ell: int, m: int, sign: str) -> int:
    """The deepest table row a congruence family reads, 0 if none; for 'all', the deepest
    of its three. Each group's first index in decreasing order lists nothing: the walk
    down from max_n meets its largest n within ell steps, as 24 is a unit mod ell."""
    return max(next(iter(indices), 0) for f in _FAMILIES[family]
               for _, indices in _family_reads(f, max_n, ell, m, sign, -1))


def _require_family_rows(ell: int, m: int) -> None:
    """Refuse congruences mod ell^m whose smallest index (ell^2m - 1)/24 is past
    MAX_TABLE_ROW, before the primality test of ell; with ell^2 >= 25 the loop
    stops within five steps, whatever m."""
    power = 1
    for _ in range(m):
        power *= ell * ell
        if power > 24 * MAX_TABLE_ROW + 1:
            raise QsptError(f"tables capped at row {MAX_TABLE_ROW:,}, and every index "
                            f"(ell^{to_decimal(2 * m)} n -+ 1)/24 of ell = {ell} is past it")


def check_congruences(family: str, max_n: int, ell: int = 5, m: int = 1,
                      sign: str = "plus") -> VerificationReport:
    """Verify one congruence family over the requested range.

    Families: 'andrews' (the mod 5/7/13 spt congruences), 'eq5' (the mod-ell
    family), 'eq6' (mod ell^m), 'cor1_4' (u* = 2a mod ell^m at the same
    indices), 'all' (every family at its defaults). The spt table is sized once,
    for the deepest row of every family, before any family runs, so a request
    past its cap builds nothing; no family reads p or a."""
    if family not in _FAMILIES:
        raise UnknownCheck(f"unknown congruence family {family!r}")
    if family != "andrews":
        if ell >= 5:  # a smaller ell is refused at once, before ell^2m is formed
            _require_family_rows(ell, 1 if family == "eq5" else m)
        require_hecke_prime(ell)
    rep = VerificationReport(check=f"congruences:{family}",
                             parameters={"max_n": max_n, "ell": ell, "m": m,
                                         "sign_convention": sign},
                             window=(1, max_n + 1))
    spt = column("spt", _congruence_rows(family, max_n, ell, m, sign))
    for fam in _FAMILIES[family]:
        before, lines = len(rep.mismatches), []
        reads = _family_reads(fam, max_n, ell, m, sign)
        if fam == "andrews":
            for mod, indices in reads:
                for idx in indices:
                    rep.record(idx, spt[idx] % mod, 0)
                lines.append(f"spt({mod}n+{indices.start}) = 0 mod {mod}: n <= {max_n}")
        else:
            # cor1_4 reads u* - 2a, which is -spt by eq (17), at the given convention
            # alone; eq5 and eq6 read spt at both, and record the given one
            sgn = -1 if fam == "cor1_4" else 1
            [(mod, indices), *other] = [(mod, list(idx)) for mod, idx in reads]
            for idx in indices:
                rep.record(idx, sgn * spt[idx] % mod, 0)
            for _, rest in other:
                bad = sum(1 for idx in rest if spt[idx] % mod)
                lines = [f"convention '{sign}': {len(indices)} integral indices, "
                         f"{len(rep.mismatches) - before} failures",
                         f"other convention: {len(rest)} integral indices, {bad} failures"]
        if family == "all":  # each line names its family; cor1_4, with no lines, its status
            status = "pass" if len(rep.mismatches) == before else "fail"
            lines = [f"{fam}: {line}" for line in lines or [status]]
        rep.details += lines
    return rep
