"""Partition statistics: p(n), spt(n), a(n), u*(n), and the sign sum s(n) of the
combinatorial coefficient formulas for the j-function.

Scalable computations go through exact integer tables; every combinatorially
defined quantity also has an oracle computed from its definition, with an
explicit size guard.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from decimal import Decimal
from itertools import chain, islice, repeat
from operator import add, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import EnumerationLimit, QsptError

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
# the sign sum of the combinatorial c(n) formulas

def s_column(N: int) -> list[int]:
    """[s(0), ..., s(N)], s(n) = -e(n) - e(n+1) with e(g) the pentagonal signs of (q;q)_inf:
    the paper's sign sum over the k with 24n + 1 or 24n + 25 = (6k+1)^2, as
    24n + 1 = (6k+1)^2 exactly when n = k(3k+1)/2. It is the share of M_5's principal
    part, W(-1) = W(0) = -5, in hecke.c_formula's convolution; s(1) = 2."""
    e = [0] * (N + 2)
    for g, sign in pentagonal_terms(N + 2):
        e[g] = sign
    return [-e[n] - e[n + 1] for n in range(N + 1)]
