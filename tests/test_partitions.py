"""Partition statistics, enumeration oracles, and the coefficient formulas."""

import hashlib
import json
from fractions import Fraction
from itertools import accumulate, combinations, product
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qspt import arith, forms, hecke, verify
from qspt import partitions as pt
from qspt.errors import EnumerationLimit, QsptError, UnknownCheck
from qspt.hecke import HeckeContext
from qspt.series import LaurentSeries, convolve


def test_p_table_values():
    p = pt.p_table(49)
    assert p[:10] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert p[24] == 1575
    assert p[49] == 173525


def test_spt_table_values():
    s = pt.spt_table(49)
    assert s[1:7] == [1, 3, 5, 10, 14, 26]
    assert s[24] == 6545
    assert s[49] == 1002435


def _p_by_parts(N):
    """p(0..N) by admitting one part size at a time: the reference for P(q)."""
    p = [1] + [0] * N
    for part in range(1, N + 1):
        for n in range(part, N + 1):
            p[n] += p[n - part]
    return p


@st.composite
def sparse_kernels(draw):
    N = draw(st.integers(0, 300))
    exponents = st.one_of(st.sampled_from((0, N)), st.integers(0, N))
    return N, draw(st.lists(st.tuples(exponents, st.integers(-10 ** 6, 10 ** 6)),
                            max_size=20))


@given(sparse_kernels())
def test_over_euler_is_p_times_the_kernel(case):
    # the recurrence against the product it replaced
    N, kernel = case
    dense = [0] * (N + 1)
    for e, w in kernel:
        dense[e] += w
    assert pt._over_euler(N, dense) == convolve(_p_by_parts(N), dense, N + 1)


def _spt_kernel_by_definition(N):
    """sum sigma(n) q^n + sum_{n>=1} (-1)^n q^(n(3n+1)/2) (1+q^n)/(1-q^n)^2 below q^(N+1),
    sigma by trial division and (1+x)/(1-x)^2 as sum_j (2j+1) x^j."""
    k = [0] + [sum(d for d in range(1, e + 1) if e % d == 0) for e in range(1, N + 1)]
    for n in range(1, N + 1):
        for j in range(N + 1):
            e = n * (3 * n + 1) // 2 + n * j
            if e <= N:
                k[e] += (-1) ** n * (2 * j + 1)
    return k


@pytest.mark.parametrize("N", [0, 1, 2, 3, 4, 5, 6, 7, 11, 12, 14, 15, 21, 22,
                               551, 610, 651, 715])
def test_over_euler_where_its_offset_lists_change_shape(N):
    # around the pentagonal numbers 1, 2, 5, 7, 12, 15, 22 a term joins the added or
    # the subtracted offsets, which each stretch of rows reads with one getter; from
    # 551 to 650 and from 610 to 714 a list holds the 20 offsets read without one
    p = _p_by_parts(N)
    for table, kernel in ((pt.p_table, [1]), (pt.a_table, pt._a_kernel(N)),
                          (pt.spt_table, _spt_kernel_by_definition(N))):
        assert pt._over_euler(N, kernel) == convolve(p, kernel, N + 1)
        assert table(N) == convolve(p, kernel, N + 1)


@given(sparse_kernels(), st.booleans())
def test_sparse_division_equals_series_division(case, jacobi):
    # (q;q)_inf from its pentagonal terms, or (q;q)_inf^3 from Jacobi's raised to
    # the 8th power, divided out by LaurentSeries /: the pentagonal recurrence,
    # or the packed pass of forms that runs the eight divisions by (q;q)_inf^3 at once
    N, kernel = case
    dense = [0] * (N + 1)
    for e, w in kernel:
        dense[e] += w
    terms, power = (pt.triangular_terms, 8) if jacobi else (pt.pentagonal_terms, 1)
    d = [0] * (N + 1)
    for g, c in terms(N + 1):
        d[g] = c
    quotient = LaurentSeries(1, 0, 0, N + 1, dense) / LaurentSeries(1, 0, 0, N + 1, d).pow(power)
    assert quotient.precision == N + 1
    solved = forms._over_delta(dense, N) if jacobi else pt._over_euler(N, dense)
    assert [quotient.coeff(n) for n in range(N + 1)] == solved


def test_stat_tables_are_immutable_values(monkeypatch):
    monkeypatch.setattr(pt, "_COLUMNS", {})
    t = pt.StatTables.build(3)
    assert t == pt.StatTables.build(3) and hash(t) == hash(pt.StatTables.build(3))
    assert t != pt.StatTables.build(4)
    assert repr(t) == "StatTables(limit=3, spt=(0, 1, 3, 5))"
    for attr in ("limit", "spt", "other"):
        with pytest.raises(AttributeError):
            setattr(t, attr, ())


def test_a_column_is_solved_again_only_past_its_end(monkeypatch):
    # spt is solved by StatTables.build, one spt_table call each; p and a by their tables
    solved, builds, tables = {"spt": [], "p": [], "a": []}, [], {}
    build = pt.StatTables.build.__func__
    monkeypatch.setattr(pt.StatTables, "build",
                        classmethod(lambda cls, n: builds.append(n) or build(cls, n)))
    for name in solved:
        table = tables[name] = getattr(pt, name + "_table")
        monkeypatch.setattr(pt, name + "_table",
                            lambda n, name=name, table=table: solved[name].append(n) or table(n))
    monkeypatch.setattr(pt, "_COLUMNS", {})
    for name in solved:
        for n in (10, 4, 10, 30, 12):
            assert pt.column(name, n)[:n + 1] == tuple(tables[name](n))
    assert solved == {"spt": [10, 30], "p": [10, 30], "a": [10, 30]} and builds == [10, 30]
    assert pt._COLUMNS == {name: tuple(tables[name](30)) for name in solved}


@pytest.mark.parametrize("name", ["spt", "p", "a"])
def test_a_column_past_the_row_cap_is_refused_before_any_solve(monkeypatch, name):
    solved = []
    monkeypatch.setattr(pt, "_COLUMNS", {})
    for solver in ("spt_table", "p_table", "a_table"):
        monkeypatch.setattr(pt, solver, lambda n, solver=solver: solved.append(solver))
    monkeypatch.setattr(pt.StatTables, "build", classmethod(lambda cls, n: solved.append(n)))
    with pytest.raises(QsptError, match="^tables capped at row 125,000, 125,001 requested$"):
        pt.column(name, pt.MAX_TABLE_ROW + 1)
    assert solved == [] and pt._COLUMNS == {}


def test_spt_bruteforce_matches_table():
    s = pt.spt_table(40)
    for n in range(1, 41):
        assert pt.spt_bruteforce(n) == s[n]


def _spt_sweep(N):
    """spt(0..N) from the smallest-part generating function, O(N^2).

    For each smallest part s the contribution is (sum_k k q^{sk}) times the
    generating function for partitions into parts > s; the inner sums are
    realized as prefix sums along stride-s progressions."""
    total = [0] * (N + 1)
    g = [0] * (N + 1)
    g[0] = 1  # partitions into parts > s, starting from s = N
    for s in range(N, 0, -1):
        c = [0] * s + g[:N + 1 - s]
        for _ in range(2):
            for r in range(s):
                c[r::s] = accumulate(c[r::s])
        total = list(map(add, total, c))
        for r in range(s):
            g[r::s] = accumulate(g[r::s])
    total[0] = 0
    return total


def test_spt_table_matches_smallest_part_sweep(tables):
    assert list(tables.spt) == _spt_sweep(tables.limit)


def test_spt_enumeration_guard():
    with pytest.raises(EnumerationLimit):
        pt.spt_bruteforce(61)


def test_iter_partitions_counts():
    p = pt.p_table(12)
    for n in range(13):
        assert sum(1 for _ in pt.iter_partitions(n)) == p[n]


def test_a_table_values():
    a = pt.a_table(6)
    assert a[1:7] == [1, 2, 2, 5, 6, 14]


def test_t_signed_examples():
    # weight is the alternating sum (+1)m_1 (-2)m_2 (+3)m_3 ... over the
    # maximal initial run of part sizes, zero when 1 is absent
    assert pt.t_signed([1]) == 1
    assert pt.t_signed([2]) == 0
    assert pt.t_signed([1, 1]) == 2
    assert pt.t_signed([2, 1]) == -1
    assert pt.t_signed([3, 2, 1, 1]) == 3
    assert pt.t_signed([1, 3, 2, 1]) == 3
    assert pt.t_signed([1, 3]) == 1


def _t_signed_by_dict(parts):
    """The signed triangular weight read off a multiplicity dict: the reference
    for t_signed."""
    mult = {}
    for x in parts:
        mult[x] = mult.get(x, 0) + 1
    total = 0
    k = 1
    while k in mult:
        total += (k if k % 2 else -k) * mult[k]
        k += 1
    return total


@given(st.lists(st.integers(1, 8), max_size=30), st.randoms(use_true_random=False))
def test_t_signed_matches_multiplicity_definition(parts, rng):
    assert pt.t_signed(parts) == _t_signed_by_dict(parts)
    shuffled = list(parts)
    rng.shuffle(shuffled)
    assert pt.t_signed(shuffled) == pt.t_signed(parts)


def test_ts_sum_matches_a_table():
    # every N <= 60 as the top of the recurrence, then the guard's N once
    a = pt.a_table(2000)
    for N in range(61):
        assert pt.ts_sum_bruteforce(N) == a[:N + 1]
    assert pt.ts_sum_bruteforce(2000) == a


def _ts_sum_by_lists(n):
    """The signed triangular weight summed over the part lists of n: the
    reference for the recurrence in ts_sum_bruteforce."""
    return sum(map(pt.t_signed, pt.iter_partitions(n)))


def test_ts_sum_matches_part_list_sum():
    # every N <= 30 as the top of the recurrence, each against the sums by part lists
    sums = [_ts_sum_by_lists(n) for n in range(31)]
    for N in range(31):
        assert pt.ts_sum_bruteforce(N) == sums[:N + 1]


def test_ts_sum_enumeration_guard():
    with pytest.raises(EnumerationLimit):
        pt.ts_sum_bruteforce(2001)


def test_ustar_values():
    assert pt.ustar_column(6)[1:] == [1, 1, -1, 0, -2, 2]


def test_ustar_bruteforce_matches():
    assert pt.ustar_bruteforce(18) == pt.ustar_column(18)


def _runs(total, maxpart):
    """Every set of distinct parts <= maxpart with the given sum, by itertools."""
    return [c for r in range(maxpart + 1)
            for c in combinations(range(1, maxpart + 1), r) if sum(c) == total]


def _ustar_by_pairs(n):
    """u*(n) summed over every (ascending run, descending run) pair: the reference
    for ustar_bruteforce."""
    total = 0
    for peak in range(1, n + 1):
        rem = n - peak
        for m1 in range(rem + 1):
            before = _runs(m1, peak - 1)
            after = _runs(rem - m1, peak - 1)
            for asc in before:
                for desc in after:
                    rank = len(desc) - len(asc)
                    total += 1 if rank % 2 == 0 else -1
    return total


def test_distinct_partitions_are_every_set_of_distinct_parts():
    for maxpart in range(9):
        for limit in range(40):
            want = sorted(c[::-1] for total in range(limit + 1) for c in _runs(total, maxpart))
            assert sorted(map(tuple, pt._distinct_parts(limit, maxpart))) == want


def test_ustar_bruteforce_matches_pair_loop():
    assert pt.ustar_bruteforce(18) == [_ustar_by_pairs(n) for n in range(19)]


def test_ustar_bruteforce_windows_agree():
    # u*(n) does not depend on the window it is enumerated in
    for N in range(19):
        assert pt.ustar_bruteforce(N) == pt.ustar_bruteforce(18)[:N + 1]


def test_ustar_matches_unimodal_rank_series(tables):
    # U(-1; q) = sum_{k>=0} (q;q)_k^2 q^(k+1), the rank generating function
    # of strongly unimodal sequences at z = -1 (Bryson-Ono-Pitman-Rhoades)
    N = tables.limit
    u = [0] * (N + 1)
    sq = [1] + [0] * N  # (q;q)_k^2, truncated to degree N
    for k in range(N):
        u[k + 1:] = [x + y for x, y in zip(u[k + 1:], sq)]
        for _ in range(2):  # times (1 - q^(k+1))
            sq[k + 1:] = [x - y for x, y in zip(sq[k + 1:], sq)]
    assert pt.ustar_column(N) == u


def test_ustar_enumeration_guard():
    with pytest.raises(EnumerationLimit):
        pt.ustar_bruteforce(41)


def test_s_column_is_the_papers_square_sum():
    # the paper's s(n): a sign -(-1)^k for each of 24n + 25 and 24n + 1 that is a square
    # (6k+1)^2, k of either sign; both square conditions hold together only at n = 1
    import math
    s = pt.s_column(10 ** 5 - 1)
    assert s[0] == 0 and s[1] == 2
    for n in range(1, 10 ** 5):
        hits, paper = 0, 0
        for shift in (25, 1):
            r = math.isqrt(24 * n + shift)
            if r * r == 24 * n + shift:
                k = (r - 1) // 6 if r % 6 == 1 else -(r + 1) // 6
                hits, paper = hits + 1, paper + (1 if k % 2 else -1)
        assert s[n] == paper
        assert n == 1 or hits <= 1
    assert s[2] == 1   # 24*2+1 = 49 = (6*1+1)^2, odd k
    assert s[5] == -1  # 24*5+1 = 121 = (6*(-2)+1)^2, even k


def test_mu_values():
    # mu_n = 6 - ((1-24n)|5), the factor of M+[24n-1] in M_5[24n-1]
    assert [hecke.mell_terms(HeckeContext(5), n)[1][0] for n in range(1, 5)] == [7, 7, 5, 6]


# twelve times the coefficients of q^(24k-1) in M_5, k = 1, 2, 3, 24; k = 24 is
# the first with a term ell a(m/ell^2), at m = 575 = 25 * 23
_M5_WEIGHTS = {1: 984410, 2: 215922005, 3: 13181405965,
               24: 6359461179835101566210937465}


def test_h_weights():
    assert {k: hecke.mell_weight(HeckeContext(5), k) for k in _M5_WEIGHTS} == _M5_WEIGHTS


def test_mell_weight_solves_the_rows_it_reads(monkeypatch):
    # from empty columns: k = 25 at ell = 5 reads row 624, k = 26 row 649, and ell = 7,
    # k = 14 row 49 * 14 - 2 = 684; every coefficient of 12 M_ell lies in ell Z (eq (9))
    monkeypatch.setattr(pt, "_COLUMNS", {})
    assert hecke.mell_weight(HeckeContext(5), 25) % 5 == 0
    assert hecke.mell_weight(HeckeContext(5), 26) % 5 == 0
    assert hecke.mell_weight(HeckeContext(7), 14) % 7 == 0


def test_mplus_weight_is_zero_below_row_zero():
    assert hecke.mplus_weight(-1) == 0
    assert hecke.mplus_weight(0) == -1


def test_c_formula_first_coefficients():
    assert hecke.c_formula(3) == [196884, 21493760, 864299970]


def test_c1_c2_decompositions():
    lines = hecke.c1_c2_decompositions()
    assert "2 + 49 + 15708 + 181125" in lines[0]
    assert lines[0].endswith("= 196884")
    assert lines[1].endswith("= 21493760")
    assert lines[2].endswith("= 196884")
    assert lines[3].endswith("= 21493760")


def test_spt_family_instances():
    # integral "plus" indices need n = 23 mod 24, and (-n|5) = 1 filters those
    inst = list(verify.spt_family_instances(5, 1, 200, "plus"))
    assert inst == [(71, 74), (119, 124), (191, 199)]
    assert list(verify.spt_family_instances(7, 1, 200, "plus"))[:3] == [
        (47, 96), (143, 292), (167, 341)]
    up = list(verify.spt_family_instances(13, 1, 1000, "minus"))
    assert list(verify.spt_family_instances(13, 1, 1000, "minus", -1)) == up[::-1]


def test_congruence_rows_are_the_deepest_row_each_family_lists():
    # the walk down from max_n finds the row that listing every instance would
    for family, (ell, m), sign, max_n in product(
            ("andrews", "eq5", "eq6", "cor1_4", "all"),
            ((5, 1), (7, 1), (11, 1), (13, 1), (29, 1), (5, 2), (7, 2)),
            ("plus", "minus"), range(1, 500, 11)):
        listed = max((idx for fam in verify._FAMILIES[family]
                      for _, indices in verify._family_reads(fam, max_n, ell, m, sign)
                      for idx in indices), default=0)
        assert verify._congruence_rows(family, max_n, ell, m, sign) == listed


def test_congruence_families_test_the_prime_once(monkeypatch):
    calls = []
    monkeypatch.setattr(arith, "is_prime", lambda n, real=arith.is_prime: calls.append(n) or real(n))
    assert verify.check_congruences("cor1_4", 200, ell=5).passed
    assert verify.check_congruences("eq5", 200, ell=7).passed
    assert verify.check_congruences("all", 200, ell=7).passed  # once for its three families
    assert calls == [5, 7, 7]


def test_an_unknown_congruence_family_is_refused():
    with pytest.raises(UnknownCheck, match="unknown congruence family 'eq7'"):
        verify.check_congruences("eq7", 1)


def test_congruence_families_refuse_a_smallest_index_past_the_cap(monkeypatch):
    monkeypatch.setattr(pt, "MAX_TABLE_ROW", 1)
    # (5^2 - 1)/24 = 1 is admitted, and no n <= 1 has an integral plus index
    assert verify.check_congruences("cor1_4", 1, ell=5).compared == 0
    assert verify.check_congruences("eq5", 1, ell=5, m=2).passed  # eq5 is mod ell, whatever m
    for family, ell, m, exponent in (("cor1_4", 7, 1, 2), ("eq5", 7, 1, 2),
                                     ("eq6", 5, 2, 4), ("all", 5, 2, 4)):
        with pytest.raises(QsptError) as exc:
            verify.check_congruences(family, 1, ell=ell, m=m)
        assert str(exc.value) == (f"tables capped at row 1, and every index "
                                  f"(ell^{exponent} n -+ 1)/24 of ell = {ell} is past it")


def test_andrews_congruences():
    rep = verify.check_congruences("andrews", max_n=39)
    assert rep.passed
    assert len(rep.details) == 3


def test_eq5_convention():
    rep = verify.check_congruences("eq5", max_n=200, ell=5, sign="plus")
    assert rep.passed
    assert any("convention 'plus': 3 integral indices" in d for d in rep.details)
    # the printed "minus" index family fails already at n = 1 (spt(1) = 1)
    bad = verify.check_congruences("eq5", max_n=39, ell=5, sign="minus")
    assert not bad.passed
    assert bad.mismatches[0].exponent == 1


def test_cor1_4():
    rep = verify.check_congruences("cor1_4", max_n=200, ell=5, m=1)
    assert rep.passed


def test_all_families():
    rep = verify.check_congruences("all", max_n=39)
    assert rep.passed


def test_all_families_count_what_their_families_compared():
    subs = [verify.check_congruences(f, max_n=200) for f in ("andrews", "eq5", "cor1_4")]
    assert [r.compared for r in subs] == [3 * 201, 3, 3]
    assert verify.check_congruences("all", max_n=200).compared == 609


def test_all_families_count_their_own_failures(perturbed):
    perturbed("spt", 4)  # spt(5*0 + 4) breaks Andrews' mod 5 congruence, and no other family's
    rep = verify.check_congruences("all", max_n=40)
    assert [m.exponent for m in rep.mismatches] == [4]
    assert rep.details[3:] == ["eq5: convention 'plus': 0 integral indices, 0 failures",
                               "eq5: other convention: 1 integral indices, 1 failures",
                               "cor1_4: pass"]


def test_congruence_reports_keep_their_digest():
    # 240 reports, each dumped with sorted keys and a newline, under one sha256;
    # the deepest table they read has 20,008 rows (ell = 7, m = 2, n = 200)
    digest = hashlib.sha256()
    for family, (ell, m), sign, max_n in product(
            ("andrews", "eq5", "eq6", "cor1_4", "all"),
            ((5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (7, 2)),
            ("plus", "minus"), (1, 23, 39, 200)):
        rep = verify.check_congruences(family, max_n, ell=ell, m=m, sign=sign)
        digest.update((json.dumps(rep.to_dict(), sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == (
        "d1f87a73a534beb2278e9b426c3722f1598d8b4ab8bf92db697dbbae5ee1def1")


def test_the_row_cap_admits_the_deepest_documented_request(monkeypatch):
    built = []

    def fake_build(cls, n):
        built.append(n)
        return cls(n, ())

    monkeypatch.setattr(pt, "_COLUMNS", {})
    monkeypatch.setattr(pt.StatTables, "build", classmethod(fake_build))
    # congruences --ell 5 --m 3 reads row 124,349
    assert verify._congruence_rows("all", 200, 5, 3, "plus") == 124_349
    pt.column("spt", 124_349)
    pt.column("spt", pt.MAX_TABLE_ROW)
    with pytest.raises(QsptError, match="tables capped at row 125,000, 125,001 requested"):
        pt.column("spt", 125_001)
    assert built == [124_349, 125_000]
