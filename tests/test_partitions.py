"""Partition statistics, enumeration oracles, and the coefficient formulas."""

from fractions import Fraction
from itertools import accumulate, combinations
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qspt import partitions as pt
from qspt.errors import EnumerationLimit, TableTooSmall
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
    assert pt._over_euler(N, kernel) == convolve(_p_by_parts(N), dense, N + 1)


@given(sparse_kernels(), st.sampled_from((pt.pentagonal_terms, pt.triangular_terms)))
def test_sparse_division_equals_series_division(case, divisor):
    # (q;q)_inf or (q;q)_inf^3 from its sparse terms, divided out by LaurentSeries /
    N, kernel = case
    dense = [0] * (N + 1)
    for e, w in kernel:
        dense[e] += w
    d = [0] * (N + 1)
    for g, c in divisor(N + 1):
        d[g] = c
    quotient = LaurentSeries(1, 0, 0, N + 1, dense) / LaurentSeries(1, 0, 0, N + 1, d)
    assert quotient.precision == N + 1
    assert [quotient.coeff(n) for n in range(N + 1)] == pt._over_euler(N, kernel, divisor)


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
    a = pt.a_table(45)
    for n in range(1, 46):
        assert pt.ts_sum_bruteforce(n) == a[n]


def _ts_sum_by_lists(n):
    """The signed triangular weight summed over the part lists of n: the
    reference for the walk in ts_sum_bruteforce."""
    return sum(map(pt.t_signed, pt.iter_partitions(n)))


def test_ts_sum_matches_part_list_sum():
    for n in range(0, 31):
        assert pt.ts_sum_bruteforce(n) == _ts_sum_by_lists(n)


def test_ts_sum_enumeration_guard():
    with pytest.raises(EnumerationLimit):
        pt.ts_sum_bruteforce(61)


def test_ustar_values(tables):
    assert list(tables.ustar[1:7]) == [1, 1, -1, 0, -2, 2]


def test_ustar_bruteforce_matches(tables):
    assert pt.ustar_bruteforce(18) == list(tables.ustar[:19])


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
    assert list(tables.ustar) == u


def test_ustar_enumeration_guard():
    with pytest.raises(EnumerationLimit):
        pt.ustar_bruteforce(41)


def test_tables_require(tables):
    tables.require(tables.limit)
    with pytest.raises(TableTooSmall):
        tables.require(tables.limit + 1)


def test_s_fn_values():
    assert pt.s_fn(1) == 2
    # both square conditions hold together only at n = 1
    import math
    for n in range(2, 10 ** 5):
        hits = 0
        for shift in (25, 1):
            r = math.isqrt(24 * n + shift)
            if r * r == 24 * n + shift:
                hits += 1
        assert hits <= 1
        assert pt.s_fn(n) in (-1, 0, 1)
    assert pt.s_fn(2) == 1   # 24*2+1 = 49 = (6*1+1)^2, odd k
    assert pt.s_fn(5) == -1  # 24*5+1 = 121 = (6*(-2)+1)^2, even k
    assert pt.s_fn(0) == 0


def test_mu_values():
    assert [pt.mu(n) for n in range(1, 5)] == [7, 7, 5, 6]


# twelve times the coefficients of q^(24k-1) in M_5, k = 1, 2, 3, 24; k = 24 is
# the first with a term ell a(m/ell^2), at m = 575 = 25 * 23
_M5_WEIGHTS = {1: 984410, 2: 215922005, 3: 13181405965,
               24: 6359461179835101566210937465}


def test_h_weights(tables):
    assert {k: pt.mell_weight(tables, 5, k) for k in _M5_WEIGHTS} == _M5_WEIGHTS


def test_g_matches_h(tables):
    # the Corollary 1.5 weights: mell_weight on the column 2a - u*
    via_ustar = pt.tables_via_ustar(tables)
    assert via_ustar.spt == tables.spt
    assert {k: pt.mell_weight(via_ustar, 5, k) for k in _M5_WEIGHTS} == _M5_WEIGHTS


def test_mell_weight_short_table_raises(tables):
    # k = 25 at ell = 5 reads row 624 of the 640; k = 26 reads row 649
    assert pt.mell_weight(tables, 5, 25) % 5 == 0
    with pytest.raises(TableTooSmall):
        pt.mell_weight(tables, 5, 26)
    with pytest.raises(TableTooSmall):
        pt.mell_weight(tables, 7, 14)  # 49 * 14 - 2 = 684


def test_mplus_weight_is_zero_below_row_zero(tables):
    assert pt.mplus_weight(tables, -1) == 0
    assert pt.mplus_weight(tables, 0) == -1


def test_c_formula_first_coefficients(tables):
    assert pt.c_formula(1, tables) == 196884
    assert pt.c_formula(2, tables) == 21493760
    assert pt.c_formula(3, tables) == 864299970
    via_ustar = pt.tables_via_ustar(tables)
    for n in range(1, 11):
        assert pt.c_formula(n, via_ustar) == pt.c_formula(n, tables)


def test_c1_c2_decompositions(tables):
    lines = pt.c1_c2_decompositions(tables)
    assert "2 + 49 + 15708 + 181125" in lines[0]
    assert lines[0].endswith("= 196884")
    assert lines[1].endswith("= 21493760")
    assert lines[2].endswith("= 196884")
    assert lines[3].endswith("= 21493760")


def test_spt_family_instances():
    # integral "plus" indices need n = 23 mod 24, and (-n|5) = 1 filters those
    inst = pt.spt_family_instances(5, 1, 200, "plus")
    assert inst == [(71, 74), (119, 124), (191, 199)]
    assert pt.spt_family_instances(7, 1, 200, "plus")[:3] == [
        (47, 96), (143, 292), (167, 341)]


def test_andrews_congruences():
    rep = pt.check_congruences("andrews", max_n=39)
    assert rep.passed
    assert len(rep.details) == 3


def test_eq5_convention():
    rep = pt.check_congruences("eq5", max_n=200, ell=5, sign="plus")
    assert rep.passed
    assert any("convention 'plus': 3 integral indices" in d for d in rep.details)
    # the printed "minus" index family fails already at n = 1 (spt(1) = 1)
    bad = pt.check_congruences("eq5", max_n=39, ell=5, sign="minus")
    assert not bad.passed
    assert bad.mismatches[0].exponent == 1


def test_cor1_4():
    rep = pt.check_congruences("cor1_4", max_n=200, ell=5, m=1)
    assert rep.passed


def test_all_families():
    rep = pt.check_congruences("all", max_n=39)
    assert rep.passed
