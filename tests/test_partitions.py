"""Partition statistics, enumeration oracles, and the coefficient formulas."""

from fractions import Fraction

import pytest

from qspt import partitions as pt
from qspt.errors import EnumerationLimit, TableTooSmall


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


def test_spt_bruteforce_matches_table():
    s = pt.spt_table(40)
    for n in range(1, 41):
        assert pt.spt_bruteforce(n) == s[n]


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
    assert pt.t_signed(pt.Partition([1])) == 1
    assert pt.t_signed(pt.Partition([2])) == 0
    assert pt.t_signed(pt.Partition([1, 1])) == 2
    assert pt.t_signed(pt.Partition([2, 1])) == -1
    assert pt.t_signed(pt.Partition([3, 2, 1, 1])) == 3
    assert pt.t_signed([1, 3]) == 1


def test_ts_sum_matches_a_table():
    a = pt.a_table(25)
    for n in range(1, 26):
        assert pt.ts_sum_bruteforce(n) == a[n]


def test_ustar_values(tables):
    assert list(tables.ustar[1:7]) == [1, 1, -1, 0, -2, 2]


def test_ustar_bruteforce_matches(tables):
    for n in range(1, 19):
        assert pt.ustar_bruteforce(n) == tables.ustar[n]


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


def test_h_weights(tables):
    assert pt.h1(23, tables) == 196882
    assert pt.h2(23, tables) == 0
    assert pt.h2(575, tables) == 35
    assert pt.h1(22, tables) == 0
    assert pt.h1(-1, tables) == 0


def test_g_matches_h(tables):
    # the Corollary 1.5 weights: h1, h2 on the column 2a - u*
    col = pt.spt_from_ustar(tables)
    assert col == list(tables.spt)
    for m in (23, 47, 71, 95, 119, 575):
        assert pt.h1(m, tables, col) == pt.h1(m, tables)
        assert pt.h2(m, tables, col) == pt.h2(m, tables)


def test_c_formula_first_coefficients(tables):
    assert pt.c_formula(1, tables) == 196884
    assert pt.c_formula(2, tables) == 21493760
    assert pt.c_formula(3, tables) == 864299970
    col = pt.spt_from_ustar(tables)
    for n in range(1, 11):
        assert pt.c_formula(n, tables, col) == pt.c_formula(n, tables)


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


def test_andrews_congruences(tables):
    rep = pt.check_congruences("andrews", tables, max_n=39)
    assert rep.passed
    assert len(rep.details) == 3


def test_eq5_convention(tables):
    rep = pt.check_congruences("eq5", tables, max_n=200, ell=5, sign="plus")
    assert rep.passed
    assert any("convention 'plus': 3 integral indices" in d for d in rep.details)
    # the printed "minus" index family fails already at n = 1 (spt(1) = 1)
    bad = pt.check_congruences("eq5", tables, max_n=39, ell=5, sign="minus")
    assert not bad.passed
    assert bad.mismatches[0].exponent == 1


def test_cor1_4(tables):
    rep = pt.check_congruences("cor1_4", tables, max_n=200, ell=5, m=1)
    assert rep.passed


def test_all_families(tables):
    rep = pt.check_congruences("all", tables, max_n=39)
    assert rep.passed
