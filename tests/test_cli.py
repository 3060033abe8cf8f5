"""End-to-end CLI behavior: output formats, caching, exit codes."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qspt
from qspt import arith, cli, forms, hecke, partitions, verify
from qspt.errors import UnknownCheck
from qspt.partitions import StatTables
from qspt.series import LaurentSeries


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    # every qspt invocation is a fresh process: no file cache, no tables, no columns
    monkeypatch.setenv("QSPT_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(partitions, "_COLUMNS", {})
    return tmp_path


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def counted(monkeypatch):
    """Record the n of every StatTables.build call and of every solve of the p
    and a columns, and count the calls of the thm1_3 and eq17 enumeration
    oracles. A build past the row cap fails the test instead of running, so a
    test of the cap never builds millions of rows."""
    calls = {"builds": [], "oracle": 0, "p": [], "a": []}
    build = StatTables.build.__func__

    def counting_build(cls, n):
        calls["builds"].append(n)
        assert n <= partitions.MAX_TABLE_ROW, f"a table build to row {n} past the cap"
        return build(cls, n)

    monkeypatch.setattr(StatTables, "build", classmethod(counting_build))
    for name in ("ts_sum_bruteforce", "ustar_bruteforce"):
        def counting_oracle(n, oracle=getattr(partitions, name)):
            calls["oracle"] += 1
            return oracle(n)
        monkeypatch.setattr(partitions, name, counting_oracle)
    for column in ("p", "a"):
        def counting_solve(n, column=column, solve=getattr(partitions, column + "_table")):
            calls[column].append(n)
            return solve(n)
        monkeypatch.setattr(partitions, column + "_table", counting_solve)
    return calls


def test_series_stdout(capsys):
    code, out, _ = run(capsys, "series", "--name", "j", "--prec", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "j"
    assert doc["valuation"] == -1
    assert doc["coefficients"][0] == ["1", "1"]
    assert doc["coefficients"][2] == ["196884", "1"]


def test_series_out_file_round_trip(capsys, tmp_path):
    path = tmp_path / "delta.json"
    code, _, _ = run(capsys, "series", "--name", "delta", "--prec", "10",
                     "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["name"] == "delta"
    assert LaurentSeries.from_json_dict(doc) == forms.delta_series(10)


def test_cache_reuse_is_byte_identical(capsys, tmp_path):
    _, first, _ = run(capsys, "series", "--name", "e4", "--prec", "12")
    cache = tmp_path / "cache"
    assert [f.name for f in cache.iterdir()] == ["e4.qs"]
    _, second, _ = run(capsys, "series", "--name", "e4", "--prec", "12")
    assert first == second
    # a larger cached entry satisfies a smaller request by truncation
    _, truncated, _ = run(capsys, "series", "--name", "e4", "--prec", "8")
    doc = json.loads(truncated)
    assert doc["precision"] == 8
    assert doc["coefficients"] == json.loads(first)["coefficients"][:8]


def entry_text(name, series, lines=None, **head):
    """A cache entry in the documented layout: a JSON header line, then one hex
    numerator per progression point in [valuation, precision). head overrides
    header fields (None drops one); lines, when given, replaces the numerators."""
    doc = {"tag": cli.CACHE_TAG, "name": name, "stride": series.stride,
           "offset": series.offset, "valuation": series.valuation,
           "precision": series.precision, "den": format(series.den, "x")} | head
    if lines is None:
        window = len(series.to_json_dict(name)["coefficients"])
        lines = [format(c, "x") for c in series.nums] + ["0"] * (window - len(series.nums))
    doc = {k: v for k, v in doc.items() if v is not None}
    return "\n".join([json.dumps(doc)] + lines) + "\n"


def e4_lines(count=600):
    return [format(c, "x") for c in forms.eisenstein_e4(600).nums[:count]]


def plant(tmp_path, filename, text):
    cache = tmp_path / "cache"
    cache.mkdir(exist_ok=True)
    (cache / filename).write_text(text)
    return cache


def test_cache_entry_layout(tmp_path):
    # _cache_store writes the documented layout, and a planted entry in it is a hit
    e4, mplus = forms.eisenstein_e4(600), cli.build_series("mplus", 100)
    cli._cache_store("e4", e4)
    cache = tmp_path / "cache"
    assert (cache / "e4.qs").read_text() == entry_text("e4", e4)
    assert (cache / "mplus.qs").read_text() == entry_text("mplus", mplus)
    assert entry_text("mplus", mplus).splitlines()[:3] == [
        f'{{"tag": "{cli.CACHE_TAG}", "name": "mplus", "stride": 24, "offset": 23, '
        '"valuation": -1, "precision": 100, "den": "c"}', "-1", "23"]
    plant(tmp_path, "e4.qs", entry_text("e4", e4, lines=e4_lines(300), precision=300))
    assert cli._cache_lookup("e4", 100) == forms.eisenstein_e4(100)


# each entry, named e4.qs, breaks one rule a hit for e4 below q^100 needs
STALE = {
    "other-tag": lambda: entry_text("e4", forms.eisenstein_e4(600), tag="qspt 0.1.0 cache 0"),
    "other-name": lambda: entry_text("e6", forms.eisenstein_e6(600)),
    # all 600 numerators present, but the header claims a precision below the request
    "short": lambda: entry_text("e4", forms.eisenstein_e4(600), precision=50),
    "too-few-lines": lambda: entry_text("e4", forms.eisenstein_e4(600), lines=e4_lines(99)),
}


@pytest.mark.parametrize("case", STALE)
def test_cache_misses_on_a_stale_file(tmp_path, case):
    plant(tmp_path, "e4.qs", STALE[case]())
    assert cli._cache_lookup("e4", 100) is None
    assert cli.build_series("e4", 100) == forms.eisenstein_e4(100)
    assert cli._cache_lookup("e4", 100) == forms.eisenstein_e4(100)


UNREADABLE = {
    "truncated": lambda: entry_text("e4", forms.eisenstein_e4(600))[:40],
    "missing-keys": lambda: entry_text("e4", forms.eisenstein_e4(600), den=None),
    "not-a-dict": lambda: "\n".join(["[1, 2]"] + e4_lines()) + "\n",
    "zero-denominator": lambda: entry_text("e4", forms.eisenstein_e4(600), den="0"),
    "not-hex": lambda: entry_text("e4", forms.eisenstein_e4(600),
                                  lines=e4_lines(40) + ["12g4"] + e4_lines()[41:]),
}


@pytest.mark.parametrize("case", UNREADABLE)
def test_cache_miss_on_an_unreadable_file(capsys, tmp_path, case):
    plant(tmp_path, "e4.qs", UNREADABLE[case]())
    assert cli._cache_lookup("e4", 100) is None
    code, out, _ = run(capsys, "series", "--name", "e4", "--prec", "100")
    assert code == 0
    assert LaurentSeries.from_json_dict(json.loads(out)) == forms.eisenstein_e4(100)
    assert cli._cache_lookup("e4", 100) == forms.eisenstein_e4(100)


def test_cache_ignores_entries_in_the_old_json_layout(tmp_path):
    # a valid interchange document under the old name, and garbage: neither is read
    cache = plant(tmp_path, "e6__600.json", "garbage")
    (cache / "e4__600.json").write_text(json.dumps(forms.eisenstein_e4(600).to_json_dict("e4")))
    assert cli._cache_lookup("e4", 100) is None and cli._cache_lookup("e6", 100) is None
    assert cli.build_series("e4", 100) == forms.eisenstein_e4(100)
    assert sorted(f.name for f in cache.iterdir()) == ["e4.qs", "e4__600.json",
                                                       "e6__600.json"]


def test_cache_ignores_entries_in_the_per_precision_layout(tmp_path, monkeypatch):
    # a valid entry under the old name <name>__<P>.qs is never opened, so never parsed
    cache = plant(tmp_path, "e4__600.qs", entry_text("e4", forms.eisenstein_e4(600)))
    opened = []
    monkeypatch.setattr(cli, "open", lambda path, *a: opened.append(path) or open(path, *a),
                        raising=False)
    assert cli._cache_lookup("e4", 100) is None
    assert opened == [str(cache / "e4.qs")]
    assert cli.build_series("e4", 100) == forms.eisenstein_e4(100)
    assert sorted(f.name for f in cache.iterdir()) == ["e4.qs", "e4__600.qs"]
    assert cli._cache_lookup("e4", 100) == forms.eisenstein_e4(100)
    assert cli._cache_lookup("e4", 600) is None


def test_a_corrupt_entry_is_replaced_by_the_first_rebuild(tmp_path, monkeypatch):
    cache = plant(tmp_path, "e4.qs", UNREADABLE["not-hex"]())
    calls = []
    e4 = cli._SERIES["e4"]  # forms._CONSTRUCTORS["e4"], as build_series resolves it
    monkeypatch.setitem(cli._SERIES, "e4", lambda P: calls.append(P) or e4(P))
    assert cli.build_series("e4", 500) == forms.eisenstein_e4(500)
    assert calls == [500]
    assert [f.name for f in cache.iterdir()] == ["e4.qs"]
    for p in (500, 1, 300, 499):
        assert cli.build_series("e4", p) == forms.eisenstein_e4(p)
    assert calls == [500]


big = st.integers(-10 ** 6, 10 ** 6).map(lambda x: x * 10 ** 4400 + 1)


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stride=st.sampled_from((1, 2, 24)), val=st.integers(-30, 10),
       coeffs=st.lists(st.one_of(st.integers(-50, 50), big), max_size=12),
       den=st.sampled_from((1, 2, 12, 3 ** 2000)), extra=st.integers(0, 3))
def test_a_hit_at_every_precision_is_the_stored_series_truncated(tmp_path, stride, val,
                                                                 coeffs, den, extra):
    shutil.rmtree(tmp_path / "cache", ignore_errors=True)
    prec = max(1, val + stride * (len(coeffs) + extra))
    stored = LaurentSeries(stride, val % stride, val, prec, coeffs, den)
    cli._cache_store("probe", stored)
    for p in range(1, prec + 1):
        hit, want = cli._cache_lookup("probe", p), stored.truncate(p)
        # the fields the interchange document is written from; the document itself at three p
        assert [getattr(hit, k) for k in hit.__slots__] == [getattr(want, k) for k in want.__slots__]
        if p in (1, (prec + 1) // 2, prec):
            assert hit.to_json_dict("probe") == want.to_json_dict("probe")
    assert cli._cache_lookup("probe", prec + 1) is None


def test_cache_entry_that_is_a_directory_is_a_miss(capsys, tmp_path):
    # a miss, and the entry it cannot replace exits 2
    cache = tmp_path / "cache"
    (cache / "e4.qs").mkdir(parents=True)
    assert cli._cache_lookup("e4", 5) is None
    code, out, err = run(capsys, "series", "--name", "e4", "--prec", "5")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write the series cache") and "Traceback" not in err
    assert [f.name for f in cache.iterdir()] == ["e4.qs"]


def test_cache_that_cannot_be_written_exits_2(capsys, tmp_path, monkeypatch):
    not_a_dir = tmp_path / "plain-file"
    not_a_dir.write_text("")
    monkeypatch.setenv("QSPT_CACHE", str(not_a_dir))
    code, out, err = run(capsys, "series", "--name", "e4", "--prec", "5")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write the series cache")
    assert not_a_dir.read_text() == ""


def test_a_hit_lists_no_directory(capsys, tmp_path, monkeypatch):
    cli._cache_store("e4", forms.eisenstein_e4(10))

    def refuse(path="."):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli.os, "listdir", refuse)
    monkeypatch.setattr(cli.os, "scandir", refuse)
    assert cli._cache_lookup("e4", 5) == forms.eisenstein_e4(5)
    code, out, err = run(capsys, "series", "--name", "e4", "--prec", "5")
    assert (code, err) == (0, "")
    assert LaurentSeries.from_json_dict(json.loads(out)) == forms.eisenstein_e4(5)


@pytest.mark.parametrize("argv", [("series", "--name", "e4", "--prec", "5"),
                                  ("table", "--name", "p", "--max-n", "3")],
                         ids=["series", "table"])
@pytest.mark.parametrize("target", ["a-directory", "missing/dir/x.json"])
def test_out_that_cannot_be_written_exits_2(capsys, tmp_path, argv, target):
    (tmp_path / "a-directory").mkdir()
    out_path = tmp_path / target
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {str(out_path)!r}")
    assert "Traceback" not in err


def test_series_eta24_precision_one(capsys):
    code, out, _ = run(capsys, "series", "--name", "eta24", "--prec", "1")
    assert code == 0
    assert cli.build_series("eta24", 1) == LaurentSeries.zero(1)
    assert json.loads(out)["coefficients"] == []


def test_cache_round_trip_past_the_digit_limit():
    big = Fraction(10 ** 5000 - 1, 7)
    stored = LaurentSeries(1, 0, 1, 8, [1, big, 0, -big])
    cli._cache_store("probe", stored)
    for prec in (1, 2, 3, 8):
        hit = cli._cache_lookup("probe", prec)
        assert hit.to_json_dict("probe") == stored.truncate(prec).to_json_dict("probe")


def test_series_mplus_and_hecke_names(capsys):
    code, out, _ = run(capsys, "series", "--name", "mplus", "--prec", "48")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"][0] == ["-1", "12"]
    code, out, _ = run(capsys, "series", "--name", "m_ell:5", "--prec", "24")
    assert code == 0
    doc = json.loads(out)
    assert doc["valuation"] == -25
    assert doc["coefficients"][0] == ["-5", "12"]


def test_unknown_series_exit_code(capsys):
    code, _, err = run(capsys, "series", "--name", "nope", "--prec", "5")
    assert code == 2
    assert "unknown series" in err


def test_series_name_resolved_before_cache(capsys):
    code, _, _ = run(capsys, "series", "--name", "m_ell:5", "--prec", "24")
    assert code == 0
    # the cache entry of m_ell:5 is m_ell_5.qs; it must not answer. ell is spelt
    # one way, in ASCII decimal with no leading zero, so each series has one entry
    for name in ("m_ell_5", "m_ell:x", "m_ell:", "r_ell:5.0", "m_ell:05", "r_ell:07",
                 "m_ell:00", "m_ell:\u0665", "r_ell:\u0667", "m_ell:+5", "m_ell: 5", "m_ell:5\n"):
        code, out, err = run(capsys, "series", "--name", name, "--prec", "24")
        assert (code, out) == (2, "")
        assert err == f"error: unknown series name {name!r}\n"


@pytest.mark.parametrize("argv", [
    ("series", "--name", "j", "--prec", "-5"),
    ("series", "--name", "j", "--prec", "x"),
    ("table", "--name", "spt", "--max-n", "-2"),
    ("verify", "thm1_2", "--max-n", "-4"),
    ("verify", "thm1_1", "--window", "-24"),
    ("verify", "congruences", "--m", "0"),
    # ASCII digits alone: no underscore grouping, no full-width digits
    ("verify", "thm1_1", "--ell", "7_1", "--window", "24"),
    ("verify", "thm1_1", "--ell", "7", "--window", "\uff12\uff14"),
])
def test_non_positive_arguments_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected a positive integer" in err
    assert "Traceback" not in err


def test_table_csv_and_json(capsys):
    code, out, _ = run(capsys, "table", "--name", "spt", "--max-n", "4")
    assert code == 0
    assert out.splitlines() == ["n,value", "1,1", "2,3", "3,5", "4,10"]
    code, out, _ = run(capsys, "table", "--name", "p", "--max-n", "3",
                       "--format", "json")
    assert json.loads(out) == [{"n": 1, "value": "1"}, {"n": 2, "value": "2"},
                               {"n": 3, "value": "3"}]
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--name", "nope", "--max-n", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", cli._TABLES)
def test_table_prints_each_row_of_its_source(capsys, name):
    code, out, _ = run(capsys, "table", "--name", name, "--max-n", "30")
    assert code == 0
    if name == "s":
        source = partitions.s_column(30).__getitem__
    elif name == "c_formula":
        source = dict(enumerate(hecke.c_formula(30), 1)).get
    elif name == "ustar":
        source = partitions.ustar_column(30).__getitem__
    else:
        source = partitions.column(name, 30).__getitem__
    assert out.splitlines() == ["n,value"] + [f"{n},{source(n)}" for n in range(1, 31)]


def test_table_ustar_keeps_its_digest(capsys):
    code, out, _ = run(capsys, "table", "--name", "ustar", "--max-n", "2000")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b55dfa8d40d4c89fd4174d24c7a39205fc901d57268f2ce98c83ee90f78229dd")


# the sha256 of the stdout of each command, from empty process columns and file cache
DIGESTS = {
    "table --name p --max-n 2000":
        "be526f5bac9bbe04bf68ec79517699970260a7039b11a39b6009d40a0701383a",
    "table --name spt --max-n 2000":
        "b4824d0876062aa5de32949ce5f8a448b9aae34ae4842670780cc399565bca16",
    "table --name a --max-n 2000":
        "15bf5880119e12058610c124c48f8c4d806518553cd01300243c736bcea7bedf",
    "series --name mplus --prec 600":
        "68551b3cf8eda7cc40902787e5646128c84ca395702a58824abdf3a58ecab72a",
    "series --name m_ell:7 --prec 600":
        "94dbb76167e25e9aa9e65a1216f8fa3d7b2b813aedc1d15e61cd0b9ea3d8da26",
}


@pytest.mark.parametrize("argv", DIGESTS)
def test_tables_and_series_keep_their_digests(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[argv]


def test_run_check_refuses_an_unknown_check():
    with pytest.raises(UnknownCheck, match="unknown check 'nope'"):
        cli.run_check("nope")


def test_verify_summary_gives_the_compared_count(capsys):
    code, _, err = run(capsys, "verify", "thm1_1", "--ell", "5", "--window", "240")
    assert code == 0
    # the points -25, -1, 23, ..., 239 of the progression 23 mod 24
    assert re.fullmatch(r"thm1_1: pass \(0 mismatches of 12 compared, \d+ ms\)\n", err)


@pytest.mark.parametrize("argv", [
    ("verify", "cor1_4", "--ell", "5", "--m", "3", "--max-n", "1"),
    ("verify", "cor1_4", "--ell", "7", "--m", "2", "--max-n", "1"),
], ids=" ".join)
def test_a_check_that_compares_nothing_exits_2(capsys, argv):
    # no n <= 1 has an integral index (ell^2m n + 1)/24, so nothing is compared
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: cor1_4 compared no values: the requested range holds none\n"


# the options each check reads; every other (check, option) pair exits 2
READS = {"thm1_1": {"--ell", "--window"}, "eq9_mod_ell": {"--ell", "--window"},
         "thm1_2": {"--max-n"}, "thm1_3": {"--max-n"}, "eq17": {"--max-n"},
         "cor1_5": {"--max-n"}, "internal_identities": set(),
         "cor1_4": {"--ell", "--m", "--max-n", "--sign-convention"},
         "congruences": {"--ell", "--m", "--max-n", "--sign-convention"}}
VALUES = {"--ell": "5", "--m": "1", "--max-n": "10", "--window": "24", "--sign-convention": "plus"}
UNREAD = [(check, flag) for check, reads in READS.items() for flag in VALUES if flag not in reads]


def test_the_check_table_accepts_sixteen_options():
    assert len(UNREAD) == 29 and sum(map(len, READS.values())) == 16
    assert {check: {cli._FLAGS[k] for k in defaults}
            for check, (_, defaults) in cli.CHECKS.items()} == READS


@pytest.mark.parametrize("check, flag", UNREAD, ids=" ".join)
def test_an_option_the_check_does_not_read_exits_2(capsys, counted, check, flag):
    code, out, err = run(capsys, "verify", check, flag, VALUES[flag])
    assert (code, out) == (2, "")
    assert err == f"error: {check} does not read {flag}\n"
    assert counted == {"builds": [], "oracle": 0, "p": [], "a": []}


def test_every_unread_option_is_named(capsys):
    code, out, err = run(capsys, "verify", "thm1_2", "--sign-convention", "minus",
                         "--window", "24", "--ell", "7")
    assert (code, out) == (2, "")
    assert err == "error: thm1_2 does not read --ell, --window, --sign-convention\n"


@pytest.mark.parametrize("argv, rows", [
    (("verify", "thm1_1", "--ell", "71", "--window", "600"), 125_815),
    (("verify", "eq9_mod_ell", "--ell", "5", "--window", "120024"), 125_024),
    (("verify", "congruences", "--ell", "5", "--m", "4"), 3_108_724),
    (("verify", "cor1_4", "--ell", "5", "--m", "4"), 3_108_724),
    (("verify", "thm1_2", "--max-n", "5001"), 125_024),
    (("table", "--name", "spt", "--max-n", "200000"), 200_000),
    (("table", "--name", "s", "--max-n", "200000"), 200_000),
    (("table", "--name", "c_formula", "--max-n", "5001"), 125_024),
    (("series", "--name", "mplus", "--prec", "3000048"), 125_002),
    (("series", "--name", "spt_gen24", "--prec", "3000048"), 125_002),
    (("series", "--name", "partition_gen24", "--prec", "3000048"), 125_002),
    (("series", "--name", "m_ell:5", "--prec", "120024"), 125_024),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_requests_past_the_row_cap_exit_2_before_any_build(capsys, counted, argv, rows):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: tables capped at row 125,000, {rows:,} requested\n"
    assert counted["builds"] == []


@pytest.mark.parametrize("argv, ell", [
    (("verify", "thm1_1", "--ell", "1009", "--window", "240"), 1009),  # 10,138,390 rows
    (("verify", "thm1_1", "--ell", "1009", "--window", "1"), 1009),  # 0 rows, j to 42,427 terms
    (("verify", "eq9_mod_ell", "--ell", "1000003", "--window", "1"), 1000003),
    (("series", "--name", "r_ell:73", "--prec", "24"), 73),
    (("series", "--name", "m_ell:73", "--prec", "24"), 73),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_hecke_paths_refuse_ell_past_71_at_once(capsys, counted, monkeypatch, argv, ell):
    reached = []
    monkeypatch.setattr(arith, "is_prime", lambda n: reached.append("is_prime"))
    monkeypatch.setattr(forms, "j_series", lambda P: reached.append("j"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: ell capped at delta_ell = (ell^2 - 1)/24 <= 210 (ell <= 71), got {ell}\n"
    assert counted["builds"] == [] and reached == []


# the default windows cut below 1200, where ell^2 * 50 - delta_ell passes MAX_TABLE_ROW
_CUT_WINDOWS = {53: 1056, 59: 840, 61: 792, 67: 648, 71: 576}


def test_hecke_default_windows_fit_the_row_cap(counted):
    # the header every Hecke verifier starts from derives its window and solves nothing
    for ell in filter(arith.is_prime, range(5, 72)):
        ctx, rep = verify._hecke_report("thm1_1", ell, None)
        window = rep.window[1]
        assert window == _CUT_WINDOWS.get(ell, {5: 4800, 7: 2400}.get(ell, 1200))
        assert window % 24 == 0
        assert hecke.mell_terms(ctx, window // 24)[0][1] <= partitions.MAX_TABLE_ROW
        if ell in _CUT_WINDOWS:  # the largest multiple of 24 that fits
            assert hecke.mell_terms(ctx, window // 24 + 1)[0][1] > partitions.MAX_TABLE_ROW
        assert verify._hecke_report("thm1_1", ell, 2400)[1].window[1] == 2400
    assert counted == {"builds": [], "oracle": 0, "p": [], "a": []}


@pytest.mark.parametrize("argv, exponent, ell", [
    (("verify", "cor1_4", "--ell", "10000000000037"), 2, 10000000000037),
    (("verify", "congruences", "--ell", "10000000000037"), 2, 10000000000037),
    (("verify", "cor1_4", "--ell", "1733"), 2, 1733),  # (1733^2 - 1)/24 = 125,137
    (("verify", "cor1_4", "--ell", "71", "--m", "2"), 4, 71),  # (71^4 - 1)/24 = 1,058,820
    (("verify", "congruences", "--ell", "5", "--m", "99999999999"), 199999999998, 5),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_congruences_past_the_row_cap_exit_2_before_the_primality_test(capsys, counted,
                                                                       monkeypatch, argv,
                                                                       exponent, ell):
    # a stub is_prime refuses every ell, so a missing cap exits on another message, at once
    reached = []
    monkeypatch.setattr(arith, "is_prime", lambda n: reached.append(n))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: tables capped at row 125,000, and every index "
                   f"(ell^{exponent} n -+ 1)/24 of ell = {ell} is past it\n")
    assert counted["builds"] == [] and reached == []


_W = "9" * 4300  # the longest decimal string int() accepts
_DEEP = 10 ** 30


def _thousands(n):
    digits = arith.to_decimal(n)
    return re.sub(r"(?<=[0-9])(?=(?:[0-9]{3})+$)", ",", digits)


def _past_the_cap(rows):
    return f"tables capped at row 125,000, {_thousands(rows)} requested"


@pytest.mark.parametrize("argv, message", [
    (("verify", "thm1_1", "--window", _W), _past_the_cap(25 * (int(_W) // 24) - 1)),
    (("verify", "eq9_mod_ell", "--window", _W), _past_the_cap(25 * (int(_W) // 24) - 1)),
    (("verify", "thm1_2", "--max-n", _W), _past_the_cap(25 * int(_W) - 1)),
    (("verify", "cor1_5", "--max-n", _W), _past_the_cap(25 * int(_W) - 1)),
    (("series", "--name", "m_ell:5", "--prec", _W), _past_the_cap(25 * (int(_W) // 24) - 1)),
    (("verify", "cor1_4", "--m", _W), "tables capped at row 125,000, and every index "
     f"(ell^{arith.to_decimal(2 * int(_W))} n -+ 1)/24 of ell = 5 is past it"),
    (("series", "--name", "r_ell:" + "7" * 5000, "--prec", "24"),
     "ell capped at delta_ell = (ell^2 - 1)/24 <= 210 (ell <= 71), got " + "7" * 5000),
], ids=["thm1_1 --window W", "eq9_mod_ell --window W", "thm1_2 --max-n W", "cor1_5 --max-n W",
        "series m_ell:5 --prec W", "cor1_4 --m W", "series r_ell:<5,000 digits>"])
def test_numbers_past_the_digit_limit_exit_2_at_once(capsys, counted, argv, message):
    # each message names a number longer than the 4,300 digits str() writes
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert counted == {"builds": [], "oracle": 0, "p": [], "a": []}


@pytest.mark.parametrize("check, rows, walks", [
    ("congruences", 13 * _DEEP + 6, 3),  # andrews' 13n + 6; eq5 both ways, cor1_4 plus
    ("cor1_4", (25 * max(n for n in range(_DEEP - 100, _DEEP + 1)
                         if n % 24 == 23 and (-n) % 5 in (1, 4)) + 1) // 24, 1),
], ids=["congruences", "cor1_4"])
def test_congruences_refuse_a_deep_max_n_before_listing_instances(capsys, counted, monkeypatch,
                                                                  check, rows, walks):
    # a walk down from max_n meets a quadratic residue mod 5 within three steps
    calls = []

    def counting_criterion(a, p, real=arith.euler_criterion):
        calls.append(a)
        assert len(calls) <= 3 * walks, "the family's instances were listed"
        return real(a, p)

    monkeypatch.setattr(verify, "euler_criterion", counting_criterion)
    code, out, err = run(capsys, "verify", check, "--max-n", str(_DEEP))
    assert (code, out) == (2, "")
    assert err == f"error: {_past_the_cap(rows)}\n"
    assert counted["builds"] == []


@pytest.mark.parametrize("name, prec", [("j", 1_000_000), ("alpha", 2401),
                                        ("eta24", 2401),
                                        ("r_ell:71", 2401), ("r_ell:5", 10 ** 30)])
def test_series_past_the_precision_cap_exit_2_before_any_build(capsys, counted, monkeypatch,
                                                               name, prec):
    reached = []
    for key in cli._SERIES:
        monkeypatch.setitem(cli._SERIES, key, lambda P, key=key: reached.append(key))
    for key in cli._SERIES_OF_ELL:
        monkeypatch.setitem(cli._SERIES_OF_ELL, key, lambda ctx, P, key=key: reached.append(key))
    monkeypatch.setattr(cli, "_cache_lookup", lambda *args: reached.append("cache"))
    code, out, err = run(capsys, "series", "--name", name, "--prec", str(prec))
    assert (code, out) == (2, "")
    assert err == f"error: --prec capped at 2,400 for {name}, got {prec:,}\n"
    assert counted["builds"] == [] and reached == []


def test_series_at_the_precision_cap_is_built(capsys):
    code, out, _ = run(capsys, "series", "--name", "e4", "--prec", "2400")
    assert code == 0
    assert LaurentSeries.from_json_dict(json.loads(out)) == forms.eisenstein_e4(2400)


def test_verify_pass_exit_zero(capsys):
    code, out, err = run(capsys, "verify", "thm1_2", "--max-n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert "thm1_2: pass" in err


def test_verify_fail_exit_one(capsys):
    code, out, _ = run(capsys, "verify", "congruences", "--max-n", "39",
                       "--sign-convention", "minus")
    assert code == 1
    assert json.loads(out)["status"] == "fail"


# One fault for each check of cli.CHECKS: (the options it runs with, the fixture
# that installs the fault and its arguments, the mismatch exponents, the count
# compared, and the details that end in MISMATCH). Every table fault stays in the
# 640 rows of the session tables, so no reader re-solves a column.
FAULTS = {
    # c(1) + 1 reaches the closed form through q dj/dq at every exponent from 23 on
    "thm1_1": (("--window", "240"), ("perturbed_j", 1), list(range(23, 240, 24)), 12, []),
    # spt(3) is the coefficient of q^71 in M+, and 12/7 is not integral
    "eq9_mod_ell": (("--window", "120"), ("perturbed", "spt", 3, Fraction(1, 7)), [71], 7, []),
    # spt(24) = spt(25*1 - 1) is read by c(n) for n = 1 + g, g pentagonal
    "thm1_2": ((), ("perturbed", "spt", 24), [1, 2, 3, 6, 8, 13, 16], 20, []),
    "thm1_3": (("--max-n", "20"), ("perturbed_oracle", "ts_sum_bruteforce", 17), [17], 20, []),
    "eq17": (("--max-n", "20"), ("perturbed_oracle", "ustar_bruteforce", 13), [13], 20, []),
    # u* - 2a = -spt at the family's indices 74, 124 and 199 (ell = 5, n <= 200)
    "cor1_4": ((), ("perturbed", "spt", 124), [124], 3, []),
    # spt(99) = spt(25*4 - 1) is read by c(n) for n = 4 + g, g pentagonal
    "cor1_5": ((), ("perturbed", "spt", 99), [4, 5, 6, 9, 11, 16, 19], 20, []),
    # spt(5*0 + 4) breaks Andrews' mod 5 congruence, and no other family's
    "congruences": (("--max-n", "40"), ("perturbed", "spt", 4), [4], 3 * 41, []),
    # past the 32 coefficients of j that the basis chain reads
    "internal_identities": ((), ("perturbed_j", 100), list(range(100, 500)), 3426,
                            ["-q dj/dq = E4^2 E6/Delta: MISMATCH", "j * Delta = E4^3: MISMATCH"]),
}


def test_every_check_has_a_fault():
    assert FAULTS.keys() == cli.CHECKS.keys()


@pytest.mark.parametrize("check", FAULTS)
def test_a_fault_fails_its_check_at_its_exponents_and_exits_one(capsys, request, check):
    options, (fixture, *fault), exponents, compared, tags = FAULTS[check]
    request.getfixturevalue(fixture)(*fault)
    code, out, err = run(capsys, "verify", check, *options)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert [m["exponent"] for m in doc["mismatches"]] == exponents
    assert [d for d in doc.get("details", []) if d.endswith("MISMATCH")] == tags
    assert re.fullmatch(rf"{doc['check']}: fail \({len(exponents)} mismatches of {compared} "
                        rf"compared, \d+ ms\)\n", err)


def test_series_j_with_a_numerator_691_does_not_divide_exits_2(capsys, perturbed_sigma11):
    perturbed_sigma11(7)
    code, out, err = run(capsys, "series", "--name", "j", "--prec", "50")
    assert (code, out) == (2, "")
    assert err == ("error: 691 E12 / Delta + 432000 has a coefficient that 691 "
                   "does not divide\n")


def test_verify_thm1_3_enumeration_guard_exit_two(capsys):
    code, out, err = run(capsys, "verify", "thm1_3", "--max-n", "2001")
    assert (code, out) == (2, "")
    assert err == "error: partition enumeration guarded at n <= 2000\n"


@pytest.mark.parametrize("check, max_n, kind, guard", [
    ("thm1_3", 2001, "partition", 2000), ("thm1_3", 20000, "partition", 2000),
    ("eq17", 41, "unimodal", 40), ("eq17", 20000, "unimodal", 40),
])
def test_enumeration_guard_fires_before_any_work(capsys, counted, check, max_n, kind, guard):
    code, out, err = run(capsys, "verify", check, "--max-n", str(max_n))
    assert (code, out) == (2, "")
    assert err == f"error: {kind} enumeration guarded at n <= {guard}\n"
    assert counted == {"builds": [], "oracle": 0, "p": [], "a": []}


def test_verify_suite_builds_the_tables_once(counted):
    # the twelve checks of the benchmark's verify_suite; thm1_1 at ell = 5,
    # window 2400 reads the deepest row, 25 * (2400 // 24) - 1
    for ell, window in ((5, 2400), (7, 1200), (11, 480)):
        for check in ("thm1_1", "eq9_mod_ell"):
            assert cli.run_check(check, ell=ell, window=window).passed
    assert cli.run_check("congruences", max_n=190).passed
    assert cli.run_check("cor1_4", ell=5).passed
    for check in ("thm1_2", "cor1_5", "thm1_3", "eq17"):
        assert cli.run_check(check).passed
    assert counted["builds"] == [2499]
    # p once, for thm1_1; a once, for thm1_3, which eq17 then reads; the congruence
    # checks read spt alone
    assert (counted["p"], counted["a"]) == ([2499], [40])


def test_congruences_size_the_tables_for_their_deepest_family_first(counted):
    # andrews reads row 656 and cor1_4 mod 7^2 row 4702: one build, not one per family,
    # and no family reads p or a
    assert cli.run_check("congruences", ell=7, m=2, max_n=50).passed
    assert counted["builds"] == [4702]
    assert cli.run_check("cor1_4", ell=7, m=2).passed
    assert (counted["p"], counted["a"]) == ([], [])


@pytest.mark.parametrize("argv, rows", [
    (("verify", "thm1_1", "--ell", "5", "--window", "240"), 249),
    (("verify", "thm1_2", "--max-n", "20"), 499),
    (("series", "--name", "m_ell:5", "--prec", "240"), 249),
], ids=["thm1_1", "thm1_2", "m_ell:5"])
def test_m_plus_readers_solve_no_a(capsys, counted, argv, rows):
    # M+ reads spt and p, to the deepest row of M_5
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert counted == {"builds": [rows], "oracle": 0, "p": [rows], "a": []}


@pytest.mark.parametrize("argv, solved", [
    (("table", "--name", "p", "--max-n", "30"), {"oracle": 0, "p": [30], "a": []}),
    (("table", "--name", "a", "--max-n", "30"), {"oracle": 0, "p": [], "a": [30]}),
    (("verify", "thm1_3"), {"oracle": 1, "p": [], "a": [40]}),
], ids=["table p", "table a", "thm1_3"])
def test_single_column_readers_solve_no_spt(capsys, counted, argv, solved):
    # each reads its own column, so no StatTables.build and no spt solve
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert counted == {"builds": [], **solved}


@pytest.mark.parametrize("argv", [
    ("verify", "cor1_4", "--ell", "3"),
    ("verify", "congruences", "--ell", "3", "--max-n", "200"),
], ids=" ".join)
def test_congruence_families_refuse_ell_three(capsys, argv):
    # 9n -+ 1 is never divisible by 24, so ell = 3 would compare nothing
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: ell must be a prime >= 5, got 3\n"


# Each request from empty process columns (the autouse fixture), and the rows it solves
# spt, p and a to: every column at most once, at the deepest row its reader reads.
_SOLVES = [
    (("verify", "cor1_5", "--max-n", "1"), ([24, 49], [24, 49], [])),  # c(1), then c(2)'s row 49
    (("verify", "thm1_2", "--max-n", "1"), ([24], [24], [])),
    (("verify", "congruences", "--max-n", "1"), ([19], [], [])),
    (("verify", "thm1_1", "--ell", "5", "--window", "1"), ([0], [0], [])),
    (("verify", "thm1_1", "--ell", "13", "--window", "1"), ([0], [0], [])),
    (("verify", "eq9_mod_ell", "--ell", "5", "--window", "1"), ([0], [0], [])),
    (("verify", "eq9_mod_ell", "--ell", "13", "--window", "1"), ([0], [0], [])),
    (("series", "--name", "mplus", "--prec", "1"), ([0], [0], [])),
    (("series", "--name", "spt_gen24", "--prec", "1"), ([0], [], [])),
    (("series", "--name", "partition_gen24", "--prec", "4800"), ([], [200], [])),
    (("series", "--name", "m_ell:5", "--prec", "1"), ([0], [0], [])),
    (("table", "--name", "c_formula", "--max-n", "1"), ([24], [24], [])),
    (("series", "--name", "mplus", "--prec", "2400"), ([100], [100], [])),
    (("series", "--name", "m_ell:11", "--prec", "480"), ([2415], [2415], [])),
    (("series", "--name", "m_ell:71", "--prec", "24"), ([4831], [4831], [])),
    (("verify", "thm1_2"), ([499], [499], [])),
    (("verify", "eq17"), ([30], [], [30])),
    (("table", "--name", "ustar", "--max-n", "30"), ([30], [], [30])),
]


@pytest.mark.parametrize("argv, solves", _SOLVES, ids=[" ".join(argv) for argv, _ in _SOLVES])
def test_smallest_requests_size_their_own_tables(capsys, counted, argv, solves):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    if argv[0] == "verify":
        assert json.loads(out)["status"] == "pass"
    assert (counted["builds"], counted["p"], counted["a"]) == solves


def test_verify_thm1_1_small_window(capsys):
    code, out, _ = run(capsys, "verify", "thm1_1", "--ell", "5",
                       "--window", "120")
    assert code == 0
    doc = json.loads(out)
    assert doc["parameters"]["ell"] == 5
    assert doc["window"] == [-25, 120]


def test_verify_cor1_4_sizes_its_own_tables(capsys):
    code, out, _ = run(capsys, "verify", "cor1_4", "--ell", "7")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


# Run as `python -I -c _COLD_START SRC` with the src directory SRC.
_COLD_START = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
from qspt import cli
loaded = {"dataclasses", "inspect"} & (set(sys.modules) - before)
if loaded:
    sys.exit(f"import qspt.cli loaded {sorted(loaded)}")
sys.exit(cli.main(["verify", "thm1_3", "--max-n", "5"]))
"""


def test_a_fresh_process_imports_the_cli_without_dataclasses_or_inspect():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-I", "-c", _COLD_START, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "pass"


def test_a_stdout_closed_after_the_first_line_exits_two_without_a_traceback(tmp_path):
    # the 3,000 rows overflow the pipe's buffer, so the writer meets the closed end
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, QSPT_CACHE=str(tmp_path / "cache"))
    with open(tmp_path / "stderr", "w+") as err:
        proc = subprocess.Popen([sys.executable, "-m", "qspt.cli", "table", "--name", "p",
                                 "--max-n", "3000"], stdout=subprocess.PIPE, stderr=err, env=env)
        with proc.stdout:
            assert proc.stdout.readline() == b"n,value\n"
        assert proc.wait(timeout=120) == 2
        err.seek(0)
        text = err.read()
    assert re.fullmatch(r"error: [^\n]+\n", text), text


def test_the_cache_tag_names_the_package_version():
    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")) as fh:
        version = re.search(r'^version = "([^"]+)"$', fh.read(), re.M).group(1)
    assert version == qspt.__version__
    assert cli.CACHE_TAG == f"qspt {version} cache 1"
