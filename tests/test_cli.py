"""End-to-end CLI behavior: output formats, caching, exit codes."""

import json
from fractions import Fraction

import pytest

from qspt import cli, forms, partitions
from qspt.partitions import StatTables
from qspt.series import LaurentSeries


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    # every qspt invocation is a fresh process: no file cache, no tables
    monkeypatch.setenv("QSPT_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(partitions, "_TABLES", None)
    return tmp_path


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def counted(monkeypatch):
    """Record the n of every StatTables.build call and count the calls of the
    thm1_3 and eq17 enumeration oracles."""
    calls = {"builds": [], "oracle": 0}
    build = StatTables.build.__func__

    def counting_build(cls, n):
        calls["builds"].append(n)
        return build(cls, n)

    monkeypatch.setattr(StatTables, "build", classmethod(counting_build))
    for name in ("ts_sum_bruteforce", "ustar_bruteforce"):
        def counting_oracle(n, oracle=getattr(partitions, name)):
            calls["oracle"] += 1
            return oracle(n)
        monkeypatch.setattr(partitions, name, counting_oracle)
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
    name, series = LaurentSeries.load(path)
    assert name == "delta"
    assert series == forms.delta_series(10)


def test_cache_reuse_is_byte_identical(capsys, tmp_path):
    _, first, _ = run(capsys, "series", "--name", "e4", "--prec", "12")
    cache = tmp_path / "cache"
    assert any(f.name.startswith("e4__") for f in cache.iterdir())
    _, second, _ = run(capsys, "series", "--name", "e4", "--prec", "12")
    assert first == second
    # a larger cached entry satisfies a smaller request by truncation
    _, truncated, _ = run(capsys, "series", "--name", "e4", "--prec", "8")
    doc = json.loads(truncated)
    assert doc["precision"] == 8
    assert doc["coefficients"] == json.loads(first)["coefficients"][:8]


@pytest.mark.parametrize("name, prec", [("e6", 600), ("e4", 10)], ids=["other-name", "short"])
def test_cache_misses_on_a_stale_file(tmp_path, name, prec):
    # a file named e4__600.json must hold e4 to 600 before it answers for e4
    cache = tmp_path / "cache"
    cache.mkdir()
    forms._CONSTRUCTORS[name](prec).dump(cache / "e4__600.json", name)
    assert cli._cache_lookup("e4", 100) is None
    assert cli.build_series("e4", 100) == forms.eisenstein_e4(100)
    assert cli._cache_lookup("e4", 100) == forms.eisenstein_e4(100)


@pytest.mark.parametrize("content", ['{"name": "e4", "stride": 1, "coeff',
                                     '{"name": "e4", "stride": 1}', '[1, 2]',
                                     '{"name": "e4", "stride": 1, "offset": 0, "valuation": 0,'
                                     ' "precision": 600, "coefficients": [["1", "0"]]}'],
                         ids=["truncated", "missing-keys", "not-a-dict", "zero-denominator"])
def test_cache_miss_on_an_unreadable_file(capsys, tmp_path, content):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "e4__600.json").write_text(content)
    assert cli._cache_lookup("e4", 100) is None
    code, out, _ = run(capsys, "series", "--name", "e4", "--prec", "100")
    assert code == 0
    assert LaurentSeries.from_json_dict(json.loads(out)) == forms.eisenstein_e4(100)
    assert cli._cache_lookup("e4", 100) == forms.eisenstein_e4(100)


def test_cache_entry_that_is_a_directory_is_a_miss(capsys, tmp_path):
    cache = tmp_path / "cache"
    (cache / "e4__10.json").mkdir(parents=True)
    assert cli._cache_lookup("e4", 5) is None
    code, out, err = run(capsys, "series", "--name", "e4", "--prec", "5")
    assert code == 0 and "Traceback" not in err
    assert LaurentSeries.from_json_dict(json.loads(out)) == forms.eisenstein_e4(5)
    assert cli._cache_lookup("e4", 5) == forms.eisenstein_e4(5)


def test_cache_that_cannot_be_written_exits_2(capsys, tmp_path, monkeypatch):
    not_a_dir = tmp_path / "plain-file"
    not_a_dir.write_text("")
    monkeypatch.setenv("QSPT_CACHE", str(not_a_dir))
    code, out, err = run(capsys, "series", "--name", "e4", "--prec", "5")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write the series cache")
    assert not_a_dir.read_text() == ""

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
    # the cache file of m_ell:5 is m_ell_5__24.json; it must not answer
    for name in ("m_ell_5", "m_ell:x", "m_ell:", "r_ell:5.0"):
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


def test_verify_perturbed_tables_exit_one(capsys, perturbed):
    perturbed("spt", 24)
    code, out, _ = run(capsys, "verify", "thm1_2")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert [m["exponent"] for m in doc["mismatches"]] == [1, 2, 3, 6, 8, 13, 16]


def test_verify_internal_identities_perturbed_j_exit_one(capsys, perturbed_j):
    perturbed_j(100)  # past the 32 coefficients of j that the basis chain reads
    code, out, _ = run(capsys, "verify", "internal_identities")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert [m["exponent"] for m in doc["mismatches"]] == list(range(100, 500))
    assert "j * Delta = E4^3: MISMATCH" in doc["details"]


def test_verify_thm1_1_perturbed_j_exit_one(capsys, perturbed_j):
    perturbed_j(1)
    code, out, _ = run(capsys, "verify", "thm1_1", "--ell", "5", "--window", "240")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert [m["exponent"] for m in doc["mismatches"]] == list(range(23, 240, 24))


def test_verify_thm1_3_enumeration_guard_exit_two(capsys):
    code, out, err = run(capsys, "verify", "thm1_3", "--max-n", "61")
    assert (code, out) == (2, "")
    assert err == "error: partition enumeration guarded at n <= 60\n"


@pytest.mark.parametrize("check, max_n, kind, guard", [
    ("thm1_3", 61, "partition", 60), ("thm1_3", 20000, "partition", 60),
    ("eq17", 41, "unimodal", 40), ("eq17", 20000, "unimodal", 40),
])
def test_enumeration_guard_fires_before_any_work(capsys, counted, check, max_n, kind, guard):
    code, out, err = run(capsys, "verify", check, "--max-n", str(max_n))
    assert (code, out) == (2, "")
    assert err == f"error: {kind} enumeration guarded at n <= {guard}\n"
    assert counted == {"builds": [], "oracle": 0}


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


@pytest.mark.parametrize("argv", [
    ("verify", "cor1_4", "--ell", "3"),
    ("verify", "congruences", "--ell", "3", "--max-n", "200"),
], ids=" ".join)
def test_congruence_families_refuse_ell_three(capsys, argv):
    # 9n -+ 1 is never divisible by 24, so ell = 3 would compare nothing
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: ell must be a prime >= 5, got 3\n"


@pytest.mark.parametrize("argv", [
    ("verify", "cor1_5", "--max-n", "1"),
    ("verify", "thm1_2", "--max-n", "1"),
    ("verify", "congruences", "--max-n", "1"),
    ("verify", "cor1_4", "--ell", "7", "--m", "2", "--max-n", "1"),
    ("verify", "thm1_1", "--ell", "5", "--window", "1"),
    ("verify", "thm1_1", "--ell", "13", "--window", "1"),
    ("verify", "eq9_mod_ell", "--ell", "5", "--window", "1"),
    ("verify", "eq9_mod_ell", "--ell", "13", "--window", "1"),
    ("series", "--name", "mplus", "--prec", "1"),
    ("series", "--name", "spt_gen24", "--prec", "1"),
    ("series", "--name", "m_ell:5", "--prec", "1"),
    ("table", "--name", "c_formula", "--max-n", "1"),
], ids=" ".join)
def test_smallest_requests_size_their_own_tables(capsys, argv):
    # each starts from an empty process table (the autouse fixture)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    if argv[0] == "verify":
        assert json.loads(out)["status"] == "pass"


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


def test_verify_non_integral_exit_one(capsys, perturbed):
    perturbed("spt", 3, Fraction(1, 7))
    code, out, _ = run(capsys, "verify", "eq9_mod_ell", "--ell", "5", "--window", "120")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert [m["exponent"] for m in doc["mismatches"]] == [71]
