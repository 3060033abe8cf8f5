"""End-to-end CLI behavior: output formats, caching, exit codes."""

import json
from fractions import Fraction

import pytest

from qspt import cli
from qspt.series import LaurentSeries


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    # every qspt invocation is a fresh process: no file cache, no tables
    monkeypatch.setenv("QSPT_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(cli, "_tables_cache", None)
    return tmp_path


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    from qspt import forms
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


def test_table_csv_and_json(capsys):
    code, out, _ = run(capsys, "table", "--name", "spt", "--max-n", "4")
    assert code == 0
    assert out.splitlines() == ["n,value", "1,1", "2,3", "3,5", "4,10"]
    code, out, _ = run(capsys, "table", "--name", "p", "--max-n", "3",
                       "--format", "json")
    assert json.loads(out) == [{"n": 1, "value": "1"}, {"n": 2, "value": "2"},
                               {"n": 3, "value": "3"}]


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


def test_verify_non_integral_exit_one(capsys, monkeypatch, spt3_plus):
    monkeypatch.setattr(cli, "_tables_cache", spt3_plus(Fraction(1, 7)))
    code, out, _ = run(capsys, "verify", "eq9_mod_ell", "--ell", "5", "--window", "120")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert [m["exponent"] for m in doc["mismatches"]] == [71]
