"""Verification drivers produce structured reports that pass on honest inputs."""

import pytest

from qspt import forms, verify
from qspt.errors import OutOfPrecision
from qspt.report import VerificationReport


def test_report_status():
    rep = VerificationReport(check="demo")
    rep.record(3, 1, 1)
    assert rep.passed and rep.status == "pass"
    rep.record(4, 1, 2)
    assert not rep.passed and rep.status == "fail"
    doc = rep.to_dict()
    assert doc["status"] == "fail"
    assert doc["mismatches"][0] == {"exponent": 4, "lhs": "1", "rhs": "2"}


def test_compare_records_every_exponent_and_tags():
    rep = VerificationReport(check="demo")
    j = forms.j_series(10)
    assert rep.compare(j, j, -1, 10, tag="same")
    assert not rep.mismatches
    assert not rep.compare(j, j.scale(2), 0, 2, tag="double")
    assert [m.exponent for m in rep.mismatches] == [0, 1]
    assert rep.details == ["same: ok", "double: MISMATCH"]


def test_compare_past_known_window_raises():
    rep = VerificationReport(check="demo")
    short, long = forms.j_series(8), forms.j_series(12)
    for lhs, rhs in ((short, long), (long, short)):
        with pytest.raises(OutOfPrecision):
            rep.compare(lhs, rhs, 0, 9)
    assert rep.compare(short, long, 0, 8)


def test_thm1_2(tables):
    rep = verify.verify_thm1_2(tables, max_n=12)
    assert rep.passed
    assert rep.window == (1, 13)


def test_thm1_3(tables):
    rep = verify.verify_thm1_3(tables, max_n=20)
    assert rep.passed


def test_eq17(tables):
    rep = verify.verify_eq17(tables, max_n=14)
    assert rep.passed


def test_cor1_5(tables):
    rep = verify.verify_cor1_5(tables, max_n=10)
    assert rep.passed
    assert len(rep.details) == 4
    assert rep.details[0].endswith("= 196884")


def test_internal_identities_small():
    rep = verify.verify_internal_identities(ncoeffs=60, poly_max=6)
    assert rep.passed
    assert any(d.startswith("delta = eta^24") for d in rep.details)
    assert all(d.endswith(": ok") or ": " not in d or "checked" in d
               for d in rep.details)
