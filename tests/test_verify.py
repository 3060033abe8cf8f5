"""Verification drivers produce structured reports that pass on honest inputs."""

import hashlib
import json
from fractions import Fraction
from functools import partial

import pytest

from qspt import forms, verify
from qspt.verify import check_congruences
from qspt.errors import OutOfPrecision
from qspt.report import Mismatch, VerificationReport
from qspt.series import LaurentSeries


def test_report_status():
    rep = VerificationReport(check="demo")
    rep.record(3, 1, 1)
    assert rep.passed and rep.status == "pass"
    rep.record(4, 1, 2)
    assert not rep.passed and rep.status == "fail"
    doc = rep.to_dict()
    assert doc["status"] == "fail"
    assert doc["mismatches"][0] == {"exponent": 4, "lhs": "1", "rhs": "2"}


def test_each_report_starts_empty_and_shares_no_list():
    rep, other = VerificationReport(check="x"), VerificationReport(check="x")
    assert (rep.parameters, rep.window, rep.mismatches, rep.runtime_ms, rep.details,
            rep.compared) == ({}, (0, 0), [], 0, [], 0)
    rep.parameters["k"] = 1
    rep.record(1, 1, 2)
    rep.details.append("t: MISMATCH")
    assert (other.parameters, other.mismatches, other.details, other.compared) == ({}, [], [], 0)


def test_mismatch_to_dict():
    m = Mismatch(4, Fraction(-1, 12), Fraction(5, 3))
    assert list(m.to_dict().items()) == [("exponent", 4), ("lhs", "-1/12"), ("rhs", "5/3")]
    assert repr(m) == "Mismatch(exponent=4, lhs=Fraction(-1, 12), rhs=Fraction(5, 3))"


def test_report_past_the_digit_limit():
    # 5,000 decimal digits: more than str() accepts by default
    rep = VerificationReport(check="demo", parameters={"c": Fraction(-7, 10 ** 5000)})
    rep.record(0, 10 ** 5000, 0)
    rep.record(1, Fraction(-1, 12), Fraction(5, 3))
    doc = rep.to_dict()
    assert doc["parameters"]["c"] == "-7/1" + "0" * 5000
    assert doc["mismatches"][0] == {"exponent": 0, "lhs": "1" + "0" * 5000, "rhs": "0"}
    assert doc["mismatches"][1] == {"exponent": 1, "lhs": "-1/12", "rhs": "5/3"}


def test_compare_records_every_exponent_and_tags():
    rep = VerificationReport(check="demo")
    j = forms.j_series(10)
    assert rep.compare(j, j, -1, 10, tag="same")
    assert not rep.mismatches
    assert not rep.compare(j, j.scale(2), 0, 2, tag="double")
    assert [m.exponent for m in rep.mismatches] == [0, 1]
    assert rep.details == ["same: ok", "double: MISMATCH"]


def test_report_counts_what_it_compared():
    rep = VerificationReport(check="demo")
    rep.record(3, 1, 1)
    rep.record(4, 1, 2)
    assert rep.compared == 2
    j = forms.j_series(10)
    rep.compare(j, j.scale(2), 0, 2)  # exponents 0 and 1, both mismatches
    rep.compare(j, j, hi=10)  # -1 .. 9
    assert rep.compared == 2 + 2 + 11
    assert "compared" not in rep.to_dict()


def test_thm11_counts_the_points_of_its_progression():
    rep = verify.verify_thm11(5, 240)
    assert rep.passed and rep.compared == 12  # -25, -1, 23, ..., 239


def test_compare_past_known_window_raises():
    rep = VerificationReport(check="demo")
    short, long = forms.j_series(8), forms.j_series(12)
    for lhs, rhs in ((short, long), (long, short)):
        with pytest.raises(OutOfPrecision):
            rep.compare(lhs, rhs, 0, 9)
    assert rep.compare(short, long, 0, 8)


def test_thm1_2():
    rep = verify.verify_thm1_2(max_n=12)
    assert rep.passed
    assert rep.window == (1, 13)


def test_thm1_3():
    rep = verify.verify_thm1_3(max_n=20)
    assert rep.passed


def test_eq17():
    rep = verify.verify_eq17(max_n=14)
    assert rep.passed


def test_cor1_5():
    rep = verify.verify_cor1_5(max_n=10)
    assert rep.passed
    assert len(rep.details) == 4
    assert rep.details[0].endswith("= 196884")


def test_eq17_and_cor1_5_reports_keep_their_digest():
    # 49 reports, each dumped with sorted keys and a newline, under one sha256
    digest = hashlib.sha256()
    reports = ([verify.verify_eq17(n) for n in range(1, 41)]
               + [verify.verify_cor1_5(n) for n in (1, 2, 3, 5, 10, 20, 40, 80, 300)])
    for rep in reports:
        digest.update((json.dumps(rep.to_dict(), sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == (
        "a535ea9fef3bab6fdc2a0553b9843eac65d2ba4d1af94b190792fab76490c9a4")


def test_internal_identities_small():
    rep = verify.verify_internal_identities(ncoeffs=60, poly_max=6)
    assert rep.passed
    assert any(d.startswith("delta = eta^24") for d in rep.details)
    assert all(d.endswith(": ok") or ": " not in d or "checked" in d
               for d in rep.details)


def test_internal_identities_chain_past_the_window():
    # the basis chain reads poly_max + 2 coefficients of j, more than ncoeffs here
    assert verify.verify_internal_identities(ncoeffs=5, poly_max=30).passed


def test_internal_identities_fail_at_a_perturbed_coefficient_of_j(perturbed_j):
    # past the poly_max + 2 coefficients the basis chain reads, a wrong c(40)
    # shows in -q dj/dq at q^40 and in j * Delta = E4^3 from q^41 on, where
    # q^40 Delta starts; every other identity still holds
    perturbed_j(40)
    rep = verify.verify_internal_identities(ncoeffs=60, poly_max=6)
    assert rep.status == "fail"
    assert [m.exponent for m in rep.mismatches] == list(range(40, 60))
    first = rep.mismatches[1]
    assert first.lhs - first.rhs == 1  # the coefficient of q^1 in Delta
    assert [d for d in rep.details if d.endswith("MISMATCH")] == [
        "-q dj/dq = E4^2 E6/Delta: MISMATCH", "j * Delta = E4^3: MISMATCH"]


@pytest.mark.parametrize("verifier, column, index, exponents", [
    (partial(verify.verify_thm1_2, max_n=20), "spt", 24, [1, 2, 3, 6, 8, 13, 16]),
    (partial(verify.verify_thm1_2, max_n=20), "p", 49, [2, 3, 4, 7, 9, 14, 17]),
    (partial(verify.verify_thm1_3, max_n=20), "a", 17, [17]),
    # u* = 2a - spt moves with either column, and the enumeration does not
    (partial(verify.verify_eq17, max_n=14), "a", 12, [12]),
    (partial(verify.verify_eq17, max_n=14), "spt", 12, [12]),
    (partial(verify.verify_cor1_5, max_n=20), "spt", 24, [1, 2, 3, 6, 8, 13, 16]),
    (partial(check_congruences, "andrews", max_n=40), "spt", 4, [4]),
    (partial(check_congruences, "all", max_n=40), "spt", 4, [4]),
    (partial(check_congruences, "eq5", max_n=200), "spt", 74, [74]),
    (partial(check_congruences, "eq6", max_n=200), "spt", 74, [74]),
    # u* - 2a = -spt, so only a fault in spt reaches cor1_4
    (partial(check_congruences, "cor1_4", max_n=200), "spt", 74, [74]),
], ids=["thm1_2-spt", "thm1_2-p", "thm1_3", "eq17", "eq17-spt", "cor1_5",
        "andrews", "all", "eq5", "eq6", "cor1_4"])
def test_verifier_fails_at_corrupted_entry(perturbed, verifier, column, index, exponents):
    perturbed(column, index)
    rep = verifier()
    assert rep.status == "fail"
    assert [m.exponent for m in rep.mismatches] == exponents


def test_internal_identities_record_alpha_at_q0_at_exponent_0(monkeypatch):
    # alpha = q + O(q^2): a wrong q^0 coefficient is the report's first mismatch, at 0
    build = forms.alpha_series
    monkeypatch.setattr(forms, "alpha_series",
                        lambda P: build(P) + LaurentSeries(1, 0, 0, P, [1]))
    rep = verify.verify_internal_identities(ncoeffs=60, poly_max=6)
    assert rep.mismatches[0] == Mismatch(0, 1, 0)
    assert "alpha = q + O(q^2): checked" in rep.details
