"""Shared fixtures: one mid-size statistics table for the unit tests, and
copies of it with one corrupted entry for fault injection; likewise for j."""

import pytest

from qspt import forms, partitions
from qspt.partitions import StatTables
from qspt.series import LaurentSeries


@pytest.fixture(scope="session")
def tables():
    return StatTables.build(640)


@pytest.fixture
def perturbed(tables, monkeypatch):
    """Add delta to entry index of one column, where every verifier reads it: the
    corrupted spt, p or a goes in the process's column cache. Every reader of a
    fault-injection test stays within the 640 rows of the session tables, so
    none re-solves a column and drops the corruption."""

    def install(column, index, delta=1):
        col = partitions.column(column, tables.limit)
        bumped = col[:index] + (col[index] + delta,) + col[index + 1:]
        monkeypatch.setitem(partitions._COLUMNS, column, bumped)

    return install


@pytest.fixture
def perturbed_oracle(monkeypatch):
    """Make the enumeration oracle partitions.<name>, as every reader calls it,
    return its true list with 1 added to entry index."""

    def install(name, index):
        true = getattr(partitions, name)

        def bumped(N):
            values = true(N)
            values[index] += 1
            return values
        monkeypatch.setattr(partitions, name, bumped)

    return install


@pytest.fixture
def perturbed_j(monkeypatch):
    """Make forms.j_series, as every reader calls it, add 1 to the coefficient
    of q^exponent of j wherever that coefficient is known."""
    build = forms.j_series

    def install(exponent):
        def bumped(P):
            j = build(P)
            return j + LaurentSeries(1, 0, exponent, P, [1]) if exponent < P else j
        monkeypatch.setattr(forms, "j_series", bumped)

    return install


@pytest.fixture
def perturbed_sigma11(monkeypatch):
    """Make the Eisenstein sieve that builds j's numerator 691 E12 add 1 to its
    coefficient of q^exponent wherever that coefficient is known."""
    sieve = forms._eisenstein

    def install(exponent):
        def bumped(P, power, factor, lead=1):
            s = sieve(P, power, factor, lead)
            return s + LaurentSeries(1, 0, exponent, P, [1]) if power == 11 and exponent < P else s
        monkeypatch.setattr(forms, "_eisenstein", bumped)

    return install
