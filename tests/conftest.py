"""Shared fixtures: one mid-size statistics table for the unit tests, and
copies of it with one corrupted entry for fault injection; likewise for j."""

import dataclasses

import pytest

from qspt import forms, partitions
from qspt.partitions import StatTables
from qspt.series import LaurentSeries


@pytest.fixture(scope="session")
def tables():
    return StatTables.build(640)


@pytest.fixture
def perturbed(tables, monkeypatch):
    """Install the session tables, with delta added to entry index of one
    column, as the process tables that every verifier reads; return them.
    Every reader of a fault-injection test stays within their 640 rows, so
    none rebuilds the tables and drops the corruption."""

    def install(column, index, delta=1):
        col = getattr(tables, column)
        bumped = col[:index] + (col[index] + delta,) + col[index + 1:]
        corrupted = dataclasses.replace(tables, **{column: bumped})
        monkeypatch.setattr(partitions, "_TABLES", corrupted)
        return corrupted

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
