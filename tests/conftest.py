"""Shared fixtures: one mid-size statistics table for the unit tests, and
copies of it with one corrupted entry for fault injection."""

import dataclasses

import pytest

from qspt import partitions
from qspt.partitions import StatTables


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
