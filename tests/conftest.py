"""Shared fixtures: one mid-size statistics table for the unit tests, and
copies of it with one corrupted entry for fault injection."""

import dataclasses

import pytest

from qspt.partitions import StatTables


@pytest.fixture(scope="session")
def tables():
    return StatTables.build(640)


@pytest.fixture(scope="session")
def perturbed(tables):
    """The session tables with delta added to entry index of one column."""

    def build(column, index, delta=1):
        col = getattr(tables, column)
        bumped = col[:index] + (col[index] + delta,) + col[index + 1:]
        return dataclasses.replace(tables, **{column: bumped})

    return build
