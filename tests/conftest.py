"""Shared fixtures: one mid-size statistics table for the unit tests, and
small tables with one corrupted spt entry for fault injection."""

import dataclasses

import pytest

from qspt.partitions import StatTables


@pytest.fixture(scope="session")
def tables():
    return StatTables.build(640)


@pytest.fixture(scope="session")
def spt3_plus():
    """Tables reaching window 120 at ell = 5, with delta added to spt(3),
    the coefficient of q^71 in M+."""
    t = StatTables.build(126)

    def build(delta):
        return dataclasses.replace(t, spt=t.spt[:3] + (t.spt[3] + delta,) + t.spt[4:])

    return build
