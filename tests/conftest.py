"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from tuatara import iota


@pytest.fixture
def fresh_outcomes():
    """An empty halting-outcome table in iota, before the test and after it.

    The table lives as long as the process, so a test that counts or
    replaces the reducer would otherwise read flags that an earlier test
    wrote, or leave flags that its own kernel wrote to later tests.
    """
    iota._HALTS.clear()
    yield
    iota._HALTS.clear()
