"""Each test starts with no instance held in its thread (see ginverse._instance),
so that the solves and products a test counts do not depend on the tests run
before it."""

import pytest

import coreinv.ginverse


@pytest.fixture(autouse=True)
def no_held_instances():
    table = getattr(coreinv.ginverse._held, "table", None)
    if table is not None:
        table.clear()
