"""Each test starts with no instance held in its thread (see ginverse._instance),
so that the solves and products a test counts do not depend on the tests run
before it. Held instances are keyed by matrix value, so an equal fresh copy of a
matrix finds the held one; a test that needs a cold start within its body
calls `cold_start()`."""

import pytest

import coreinv.ginverse


def cold_start():
    """Drop every instance this thread holds, so its next call on any matrix,
    an equal copy of one used before included, works its facts out afresh."""
    table = getattr(coreinv.ginverse._held, "table", None)
    if table is not None:
        table.clear()


@pytest.fixture(autouse=True)
def no_held_instances():
    cold_start()
