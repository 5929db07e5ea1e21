"""Fixtures shared by the whole suite."""

import pytest

from sqfdepth import betti, search


def _clear_memos() -> None:
    betti._Columns._k_dims.cache_clear()
    search._forms.clear()
    search._depths.clear()


@pytest.fixture(autouse=True)
def fresh_memos():
    """Empty the caches that live for the process, the K_sigma homology and
    the scan's canonical forms and depths, before and after every test; a
    test that runs several scans calls the returned function between them.

    Counts of homology, keys and depths pin the work of one test, so no
    test may find these filled by another.
    """
    _clear_memos()
    yield _clear_memos
    _clear_memos()
