import os

import pytest

from formevol import forms


@pytest.fixture
def blocks_of_32(monkeypatch):
    """``set(dim)``: for this test, grid blocks of ``dim x dim`` matrices hold 32 slices.

    The block-edge tests use small families and step or grid counts written
    around blocks of 32; this puts the block edges there.  ``forms.blocks``
    reads the entry budget at call time, and no result depends on it.
    """
    return lambda dim: monkeypatch.setattr(forms, "BLOCK_ENTRIES", 32 * dim * dim)


@pytest.fixture
def cpus(monkeypatch):
    """``set(n)``: for this test, ``os.sched_getaffinity`` reports ``n`` usable CPUs,
    so ``forms.map_blocks`` runs on ``n`` threads whatever the host has."""
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
