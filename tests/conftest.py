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
