"""Shared fixtures: session-scoped synthetic datasets.

Dataset generation (plate synthesis + TIFF encode) costs ~1 s per call, so
the common configurations are generated once per session and shared
read-only across test modules.
"""

from __future__ import annotations

import pytest

from repro.synth import make_synthetic_dataset


@pytest.fixture(scope="session")
def dataset_4x4(tmp_path_factory):
    """4x4 grid, 64 px tiles, 25 % overlap -- the workhorse fixture."""
    d = tmp_path_factory.mktemp("ds4x4")
    return make_synthetic_dataset(
        d, rows=4, cols=4, tile_height=64, tile_width=64, overlap=0.25, seed=11
    )


@pytest.fixture(scope="session")
def dataset_3x5(tmp_path_factory):
    """Non-square grid to catch row/col transposition bugs."""
    d = tmp_path_factory.mktemp("ds3x5")
    return make_synthetic_dataset(
        d, rows=3, cols=5, tile_height=48, tile_width=72, overlap=0.25, seed=23
    )


@pytest.fixture(scope="session")
def reference_displacements(dataset_4x4):
    """Simple-CPU phase-1 output for the 4x4 dataset (the ground line)."""
    from repro.impls import SimpleCpu

    return SimpleCpu().run(dataset_4x4)


@pytest.fixture
def ledger():
    """The process-wide transform ledger, emptied for this test."""
    from repro.fftlib.plans import default_cache

    ledger = default_cache()
    ledger.clear()
    return ledger
