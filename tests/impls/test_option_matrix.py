"""Option-matrix coverage: paper options across the parallel implementations.

The equivalence suite runs defaults; this crosses the paper-relevant
options (padded FFT shapes, the partitioner) with the
parallel implementations to ensure no option silently only works on the
sequential path.
"""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.analysis.metrics import displacement_agreement
from repro.fftlib.smooth import next_smooth_shape
from repro.grid.neighbors import grid_pairs
from repro.grid.tile_grid import TileGrid, split_range
from repro.grid.traversal import Traversal, column_partitions
from repro.impls import MtCpu, PipelinedCpu, PipelinedGpu, SimpleCpu


class TestPaddedFftAcrossImpls:
    @pytest.fixture(scope="class")
    def padded_reference(self, dataset_4x4):
        shape = next_smooth_shape((70, 70))  # (72, 72): padded beyond tiles
        ref = SimpleCpu(fft_shape=shape).run(dataset_4x4)
        return shape, ref

    @pytest.mark.parametrize("factory", [
        lambda shape: MtCpu(workers=2, fft_shape=shape),
        lambda shape: PipelinedCpu(partitions=2, fft_shape=shape),
        lambda shape: PipelinedGpu(devices=2, fft_shape=shape),
    ])
    def test_padded_equivalence(self, factory, dataset_4x4, padded_reference):
        shape, ref = padded_reference
        res = factory(shape).run(dataset_4x4)
        assert displacement_agreement(res.displacements, ref.displacements) == 1.0

    def test_padded_matches_unpadded_answers(self, dataset_4x4, padded_reference):
        _, padded = padded_reference
        plain = SimpleCpu().run(dataset_4x4)
        assert displacement_agreement(padded.displacements, plain.displacements) == 1.0


class TestPartitionHelpers:
    @given(rows=st.integers(1, 40), workers=st.integers(1, 20))
    def test_row_bands_cover_exactly(self, rows, workers):
        bands = split_range(rows, workers)
        assert bands[0][0] == 0
        assert bands[-1][1] == rows
        for (a0, a1), (b0, b1) in zip(bands, bands[1:]):
            assert a1 == b0          # contiguous
            assert a1 > a0 and b1 > b0  # non-empty
        assert len(bands) == min(workers, rows)
        sizes = [b1 - b0 for b0, b1 in bands]
        assert max(sizes) - min(sizes) <= 1  # balanced

    @given(rows=st.integers(1, 6), cols=st.integers(1, 40),
           n=st.integers(1, 8), traversal=st.sampled_from(Traversal),
           p2p=st.booleans())
    def test_column_partitions_cover_exactly(self, rows, cols, n, traversal,
                                             p2p):
        grid = TileGrid(rows, cols)
        parts = column_partitions(grid, n, traversal, p2p=p2p)
        owned = [pair for part in parts for pair in part.pairs]
        assert sorted(owned) == sorted(grid_pairs(grid))  # disjoint cover
        assert 0 < len(parts) <= n or not owned
        readers = Counter(
            c for part in parts for c in range(part.first_col, part.cols[1])
        )
        assert max(readers.values(), default=0) <= 2
        for part in parts:
            visited = set(part.order)
            assert len(visited) == len(part.order)
            # Under p2p a link delivers the ghost column instead.
            needed = {pos for pair in part.pairs for pos in (pair.first,
                      pair.second) if not p2p or pos.col >= part.cols[0]}
            assert needed <= visited
