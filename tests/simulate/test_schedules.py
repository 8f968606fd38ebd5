"""Schedule builders: structure and small-scale sanity."""

import pytest

from repro.grid import TileGrid, replay, traverse
from repro.grid.traversal import Traversal
from repro.simulate.costmodel import PAPER_MACHINE
from repro.simulate.schedules import (
    simulate_fiji,
    simulate_mt_cpu,
    simulate_pipelined_cpu,
    simulate_pipelined_gpu,
    simulate_simple_cpu,
    simulate_simple_gpu,
)

SMALL = dict(rows=4, cols=5)
TILE = (64, 64)


def serial_program(rows, cols):
    """The sequential program order the serial schedules replay."""
    grid = TileGrid(rows, cols)
    return list(replay(grid, traverse(grid, Traversal.CHAINED_DIAGONAL)))


class TestSerialProgram:
    def test_covers_every_tile_and_pair(self):
        visits = serial_program(4, 5)
        tiles = [pos for pos, _ in visits]
        pairs = [pair for _, ready in visits for pair in ready]
        assert len(tiles) == 20 and len(set(tiles)) == 20
        assert len(pairs) == 2 * 20 - 4 - 5 and len(set(pairs)) == len(pairs)

    def test_pairs_emitted_after_both_tiles(self):
        seen = set()
        for pos, ready in serial_program(3, 3):
            seen.add(pos)
            for pair in ready:
                assert pair.first in seen and pair.second in seen


class TestScheduleStructure:
    def test_simple_cpu_is_serial_sum(self):
        res = simulate_simple_cpu(PAPER_MACHINE, tile=TILE, **SMALL)
        total = sum(o.duration for o in res.sim.ops)
        assert res.makespan_seconds == pytest.approx(total)

    def test_simple_gpu_is_serial_sum(self):
        res = simulate_simple_gpu(PAPER_MACHINE, tile=TILE, **SMALL)
        total = sum(o.duration for o in res.sim.ops)
        assert res.makespan_seconds == pytest.approx(total)

    def test_pipelined_cpu_scales_with_threads(self):
        t1 = simulate_pipelined_cpu(PAPER_MACHINE, threads=1, tile=TILE, **SMALL)
        t4 = simulate_pipelined_cpu(PAPER_MACHINE, threads=4, tile=TILE, **SMALL)
        assert t4.makespan_seconds < t1.makespan_seconds
        speedup = t1.makespan_seconds / t4.makespan_seconds
        assert 2.0 < speedup <= 4.0

    def test_mt_cpu_has_boundary_redundancy(self):
        r1 = simulate_mt_cpu(PAPER_MACHINE, threads=1, tile=TILE, **SMALL)
        r4 = simulate_mt_cpu(PAPER_MACHINE, threads=4, tile=TILE, **SMALL)
        w1 = sum(o.duration for o in r1.sim.ops)
        w4 = sum(o.duration for o in r4.sim.ops)
        assert w4 > w1  # duplicated boundary rows add work

    def test_pipelined_beats_simple_gpu(self):
        simple = simulate_simple_gpu(PAPER_MACHINE, tile=TILE, **SMALL)
        piped = simulate_pipelined_gpu(PAPER_MACHINE, n_gpus=1, tile=TILE, **SMALL)
        assert piped.makespan_seconds < simple.makespan_seconds / 3

    def test_two_gpus_faster_than_one(self):
        one = simulate_pipelined_gpu(PAPER_MACHINE, n_gpus=1, tile=TILE, rows=8, cols=8)
        two = simulate_pipelined_gpu(PAPER_MACHINE, n_gpus=2, tile=TILE, rows=8, cols=8)
        assert 1.4 < one.makespan_seconds / two.makespan_seconds <= 2.05

    def test_pipelined_gpu_covers_all_pairs(self):
        for n_gpus in (1, 2, 3):
            res = simulate_pipelined_gpu(PAPER_MACHINE, n_gpus=n_gpus, tile=TILE, **SMALL)
            ccfs = [o for o in res.sim.ops if o.name == "ccf"]
            assert len(ccfs) == 2 * 20 - 4 - 5

    def test_fiji_slowest_of_all(self):
        fiji = simulate_fiji(PAPER_MACHINE, tile=TILE, **SMALL)
        simple = simulate_simple_cpu(PAPER_MACHINE, tile=TILE, **SMALL)
        assert fiji.makespan_seconds > simple.makespan_seconds


class TestFutureWorkVariants:
    def test_p2p_covers_all_pairs(self):
        for g in (2, 3):
            res = simulate_pipelined_gpu(
                PAPER_MACHINE, 6, 9, n_gpus=g, tile=TILE, p2p=True
            )
            ccfs = [o for o in res.sim.ops if o.name == "ccf"]
            assert len(ccfs) == 2 * 54 - 6 - 9

    def test_p2p_removes_ghost_reads(self):
        ghost = simulate_pipelined_gpu(PAPER_MACHINE, 6, 9, 3, tile=TILE)
        p2p = simulate_pipelined_gpu(PAPER_MACHINE, 6, 9, 3, tile=TILE, p2p=True)
        reads_ghost = sum(1 for o in ghost.sim.ops if o.name == "read")
        reads_p2p = sum(1 for o in p2p.sim.ops if o.name == "read")
        assert reads_p2p == 54           # exactly one read per tile
        assert reads_ghost == 54 + 2 * 6  # two duplicated ghost columns
        copies = sum(1 for o in p2p.sim.ops if o.name == "p2p-copy")
        assert copies == 2 * 6

    def test_p2p_single_gpu_noop(self):
        a = simulate_pipelined_gpu(PAPER_MACHINE, 4, 4, 1, tile=TILE)
        b = simulate_pipelined_gpu(PAPER_MACHINE, 4, 4, 1, tile=TILE, p2p=True)
        assert a.makespan_seconds == b.makespan_seconds

    def test_hyper_q_faster_never_changes_coverage(self):
        base = simulate_pipelined_gpu(PAPER_MACHINE, 6, 6, 1, tile=TILE)
        hq = simulate_pipelined_gpu(PAPER_MACHINE, 6, 6, 1, tile=TILE, hyper_q=True)
        assert hq.makespan_seconds <= base.makespan_seconds
        n_base = sum(1 for o in base.sim.ops if o.name == "ccf")
        n_hq = sum(1 for o in hq.sim.ops if o.name == "ccf")
        assert n_base == n_hq
