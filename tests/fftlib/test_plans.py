"""The FFT gateway and the transform ledger it counts in."""

import sys
import threading

import numpy as np

from repro.fftlib.plans import TransformKind, transform


def rows(ledger) -> dict:
    return {
        (tuple(r["shape"]), r["kind"]): (r["hits"], r["misses"])
        for r in ledger.stats()["per_shape"]
    }


class TestPlanExecution:
    def test_direct_forward_matches_numpy(self):
        a = np.random.default_rng(0).random((12, 10)) + 0j
        out = transform(TransformKind.C2C_FORWARD, a, a.shape)
        assert np.allclose(out, np.fft.fft2(a))

    def test_inverse_roundtrip(self):
        a = np.random.default_rng(1).random((9, 14)).astype(np.complex128)
        spec = transform(TransformKind.C2C_FORWARD, a, a.shape)
        assert np.allclose(transform(TransformKind.C2C_INVERSE, spec, a.shape), a)

    def test_r2c_matches_rfft(self):
        a = np.random.default_rng(2).random((8, 6))
        assert np.allclose(
            transform(TransformKind.R2C, a, a.shape), np.fft.rfft2(a)
        )

    def test_execution_counter(self, ledger):
        """Every transform is counted once, the first of a problem as a
        miss."""
        a = np.ones((4, 4), dtype=np.complex128)
        transform(TransformKind.C2C_FORWARD, a, a.shape)
        transform(TransformKind.C2C_FORWARD, a, a.shape)
        assert (ledger.hits, ledger.misses) == (1, 1)


class TestPlanCache:
    def test_caches_by_shape_and_kind(self, ledger):
        a = np.ones((8, 8), dtype=np.complex128)
        transform(TransformKind.C2C_FORWARD, a, a.shape)
        transform(TransformKind.C2C_FORWARD, a, a.shape)
        transform(TransformKind.C2C_INVERSE, a, a.shape)
        assert len(ledger) == 2
        assert rows(ledger) == {
            ((8, 8), "c2c_forward"): (1, 1),
            ((8, 8), "c2c_inverse"): (0, 1),
        }

    def test_c2r_keyed_by_spatial_shape(self, ledger):
        """The half-spectrum cannot tell an even width from an odd one;
        a C2R row names the real output."""
        for w in (6, 7):
            spec = np.ones((5, 4), dtype=np.complex128)
            assert transform(TransformKind.C2R, spec, (5, w)).shape == (5, w)
        assert set(rows(ledger)) == {((5, 6), "c2r"), ((5, 7), "c2r")}

    def test_batch_axis_counts_under_its_slice_shape(self, ledger):
        a = np.ones((3, 4, 6))
        transform(TransformKind.R2C, a, a.shape)
        assert rows(ledger) == {((4, 6), "r2c"): (0, 1)}

    def test_clear(self, ledger):
        transform(TransformKind.R2C, np.ones((4, 4)), (4, 4))
        ledger.clear()
        assert (ledger.hits, ledger.misses, len(ledger)) == (0, 0, 0)
        assert ledger.stats()["per_shape"] == []


class TestPerShapeStats:
    def test_hits_and_misses_tallied_per_key(self, ledger):
        big, small = np.ones((8, 8)) + 0j, np.ones((4, 4)) + 0j
        for a in (big, big, big, small):
            transform(TransformKind.C2C_FORWARD, a, a.shape)
        stats = ledger.stats()
        assert stats["hits"] == 2 and stats["misses"] == 2
        assert rows(ledger) == {
            ((8, 8), TransformKind.C2C_FORWARD.value): (2, 1),
            ((4, 4), TransformKind.C2C_FORWARD.value): (0, 1),
        }

    def test_mixed_resolutions_stay_separate(self, ledger):
        """Coarse-to-fine transforms at two resolutions in one process:
        each shape keeps its own row."""
        for shape in [(128, 128), (64, 64)] * 2:
            spec = np.ones(shape, dtype=np.complex128)
            transform(TransformKind.C2C_INVERSE, spec, shape)
        assert rows(ledger) == {
            ((128, 128), "c2c_inverse"): (1, 1),
            ((64, 64), "c2c_inverse"): (1, 1),
        }

    def test_per_shape_sorted_largest_first(self, ledger):
        for n in (4, 64, 16):
            transform(TransformKind.R2C, np.ones((n, n)), (n, n))
        shapes = [tuple(r["shape"]) for r in ledger.stats()["per_shape"]]
        assert shapes == [(64, 64), (16, 16), (4, 4)]

    def test_executions_reported(self, ledger):
        """A row's hits plus misses is the transforms run at its shape."""
        a = np.ones((4, 4), dtype=np.complex128)
        for _ in range(3):
            transform(TransformKind.C2C_FORWARD, a, a.shape)
        (row,) = ledger.stats()["per_shape"]
        assert row["hits"] + row["misses"] == 3

    def test_concurrent_transforms_all_counted(self, ledger):
        """Pair workers share the ledger: every transform counts once and
        each new problem is one miss, however the threads interleave."""
        threads, shapes = 8, [(2, n) for n in range(2, 202)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=lambda: [
                    transform(TransformKind.R2C, np.ones(shape), shape)
                    for shape in shapes
                ])
                for _ in range(threads)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
            assert not any(w.is_alive() for w in workers)
        finally:
            sys.setswitchinterval(switch)
        assert ledger.misses == len(shapes)
        assert ledger.hits == (threads - 1) * len(shapes)
