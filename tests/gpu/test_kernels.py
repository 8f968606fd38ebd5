"""Device kernels: numerical equivalence with the CPU path."""

import numpy as np
import pytest
import scipy.fft as sf

from repro.core.ncc import normalized_correlation
from repro.gpu.device import VirtualGpu
from repro.gpu.kernels import (
    irfft2_kernel,
    ncc_kernel,
    reduce_max_kernel,
    rfft2_kernel,
)


@pytest.fixture
def dev():
    return VirtualGpu()


def upload(dev, host):
    buf = dev.alloc(host.shape, dtype=host.dtype)
    buf.data[...] = host
    return buf


class TestKernels:
    def test_fft_matches_scipy(self, dev):
        a = np.random.default_rng(0).random((16, 15))
        src, dst = upload(dev, a), dev.alloc((16, 8))
        rfft2_kernel(dev, src.data, dst.data)
        assert np.allclose(dst.data, sf.rfft2(a))

    def test_ifft_roundtrip(self, dev):
        a = np.random.default_rng(1).random((12, 11))
        src, mid = upload(dev, a), dev.alloc((12, 6))
        out = dev.alloc((12, 11), dtype=np.float64)
        rfft2_kernel(dev, src.data, mid.data)
        irfft2_kernel(dev, mid.data, out.data)
        assert np.allclose(out.data, a)

    def test_ncc_matches_cpu(self, dev):
        rng = np.random.default_rng(2)
        fa = sf.fft2(rng.random((8, 8)))
        fb = sf.fft2(rng.random((8, 8)))
        a, b, out = upload(dev, fa), upload(dev, fb), dev.alloc((8, 8))
        ncc_kernel(dev, a.data, b.data, out.data)
        assert np.allclose(out.data, normalized_correlation(fa, fb))

    def test_ncc_in_place(self, dev):
        rng = np.random.default_rng(3)
        fa = sf.fft2(rng.random((8, 8)))
        fb = sf.fft2(rng.random((8, 8)))
        expected = normalized_correlation(fa.copy(), fb)
        a, b = upload(dev, fa), upload(dev, fb)
        ncc_kernel(dev, a.data, b.data, a.data)  # dst aliases input
        assert np.allclose(a.data, expected)

    def test_reduce_max_finds_peak(self, dev):
        a = np.zeros((8, 10), dtype=np.complex128)
        a[3, 7] = -4.0j
        buf = upload(dev, a)
        peaks, _ = reduce_max_kernel(dev, buf.data)
        (mag, idx), = peaks
        assert idx == 3 * 10 + 7
        assert mag == pytest.approx(4.0)

    def test_reduce_topk_ordering(self, dev):
        a = np.zeros((4, 4), dtype=np.complex128)
        a[0, 1], a[2, 2], a[3, 3] = 3.0, 5.0, 4.0
        buf = upload(dev, a)
        peaks, _ = reduce_max_kernel(dev, buf.data, k=3)
        assert [idx for _, idx in peaks] == [10, 15, 1]

    def test_reduce_bad_k(self, dev):
        buf = upload(dev, np.zeros((2, 2), dtype=np.complex128))
        with pytest.raises(ValueError):
            reduce_max_kernel(dev, buf.data, k=0)

    def test_kernels_trace_on_compute_engine(self, dev):
        a = np.ones((8, 8))
        src, dst = upload(dev, a), dev.alloc((8, 5))
        rfft2_kernel(dev, src.data, dst.data)
        ncc_kernel(dev, dst.data, dst.data, dst.data)
        reduce_max_kernel(dev, dst.data)
        names = [e.name for e in dev.profiler.events]
        assert names == ["cufft-fwd-r2c", "ncc", "reduce-max"]
        assert all(e.engine == "compute" for e in dev.profiler.events)
        # One kernel at a time on the compute engine (Fermi cuFFT note).
        evs = dev.profiler.events
        for e1, e2 in zip(evs, evs[1:]):
            assert e2.start >= e1.end
