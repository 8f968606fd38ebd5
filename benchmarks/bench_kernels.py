"""Kernel microbenchmarks (Section IV.A's per-operator measurements).

Real wall-clock pytest-benchmark timings of the core operators at a
reduced tile size.  Every transform runs through the package's one FFT
gateway, :func:`repro.fftlib.plans.transform`.
"""

import numpy as np
import pytest

from repro.core.ccf import ccf_at
from repro.core.ncc import normalized_correlation
from repro.core.peak import top_peaks
from repro.core.pciam import pciam, CcfMode
from repro.fftlib.plans import TransformKind, transform
from repro.synth.specimen import generate_plate

H, W = 256, 256
FORWARD, INVERSE = TransformKind.R2C, TransformKind.C2R


@pytest.fixture(scope="module")
def tiles():
    plate = generate_plate(600, 600, seed=1)
    return plate[100 : 100 + H, 100 : 100 + W], plate[105 : 105 + H, 290 : 290 + W]


@pytest.fixture(scope="module")
def spectra(tiles):
    return tuple(
        transform(FORWARD, t.astype(np.float64), (H, W)) for t in tiles
    )


def test_bench_forward_fft(benchmark, tiles):
    a = tiles[0].astype(np.float64)
    benchmark(lambda: transform(FORWARD, a, (H, W)))


def test_bench_ncc(benchmark, spectra):
    fa, fb = spectra
    out = np.empty_like(fa)
    benchmark(lambda: normalized_correlation(fa, fb, out=out))


def test_bench_inverse_fft(benchmark, spectra):
    fa, _ = spectra
    benchmark(lambda: transform(INVERSE, fa, (H, W)))


def test_bench_reduce_max(benchmark, spectra):
    inv = transform(INVERSE, normalized_correlation(*spectra), (H, W))
    benchmark(lambda: top_peaks(inv, 1))


def test_bench_ccf(benchmark, tiles):
    a, b = tiles
    benchmark(lambda: ccf_at(a, b, 190, 5))


def test_bench_full_pciam(benchmark, tiles):
    a, b = tiles
    result = benchmark(lambda: pciam(a, b, ccf_mode=CcfMode.EXTENDED, n_peaks=2))
    assert result.correlation > 0.9
