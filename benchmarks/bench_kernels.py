"""Kernel microbenchmarks (Section IV.A's per-operator measurements).

Real wall-clock pytest-benchmark timings of the core operators at a
reduced tile size, plus the FFTW-style planning-mode comparison the paper
ran (patient vs estimate).
"""

import numpy as np
import pytest

from repro.core.ccf import ccf_at
from repro.core.ncc import normalized_correlation
from repro.core.peak import top_peaks
from repro.core.pciam import pciam, CcfMode
from repro.fftlib import fft2, ifft2
from repro.fftlib.plans import PlanCache, PlanningMode, TransformKind
from repro.synth.specimen import generate_plate

H, W = 256, 256


@pytest.fixture(scope="module")
def tiles():
    plate = generate_plate(600, 600, seed=1)
    return plate[100 : 100 + H, 100 : 100 + W], plate[105 : 105 + H, 290 : 290 + W]


@pytest.fixture(scope="module")
def spectra(tiles):
    return fft2(tiles[0]), fft2(tiles[1])


def test_bench_forward_fft(benchmark, tiles):
    a = tiles[0].astype(np.complex128)
    benchmark(lambda: fft2(a))


def test_bench_ncc(benchmark, spectra):
    fa, fb = spectra
    out = np.empty_like(fa)
    benchmark(lambda: normalized_correlation(fa, fb, out=out))


def test_bench_inverse_fft(benchmark, spectra):
    fa, _ = spectra
    benchmark(lambda: ifft2(fa))


def test_bench_reduce_max(benchmark, spectra):
    inv = ifft2(normalized_correlation(*spectra))
    benchmark(lambda: top_peaks(inv, 1))


def test_bench_ccf(benchmark, tiles):
    a, b = tiles
    benchmark(lambda: ccf_at(a, b, 190, 5))


def test_bench_full_pciam(benchmark, tiles):
    a, b = tiles
    result = benchmark(lambda: pciam(a, b, ccf_mode=CcfMode.EXTENDED, n_peaks=2))
    assert result.correlation > 0.9


class TestPlanningModes:
    """Paper: patient planning gave ~2x faster transforms than estimate on
    the awkward 1392x1040 size; planning cost is amortized via wisdom."""

    def test_patient_never_slower_than_estimate_strategy(self):
        shape = (174, 130)  # scaled-down awkward factors (29x6, 13x10)
        est = PlanCache().plan(shape, TransformKind.C2C_FORWARD, PlanningMode.ESTIMATE)
        pat = PlanCache().plan(shape, TransformKind.C2C_FORWARD, PlanningMode.PATIENT)
        import time

        a = np.random.default_rng(0).random(shape).astype(np.complex128)
        def best_of(plan, n=7):
            b = float("inf")
            for _ in range(n):
                t0 = time.perf_counter()
                plan.execute(a)
                b = min(b, time.perf_counter() - t0)
            return b

        # Measured choice must be at least as fast as the heuristic one
        # (allowing 20 % measurement noise).
        assert best_of(pat) <= best_of(est) * 1.2

    def test_bench_planned_execution(self, benchmark):
        cache = PlanCache()
        plan = cache.plan((174, 130), TransformKind.C2C_FORWARD, PlanningMode.PATIENT)
        a = np.random.default_rng(0).random((174, 130)).astype(np.complex128)
        benchmark(lambda: plan.execute(a))
