"""The FFT layer: one gateway over numpy's pocketfft.

The paper's reference implementation uses FFTW3 on the CPU and cuFFT on the
GPU, planning each problem shape once and executing the plan thousands of
times.  Here every transform runs through
:func:`repro.fftlib.plans.transform`, the only code that names an FFT
library: numpy's pocketfft (the C++ library ``scipy.fft`` wraps), run axis
by axis so every result equals ``scipy.fft``'s byte for byte, second pass
in place, optionally into a caller's ``out`` buffer.  pocketfft keeps its
own per-length tables and holds no plan a caller could keep, so the paper's
planned FFTW is modelled, not reproduced
(:attr:`repro.gpu.costs.CpuCostModel.fft_seconds`).

- :mod:`repro.fftlib.plans` -- :func:`~repro.fftlib.plans.transform`,
  :class:`~repro.fftlib.plans.TransformKind` and the process-wide
  :class:`~repro.fftlib.plans.TransformLedger` of transforms run per shape
  (:func:`~repro.fftlib.plans.default_cache`).
- :mod:`repro.fftlib.smooth` -- "nice size" search (products of 2/3/5/7) and
  pad/crop helpers; padding tiles to smooth sizes is one of the paper's
  future-work optimizations (Section VI.A).
"""

from repro.fftlib.plans import (
    TransformKind,
    TransformLedger,
    default_cache,
    transform,
)
from repro.fftlib.smooth import is_smooth, next_smooth, pad_to_shape

__all__ = [
    "TransformKind",
    "TransformLedger",
    "default_cache",
    "transform",
    "is_smooth",
    "next_smooth",
    "pad_to_shape",
]
