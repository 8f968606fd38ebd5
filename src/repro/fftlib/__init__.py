"""FFTW-like transform layer.

The paper's reference implementation uses FFTW3 on the CPU and cuFFT on the
GPU.  FFTW exposes *plans*: a plan is created once for a given problem shape
(in a *planning mode* that trades planning time for execution speed) and then
executed many times.  The paper amortizes a 4 min 20 s ``patient`` planning
step over thousands of 1392x1040 transforms and reports a 2x execution-speed
improvement over ``estimate`` mode.

This package reproduces the plan/execute structure on top of numpy's
pocketfft (``numpy.fft``), the same C++ library ``scipy.fft`` wraps, run
axis by axis so every result equals ``scipy.fft``'s byte for byte; the
second pass of a transform runs in place, and ``Plan.execute(out=)`` lets a
caller's buffer receive the result.  Every transform in the package goes
through :func:`repro.fftlib.plans.transform`, the only code that names an
FFT library:

- :mod:`repro.fftlib.smooth` -- "nice size" search (products of 2/3/5/7) and
  pad/crop helpers; padding tiles to smooth sizes is one of the paper's
  future-work optimizations (Section VI.A).
- :mod:`repro.fftlib.plans` -- :class:`Plan`, :class:`PlanCache`,
  :class:`PlanningMode`, and wisdom import/export.
- :mod:`repro.fftlib.transforms` -- convenience entry points used by the
  stitching kernels.
"""

from repro.fftlib.plans import (
    Plan,
    PlanCache,
    PlanningMode,
    TransformKind,
    default_cache,
)
from repro.fftlib.smooth import is_smooth, next_smooth, pad_to_shape
from repro.fftlib.transforms import (
    fft2,
    ifft2,
    irfft2,
    rfft2,
)

__all__ = [
    "Plan",
    "PlanCache",
    "PlanningMode",
    "TransformKind",
    "default_cache",
    "fft2",
    "ifft2",
    "rfft2",
    "irfft2",
    "is_smooth",
    "next_smooth",
    "pad_to_shape",
]
