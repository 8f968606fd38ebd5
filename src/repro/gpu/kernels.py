"""Device kernels: FFT, NCC, inverse FFT, max-reduce (real math).

Each kernel mirrors one custom CUDA kernel or cuFFT call of the paper's
Simple-GPU / Pipelined-GPU implementations.  They operate on device-side
arrays (``DeviceBuffer.data`` or pool slots), run genuine NumPy math (the
transforms through :func:`repro.fftlib.plans.transform`, writing straight
into ``dst``), and are traced on the device's compute engine with modeled
durations.

The max-reduce returns only the flat index and magnitude -- the paper
"minimizes transfers from device to host memory by only copying the result
of the parallel reduction", and these kernels preserve that structure:
:func:`correlate_pair`, the one pair sequence both GPU schedulers run,
d2h-copies the O(k) reduction result, never the 22 MB correlation surface.
"""

from __future__ import annotations

import numpy as np

from repro.core.ncc import normalized_correlation
from repro.fftlib.plans import TransformKind, transform
from repro.gpu.device import VirtualGpu
from repro.gpu.stream import Stream


def _area(a: np.ndarray) -> int:
    return int(a.shape[-2] * a.shape[-1])


def fft2_kernel(
    device: VirtualGpu,
    src: np.ndarray,
    dst: np.ndarray,
    stream: Stream | None = None,
    not_before: float = 0.0,
):
    """Forward 2-D c2c transform of ``src`` (device) into ``dst`` (device)."""
    stream = stream or device.default_stream

    def do() -> None:
        transform(TransformKind.C2C_FORWARD, src, dst.shape, out=dst)

    _, event = stream.submit(
        "cufft-fwd", "compute", do, device.costs.fft(_area(src)), 0, not_before
    )
    return event


def rfft2_kernel(
    device: VirtualGpu,
    src: np.ndarray,
    dst: np.ndarray,
    stream: Stream | None = None,
    not_before: float = 0.0,
):
    """Forward 2-D r2c transform: real ``src`` into half-spectrum ``dst``.

    cuFFT's R2C plan exploits Hermitian symmetry: the output is
    ``(h, w//2+1)`` and the work is roughly half a C2C transform of the
    same spatial extent, which the cost model reflects.
    """
    stream = stream or device.default_stream

    def do() -> None:
        transform(TransformKind.R2C, src, src.shape, out=dst)

    _, event = stream.submit(
        "cufft-fwd-r2c", "compute", do,
        0.5 * device.costs.fft(_area(src)), 0, not_before,
    )
    return event


def irfft2_kernel(
    device: VirtualGpu,
    src: np.ndarray,
    dst: np.ndarray,
    stream: Stream | None = None,
    not_before: float = 0.0,
):
    """Inverse 2-D c2r transform: half-spectrum ``src`` into real ``dst``.

    ``dst``'s spatial shape disambiguates the target width (the
    half-spectrum alone cannot distinguish even from odd widths), exactly
    as a cuFFT C2R plan carries the full transform size.  Like cuFFT's
    C2R, the transform clobbers ``src``.
    """
    stream = stream or device.default_stream

    def do() -> None:
        transform(
            TransformKind.C2R, src, dst.shape, overwrite_input=True, out=dst
        )

    _, event = stream.submit(
        "cufft-inv-c2r", "compute", do,
        0.5 * device.costs.fft(_area(dst)), 0, not_before,
    )
    return event


def ncc_kernel(
    device: VirtualGpu,
    fft_i: np.ndarray,
    fft_j: np.ndarray,
    dst: np.ndarray,
    stream: Stream | None = None,
    not_before: float = 0.0,
):
    """Normalized conjugate multiply into ``dst`` (may alias inputs)."""
    stream = stream or device.default_stream

    def do() -> None:
        normalized_correlation(fft_i, fft_j, out=dst)

    _, event = stream.submit(
        "ncc", "compute", do, device.costs.ncc(_area(fft_i)), 0, not_before
    )
    return event


def ifft2_kernel(
    device: VirtualGpu,
    src: np.ndarray,
    dst: np.ndarray,
    stream: Stream | None = None,
    not_before: float = 0.0,
):
    """Inverse 2-D c2c transform (cuFFT backward)."""
    stream = stream or device.default_stream

    def do() -> None:
        transform(TransformKind.C2C_INVERSE, src, dst.shape, out=dst)

    _, event = stream.submit(
        "cufft-inv", "compute", do, device.costs.fft(_area(src)), 0, not_before
    )
    return event


def reduce_max_kernel(
    device: VirtualGpu,
    src: np.ndarray,
    stream: Stream | None = None,
    not_before: float = 0.0,
    k: int = 1,
) -> tuple[list[tuple[float, int]], object]:
    """Top-``k`` |.| reduction; returns ``([(magnitude, flat_index), ...], event)``.

    Modeled after Harris-style parallel reduction: the device-side result
    is ``k`` (value, index) pairs, so the subsequent D2H copy is O(k) --
    never the 22 MB correlation surface.  ``k == 1`` is the paper's exact
    kernel; ``k > 1`` supports the multi-peak robustness option at the same
    asymptotic cost (a k-way partial reduction).
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    stream = stream or device.default_stream

    def do() -> list[tuple[float, int]]:
        mag = np.abs(src).ravel()
        kk = min(k, mag.size)
        idxs = np.argpartition(mag, mag.size - kk)[-kk:]
        idxs = idxs[np.argsort(mag[idxs])[::-1]]
        return [(float(mag[i]), int(i)) for i in idxs]

    result, event = stream.submit(
        "reduce-max", "compute", do, device.costs.reduce_max(_area(src)), 0, not_before
    )
    return result, event


def correlate_pair(
    device: VirtualGpu,
    fft_i: np.ndarray,
    fft_j: np.ndarray,
    scratch: np.ndarray,
    inverse: np.ndarray | None,
    stream: Stream,
    k: int,
    not_before: float = 0.0,
):
    """One pair's device work: NCC -> inverse -> top-``k`` reduce -> D2H.

    The NCC lands in ``scratch``; the inverse is a C2R into ``inverse``
    (real transforms) or, when that is ``None``, a C2C in place.  Only the
    NCC waits for ``not_before`` (both forward transforms done); stream
    order chains the rest.  Only the O(k) reduction scalars are copied
    back.  Returns ``(peaks, d2h event)``.
    """
    ncc_kernel(device, fft_i, fft_j, scratch, stream, not_before=not_before)
    if inverse is not None:
        irfft2_kernel(device, scratch, inverse, stream)
    else:
        ifft2_kernel(device, scratch, scratch, stream)
        inverse = scratch
    peaks, _ = reduce_max_kernel(device, inverse, stream, k=k)
    flat = np.array([v for p in peaks for v in p], dtype=np.float64)
    _, event = device.d2h(flat, stream)
    return peaks, event
