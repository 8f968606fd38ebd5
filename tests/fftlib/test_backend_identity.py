"""Every transform equals ``scipy.fft``'s byte for byte.

The gateway runs numpy's pocketfft one axis at a time
(:func:`repro.fftlib.plans.transform`); scipy's multi-axis transforms run
the same C++ pocketfft in the same axis order with the same placement of
the ``1/(h*w)`` normalisation, so every spectrum, surface and therefore
every displacement is unchanged by the choice of library.  scipy is the
oracle here only (the package itself loads it for the least-squares solve
alone).
"""

import numpy as np
import pytest

from repro.fftlib.plans import TransformKind, spectrum_shape, transform

sfft = pytest.importorskip("scipy.fft")

SHAPES = [(h, w) for h in range(1, 41) for w in range(1, 41)] + [
    (97, 131), (509, 521), (520, 696), (1040, 1392), (2, 2048),
]
#: Leading axis of the batched (3-D) problems.
BATCH = 2


def reference(kind: TransformKind, a: np.ndarray, hw: tuple[int, int]):
    if kind is TransformKind.R2C:
        return sfft.rfft2(a)
    if kind is TransformKind.C2R:
        return sfft.irfft2(a, s=hw)
    if kind is TransformKind.C2C_FORWARD:
        return sfft.fft2(a)
    return sfft.ifft2(a)


def problem(kind: TransformKind, shape: tuple, rng) -> np.ndarray:
    """Random input of ``kind`` for the spatial ``shape``."""
    if kind is TransformKind.R2C:
        return rng.standard_normal(shape)
    if kind is TransformKind.C2R:
        shape = spectrum_shape(shape)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("batched", [False, True], ids=["2d", "3d"])
@pytest.mark.parametrize("kind", list(TransformKind), ids=lambda k: k.value)
def test_every_transform_matches_scipy_byte_for_byte(kind, batched):
    rng = np.random.default_rng(7)
    for hw in SHAPES:
        shape = (BATCH, *hw) if batched else hw
        a = problem(kind, shape, rng)
        ref = reference(kind, a, hw)
        if batched:
            # Batching is throughput only: every slice is its 2-D transform.
            for i in range(BATCH):
                assert transform(kind, a[i], hw).tobytes() == ref[i].tobytes(), hw
        for overwrite in (False, True):
            for given_out in (False, True):
                src = a.copy()
                out = np.empty_like(ref) if given_out else None
                got = transform(kind, src, hw, overwrite_input=overwrite, out=out)
                where = f"{kind.value} {shape} overwrite={overwrite} out={given_out}"
                assert got.dtype == ref.dtype and got.shape == ref.shape, where
                assert got.tobytes() == ref.tobytes(), where
                if given_out:
                    assert got is out, where
                if not overwrite:
                    assert src.tobytes() == a.tobytes(), where
