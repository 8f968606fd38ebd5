"""Transform properties through the gateway."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.fftlib.plans import TransformKind, transform


def rfft2(a):
    return transform(TransformKind.R2C, np.asarray(a, dtype=np.float64), a.shape)


def test_fft_ifft_roundtrip():
    a = np.random.default_rng(0).random((17, 23))
    assert np.allclose(transform(TransformKind.C2R, rfft2(a), a.shape), a)


def test_rfft_irfft_roundtrip_even_and_odd_width():
    rng = np.random.default_rng(1)
    for shape in [(8, 8), (9, 7), (10, 5)]:
        a = rng.random(shape)
        assert np.allclose(transform(TransformKind.C2R, rfft2(a), shape), a)


def test_rfft_halves_spectrum_width():
    assert rfft2(np.zeros((16, 20))).shape == (16, 11)


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(min_value=2, max_value=24),
    w=st.integers(min_value=2, max_value=24),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_parseval_energy_conservation(h, w, seed):
    """FFT preserves energy: sum|a|^2 == sum|FFT(a)|^2 / (h*w), where
    every half-spectrum column but the zero and Nyquist ones stands for
    itself and its mirror."""
    a = np.random.default_rng(seed).random((h, w))
    power = np.abs(rfft2(a)) ** 2
    mirrored = np.full(power.shape[1], 2.0)
    mirrored[0] = 1.0
    if w % 2 == 0:
        mirrored[-1] = 1.0
    assert np.isclose((a ** 2).sum(), (power * mirrored).sum() / (h * w))


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(min_value=2, max_value=16),
    w=st.integers(min_value=2, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_rfft_consistent_with_full_fft(h, w, seed):
    """numpy's full complex transform is the outside reference."""
    a = np.random.default_rng(seed).random((h, w))
    assert np.allclose(rfft2(a), np.fft.fft2(a)[:, : w // 2 + 1])
