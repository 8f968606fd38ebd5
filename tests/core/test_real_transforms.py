"""Half-spectrum PCIAM: every transform is R2C, every spectrum half-size.

That the half-spectrum scheme finds the complex scheme's answers is
pinned for every scheduler against a naive ``numpy.fft`` oracle in
``tests/integration/test_impl_equivalence.py``.
"""

import numpy as np
import pytest

from repro.core.pciam import CcfMode, forward_fft, pciam
from repro.synth.specimen import generate_plate

PLATE = generate_plate(300, 300, seed=5)


def cut_pair(ty, tx, size=96, base=50):
    return (
        PLATE[base : base + size, base : base + size],
        PLATE[base + ty : base + ty + size, base + tx : base + tx + size],
    )


class TestRealTransforms:
    def test_half_spectrum_shape(self):
        img, _ = cut_pair(0, 0)
        spec = forward_fft(img)
        assert spec.shape == (96, 49)

    def test_precomputed_half_spectra(self):
        img_i, img_j = cut_pair(4, 72)
        fi = forward_fft(img_i)
        fj = forward_fft(img_j)
        r = pciam(img_i, img_j, fft_i=fi, fft_j=fj, ccf_mode=CcfMode.EXTENDED)
        assert (r.ty, r.tx) == (4, 72)

    def test_full_spectrum_rejected_in_real_mode(self):
        img_i, img_j = cut_pair(0, 70)
        fi = np.fft.fft2(img_i)
        with pytest.raises(ValueError, match="shape"):
            pciam(img_i, img_j, fft_i=fi, fft_j=fi)

    def test_with_padding(self):
        img_i, img_j = cut_pair(5, 70)
        r = pciam(img_i, img_j, fft_shape=(100, 108),
                  ccf_mode=CcfMode.EXTENDED, n_peaks=2)
        assert (r.ty, r.tx) == (5, 70)

    def test_complex_scheme_refused(self):
        img_i, img_j = cut_pair(0, 70)
        with pytest.raises(ValueError, match="half-spectrum"):
            forward_fft(img_i, real=False)
        with pytest.raises(ValueError, match="half-spectrum"):
            pciam(img_i, img_j, real_transforms=False)
