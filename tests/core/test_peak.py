"""Peak reduction and periodic interpretation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.peak import peak_candidates, peak_location, top_peaks


class TestPeakLocation:
    def test_finds_planted_max(self):
        a = np.zeros((8, 10), dtype=complex)
        a[3, 7] = 5.0 - 2.0j
        mag, py, px = peak_location(a)
        assert (py, px) == (3, 7)
        assert mag == pytest.approx(abs(5.0 - 2.0j))

    def test_magnitude_not_real_part(self):
        a = np.zeros((4, 4), dtype=complex)
        a[0, 0] = 1.0       # real 1
        a[2, 2] = -3.0j     # |.| = 3 but real part 0
        _, py, px = peak_location(a)
        assert (py, px) == (2, 2)


class TestTopPeaks:
    def test_ordered_by_magnitude(self):
        a = np.zeros((6, 6), dtype=complex)
        a[1, 1], a[2, 2], a[3, 3] = 3.0, 5.0, 4.0
        peaks = top_peaks(a, 3)
        assert [(py, px) for _, py, px in peaks] == [(2, 2), (3, 3), (1, 1)]

    def test_k_capped_at_size(self):
        a = np.ones((2, 2), dtype=complex)
        assert len(top_peaks(a, 99)) == 4

    def test_k_one_matches_peak_location(self):
        rng = np.random.default_rng(0)
        a = rng.random((9, 9)) + 1j * rng.random((9, 9))
        assert top_peaks(a, 1)[0] == peak_location(a)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            top_peaks(np.ones((2, 2), dtype=complex), 0)

    def test_all_equal_surface_yields_first_elements(self):
        # Ties go to the lowest flat index.
        peaks = top_peaks(np.full((3, 4), 2.0), 5)
        assert peaks == [(2.0, 0, 0), (2.0, 0, 1), (2.0, 0, 2), (2.0, 0, 3),
                         (2.0, 1, 0)]

    @pytest.mark.parametrize("n", [1, 2, 8, 40])
    def test_matches_a_stable_sort(self, n):
        rng = np.random.default_rng(n)
        # Few distinct values: plenty of ties at every rank.
        a = rng.integers(-3, 4, (17, 23)).astype(np.float64)
        order = np.argsort(-np.abs(a).ravel(), kind="stable")[:n]
        expected = [(abs(float(a.ravel()[f])), *divmod(int(f), 23))
                    for f in order]
        scratch = np.empty_like(a)
        assert top_peaks(a, n) == expected
        assert top_peaks(a, n, mag_out=scratch) == expected
        assert a.min() < 0  # the input surface is left alone


class TestPeakCandidates:
    def test_paper4_combinations(self):
        # Fig. 2: (x | w-x) crossed with (y | h-y).
        cands = peak_candidates(5, 90, (128, 128))
        assert set(cands) == {(90, 5), (38, 5), (90, 123), (38, 123)}

    def test_extended_signed_aliases(self):
        cands = peak_candidates(5, 90, (128, 128), extended=True)
        assert set(cands) == {(90, 5), (-38, 5), (90, -123), (-38, -123)}

    def test_zero_peak_degenerates(self):
        cands = peak_candidates(0, 0, (64, 64))
        assert (0, 0) in cands

    def test_out_of_range_peak_rejected(self):
        with pytest.raises(ValueError):
            peak_candidates(64, 0, (64, 64))

    @given(
        h=st.integers(2, 64), w=st.integers(2, 64),
        py=st.integers(0, 63), px=st.integers(0, 63),
    )
    def test_extended_contains_all_true_aliases(self, h, w, py, px):
        """Any translation congruent to the peak mod (H, W) with components
        in (-W, W) x (-H, H) appears among extended candidates."""
        if py >= h or px >= w:
            return
        cands = set(peak_candidates(py, px, (h, w), extended=True))
        for ty in (py, py - h):
            for tx in (px, px - w):
                assert (tx, ty) in cands
