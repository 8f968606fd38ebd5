"""The paper's core contribution: Fourier-based image stitching.

Three phases (Section III):

1. **Relative displacements** -- for every adjacent tile pair, the
   phase-correlation image alignment method (PCIAM) of Kuglin & Hines with
   Lewis' normalized-cross-correlation disambiguation: FFT both tiles, form
   the normalized correlation coefficient, inverse-FFT, reduce to the peak,
   then test the peak's periodic interpretations with cross-correlation
   factors (CCFs) over the implied overlap regions (Figs. 1-4).
2. **Over-constraint resolution** -- the pairwise translations form an
   over-constrained graph; absolute positions come from a
   maximum-correlation spanning tree (subset selection) optionally refined
   by a weighted least-squares global adjustment.
3. **Composition** -- render the mosaic from absolute positions.

:class:`repro.core.stitcher.Stitcher` is the high-level facade gluing the
phases together.
"""

from repro.core.ccf import ccf, overlap_views
from repro.core.displacement import (
    DisplacementResult,
    Translation,
    compute_grid_displacements,
)
from repro.core.global_opt import GlobalPositions, resolve_absolute_positions
from repro.core.compose import BlendMode, compose
from repro.core.ncc import normalized_correlation
from repro.core.options import StitchOptions
from repro.core.pciam import CcfMode, pciam
from repro.core.peak import peak_candidates, peak_location, top_peaks
from repro.core.pyramid import MosaicPyramid, downsample
from repro.core.stitcher import Stitcher, StitchResult

__all__ = [
    "ccf",
    "overlap_views",
    "normalized_correlation",
    "pciam",
    "CcfMode",
    "peak_location",
    "peak_candidates",
    "Translation",
    "DisplacementResult",
    "compute_grid_displacements",
    "GlobalPositions",
    "resolve_absolute_positions",
    "BlendMode",
    "compose",
    "MosaicPyramid",
    "downsample",
    "top_peaks",
    "Stitcher",
    "StitchOptions",
    "StitchResult",
]
