"""repro: reproduction of "A Hybrid CPU-GPU System for Stitching Large
Scale Optical Microscopy Images" (Blattner et al., ICPP 2014).

Public API highlights:

- :class:`repro.Stitcher` -- three-phase stitching facade;
- :mod:`repro.impls` -- the six Table II implementations;
- :mod:`repro.synth` -- synthetic microscope acquisitions with ground truth;
- :mod:`repro.simulate` -- paper-scale performance reproduction (DES);
- :mod:`repro.pipeline` -- the general-purpose pipeline framework;
- :mod:`repro.faults` -- fault injection, retry policies, fault reports.
"""

from repro.core import (
    BlendMode,
    CcfMode,
    Stitcher,
    StitchOptions,
    StitchResult,
    compose,
    pciam,
    resolve_absolute_positions,
)
from repro.faults import ErrorPolicy, FaultPlan, FaultReport
from repro.io import TileDataset, read_tiff, write_tiff

__version__ = "1.0.0"

__all__ = [
    "Stitcher",
    "StitchOptions",
    "StitchResult",
    "BlendMode",
    "CcfMode",
    "pciam",
    "compose",
    "resolve_absolute_positions",
    "TileDataset",
    "read_tiff",
    "write_tiff",
    "make_synthetic_dataset",
    "ErrorPolicy",
    "FaultPlan",
    "FaultReport",
    "__version__",
]


def __getattr__(name: str):
    # Resolved on first use (PEP 562): a stitch never needs the synthetic
    # microscope, so ``import repro`` does not import ``repro.synth``.
    if name == "make_synthetic_dataset":
        from repro.synth import make_synthetic_dataset

        return make_synthetic_dataset
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
