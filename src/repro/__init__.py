"""repro: Semi-fluid Motion Analysis (SMA) on a simulated MasPar MP-2.

A full reproduction of Palaniappan, Faisal, Kambhamettu & Hasler,
"Implementation of an Automatic Semi-Fluid Motion Analysis Algorithm on
a Massively Parallel Computer" (IPPS 1996): the SMA algorithm
(:mod:`repro.core`), the ASA stereo-analysis substrate
(:mod:`repro.stereo`), a MasPar MP-2 SIMD machine simulator
(:mod:`repro.maspar`), the paper's parallelization on that machine
(:mod:`repro.parallel`), synthetic GOES cloud imagery with ground truth
(:mod:`repro.data`), the evaluation harness (:mod:`repro.analysis`) and
the paper's future-work extensions (:mod:`repro.extensions`).

Quick start::

    import numpy as np
    from repro import SMAnalyzer, GOES9_CONFIG
    from repro.data import florida_thunderstorm

    seq = florida_thunderstorm(size=96, n_frames=3, seed=7)
    analyzer = SMAnalyzer(GOES9_CONFIG.replace(n_zs=3, n_zt=4))
    field = analyzer.track_pair(seq.frames[0], seq.frames[1])
    print(field.mean_displacement())
"""

from .core import Frame, FramePreparationCache, MotionField, SMAnalyzer
from .options import TrackOptions
from .params import (
    FREDERIC_CONFIG,
    GOES9_CONFIG,
    LUIS_CONFIG,
    PAPER_IMAGE_SIZE,
    SMALL_CONFIG,
    NeighborhoodConfig,
    window_pixels,
    window_size,
)

__version__ = "1.1.0"

__all__ = [
    "Frame",
    "FramePreparationCache",
    "MotionField",
    "SMAnalyzer",
    "TrackOptions",
    "FREDERIC_CONFIG",
    "GOES9_CONFIG",
    "LUIS_CONFIG",
    "PAPER_IMAGE_SIZE",
    "SMALL_CONFIG",
    "NeighborhoodConfig",
    "window_pixels",
    "window_size",
    "__version__",
]
