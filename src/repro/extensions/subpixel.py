"""Sub-pixel motion refinement (an accuracy extension).

The SMA search of eq. (7) is integer valued: the reported displacement
is the best hypothesis (continuous model) or the best semi-fluid drift
(semi-fluid model) on the pixel lattice, so a fractional true motion
carries an irreducible ~0.3 px RMS quantization error.  Classic
parabolic interpolation removes most of it: fit a 1-D parabola through
the error/score at the winner and its two lattice neighbors,
independently in x and y, and shift the estimate by the parabola's
vertex (clamped to half a pixel; winners on the search boundary, or
with non-convex neighborhoods, stay integer).

Two refinement paths, matching the two template-mapping models:

* :func:`refine_continuous` interpolates the *hypothesis error volume*
  (eq. 3 minima per displacement), which :func:`track_dense_with_volume`
  retains during the dense search.
* :func:`refine_semifluid` interpolates the *semi-fluid score volume*
  (the theta field of eq. 10-11) around each pixel's chosen drift --
  no extra dense passes needed, the volume is already the Section 4.1
  precompute.

This is part of the paper's "improving the accuracy of the estimated
motion field" future-work direction (Section 6).
"""

from __future__ import annotations

import numpy as np

from ..core.matching import (
    DenseMatchResult,
    HypothesisStep,
    PreparedFrames,
    RunningBest,
    hypothesis_order,
)

#: Curvature floor below which a parabola is considered degenerate.
CURVATURE_EPS = 1e-12


def parabolic_offset(e_minus: np.ndarray, e_zero: np.ndarray, e_plus: np.ndarray) -> np.ndarray:
    """Vertex offset of the parabola through three equidistant samples.

    Returns values in [-0.5, 0.5]; 0 where the stencil is degenerate
    (non-convex or flat) or where the center is not the minimum.
    """
    e_minus = np.asarray(e_minus, dtype=np.float64)
    e_zero = np.asarray(e_zero, dtype=np.float64)
    e_plus = np.asarray(e_plus, dtype=np.float64)
    denom = e_minus - 2.0 * e_zero + e_plus
    centered = (e_zero <= e_minus) & (e_zero <= e_plus)
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = 0.5 * (e_minus - e_plus) / denom
    usable = centered & (np.abs(denom) > CURVATURE_EPS) & np.isfinite(offset)
    return np.clip(np.where(usable, offset, 0.0), -0.5, 0.5)


def track_dense_with_volume(
    prepared: PreparedFrames, ridge: float = 1e-9
) -> tuple[DenseMatchResult, np.ndarray]:
    """Dense tracking that also returns the full hypothesis error volume.

    The volume has shape ``(2N_zs+1, 2N_zs+1, H, W)`` indexed by
    ``[dy + N_zs, dx + N_zs]``; identical winners to
    :func:`repro.core.matching.track_dense` (same evaluation order and
    tie-breaks).
    """
    n = prepared.config.n_zs
    side = 2 * n + 1
    step = HypothesisStep(prepared, ridge)
    volume = np.empty((side, side) + step.shape, dtype=np.float64)
    best = RunningBest(step.shape)
    for hyp_dy, hyp_dx in hypothesis_order(n):
        hyp = step(hyp_dy, hyp_dx)
        volume[hyp_dy + n, hyp_dx + n] = hyp.solution.error
        best.merge(hyp)
    return best.result(prepared.config, side * side), volume


def _gather_volume(volume: np.ndarray, iy: np.ndarray, ix: np.ndarray) -> np.ndarray:
    """volume[iy, ix] per pixel for index arrays over the image grid."""
    side = volume.shape[0]
    h, w = volume.shape[2:]
    flat = volume.reshape(side * side, h, w)
    idx = (iy * side + ix)[None]
    return np.take_along_axis(flat, idx, axis=0)[0]


def refine_continuous(result: DenseMatchResult, volume: np.ndarray, n_zs: int) -> DenseMatchResult:
    """Parabolic sub-pixel refinement from the hypothesis error volume."""
    side = 2 * n_zs + 1
    if volume.shape[:2] != (side, side) or volume.shape[2:] != result.u.shape:
        raise ValueError("volume shape does not match the result/search geometry")
    iy = (result.v + n_zs).astype(np.int64)
    ix = (result.u + n_zs).astype(np.int64)
    if (iy < 0).any() or (iy >= side).any() or (ix < 0).any() or (ix >= side).any():
        raise ValueError("result displacements outside the search window")

    e0 = _gather_volume(volume, iy, ix)
    du = np.zeros_like(result.u)
    interior_x = (ix > 0) & (ix < side - 1)
    if interior_x.any():
        e_m = _gather_volume(volume, iy, np.maximum(ix - 1, 0))
        e_p = _gather_volume(volume, iy, np.minimum(ix + 1, side - 1))
        du = np.where(interior_x, parabolic_offset(e_m, e0, e_p), 0.0)
    dv = np.zeros_like(result.v)
    interior_y = (iy > 0) & (iy < side - 1)
    if interior_y.any():
        e_m = _gather_volume(volume, np.maximum(iy - 1, 0), ix)
        e_p = _gather_volume(volume, np.minimum(iy + 1, side - 1), ix)
        dv = np.where(interior_y, parabolic_offset(e_m, e0, e_p), 0.0)

    return DenseMatchResult(
        u=result.u + du,
        v=result.v + dv,
        params=result.params,
        error=result.error,
        valid=result.valid,
        hypotheses_evaluated=result.hypotheses_evaluated,
    )


def refine_semifluid(prepared: PreparedFrames, result: DenseMatchResult) -> DenseMatchResult:
    """Parabolic refinement from the semi-fluid score volume.

    The reported displacement under the semi-fluid model is the tracked
    pixel's own drift; its natural sub-pixel correction comes from the
    theta scores around the chosen drift.
    """
    volume = prepared.volume
    if volume is None:
        raise ValueError("prepared frames carry no semi-fluid score volume")
    reach = volume.reach
    side = volume.side
    h, w = result.u.shape
    iy = (result.v + reach).astype(np.int64)
    ix = (result.u + reach).astype(np.int64)
    if (iy < 0).any() or (iy >= side).any() or (ix < 0).any() or (ix >= side).any():
        raise ValueError("result displacements outside the score volume reach")
    scores = volume.scores  # (side*side, H, W)

    def grab(jy, jx):
        return np.take_along_axis(scores, (jy * side + jx)[None], axis=0)[0]

    e0 = grab(iy, ix)
    interior_x = (ix > 0) & (ix < side - 1)
    du = np.where(
        interior_x,
        parabolic_offset(grab(iy, np.maximum(ix - 1, 0)), e0, grab(iy, np.minimum(ix + 1, side - 1))),
        0.0,
    )
    interior_y = (iy > 0) & (iy < side - 1)
    dv = np.where(
        interior_y,
        parabolic_offset(grab(np.maximum(iy - 1, 0), ix), e0, grab(np.minimum(iy + 1, side - 1), ix)),
        0.0,
    )
    return DenseMatchResult(
        u=result.u + du,
        v=result.v + dv,
        params=result.params,
        error=result.error,
        valid=result.valid,
        hypotheses_evaluated=result.hypotheses_evaluated,
    )


def refine(prepared: PreparedFrames, result: DenseMatchResult, ridge: float = 1e-9) -> DenseMatchResult:
    """Model-appropriate sub-pixel refinement of a dense result.

    Semi-fluid results refine through the score volume already held by
    ``prepared``; continuous results re-run the search retaining the
    hypothesis error volume (one extra dense pass).
    """
    if prepared.volume is not None and prepared.config.n_ss > 0:
        return refine_semifluid(prepared, result)
    base, volume = track_dense_with_volume(prepared, ridge=ridge)
    return refine_continuous(base, volume, prepared.config.n_zs)
