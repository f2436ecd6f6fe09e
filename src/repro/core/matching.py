"""Hypothesis search and dense motion-correspondence estimation (Section 2.2).

For every tracked pixel the SMA algorithm evaluates every hypothesis in
the ``(2N_zs+1)^2`` z-search neighborhood: Step 1 selects the template
mapping (continuous ``F_cont`` or semi-fluid ``F_semi``), Step 2 solves
the 6x6 system for the motion parameters and evaluates the template
error eq. (3); the estimated correspondence is the error-minimizing
hypothesis (eq. 7).

Two implementations are provided, mirroring the paper's own methodology
("a sequential (un-optimized) version ... was used to form a baseline
for comparing the correctness of the parallel algorithm results"):

* :func:`track_pixel` -- the direct, per-pixel reference: explicit
  template sample lists, one hypothesis at a time.

* :func:`track_dense` -- the optimized dense path: because the template
  accumulation of eq. (3) is a box sum, the normal-equation fields for
  *all* pixels are accumulated with uniform filters, and all pixels'
  6x6 systems are solved by batched Gaussian elimination.  The
  semi-fluid mapping uses the Section 4.1 precompute
  (:func:`repro.core.semifluid.compute_score_volume`).

:func:`track_dense` offers two engines producing **bit-identical**
results (tested):

* ``engine="batched"`` (default) -- the hypothesis axis is stacked too:
  the per-hypothesis normal-equation fields of a whole chunk of the
  ``(2N_zs+1)^2`` search window are built with one broadcast
  :func:`~repro.core.continuous.pointwise_fields` call, box-summed with
  one separable uniform filter sweep over the stack (internally a
  shared cumulative sliding sum per axis) and solved with ONE batched
  :func:`~repro.core.linalg.gaussian_eliminate` call -- the whole-search
  SIMD rendering, minus per-hypothesis Python dispatch.
* ``engine="serial"`` -- one hypothesis at a time, kept as the
  validation baseline and the pre-optimization benchmark reference.

Both paths produce identical integer displacements and identical motion
parameters (tested), and tie-breaks are deterministic: among equal
error minima the smaller displacement wins (Chebyshev magnitude, then
raster order).

On top of the engines, ``search`` selects the *hypothesis schedule*:

* ``search="exhaustive"`` (default) -- every pixel evaluates every
  hypothesis, as above.
* ``search="pruned"`` -- exact certificate-grid pruning, bit-identical
  to exhaustive.  Because the template error of eq. (3) is a sum of
  non-negative per-sample terms, the minimized error over any
  *sub-window* of the template is a lower bound on the minimized error
  over the full template (the bound survives the ridge term -- the
  computed value is exactly ``min_theta E(theta) + ridge |theta|^2``,
  which is monotone under adding non-negative sample terms -- and the
  ``max(.., 0)`` clamp).  The engine solves these cheap certificate
  systems on a sparse grid (one per ``stride x stride`` block of
  pixels, window half-width ``n_zt - 1`` so every pixel's nearest
  certificate window nests inside its own template) and skips the full
  6x6 solve wherever the certificate bound already exceeds the pixel's
  current best error by more than a small fp-safety slack.  Singular
  certificate systems fall back to a bound of zero (never prune), so
  soundness never depends on the rank of a certificate patch.
* ``search="pyramid"`` -- opt-in coarse-to-fine guidance (continuous
  model only): the raw surfaces are decimated through
  :mod:`repro.stereo.pyramid`, tracked exhaustively at the coarse
  level, and the upsampled coarse displacement restricts each pixel's
  fine-level z-search to a ``(2*refine+1)^2`` window around its coarse
  hypothesis.  Approximate by design; endpoint error vs. exhaustive is
  bounded by tests on the synthetic vortex dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels import resolve_backend
from ..kernels.reference import box_sum_stack as _kernel_box_sum_stack
from ..kernels.reference import strided_window_sums
from ..obs.metrics import METRICS
from ..obs.tracing import TRACER
from ..options import TrackOptions
from ..params import NeighborhoodConfig
from .continuous import (
    N_FIELDS,
    estimate_from_samples,
    pointwise_fields,
    solve_accumulated,
)
from .prep import FramePreparationCache, prepare_frame
from .semifluid import (
    ScoreVolume,
    box_sum,
    compute_score_volume,
    semifluid_displacements,
    semifluid_map_pixel,
    shift2d,
)
from .surface import SurfaceGeometry

#: Soft cap on the stacked per-hypothesis field bytes held live by the
#: batched engine; chunks the ``(2N_zs+1)^2`` search when exceeded.
#: Small on purpose: the per-hypothesis working set (28 packed fields,
#: their box sums, the unpacked 6x6 systems) must stay cache-resident --
#: profiling shows monolithic stacks run several times SLOWER than
#: one-or-two-hypothesis chunks because every stage becomes a strided
#: sweep over main memory.
DEFAULT_BATCH_BYTES = 2**20

#: Certificate-grid spacing of the pruned engine.  With certificate
#: half-width ``m = n_zt - 1`` a stride of 3 keeps every pixel within
#: Chebyshev distance ``n_zt - m = 1`` of a grid center, so the
#: displaced certificate window still nests inside the pixel's own
#: template and the bound stays exact.
CERT_STRIDE = 3

#: FP-safety slack for the prune test: a hypothesis is skipped only when
#: its certificate bound exceeds the current best by more than
#: ``rel * |c_cert| + abs``.  The sub-window solve and the full solve
#: share no intermediate rounding, so the analytic bound must be given
#: a few ulps of room before it may veto a solve that could win or tie.
CERT_SLACK_REL = 3e-6
CERT_SLACK_ABS = 1e-12

#: Ledger phase name for GE charges of :func:`track_dense` (matches
#: :data:`repro.parallel.parallel_sma.PHASE_MATCHING`).
PHASE_MATCHING = "Hypothesis matching"


@dataclass(frozen=True)
class DenseMatchResult:
    """Dense per-pixel correspondence estimates.

    * ``u``, ``v`` -- x- and y-displacement (pixels, t_m -> t_{m+1}),
    * ``params`` -- winning motion parameters, shape (H, W, 6),
    * ``error`` -- winning template error, shape (H, W),
    * ``valid`` -- interior mask (False in the border margin where
      windows would leave the image),
    * ``hypotheses_evaluated`` -- hypotheses the schedule touched (the
      full ``(2N_zs+1)^2`` count for exhaustive/pruned; the fine-level
      offsets visited for pyramid),
    * ``ge_solves`` -- 6x6 Gaussian eliminations actually performed
      (certificate + survivor solves for the pruned schedule),
    * ``hypotheses_pruned`` -- pixel-hypothesis pairs whose full solve
      the pruned schedule skipped.
    """

    u: np.ndarray
    v: np.ndarray
    params: np.ndarray
    error: np.ndarray
    valid: np.ndarray
    hypotheses_evaluated: int
    ge_solves: int = 0
    hypotheses_pruned: int = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.u.shape

    def displacement_magnitude(self) -> np.ndarray:
        """Euclidean displacement magnitude per pixel."""
        return np.hypot(self.u, self.v)


def hypothesis_order(n_zs: int) -> list[tuple[int, int]]:
    """Hypothesis displacements sorted by (Chebyshev magnitude, raster).

    Evaluating hypotheses in this order with a strict-less update makes
    tie-breaking favor the smallest motion, deterministically, in both
    the dense and reference paths.
    """
    offsets = [
        (dy, dx)
        for dy in range(-n_zs, n_zs + 1)
        for dx in range(-n_zs, n_zs + 1)
    ]
    return sorted(offsets, key=lambda o: (max(abs(o[0]), abs(o[1])), o[0], o[1]))


def valid_mask(shape: tuple[int, int], config: NeighborhoodConfig) -> np.ndarray:
    """Interior mask: True where every window stays inside the image."""
    margin = config.margin()
    mask = np.zeros(shape, dtype=bool)
    if shape[0] > 2 * margin and shape[1] > 2 * margin:
        mask[margin : shape[0] - margin, margin : shape[1] - margin] = True
    return mask


@dataclass(frozen=True)
class PreparedFrames:
    """Everything the matcher needs, computed once per frame pair.

    ``geo_before``/``geo_after`` come from the *surface* (z) images;
    ``volume`` is the semi-fluid score volume from the *intensity*
    discriminants (None for the continuous model).  ``z_before``/
    ``z_after`` keep the raw surfaces so the pyramid search can build
    its coarse levels; they are None for hand-built instances.
    """

    geo_before: SurfaceGeometry
    geo_after: SurfaceGeometry
    volume: ScoreVolume | None
    config: NeighborhoodConfig
    z_before: np.ndarray | None = None
    z_after: np.ndarray | None = None


def prepare_frames(
    z_before: np.ndarray,
    z_after: np.ndarray,
    config: NeighborhoodConfig,
    intensity_before: np.ndarray | None = None,
    intensity_after: np.ndarray | None = None,
    cache: FramePreparationCache | None = None,
) -> PreparedFrames:
    """Fit surfaces and (for the semi-fluid model) precompute scores.

    In the monocular case the intensity image *is* the digital surface
    (Section 2: "treating the intensity data as a digital surface") --
    pass it as ``z_before``/``z_after`` and omit the intensity pair.

    ``cache`` optionally reuses the per-frame half of the work (surface
    fit + discriminant field) across pairs of a sequence: frame ``m``
    is both the ``after`` frame of pair ``m-1`` and the ``before``
    frame of pair ``m``, so a sequence driver that passes the same
    cache fits each frame exactly once.  Cached and uncached results
    are bit-identical.  The semi-fluid score volume couples both
    frames of the pair and is always computed here, per pair.
    """
    z_before = np.asarray(z_before, dtype=np.float64)
    z_after = np.asarray(z_after, dtype=np.float64)
    for label, z in (("before", z_before), ("after", z_after)):
        if z.ndim != 2 or z.size == 0:
            raise ValueError(f"{label} frame must be a non-empty 2-D image, got shape {z.shape}")
        if not np.isfinite(z).all():
            raise ValueError(
                f"{label} frame contains non-finite values (NaN or Inf); garbage "
                "pixels would silently poison the windowed 6x6 normal equations"
            )
    if z_before.shape != z_after.shape:
        raise ValueError(f"frame shapes differ: {z_before.shape} vs {z_after.shape}")
    i_b = i_a = None
    if config.is_semifluid:
        i_b = z_before if intensity_before is None else np.asarray(intensity_before, float)
        i_a = z_after if intensity_after is None else np.asarray(intensity_after, float)
        if i_b.shape != z_before.shape or i_a.shape != z_after.shape:
            raise ValueError("intensity shapes must match surface shapes")
        if not (np.isfinite(i_b).all() and np.isfinite(i_a).all()):
            raise ValueError("intensity contains non-finite values (NaN or Inf)")
    lookup = cache.get if cache is not None else prepare_frame
    # Pass None when the intensity IS the surface (monocular) so the
    # content fingerprint hashes each frame's pixels exactly once.
    with TRACER.span("prepare_frames", semifluid=config.is_semifluid, cached=cache is not None):
        prep_b = lookup(z_before, None if intensity_before is None else i_b, config)
        prep_a = lookup(z_after, None if intensity_after is None else i_a, config)
        volume = None
        if config.is_semifluid:
            with TRACER.span("score_volume"):
                volume = compute_score_volume(
                    prep_b.discriminant, prep_a.discriminant, config
                )
    return PreparedFrames(
        geo_before=prep_b.geometry,
        geo_after=prep_a.geometry,
        volume=volume,
        config=config,
        z_before=z_before,
        z_after=z_after,
    )


def _shifted_geometry_stack(geo: SurfaceGeometry, volume: ScoreVolume) -> np.ndarray:
    """After-motion gradients shifted by every enlarged-window displacement.

    Returns ``(n_displacements, 2, H, W)`` with ``p'`` and ``q'``
    pre-shifted so semi-fluid gathers are a ``take_along_axis``.
    """
    n = volume.displacements.shape[0]
    out = np.empty((n, 2) + geo.shape, dtype=np.float64)
    for k, (dy, dx) in enumerate(volume.displacements):
        out[k, 0] = shift2d(geo.p, int(dy), int(dx))
        out[k, 1] = shift2d(geo.q, int(dy), int(dx))
    return out


def _hypothesis_pointwise(
    prepared: PreparedFrames,
    hyp_dy: int,
    hyp_dx: int,
    shifted_after: np.ndarray | None = None,
    deltas: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Per-sample (un-accumulated) normal-equation fields for one hypothesis.

    The ``(H, W, 28)`` pointwise contributions of
    :func:`repro.core.continuous.pointwise_fields`, with the semi-fluid
    ``F_semi`` gather applied when active.  Both the template box sum
    and the pruned engine's certificate sub-window sums accumulate
    these same fields, which is what makes the certificate bound exact.
    """
    geo_b, geo_a = prepared.geo_before, prepared.geo_after
    config = prepared.config
    if prepared.volume is not None and config.n_ss > 0:
        if deltas is None:
            deltas = semifluid_displacements(prepared.volume, hyp_dy, hyp_dx, config.n_ss)
        delta_y, delta_x = deltas
        if shifted_after is None:
            shifted_after = _shifted_geometry_stack(geo_a, prepared.volume)
        reach = prepared.volume.reach
        side = prepared.volume.side
        flat = (delta_y + reach) * side + (delta_x + reach)
        p_a = np.take_along_axis(shifted_after[:, 0], flat[None], axis=0)[0]
        q_a = np.take_along_axis(shifted_after[:, 1], flat[None], axis=0)[0]
    else:
        p_a = shift2d(geo_a.p, hyp_dy, hyp_dx)
        q_a = shift2d(geo_a.q, hyp_dy, hyp_dx)
    return pointwise_fields(geo_b.p, geo_b.q, p_a, q_a, geo_b.e, geo_b.g)


def hypothesis_fields(
    prepared: PreparedFrames,
    hyp_dy: int,
    hyp_dx: int,
    shifted_after: np.ndarray | None = None,
    deltas: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Template-accumulated normal-equation fields for one hypothesis.

    Returns packed fields of shape ``(H, W, 28)``: the per-pixel
    contributions of :func:`repro.core.continuous.pointwise_fields`
    box-summed over the z-template window.  For the semi-fluid model the
    after-motion gradients are gathered through ``F_semi`` first;
    ``deltas`` may carry the precomputed per-pixel semi-fluid
    displacements ``(delta_y, delta_x)`` for this hypothesis.
    """
    fields = _hypothesis_pointwise(prepared, hyp_dy, hyp_dx, shifted_after, deltas)
    config = prepared.config
    accumulated = np.empty_like(fields)
    for k in range(N_FIELDS):
        accumulated[..., k] = box_sum(fields[..., k], config.n_zt)
    return accumulated


def track_dense(
    prepared: PreparedFrames,
    ridge: float = 1e-9,
    engine: str = "batched",
    batch_bytes: int = DEFAULT_BATCH_BYTES,
    search: str = "exhaustive",
    ledger=None,
    pyramid_levels: int = 1,
    pyramid_refine: int = 1,
    backend: str = "auto",
) -> DenseMatchResult:
    """Estimate the dense motion field: all pixels, all hypotheses.

    This is the "track all pixels ... in parallel" computation of the
    paper, executed as NumPy whole-array operations (the sequential
    *optimized* rendering; :class:`repro.parallel.parallel_sma.ParallelSMA`
    runs the same math through the SIMD simulator).

    ``engine`` selects ``"batched"`` (default: hypotheses stacked and
    solved together, see the module docstring) or ``"serial"`` (one
    hypothesis per iteration, the validation baseline).  The two are
    bit-identical in ``u``, ``v``, ``params`` and ``error``.
    ``batch_bytes`` caps the live hypothesis-stack memory of the
    batched engine; the search window is chunked when it would exceed
    the cap, which changes speed, never results.

    ``search`` selects the hypothesis schedule (module docstring):
    ``"exhaustive"``, ``"pruned"`` (bit-identical, fewer GE solves) or
    ``"pyramid"`` (approximate coarse-to-fine, continuous model only,
    with ``pyramid_levels`` decimations and a ``pyramid_refine``
    half-width fine window).  ``ledger`` optionally receives the GE
    solves actually performed, charged under ``"Hypothesis matching"``
    -- the observable proof of the pruned schedule's saving.

    ``backend`` selects the kernel execution path: ``"auto"``
    (historical native-when-available dispatch), ``"numpy"`` (pin the
    reference) or ``"native"`` (require the C kernel) -- all three
    bit-identical.  Both names are validated by
    :class:`repro.options.TrackOptions`.
    """
    options = TrackOptions(search, backend)
    if engine not in ("batched", "serial"):
        raise ValueError(f"unknown engine {engine!r} (choose 'batched' or 'serial')")
    resolved = resolve_backend(options.backend)
    with TRACER.span(
        "hypothesis_search", engine=engine, search=options.search,
        backend=resolved.resolved,
    ):
        if options.search == "pruned":
            result = _track_dense_pruned(prepared, ridge, resolved.prefer_native)
        elif options.search == "pyramid":
            result = _track_dense_pyramid(
                prepared, ridge, batch_bytes, pyramid_levels, pyramid_refine,
                resolved.prefer_native,
            )
        elif engine == "serial":
            result = _track_dense_serial(prepared, ridge, resolved.prefer_native)
        else:
            result = _track_dense_batched(prepared, ridge, batch_bytes, resolved.prefer_native)
    if ledger is not None:
        with ledger.phase(PHASE_MATCHING):
            ledger.charge_gaussian_elimination(result.ge_solves, order=6)
    return result


def _track_dense_serial(
    prepared: PreparedFrames, ridge: float, prefer_native: bool = True
) -> DenseMatchResult:
    """One hypothesis at a time (the pre-batching reference loop)."""
    config = prepared.config
    shape = prepared.geo_before.shape
    semifluid = prepared.volume is not None and config.n_ss > 0
    shifted_after = None
    if semifluid:
        shifted_after = _shifted_geometry_stack(prepared.geo_after, prepared.volume)

    best_error = np.full(shape, np.inf)
    best_u = np.zeros(shape, dtype=np.float64)
    best_v = np.zeros(shape, dtype=np.float64)
    best_params = np.zeros(shape + (6,), dtype=np.float64)

    order = hypothesis_order(config.n_zs)
    for hyp_dy, hyp_dx in order:
        deltas = None
        if semifluid:
            deltas = semifluid_displacements(prepared.volume, hyp_dy, hyp_dx, config.n_ss)
        fields = hypothesis_fields(prepared, hyp_dy, hyp_dx, shifted_after, deltas)
        solution = solve_accumulated(fields, ridge=ridge, prefer_native=prefer_native)
        better = solution.error < best_error
        best_error = np.where(better, solution.error, best_error)
        if semifluid:
            # The non-rigid correspondence of the *tracked* pixel is its
            # own semi-fluid mapping under this hypothesis (eq. 8): the
            # hypothesis displacement refined by the pixel's F_semi
            # drift, which restores sub-window accuracy that the relaxed
            # template mapping would otherwise absorb.
            best_u = np.where(better, deltas[1].astype(np.float64), best_u)
            best_v = np.where(better, deltas[0].astype(np.float64), best_v)
        else:
            best_u = np.where(better, float(hyp_dx), best_u)
            best_v = np.where(better, float(hyp_dy), best_v)
        best_params = np.where(better[..., None], solution.params, best_params)

    return DenseMatchResult(
        u=best_u,
        v=best_v,
        params=best_params,
        error=best_error,
        valid=valid_mask(shape, config),
        hypotheses_evaluated=len(order),
        ge_solves=shape[0] * shape[1] * len(order),
    )


def _box_sum_stack(fields: np.ndarray, half_width: int) -> np.ndarray:
    """Box sum over the image axes of a ``(n, H, W, 28)`` stack.

    Delegates to the consolidated kernels-module implementation
    (arithmetic per (n, k) slice identical to
    :func:`repro.core.semifluid.box_sum` on that slice, hence
    bit-identical to the serial engine).
    """
    return _kernel_box_sum_stack(fields, half_width)


def _track_dense_batched(
    prepared: PreparedFrames, ridge: float, batch_bytes: int,
    prefer_native: bool = True,
) -> DenseMatchResult:
    """All hypotheses stacked: one field build, one box-sum sweep, one
    batched Gaussian elimination per chunk of the search window."""
    config = prepared.config
    geo_b, geo_a = prepared.geo_before, prepared.geo_after
    shape = geo_b.shape
    semifluid = prepared.volume is not None and config.n_ss > 0
    shifted_after = None
    if semifluid:
        shifted_after = _shifted_geometry_stack(geo_a, prepared.volume)

    best_error = np.full(shape, np.inf)
    best_u = np.zeros(shape, dtype=np.float64)
    best_v = np.zeros(shape, dtype=np.float64)
    best_params = np.zeros(shape + (6,), dtype=np.float64)

    order = hypothesis_order(config.n_zs)
    bytes_per_hypothesis = shape[0] * shape[1] * N_FIELDS * 8
    chunk_size = max(1, int(batch_bytes) // max(bytes_per_hypothesis, 1))
    METRICS.inc("hypotheses.evaluated", len(order))

    for start in range(0, len(order), chunk_size):
        chunk = order[start : start + chunk_size]
        n = len(chunk)
        METRICS.inc("batched_engine.chunks")
        chunk_span = TRACER.span("hypothesis_chunk", start=start, size=n)
        chunk_span.__enter__()
        try:
            p_a, q_a, delta_y, delta_x = _chunk_after_gradients(
                prepared, chunk, shifted_after
            )
            fields = pointwise_fields(
                geo_b.p[None], geo_b.q[None], p_a, q_a, geo_b.e[None], geo_b.g[None]
            )
            accumulated = _box_sum_stack(fields, config.n_zt)
            del fields
            solution = solve_accumulated(
                accumulated, ridge=ridge, prefer_native=prefer_native
            )
            del accumulated

            # Merge in hypothesis order with a strict-less update: identical
            # tie-breaking (Chebyshev magnitude, then raster) to the serial
            # engine, regardless of chunking.
            for k, (hyp_dy, hyp_dx) in enumerate(chunk):
                better = solution.error[k] < best_error
                best_error = np.where(better, solution.error[k], best_error)
                if semifluid:
                    best_u = np.where(better, delta_x[k].astype(np.float64), best_u)
                    best_v = np.where(better, delta_y[k].astype(np.float64), best_v)
                else:
                    best_u = np.where(better, float(hyp_dx), best_u)
                    best_v = np.where(better, float(hyp_dy), best_v)
                best_params = np.where(better[..., None], solution.params[k], best_params)
        finally:
            chunk_span.__exit__(None, None, None)

    return DenseMatchResult(
        u=best_u,
        v=best_v,
        params=best_params,
        error=best_error,
        valid=valid_mask(shape, config),
        hypotheses_evaluated=len(order),
        ge_solves=shape[0] * shape[1] * len(order),
    )


class _CertificateGrid:
    """Sub-template certificate geometry for the pruned schedule.

    One certificate window of half-width ``m = n_zt - 1`` per
    ``CERT_STRIDE x CERT_STRIDE`` block, with all windows fully inside
    the image.  Every pixel maps to its nearest grid center (Chebyshev
    distance <= ``n_zt - m``), so the certificate window is a subset of
    that pixel's own template window and its minimized error is a
    sound lower bound; pixels beyond the last grid row/column get a
    bound of zero (never pruned).
    """

    def __init__(self, shape: tuple[int, int], n_zt: int, m: int) -> None:
        h, w = shape
        self.m = m
        self.gy = np.arange(m, h - m, CERT_STRIDE)
        self.gx = np.arange(m, w - m, CERT_STRIDE)
        iy = np.clip(
            np.round((np.arange(h) - m) / CERT_STRIDE).astype(np.intp),
            0, self.gy.size - 1,
        )
        ix = np.clip(
            np.round((np.arange(w) - m) / CERT_STRIDE).astype(np.intp),
            0, self.gx.size - 1,
        )
        self.pixel_to_grid = np.ix_(iy, ix)
        tol = n_zt - m
        cy = m + CERT_STRIDE * iy
        cx = m + CERT_STRIDE * ix
        self.in_range = (
            (np.abs(np.arange(h) - cy) <= tol)[:, None]
            & (np.abs(np.arange(w) - cx) <= tol)[None, :]
        )

    @classmethod
    def build(cls, shape: tuple[int, int], n_zt: int) -> "_CertificateGrid | None":
        """A usable grid, or None when certificates cannot discriminate.

        ``m = n_zt - 1`` needs at least two template rows to leave a
        certificate window that overdetermines the six parameters; a
        ``m < 2`` window (<= 18 residuals) prunes next to nothing, so
        tiny templates simply fall back to the exhaustive engine.
        """
        m = n_zt - 1
        if m < 2:
            return None
        grid = cls(shape, n_zt, m)
        if grid.gy.size == 0 or grid.gx.size == 0:
            return None
        return grid

    @property
    def systems(self) -> int:
        """Certificate solves per hypothesis (one per grid point)."""
        return self.gy.size * self.gx.size

    def _window_sums(self, arr: np.ndarray, axis: int, grid_size: int) -> np.ndarray:
        """Sum ``arr`` over every certificate window along ``axis``.

        Delegates to the consolidated kernels-module implementation; the
        bin-grouped summation order only perturbs the *bound* within the
        certificate slack -- the field itself never flows through this
        path.
        """
        return strided_window_sums(arr, axis, grid_size, CERT_STRIDE, self.m)

    def lower_bounds(self, pw: np.ndarray, ridge: float, prefer_native: bool = True):
        """Per-pixel error lower bound + fp slack for one hypothesis.

        ``pw`` is the ``(H, W, 28)`` pointwise field of the hypothesis.
        Returns ``(lb, slack)`` with shapes ``(H, W)``.
        """
        tmp = self._window_sums(pw, 1, self.gx.size)
        acc = self._window_sums(tmp, 0, self.gy.size)
        solution = solve_accumulated(acc, ridge=ridge, prefer_native=prefer_native)
        # A singular certificate system reports E(0) = c, which is NOT a
        # lower bound on the minimum; bound zero keeps the pixel honest.
        lb_grid = np.where(solution.singular, 0.0, solution.error)
        lb = np.where(self.in_range, lb_grid[self.pixel_to_grid], 0.0)
        slack = (
            CERT_SLACK_REL * np.abs(acc[..., N_FIELDS - 1][self.pixel_to_grid])
            + CERT_SLACK_ABS
        )
        return lb, slack


def _track_dense_pruned(
    prepared: PreparedFrames, ridge: float, prefer_native: bool = True
) -> DenseMatchResult:
    """Certificate-grid pruning: bit-identical to exhaustive, fewer solves.

    Soundness of the skip: a hypothesis is pruned for a pixel only when
    ``lb - slack > best_error`` strictly, where ``lb`` underestimates
    the hypothesis' true (ridge-regularized, clamped) template error.
    A pruned hypothesis therefore could neither have won the strict
    ``error < best`` update nor produced an exact tie, so the merged
    ``u``, ``v``, ``params`` and ``error`` match the exhaustive
    schedule byte for byte.  The first hypothesis never prunes
    (``best = inf``), so every pixel always receives a finite best.
    """
    config = prepared.config
    geo_b = prepared.geo_before
    shape = geo_b.shape
    semifluid = prepared.volume is not None and config.n_ss > 0
    shifted_after = None
    if semifluid:
        shifted_after = _shifted_geometry_stack(prepared.geo_after, prepared.volume)

    grid = _CertificateGrid.build(shape, config.n_zt)
    if grid is None:
        # Template too small for useful certificates: exhaustive IS the
        # pruned result (the contract is bit-identity either way).
        return _track_dense_batched(prepared, ridge, DEFAULT_BATCH_BYTES, prefer_native)

    best_error = np.full(shape, np.inf)
    best_u = np.zeros(shape, dtype=np.float64)
    best_v = np.zeros(shape, dtype=np.float64)
    best_params = np.zeros(shape + (6,), dtype=np.float64)
    flat_error = best_error.ravel()
    flat_u = best_u.ravel()
    flat_v = best_v.ravel()
    flat_params = best_params.reshape(-1, 6)

    order = hypothesis_order(config.n_zs)
    pixels = shape[0] * shape[1]
    cert_solves = 0
    survivor_solves = 0
    pruned = 0
    have_best = False
    METRICS.inc("hypotheses.evaluated", len(order))

    for hyp_dy, hyp_dx in order:
        deltas = None
        if semifluid:
            deltas = semifluid_displacements(prepared.volume, hyp_dy, hyp_dx, config.n_ss)
        pw = _hypothesis_pointwise(prepared, hyp_dy, hyp_dx, shifted_after, deltas)
        if have_best:
            lb, slack = grid.lower_bounds(pw, ridge, prefer_native)
            cert_solves += grid.systems
            survivors = np.flatnonzero(~((lb - slack) > best_error).ravel())
            pruned += pixels - survivors.size
        else:
            # Nothing can prune against best = inf, so the first
            # hypothesis skips the certificate pass entirely.
            survivors = np.arange(pixels)
        if survivors.size == 0:
            continue
        # Full-image box sum on purpose: scipy's separable uniform
        # filter is a running sum whose rounding depends on the distance
        # from the array origin, so cropping to the survivor bounding
        # box would change bits relative to the exhaustive engine.
        accumulated = _box_sum_stack(pw[None], config.n_zt)[0]
        solution = solve_accumulated(
            accumulated.reshape(-1, N_FIELDS)[survivors], ridge=ridge,
            prefer_native=prefer_native,
        )
        survivor_solves += survivors.size
        have_best = True
        better = solution.error < flat_error[survivors]
        winners = survivors[better]
        if winners.size:
            flat_error[winners] = solution.error[better]
            flat_params[winners] = solution.params[better]
            if semifluid:
                flat_u[winners] = deltas[1].ravel()[winners].astype(np.float64)
                flat_v[winners] = deltas[0].ravel()[winners].astype(np.float64)
            else:
                flat_u[winners] = float(hyp_dx)
                flat_v[winners] = float(hyp_dy)

    METRICS.inc("search.hypotheses.pruned", pruned)
    METRICS.inc("search.ge_solves.performed", cert_solves + survivor_solves)
    METRICS.inc("search.ge_solves.saved", pixels * len(order) - survivor_solves)
    METRICS.inc("search.certificate_solves", cert_solves)
    return DenseMatchResult(
        u=best_u,
        v=best_v,
        params=best_params,
        error=best_error,
        valid=valid_mask(shape, config),
        hypotheses_evaluated=len(order),
        ge_solves=cert_solves + survivor_solves,
        hypotheses_pruned=pruned,
    )


def _chunk_after_gradients(
    prepared: PreparedFrames,
    chunk: list[tuple[int, int]],
    shifted_after: np.ndarray | None,
):
    """Host-side gather of after-motion gradients for a hypothesis chunk.

    Returns ``(p_a, q_a, delta_y, delta_x)`` with the gradient stacks of
    shape ``(n, H, W)``; the deltas are the per-pixel semi-fluid
    correspondences (None for the continuous model).
    """
    config = prepared.config
    shape = prepared.geo_before.shape
    geo_a = prepared.geo_after
    semifluid = prepared.volume is not None and config.n_ss > 0
    n = len(chunk)
    p_a = np.empty((n,) + shape, dtype=np.float64)
    q_a = np.empty((n,) + shape, dtype=np.float64)
    delta_y = delta_x = None
    if semifluid:
        delta_y = np.empty((n,) + shape, dtype=np.int64)
        delta_x = np.empty((n,) + shape, dtype=np.int64)
        reach = prepared.volume.reach
        side = prepared.volume.side
        for k, (hyp_dy, hyp_dx) in enumerate(chunk):
            dy_k, dx_k = semifluid_displacements(
                prepared.volume, hyp_dy, hyp_dx, config.n_ss
            )
            delta_y[k], delta_x[k] = dy_k, dx_k
            flat = (dy_k + reach) * side + (dx_k + reach)
            p_a[k] = np.take_along_axis(shifted_after[:, 0], flat[None], axis=0)[0]
            q_a[k] = np.take_along_axis(shifted_after[:, 1], flat[None], axis=0)[0]
    else:
        for k, (hyp_dy, hyp_dx) in enumerate(chunk):
            p_a[k] = shift2d(geo_a.p, hyp_dy, hyp_dx)
            q_a[k] = shift2d(geo_a.q, hyp_dy, hyp_dx)
    return p_a, q_a, delta_y, delta_x


def _track_dense_pyramid(
    prepared: PreparedFrames,
    ridge: float,
    batch_bytes: int,
    levels: int,
    refine: int,
    prefer_native: bool = True,
) -> DenseMatchResult:
    """Coarse-to-fine guided search (approximate, continuous model only)."""
    from ..stereo.pyramid import downsample, upsample_flow

    config = prepared.config
    if prepared.volume is not None and config.n_ss > 0:
        raise ValueError(
            "search='pyramid' supports the continuous model only: the "
            "semi-fluid score volume is resolution-specific and cannot "
            "be decimated (use search='pruned' for an exact speedup)"
        )
    if prepared.z_before is None or prepared.z_after is None:
        raise ValueError(
            "search='pyramid' needs PreparedFrames built by prepare_frames "
            "(the raw surfaces are required to build the coarse levels)"
        )
    if levels < 1:
        raise ValueError("pyramid_levels must be >= 1")
    if refine < 0:
        raise ValueError("pyramid_refine must be >= 0")
    shape = prepared.geo_before.shape

    # Decimate while the coarse level can still track anything: each
    # level halves the surfaces and (conservatively) the search radius.
    z_b, z_a = prepared.z_before, prepared.z_after
    coarse_zs = config.n_zs
    used_levels = 0
    for _ in range(levels):
        if min(z_b.shape) < 4:
            break
        next_zs = max(1, -(-coarse_zs // 2))
        next_b = downsample(z_b)
        if min(next_b.shape) <= 2 * config.replace(n_zs=next_zs).margin() + 1:
            break
        z_b, z_a = next_b, downsample(z_a)
        coarse_zs = next_zs
        used_levels += 1
    if used_levels == 0:
        # Image too small for any coarse level: the guided search IS the
        # exhaustive search.
        return _track_dense_batched(prepared, ridge, batch_bytes, prefer_native)

    coarse_config = config.replace(n_zs=coarse_zs)
    with TRACER.span(
        "pyramid_level",
        level=used_levels,
        height=z_b.shape[0],
        width=z_b.shape[1],
        n_zs=coarse_zs,
    ):
        coarse_prep = prepare_frames(z_b, z_a, coarse_config)
        coarse = _track_dense_batched(coarse_prep, ridge, batch_bytes, prefer_native)
    u_up, v_up = upsample_flow(coarse.u, coarse.v, shape)
    center_x = np.clip(np.rint(u_up), -config.n_zs, config.n_zs).astype(np.int64)
    center_y = np.clip(np.rint(v_up), -config.n_zs, config.n_zs).astype(np.int64)

    best_error = np.full(shape, np.inf)
    best_u = np.zeros(shape, dtype=np.float64)
    best_v = np.zeros(shape, dtype=np.float64)
    best_params = np.zeros(shape + (6,), dtype=np.float64)
    flat_error = best_error.ravel()
    flat_u = best_u.ravel()
    flat_v = best_v.ravel()
    flat_params = best_params.reshape(-1, 6)

    offsets_visited = 0
    fine_solves = 0
    fine_span = TRACER.span(
        "pyramid_level", level=0, height=shape[0], width=shape[1], refine=refine
    )
    fine_span.__enter__()
    try:
        for hyp_dy, hyp_dx in hypothesis_order(config.n_zs):
            mask = (np.abs(hyp_dy - center_y) <= refine) & (
                np.abs(hyp_dx - center_x) <= refine
            )
            if not mask.any():
                continue
            offsets_visited += 1
            pw = _hypothesis_pointwise(prepared, hyp_dy, hyp_dx)
            accumulated = _box_sum_stack(pw[None], config.n_zt)[0]
            wanted = np.flatnonzero(mask.ravel())
            solution = solve_accumulated(
                accumulated.reshape(-1, N_FIELDS)[wanted], ridge=ridge,
                prefer_native=prefer_native,
            )
            fine_solves += wanted.size
            better = solution.error < flat_error[wanted]
            winners = wanted[better]
            if winners.size:
                flat_error[winners] = solution.error[better]
                flat_params[winners] = solution.params[better]
                flat_u[winners] = float(hyp_dx)
                flat_v[winners] = float(hyp_dy)
    finally:
        fine_span.__exit__(None, None, None)

    METRICS.inc("pyramid.levels", used_levels)
    METRICS.inc("pyramid.fine_offsets.visited", offsets_visited)
    METRICS.inc("pyramid.fine_solves", fine_solves)
    return DenseMatchResult(
        u=best_u,
        v=best_v,
        params=best_params,
        error=best_error,
        valid=valid_mask(shape, config),
        hypotheses_evaluated=offsets_visited,
        ge_solves=coarse.ge_solves + fine_solves,
    )


def track_pixel(
    prepared: PreparedFrames,
    x: int,
    y: int,
    d_before: np.ndarray | None = None,
    d_after: np.ndarray | None = None,
    ridge: float = 1e-9,
) -> tuple[float, float, np.ndarray, float]:
    """Reference per-pixel tracker (the paper's sequential baseline).

    Returns ``(u, v, params, error)`` for pixel ``(x, y)``.  For the
    semi-fluid model pass the intensity discriminant fields so the
    per-pixel :func:`semifluid_map_pixel` can run without the dense
    precompute.  Wraps toroidally like the dense path; meaningful only
    for interior pixels.
    """
    config = prepared.config
    geo_b, geo_a = prepared.geo_before, prepared.geo_after
    h, w = geo_b.shape
    n_zt = config.n_zt
    dyy, dxx = np.meshgrid(
        np.arange(-n_zt, n_zt + 1), np.arange(-n_zt, n_zt + 1), indexing="ij"
    )
    ty = (y + dyy) % h
    tx = (x + dxx) % w

    p_b = geo_b.p[ty, tx].ravel()
    q_b = geo_b.q[ty, tx].ravel()
    e_b = geo_b.e[ty, tx].ravel()
    g_b = geo_b.g[ty, tx].ravel()

    semifluid = config.is_semifluid
    if semifluid and (d_before is None or d_after is None):
        raise ValueError("semi-fluid reference tracking needs discriminant fields")

    best = None
    for hyp_dy, hyp_dx in hypothesis_order(config.n_zs):
        center_delta = (hyp_dy, hyp_dx)
        if semifluid:
            p_a = np.empty_like(p_b)
            q_a = np.empty_like(q_b)
            flat_ty = ty.ravel()
            flat_tx = tx.ravel()
            for idx in range(flat_ty.size):
                dy_star, dx_star = semifluid_map_pixel(
                    d_before,
                    d_after,
                    int(flat_tx[idx]),
                    int(flat_ty[idx]),
                    hyp_dy,
                    hyp_dx,
                    config,
                )
                if flat_ty[idx] == y % h and flat_tx[idx] == x % w:
                    center_delta = (dy_star, dx_star)
                p_a[idx] = geo_a.p[(flat_ty[idx] + dy_star) % h, (flat_tx[idx] + dx_star) % w]
                q_a[idx] = geo_a.q[(flat_ty[idx] + dy_star) % h, (flat_tx[idx] + dx_star) % w]
        else:
            ay = (ty + hyp_dy) % h
            ax = (tx + hyp_dx) % w
            p_a = geo_a.p[ay, ax].ravel()
            q_a = geo_a.q[ay, ax].ravel()
        solution = estimate_from_samples(p_b, q_b, p_a, q_a, e_b, g_b, ridge=ridge)
        err = float(solution.error)
        if best is None or err < best[3]:
            # Report the tracked pixel's own (semi-fluid) correspondence.
            best = (float(center_delta[1]), float(center_delta[0]), solution.params, err)
    assert best is not None
    return best
