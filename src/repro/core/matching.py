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

Every dense schedule runs one hypothesis loop over one per-hypothesis
step (:class:`HypothesisStep`): semi-fluid deltas, the 28 pointwise
field planes, an optional certificate prune, one box sum over the
planes and one 6x6 solve that reads them in place -- for every pixel,
or for just the surviving ones.  Each hypothesis is merged into the
running best (:class:`RunningBest`) in hypothesis order with a
strict-less update, so tie-breaks are deterministic: among equal error
minima the smaller displacement wins (Chebyshev magnitude, then raster
order).  :class:`repro.parallel.parallel_sma.ParallelSMA` and
:func:`repro.extensions.subpixel.track_dense_with_volume` drive the
same step.

``search`` selects the *hypothesis schedule*:

* ``search="exhaustive"`` (default) -- every pixel evaluates every
  hypothesis, as above.
* ``search="pruned"`` -- exact certificate-grid pruning, bit-identical
  to exhaustive.  Because the template error of eq. (3) is a sum of
  non-negative per-sample terms, the minimized error over any
  *sub-window* of the template is a lower bound on the minimized error
  over the full template (the bound survives the ridge term -- the
  computed value is exactly ``min_theta E(theta) + ridge |theta|^2``,
  which is monotone under adding non-negative sample terms -- and the
  ``max(.., 0)`` clamp).  The step solves these cheap certificate
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

from dataclasses import dataclass, replace

import numpy as np

from ..kernels import resolve_backend
from ..kernels.reference import box_sum_stack as _box_sum_stack
from ..kernels.reference import strided_window_sums
from ..obs.metrics import METRICS
from ..obs.tracing import TRACER
from ..options import TrackOptions
from ..params import NeighborhoodConfig
from .continuous import (
    N_FIELDS,
    MotionSolution,
    estimate_from_samples,
    pointwise_fields,
    solve_accumulated,
)
from .prep import FramePreparationCache, prepare_frame
from .semifluid import (
    ScoreVolume,
    compute_score_volume,
    semifluid_displacements,
    semifluid_map_pixel,
    shift2d,
)
from .surface import SurfaceGeometry

#: Certificate-grid spacing of the pruned schedule.  With certificate
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
    and the pruned schedule's certificate sub-window sums accumulate
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
    return _box_sum_stack(fields[None], prepared.config.n_zt)[0]


def track_dense(
    prepared: PreparedFrames,
    ridge: float = 1e-9,
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
    resolved = resolve_backend(options.backend)
    with TRACER.span(
        "hypothesis_search", search=options.search, backend=resolved.resolved
    ):
        if options.search == "pyramid":
            result = _track_dense_pyramid(
                prepared, ridge, pyramid_levels, pyramid_refine, resolved.prefer_native
            )
        else:
            step = HypothesisStep(
                prepared, ridge, resolved.prefer_native, prune=options.search == "pruned"
            )
            result = _hypothesis_loop(step, hypothesis_order(prepared.config.n_zs))
    if ledger is not None:
        with ledger.phase(PHASE_MATCHING):
            ledger.charge_gaussian_elimination(result.ge_solves, order=6)
    return result


@dataclass(frozen=True)
class Hypothesis:
    """One evaluated hypothesis ``(dy, dx)``.

    ``solution`` holds the solved pixels: every pixel, shaped ``(H, W)``,
    when ``pixels`` is None, else the flat indices ``pixels`` in order;
    it is None when no pixel was left to solve.  ``deltas`` are the
    per-pixel semi-fluid displacements ``(delta_y, delta_x)`` (None for
    the continuous model); ``pruned`` counts the pixels whose solve the
    certificate bound skipped.
    """

    dy: int
    dx: int
    deltas: tuple[np.ndarray, np.ndarray] | None
    pixels: np.ndarray | None
    solution: MotionSolution | None
    certificate_solves: int = 0
    pruned: int = 0

    @property
    def ge_solves(self) -> int:
        """Certificate plus pixel eliminations this hypothesis performed."""
        solved = 0 if self.solution is None else self.solution.error.size
        return self.certificate_solves + solved

    def dense(self, shape: tuple[int, int]):
        """``(error, params, u, v)`` over the whole image.

        Unsolved pixels read error ``+inf`` (no strict-less or tie
        merge can select them) and zero parameters; ``u``/``v`` are the
        correspondence displacements of every pixel under this
        hypothesis (eq. 8 for the semi-fluid model).
        """
        if self.pixels is None:
            error, params = self.solution.error, self.solution.params
        else:
            error = np.full(shape, np.inf)
            params = np.zeros(shape + (6,), dtype=np.float64)
            if self.solution is not None:
                error.ravel()[self.pixels] = self.solution.error
                params.reshape(-1, 6)[self.pixels] = self.solution.params
        if self.deltas is None:
            return error, params, np.full(shape, float(self.dx)), np.full(shape, float(self.dy))
        return error, params, self.deltas[1].astype(np.float64), self.deltas[0].astype(np.float64)


class HypothesisStep:
    """The per-hypothesis step every dense schedule shares.

    Calling it with ``(dy, dx)`` gathers the semi-fluid deltas, builds
    the pointwise fields, runs one box sum over their planes and solves
    every pixel in place -- or only ``pixels`` (flat indices), or, when
    built with ``prune=True`` and handed a ``best`` error map with a
    finite entry, only the pixels the certificate bound cannot rule
    out.  The after-motion gradients for the semi-fluid gathers are
    shifted once, when the step is built.
    """

    def __init__(
        self,
        prepared: PreparedFrames,
        ridge: float = 1e-9,
        prefer_native: bool = True,
        prune: bool = False,
    ) -> None:
        config = prepared.config
        self.prepared = prepared
        self.ridge = ridge
        self.prefer_native = prefer_native
        self.shape = prepared.geo_before.shape
        self.shifted_after = None
        if prepared.volume is not None and config.n_ss > 0:
            self.shifted_after = _shifted_geometry_stack(prepared.geo_after, prepared.volume)
        #: None when not pruning, or when the template is too small for
        #: useful certificates (then pruned IS exhaustive).
        self.grid = _CertificateGrid.build(self.shape, config.n_zt) if prune else None
        self._held = None

    def __call__(
        self,
        dy: int,
        dx: int,
        best: np.ndarray | None = None,
        pixels: np.ndarray | None = None,
    ) -> Hypothesis:
        config = self.prepared.config
        deltas = None
        if self.shifted_after is not None:
            deltas = semifluid_displacements(self.prepared.volume, dy, dx, config.n_ss)
        pw = _hypothesis_pointwise(self.prepared, dy, dx, self.shifted_after, deltas)
        certificate_solves = pruned = 0
        # Nothing can prune against best = inf, so the first hypothesis
        # skips the certificate pass entirely.
        if self.grid is not None and best is not None and np.isfinite(best).any():
            bound = self.grid.lower_bounds(pw, self.ridge, self.prefer_native)
            pixels = np.flatnonzero(~(bound > best).ravel())
            certificate_solves = self.grid.systems
            pruned = bound.size - pixels.size
        solution = None
        if pixels is None or pixels.size:
            # Full-image box sum on purpose: scipy's separable uniform
            # filter is a running sum whose rounding depends on the
            # distance from the array origin, so cropping to the solved
            # pixels' bounding box would change bits.
            summed = _box_sum_stack(pw[None], config.n_zt)[0]
            accumulated = summed
            if pixels is not None:
                # One contiguous take per plane; the solve reads the
                # gathered (28, S) planes as an (S, 28) view.
                planes = np.moveaxis(summed, -1, 0).reshape(N_FIELDS, -1)
                accumulated = np.take(planes, pixels, axis=1).T
            solution = solve_accumulated(
                accumulated, ridge=self.ridge, prefer_native=self.prefer_native
            )
            # Held until the next call has solved: with the heap top
            # still in use, glibc reuses the freed field planes instead
            # of trimming and re-faulting ~7 MB per hypothesis at 128 px.
            self._held = (summed, accumulated)
        return Hypothesis(dy, dx, deltas, pixels, solution, certificate_solves, pruned)


class RunningBest:
    """The running minimum of eq. (7) over the hypotheses merged so far.

    :meth:`merge` is a strict-less update written in place at flat
    pixel indices: merged in hypothesis order, the first (smallest)
    displacement wins every tie.
    """

    def __init__(self, shape: tuple[int, int]) -> None:
        self.error = np.full(shape, np.inf)
        self.u = np.zeros(shape, dtype=np.float64)
        self.v = np.zeros(shape, dtype=np.float64)
        self.params = np.zeros(shape + (6,), dtype=np.float64)

    def merge(self, hyp: Hypothesis) -> None:
        if hyp.solution is None:
            return
        flat_error = self.error.reshape(-1)
        error = hyp.solution.error.reshape(-1)
        if hyp.pixels is None:
            better = error < flat_error
            winners = np.flatnonzero(better)
        else:
            better = error < flat_error[hyp.pixels]
            winners = hyp.pixels[better]
        flat_error[winners] = error[better]
        self.params.reshape(-1, 6)[winners] = hyp.solution.params.reshape(-1, 6)[better]
        if hyp.deltas is None:
            self.u.reshape(-1)[winners] = float(hyp.dx)
            self.v.reshape(-1)[winners] = float(hyp.dy)
        else:
            # The non-rigid correspondence of the *tracked* pixel is its
            # own semi-fluid mapping under this hypothesis (eq. 8): the
            # hypothesis displacement refined by the pixel's F_semi
            # drift, which restores sub-window accuracy that the relaxed
            # template mapping would otherwise absorb.
            self.u.reshape(-1)[winners] = hyp.deltas[1].reshape(-1)[winners]
            self.v.reshape(-1)[winners] = hyp.deltas[0].reshape(-1)[winners]

    def result(
        self, config: NeighborhoodConfig, evaluated: int, ge_solves: int = 0, pruned: int = 0
    ) -> DenseMatchResult:
        return DenseMatchResult(
            u=self.u,
            v=self.v,
            params=self.params,
            error=self.error,
            valid=valid_mask(self.error.shape, config),
            hypotheses_evaluated=evaluated,
            ge_solves=ge_solves,
            hypotheses_pruned=pruned,
        )


def _hypothesis_loop(step: HypothesisStep, order, window=None) -> DenseMatchResult:
    """Run ``step`` over ``order`` and merge every hypothesis.

    ``window(dy, dx)`` optionally names the flat pixels a hypothesis
    may solve (the pyramid's coarse-centred fine window); a hypothesis
    no pixel may take is skipped and not counted as evaluated.

    Soundness of the certificate skip: a hypothesis is pruned for a
    pixel only when ``lb - slack > best_error`` strictly, where ``lb``
    underestimates the hypothesis' true (ridge-regularized, clamped)
    template error.  A pruned hypothesis therefore could neither have
    won the strict ``error < best`` update nor produced an exact tie,
    so the merged ``u``, ``v``, ``params`` and ``error`` match the
    exhaustive schedule byte for byte.
    """
    best = RunningBest(step.shape)
    evaluated = ge_solves = certificate_solves = pruned = 0
    for dy, dx in order:
        pixels = None if window is None else window(dy, dx)
        if pixels is not None and pixels.size == 0:
            continue
        hyp = step(dy, dx, best=best.error, pixels=pixels)
        best.merge(hyp)
        evaluated += 1
        ge_solves += hyp.ge_solves
        certificate_solves += hyp.certificate_solves
        pruned += hyp.pruned
    METRICS.inc("hypotheses.evaluated", evaluated)
    if step.grid is not None:
        survivor_solves = ge_solves - certificate_solves
        METRICS.inc("search.hypotheses.pruned", pruned)
        METRICS.inc("search.ge_solves.performed", ge_solves)
        METRICS.inc("search.ge_solves.saved", best.error.size * evaluated - survivor_solves)
        METRICS.inc("search.certificate_solves", certificate_solves)
    return best.result(step.prepared.config, evaluated, ge_solves, pruned)


class _CertificateGrid:
    """Sub-template certificate geometry for the pruned schedule.

    One certificate window of half-width ``m = n_zt - 1`` per
    ``CERT_STRIDE x CERT_STRIDE`` block, with all windows fully inside
    the image.  Every pixel maps to its nearest grid center (Chebyshev
    distance <= ``n_zt - m``), so the certificate window is a subset of
    that pixel's own template window and its minimized error is a
    sound lower bound; pixels beyond the last grid row/column get a
    bound of ``-inf`` (never pruned).
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
        #: Flat index of every pixel's nearest grid center.
        self.pixel_to_grid = iy[:, None] * self.gx.size + ix[None, :]
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
        tiny templates simply fall back to the exhaustive schedule.
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

    def lower_bounds(self, pw: np.ndarray, ridge: float, prefer_native: bool = True):
        """Per-pixel error lower bound, less its fp slack, for one hypothesis.

        ``pw`` is the ``(H, W, 28)`` pointwise field of the hypothesis;
        the window sums run over its ``(28, H, W)`` planes, rows first:
        that pass reads whole plane rows, so the strided column pass
        only sees the ``gy`` summed rows.  The solve reads the summed
        planes in place.  Returns ``(H, W)``: a pixel whose best error
        so far is below its value cannot be won by this hypothesis.
        Pixels beyond the grid get ``-inf`` (never pruned).
        """
        planes = np.moveaxis(pw, -1, 0)
        rows = strided_window_sums(planes, 1, self.gy.size, CERT_STRIDE, self.m)
        acc = strided_window_sums(rows, 2, self.gx.size, CERT_STRIDE, self.m)
        solution = solve_accumulated(
            np.moveaxis(acc, 0, -1), ridge=ridge, prefer_native=prefer_native
        )
        # A singular certificate system reports E(0) = c, which is NOT a
        # lower bound on the minimum; bound zero keeps the pixel honest.
        lb = np.where(solution.singular, 0.0, solution.error)
        slack = CERT_SLACK_REL * np.abs(acc[N_FIELDS - 1]) + CERT_SLACK_ABS
        bound = np.take((lb - slack).ravel(), self.pixel_to_grid)
        return np.where(self.in_range, bound, -np.inf)


def _track_dense_pyramid(
    prepared: PreparedFrames,
    ridge: float,
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
    order = hypothesis_order(config.n_zs)
    step = HypothesisStep(prepared, ridge, prefer_native)
    if used_levels == 0:
        # Image too small for any coarse level: the guided search IS the
        # exhaustive search.
        return _hypothesis_loop(step, order)

    coarse_config = config.replace(n_zs=coarse_zs)
    with TRACER.span(
        "pyramid_level",
        level=used_levels,
        height=z_b.shape[0],
        width=z_b.shape[1],
        n_zs=coarse_zs,
    ):
        coarse_prep = prepare_frames(z_b, z_a, coarse_config)
        coarse = _hypothesis_loop(
            HypothesisStep(coarse_prep, ridge, prefer_native), hypothesis_order(coarse_zs)
        )
    u_up, v_up = upsample_flow(coarse.u, coarse.v, shape)
    center_x = np.clip(np.rint(u_up), -config.n_zs, config.n_zs).astype(np.int64)
    center_y = np.clip(np.rint(v_up), -config.n_zs, config.n_zs).astype(np.int64)

    def window(dy: int, dx: int) -> np.ndarray:
        near = (np.abs(dy - center_y) <= refine) & (np.abs(dx - center_x) <= refine)
        return np.flatnonzero(near.ravel())

    with TRACER.span(
        "pyramid_level", level=0, height=shape[0], width=shape[1], refine=refine
    ):
        fine = _hypothesis_loop(step, order, window)
    METRICS.inc("pyramid.levels", used_levels)
    METRICS.inc("pyramid.fine_offsets.visited", fine.hypotheses_evaluated)
    METRICS.inc("pyramid.fine_solves", fine.ge_solves)
    return replace(fine, ge_solves=coarse.ge_solves + fine.ge_solves)


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
