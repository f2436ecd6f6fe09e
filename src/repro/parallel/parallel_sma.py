"""The parallel SMA algorithm on the simulated MasPar MP-2 (Section 4).

:class:`ParallelSMA` executes the same mathematics as the sequential
reference (:mod:`repro.core`) but *as the paper's parallel program*:

* the image is folded onto the PE array with the 2-D hierarchical
  mapping (eq. 12-13) and processed "all pixels in the mem-th memory
  layer in parallel ... for each layer",
* neighborhood data moves through a Section-4.2 read-out scheme
  (raster-scan bounding boxes by default -- the scheme the paper
  adopted),
* template mappings are precomputed per Section 4.1 and segmented by
  hypothesis rows per Section 4.3, with every segment's store charged
  against the 64 KB PE memory (an infeasible configuration raises
  :class:`~repro.maspar.memory.PEMemoryError`, exactly the failure
  that forced segmentation on the real machine),
* every arithmetic/communication operation is charged to a
  :class:`~repro.maspar.cost.CostLedger` under the paper's four phase
  names, so the run produces a Table 2 / Table 4 style timing
  breakdown alongside the motion field.

The produced motion field is **identical** to
:func:`repro.core.matching.track_dense` (the paper validated its
parallel implementation the same way: "the parallel algorithm obtained
the same result as the sequential implementation").
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..core.field import MotionField
from ..core.matching import (
    HypothesisStep,
    PreparedFrames,
    prepare_frames,
    valid_mask,
)
from ..core.prep import FramePreparationCache
from ..core.sma import Frame
from ..kernels import resolve_backend
from ..maspar.cost import CostLedger
from ..maspar.machine import MachineConfig, scaled_machine
from ..maspar.mapping import HierarchicalMapping, mapping_for
from ..maspar.memory import PEMemoryError, PEMemoryTracker
from ..maspar.readout import DEFAULT_READOUT, RasterScanReadout, SnakeReadout
from ..obs.tracing import TRACER
from ..options import TrackOptions
from ..params import NeighborhoodConfig
from .memory_plan import max_feasible_segment_rows, plan
from .segmentation import SegmentedSearch

#: Table 2 / Table 4 phase names.
PHASE_SURFACE_FIT = "Surface fit"
PHASE_GEOMETRY = "Compute geometric variables"
PHASE_SEMIFLUID = "Semi-fluid mapping"
PHASE_MATCHING = "Hypothesis matching"

#: Flops per eq. (4)-(5) residual pair evaluation (assemble two rows,
#: weight, square, accumulate 28 field entries).
FLOPS_PER_ERROR_TERM = 80.0

#: Flops per semi-fluid discriminant comparison (difference, square,
#: accumulate, normalize share).
FLOPS_PER_COMPARISON = 3.0


def machine_for_image(
    shape: tuple[int, int], max_grid: int = 128, pe_memory_bytes: int | None = None
) -> MachineConfig:
    """A scaled MP-2 whose PE grid divides the image evenly.

    Picks the largest power-of-two grid (up to ``max_grid``, the MP-2's
    128) dividing both image dimensions.
    """
    h, w = shape
    grid = 1
    g = 2
    while g <= max_grid and h % g == 0 and w % g == 0:
        grid = g
        g *= 2
    return scaled_machine(grid, grid, pe_memory_bytes=pe_memory_bytes)


@dataclass
class ParallelResult:
    """Output of one parallel run: the field plus machine-model artifacts."""

    field: MotionField
    ledger: CostLedger
    mapping: HierarchicalMapping
    segment_rows: int
    segments_processed: int
    peak_memory_bytes: int

    def breakdown(self) -> list[tuple[str, float]]:
        """(phase, modeled seconds) rows in Table 2 order."""
        order = [PHASE_SURFACE_FIT, PHASE_GEOMETRY, PHASE_SEMIFLUID, PHASE_MATCHING]
        return [
            (name, self.ledger.phase_seconds(name))
            for name in order
            if name in self.ledger.phases
        ]

    @property
    def total_seconds(self) -> float:
        return self.ledger.total_seconds()


class ParallelSMA:
    """Parallel SMA on a (simulated) SIMD machine.

    Parameters
    ----------
    machine:
        Machine description; defaults to a grid fitted to the image by
        :func:`machine_for_image` at track time.
    config:
        Neighborhood parameterization.
    readout:
        Section-4.2 neighborhood read-out scheme (raster-scan default).
    segment_rows:
        Template-mapping segment size Z; ``None`` selects the largest
        feasible value (the unsegmented search when memory allows, as
        in the paper's Table 2 run).
    options:
        Hypothesis schedule and kernel backend, validated with
        ``exact=True``: ``"pruned"`` is accepted (certificate-bound
        pruning; bit-identical field, fewer GE charges on the ledger),
        ``"pyramid"`` is refused because the simulated machine promises
        products identical to the sequential reference.
    """

    def __init__(
        self,
        config: NeighborhoodConfig,
        machine: MachineConfig | None = None,
        readout: RasterScanReadout | SnakeReadout | None = None,
        segment_rows: int | None = None,
        pixel_km: float = 1.0,
        ridge: float = 1e-9,
        options: TrackOptions = TrackOptions(),
    ) -> None:
        self.config = config
        self.machine = machine
        self.readout = readout if readout is not None else DEFAULT_READOUT
        self.segment_rows = segment_rows
        self.pixel_km = pixel_km
        self.ridge = ridge
        self.options = options.validate(exact=True)

    # -- internal helpers ------------------------------------------------------------

    def _resolve_machine(self, shape: tuple[int, int]) -> MachineConfig:
        machine = self.machine or machine_for_image(shape)
        if shape[0] % machine.nyproc or shape[1] % machine.nxproc:
            raise ValueError(
                f"image {shape} does not fold onto the {machine.nyproc}x"
                f"{machine.nxproc} PE grid (dimensions must divide evenly)"
            )
        return machine

    def _charge_surface_fit(
        self, ledger: CostLedger, mapping: HierarchicalMapping, n_images: int
    ) -> None:
        h, w = mapping.height, mapping.width
        pixels = h * w
        stats = self.readout.stats(mapping, self.config.n_w)
        with ledger.phase(PHASE_SURFACE_FIT):
            for _ in range(n_images):
                ledger.charge_xnet(stats.mesh_bytes, shifts=stats.mesh_shifts)
                ledger.charge_memory(stats.mem_bytes)
            # windowed RHS accumulation: (2N_w+1)^2 basis products per pixel
            window = self.config.surface_window**2
            ledger.charge_flops(n_images * pixels * window * 12.0)
            ledger.charge_gaussian_elimination(n_images * pixels, order=6)

    def _charge_geometry(self, ledger: CostLedger, mapping: HierarchicalMapping) -> None:
        pixels = mapping.height * mapping.width
        with ledger.phase(PHASE_GEOMETRY):
            # normals (sqrt ~ 8 flops), E, G, discriminants for 2 surfaces
            # + 2 intensity images
            ledger.charge_flops(pixels * 4 * 30.0)
            ledger.charge_memory(pixels * 8 * 4)

    def _charge_semifluid(self, ledger: CostLedger, mapping: HierarchicalMapping) -> None:
        c = self.config
        pixels = mapping.height * mapping.width
        stats = self.readout.stats(mapping, c.n_zs + c.n_ss + c.n_st)
        with ledger.phase(PHASE_SEMIFLUID):
            ledger.charge_xnet(stats.mesh_bytes * 2, shifts=stats.mesh_shifts * 2)
            ledger.charge_memory(stats.mem_bytes * 2)
            comparisons = pixels * c.precompute_window**2 * c.semifluid_patch_terms
            ledger.charge_flops(comparisons * FLOPS_PER_COMPARISON)

    def _charge_hypothesis(
        self,
        ledger: CostLedger,
        mapping: HierarchicalMapping,
        solves: int,
    ) -> None:
        c = self.config
        pixels = mapping.height * mapping.width
        stats = self.readout.stats(mapping, c.n_zt)
        with ledger.phase(PHASE_MATCHING):
            # accumulation of the two normal-equation matrices (Section 4.2)
            ledger.charge_xnet(stats.mesh_bytes, shifts=stats.mesh_shifts)
            ledger.charge_memory(stats.mem_bytes)
            ledger.charge_flops(pixels * c.template_pixels * FLOPS_PER_ERROR_TERM)
            # One solve per pixel on the exhaustive schedule; the pruned
            # schedule charges the certificate + survivor count actually
            # performed -- the ledger is how the saving is observed.
            ledger.charge_gaussian_elimination(solves, order=6)

    # -- the run ----------------------------------------------------------------------

    def track_pair(
        self,
        before: Frame | np.ndarray,
        after: Frame | np.ndarray,
        dt_seconds: float | None = None,
        prep_cache: FramePreparationCache | None = None,
        fit_images: int | None = None,
    ) -> ParallelResult:
        """Run the full parallel algorithm on one frame pair.

        ``prep_cache`` shares per-frame surface fits / discriminants
        across the pairs of a sequence (bit-identical results).
        ``fit_images`` overrides how many image surface fits the ledger
        charges for this pair; sequence drivers pass the *positional*
        count (full price for pair 0, only the newly arrived frame for
        later pairs) so accounting reflects the reuse yet stays
        independent of cache warmth -- a resumed run must reproduce the
        uninterrupted ledger exactly.
        """
        before = before if isinstance(before, Frame) else Frame(np.asarray(before))
        after = after if isinstance(after, Frame) else Frame(np.asarray(after))
        if before.shape != after.shape:
            raise ValueError("frame shapes differ")
        substituted_dt: float | None = None
        if dt_seconds is None:
            dt_seconds = after.time_seconds - before.time_seconds
            if dt_seconds <= 0:
                substituted_dt = float(dt_seconds)
                dt_seconds = 1.0
                warnings.warn(
                    f"frame timestamps are not increasing (dt = {substituted_dt} s); "
                    "substituting dt = 1 s -- derived wind speeds are in "
                    "pixels/frame, not physical units",
                    RuntimeWarning,
                    stacklevel=2,
                )

        shape = before.shape
        resolved = resolve_backend(self.options.backend)
        machine = self._resolve_machine(shape)
        mapping = mapping_for(machine, *shape)
        ledger = CostLedger(machine)
        memory = PEMemoryTracker(machine.pe_memory_bytes)

        # Resident data: images/surfaces + geometric variables (the
        # non-segmented part of the Section 4.3 budget).
        base_plan = plan(self.config, mapping.layers, segment_rows=1)
        memory.allocate(base_plan.image_bytes, name="images & surfaces")
        memory.allocate(base_plan.geometry_bytes, name="geometric variables")
        memory.allocate(base_plan.best_state_bytes, name="best-correspondence state")
        memory.allocate(base_plan.scratch_bytes, name="scratch")

        segment_rows = self.segment_rows
        if segment_rows is None:
            segment_rows = max_feasible_segment_rows(self.config, mapping.layers, machine)
            if segment_rows == 0:
                smallest = plan(self.config, mapping.layers, segment_rows=1)
                raise PEMemoryError(
                    "no feasible template-mapping segment size: fold the image "
                    "onto more PEs or reduce the search window",
                    requested_bytes=smallest.total_bytes,
                    capacity_bytes=machine.pe_memory_bytes,
                    in_use_bytes=0,
                )

        # Fold the image through the hierarchical mapping (and back) so
        # the data-layout machinery is genuinely in the loop.
        surface_before = np.asarray(before.surface, dtype=np.float64)
        folded = mapping.scatter(surface_before)
        restored = mapping.gather(folded)
        if not np.array_equal(restored, surface_before):  # pragma: no cover
            raise AssertionError("hierarchical mapping round-trip failed")

        # Phase 1-2: surface fits + geometric variables.
        n_images = 4 if self.config.is_semifluid or before.intensity is not None else 2
        if fit_images is not None:
            if not 0 <= fit_images <= n_images:
                raise ValueError(
                    f"fit_images must be in [0, {n_images}], got {fit_images}"
                )
            n_images = fit_images
        self._charge_surface_fit(ledger, mapping, n_images)
        self._charge_geometry(ledger, mapping)
        prepared: PreparedFrames = prepare_frames(
            surface_before,
            np.asarray(after.surface, dtype=np.float64),
            self.config,
            intensity_before=before.intensity,
            intensity_after=after.intensity,
            cache=prep_cache,
        )

        # Phase 3: semi-fluid template-mapping precompute.
        if prepared.volume is not None and self.config.n_ss > 0:
            self._charge_semifluid(ledger, mapping)

        # Phase 4: segmented hypothesis matching.  ``running_best`` is
        # the elementwise minimum of every error surface handed to the
        # segmented merge, i.e. exactly the evolution of the merge
        # state; the pruned step solves only the pixels whose
        # certificate bound stays at or below it and reports +inf for
        # the rest, which the strict-less/tie merge can never select --
        # so the produced field stays bit-identical while the ledger
        # records only the certificate + survivor eliminations
        # actually performed.
        step = HypothesisStep(
            prepared, self.ridge, resolved.prefer_native,
            prune=self.options.search == "pruned",
        )
        running_best = np.full(shape, np.inf)

        def evaluate(dy: int, dx: int):
            hyp = step(dy, dx, best=running_best)
            self._charge_hypothesis(ledger, mapping, hyp.ge_solves)
            error, params, u_field, v_field = hyp.dense(shape)
            np.minimum(running_best, error, out=running_best)
            return error, params, u_field, v_field

        search = SegmentedSearch(
            self.config, evaluate, memory=memory, layers=mapping.layers
        )
        with TRACER.span(
            "hypothesis_search", ledger=ledger, segment_rows=segment_rows
        ):
            state = search.run(shape, segment_rows)

        metadata = {
            "model": "semi-fluid" if self.config.is_semifluid else "continuous",
            "config": self.config.name,
            "machine": f"{machine.nyproc}x{machine.nxproc}",
            "segment_rows": segment_rows,
            "search": self.options.search,
            "backend": self.options.backend,
        }
        if substituted_dt is not None:
            metadata["dt_substituted"] = True
            metadata["dt_rejected_seconds"] = substituted_dt
        field = MotionField(
            u=state.u,
            v=state.v,
            valid=valid_mask(shape, self.config),
            error=state.error,
            params=state.params,
            dt_seconds=float(dt_seconds),
            pixel_km=self.pixel_km,
            metadata=metadata,
        )
        return ParallelResult(
            field=field,
            ledger=ledger,
            mapping=mapping,
            segment_rows=segment_rows,
            segments_processed=state.segments_processed,
            peak_memory_bytes=memory.peak_bytes,
        )
