"""Timing models regenerating the paper's Tables 2, 4 and Figure 4.

Absolute 1996 wall-clock numbers cannot be *measured* on modern
hardware; the paper's own sequential figures were largely projections
("a projected time of 397.34 days").  This module regenerates them the
same way the paper did -- operation counts times machine rates -- from
two models:

**Parallel (MP-2)** -- :func:`predict_parallel` replays the exact cost
charges of :class:`repro.parallel.parallel_sma.ParallelSMA` (surface
fit, geometric variables, semi-fluid mapping, hypothesis matching) at
any image scale without running the numerics, yielding a Table 2/4
shaped breakdown from the published MP-2 rates.

**Sequential (SGI Onyx R8000/90)** -- :class:`SGISequentialModel` is
calibrated against the paper's *own three anchors* and nothing else:

* Fig. 4's implied per-pixel correspondence time at the 121x121
  template (the paper states multiplying the Fig. 4 per-pixel time by
  the search-window and image pixel counts gives 313 days),
* the Table 2 sequential projection of 397.34 days (the paper
  attributes the 313-vs-397 gap to "the nonlinear scalability factor
  in the timing dependence on the z-Search window parameter" -- modeled
  here as a linear-in-search-rows overhead factor),
* the Table 4 sequential projection of 41.357 hours for the continuous
  model (which fixes the much cheaper continuous per-term cost).

Everything else -- the Fig. 4 curve across template sizes, the Hurricane
Luis throughput, all speed-up figures -- is *predicted* from those
calibrated constants, and the benchmarks assert the predictions retain
the paper's shape (orderings, crossovers, orders of magnitude).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..maspar.cost import CostLedger
from ..maspar.machine import GODDARD_MP2, MachineConfig
from ..maspar.mapping import HierarchicalMapping
from ..maspar.readout import RasterScanReadout, SnakeReadout
from ..params import FREDERIC_CONFIG, GOES9_CONFIG, NeighborhoodConfig, window_pixels
from ..parallel.parallel_sma import ParallelSMA

#: Paper anchors (Section 5).
FREDERIC_SEQUENTIAL_DAYS = 397.34
FREDERIC_FIG4_ESTIMATE_DAYS = 313.0
FREDERIC_PARALLEL_SECONDS = 33472.561776
FREDERIC_SPEEDUP = 1025.0
GOES9_SEQUENTIAL_HOURS = 41.357
GOES9_PARALLEL_SECONDS = 771.218708
GOES9_SPEEDUP = 193.0
LUIS_PARALLEL_MINUTES_PER_PAIR = 6.0
LUIS_SPEEDUP_FLOOR = 150.0

#: Table 2 rows (phase name, seconds) as published.
TABLE2_PAPER_ROWS: tuple[tuple[str, float], ...] = (
    ("Surface fit", 2.503216),
    ("Compute geometric variables", 0.037088),
    ("Semi-fluid mapping", 66.85848),
    ("Hypothesis matching", 33403.162992),
)

#: Table 4 rows as published (surface fit and geometry are merged there).
TABLE4_PAPER_ROWS: tuple[tuple[str, float], ...] = (
    ("Surface fit & compute geometric variables", 2.4609),
    ("Hypothesis matching", 768.7578),
)

SECONDS_PER_DAY = 86400.0
SECONDS_PER_HOUR = 3600.0
PAPER_PIXELS = 512 * 512


def predict_parallel(
    config: NeighborhoodConfig,
    shape: tuple[int, int],
    machine: MachineConfig = GODDARD_MP2,
    readout: RasterScanReadout | SnakeReadout | None = None,
    n_images: int | None = None,
) -> CostLedger:
    """MP-2 cost ledger for one frame pair at any scale, without running.

    Replays exactly the charges :class:`ParallelSMA` would make: the
    per-phase charging methods are shared, and the hypothesis phase is
    charged once per search-window hypothesis.
    """
    h, w = shape
    if h % machine.nyproc or w % machine.nxproc:
        raise ValueError(
            f"image {shape} does not fold onto the {machine.nyproc}x{machine.nxproc} grid"
        )
    driver = ParallelSMA(config, machine=machine, readout=readout)
    mapping = HierarchicalMapping(
        height=h, width=w, nyproc=machine.nyproc, nxproc=machine.nxproc
    )
    ledger = CostLedger(machine)
    if n_images is None:
        n_images = 4 if config.is_semifluid else 2
    driver._charge_surface_fit(ledger, mapping, n_images)
    driver._charge_geometry(ledger, mapping)
    if config.is_semifluid:
        driver._charge_semifluid(ledger, mapping)
    for _ in range(config.hypotheses_per_pixel):
        driver._charge_hypothesis(ledger, mapping, h * w)
    return ledger


@dataclass(frozen=True)
class SGISequentialModel:
    """Calibrated sequential (un-optimized) SMA timing on the SGI R8000.

    ``c_ge`` is the cost of one 6x6 Gaussian elimination plus its
    bookkeeping; ``c_term_semifluid`` / ``c_term_continuous`` the cost
    of one eq. (3) error term under each template-mapping model (the
    semi-fluid term carries the per-term F_semi evaluation, hence the
    ~5x premium); ``search_gamma`` the per-search-row overhead factor
    behind the paper's 313-vs-397-day discrepancy.
    """

    c_ge: float
    c_term_semifluid: float
    c_term_continuous: float
    search_gamma: float

    @classmethod
    def calibrated(cls) -> "SGISequentialModel":
        """Derive the constants from the paper's three anchors."""
        c_ge = 1.0e-4  # ~216 flops at the unoptimized code's ~2 MFlops
        # Fig. 4 anchor: per-pixel time at the 121x121 template such that
        # t_p * hypotheses * pixels = 313 days.
        frederic_hyp = FREDERIC_CONFIG.hypotheses_per_pixel  # 169
        frederic_terms = FREDERIC_CONFIG.template_pixels  # 14641
        t_p = (FREDERIC_FIG4_ESTIMATE_DAYS * SECONDS_PER_DAY) / (
            PAPER_PIXELS * frederic_hyp
        )
        c_sf = (t_p - c_ge) / frederic_terms
        # Table 2 anchor: the full projection exceeds the Fig. 4 estimate
        # by the search-window scalability factor.
        gamma = (FREDERIC_SEQUENTIAL_DAYS / FREDERIC_FIG4_ESTIMATE_DAYS - 1.0) / (
            2.0 * FREDERIC_CONFIG.n_zs
        )
        # Table 4 anchor fixes the continuous per-term cost.
        goes9_hyp = GOES9_CONFIG.hypotheses_per_pixel  # 225
        goes9_terms = GOES9_CONFIG.template_pixels  # 225
        goes9_total = GOES9_SEQUENTIAL_HOURS * SECONDS_PER_HOUR
        scal = 1.0 + gamma * 2.0 * GOES9_CONFIG.n_zs
        per_corr = goes9_total / (PAPER_PIXELS * goes9_hyp * scal)
        c_cont = (per_corr - c_ge) / goes9_terms
        if c_sf <= 0 or c_cont <= 0 or gamma <= 0:  # pragma: no cover
            raise ValueError("calibration produced non-physical constants")
        return cls(
            c_ge=c_ge,
            c_term_semifluid=c_sf,
            c_term_continuous=c_cont,
            search_gamma=gamma,
        )

    # -- predictions -----------------------------------------------------------------

    def per_pixel_correspondence_seconds(
        self, n_zt: int, semifluid: bool = True
    ) -> float:
        """Fig. 4's y-axis: time for one pixel correspondence evaluation."""
        terms = window_pixels(n_zt)
        c_term = self.c_term_semifluid if semifluid else self.c_term_continuous
        return self.c_ge + c_term * terms

    def fig4_curve(
        self, template_sides: tuple[int, ...] = (11, 31, 51, 71, 91, 111, 121, 131),
        semifluid: bool = True,
    ) -> list[tuple[int, float]]:
        """(template side, per-pixel seconds) pairs -- the Fig. 4 series."""
        points = []
        for side in template_sides:
            if side < 1 or side % 2 == 0:
                raise ValueError("template sides must be odd and positive")
            points.append(
                (side, self.per_pixel_correspondence_seconds((side - 1) // 2, semifluid))
            )
        return points

    def fig4_estimate_seconds(
        self, config: NeighborhoodConfig, shape: tuple[int, int]
    ) -> float:
        """The paper's Fig.-4-based extrapolation (the 313-day figure).

        "Multiplying the per pixel times with the number of pixels in
        the z-Search window and the number of pixels in the image" --
        no search-window scalability term, hence a slight underestimate.
        """
        h, w = shape
        t_p = self.per_pixel_correspondence_seconds(config.n_zt, config.is_semifluid)
        return t_p * config.hypotheses_per_pixel * h * w

    def total_seconds(self, config: NeighborhoodConfig, shape: tuple[int, int]) -> float:
        """Full sequential projection (the 397-day / 41.357-hour figures)."""
        scal = 1.0 + self.search_gamma * 2.0 * config.n_zs
        return self.fig4_estimate_seconds(config, shape) * scal


def speedup(
    config: NeighborhoodConfig,
    shape: tuple[int, int],
    machine: MachineConfig = GODDARD_MP2,
    sequential: SGISequentialModel | None = None,
) -> float:
    """Modeled parallel speed-up (sequential seconds / MP-2 seconds)."""
    sequential = sequential or SGISequentialModel.calibrated()
    parallel_seconds = predict_parallel(config, shape, machine).total_seconds()
    return sequential.total_seconds(config, shape) / parallel_seconds


def table2_model_rows(
    machine: MachineConfig = GODDARD_MP2,
    readout: RasterScanReadout | SnakeReadout | None = None,
) -> list[tuple[str, float]]:
    """Modeled Table 2 (Hurricane Frederic, full scale) phase rows."""
    ledger = predict_parallel(FREDERIC_CONFIG, (512, 512), machine, readout)
    return ledger.breakdown()


def table4_model_rows(
    machine: MachineConfig = GODDARD_MP2,
    readout: RasterScanReadout | SnakeReadout | None = None,
) -> list[tuple[str, float]]:
    """Modeled Table 4 (GOES-9 Florida, full scale) phase rows."""
    ledger = predict_parallel(GOES9_CONFIG, (512, 512), machine, readout, n_images=2)
    return ledger.breakdown()
