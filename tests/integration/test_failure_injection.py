"""Failure-injection tests: the system must fail loudly and recover
where the paper's engineering says it should."""

import numpy as np
import pytest

from repro import SMAnalyzer
from repro.maspar.machine import scaled_machine
from repro.maspar.memory import PEMemoryError, PEMemoryTracker
from repro.params import NeighborhoodConfig
from repro.parallel import ParallelSMA, max_feasible_segment_rows, plan
from tests.conftest import translated_pair


class TestMemoryPressureRecovery:
    """The 64 KB wall: detection, planning, and automatic recovery."""

    def test_planner_shrinks_z_until_feasible(self):
        cfg = NeighborhoodConfig(n_w=2, n_zs=11, n_zt=60, n_ss=1, n_st=2)
        machine = scaled_machine(128, 128)
        z = max_feasible_segment_rows(cfg, 16, machine)
        assert z >= 1
        assert plan(cfg, 16, z).fits(machine.pe_memory_bytes)

    def test_driver_recovers_under_pressure(self):
        f0, f1 = translated_pair(size=64, dx=1, dy=0, seed=50)
        cfg = NeighborhoodConfig(n_w=2, n_zs=2, n_zt=3, n_ss=0)
        generous = ParallelSMA(cfg, machine=scaled_machine(4, 4)).track_pair(f0, f1)
        tight = ParallelSMA(
            cfg, machine=scaled_machine(4, 4, pe_memory_bytes=40_000)
        ).track_pair(f0, f1)
        assert tight.segments_processed > generous.segments_processed
        np.testing.assert_array_equal(tight.field.u, generous.field.u)

    def test_driver_fails_loudly_when_hopeless(self):
        f0, f1 = translated_pair(size=64, dx=1, dy=0, seed=51)
        cfg = NeighborhoodConfig(n_w=2, n_zs=2, n_zt=3, n_ss=0)
        with pytest.raises(MemoryError):
            ParallelSMA(
                cfg, machine=scaled_machine(4, 4, pe_memory_bytes=10_000)
            ).track_pair(f0, f1)

    def test_explicit_oversized_segment_rejected(self):
        """Forcing an infeasible Z must raise PEMemoryError, not corrupt."""
        f0, f1 = translated_pair(size=64, dx=1, dy=0, seed=52)
        cfg = NeighborhoodConfig(n_w=2, n_zs=2, n_zt=3, n_ss=0)
        driver = ParallelSMA(
            cfg,
            machine=scaled_machine(4, 4, pe_memory_bytes=40_000),
            segment_rows=5,
        )
        with pytest.raises(PEMemoryError):
            driver.track_pair(f0, f1)

    def test_tracker_state_clean_after_failure(self):
        tracker = PEMemoryTracker(100)
        tracker.allocate(50)
        with pytest.raises(PEMemoryError):
            tracker.allocate(60)
        assert tracker.used_bytes == 50  # no partial charge


class TestDegenerateInputs:
    def test_textureless_frames_do_not_crash(self, small_continuous_config):
        flat = np.zeros((48, 48))
        field = SMAnalyzer(small_continuous_config).track_pair(flat, flat)
        # no texture: everything ties at zero error, tie-break gives zero motion
        assert (field.u[field.valid] == 0.0).all()

    def test_constant_gradient_frames(self, small_continuous_config):
        yy, xx = np.meshgrid(np.arange(48, dtype=float), np.arange(48, dtype=float), indexing="ij")
        ramp = 0.5 * xx + 0.25 * yy
        field = SMAnalyzer(small_continuous_config).track_pair(ramp, ramp)
        assert np.isfinite(field.error[field.valid]).all()

    def test_nan_free_output_on_noisy_input(self, small_semifluid_config):
        rng = np.random.default_rng(53)
        f0 = rng.normal(size=(48, 48))
        f1 = rng.normal(size=(48, 48))  # uncorrelated: worst case
        field = SMAnalyzer(small_semifluid_config).track_pair(f0, f1)
        assert np.isfinite(field.u).all()
        assert np.isfinite(field.error[field.valid]).all()

    def test_non_square_image(self, small_continuous_config):
        """The paper assumes square images 'without any loss of
        generality'; the implementation must genuinely not care."""
        rng = np.random.default_rng(54)
        from scipy import ndimage
        base = ndimage.gaussian_filter(rng.normal(size=(48, 72)), 1.5)
        field = SMAnalyzer(small_continuous_config).track_pair(base, base)
        assert field.shape == (48, 72)
        assert (field.u[field.valid] == 0.0).all()

    def test_extreme_amplitude_input(self, small_continuous_config):
        f0, f1 = translated_pair(size=48, dx=1, dy=0, seed=55)
        field_small = SMAnalyzer(small_continuous_config).track_pair(f0, f1)
        field_big = SMAnalyzer(small_continuous_config).track_pair(f0 * 1e6, f1 * 1e6)
        # scaling the surface changes E/G weighting, but the winning
        # displacement on a clean translation must survive
        assert (field_big.u[field_big.valid] == field_small.u[field_small.valid]).mean() > 0.95


class TestSearchWindowEdges:
    def test_motion_at_search_boundary_found(self):
        """Displacement exactly at N_zs must be representable."""
        cfg = NeighborhoodConfig(n_w=2, n_zs=2, n_zt=3, n_ss=0)
        f0, f1 = translated_pair(size=48, dx=2, dy=-2, seed=56)
        field = SMAnalyzer(cfg).track_pair(f0, f1)
        assert (field.u[field.valid] == 2.0).all()
        assert (field.v[field.valid] == -2.0).all()

    def test_motion_beyond_search_window_saturates(self):
        """Displacement larger than N_zs cannot be found -- the estimate
        clamps inside the window instead of diverging."""
        cfg = NeighborhoodConfig(n_w=2, n_zs=1, n_zt=3, n_ss=0)
        f0, f1 = translated_pair(size=48, dx=3, dy=0, seed=57)
        field = SMAnalyzer(cfg).track_pair(f0, f1)
        assert np.abs(field.u[field.valid]).max() <= 1.0

    def test_zero_search_window(self):
        """N_zs = 0: a single hypothesis; the driver must still run."""
        cfg = NeighborhoodConfig(n_w=2, n_zs=0, n_zt=3, n_ss=0)
        f0, f1 = translated_pair(size=40, dx=0, dy=0, seed=58)
        field = SMAnalyzer(cfg).track_pair(f0, f1)
        assert (field.u[field.valid] == 0.0).all()
