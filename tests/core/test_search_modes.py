"""Hierarchical search schedules: pruned bit-identity, pyramid accuracy.

The pruned schedule's contract is absolute: for every input the repo can
produce -- textured, flat, calm, semi-fluid -- its ``u``, ``v``,
``params`` and ``error`` must equal the exhaustive schedule's byte for
byte, while the GE-solve ledger proves work was actually skipped.  The
pyramid schedule is approximate by design, so its contract is a
documented endpoint-error tolerance on the synthetic vortex dataset.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import ndimage

from repro import NeighborhoodConfig, SMAnalyzer
from repro.core.matching import (
    PreparedFrames,
    prepare_frames,
    track_dense,
)
from repro.data import hurricane_luis
from repro.maspar.cost import CostLedger
from repro.maspar.machine import GODDARD_MP2
from repro.options import TrackOptions
from repro.stereo.pyramid import upsample_flow

from ..conftest import translated_pair

PRUNED = TrackOptions("pruned")

FIELD_NAMES = ("u", "v", "params", "error", "valid")


def assert_bit_identical(a, b) -> None:
    for name in FIELD_NAMES:
        assert np.array_equal(
            getattr(a, name), getattr(b, name), equal_nan=True
        ), f"{name} differs between schedules"


class TestPrunedBitIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 1995])
    def test_random_textured_fields_continuous(self, small_continuous_config, seed):
        f0, f1 = translated_pair(size=48, dx=1, dy=-1, seed=seed)
        prepared = prepare_frames(f0, f1, small_continuous_config)
        exhaustive = track_dense(prepared)
        pruned = track_dense(prepared, search="pruned")
        assert_bit_identical(exhaustive, pruned)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_random_textured_fields_semifluid(self, small_semifluid_config, seed):
        f0, f1 = translated_pair(size=40, dx=1, dy=0, seed=seed)
        prepared = prepare_frames(f0, f1, small_semifluid_config)
        exhaustive = track_dense(prepared)
        pruned = track_dense(prepared, search="pruned")
        assert_bit_identical(exhaustive, pruned)

    def test_luis_vortex_dataset(self):
        dataset = hurricane_luis(size=48, n_frames=2, seed=0)
        config = dataset.config
        prepared = prepare_frames(
            np.asarray(dataset.frames[0].surface, dtype=np.float64),
            np.asarray(dataset.frames[1].surface, dtype=np.float64),
            config,
        )
        exhaustive = track_dense(prepared)
        pruned = track_dense(prepared, search="pruned")
        assert_bit_identical(exhaustive, pruned)
        assert pruned.ge_solves < exhaustive.ge_solves
        assert pruned.hypotheses_pruned > 0

    def test_degenerate_flat_frames_all_errors_tie(self, small_continuous_config):
        """All-equal errors everywhere: the tie-break must stay exact."""
        flat = np.full((32, 32), 3.25)
        prepared = prepare_frames(flat, flat, small_continuous_config)
        exhaustive = track_dense(prepared)
        pruned = track_dense(prepared, search="pruned")
        assert_bit_identical(exhaustive, pruned)
        # the smallest-motion tie-break means every pixel keeps (0, 0)
        assert np.all(exhaustive.u == 0.0) and np.all(exhaustive.v == 0.0)

    def test_calm_pixels_nan_direction(self, small_continuous_config):
        """Identical frames -> calm field; wind direction is NaN and the
        schedules agree on every derived product."""
        rng = np.random.default_rng(5)
        frame = ndimage.gaussian_filter(rng.normal(size=(32, 32)), 1.5)
        exhaustive = SMAnalyzer(small_continuous_config).track_pair(
            frame, frame, dt_seconds=60.0
        )
        pruned = SMAnalyzer(small_continuous_config, options=PRUNED).track_pair(
            frame, frame, dt_seconds=60.0
        )
        assert np.array_equal(exhaustive.u, pruned.u)
        assert np.array_equal(exhaustive.v, pruned.v)
        assert np.array_equal(
            exhaustive.wind_direction_deg(), pruned.wind_direction_deg(),
            equal_nan=True,
        )
        calm = exhaustive.valid & (np.hypot(exhaustive.u, exhaustive.v) == 0)
        assert calm.any()
        assert np.isnan(exhaustive.wind_direction_deg()[calm]).all()

    def test_tiny_template_falls_back_to_exhaustive(self):
        """n_zt too small for certificates: pruned still runs, identically."""
        config = NeighborhoodConfig(n_w=2, n_zs=2, n_zt=2, n_ss=0, name="tiny-zt")
        f0, f1 = translated_pair(size=32, dx=1, dy=0, seed=9)
        prepared = prepare_frames(f0, f1, config)
        exhaustive = track_dense(prepared)
        pruned = track_dense(prepared, search="pruned")
        assert_bit_identical(exhaustive, pruned)
        assert pruned.hypotheses_pruned == 0


class TestLedgerObservability:
    def test_pruned_performs_measurably_fewer_ge_solves(self, prepared_continuous):
        led_ex = CostLedger(GODDARD_MP2)
        led_pr = CostLedger(GODDARD_MP2)
        exhaustive = track_dense(prepared_continuous, ledger=led_ex)
        pruned = track_dense(prepared_continuous, search="pruned", ledger=led_pr)
        assert_bit_identical(exhaustive, pruned)
        assert led_ex.gaussian_eliminations() == exhaustive.ge_solves
        assert led_pr.gaussian_eliminations() == pruned.ge_solves
        assert led_pr.gaussian_eliminations() < led_ex.gaussian_eliminations()
        rows = {name: ge for name, _, ge in led_pr.breakdown(with_counts=True)}
        assert rows["Hypothesis matching"] == pruned.ge_solves

    def test_result_reports_pruned_counts(self, prepared_continuous):
        pruned = track_dense(prepared_continuous, search="pruned")
        pixels = prepared_continuous.geo_before.shape[0] * prepared_continuous.geo_before.shape[1]
        full = pixels * pruned.hypotheses_evaluated
        # certificate solves are charged too, so the accounting balances
        assert 0 < pruned.hypotheses_pruned < full
        assert pruned.ge_solves < full


class TestPyramidSchedule:
    def test_endpoint_error_within_tolerance_on_luis(self):
        """Documented tolerance (docs/performance.md): mean endpoint error
        vs. exhaustive <= 0.5 px on the synthetic vortex dataset."""
        dataset = hurricane_luis(size=64, n_frames=2, seed=0)
        prepared = prepare_frames(
            np.asarray(dataset.frames[0].surface, dtype=np.float64),
            np.asarray(dataset.frames[1].surface, dtype=np.float64),
            dataset.config,
        )
        exhaustive = track_dense(prepared)
        pyramid = track_dense(prepared, search="pyramid", pyramid_levels=2)
        mask = exhaustive.valid
        epe = np.hypot(pyramid.u - exhaustive.u, pyramid.v - exhaustive.v)[mask]
        assert epe.mean() <= 0.5, f"mean endpoint error {epe.mean():.3f} px"
        assert pyramid.ge_solves < exhaustive.ge_solves

    def test_rejects_semifluid(self, prepared_semifluid):
        with pytest.raises(ValueError, match="continuous model only"):
            track_dense(prepared_semifluid, search="pyramid")

    def test_rejects_handbuilt_prepared_frames(self, prepared_continuous):
        stripped = PreparedFrames(
            geo_before=prepared_continuous.geo_before,
            geo_after=prepared_continuous.geo_after,
            volume=None,
            config=prepared_continuous.config,
        )
        with pytest.raises(ValueError, match="prepare_frames"):
            track_dense(stripped, search="pyramid")

    def test_too_small_image_falls_back_to_exhaustive(self, small_continuous_config):
        f0, f1 = translated_pair(size=18, dx=1, dy=0, seed=2)
        prepared = prepare_frames(f0, f1, small_continuous_config)
        exhaustive = track_dense(prepared)
        pyramid = track_dense(prepared, search="pyramid", pyramid_levels=3)
        assert_bit_identical(exhaustive, pyramid)

    def test_parameter_validation(self, prepared_continuous):
        with pytest.raises(ValueError, match="pyramid_levels"):
            track_dense(prepared_continuous, search="pyramid", pyramid_levels=0)
        with pytest.raises(ValueError, match="pyramid_refine"):
            track_dense(prepared_continuous, search="pyramid", pyramid_refine=-1)


class TestValidationAndThreading:
    def test_unknown_search_mode_rejected(self, prepared_continuous):
        with pytest.raises(ValueError, match="unknown search mode"):
            track_dense(prepared_continuous, search="telepathy")

    def test_analyzer_rejects_unknown_mode(self, small_continuous_config):
        with pytest.raises(ValueError, match="unknown search mode"):
            SMAnalyzer(small_continuous_config, options=TrackOptions("telepathy"))

    def test_analyzer_metadata_records_search(
        self, small_continuous_config, translation_frames
    ):
        f0, f1 = translation_frames
        field = SMAnalyzer(small_continuous_config, options=PRUNED).track_pair(
            f0, f1, dt_seconds=60.0
        )
        assert field.metadata["search"] == "pruned"

    def test_analyzer_pruned_field_matches_exhaustive(
        self, small_continuous_config, translation_frames
    ):
        f0, f1 = translation_frames
        exhaustive = SMAnalyzer(small_continuous_config).track_pair(
            f0, f1, dt_seconds=60.0
        )
        pruned = SMAnalyzer(small_continuous_config, options=PRUNED).track_pair(
            f0, f1, dt_seconds=60.0
        )
        assert np.array_equal(exhaustive.u, pruned.u)
        assert np.array_equal(exhaustive.v, pruned.v)
        assert np.array_equal(exhaustive.error, pruned.error)


class TestUpsampleFlow:
    def test_scales_components_independently(self):
        u = np.ones((8, 8))
        v = np.full((8, 8), 2.0)
        up_u, up_v = upsample_flow(u, v, (16, 16))
        assert up_u.shape == (16, 16)
        np.testing.assert_allclose(up_u, 2.0)  # x-ratio 2
        np.testing.assert_allclose(up_v, 4.0)  # y-ratio 2

    def test_rejects_shrinking_and_mismatched_shapes(self):
        with pytest.raises(ValueError, match="at least"):
            upsample_flow(np.ones((8, 8)), np.ones((8, 8)), (4, 4))
        with pytest.raises(ValueError, match="differ"):
            upsample_flow(np.ones((8, 8)), np.ones((8, 9)), (16, 16))
