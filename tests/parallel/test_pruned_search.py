"""Certificate-bound pruning on the simulated machine and its plumbing.

The parallel driver, the degradation ladder, the streaming runner and
the fork pools all promise products bit-identical to the sequential
reference; ``search="pruned"`` must keep that promise while the ledger
records measurably fewer Gaussian eliminations.
"""

import numpy as np
import pytest

from repro.core.matching import track_dense
from repro.maspar.machine import scaled_machine
from repro.options import TrackOptions
from repro.parallel.parallel_sma import ParallelSMA
from repro.reliability.degrade import DegradationLadder
from repro.reliability.stream import StreamingRunner


@pytest.fixture(scope="module")
def machine():
    return scaled_machine(8, 8)


class TestParallelSMAPruned:
    def test_bit_identical_and_fewer_ge_charges(
        self, translation_frames, small_semifluid_config, machine
    ):
        f0, f1 = translation_frames
        exhaustive = ParallelSMA(
            small_semifluid_config, machine=machine
        ).track_pair(f0, f1)
        pruned = ParallelSMA(
            small_semifluid_config, machine=machine, options=TrackOptions("pruned")
        ).track_pair(f0, f1)
        for name in ("u", "v", "params", "error"):
            np.testing.assert_array_equal(
                getattr(exhaustive.field, name), getattr(pruned.field, name)
            )
        assert (
            pruned.ledger.gaussian_eliminations()
            < exhaustive.ledger.gaussian_eliminations()
        )
        assert pruned.field.metadata["search"] == "pruned"

    def test_continuous_model_matches_track_dense(
        self, translation_frames, small_continuous_config, machine, prepared_continuous
    ):
        f0, f1 = translation_frames
        seq = track_dense(prepared_continuous, search="pruned")
        par = ParallelSMA(
            small_continuous_config, machine=machine, options=TrackOptions("pruned")
        ).track_pair(f0, f1)
        np.testing.assert_array_equal(seq.u, par.field.u)
        np.testing.assert_array_equal(seq.v, par.field.v)
        np.testing.assert_array_equal(seq.error, par.field.error)

    def test_rejects_pyramid(self, small_continuous_config):
        with pytest.raises(ValueError, match="pyramid"):
            ParallelSMA(small_continuous_config, options=TrackOptions("pyramid"))


class TestLadderAndStreamPlumbing:
    def test_ladder_rejects_pyramid(self, small_continuous_config):
        with pytest.raises(ValueError, match="exhaustive"):
            DegradationLadder(small_continuous_config, options=TrackOptions("pyramid"))

    def test_ladder_pruned_matches_exhaustive(
        self, translation_frames, small_continuous_config, machine
    ):
        f0, f1 = translation_frames
        planned = 5  # full search window: 2 * n_zs + 1
        base, _ = DegradationLadder(small_continuous_config).track_pair(
            f0, f1, machine, planned, dt_seconds=60.0
        )
        pruned, _ = DegradationLadder(
            small_continuous_config, options=TrackOptions("pruned")
        ).track_pair(f0, f1, machine, planned, dt_seconds=60.0)
        np.testing.assert_array_equal(base.u, pruned.u)
        np.testing.assert_array_equal(base.v, pruned.v)
        np.testing.assert_array_equal(base.error, pruned.error)
        assert base.rung == pruned.rung == 0
        assert (
            pruned.ledger.gaussian_eliminations()
            < base.ledger.gaussian_eliminations()
        )

    def test_stream_fingerprint_default_is_unchanged(self, small_continuous_config):
        """Old checkpoints (written before search modes existed) must
        still resume under the default schedule."""
        default = StreamingRunner(small_continuous_config)
        pruned = StreamingRunner(small_continuous_config, options=TrackOptions("pruned"))
        fp_default = default._fingerprint((64, 64), 3)
        fp_pruned = pruned._fingerprint((64, 64), 3)
        assert "search=" not in fp_default
        assert fp_pruned.endswith("|search=pruned")
        assert fp_default != fp_pruned
