"""Host-speed scaling of timed seconds."""

import pytest

import common


def test_factor_takes_the_median_probe_to_the_reference():
    speed = common.Speed()
    speed.probes = [0.010, 0.030, 0.020]
    assert speed.factor() == pytest.approx(common.PROBE_REF_S / 0.020)


def test_probe_records_one_time_per_run_of_the_kernel():
    speed = common.Speed()
    speed.probe(3)
    assert len(speed.probes) == 3
    assert all(seconds > 0 for seconds in speed.probes)
