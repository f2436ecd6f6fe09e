"""Served search modes: validation, cache-key separation, bit-identity."""

import numpy as np
import pytest

from repro.core.sma import Frame
from repro.options import TrackOptions
from repro.params import GOES9_CONFIG
from repro.serve.cache import result_key
from repro.serve.http import ServeApp
from repro.serve.jobs import JobRequest, JobValidationError


@pytest.fixture
def app(tmp_path):
    application = ServeApp(str(tmp_path / "state"), workers=0)
    yield application
    application.queue.close()


def _run_one(app, request, priority=0):
    job, _ = app.queue.submit(request, priority=priority)
    claimed = app.queue.claim(timeout=0)
    assert claimed.id == job.id
    app.pool.execute(claimed)
    return app.queue.get(job.id)


class TestRequestValidation:
    def test_search_mode_accepted(self):
        request = JobRequest(dataset="florida", search_mode="pruned")
        assert request.search_mode == "pruned"
        assert request.canonical()["search_mode"] == "pruned"

    def test_pyramid_refused(self):
        with pytest.raises(JobValidationError, match="pyramid"):
            JobRequest(dataset="florida", search_mode="pyramid")
        with pytest.raises(JobValidationError, match="unknown search mode"):
            JobRequest(dataset="florida", search_mode="telepathy")

    def test_payload_with_search_mode(self):
        request = JobRequest.from_payload(
            {"dataset": "florida", "search_mode": "pruned"}
        )
        assert request.search_mode == "pruned"

    def test_fingerprints_differ_by_mode(self):
        base = JobRequest(dataset="florida")
        pruned = JobRequest(dataset="florida", search_mode="pruned")
        assert base.fingerprint() != pruned.fingerprint()


class TestResultKey:
    def test_key_includes_search_mode(self):
        frames = [Frame(np.ones((20, 20)) * k, time_seconds=60.0 * k) for k in range(2)]
        exhaustive = result_key(frames, GOES9_CONFIG, 1.0)
        pruned = result_key(frames, GOES9_CONFIG, 1.0, search="pruned")
        assert exhaustive != pruned
        # and the default token matches an explicit request for it
        assert exhaustive == result_key(frames, GOES9_CONFIG, 1.0, search="exhaustive")


class TestServerDefault:
    def test_app_rejects_unknown_default(self, tmp_path):
        with pytest.raises(ValueError, match="'pyramid' is approximate"):
            ServeApp(str(tmp_path / "bad"), workers=0, options=TrackOptions("pyramid"))
        with pytest.raises(ValueError, match="unknown search mode"):
            ServeApp(str(tmp_path / "bad"), workers=0, options=TrackOptions("telepathy"))

    def test_submit_injects_server_default(self, tmp_path):
        app = ServeApp(str(tmp_path / "state"), workers=0, options=TrackOptions("pruned"))
        try:
            job, _ = app.submit_payload({"dataset": "florida", "size": 48})
            assert job.request.search_mode == "pruned"
            explicit, _ = app.submit_payload(
                {"dataset": "florida", "size": 48, "search_mode": "exhaustive"}
            )
            assert explicit.request.search_mode == "exhaustive"
        finally:
            app.queue.close()

    def test_pruned_product_bit_identical_and_separately_cached(self, app):
        base = _run_one(app, JobRequest(dataset="florida", size=48))
        pruned = _run_one(
            app, JobRequest(dataset="florida", size=48, search_mode="pruned")
        )
        assert base.state == pruned.state == "done"
        # different cache entries (the second job is a miss, not a hit) ...
        assert base.result_key != pruned.result_key
        assert pruned.cache_hit is False
        # ... holding bit-identical fields
        field_base = app.cache.get(base.result_key, record=False)
        field_pruned = app.cache.get(pruned.result_key, record=False)
        np.testing.assert_array_equal(field_base.u, field_pruned.u)
        np.testing.assert_array_equal(field_base.v, field_pruned.v)
        np.testing.assert_array_equal(field_base.error, field_pruned.error)
        assert field_pruned.metadata["search"] == "pruned"
