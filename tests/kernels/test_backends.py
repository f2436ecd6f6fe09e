"""Backend resolution, the bitwise backend family, and :class:`TrackOptions`.

The backends -- ``auto``, ``numpy``, ``native`` -- must produce
byte-identical dense products, enforced here by digest.  The options
object is the one place their names (and the search-mode names) are
validated, so its accept/refuse rule is tested here too.
"""

from __future__ import annotations

import pytest

from repro.core.matching import track_dense
from repro.kernels import ResolvedBackend, resolve_backend, result_digest
from repro.native import native_available
from repro.obs.metrics import METRICS
from repro.options import BACKENDS, EXACT_SEARCH_MODES, SEARCH_MODES, TrackOptions


class TestResolveBackend:
    def test_backend_sets_are_consistent(self):
        assert BACKENDS == ("auto", "numpy", "native")
        assert set(EXACT_SEARCH_MODES) | {"pyramid"} == set(SEARCH_MODES)

    def test_auto_matches_historical_dispatch(self):
        resolved = resolve_backend("auto")
        assert isinstance(resolved, ResolvedBackend)
        assert resolved.requested == "auto"
        assert resolved.prefer_native is True
        assert resolved.resolved == ("native" if native_available() else "numpy")

    def test_numpy_pins_the_reference(self):
        resolved = resolve_backend("numpy")
        assert resolved.resolved == "numpy"
        assert resolved.prefer_native is False

    def test_native_requires_the_kernel(self):
        if native_available():
            assert resolve_backend("native").prefer_native is True
        else:
            with pytest.raises(RuntimeError, match="native"):
                resolve_backend("native")

    def test_device_resolution(self):
        with pytest.raises(ValueError, match="unknown kernel backend 'device'"):
            resolve_backend("device")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("gpu")

    def test_resolution_is_counted(self):
        METRICS.reset()
        resolved = resolve_backend("numpy")
        counters = METRICS.snapshot()["counters"]
        assert counters[f"kernel.backend.{resolved.resolved}"] == 1


class TestTrackOptions:
    @pytest.mark.parametrize("search", SEARCH_MODES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_named_pair_builds(self, search, backend):
        options = TrackOptions(search, backend)
        assert (options.search, options.backend) == (search, backend)

    @pytest.mark.parametrize("search", EXACT_SEARCH_MODES)
    def test_exact_accepts_bitwise_schedules(self, search):
        options = TrackOptions(search)
        assert options.validate(exact=True) is options

    def test_exact_refuses_pyramid(self):
        options = TrackOptions("pyramid")
        with pytest.raises(ValueError, match="'pyramid' is approximate"):
            options.validate(exact=True)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"search": "telepathy"}, "unknown search mode 'telepathy'"),
            ({"backend": "device"}, "unknown backend 'device'"),
            ({"backend": "cuda"}, "unknown backend 'cuda'"),
        ],
    )
    def test_unknown_names_refused_at_build(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TrackOptions(**kwargs)


class TestBitwiseFamily:
    """auto / numpy / native are one product, three spellings."""

    def test_auto_and_numpy_bit_identical(self, prepared_continuous):
        digests = {
            backend: result_digest(track_dense(prepared_continuous, backend=backend))
            for backend in ("auto", "numpy")
        }
        assert digests["auto"] == digests["numpy"]

    @pytest.mark.skipif(not native_available(), reason="native kernel unavailable")
    def test_native_bit_identical(self, prepared_continuous):
        assert result_digest(
            track_dense(prepared_continuous, backend="native")
        ) == result_digest(track_dense(prepared_continuous, backend="numpy"))

    def test_semifluid_bit_identical(self, prepared_semifluid):
        assert result_digest(
            track_dense(prepared_semifluid, backend="numpy")
        ) == result_digest(track_dense(prepared_semifluid, backend="auto"))

    def test_unknown_backend_rejected(self, prepared_continuous):
        for backend in ("cuda", "device"):
            with pytest.raises(ValueError, match="backend"):
                track_dense(prepared_continuous, backend=backend)
