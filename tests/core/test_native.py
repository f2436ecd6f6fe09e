"""Native Gaussian-elimination kernel: strict bit-identity with NumPy.

The native path is an *optimization*, never a semantic change: every
test here demands bit-pattern equality (including negative zeros, NaN
placement and singular flags) between the C kernel and the NumPy
reference it shadows.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.continuous import N_FIELDS, pointwise_fields, solve_accumulated
from repro.core.linalg import gaussian_eliminate
from repro.native import native_available, native_gauss_eliminate, native_status

needs_native = pytest.mark.skipif(
    not native_available(), reason=f"native kernel unavailable: {native_status()}"
)


def _adversarial_batch(m: int = 256, n: int = 6, seed: int = 3):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n, n)) * np.exp(rng.normal(scale=5.0, size=(m, 1, 1)))
    b = rng.normal(size=(m, n))
    a[0] = 0.0
    a[1, 2] = a[1, 3]  # rank deficient
    a[2, 1, 1] = np.nan
    a[3, 0, 0] = np.inf
    a[4, :, 0] = 0.0  # pivot failure in the first column
    a[5] *= 1e-300  # near-denormal pivots
    a[6] *= 1e300  # huge dynamic range
    return a, b


@needs_native
class TestBitIdentity:
    def test_random_batch(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(512, 6, 6))
        b = rng.normal(size=(512, 6))
        x_np, s_np = gaussian_eliminate(a, b, prefer_native=False)
        x_c, s_c = native_gauss_eliminate(a, b)
        assert x_np.tobytes() == x_c.tobytes()  # bit-pattern, signs of zero included
        np.testing.assert_array_equal(s_np, s_c)

    def test_adversarial_batch(self):
        a, b = _adversarial_batch()
        with np.errstate(all="ignore"):
            x_np, s_np = gaussian_eliminate(a, b, prefer_native=False)
            x_c, s_c = native_gauss_eliminate(a, b)
        assert x_np.tobytes() == x_c.tobytes()
        np.testing.assert_array_equal(s_np, s_c)

    def test_various_orders(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 3, 5, 6, 9, 12, 20, 33):
            a = rng.normal(size=(32, n, n))
            b = rng.normal(size=(32, n))
            x_np, _ = gaussian_eliminate(a, b, prefer_native=False)
            x_c, _ = native_gauss_eliminate(a, b)
            assert x_np.tobytes() == x_c.tobytes(), f"order {n} mismatch"

    def test_empty_batch(self):
        x, s = native_gauss_eliminate(
            np.zeros((0, 6, 6)), np.zeros((0, 6))
        )
        assert x.shape == (0, 6) and s.shape == (0,)

    def test_dispatch_uses_native_by_default(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 6, 6))
        b = rng.normal(size=(8, 6))
        via_dispatch = gaussian_eliminate(a, b)
        direct = native_gauss_eliminate(a, b)
        assert via_dispatch[0].tobytes() == direct[0].tobytes()


def _adversarial_planes(height: int = 6, width: int = 7, seed: int = 4) -> np.ndarray:
    """Packed fields as 28 contiguous ``(H, W)`` planes, with traps.

    Most systems are real template sums (summed pointwise fields of
    random samples, so well conditioned); the rest are singular, carry
    a NaN pivot, an infinity or signed zeros, or have a constant term
    low enough that the minimized error goes negative and is clamped.
    """
    rng = np.random.default_rng(seed)
    p, q, pa, qa = rng.normal(scale=0.5, size=(4, height, width, 25))
    fields = pointwise_fields(p, q, pa, qa, 1 + p * p, 1 + q * q).sum(axis=-2)
    planes = np.ascontiguousarray(np.moveaxis(fields, -1, 0))
    planes[:, 0, 0] = 0.0
    planes[[0, 6, 11, 15, 18, 20], 0, 0] = -1e-9  # singular once the ridge is added
    planes[:, 0, 1] = -0.0  # every entry -0.0: singular without a ridge
    # Diagonal system with -0.0 off the diagonal and a +0.0 gradient: the
    # ridge turns the off-diagonals into +0.0, which the signs of the
    # zero solution show.
    planes[:, 0, 2] = -0.0
    planes[[0, 6, 11, 15, 18, 20], 0, 2] = 2.0
    planes[N_FIELDS - 7 : N_FIELDS - 1, 0, 2] = 0.0
    planes[N_FIELDS - 1, 0, 2] = 1.0
    planes[5, 0, 3] = np.nan  # NaN pivot
    planes[0, 0, 4] = np.inf  # infinite pivot
    planes[23, 0, 5] = np.inf  # infinite gradient
    planes[27, 0, 6] = np.nan  # NaN constant
    planes[27, 1, :] = -1e3  # minimized error negative: clamped to +0.0
    planes[:, 2, 0] = rng.normal(size=28)  # indefinite, any sign
    return planes


def _solution_bytes(solution) -> tuple[bytes, bytes, bytes]:
    return (
        np.ascontiguousarray(solution.params).tobytes(),
        np.ascontiguousarray(solution.error).tobytes(),
        np.ascontiguousarray(solution.singular).tobytes(),
    )


class TestStridedSolve:
    """``solve_accumulated`` reads any ``(..., 28)`` view: same bits for all."""

    PREFER_NATIVE = [
        False,
        pytest.param(True, marks=needs_native),
    ]

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    @pytest.mark.parametrize("prefer_native", PREFER_NATIVE)
    def test_plane_major_contiguous_and_gathered_agree(self, prefer_native, ridge):
        planes = _adversarial_planes()
        view = np.moveaxis(planes, 0, -1)  # (H, W, 28) over plane-major storage
        contiguous = np.ascontiguousarray(view)
        assert not view.flags.c_contiguous and contiguous.flags.c_contiguous
        with np.errstate(all="ignore"):
            reference = solve_accumulated(contiguous, ridge=ridge, prefer_native=False)
            got_view = solve_accumulated(view, ridge=ridge, prefer_native=prefer_native)
            got_copy = solve_accumulated(contiguous, ridge=ridge, prefer_native=prefer_native)
            survivors = np.array([40, 0, 6, 3, 1, 9, 5, 2, 4, 17])
            gathered = view.reshape(-1, N_FIELDS)[survivors]
            got_gather = solve_accumulated(gathered, ridge=ridge, prefer_native=prefer_native)
            taken = np.take(planes.reshape(N_FIELDS, -1), survivors, axis=1).T
            got_take = solve_accumulated(taken, ridge=ridge, prefer_native=prefer_native)
        expected = _solution_bytes(reference)
        assert _solution_bytes(got_view) == expected
        assert _solution_bytes(got_copy) == expected
        flat = reference.params.reshape(-1, 6)[survivors]
        rows = (
            flat.tobytes(),
            reference.error.ravel()[survivors].tobytes(),
            reference.singular.ravel()[survivors].tobytes(),
        )
        assert _solution_bytes(got_gather) == rows
        assert _solution_bytes(got_take) == rows

    def test_batch_has_every_trap(self):
        planes = _adversarial_planes()
        with np.errstate(all="ignore"):
            solution = solve_accumulated(np.moveaxis(planes, 0, -1), prefer_native=False)
            unridged = solve_accumulated(np.moveaxis(planes, 0, -1), ridge=0.0,
                                         prefer_native=False)
        assert solution.singular[0, 0] and unridged.singular[0, 1]
        assert np.isnan(solution.error[0, 3]) or np.isnan(solution.params[0, 3]).any()
        assert np.isnan(solution.error[0, 6])
        clamped = solution.error[1] == 0.0
        assert clamped.any() and not solution.singular[1][clamped].any()
        assert not np.signbit(solution.error[1][clamped]).any()

    @pytest.mark.parametrize("prefer_native", PREFER_NATIVE)
    def test_wrong_width_rejected(self, prefer_native):
        with pytest.raises(ValueError, match="28 packed fields"):
            solve_accumulated(np.zeros((3, 27)), prefer_native=prefer_native)


class TestBuildCacheKey:
    """The build cache must key on compiler identity + flags, not just source."""

    def test_cc_change_invalidates_build_cache(self, tmp_path, monkeypatch):
        """Changing CC must rebuild, not silently reuse another compiler's .so."""
        from repro import native

        marker = tmp_path / "fake-cc-ran"
        fake_cc = tmp_path / "fake-cc"
        fake_cc.write_text(f'#!/bin/sh\ntouch "{marker}"\nexec cc "$@"\n')
        fake_cc.chmod(0o755)

        monkeypatch.delenv("CC", raising=False)
        baseline = native._compile()
        assert baseline.exists()

        monkeypatch.setenv("CC", str(fake_cc))
        rebuilt = native._compile()
        assert rebuilt != baseline, (
            "same cache entry served for a different compiler -- stale .so reuse"
        )
        assert marker.exists(), "the new CC was never invoked"

        # Same compiler again: the cache must hit (no recompile).
        marker.unlink()
        assert native._compile() == rebuilt
        assert not marker.exists()

    def test_cflags_participate_in_cache_key(self, monkeypatch):
        from repro import native

        monkeypatch.delenv("CC", raising=False)
        baseline = native._compile()
        monkeypatch.setattr(native, "_CFLAGS", [*native._CFLAGS, "-DSOME_FLAG"])
        assert native._compile() != baseline


class TestLoadRetry:
    """Transient build failures must not disable the kernel forever."""

    @pytest.fixture(autouse=True)
    def _fresh_loader_state(self):
        from repro import native

        native.reset()
        yield
        native.reset()

    def test_transient_failure_is_retried(self, monkeypatch):
        from repro import native

        real_compile = native._compile
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("no space left on device")
            return real_compile()

        monkeypatch.setattr(native, "_compile", flaky)
        assert not native.native_available()
        assert "no space left" in native._state[1]
        # The next probe retries instead of serving the memoized failure.
        assert native.native_available()
        assert calls["n"] == 2

    def test_transient_retries_are_bounded(self, monkeypatch):
        from repro import native

        calls = {"n": 0}

        def always_fails():
            calls["n"] += 1
            raise OSError("no space left on device")

        monkeypatch.setattr(native, "_compile", always_fails)
        for _ in range(10):
            assert not native.native_available()
        assert calls["n"] == native._TRANSIENT_ATTEMPT_LIMIT
        assert "giving up" in native.native_status()

    def test_self_check_failure_is_permanent(self, monkeypatch):
        from repro import native

        calls = {"n": 0}

        def broken_check(lib):
            calls["n"] += 1
            raise AssertionError("kernel disagrees with reference")

        monkeypatch.setattr(native, "_self_check", broken_check)
        assert not native.native_available()
        assert not native.native_available()
        assert calls["n"] == 1, "a wrong kernel must not be re-probed"

    def test_disagreeing_solve_packed_is_refused_permanently(self, monkeypatch):
        from repro import native

        real_call = native._call_solve_packed
        calls = {"n": 0}

        def off_by_one_ulp(lib, fields, ridge):
            calls["n"] += 1
            params, error, singular = real_call(lib, fields, ridge)
            return params, np.nextafter(error, np.inf), singular

        monkeypatch.setattr(native, "_call_solve_packed", off_by_one_ulp)
        assert not native.native_available()
        assert "solve_packed disagrees" in native.native_status()
        assert not native.native_available()
        assert calls["n"] == 1, "a wrong kernel must not be re-probed"

    def test_reset_clears_the_outcome(self, monkeypatch):
        from repro import native

        def always_fails():
            raise AssertionError("pretend the self-check failed")

        monkeypatch.setattr(native, "_compile", always_fails)
        assert not native.native_available()
        monkeypatch.undo()
        # Permanent failure stays memoized until reset() is called.
        assert not native.native_available()
        native.reset()
        assert native.native_available()


def test_env_opt_out_falls_back_to_numpy():
    """REPRO_NATIVE=0 must disable the kernel without changing results."""
    code = (
        "import numpy as np\n"
        "from repro.native import native_available, native_status\n"
        "from repro.core.linalg import gaussian_eliminate\n"
        "assert not native_available(), native_status()\n"
        "assert 'REPRO_NATIVE' in native_status()\n"
        "rng = np.random.default_rng(2)\n"
        "x, s = gaussian_eliminate(rng.normal(size=(4, 6, 6)), rng.normal(size=(4, 6)))\n"
        "print(x.sum())\n"
    )
    env = dict(os.environ, REPRO_NATIVE="0")
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
