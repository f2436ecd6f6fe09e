"""Shared fixtures: deterministic textured frames, configurations, datasets.

Session-scoped fixtures cache the expensive artifacts (datasets, dense
tracking runs) so the suite stays fast while many tests share them.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy import ndimage

from repro import NeighborhoodConfig, SMAnalyzer
from repro.core.matching import prepare_frames
from repro.data import florida_thunderstorm, hurricane_frederic, hurricane_luis


#: Wall-time budget for one tier-1 test's call phase.  The slowest
#: test takes ~8 s on a 2-CPU host; a test that waits out a lease or a
#: drain timeout instead of taking a fast path fails here rather than
#: passing slowly.
CALL_BUDGET_SECONDS = 20.0


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    started = time.perf_counter()
    result = yield
    elapsed = time.perf_counter() - started
    if elapsed > CALL_BUDGET_SECONDS:
        pytest.fail(
            f"{item.nodeid} took {elapsed:.1f} s, over the "
            f"{CALL_BUDGET_SECONDS:g} s tier-1 budget",
            pytrace=False,
        )
    return result


def translated_pair(
    size: int = 64, dx: int = 2, dy: int = -1, seed: int = 42, smoothing: float = 1.5
) -> tuple[np.ndarray, np.ndarray]:
    """A textured frame and its exact integer translation.

    Truth: pixel (x, y) of frame0 appears at (x + dx, y + dy) in frame1.
    """
    rng = np.random.default_rng(seed)
    pad = max(abs(dx), abs(dy)) + 4
    base = ndimage.gaussian_filter(rng.normal(size=(size + 2 * pad, size + 2 * pad)), smoothing)
    f0 = base[pad : pad + size, pad : pad + size].copy()
    f1 = base[pad - dy : pad - dy + size, pad - dx : pad - dx + size].copy()
    return f0, f1


@pytest.fixture(scope="session")
def small_continuous_config() -> NeighborhoodConfig:
    return NeighborhoodConfig(n_w=2, n_zs=2, n_zt=3, n_ss=0, name="test-continuous")


@pytest.fixture(scope="session")
def small_semifluid_config() -> NeighborhoodConfig:
    return NeighborhoodConfig(n_w=2, n_zs=2, n_zt=3, n_ss=1, n_st=2, name="test-semifluid")


@pytest.fixture(scope="session")
def translation_frames() -> tuple[np.ndarray, np.ndarray]:
    """64x64 pair, truth (u, v) = (2, -1)."""
    return translated_pair(size=64, dx=2, dy=-1, seed=42)


@pytest.fixture(scope="session")
def prepared_continuous(translation_frames, small_continuous_config):
    f0, f1 = translation_frames
    return prepare_frames(f0, f1, small_continuous_config)


@pytest.fixture(scope="session")
def prepared_semifluid(translation_frames, small_semifluid_config):
    f0, f1 = translation_frames
    return prepare_frames(f0, f1, small_semifluid_config)


@pytest.fixture(scope="session")
def florida_dataset():
    return florida_thunderstorm(size=80, n_frames=3, seed=7)


@pytest.fixture(scope="session")
def frederic_dataset():
    return hurricane_frederic(size=96, n_frames=2, seed=3)


@pytest.fixture(scope="session")
def luis_dataset():
    return hurricane_luis(size=80, n_frames=3, seed=11)


@pytest.fixture(scope="session")
def florida_field(florida_dataset):
    """Dense field on the Florida pair with a reduced search/template."""
    cfg = florida_dataset.config.replace(n_zs=3, n_zt=4)
    analyzer = SMAnalyzer(cfg, pixel_km=florida_dataset.pixel_km)
    return analyzer.track_pair(florida_dataset.frames[0], florida_dataset.frames[1])


@pytest.fixture()
def quadratic_surface() -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """An exact quadratic z(x, y) and its analytic derivatives."""
    h, w = 24, 28
    yy, xx = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    z = 3.0 + 0.5 * xx - 0.25 * yy + 0.01 * xx * xx - 0.02 * xx * yy + 0.03 * yy * yy
    truth = {
        "zx": 0.5 + 0.02 * xx - 0.02 * yy,
        "zy": -0.25 - 0.02 * xx + 0.06 * yy,
        "zxx": np.full((h, w), 0.02),
        "zxy": np.full((h, w), -0.02),
        "zyy": np.full((h, w), 0.06),
    }
    return z, truth
