"""Literal digest pins of the dense products.

``TestBitwiseFamily`` proves that the backends agree with each other;
these tests prove that they still agree with the bits the search
produced when the pins were taken.  A layout or kernel change that
moves every backend the same way fails here.  A digest may change only
on purpose, with the reason recorded in CHANGES.md.

The pins are IEEE-754 bit patterns of NumPy/SciPy arithmetic: they hold
on any host whose libraries round the same way (x86-64, NumPy 2.x,
SciPy 1.x).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.matching import prepare_frames, track_dense
from repro.data import datasets
from repro.extensions.subpixel import track_dense_with_volume
from repro.kernels import result_digest
from repro.maspar.machine import scaled_machine
from repro.native import native_available
from repro.options import TrackOptions
from repro.params import SMALL_CONFIG
from repro.parallel.parallel_sma import PHASE_MATCHING, ParallelSMA

#: ``track_dense`` on Hurricane Luis, 64 px, seed 0 (exhaustive and
#: pruned are bit-identical, so one digest covers both).
LUIS64_DIGEST = "3ed9e8a422b49be60b9fcea48dd50910"
LUIS64_PRUNED_GE_SOLVES = 133173
LUIS64_PRUNED_HYPOTHESES = 227483

#: ``track_dense(search="pyramid")`` on the same pair (default levels
#: and refine): approximate by design, so it has its own digest.
LUIS64_PYRAMID_DIGEST = "483ae5fffeb961eb6d916bec97a73234"
LUIS64_PYRAMID_GE_SOLVES = 62454
LUIS64_PYRAMID_HYPOTHESES = 34

#: The ``(2N_zs+1, 2N_zs+1, H, W)`` hypothesis error volume that
#: ``track_dense_with_volume`` keeps for sub-pixel refinement.
LUIS64_VOLUME_DIGEST = "27c0c800278f86ed2c9b1a2f9d793a9c"

#: ``ParallelSMA.track_pair`` with ``SMALL_CONFIG`` (semi-fluid) on a
#: Hurricane Frederic 48 px pair, seed 0, on an 8x8 PE array.
FREDERIC48_SMALL_DIGEST = "46048fd5cf64ccf38d6629b04c2fd62b"
FREDERIC48_PRUNED_MATCHING_GE = 51625

BACKENDS = [
    "auto",
    "numpy",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(not native_available(), reason="native kernel unavailable"),
    ),
]


@pytest.fixture(scope="module")
def luis64():
    ds = datasets.hurricane_luis(size=64, n_frames=2, seed=0)
    return prepare_frames(ds.frames[0].surface, ds.frames[1].surface, ds.config)


@pytest.fixture(scope="module")
def frederic48():
    ds = datasets.hurricane_frederic(size=48, n_frames=2, seed=0)
    return ds.frames[0], ds.frames[1]


@pytest.mark.parametrize("backend", BACKENDS)
def test_exhaustive_digest_is_pinned(luis64, backend):
    result = track_dense(luis64, search="exhaustive", backend=backend)
    assert result_digest(result) == LUIS64_DIGEST


@pytest.mark.parametrize("backend", BACKENDS)
def test_pruned_digest_and_counts_are_pinned(luis64, backend):
    result = track_dense(luis64, search="pruned", backend=backend)
    assert result_digest(result) == LUIS64_DIGEST
    assert result.ge_solves == LUIS64_PRUNED_GE_SOLVES
    assert result.hypotheses_pruned == LUIS64_PRUNED_HYPOTHESES


@pytest.mark.parametrize("backend", BACKENDS)
def test_pyramid_digest_and_counts_are_pinned(luis64, backend):
    result = track_dense(luis64, search="pyramid", backend=backend)
    assert result_digest(result) == LUIS64_PYRAMID_DIGEST
    assert result.ge_solves == LUIS64_PYRAMID_GE_SOLVES
    assert result.hypotheses_evaluated == LUIS64_PYRAMID_HYPOTHESES


def test_error_volume_digest_is_pinned(luis64):
    result, volume = track_dense_with_volume(luis64)
    assert result_digest(result) == LUIS64_DIGEST
    volume_bytes = np.ascontiguousarray(volume).tobytes()
    assert hashlib.blake2b(volume_bytes, digest_size=16).hexdigest() == LUIS64_VOLUME_DIGEST


@pytest.mark.parametrize("search", ["exhaustive", "pruned"])
def test_parallel_semifluid_digest_is_pinned(frederic48, search):
    driver = ParallelSMA(
        SMALL_CONFIG, machine=scaled_machine(8, 8), options=TrackOptions(search)
    )
    result = driver.track_pair(*frederic48)
    assert result_digest(result.field) == FREDERIC48_SMALL_DIGEST
    if search == "pruned":
        matching = result.ledger.phases[PHASE_MATCHING]
        assert matching.gaussian_eliminations == FREDERIC48_PRUNED_MATCHING_GE
