"""Pinned fingerprint tokens for every bit-identical search/backend pair.

Checkpoints, cache entries and queue journals written by earlier runs
carry these exact strings.  If any of them changes, an old checkpoint
stops resuming, an old cache entry stops hitting, or a journalled job
stops deduplicating -- so the values are literals, not recomputed.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core.sma import Frame
from repro.params import GOES9_CONFIG
from repro.reliability.checkpoint import load_checkpoint
from repro.serve.cache import result_key
from repro.serve.jobs import JobRequest

COMBOS = [
    (search, backend)
    for search in ("exhaustive", "pruned")
    for backend in ("auto", "numpy", "native")
]

RESULT_KEYS = {
    ("exhaustive", "auto"): "6411f30690163e5913261b673a080ef98131147d",
    ("exhaustive", "numpy"): "56bced106a34fbe524f9f0a367092526e2e0152a",
    ("exhaustive", "native"): "43dac06efffb4a113dc23f512bef62712cd65d8f",
    ("pruned", "auto"): "363504065865c446c81ef010aab146616c48fb82",
    ("pruned", "numpy"): "5018b91a8b9d97009f9acb1eb19200781707f5b7",
    ("pruned", "native"): "4920a2524568d599a6695c2c92367c9a2a475a42",
}

_CHECKPOINT_BASE = "goes9-florida:w2zs1zt2ss0st2|24x24|1|no-faults"
CHECKPOINT_FINGERPRINTS = {
    ("exhaustive", "auto"): _CHECKPOINT_BASE,
    ("exhaustive", "numpy"): _CHECKPOINT_BASE + "|backend=numpy",
    ("exhaustive", "native"): _CHECKPOINT_BASE + "|backend=native",
    ("pruned", "auto"): _CHECKPOINT_BASE + "|search=pruned",
    ("pruned", "numpy"): _CHECKPOINT_BASE + "|search=pruned|backend=numpy",
    ("pruned", "native"): _CHECKPOINT_BASE + "|search=pruned|backend=native",
}

JOB_FINGERPRINTS = {
    ("exhaustive", "auto"): "10488d33e844f0d00c93828237f8fce4",
    ("exhaustive", "numpy"): "907030cf16ac1ee4cc3e222be253c8c1",
    ("exhaustive", "native"): "e6a53f36f006b779c0ad93c5335ca047",
    ("pruned", "auto"): "1d4066e20a8ca556627a62b87d9ddb53",
    ("pruned", "numpy"): "5211e1d406d33842c49d63b9cfb64141",
    ("pruned", "native"): "b6a8544213d867803ba8f17e9af14f11",
}


def _two_frames():
    yy, xx = np.mgrid[0:20, 0:20].astype(np.float64)
    return [
        Frame(np.sin(0.3 * xx + 0.2 * yy + k), time_seconds=60.0 * k) for k in range(2)
    ]


@pytest.mark.parametrize("search,backend", COMBOS)
def test_result_key_pinned(search, backend):
    key = result_key(_two_frames(), GOES9_CONFIG, 1.0, search=search, backend=backend)
    assert key == RESULT_KEYS[search, backend]


@pytest.mark.parametrize("search,backend", COMBOS)
def test_stream_checkpoint_fingerprint_pinned(tmp_path, capsys, search, backend):
    path = str(tmp_path / "ck.npz")
    assert main([
        "stream", "florida", "--size", "24", "--frames", "2",
        "--search", "1", "--template", "2",
        "--search-mode", search, "--backend", backend,
        "--checkpoint", path, "--stop-after", "1",
    ]) == 0
    assert load_checkpoint(path).fingerprint == CHECKPOINT_FINGERPRINTS[search, backend]


@pytest.mark.parametrize("search,backend", COMBOS)
def test_job_fingerprint_pinned(search, backend):
    request = JobRequest(dataset="florida", search_mode=search, backend=backend)
    assert request.fingerprint() == JOB_FINGERPRINTS[search, backend]
