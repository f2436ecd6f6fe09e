"""Content-addressed result cache for served wind products.

Keys are **content** addresses, not request addresses: a digest of the
frame fingerprints (:func:`repro.core.prep.frame_fingerprint` -- raw
pixel bytes plus the fit window) together with every SMA parameter
that shapes the product (search/template widths, model selection, dt,
ground sample distance, job kind).  Two requests that resolve to the
same frames and parameters share one entry even if their request
payloads differ, and any parameter change misses -- the cached field
IS the field the computation would produce.

Artifacts are ``MotionField`` ``.npz`` archives written through
:func:`repro.ioutil.atomic_savez` (a crash never leaves a truncated
artifact), and the LRU index is itself persisted atomically so a
restarted server keeps its warm cache.  Eviction is by byte budget:
least-recently-used entries fall off until the artifact bytes fit.

**Fleet sharing.**  A fleet of serve nodes points every node at the
same cache root, and the *disk* -- not any node's in-memory index --
is the source of truth.  Publication is single-writer-wins: artifacts
land via ``os.replace`` of a unique temp file, so two nodes racing to
publish the same key leave exactly one complete artifact (and since
the product is a pure function of the key's content, the bytes are
identical whichever writer wins -- the loser detects the race, counts
``serve.cache.races``, and skips its redundant write).  A lookup that
misses the local index but finds the artifact on disk **adopts** the
other node's publication (``serve.cache.adopted``) and serves it as a
hit: a product computed on any node is a cache hit on every node.
Index files are per-node last-writer-wins and self-healing -- a lost
index entry is re-adopted from disk on the next lookup.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from typing import Sequence

from ..core.field import MotionField
from ..core.prep import frame_fingerprint
from ..core.sma import Frame
from ..ioutil import atomic_write_text
from ..obs.metrics import METRICS
from ..options import TrackOptions
from ..params import NeighborhoodConfig

#: On-disk schema version for the persisted cache index.
INDEX_VERSION = 1


def result_key(
    frames: Sequence[Frame],
    config: NeighborhoodConfig,
    pixel_km: float,
    kind: str = "pair",
    search: str = "exhaustive",
    backend: str = "auto",
) -> str:
    """Content address of one product: frame fingerprints + SMA params.

    The per-frame fingerprint already covers the pixel bytes and the
    fit half-width ``n_w``; the remaining dimensions of the product --
    the search/template neighborhoods, the semi-fluid windows, the
    frame timestamps (they set dt, hence wind speeds), the ground
    sample distance, the product kind, and the hypothesis schedule and
    kernel backend (:meth:`repro.options.TrackOptions.cache_token`) --
    are digested alongside.
    """
    options = TrackOptions(search, backend)
    h = hashlib.blake2b(digest_size=20)
    c = config
    h.update(
        f"kind={kind};cfg={c.name};zs={c.n_zs};zt={c.n_zt};"
        f"ss={c.n_ss};st={c.n_st};pixel_km={pixel_km!r};"
        f"{options.cache_token()}".encode()
    )
    for frame in frames:
        h.update(frame_fingerprint(frame.surface, frame.intensity, config).encode())
        h.update(f"@t={frame.time_seconds!r};".encode())
    return h.hexdigest()


class ResultCache:
    """LRU cache of motion-field artifacts under a byte budget."""

    def __init__(self, root: str, max_bytes: int = 256 * 1024 * 1024) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.root = root
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        #: key -> artifact size in bytes, insertion order == LRU order.
        self._index: OrderedDict[str, int] = OrderedDict()
        os.makedirs(root, exist_ok=True)
        self._restore()

    # -- lookup/store -----------------------------------------------------------------

    def get(self, key: str, record: bool = True) -> MotionField | None:
        """The cached field, or None; a hit refreshes LRU recency.

        ``record=False`` skips the hit/miss metrics -- product-read
        lookups use it so the ``serve.cache.*`` counters measure only
        whether *job executions* were spared recomputation.
        """
        with self._lock:
            size = self._index.get(key)
            path = self._artifact_path(key)
            if size is None and os.path.exists(path):
                # Published by another fleet node: adopt its artifact.
                size = self._adopt_locked(key, path)
            if size is None or not os.path.exists(path):
                if size is not None:
                    # Artifact vanished underneath the index (operator
                    # cleanup or a peer's eviction); drop the stale
                    # entry rather than 500.
                    del self._index[key]
                    self._persist_index()
                if record:
                    METRICS.inc("serve.cache.miss")
                return None
            self._index.move_to_end(key)
            self._persist_index()
        if record:
            METRICS.inc("serve.cache.hit")
        return MotionField.load(path)

    def put(self, key: str, field: MotionField) -> str:
        """Store one product; evicts LRU entries over the byte budget.

        Single-writer-wins across the fleet: when the artifact already
        exists on disk another node published this key first, and
        (because the product is a pure function of the content address)
        its bytes are the bytes we would write -- so the write is
        skipped and the existing artifact adopted instead of replaced.
        """
        path = self._artifact_path(key)
        if os.path.exists(path):
            METRICS.inc("serve.cache.races")
        else:
            field.save(path)
        size = os.path.getsize(path)
        with self._lock:
            self._index[key] = size
            self._index.move_to_end(key)
            while self.total_bytes_locked() > self.max_bytes and len(self._index) > 1:
                old_key, _ = self._index.popitem(last=False)
                self._remove_artifact(old_key)
                METRICS.inc("serve.cache.evictions")
            self._persist_index()
            METRICS.set_gauge("serve.cache.bytes", float(self.total_bytes_locked()))
            METRICS.set_gauge("serve.cache.entries", float(len(self._index)))
        return path

    def contains(self, key: str) -> bool:
        """Resident locally *or published by any fleet node* (disk is
        the source of truth; an on-disk artifact is adopted)."""
        with self._lock:
            if key in self._index:
                return True
            path = self._artifact_path(key)
            if os.path.exists(path):
                self._adopt_locked(key, path)
                return True
            return False

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def total_bytes(self) -> int:
        with self._lock:
            return self.total_bytes_locked()

    def total_bytes_locked(self) -> int:
        return sum(self._index.values())

    def artifact_path(self, key: str) -> str | None:
        """Path of a cached artifact, or None if not published anywhere
        in the fleet (peer publications are adopted on sight)."""
        with self._lock:
            path = self._artifact_path(key)
            if key not in self._index:
                if not os.path.exists(path):
                    return None
                self._adopt_locked(key, path)
        return path

    # -- persistence ------------------------------------------------------------------

    def _index_path(self) -> str:
        return os.path.join(self.root, "index.json")

    def _artifact_path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.npz")

    def _persist_index(self) -> None:
        payload = {
            "version": INDEX_VERSION,
            "max_bytes": self.max_bytes,
            "entries": [[key, size] for key, size in self._index.items()],
        }
        atomic_write_text(self._index_path(), json.dumps(payload, sort_keys=True))

    def _restore(self) -> None:
        path = self._index_path()
        if not os.path.exists(path):
            return
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("version") != INDEX_VERSION:
            return  # incompatible index: start cold, artifacts get rewritten
        for key, size in payload.get("entries", []):
            if os.path.exists(self._artifact_path(key)):
                self._index[key] = int(size)
        METRICS.set_gauge("serve.cache.entries", float(len(self._index)))

    def _adopt_locked(self, key: str, path: str) -> int | None:
        """Index an artifact another fleet node published (lock held)."""
        try:
            size = os.path.getsize(path)
        except OSError:
            return None  # evicted between the exists check and here
        self._index[key] = size
        self._persist_index()
        METRICS.inc("serve.cache.adopted")
        METRICS.set_gauge("serve.cache.entries", float(len(self._index)))
        return size

    def _remove_artifact(self, key: str) -> None:
        try:
            os.unlink(self._artifact_path(key))
        except OSError:
            pass
