"""Publish a looped Frederic 64 px sequence into a frame ring at a fixed cadence.

    python3 perfbench/ingest_proc.py --ring NAME --seed S --frames N --out PATH

This is ``repro ingest synthetic:frederic`` (the production
:class:`~repro.bus.ingest.IngestDaemon`, fitting each frame before it is
published, one frame every :data:`CADENCE` seconds) with one addition:
each frame is stamped with the wall time it is handed to the ring, and
the time ``publish_frame`` takes is recorded.  On exit -- end of the sequence or SIGTERM -- the stamps are
written to ``PATH`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

SIZE = 64
#: Distinct frames of the looped sequence.
LOOP_FRAMES = 8
#: Seconds between published frames; the consumer needs under half.
CADENCE = 0.4


def source(seed: int, frames: int):
    from repro.bus.ingest import SyntheticSource

    return SyntheticSource(dataset="frederic", size=SIZE, n_frames=LOOP_FRAMES, seed=seed,
                           max_frames=frames)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--ring", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--frames", type=int, required=True)
    parser.add_argument("--linger", type=float, default=0.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from repro.bus.ingest import IngestDaemon
    from repro.bus.ring import FrameRing

    stamps: list[float] = []
    publish_seconds: list[float] = []
    publish_frame = FrameRing.publish_frame

    def stamped(self, *a, **k):
        stamps.append(time.time())
        t0 = time.perf_counter()
        try:
            return publish_frame(self, *a, **k)
        finally:
            publish_seconds.append(time.perf_counter() - t0)

    FrameRing.publish_frame = stamped
    daemon = IngestDaemon(args.ring, source(args.seed, args.frames), capacity=16,
                          cadence_seconds=CADENCE, linger_seconds=args.linger, prep=True)
    signal.signal(signal.SIGTERM, lambda signum, frame: daemon.stop())
    try:
        daemon.run()
    finally:
        Path(args.out).write_text(json.dumps({
            "published": daemon.published, "stamps": stamps,
            "publish_seconds": publish_seconds,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
