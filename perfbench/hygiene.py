"""Everything a run starts is stopped, and the run proves it.

:class:`Hygiene` owns the child processes and temporary directories of
one run.  :meth:`Hygiene.teardown` sends SIGTERM to every child still
running (SIGKILL after a grace period), sweeps stale ``repro-bus-*``
shared-memory segments with the bus's own collector, deletes the
temporary directories and then reports anything left behind: a child
process of this one, or a ring segment that did not exist before the
run.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import signal
import subprocess
import tempfile
from pathlib import Path

#: Seconds a child gets to exit after SIGTERM before it is killed.
TERM_GRACE = 30.0

_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:  # runs in the child between fork and exec
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


def child_pids(parent: int) -> list[int]:
    """Live processes whose parent is ``parent`` (from ``/proc``)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == parent and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size (VmHWM) of ``pid`` (default: this process)."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


class Hygiene:
    def __init__(self, workdir: Path) -> None:
        from repro.bus.ring import list_segments

        self.workdir = workdir
        self.children: list[subprocess.Popen] = []
        self.tmpdirs: list[Path] = []
        self.segments_before = set(list_segments())

    def spawn(self, argv, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, preexec_fn=_die_with_parent, **kwargs)
        self.children.append(proc)
        return proc

    def tmpdir(self, prefix: str) -> Path:
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = Path(tempfile.mkdtemp(prefix=prefix, dir=self.workdir))
        self.tmpdirs.append(path)
        return path

    @staticmethod
    def stop(proc: subprocess.Popen, grace: float = TERM_GRACE) -> int:
        """SIGTERM, wait up to ``grace`` seconds, then SIGKILL; returns the exit code."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(grace)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        return proc.returncode

    def teardown(self) -> list[str]:
        """Stop and remove everything; returns what was left behind."""
        from repro.bus.ring import gc_stale_segments, list_segments

        for proc in self.children:
            self.stop(proc)
        _stop_resource_tracker()
        gc_stale_segments()
        for path in self.tmpdirs:
            shutil.rmtree(path, ignore_errors=True)
        problems = [f"child process {pid} still running" for pid in child_pids(os.getpid())]
        problems += [
            f"shared-memory segment repro-bus-{name} left behind"
            for name in sorted(set(list_segments()) - self.segments_before)
        ]
        problems += [f"temporary directory {p} left behind" for p in self.tmpdirs if p.exists()]
        return problems


def _stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker that shared-memory attaches start.

    It would otherwise outlive the run by the moment it takes to notice
    this process exiting.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
