"""Provenance of a result: the host block and the code it ran."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_block() -> dict:
    """What must match for two results to be comparable.

    Native status is probed in this process, after the workload ran, so
    it reports what the workload actually used.
    """
    import numpy
    import scipy

    from repro.native import native_status

    return {
        "cpus": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "native": native_status(),
        "REPRO_NATIVE": os.environ.get("REPRO_NATIVE"),
    }


def source_digest(root: Path) -> str:
    """Digest of every file under ``src/`` that git would commit."""
    h = hashlib.blake2b(digest_size=12)
    src = root / "src"
    for path in sorted(src.rglob("*")):
        rel = path.relative_to(src)
        if not path.is_file() or "__pycache__" in rel.parts or "_build" in rel.parts:
            continue
        if path.suffix in (".pyc", ".so"):
            continue
        h.update(str(rel).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def commit(root: Path) -> str | None:
    """The git commit of ``root``, or None outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(root: Path) -> dict:
    return {"commit": commit(root), "src_digest": source_digest(root)}
