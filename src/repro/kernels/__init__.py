"""Backend-neutral hypothesis kernels and their orchestration layer.

The SMA hypothesis-evaluation chain -- residual rows, packed
normal-equation fields, template box sums, certificate-grid window sums
and the batched 6x6 Gaussian elimination -- lives here, decoupled from
the search orchestration in :mod:`repro.core.matching`.  Two
executions plug into the same chain:

* :mod:`repro.kernels.reference` -- the serial NumPy path; THE
  bit-identity reference the native kernel answers to.
* :mod:`repro.native` -- the C kernels for the batched eliminate and
  the fused solve of packed fields, bitwise-equal by construction and
  cross-checked on load.

:func:`resolve_backend` is the single selection point.  Backend names
(:data:`repro.options.BACKENDS`):

* ``"auto"`` (default) -- exactly the historical behavior: the native
  eliminate when it is available and passes its self-check, the NumPy
  reference otherwise.  Bit-identical either way.
* ``"numpy"`` -- pin the pure NumPy reference (benchmarks use this to
  time the pre-native behavior honestly).
* ``"native"`` -- require the native eliminate; raises with the
  :func:`repro.native.native_status` reason when it is unavailable
  instead of silently degrading.

Every resolution increments the ``kernel.backend.<resolved>`` metric so
runs record which kernels actually executed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.metrics import METRICS
from ..options import BACKENDS
from .digest import field_digest, result_digest
from .reference import (
    A1_ZERO_COLUMNS,
    A2_ZERO_COLUMNS,
    N_FIELDS,
    N_PARAMS,
    N_TRIU,
    PARAM_NAMES,
    SINGULAR_TOLERANCE,
    TRIU_INDICES,
    box_sum,
    box_sum_rect,
    box_sum_stack,
    eliminate,
    pointwise_fields,
    residual_rows,
    strided_window_sums,
)

__all__ = [
    "A1_ZERO_COLUMNS",
    "A2_ZERO_COLUMNS",
    "N_FIELDS",
    "N_PARAMS",
    "N_TRIU",
    "PARAM_NAMES",
    "SINGULAR_TOLERANCE",
    "TRIU_INDICES",
    "ResolvedBackend",
    "box_sum",
    "box_sum_rect",
    "box_sum_stack",
    "eliminate",
    "field_digest",
    "pointwise_fields",
    "residual_rows",
    "resolve_backend",
    "result_digest",
    "strided_window_sums",
]


@dataclass(frozen=True)
class ResolvedBackend:
    """Outcome of one :func:`resolve_backend` call.

    ``requested`` is the caller's name; ``resolved`` is the execution
    path actually taken (``"numpy"`` or ``"native"``).
    ``prefer_native`` feeds :func:`repro.core.linalg.gaussian_eliminate`
    dispatch.
    """

    requested: str
    resolved: str
    prefer_native: bool


def resolve_backend(name: str = "auto") -> ResolvedBackend:
    """Validate a backend name and bind it to an execution path."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r} (choose from {', '.join(BACKENDS)})"
        )
    if name == "native":
        from ..native import native_available, native_status

        if not native_available():
            raise RuntimeError(
                f"backend='native' requested but the native kernel is "
                f"unavailable: {native_status()}"
            )
        backend = ResolvedBackend(requested=name, resolved="native", prefer_native=True)
    elif name == "numpy":
        backend = ResolvedBackend(requested=name, resolved="numpy", prefer_native=False)
    else:  # auto: historical dispatch, native when usable
        from ..native import native_available

        resolved = "native" if native_available() else "numpy"
        backend = ResolvedBackend(requested=name, resolved=resolved, prefer_native=True)
    METRICS.inc(f"kernel.backend.{backend.resolved}")
    return backend
