"""The continuous non-rigid motion model ``F_cont`` (Section 2.2).

Under the local affine transformation of eq. (6),

    x' = x + (a_i x + b_i y + x0)
    y' = y + (a_j x + b_j y + y0)
    z' = z + (a_k x + b_k y + z0),

a graph surface ``S(x, y) = (x, y, z(x, y))`` with gradients
``p = z_x`` and ``q = z_y`` has unnormalized normal ``N = (-p, -q, 1)``.
Differentiating the deformed surface ``S'(x, y) = (x+u, y+v, z+w)``
(with ``u, v, w`` the affine displacement components) and keeping terms
first order in the six motion parameters gives the *predicted* normal
after motion:

    N'_i ~= -p - a_k + a_j q - b_j p
    N'_j ~= -q - b_k + b_i p - a_i q
    N'_k ~= 1 + a_i + b_j

(the rigid translation (x0, y0, z0) drops out -- normals are
translation invariant -- leaving exactly the six unknowns
{a_i, b_i, a_j, b_j, a_k, b_k} of the paper).

The *observed* normal after motion ``[n'_i, n'_j, n'_k]`` is measured
from the quadratic patch fitted at the hypothesized corresponding
pixel; its gradient form is ``p' = -n'_i / n'_k`` and
``q' = -n'_j / n'_k``.  Scaling the observation so its k-component
matches the predicted ``1 + a_i + b_j`` and differencing the i- and
j-components yields residuals **linear** in the parameters:

    eps_1 = (1/E) [ (p' - p) + a_i p' + a_j q + b_j (p' - p) - a_k ]
    eps_2 = (1/G) [ (q' - q) + a_i (q' - q) + b_i p + b_j q'  - b_k ]

where ``E = 1 + p^2`` and ``G = 1 + q^2`` are the first-fundamental-
form coefficients the paper names in eqs. (4)-(5).  (The published
eqs. (4)-(5) are OCR-corrupted in our source; this derivation
reconstructs them from the same first-principles small-deformation
analysis of [8], and has the properties the paper requires: linearity
in the six parameters -- so the first-order optimality conditions are
one 6x6 Gaussian elimination -- zero residual under pure translation,
and 1/E, 1/G fundamental-form weighting.)

The template error of eq. (3),

    eps(x, y; x^, y^) = sum over template pixels of (eps_1^2 + eps_2^2),

is quadratic in the parameters; :func:`solve_accumulated` minimizes it
from accumulated normal-equation fields.  Because the accumulation is
a plain box sum over the template window, the dense matcher
(:mod:`repro.core.matching`) evaluates it for *all* pixels at once
with uniform filters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The residual-row / packed-field arithmetic lives in the backend-neutral
# kernels module; these re-exports keep the historical import surface.
from ..kernels.reference import (  # noqa: F401  (re-exported API)
    A1_ZERO_COLUMNS,
    A2_ZERO_COLUMNS,
    N_FIELDS,
    N_PARAMS,
    N_TRIU,
    PARAM_NAMES,
    TRIU_INDICES,
    pointwise_fields,
    residual_rows,
)
from .linalg import gaussian_eliminate


def predicted_normal(p, q, params):
    """First-order predicted unnormalized normal after the affine motion.

    Parameters may be scalars or broadcastable arrays; ``params`` has
    the order of :data:`PARAM_NAMES` on its last axis.
    """
    params = np.asarray(params, dtype=np.float64)
    a_i, b_i, a_j, b_j, a_k, b_k = np.moveaxis(params, -1, 0)
    n_i = -p - a_k + a_j * q - b_j * p
    n_j = -q - b_k + b_i * p - a_i * q
    n_k = 1.0 + a_i + b_j
    return np.stack(np.broadcast_arrays(n_i, n_j, n_k), axis=-1)


def unpack_fields(fields: np.ndarray):
    """Unpack summed fields into ``(H, grad, c)``.

    ``fields`` has shape ``(..., 28)``; returns ``H`` of shape
    ``(..., 6, 6)`` (symmetric), ``grad`` of shape ``(..., 6)`` and
    ``c`` of shape ``(...,)``.
    """
    fields = np.asarray(fields, dtype=np.float64)
    if fields.shape[-1] != N_FIELDS:
        raise ValueError(f"expected {N_FIELDS} packed fields, got {fields.shape[-1]}")
    shape = fields.shape[:-1]
    h = np.empty(shape + (N_PARAMS, N_PARAMS), dtype=np.float64)
    for idx, (i, j) in enumerate(TRIU_INDICES):
        h[..., i, j] = fields[..., idx]
        h[..., j, i] = fields[..., idx]
    grad = fields[..., N_TRIU : N_TRIU + N_PARAMS].copy()
    c = fields[..., N_TRIU + N_PARAMS].copy()
    return h, grad, c


@dataclass(frozen=True)
class MotionSolution:
    """Solution of one (batch of) eq. (3) minimization(s).

    ``params`` has shape ``(..., 6)`` in :data:`PARAM_NAMES` order,
    ``error`` the minimized template error, ``singular`` flags systems
    whose normal matrix was rank deficient (parameters forced to zero,
    error evaluated at zero -- the honest fallback for textureless
    patches).
    """

    params: np.ndarray
    error: np.ndarray
    singular: np.ndarray


def solve_accumulated(
    fields: np.ndarray, ridge: float = 1e-9, prefer_native: bool = True
) -> MotionSolution:
    """Minimize the accumulated template error (Step 2 of Section 2.2).

    ``fields`` are template-summed packed fields.  A tiny ridge term
    stabilizes near-degenerate patches without perturbing
    well-conditioned solutions; set ``ridge=0`` for the strict paper
    formulation.  With ``prefer_native`` and the native kernel
    available, one fused C call reads any ``(..., 28)`` view in place
    and does the whole solve below; otherwise (``backend="numpy"`` pins
    ``prefer_native=False``) the NumPy reference runs.  Bit-identical
    either way.
    """
    if prefer_native:
        from ..native import native_available, native_solve_packed

        if native_available():
            theta, error, singular = native_solve_packed(fields, ridge)
            return MotionSolution(params=theta, error=error, singular=singular)
    h, grad, c = unpack_fields(fields)
    if ridge:
        h = h + ridge * np.eye(N_PARAMS)
    theta, singular = gaussian_eliminate(h, -grad, prefer_native=False)
    theta = np.where(singular[..., None], 0.0, theta)
    # E* = c + theta . grad at the optimum (and = c exactly when theta = 0).
    error = c + np.einsum("...k,...k->...", theta, grad)
    # Guard against tiny negative values from roundoff.
    error = np.maximum(error, 0.0)
    return MotionSolution(params=theta, error=error, singular=singular)


def estimate_from_samples(
    p, q, p_after, q_after, e, g, ridge: float = 1e-9
) -> MotionSolution:
    """Reference single-window estimator from explicit template samples.

    All inputs are 1-D arrays over the template pixels of one tracked
    pixel/hypothesis pair.  Used to validate the dense field/box-sum
    path against a direct construction.
    """
    # Sum sample by sample (row order), as over a C-ordered (T, 28) array.
    fields = np.ascontiguousarray(pointwise_fields(p, q, p_after, q_after, e, g))
    return solve_accumulated(fields.sum(axis=0), ridge=ridge)


def evaluate_error(fields_sum: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Evaluate the template error at given parameters (not the minimum)."""
    h, grad, c = unpack_fields(fields_sum)
    return (
        c
        + 2.0 * np.einsum("...k,...k->...", params, grad)
        + np.einsum("...i,...ij,...j->...", params, h, params)
    )
