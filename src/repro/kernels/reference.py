"""The bit-identity NumPy reference kernels of the hypothesis chain.

Every backend of :mod:`repro.kernels` answers to the functions in this
module.  They are the exact arithmetic the rest of the codebase has
always run -- moved here verbatim from :mod:`repro.core.continuous`
(residual rows, packed normal-equation fields), :mod:`repro.core.semifluid`
(template box sums), :mod:`repro.core.linalg` (the batched Gaussian
elimination) and :mod:`repro.core.matching` (the stacked box sum and the
certificate-grid window sums of the pruned schedule) -- so "reference"
means *the* bits, not merely close ones:

* the native C kernel (:mod:`repro.native`) replays these IEEE-754
  operations element for element and is bitwise cross-checked on load;
* the pruned search schedule uses :func:`strided_window_sums` only to
  form *bounds*, never field values, so its different summation order is
  covered by an explicit slack.

The public wrappers in ``repro.core`` re-export these names, so existing
import sites keep working; new code should import from
:mod:`repro.kernels`.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

#: Parameter order used throughout: theta = (a_i, b_i, a_j, b_j, a_k, b_k).
PARAM_NAMES: tuple[str, ...] = ("a_i", "b_i", "a_j", "b_j", "a_k", "b_k")

N_PARAMS = 6

#: Upper-triangle index pairs of the symmetric 6x6 normal matrix, in the
#: packed order used by the dense field representation (21 entries).
TRIU_INDICES: tuple[tuple[int, int], ...] = tuple(
    (i, j) for i in range(N_PARAMS) for j in range(i, N_PARAMS)
)

N_TRIU = len(TRIU_INDICES)  # 21

#: Packed field layout: 21 H entries + 6 gradient entries + 1 constant.
N_FIELDS = N_TRIU + N_PARAMS + 1  # 28

#: Structurally-zero design columns implied by :func:`residual_rows`:
#: ``a1`` never touches (b_i, b_k) and ``a2`` never touches (a_j, a_k).
#: :func:`pointwise_fields` skips the vanished products; the derivation
#: is pinned by a test that recovers these sets from ``residual_rows``
#: output, so a row-layout change cannot silently corrupt the skip
#: logic.
A1_ZERO_COLUMNS: tuple[int, ...] = (1, 5)
A2_ZERO_COLUMNS: tuple[int, ...] = (2, 4)

#: Pivot magnitudes below this are treated as singular.
SINGULAR_TOLERANCE = 1e-12


def residual_rows(p, q, p_after, q_after):
    """Design rows and constants of eps_1, eps_2 (unweighted).

    Given before-motion gradients ``(p, q)`` and observed after-motion
    gradients ``(p_after, q_after)`` -- any broadcastable shapes --
    returns ``(a1, r1, a2, r2)`` where ``a1``/``a2`` have a trailing
    axis of length 6 such that ``eps_m = a_m . theta + r_m``.
    """
    p, q, p_after, q_after = np.broadcast_arrays(
        np.asarray(p, dtype=np.float64),
        np.asarray(q, dtype=np.float64),
        np.asarray(p_after, dtype=np.float64),
        np.asarray(q_after, dtype=np.float64),
    )
    zero = np.zeros_like(p)
    minus_one = -np.ones_like(p)
    dp = p_after - p
    dq = q_after - q
    a1 = np.stack([p_after, zero, q, dp, minus_one, zero], axis=-1)
    a2 = np.stack([dq, p, zero, q_after, zero, minus_one], axis=-1)
    return a1, dp, a2, dq


def pointwise_fields(p, q, p_after, q_after, e, g) -> np.ndarray:
    """Per-sample normal-equation contributions, packed into 28 fields.

    For each sample the weighted error contribution is
    ``w1 (a1.theta + r1)^2 + w2 (a2.theta + r2)^2`` with quadratic
    weights ``w1 = 1/E^2`` and ``w2 = 1/G^2`` (the residuals carry 1/E,
    1/G).  Expanding gives a 6x6 matrix ``H`` (21 packed upper-triangle
    entries), a gradient vector ``grad`` (6) and a constant ``c`` (1):

        E(theta) = c + 2 theta . grad + theta^T H theta

    Summing the packed fields over a template window and solving
    ``H theta = -grad`` minimizes eq. (3) over that window.  Output
    shape is ``broadcast_shape + (28,)``: a view of plane-major storage,
    28 contiguous ``broadcast_shape`` planes, so each field is written,
    box-summed and solved without a layout copy.
    """
    p, q, p_after, q_after, e, g = (
        np.asarray(x, dtype=np.float64) for x in (p, q, p_after, q_after, e, g)
    )
    out_shape = np.broadcast_shapes(
        p.shape, q.shape, p_after.shape, q_after.shape, e.shape, g.shape
    )
    # The columns of residual_rows' a1/a2 as separate planes: the -1
    # columns stay scalars and the structural zeros (never read) are None.
    dp = p_after - p
    dq = q_after - q
    a1 = (p_after, None, q, dp, -1.0, None)
    a2 = (dq, p, None, q_after, None, -1.0)
    w1 = 1.0 / (e * e)
    w2 = 1.0 / (g * g)
    # Hoist the weight products out of the 28-field loop.  Python's *
    # is left-associative, so ``w1 * a1_i * a1_j == (w1 * a1_i) * a1_j``
    # exactly: precomputing ``w1 * a1`` (and ``w1 * r1``) reuses the
    # identical first product and keeps every output bit unchanged.
    wa1 = [None if col is None else w1 * col for col in a1]
    wa2 = [None if col is None else w2 * col for col in a2]
    w1r1 = w1 * dp
    w2r2 = w2 * dq
    planes = np.empty((N_FIELDS,) + out_shape, dtype=np.float64)
    buf = np.empty(out_shape, dtype=np.float64)
    # Structural zeros: a1 columns 1 and 5 and a2 columns 2 and 4 are
    # identically zero (residual_rows), and the weights are finite and
    # strictly positive (E, G >= 1), so each vanished product is an
    # exact IEEE zero.  Skipping those products leaves every template
    # accumulation and solver input bit-for-bit unchanged (a +-0 term
    # never moves a running sum); only the sign of a structurally-zero
    # raw entry can differ, which no consumer observes.
    for idx, (i, j) in enumerate(TRIU_INDICES):
        pairs = []
        if i not in A1_ZERO_COLUMNS and j not in A1_ZERO_COLUMNS:
            pairs.append((wa1[i], a1[j]))
        if i not in A2_ZERO_COLUMNS and j not in A2_ZERO_COLUMNS:
            pairs.append((wa2[i], a2[j]))
        _sum_of_products(planes[idx, ...], buf, pairs)
    for k in range(N_PARAMS):
        pairs = []
        if k not in A1_ZERO_COLUMNS:
            pairs.append((w1r1, a1[k]))
        if k not in A2_ZERO_COLUMNS:
            pairs.append((w2r2, a2[k]))
        _sum_of_products(planes[N_TRIU + k, ...], buf, pairs)
    _sum_of_products(planes[N_TRIU + N_PARAMS, ...], buf, [(w1r1, dp), (w2r2, dq)])
    return np.moveaxis(planes, 0, -1)


def _sum_of_products(out, buf, pairs) -> None:
    """``out = x1 * y1 + x2 * y2`` over the ``(x, y)`` factor pairs.

    One pair gives the bare product and none gives zero.  ``buf`` holds
    the second product, so no temporary is allocated.
    """
    if not pairs:
        out[...] = 0.0
        return
    np.multiply(*pairs[0], out=out)
    if len(pairs) == 2:
        np.multiply(*pairs[1], out=buf)
        np.add(out, buf, out=out)


def box_sum_rect(field: np.ndarray, half_y: int, half_x: int) -> np.ndarray:
    """Box sum over a rectangular ``(2half_y+1) x (2half_x+1)`` window.

    Out-of-bounds contributions are zero (``mode='constant'``), which
    only affects the masked border margin.  This is THE constant-padding
    box sum of the codebase: :func:`box_sum` (square windows) and the
    rectangular-template extension both delegate here, pinned by a
    regression test.
    """
    if half_y < 0 or half_x < 0:
        raise ValueError("half-widths must be >= 0")
    field = np.asarray(field, dtype=np.float64)
    if half_y == 0 and half_x == 0:
        return field.copy()
    side_y, side_x = 2 * half_y + 1, 2 * half_x + 1
    return ndimage.uniform_filter(
        field, size=(side_y, side_x), mode="constant", cval=0.0
    ) * float(side_y * side_x)


def box_sum(field: np.ndarray, half_width: int) -> np.ndarray:
    """Sum of ``field`` over the ``(2N+1)^2`` window centered per pixel."""
    return box_sum_rect(field, half_width, half_width)


def box_sum_stack(fields: np.ndarray, half_width: int) -> np.ndarray:
    """Box sum over the image axes of a ``(n, H, W, 28)`` stack.

    The packed axis is moved to the front and every ``(H, W)`` plane
    gets the two :func:`box_sum` passes, rows then columns, through one
    ``uniform_filter1d`` call per axis over the whole stack.  scipy's
    1-d kernel walks each image line with the identical running-sum
    arithmetic whatever the memory layout, so each ``(n, k)`` slice is
    bit-identical to :func:`box_sum` on that slice.  Plane-major input
    (what :func:`pointwise_fields` returns) is read where it lies, with
    no copy; the result is a ``(n, H, W, 28)`` view of plane-major
    storage.
    """
    if half_width == 0:
        return fields.astype(np.float64, copy=True)
    side = 2 * half_width + 1
    planes = np.moveaxis(np.asarray(fields, dtype=np.float64), -1, 0)
    summed = np.empty(planes.shape, dtype=np.float64)
    for axis in (-2, -1):
        ndimage.uniform_filter1d(
            planes, side, axis=axis, output=summed, mode="constant", cval=0.0
        )
        planes = summed
    summed *= float(side * side)
    return np.moveaxis(summed, 0, -1)


def strided_window_sums(
    arr: np.ndarray, axis: int, grid_size: int, stride: int, half_width: int
) -> np.ndarray:
    """Sum ``arr`` over every certificate window along ``axis``.

    Windows are ``2 * half_width + 1`` wide and start every ``stride``
    elements, so whole stride-width bins can be pre-summed once with
    ``stride`` whole-array adds; each window is then ``side // stride``
    contiguous bin adds plus at most ``stride - 1`` strided adds for
    the leftover columns, instead of ``side`` strided adds.  Any memory
    layout works; plane-major ``(28, H, W)`` stacks are the fast one.  The
    grouping changes the floating-point summation order, which only
    perturbs the pruned schedule's *bound* within the certificate
    slack -- the field itself never flows through this path.
    """
    side = 2 * half_width + 1
    whole, rest = divmod(side, stride)
    n_bins = grid_size - 1 + whole

    def along(start: int, stop: int, step: int = 1) -> np.ndarray:
        ix: list = [slice(None)] * arr.ndim
        ix[axis] = slice(start, stop, step)
        return arr[tuple(ix)]

    # Bin k is ((a[s k] + a[s k + 1]) + ...): the order a reduce over a
    # reshaped bin axis takes, written as whole-array adds so that it
    # runs as fast along the contiguous axis of a plane as across planes.
    bins = _ordered_sum([along(k, stride * n_bins, stride) for k in range(stride)])

    def bin_run(start: int) -> np.ndarray:
        ix: list = [slice(None)] * bins.ndim
        ix[axis] = slice(start, start + grid_size)
        return bins[tuple(ix)]

    leftovers = [
        along(first, first + stride * (grid_size - 1) + 1, stride)
        for first in range(stride * whole, stride * whole + rest)
    ]
    return _ordered_sum([bin_run(j) for j in range(whole)] + leftovers)


def _ordered_sum(terms: list) -> np.ndarray:
    """``((t0 + t1) + t2) + ...`` into one new array."""
    out = terms[0] + terms[1] if len(terms) > 1 else terms[0].copy()
    for term in terms[2:]:
        out += term
    return out


def eliminate(matrices: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched partial-pivot Gaussian elimination, NumPy reference path.

    Solves ``A x = b`` for a batch of dense systems; the SIMD-lockstep
    rendering of the paper's per-PE 6x6 elimination.  Inputs are copied
    and validated here, so the function stands alone;
    :func:`repro.core.linalg.gaussian_eliminate` wraps it with native
    dispatch.

    Returns ``(solutions, singular)``: rows flagged singular (a pivot
    below :data:`SINGULAR_TOLERANCE`) contain zeros.
    """
    a = np.array(matrices, dtype=np.float64, copy=True)
    b = np.array(rhs, dtype=np.float64, copy=True)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrices must be (..., n, n), got {a.shape}")
    n = a.shape[-1]
    if b.shape != a.shape[:-1]:
        raise ValueError(f"rhs shape {b.shape} does not match matrices {a.shape}")

    batch_shape = a.shape[:-2]
    a = a.reshape((-1, n, n))
    b = b.reshape((-1, n))
    m = a.shape[0]
    singular = np.zeros(m, dtype=bool)
    rows = np.arange(m)

    # Forward elimination with per-system partial pivoting.
    for k in range(n):
        pivot_rel = np.argmax(np.abs(a[:, k:, k]), axis=1)
        pivot = k + pivot_rel
        swap = pivot != k
        if swap.any():
            idx = rows[swap]
            a[idx, k, :], a[idx, pivot[swap], :] = (
                a[idx, pivot[swap], :].copy(),
                a[idx, k, :].copy(),
            )
            b[idx, k], b[idx, pivot[swap]] = b[idx, pivot[swap]].copy(), b[idx, k].copy()
        pivots = a[:, k, k]
        bad = np.abs(pivots) < SINGULAR_TOLERANCE
        singular |= bad
        safe = np.where(bad, 1.0, pivots)
        if k + 1 < n:
            factors = a[:, k + 1 :, k] / safe[:, None]
            factors[bad] = 0.0
            a[:, k + 1 :, :] -= factors[:, :, None] * a[:, k, None, :]
            b[:, k + 1 :] -= factors * b[:, k, None]

    # Back substitution.
    x = np.zeros_like(b)
    for k in range(n - 1, -1, -1):
        acc = b[:, k] - np.einsum("ij,ij->i", a[:, k, k + 1 :], x[:, k + 1 :])
        pivots = a[:, k, k]
        safe = np.where(np.abs(pivots) < SINGULAR_TOLERANCE, 1.0, pivots)
        x[:, k] = acc / safe
    x[singular] = 0.0

    return x.reshape(batch_shape + (n,)), singular.reshape(batch_shape)
