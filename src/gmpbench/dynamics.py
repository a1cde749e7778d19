"""Environment dynamics: rotation machinery and per-change parameter updates.

All randomness flows through a single ``numpy.random.Generator`` per run with
a fixed draw order, so a scenario's full trajectory is a pure function of its
seed. Each array is drawn in one call, row ``k`` for component ``k``. Draw
order during initialization: centers (m, d), heights (m,), widths (m, d),
angles (m,), eta (m, 4), tau (m,), then the (m, d, d) rotation source
matrices (skipped when rotation is disabled). Draw order per update: one
``standard_normal((m, 2d + 7))`` block, whose row ``k`` holds component
``k``'s shift direction, height, widths, angle, eta and tau, then the plane
orders, each row an independent uniform permutation, in one
``permuted(..., axis=1)`` call (skipped when rotation is disabled). The
order is not part of the model, which states only the distributions; it is
fixed so that a seed gives one trajectory.

Every initialization and every change makes exactly these draws. A draw
that cannot be used as it is, an event of probability zero, is replaced by a
fixed value instead of drawn again: a direction whose norm is below
``_PIVOT_TOL`` becomes the first axis (:func:`_directions`, the one rule of
the shift directions and mQSO's ball samples), and a source matrix with a
Gram-Schmidt pivot below ``_PIVOT_TOL`` becomes the identity.

:func:`init_landscape` orthonormalizes all ``m`` source matrices in one
stacked Gram-Schmidt pass, and :func:`advance_environment` perturbs all
``m`` rows with array operations: one :func:`reflect` call folds each
parameter array into its range, and one :func:`update_rotation` call
applies each of the d(d-1)/2 plane steps to every rotation matrix with one
batched 2x2 matmul. A one-component landscape is the change of a single
component.

Every orthonormalization goes through one modified Gram-Schmidt routine on
an (m, d, d) stack: the initial rotations and the re-orthonormalization of
matrices that drifted during a change. Each matrix of a stack comes out
bit-identical to orthonormalizing it alone.
"""

from __future__ import annotations

import math

import numpy as np

from .landscape import Landscape, ScenarioConfig

__all__ = [
    "ORTHOGONALITY_TOL",
    "update_rotation",
    "reflect",
    "advance_environment",
    "init_landscape",
]

ORTHOGONALITY_TOL = 1e-9
_PIVOT_TOL = 1e-12


def _directions(normals: np.ndarray) -> np.ndarray:
    """Make the rows of an (n, d) block of normal draws directions, in
    place, and return their (n,) norms, by which each caller divides.

    Each norm is one vector-vector product, ``np.linalg.norm``'s dot bit
    for bit. A row whose norm is below ``_PIVOT_TOL`` (probability zero)
    becomes the first axis, with norm 1.
    """
    norms = np.sqrt((normals[:, None, :] @ normals[:, :, None])[:, 0, 0])
    degenerate = norms < _PIVOT_TOL
    normals[degenerate] = np.eye(1, normals.shape[1])
    norms[degenerate] = 1.0
    return norms


def _orthogonality_errors(rotations: np.ndarray) -> np.ndarray:
    """Max-abs entry of R^T R - I, for each matrix R of an (m, d, d) stack."""
    d = rotations.shape[1]
    # one buffer for R^T R, its difference from I and the difference's abs
    errors = rotations.transpose(0, 2, 1) @ rotations
    errors -= np.eye(d)
    np.abs(errors, out=errors)
    return errors.max(axis=(1, 2))


def _orthonormalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt on the columns of each matrix of an (m, d, d)
    stack, in index order; returns the orthonormalized stack and the (m, d)
    pivot norms.

    A matrix with a pivot norm below ``_PIVOT_TOL`` is degenerate and its
    result is undefined; the callers check the norms. Each column pair takes
    one strided dot per matrix and each norm is the square root of the dot
    of a contiguous copy of the column, the BLAS calls that ``q[:, j] @
    q[:, k]`` and ``np.linalg.norm(q[:, k])`` make on a lone matrix, so every
    matrix comes out bit-identical to orthonormalizing it alone.
    """
    q = np.array(a, dtype=float)
    m, d, _ = q.shape
    norms = np.empty((m, d))
    with np.errstate(all="ignore"):
        for k in range(d):
            ck = q[:, :, k]
            for j in range(k):
                cj = q[:, :, j]
                ck -= (cj[:, None, :] @ ck[:, :, None])[:, 0] * cj
            c = np.ascontiguousarray(ck)
            norms[:, k] = np.sqrt(c[:, None, :] @ c[:, :, None])[:, 0, 0]
            ck /= norms[:, k, None]
    return q, norms


def update_rotation(rotations: np.ndarray, angles: np.ndarray,
                    orders: np.ndarray) -> np.ndarray:
    """Rotation step of a change, as a fresh stack: matrix ``k`` of
    ``rotations`` is left-multiplied by the plane rotations at ``angles[k]``
    of every coordinate plane, in the permuted plane order ``orders[k]``.

    A matrix that drifts beyond ``ORTHOGONALITY_TOL`` is re-orthonormalized;
    one that Gram-Schmidt cannot bring within it raises ``ValueError``.
    """
    out = np.array(rotations, dtype=float)
    m, d, _ = out.shape
    rot2 = np.empty((m, 2, 2))
    rot2[:, 0, 0] = rot2[:, 1, 1] = [math.cos(a) for a in angles]
    rot2[:, 1, 0] = [math.sin(a) for a in angles]
    rot2[:, 0, 1] = -rot2[:, 1, 0]
    # product[order[0]] @ product[order[1]] @ ... @ r applies the last factor
    # first. Step j updates rows (p_k, q_k) of every matrix k, found as rows
    # of the (m*d, d) stack; each gets the same 2x2 matmul as a lone matrix,
    # so the result is bit-identical to rotating one matrix at a time. Plane
    # i is the i-th axis pair (p < q) in lexicographic order.
    flat = out.reshape(m * d, d)
    steps = np.stack(np.triu_indices(d, 1), axis=1).take(np.ascontiguousarray(orders[:, ::-1].T), axis=0)
    steps += d * np.arange(m)[:, None]
    for pq in steps:
        flat[pq] = rot2 @ flat.take(pq, axis=0)
    drifted = np.flatnonzero(_orthogonality_errors(out) > ORTHOGONALITY_TOL)
    if drifted.size:
        fixed, norms = _orthonormalize(out[drifted])
        # "not <=" fails a NaN result too
        failed = (norms < _PIVOT_TOL).any(axis=1) | ~(
            _orthogonality_errors(fixed) <= ORTHOGONALITY_TOL)
        if failed.any():
            raise ValueError(f"rotation matrix {drifted[failed][0]} is not orthogonal "
                             "after re-orthonormalization")
        out[drifted] = fixed
    return out


def reflect(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The values of ``v`` mirrored at the edges of [lo, hi] until inside,
    as a fresh array.

    A mirror at the lower edge (``2*lo - v``) and then one at the upper edge
    (``2*hi - v``) are the first passes of a mirror loop, and bring in every
    value less than a range width outside. The few still outside are folded
    by the closed-form triangle wave of period ``2*(hi - lo)``, clipped
    against rounding, so no delta is too large.
    """
    if lo > hi:
        raise ValueError(f"invalid range: lo={lo} > hi={hi}")
    if lo == hi:
        return np.full_like(v, lo)
    v = np.where(v < lo, 2.0 * lo - v, v)
    v = np.where(v > hi, 2.0 * hi - v, v)
    out = (v < lo) | (v > hi)
    if out.any():
        width = hi - lo
        t = np.mod(v[out] - lo, 2.0 * width)
        v[out] = np.clip(lo + np.minimum(t, 2.0 * width - t), lo, hi)
    return v


def advance_environment(landscape: Landscape, cfg: ScenarioConfig,
                        rng: np.random.Generator) -> Landscape:
    """The landscape after one environment change of every component.

    Each center moves a step of exactly ``shift_severity`` along a uniformly
    random direction; heights, widths, angles, eta and tau get independent
    Gaussian perturbations scaled by their severities. Every parameter is
    reflected back into its range, per dimension where applicable. Each
    rotation matrix is advanced with its component's *new* angle. The new
    landscape caches its optimum.

    The draws are made in the documented order, each in one call, and all
    the arithmetic on them is done on the stacked (m, ...) arrays. The
    shift directions come from :func:`_directions`, so a degenerate one is
    the first axis and the step is still exactly ``shift_severity`` long.
    """
    m, d = landscape.centers.shape
    # per component: shift direction (d), height, widths (d), angle, eta (4), tau
    draws = rng.standard_normal((m, 2 * d + 7))
    if cfg.rotation_enabled:
        orders = np.tile(np.arange(d * (d - 1) // 2), (m, 1))
        rng.permuted(orders, axis=1, out=orders)
    shifts = draws[:, :d]
    norms = _directions(shifts)
    draws = draws[:, d:]  # height, widths (d), angle, eta (4), tau

    lb, ub = cfg.search_range
    angles = reflect(landscape.angles + cfg.angle_severity * draws[:, d + 1], *cfg.angle_range)
    return Landscape(
        environment_index=landscape.environment_index + 1,
        centers=reflect(landscape.centers + cfg.shift_severity * shifts / norms[:, None], lb, ub),
        heights=reflect(landscape.heights + cfg.height_severity * draws[:, 0], *cfg.height_range),
        widths=reflect(landscape.widths + cfg.width_severity * draws[:, 1:d + 1], *cfg.width_range),
        angles=angles,
        eta=reflect(landscape.eta + cfg.eta_severity * draws[:, d + 2:d + 6], *cfg.eta_range),
        tau=reflect(landscape.tau + cfg.tau_severity * draws[:, d + 6], *cfg.tau_range),
        rotations=(update_rotation(landscape.rotations, angles, orders) if cfg.rotation_enabled
                   else landscape.rotations),
    )


def init_landscape(cfg: ScenarioConfig, rng: np.random.Generator) -> Landscape:
    """Draw the initial environment: all parameters uniform in their ranges.

    Each parameter array is drawn in one call, in the documented order;
    with rotation enabled the last draw is the ``standard_normal((m, d,
    d))`` stack of source matrices, all orthonormalized at once, each
    exactly as alone. A source matrix with a pivot below ``_PIVOT_TOL``
    (probability zero) becomes the identity.
    """
    cfg.validate()
    lb, ub = cfg.search_range
    m, d = cfg.num_components, cfg.dimension
    centers = rng.uniform(lb, ub, (m, d))
    heights = rng.uniform(*cfg.height_range, m)
    widths = rng.uniform(*cfg.width_range, (m, d))
    angles = rng.uniform(*cfg.angle_range, m)
    eta = rng.uniform(*cfg.eta_range, (m, 4))
    tau = rng.uniform(*cfg.tau_range, m)
    if cfg.rotation_enabled:
        rotations, norms = _orthonormalize(rng.standard_normal((m, d, d)))
        rotations[(norms < _PIVOT_TOL).any(axis=1)] = np.eye(d)
    else:
        rotations = np.tile(np.eye(d), (m, 1, 1))
    return Landscape(environment_index=0, centers=centers, rotations=rotations,
                     widths=widths, heights=heights, angles=angles, tau=tau, eta=eta)
