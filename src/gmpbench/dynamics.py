"""Environment dynamics: rotation machinery and per-change parameter updates.

All randomness flows through a single ``numpy.random.Generator`` per run with
a fixed draw order, so a scenario's full trajectory is a pure function of its
seed. Draw order during initialization, per component: center, height,
widths, angle, eta, tau, rotation source matrix (skipped when rotation is
disabled). Draw order per update, per component in index order: shift
direction, height, widths, angle, eta and tau in one ``standard_normal(2d +
7)`` call, then the plane permutation (skipped when rotation is disabled).

Every initialization and every change makes exactly these draws. A draw
that cannot be used as it is, an event of probability zero, is replaced by a
fixed value instead of drawn again: a shift direction whose norm is below
1e-12 becomes the first axis, and a source matrix with a Gram-Schmidt pivot
below 1e-12 becomes the identity.

Only the draws are made component by component: :func:`init_landscape`
writes each component's draws into row ``k`` of the :class:`Landscape`
arrays and orthonormalizes all ``m`` source matrices in one stacked
Gram-Schmidt pass, and :func:`advance_environment` perturbs, reflects and
rotates all ``m`` rows with array operations, applying each of the d(d-1)/2
plane steps to every rotation matrix with one batched 2x2 matmul. A
one-component landscape is the change of a single component.

Every orthonormalization goes through one modified Gram-Schmidt routine on
an (m, d, d) stack: the initial rotations and the re-orthonormalization of
matrices that drifted during a change. Each matrix of a stack comes out
bit-identical to orthonormalizing it alone.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .landscape import Landscape, ScenarioConfig

__all__ = [
    "ScenarioExhausted",
    "ORTHOGONALITY_TOL",
    "update_rotation",
    "reflect",
    "advance_environment",
    "init_landscape",
]

ORTHOGONALITY_TOL = 1e-9
_PIVOT_TOL = 1e-12


class ScenarioExhausted(RuntimeError):
    """Raised when advancing past the final environment of a scenario."""


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


@functools.lru_cache(maxsize=16)
def _pair_table(d: int) -> np.ndarray:
    """All d*(d-1)/2 axis index pairs (p < q), in lexicographic order, as a
    read-only (d*(d-1)/2, 2) index array."""
    pairs = np.stack(np.triu_indices(d, 1), axis=1)
    pairs.flags.writeable = False
    return pairs


def _rotate(rotations: np.ndarray, angles: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Rotation step of a change: matrix ``k`` of ``rotations`` is
    left-multiplied by the plane rotations at ``angles[k]``, taken in the
    permuted plane order ``orders[k]``."""
    out = np.array(rotations, dtype=float)
    m, d, _ = out.shape
    rot2 = np.empty((m, 2, 2))
    rot2[:, 0, 0] = rot2[:, 1, 1] = [math.cos(a) for a in angles]
    rot2[:, 1, 0] = [math.sin(a) for a in angles]
    rot2[:, 0, 1] = -rot2[:, 1, 0]
    # product[order[0]] @ product[order[1]] @ ... @ r applies the last factor
    # first. Step j updates rows (p_k, q_k) of every matrix k, found as rows
    # of the (m*d, d) stack; each gets the same 2x2 matmul as a lone matrix,
    # so the result is bit-identical to rotating one matrix at a time.
    flat = out.reshape(m * d, d)
    steps = _pair_table(d).take(np.ascontiguousarray(orders[:, ::-1].T), axis=0)
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


def update_rotation(r: np.ndarray, theta: float, rng: np.random.Generator) -> np.ndarray:
    """Left-multiply ``r`` by the product of all plane rotations at ``theta``.

    The product runs over every coordinate plane in a fresh random
    permutation (plane rotations on different planes do not commute). Each
    factor is applied as a two-row update, which is the exact product in the
    permuted order. Floating-point drift beyond ORTHOGONALITY_TOL triggers a
    Gram-Schmidt re-orthonormalization; a matrix that it cannot bring within
    the tolerance raises ``ValueError``.

    :func:`advance_environment` does not call this function: it rotates all
    matrices at once with the same code. It stays only as the name that the
    benchmark's tracer hooks.
    """
    d = r.shape[0]
    order = rng.permutation(d * (d - 1) // 2)
    return _rotate(np.asarray(r)[None], [theta], order[None])[0]


def _fold(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Mirror the values of ``v`` at the edges of [lo, hi] until inside.

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


def reflect(value: float, delta: float, lo: float, hi: float) -> float:
    """Move ``value`` by ``delta`` and mirror at the range edges until inside.

    In-range results pass through; a result below ``lo`` maps to
    ``2*lo - value - delta``, above ``hi`` to ``2*hi - value - delta``, and the
    reflection repeats (in closed form) so the output lies in [lo, hi] however
    large the delta is.

    :func:`advance_environment` folds whole arrays with the same code and
    does not call this function; it stays only as the name that the
    benchmark's tracer hooks.
    """
    return float(_fold(np.array([value + delta]), lo, hi)[0])


def advance_environment(landscape: Landscape, cfg: ScenarioConfig,
                        rng: np.random.Generator) -> Landscape:
    """The landscape after one environment change of every component.

    Each center moves a step of exactly ``shift_severity`` along a uniformly
    random direction; heights, widths, angles, eta and tau get independent
    Gaussian perturbations scaled by their severities. Every parameter is
    reflected back into its range, per dimension where applicable. Each
    rotation matrix is advanced with its component's *new* angle. The new
    landscape caches its optimum.

    The draws are made component by component in the documented order; all
    the arithmetic on them is done on the stacked (m, ...) arrays. A
    direction whose norm is below 1e-12 (probability zero) is replaced by
    the first axis, so the step is still exactly ``shift_severity`` long.
    """
    if landscape.environment_index >= cfg.num_environments - 1:
        raise ScenarioExhausted(
            f"environment {landscape.environment_index} is the last of {cfg.num_environments}")
    m, d = landscape.centers.shape
    num_pairs = d * (d - 1) // 2
    # per component: shift direction (d), height, widths (d), angle, eta (4),
    # tau; one standard_normal(2d + 7) call is the same stream as
    # standard_normal(d) followed by standard_normal(d + 7)
    draws = np.empty((m, 2 * d + 7))
    # rng.permutation(n) is a shuffle of np.arange(n): the same draws
    orders = np.empty((m, num_pairs), dtype=np.intp)
    orders[:] = np.arange(num_pairs)
    for k in range(m):
        draws[k] = rng.standard_normal(2 * d + 7)
        if cfg.rotation_enabled:
            rng.shuffle(orders[k])
    shifts = draws[:, :d]
    # one vector-vector product per row, np.linalg.norm's dot bit for bit
    norms = np.sqrt((shifts[:, None, :] @ shifts[:, :, None])[:, 0, 0])
    degenerate = norms < _PIVOT_TOL
    shifts[degenerate] = np.eye(1, d)
    norms[degenerate] = 1.0
    draws = draws[:, d:]  # height, widths (d), angle, eta (4), tau

    lb, ub = cfg.search_range
    angles = _fold(landscape.angles + cfg.angle_severity * draws[:, d + 1], *cfg.angle_range)
    return Landscape(
        environment_index=landscape.environment_index + 1,
        centers=_fold(landscape.centers + cfg.shift_severity * shifts / norms[:, None], lb, ub),
        heights=_fold(landscape.heights + cfg.height_severity * draws[:, 0], *cfg.height_range),
        widths=_fold(landscape.widths + cfg.width_severity * draws[:, 1:d + 1], *cfg.width_range),
        angles=angles,
        eta=_fold(landscape.eta + cfg.eta_severity * draws[:, d + 2:d + 6], *cfg.eta_range),
        tau=_fold(landscape.tau + cfg.tau_severity * draws[:, d + 6], *cfg.tau_range),
        rotations=(_rotate(landscape.rotations, angles, orders) if cfg.rotation_enabled
                   else landscape.rotations),
    )


def init_landscape(cfg: ScenarioConfig, rng: np.random.Generator) -> Landscape:
    """Draw the initial environment: all parameters uniform in their ranges.

    The draws are made component by component in the documented order, each
    written into its row of the arrays; with rotation enabled the last draw
    of a component is its ``standard_normal((d, d))`` source matrix. All
    ``m`` source matrices are then orthonormalized at once, each exactly as
    alone. A source matrix with a pivot below 1e-12 (probability zero)
    becomes the identity.
    """
    cfg.validate()
    lb, ub = cfg.search_range
    m, d = cfg.num_components, cfg.dimension
    centers = np.empty((m, d))
    heights = np.empty(m)
    widths = np.empty((m, d))
    angles = np.empty(m)
    eta = np.empty((m, 4))
    tau = np.empty(m)
    rotations = np.empty((m, d, d))
    for k in range(m):
        centers[k] = rng.uniform(lb, ub, d)
        heights[k] = rng.uniform(*cfg.height_range)
        widths[k] = rng.uniform(*cfg.width_range, d)
        angles[k] = rng.uniform(*cfg.angle_range)
        eta[k] = rng.uniform(*cfg.eta_range, 4)
        tau[k] = rng.uniform(*cfg.tau_range)
        if cfg.rotation_enabled:
            rotations[k] = rng.standard_normal((d, d))
    if cfg.rotation_enabled:
        rotations, norms = _orthonormalize(rotations)
        rotations[(norms < _PIVOT_TOL).any(axis=1)] = np.eye(d)
    else:
        rotations[:] = np.eye(d)
    return Landscape(environment_index=0, centers=centers, rotations=rotations,
                     widths=widths, heights=heights, angles=angles, tau=tau, eta=eta)
