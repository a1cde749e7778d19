"""Environment dynamics: rotation machinery and per-change parameter updates.

All randomness flows through a single ``numpy.random.Generator`` per run with
a fixed draw order, so a scenario's full trajectory is a pure function of its
seed. Draw order during initialization, per component: center, height,
widths, angle, eta, tau, rotation source matrix (skipped when rotation is
disabled). Draw order per update, per component in index order: shift
direction (redrawn while its norm is below 1e-12), then height, widths,
angle, eta and tau in one ``standard_normal(d + 7)`` call, then the plane
permutation (skipped when rotation is disabled). A change takes each
component's two normal draws as one ``standard_normal(2d + 7)`` call, the
same stream, and replays the change in the order above only when a
direction needs a redraw.

Only the draws are made component by component: :func:`init_landscape`
writes each component's draws into row ``k`` of the :class:`Landscape`
arrays and orthonormalizes all ``m`` source matrices in one stacked
Gram-Schmidt pass, and :func:`advance_environment` perturbs, reflects and
rotates all ``m`` rows with array operations, applying each of the d(d-1)/2
plane steps to every rotation matrix with one batched 2x2 matmul. A
one-component landscape is the change of a single component.

Every orthonormalization goes through one modified Gram-Schmidt routine on
an (m, d, d) stack: the initial rotations, the re-orthonormalization of
matrices that drifted during a change, and :func:`gram_schmidt`, its
one-matrix call. Each matrix of a stack comes out bit-identical to
orthonormalizing it alone.
"""

from __future__ import annotations

import math

import numpy as np

from .landscape import Landscape, ScenarioConfig

__all__ = [
    "ScenarioExhausted",
    "ORTHOGONALITY_TOL",
    "plane_pairs",
    "orthogonality_error",
    "gram_schmidt",
    "initial_rotation",
    "update_rotation",
    "reflect",
    "advance_environment",
    "init_landscape",
]

ORTHOGONALITY_TOL = 1e-9
_PIVOT_TOL = 1e-12


class ScenarioExhausted(RuntimeError):
    """Raised when advancing past the final environment of a scenario."""


def plane_pairs(d: int) -> list[tuple[int, int]]:
    """All d*(d-1)/2 axis index pairs (p < q), in lexicographic order."""
    return [(p, q) for p in range(d) for q in range(p + 1, d)]


def _orthogonality_errors(rotations: np.ndarray) -> np.ndarray:
    """:func:`orthogonality_error` of each matrix in an (m, d, d) stack."""
    d = rotations.shape[1]
    return np.abs(rotations.transpose(0, 2, 1) @ rotations - np.eye(d)).max(axis=(1, 2))


def orthogonality_error(r: np.ndarray) -> float:
    """Max-abs entry of R^T R - I."""
    return float(_orthogonality_errors(np.asarray(r)[None])[0])


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


def gram_schmidt(a: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of ``a`` in index order (modified variant)."""
    q, norms = _orthonormalize(np.asarray(a, dtype=float)[None])
    degenerate = np.flatnonzero(norms[0] < _PIVOT_TOL)
    if degenerate.size:
        raise ValueError(f"degenerate pivot at column {degenerate[0]}")
    return q[0]


def initial_rotation(d: int, rng: np.random.Generator, rotation_enabled: bool = True) -> np.ndarray:
    """Random orthogonal matrix from Gram-Schmidt on normal entries.

    Returns the identity when rotation is disabled (no draws consumed). A
    degenerate source matrix (probability zero) is redrawn.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if not rotation_enabled:
        return np.eye(d)
    while True:
        try:
            return gram_schmidt(rng.standard_normal((d, d)))
        except ValueError:
            continue


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
    pairs = np.array(plane_pairs(d), dtype=np.intp).reshape(-1, 2)
    # product[order[0]] @ product[order[1]] @ ... @ r applies the last factor
    # first. Step j updates rows (p_k, q_k) of every matrix k, found as rows
    # of the (m*d, d) stack; each gets the same 2x2 matmul as a lone matrix,
    # so the result is bit-identical to rotating one matrix at a time.
    flat = out.reshape(m * d, d)
    for pq in pairs[orders[:, ::-1].T] + d * np.arange(m)[:, None]:
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
    matrices at once with the same code. It stays as a one-matrix entry
    point, and as the name that the benchmark's tracer hooks.
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
    does not call this function; it stays as a scalar entry point, and as
    the name that the benchmark's tracer hooks.
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
    the arithmetic on them is done on the stacked (m, ...) arrays.
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
    start = rng.bit_generator.state
    for k in range(m):
        draws[k] = rng.standard_normal(2 * d + 7)
        if cfg.rotation_enabled:
            rng.shuffle(orders[k])
    shifts = draws[:, :d]
    # one vector-vector product per row, np.linalg.norm's dot bit for bit
    norms = np.sqrt((shifts[:, None, :] @ shifts[:, :, None])[:, 0, 0])
    if (norms < _PIVOT_TOL).any():
        # a degenerate direction (probability zero) is redrawn before the
        # component's other draws: replay the change one component at a time
        rng.bit_generator.state = start
        for k in range(m):
            r = rng.standard_normal(d)
            norm = float(np.linalg.norm(r))
            while norm < _PIVOT_TOL:
                r = rng.standard_normal(d)
                norm = float(np.linalg.norm(r))
            shifts[k] = r
            norms[k] = norm
            draws[k, d:] = rng.standard_normal(d + 7)
            if cfg.rotation_enabled:
                orders[k] = rng.permutation(num_pairs)
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
    alone. A degenerate source matrix (probability zero) is redrawn where
    :func:`initial_rotation` redraws it: the generator is rewound to just
    after that draw, the component's rotation is redrawn with
    :func:`initial_rotation`, and every later component is drawn again.
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
    after_source = [None] * m  # generator state just after each source matrix

    def draw(first: int) -> None:
        for k in range(first, m):
            centers[k] = rng.uniform(lb, ub, d)
            heights[k] = rng.uniform(*cfg.height_range)
            widths[k] = rng.uniform(*cfg.width_range, d)
            angles[k] = rng.uniform(*cfg.angle_range)
            eta[k] = rng.uniform(*cfg.eta_range, 4)
            tau[k] = rng.uniform(*cfg.tau_range)
            if cfg.rotation_enabled:
                rotations[k] = rng.standard_normal((d, d))
                after_source[k] = rng.bit_generator.state

    draw(0)
    if not cfg.rotation_enabled:
        rotations[:] = np.eye(d)
    first = 0
    while cfg.rotation_enabled:
        q, norms = _orthonormalize(rotations[first:])
        rotations[first:] = q
        degenerate = np.flatnonzero((norms < _PIVOT_TOL).any(axis=1))
        if not degenerate.size:
            break
        k = first + int(degenerate[0])
        rng.bit_generator.state = after_source[k]
        rotations[k] = initial_rotation(d, rng)
        first = k + 1
        draw(first)
    return Landscape(environment_index=0, centers=centers, rotations=rotations,
                     widths=widths, heights=heights, angles=angles, tau=tau, eta=eta)
