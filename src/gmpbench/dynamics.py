"""Environment dynamics: rotation machinery and per-change parameter updates.

All randomness flows through a single ``numpy.random.Generator`` per run with
a fixed draw order, so a scenario's full trajectory is a pure function of its
seed. Draw order during initialization, per component: center, height,
widths, angle, eta, tau, rotation source matrix (skipped when rotation is
disabled). Draw order per update, per component in index order: shift
direction (redrawn while its norm is below 1e-12), then height, widths,
angle, eta and tau in one ``standard_normal(d + 7)`` call, then the plane
permutation (skipped when rotation is disabled).

Only the draws are made component by component. The arithmetic of a change
is stacked: :func:`advance_environment` perturbs, reflects and rotates all
``m`` components with array operations on the :class:`Landscape` arrays,
applying each of the d(d-1)/2 plane steps to every rotation matrix with one
batched 2x2 matmul. :func:`update_component` and :func:`update_rotation` are
the same code on a single component.
"""

from __future__ import annotations

import math

import numpy as np

from .landscape import ComponentState, Landscape, ScenarioConfig, make_landscape

__all__ = [
    "ScenarioExhausted",
    "ORTHOGONALITY_TOL",
    "plane_pairs",
    "orthogonality_error",
    "gram_schmidt",
    "initial_rotation",
    "update_rotation",
    "reflect",
    "update_component",
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


def gram_schmidt(a: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of ``a`` in index order (modified variant)."""
    q = np.array(a, dtype=float)
    d = q.shape[1]
    for k in range(d):
        for j in range(k):
            q[:, k] -= (q[:, j] @ q[:, k]) * q[:, j]
        norm = float(np.linalg.norm(q[:, k]))
        if norm < _PIVOT_TOL:
            raise ValueError(f"degenerate pivot at column {k}")
        q[:, k] /= norm
    return q


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
    """Stacked :func:`update_rotation`: matrix ``k`` of ``rotations`` is
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
    for k in np.flatnonzero(_orthogonality_errors(out) > ORTHOGONALITY_TOL):
        out[k] = gram_schmidt(out[k])
        assert orthogonality_error(out[k]) <= ORTHOGONALITY_TOL
    return out


def update_rotation(r: np.ndarray, theta: float, rng: np.random.Generator) -> np.ndarray:
    """Left-multiply ``r`` by the product of all plane rotations at ``theta``.

    The product runs over every coordinate plane in a fresh random
    permutation (plane rotations on different planes do not commute). Each
    factor is applied as a two-row update, which is the exact product in the
    permuted order. Floating-point drift beyond ORTHOGONALITY_TOL triggers a
    Gram-Schmidt re-orthonormalization.
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
    """
    return float(_fold(np.array([value + delta]), lo, hi)[0])


def _advance(landscape: Landscape, cfg: ScenarioConfig, rng: np.random.Generator) -> Landscape:
    """One environment change of every component, as the next landscape.

    The draws are made component by component in the documented order; all
    the arithmetic on them is done on the stacked (m, ...) arrays.
    """
    m, d = landscape.centers.shape
    num_pairs = d * (d - 1) // 2
    shifts = np.empty((m, d))
    norms = np.empty(m)
    draws = np.empty((m, d + 7))
    orders = np.empty((m, num_pairs), dtype=np.intp)
    for k in range(m):
        r = rng.standard_normal(d)
        norm = float(np.linalg.norm(r))
        while norm < _PIVOT_TOL:
            r = rng.standard_normal(d)
            norm = float(np.linalg.norm(r))
        shifts[k] = r
        norms[k] = norm
        # height, widths (d), angle, eta (4), tau
        draws[k] = rng.standard_normal(d + 7)
        if cfg.rotation_enabled:
            orders[k] = rng.permutation(num_pairs)

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


def update_component(comp: ComponentState, cfg: ScenarioConfig,
                     rng: np.random.Generator) -> ComponentState:
    """One environment change for a single component.

    The center moves a step of exactly ``shift_severity`` along a uniformly
    random direction; height, widths, angle, eta and tau get independent
    Gaussian perturbations scaled by their severities. Every parameter is
    reflected back into its range, per dimension where applicable. The
    rotation matrix is advanced with the *new* angle.
    """
    return _advance(make_landscape(0, [comp]), cfg, rng).components[0]


def advance_environment(landscape: Landscape, cfg: ScenarioConfig,
                        rng: np.random.Generator) -> Landscape:
    """Update every component (see :func:`update_component`); the new
    landscape caches its optimum."""
    if landscape.environment_index >= cfg.num_environments - 1:
        raise ScenarioExhausted(
            f"environment {landscape.environment_index} is the last of {cfg.num_environments}")
    return _advance(landscape, cfg, rng)


def init_landscape(cfg: ScenarioConfig, rng: np.random.Generator) -> Landscape:
    """Draw the initial environment: all parameters uniform in their ranges."""
    cfg.validate()
    lb, ub = cfg.search_range
    comps = []
    for _ in range(cfg.num_components):
        center = rng.uniform(lb, ub, cfg.dimension)
        height = float(rng.uniform(*cfg.height_range))
        widths = rng.uniform(*cfg.width_range, cfg.dimension)
        angle = float(rng.uniform(*cfg.angle_range))
        eta = rng.uniform(*cfg.eta_range, 4)
        tau = float(rng.uniform(*cfg.tau_range))
        rotation = initial_rotation(cfg.dimension, rng, cfg.rotation_enabled)
        comps.append(ComponentState(center=center, height=height, widths=widths,
                                    angle=angle, tau=tau, eta=eta, rotation=rotation))
    return make_landscape(0, comps)
