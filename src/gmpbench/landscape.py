"""Landscape state and objective evaluation for generalized moving peaks.

A landscape is the max-composition of ``m`` peak components. Each component
is a cone apex at ``center`` with height ``height``, bent by a sign-preserving
log-sine warp of the rotated offset and weighted per axis by ``widths``:

    value(x) = height - sqrt(sum_j widths_j * T(y_j)^2),   y = rotation @ (x - center)

The warp ``T`` (see :func:`irregularity_transform`) leaves 0, 1 and -1 fixed
and is the identity when ``tau == 0``; nonzero ``tau``/``eta`` make the
component irregular, multimodal and (with unequal ``eta``) asymmetric.

A :class:`Landscape` holds its components stacked, one row per component:
``centers`` (m, d), ``rotations`` (m, d, d), ``widths`` (m, d),
``heights`` (m,), ``angles`` (m,), ``tau`` (m,) and ``eta`` (m, 4). One
private kernel scores a block of points against all components at once,
with a single :func:`transform_vector` call. A row's value does not depend
on the block around it, so :func:`evaluate_raw` of a point, of any block
holding it, and :func:`evaluate_batch` (a sequence of bounded blocks) agree
bit for bit; :func:`component_value` is a one-component landscape. The
formula itself lives only in the scalar :func:`irregularity_transform`, the
tests' oracle, and in :func:`transform_vector`.

Evaluation never mutates landscape state; all mutation goes through the
dynamics module between environments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "ComponentState",
    "ScenarioConfig",
    "Landscape",
    "irregularity_transform",
    "transform_vector",
    "component_value",
    "evaluate_raw",
    "evaluate_batch",
    "optimum",
    "make_landscape",
]


@dataclass(frozen=True, eq=False)
class ComponentState:
    """One peak of the landscape.

    ``widths`` must be strictly positive (they scale the cone slope per
    rotated axis, so the condition number of the component is
    ``widths.max() / widths.min()``). ``rotation`` must be orthogonal; the
    dynamics module is responsible for keeping it so.
    """

    center: np.ndarray
    height: float
    widths: np.ndarray
    angle: float
    tau: float
    eta: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        widths = np.asarray(self.widths, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        rotation = np.asarray(self.rotation, dtype=float)
        d = center.shape[0]
        if center.ndim != 1:
            raise ValueError("center must be a 1-d vector")
        if widths.shape != (d,):
            raise ValueError(f"widths shape {widths.shape} does not match dimension {d}")
        if eta.shape != (4,):
            raise ValueError("eta must hold exactly four frequencies")
        if rotation.shape != (d, d):
            raise ValueError(f"rotation shape {rotation.shape} does not match dimension {d}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "height", float(self.height))
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "angle", float(self.angle))
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "rotation", rotation)

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    @property
    def condition_number(self) -> float:
        return float(self.widths.max() / self.widths.min())


# Bound on the magnitude of one standard normal draw that a severity scales:
# numpy's draws stay far below it (|z| > 64 has probability below 1e-890).
_MAX_DRAW = 64.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario parameters; defaults are the standard benchmark settings.

    Severities are the per-change perturbation scales, ranges the bounds the
    corresponding parameters are reflected into. ``change_frequency`` is the
    number of fitness evaluations between changes and ``num_environments``
    the number of static intervals, so a full run spends exactly
    ``change_frequency * num_environments`` evaluations.
    """

    dimension: int = 10
    num_components: int = 10
    shift_severity: float = 1.0
    height_severity: float = 7.0
    width_severity: float = 1.0
    angle_severity: float = math.pi / 9
    tau_severity: float = 0.2
    eta_severity: float = 2.0
    search_range: tuple[float, float] = (-100.0, 100.0)
    height_range: tuple[float, float] = (30.0, 70.0)
    width_range: tuple[float, float] = (1.0, 12.0)
    angle_range: tuple[float, float] = (-math.pi, math.pi)
    tau_range: tuple[float, float] = (-1.0, 1.0)
    eta_range: tuple[float, float] = (-20.0, 20.0)
    change_frequency: int = 5000
    num_environments: int = 100
    rotation_enabled: bool = True
    seed: int = 0

    def __post_init__(self):
        for name in ("search_range", "height_range", "width_range",
                     "angle_range", "tau_range", "eta_range"):
            lo, hi = getattr(self, name)
            object.__setattr__(self, name, (float(lo), float(hi)))

    @property
    def budget(self) -> int:
        return self.change_frequency * self.num_environments

    def violations(self) -> list[str]:
        """All violated constraints, each naming the offending field."""
        bad = []
        if not isinstance(self.dimension, int) or self.dimension < 1:
            bad.append("dimension must be an integer >= 1")
        if not isinstance(self.num_components, int) or self.num_components < 1:
            bad.append("num_components must be an integer >= 1")
        for name in ("shift_severity", "height_severity", "width_severity",
                     "angle_severity", "tau_severity", "eta_severity"):
            value = getattr(self, name)
            if not math.isfinite(value):
                bad.append(f"{name} must be finite")
            elif value < 0:
                bad.append(f"{name} must be nonnegative")
            elif not math.isfinite(_MAX_DRAW * value):
                # a change's step (severity times a standard normal draw)
                # would overflow
                bad.append(f"{name} is too large: {_MAX_DRAW:g} * {name} must be finite")
        for name in ("search_range", "height_range", "width_range",
                     "angle_range", "tau_range", "eta_range"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                bad.append(f"{name} bounds must be finite")
            elif not math.isfinite(hi - lo):
                bad.append(f"{name} width (upper - lower) must be finite")
        if not self.search_range[0] < self.search_range[1]:
            bad.append("search_range must satisfy lower < upper")
        for name in ("height_range", "width_range", "angle_range",
                     "tau_range", "eta_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                bad.append(f"{name} minimum exceeds maximum")
        if self.width_range[0] <= 0:
            bad.append("width range must be positive")
        if not isinstance(self.change_frequency, int) or self.change_frequency < 1:
            bad.append("change_frequency must be an integer >= 1")
        if not isinstance(self.num_environments, int) or self.num_environments < 1:
            bad.append("num_environments must be an integer >= 1")
        if not isinstance(self.seed, int) or self.seed < 0:
            bad.append("seed must be a nonnegative integer")
        return bad

    def validate(self) -> "ScenarioConfig":
        """Return self, raising ``ValueError`` naming every violated constraint."""
        bad = self.violations()
        if bad:
            raise ValueError("invalid scenario config: " + "; ".join(bad))
        return self


@dataclass(frozen=True, eq=False)
class Landscape:
    """One static environment, held as stacked component arrays.

    Row ``k`` of each array belongs to component ``k``: ``centers`` (m, d),
    ``rotations`` (m, d, d), ``widths`` (m, d), ``heights`` (m,), ``angles``
    (m,), ``tau`` (m,) and ``eta`` (m, 4). Evaluation reads only these, and
    the dynamics module advances them all at once.

    The optimum is analytic and cached at construction: a component's value
    never exceeds its height and attains it only at the center, so the
    global maximum is the largest height, located at that component's center
    (ties: lowest index).
    """

    environment_index: int
    centers: np.ndarray
    rotations: np.ndarray
    widths: np.ndarray
    heights: np.ndarray
    angles: np.ndarray
    tau: np.ndarray
    eta: np.ndarray
    optimum_value: float = field(init=False)
    optimum_position: np.ndarray = field(init=False)

    def __post_init__(self):
        k = int(np.argmax(self.heights))
        object.__setattr__(self, "environment_index", int(self.environment_index))
        object.__setattr__(self, "optimum_value", float(self.heights[k]))
        object.__setattr__(self, "optimum_position", self.centers[k].copy())

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]

    @property
    def num_components(self) -> int:
        return self.heights.shape[0]

    @property
    def components(self) -> tuple[ComponentState, ...]:
        """One :class:`ComponentState` per row of the stacked arrays."""
        return tuple(ComponentState(center=self.centers[k], height=self.heights[k],
                                    widths=self.widths[k], angle=self.angles[k],
                                    tau=self.tau[k], eta=self.eta[k],
                                    rotation=self.rotations[k])
                     for k in range(self.num_components))


def make_landscape(environment_index: int, components: Sequence[ComponentState]) -> Landscape:
    """Assemble a landscape by stacking the parameters of ``components``."""
    components = tuple(components)
    if not components:
        raise ValueError("landscape needs at least one component")
    return Landscape(
        environment_index=environment_index,
        centers=np.stack([c.center for c in components]),
        rotations=np.stack([c.rotation for c in components]),
        widths=np.stack([c.widths for c in components]),
        heights=np.array([c.height for c in components]),
        angles=np.array([c.angle for c in components]),
        tau=np.array([c.tau for c in components]),
        eta=np.stack([c.eta for c in components]),
    )


def irregularity_transform(y: float, tau: float, eta: Sequence[float]) -> float:
    """Sign-preserving log-sine warp of a scalar offset.

    Positive inputs use the first two ``eta`` frequencies, negative inputs the
    last two; 0 maps to 0 exactly. The ``exp(log|y| + ...)`` form is evaluated
    literally rather than rewritten through powers, so with ``tau == 0`` the
    result is ``exp(log|y|) * sign(y)``, equal to ``y`` up to rounding.
    """
    if y == 0.0:
        return 0.0
    ly = math.log(abs(y))
    if y > 0.0:
        a, b = eta[0], eta[1]
    else:
        a, b = eta[2], eta[3]
    out = math.exp(ly + tau * (math.sin(a * ly) + math.sin(b * ly)))
    return out if y > 0.0 else -out


def transform_vector(y: np.ndarray, tau, eta: np.ndarray) -> np.ndarray:
    """Elementwise :func:`irregularity_transform` over an array of offsets.

    ``tau`` and each ``eta[..., j]`` broadcast against ``y``, so one call can
    warp the offsets of many components, each with its own parameters.
    """
    y = np.asarray(y, dtype=float)
    eta = np.asarray(eta, dtype=float)
    pos = y > 0.0
    # log|y|, with a zero offset read as 1 so that it needs no mask: it maps
    # to sign(0) * exp(0) = 0
    ly = np.abs(y)
    ly += y == 0.0
    np.log(ly, out=ly)
    out = np.where(pos, eta[..., 0], eta[..., 2])
    out *= ly
    np.sin(out, out=out)
    wave = np.where(pos, eta[..., 1], eta[..., 3])
    wave *= ly
    np.sin(wave, out=wave)
    out += wave
    out *= tau
    out += ly
    np.exp(out, out=out)
    out *= np.sign(y)
    return out


# Cap on the (component, point, axis) elements of one kernel call, so that
# the temporaries of evaluate_batch stay a few hundred KiB however many
# points it is given.
_BLOCK_ELEMENTS = 1 << 15


def _peak_values(points: np.ndarray, landscape: Landscape) -> np.ndarray:
    """Landscape objective at each row of an ``(n, d)`` block of points.

    A row's value does not depend on the other rows of the block: every
    product below is one vector-matrix or vector-vector product per
    (component, point). A single ``(m, n, d) @ (m, d, d)`` product would
    round differently for ``n == 1`` (gemv) and ``n >= 2`` (gemm).
    """
    # y[k, i] = R_k (x_i - c_k); the offset form keeps a center's value exact
    offsets = points[None, :, :] - landscape.centers[:, None, :]
    y = (offsets[:, :, None, :] @ landscape.rotations.transpose(0, 2, 1)[:, None])[:, :, 0, :]
    t = transform_vector(y, landscape.tau[:, None, None], landscape.eta[:, None, None, :])
    # one (widths * t) . t dot product per component and point
    values = ((landscape.widths[:, None, :] * t)[:, :, None, :] @ t[:, :, :, None])[:, :, 0, 0]
    np.sqrt(values, out=values)
    np.subtract(landscape.heights[:, None], values, out=values)
    return values.max(axis=0)


def component_value(x: np.ndarray, comp: ComponentState) -> float:
    """Value of a single component at ``x``; at most ``comp.height``, with
    equality exactly at the center."""
    return evaluate_raw(x, make_landscape(0, [comp]))


def evaluate_raw(x: np.ndarray, landscape: Landscape):
    """Landscape objective at ``x``: max over components.

    A ``(d,)`` point gives a float; an ``(n, d)`` block gives an ``(n,)``
    array, each row equal to the value of that point alone.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (landscape.dimension,) or x.ndim > 2:
        raise ValueError(f"point of shape {x.shape} does not match landscape dimension {landscape.dimension}")
    if x.ndim == 2:
        return _peak_values(x, landscape)
    return float(_peak_values(x[None, :], landscape)[0])


def evaluate_batch(points: np.ndarray, landscape: Landscape) -> np.ndarray:
    """:func:`evaluate_raw` over an ``(n, d)`` array of points, scored in
    blocks of bounded size."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != landscape.dimension:
        raise ValueError(f"points of shape {points.shape} do not match landscape dimension {landscape.dimension}")
    rows = max(1, _BLOCK_ELEMENTS // landscape.centers.size)
    values = np.empty(points.shape[0])
    for start in range(0, points.shape[0], rows):
        values[start:start + rows] = _peak_values(points[start:start + rows], landscape)
    return values


def optimum(landscape: Landscape) -> tuple[float, np.ndarray]:
    """Global maximum value and its position (cached at construction)."""
    return landscape.optimum_value, landscape.optimum_position.copy()
