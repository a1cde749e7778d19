"""Landscape state and objective evaluation for generalized moving peaks.

A landscape is the max-composition of ``m`` peak components. Component ``k``
is a cone apex at ``centers[k]`` with height ``heights[k]``, bent by a
sign-preserving log-sine warp ``T`` of the rotated offset and weighted per
axis by ``widths[k]``:

    value_k(x) = heights[k] - sqrt(sum_j widths[k, j] * T(y_j)^2)
    y = rotations[k] @ (x - centers[k])
    T(y) = sign(y) * exp(log|y| + tau[k] * (sin(a * log|y|) + sin(b * log|y|)))

with ``(a, b) = eta[k, 0:2]`` for ``y > 0``, ``eta[k, 2:4]`` for ``y < 0``,
and ``T(0) = 0``. ``T`` leaves 0, 1 and -1 fixed and is the identity up to
rounding when ``tau[k] == 0``; nonzero ``tau``/``eta`` make the component
irregular, multimodal and (with unequal ``eta``) asymmetric. The widths are
strictly positive and each rotation is orthogonal; the dynamics module keeps
them so.

A :class:`Landscape` holds the components stacked, one row per component:
``centers`` (m, d), ``rotations`` (m, d, d), ``widths`` (m, d), ``heights``
(m,), ``angles`` (m,), ``tau`` (m,) and ``eta`` (m, 4). One private kernel
scores a block of points against all components at once, with a single
:func:`transform_vector` call, the only code that computes ``T``. The one
entry to it is :func:`evaluate_raw`, which scores a point or a block of any
length in pieces of bounded size (``evaluate_batch`` is the same function
under its older name). A row's value does not depend on the block around
it, so a point alone and inside any block score bit for bit the same.

Evaluation never mutates landscape state; all mutation goes through the
dynamics module between environments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "ScenarioConfig",
    "FIELD_TYPES",
    "Landscape",
    "transform_vector",
    "evaluate_raw",
    "evaluate_batch",
]


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
        for name, kind in FIELD_TYPES.items():
            if kind is tuple:
                lo, hi = getattr(self, name)
                object.__setattr__(self, name, (float(lo), float(hi)))

    @property
    def budget(self) -> int:
        return self.change_frequency * self.num_environments

    def violations(self) -> list[str]:
        """All violated constraints, each naming the offending field."""
        bad = []
        for name, kind in FIELD_TYPES.items():
            value = getattr(self, name)
            if kind is int:
                least = 0 if name == "seed" else 1
                if not isinstance(value, int) or value < least:
                    bad.append(f"{name} must be an integer >= {least}")
            elif kind is float:  # a severity
                if not math.isfinite(value):
                    bad.append(f"{name} must be finite")
                elif value < 0:
                    bad.append(f"{name} must be nonnegative")
                elif not math.isfinite(_MAX_DRAW * value):
                    # a change's step (severity times a standard normal draw)
                    # would overflow
                    bad.append(f"{name} is too large: {_MAX_DRAW:g} * {name} must be finite")
            elif kind is tuple:
                lo, hi = value
                if not (math.isfinite(lo) and math.isfinite(hi)):
                    bad.append(f"{name} bounds must be finite")
                elif not math.isfinite(hi - lo):
                    bad.append(f"{name} width (upper - lower) must be finite")
                elif name == "search_range" and not lo < hi:
                    bad.append("search_range must satisfy lower < upper")
                elif lo > hi:
                    bad.append(f"{name} minimum exceeds maximum")
        if self.width_range[0] <= 0:
            bad.append("width range must be positive")
        return bad

    def validate(self) -> "ScenarioConfig":
        """Return self, raising ``ValueError`` naming every violated constraint."""
        bad = self.violations()
        if bad:
            raise ValueError("invalid scenario config: " + "; ".join(bad))
        return self


# The schema of a scenario, read once from the field defaults: the type of
# each field's default, in declaration order. A range's is tuple (a (lower,
# upper) pair); the severities' is float.
FIELD_TYPES = {f.name: type(f.default) for f in fields(ScenarioConfig)}


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


def transform_vector(y: np.ndarray, tau, eta: np.ndarray) -> np.ndarray:
    """The warp ``T`` of the module docstring, elementwise over ``y``.

    ``tau`` and each ``eta[..., j]`` broadcast against ``y``, so one call can
    warp the offsets of many components, each with its own parameters. The
    ``exp(log|y| + ...)`` form is evaluated literally rather than rewritten
    through powers, so with ``tau == 0`` the result is ``exp(log|y|) *
    sign(y)``, equal to ``y`` up to rounding.
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
# the temporaries of evaluate_raw stay a few hundred KiB however many points
# it is given.
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


def evaluate_raw(x: np.ndarray, landscape: Landscape):
    """Landscape objective at ``x``: max over components.

    A ``(d,)`` point gives a float; an ``(n, d)`` block gives an ``(n,)``
    array, each row equal to the value of that point alone. A block is
    scored in pieces of at most ``_BLOCK_ELEMENTS`` (component, point, axis)
    elements, so memory stays bounded however many rows it has.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (landscape.dimension,) or x.ndim > 2:
        raise ValueError(f"point of shape {x.shape} does not match landscape dimension {landscape.dimension}")
    if x.ndim == 1:
        return float(_peak_values(x[None, :], landscape)[0])
    rows = max(1, _BLOCK_ELEMENTS // landscape.centers.size)
    values = np.empty(x.shape[0])
    for start in range(0, x.shape[0], rows):
        values[start:start + rows] = _peak_values(x[start:start + rows], landscape)
    return values


# The older name of the one kernel entry; the benchmark calls it, and its
# tracer patches it where the grid export looks it up.
evaluate_batch = evaluate_raw
