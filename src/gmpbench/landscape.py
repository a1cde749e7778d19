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
:func:`transform_vector` call, the only code that computes ``T``; the
kernel is its one caller and always hands it the workspace below. The one
entry to the kernel is :func:`evaluate_raw`, which scores a point or a
block of any length in pieces of bounded size (``evaluate_batch`` is the
same function under its older name). A row's value does not depend on the block around
it, so a point alone and inside any block score bit for bit the same.

The kernel writes its (component, point, axis) temporaries into a
workspace instead of fresh arrays, so a block sent over and over does not
fault new pages in on every call. One rule picks it: a block of at most
``_BLOCK_ELEMENTS // (m * d)`` rows (a point is a one-row block) uses its
thread's workspace, so threads may score at once; any other block is scored
in pieces of that many rows (at least one) in a workspace of the call's own,
dropped when the call returns. Every workspace has one layout, allocated
once and never grown: a thread's holds ``_BLOCK_ELEMENTS`` elements per
temporary and outlives every call, and a call's own holds the larger of
that and one row. No array :func:`evaluate_raw` returns is a view of a
workspace.

Evaluation never mutates landscape state; all mutation goes through the
dynamics module between environments.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "ScenarioConfig",
    "FIELD_TYPES",
    "MAX_ARRAY_ELEMENTS",
    "Landscape",
    "transform_vector",
    "evaluate_raw",
    "evaluate_batch",
]


# Bound on the magnitude of one standard normal draw that a severity scales:
# numpy's draws stay far below it (|z| > 64 has probability below 1e-890).
_MAX_DRAW = 64.0

# Cap on the elements of one array that a run allocates: each of the
# ledger's budget-length arrays (change_frequency * num_environments) and
# the (m, d, d) rotation stack. 2**26 float64 elements are 512 MiB; a config
# above it is rejected by validation rather than failing to allocate at run
# time.
MAX_ARRAY_ELEMENTS = 1 << 26

_FLOAT_MAX = sys.float_info.max


def _is_integer(value) -> bool:
    """The schema's integer rule: an ``int`` or numpy integer, not a ``bool`` or ``timedelta64``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.timedelta64))


def _is_number(value) -> bool:
    """The schema's number rule: an integer, a ``float`` or a numpy float."""
    return _is_integer(value) or isinstance(value, (float, np.floating))


def _is_finite(value) -> bool:
    """The schema's finiteness rule for a number: NaN, the infinities and
    an ``int`` beyond the float range are not finite. The comparison is
    exact, so it never converts an ``int`` to a float."""
    return -_FLOAT_MAX <= value <= _FLOAT_MAX


def _is_pair(value) -> bool:
    """The schema's range rule: a two-element list, tuple or 1-D array of numbers."""
    return (isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim == 1) \
        and len(value) == 2 and all(map(_is_number, value))


# The schema's type rule, per field type: (accepts a value, what it must
# be). ScenarioConfig.violations applies it, to Python, numpy and JSON input.
_TYPE_RULES = {
    tuple: (_is_pair, "a two-element numeric array"),
    bool: (lambda v: isinstance(v, (bool, np.bool_)), "a boolean"),
    int: (_is_integer, "an integer"),
    float: (_is_number, "a number"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario parameters; defaults are the standard benchmark settings.

    Severities are the per-change perturbation scales, ranges the bounds the
    corresponding parameters are reflected into. ``change_frequency`` is the
    number of fitness evaluations between changes and ``num_environments``
    the number of static intervals, so a full run spends exactly
    ``change_frequency * num_environments`` evaluations.

    A value from Python, numpy or JSON is converted and named here alone:
    an accepted value is stored as an ``int``, a ``bool``, a ``float`` or a
    pair of floats; any other is kept as given, for :meth:`violations` to name,
    except that an array of one or more axes is kept as its ``tolist()``, so
    that ``==`` still compares configs. A config that keeps a list, as given
    or from an array, is unhashable.
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
        # a malformed value or an int beyond the float range is kept for violations()
        for name, kind in FIELD_TYPES.items():
            value = getattr(self, name)
            parts = value if kind is tuple else [value]
            if _TYPE_RULES[kind][0](value) and all(map(_is_finite, filter(_is_integer, parts))):
                object.__setattr__(self, name, tuple(map(float, value)) if kind is tuple else kind(value))
            elif isinstance(value, np.ndarray) and value.ndim:
                object.__setattr__(self, name, value.tolist())

    @property
    def budget(self) -> int:
        return self.change_frequency * self.num_environments

    def violations(self) -> list[str]:
        """All violated constraints, each naming the offending field. A
        field of the wrong type is named by the schema's type rule, and
        the checks that need its value are skipped."""
        bad = []
        for name, kind in FIELD_TYPES.items():
            value = getattr(self, name)
            accepts, what = _TYPE_RULES[kind]
            if kind is int:
                least = 0 if name == "seed" else 1
                if not accepts(value) or value < least:
                    bad.append(f"{name} must be an integer >= {least}")
            elif not accepts(value):
                bad.append(f"{name} must be {what}")
            elif kind is float:  # a severity
                if not _is_finite(value):
                    bad.append(f"{name} must be finite")
                elif value < 0:
                    bad.append(f"{name} must be nonnegative")
                elif not math.isfinite(_MAX_DRAW * value):
                    # a change's step (severity times a standard normal draw)
                    # would overflow
                    bad.append(f"{name} is too large: {_MAX_DRAW:g} * {name} must be finite")
            elif kind is tuple:
                lo, hi = value
                if not (_is_finite(lo) and _is_finite(hi)):
                    bad.append(f"{name} bounds must be finite")
                elif not _is_finite(hi - lo):
                    bad.append(f"{name} width (upper - lower) must be finite")
                elif name == "search_range" and not lo < hi:
                    bad.append("search_range must satisfy lower < upper")
                elif lo > hi:
                    bad.append(f"{name} minimum exceeds maximum")
        if _is_pair(self.width_range) and self.width_range[0] <= 0:
            bad.append("width range must be positive")
        d = self.dimension
        # the largest quadratic form a component can reach, once its factors
        # are valid: a rotated offset has at most d entries of magnitude at
        # most sqrt(d) * (ub - lb), which the warp scales by at most
        # e^(2 max|tau|), and each is weighted by at most the largest width.
        # Its logarithm is compared, since math.exp raises OverflowError.
        ranges = (self.search_range, self.width_range, self.tau_range)
        if _is_integer(d) and d >= 1 and all(map(_is_pair, ranges)):
            (lb, ub), (w_lo, w_hi), taus = ranges
            if (all(map(_is_finite, (lb, ub, ub - lb, w_lo, w_hi, *taus)))
                    and 0 < ub - lb and 0 < w_lo <= w_hi):
                log_form = (2 * math.log(d) + math.log(w_hi) + 2 * math.log(ub - lb)
                            + 4 * max(map(abs, taus)))
                if not log_form < math.log(np.finfo(float).max):
                    bad.append("dimension, search_range, width_range and tau_range overflow a "
                               "component's value: dimension * max width * (sqrt(dimension) * "
                               "search width * e**(2 * max|tau|))**2 must be finite")
        # the largest arrays of a run, once their factors are valid
        for names, factors in (
                ("change_frequency * num_environments",
                 (self.change_frequency, self.num_environments)),
                ("num_components * dimension**2", (self.num_components, d, d))):
            if not all(_is_integer(f) and f >= 1 for f in factors):
                continue
            size = math.prod(factors)
            if size > MAX_ARRAY_ELEMENTS:
                bad.append(f"{names} is {size}, above the {MAX_ARRAY_ELEMENTS} "
                           "elements an array of a run may hold")
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
    (m,), ``tau`` (m,) and ``eta`` (m, 4); an array of another shape is
    rejected with ``ValueError``. Evaluation reads only these, and the
    dynamics module advances them all at once.

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
    # the kernel's operands, views of the arrays above laid out to broadcast
    # over (component, point, axis): centers, transposed rotations, tau, eta,
    # widths and heights. The warp gathers eta into float64 slots, so eta's
    # is a float64 copy when eta is of another dtype.
    _operands: tuple = field(init=False, repr=False)

    def __post_init__(self):
        # the kernel broadcasts the arrays against each other, so a wrong
        # shape could be scored silently with the wrong parameters
        if np.ndim(self.centers) != 2:
            raise ValueError(f"centers has shape {np.shape(self.centers)}, not (m, d)")
        m, d = np.shape(self.centers)
        for name, shape in (("rotations", (m, d, d)), ("widths", (m, d)), ("heights", (m,)),
                            ("angles", (m,)), ("tau", (m,)), ("eta", (m, 4))):
            if np.shape(getattr(self, name)) != shape:
                raise ValueError(f"{name} has shape {np.shape(getattr(self, name))}, not {shape}")
        k = int(np.argmax(self.heights))
        object.__setattr__(self, "environment_index", int(self.environment_index))
        object.__setattr__(self, "optimum_value", float(self.heights[k]))
        object.__setattr__(self, "optimum_position", self.centers[k].copy())
        object.__setattr__(self, "_operands", (
            self.centers[:, None, :], self.rotations.transpose(0, 2, 1)[:, None],
            self.tau[:, None, None], np.asarray(self.eta, dtype=float)[:, None, None, :],
            self.widths[:, None, :], self.heights[:, None]))

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]

    @property
    def num_components(self) -> int:
        return self.heights.shape[0]


def transform_vector(y: np.ndarray, tau, eta: np.ndarray, *, scratch: tuple) -> np.ndarray:
    """The warp ``T`` of the module docstring, elementwise over the float64
    array ``y``, written into ``scratch``.

    ``tau`` and ``eta[..., 0]`` broadcast against ``y``, so one call can warp
    the offsets of many components, each with its own parameters: ``eta``
    may be one ``(4,)`` row, one row per component laid out to broadcast
    (``(m, 1, 1, 4)`` in the kernel) or one row per element. Each element's
    frequency pair is gathered from the flat ``eta`` at index ``4 * row + 2
    * (y <= 0)`` and the next one. The ``exp(log|y| + ...)`` form is
    evaluated literally rather than rewritten through powers, so with ``tau
    == 0`` the result is ``exp(log|y|) * sign(y)``, equal to ``y`` up to
    rounding.

    The kernel is the one caller. ``scratch`` holds views of its workspace,
    shaped as ``y``, for ``log|y|``, the result, the second gather (then
    ``sign(y)``), the bool mask and the gather index, plus the component
    rows ``2 * arange(m)`` laid out as ``eta``'s leading axes.
    """
    ly, out, wave, mask, pair, rows = scratch
    # log|y|, with a zero offset read as 1 so that it needs no mask: it maps
    # to sign(0) * exp(0) = 0
    np.abs(y, out=ly)
    ly += np.equal(y, 0.0, out=mask)
    np.log(ly, out=ly)
    # 2 * row + (y <= 0), doubled: the index of a in the flat eta; b follows
    np.add(rows, np.less_equal(y, 0.0, out=mask), out=pair)
    pair <<= 1
    flat = eta.reshape(-1)
    # "clip" gathers straight into out, "raise" through a copy of it; the
    # indices are in range for any (..., 4) eta
    flat.take(pair, out=out, mode="clip")
    out *= ly
    np.sin(out, out=out)
    flat[1:].take(pair, out=wave, mode="clip")
    wave *= ly
    np.sin(wave, out=wave)
    out += wave
    out *= tau
    out += ly
    np.exp(out, out=out)
    out *= np.sign(y, out=wave)
    return out


# Cap on the (component, point, axis) elements of one kernel call, so that
# the temporaries of evaluate_raw stay bounded however many points it is
# given. It sizes each thread's workspace too: five float64 slots (the
# values take part of the fifth), one bool and one index slot of this many
# elements, allocated once.
_BLOCK_ELEMENTS = 1 << 15

# Block shapes whose workspace views a thread keeps; past this many the
# views are made again as shapes come.
_WORKSPACE_SHAPES = 256


class _Workspace(threading.local):
    """The kernel's temporaries in one fixed arena, reused across calls.

    ``floats`` holds five slots of ``elements``, each rounded up to 64 bytes
    so that it starts as aligned as the arena: four (m, n, d) slots and the
    (m, n) values. A slot whose contents are dead takes the next temporary
    (the offsets become ``log|y|``, then ``widths * t``; the second gather
    becomes ``sign(y)``). ``mask`` and ``index`` hold the warp's bool and
    index temporaries. Nothing is reallocated; the views are kept per block
    shape. ``_workspace`` is each thread's; a block that does not fit it is
    scored in a ``_Workspace`` of its call's own.
    """

    def __init__(self, elements: int = _BLOCK_ELEMENTS):
        step = -(-elements // 8) * 8
        self.floats = np.empty(5 * step)
        self.mask = np.empty(step, dtype=bool)
        self.index = np.empty(step, dtype=np.intp)
        self.views = {}

    def scratch(self, m: int, n: int, d: int) -> tuple:
        """The kernel's views of the arena for an (n, d) block of an
        m-component landscape, in the order :func:`_peak_values` unpacks them."""
        views = self.views.get((m, n, d))
        if views is not None:
            return views
        if len(self.views) >= _WORKSPACE_SHAPES:
            self.views = {}
        size, step, floats = m * n * d, self.mask.size, self.floats
        a, y, t, w = (floats[i * step:i * step + size].reshape(m, n, d) for i in range(4))
        # the matmul outputs are laid out, with their length-1 axes, as a fresh
        # result would be: strides pick the BLAS call
        y4 = y.reshape(m, n, 1, d)
        values4 = floats[4 * step:4 * step + m * n].reshape(m, n, 1, 1)
        warp = (a, t, w, self.mask[:size].reshape(m, n, d), self.index[:size].reshape(m, n, d),
                np.arange(0, 2 * m, 2).reshape(m, 1, 1))
        views = self.views[m, n, d] = (a, a[:, :, None, :], y4, y4[:, :, 0, :], warp, values4,
                                       values4[:, :, 0, 0])
        return views


_workspace = _Workspace()


def _peak_values(points: np.ndarray, landscape: Landscape, workspace: _Workspace) -> np.ndarray:
    """Landscape objective at each row of an ``(n, d)`` block of points.

    A row's value does not depend on the other rows of the block: every
    product below is one vector-matrix or vector-vector product per
    (component, point). A single ``(m, n, d) @ (m, d, d)`` product would
    round differently for ``n == 1`` (gemv) and ``n >= 2`` (gemm).

    Every temporary is written into ``workspace``, chosen by the module's
    workspace rule; the returned maximum is a fresh array.
    """
    centers, rotations_t, tau, eta, widths, heights = landscape._operands
    m, d = landscape.centers.shape
    a, a4, y4, y, warp, values4, values = workspace.scratch(m, points.shape[0], d)
    # y[k, i] = R_k (x_i - c_k); the offset form keeps a center's value exact
    np.subtract(points[None, :, :], centers, out=a)
    np.matmul(a4, rotations_t, out=y4)
    t = transform_vector(y, tau, eta, scratch=warp)
    # one (widths * t) . t dot product per component and point
    np.multiply(widths, t, out=a)
    np.matmul(a4, t[:, :, :, None], out=values4)
    np.sqrt(values, out=values)
    np.subtract(heights, values, out=values)
    return values.max(axis=0)


def evaluate_raw(x: np.ndarray, landscape: Landscape):
    """Landscape objective at ``x``: max over components.

    A ``(d,)`` point gives a float; an ``(n, d)`` block gives an ``(n,)``
    array, each row equal to the value of that point alone. A block of more
    than ``_BLOCK_ELEMENTS`` (component, point, axis) elements is scored in
    pieces, so memory stays bounded however many rows it has.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (landscape.dimension,) or x.ndim > 2:
        raise ValueError(f"point of shape {x.shape} does not match landscape dimension {landscape.dimension}")
    points = x if x.ndim == 2 else x[None, :]
    rows = _BLOCK_ELEMENTS // landscape.centers.size
    if len(points) <= rows:
        values = _peak_values(points, landscape, _workspace)
    else:
        # room for one row too, when one row is over the cap
        workspace = _Workspace(max(_BLOCK_ELEMENTS, landscape.centers.size))
        rows = max(rows, 1)
        values = np.empty(len(points))
        for start in range(0, len(points), rows):
            values[start:start + rows] = _peak_values(points[start:start + rows], landscape, workspace)
    return values if x.ndim == 2 else float(values[0])


# The older name of the one kernel entry; the benchmark calls it, and its
# tracer patches it where the grid export looks it up.
evaluate_batch = evaluate_raw
