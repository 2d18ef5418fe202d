"""Piecewise-linear history segments on a trailing time window.

A delay system consumes, at every instant, the restriction of the state to
the window [-r, 0] (offsets relative to "now").  This module provides the
container for such restrictions: a vector-valued function on [-r, 0] stored
as samples on a strictly increasing offset grid and interpolated linearly in
between.  Segments are immutable; every operation returns a new segment.

User-built segments (constructor, JSON) are validated.  Windows built by
``sample_history``, ``extend`` and ``add_constant`` are valid by construction:
they check what their inputs decide and use the private builders ``_segment``
(one window) and ``_build_windows`` (a block of sampled windows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HistorySegment",
    "sup_norm",
    "extend",
    "history_distance",
    "sample_history",
    "clip_to_ball",
]

# absolute slack accepted when a query or a grid endpoint sits just outside
# the window due to rounding
RANGE_TOL = 1e-12
# sample_history: interior knots drawn at most, evenly spaced offsets added
SAMPLE_MAX_KNOTS = 4
SAMPLE_DENSIFY = 33


@dataclass(frozen=True, eq=False)
class HistorySegment:
    """State history on [-delay, 0], piecewise linear between grid offsets.

    ``head`` (the state now), ``delayed`` (the state one delay ago) and
    ``integral()`` are what most dynamics read; the integrator's windows
    answer them without building ``grid`` and ``values``.
    """

    delay: float
    grid: np.ndarray     # (k,) strictly increasing offsets, covers [-delay, 0]
    values: np.ndarray   # (k, n) one state row per offset

    def __post_init__(self):
        grid = np.ascontiguousarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise ValueError(f"values must be a (k,) or (k, n) array, got {values.ndim} dimensions")
        values = np.ascontiguousarray(values)
        if not np.isfinite(self.delay) or self.delay <= 0.0:
            raise ValueError(f"delay must be a positive real, got {self.delay!r}")
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid needs at least the two window endpoints")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid offsets must be strictly increasing")
        if abs(grid[0] + self.delay) > RANGE_TOL or abs(grid[-1]) > RANGE_TOL:
            raise ValueError(
                f"grid must span [-delay, 0]; got [{grid[0]!r}, {grid[-1]!r}] "
                f"for delay {self.delay!r}"
            )
        if values.shape[0] != grid.size:
            raise ValueError("need exactly one value row per grid offset")
        if not np.isfinite(values).all():
            raise ValueError("history values must be finite")
        if grid[0] != -self.delay or grid[-1] != 0.0:
            grid = grid.copy()
            grid[0] = -self.delay
            grid[-1] = 0.0
        grid.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        if not isinstance(other, HistorySegment):
            return NotImplemented
        return (
            self.delay == other.delay
            and np.array_equal(self.grid, other.grid)
            and np.array_equal(self.values, other.values)
        )

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    # -- what dynamics read ----------------------------------------------------
    @property
    def head(self) -> np.ndarray:
        """The row at offset 0, x(t)."""
        return self.values[-1]

    @property
    def delayed(self) -> np.ndarray:
        """The row at offset -delay, x(t - delay)."""
        return self.values[0]

    def integral(self) -> np.ndarray:
        """Trapezoid integral of each state column over the window; column j
        is ``np.trapezoid(values[:, j], grid)``: one call over the columns as
        contiguous rows, each summed as that column alone is."""
        return _trapezoid(np.ascontiguousarray(self.values.T), self.grid)

    # -- constructors --------------------------------------------------------
    @classmethod
    def constant(cls, delay: float, value) -> "HistorySegment":
        value = np.atleast_1d(np.asarray(value, dtype=float))
        grid = np.array([-delay, 0.0])
        return cls(delay, grid, np.vstack([value, value]))

    # -- evaluation ----------------------------------------------------------
    def eval(self, theta: float) -> np.ndarray:
        """Value at offset ``theta``; exact (bitwise) at grid offsets.  NaN
        lies outside every window."""
        if not (-self.delay - RANGE_TOL <= theta <= RANGE_TOL):
            raise ValueError(
                f"offset {theta!r} outside the window [{-self.delay!r}, 0]"
            )
        theta = min(max(theta, -self.delay), 0.0)
        grid = self.grid
        # the grid runs from exactly -delay to exactly 0, so i is in [0, size - 1],
        # and i = size - 1 only at theta = 0, an exact knot
        i = int(np.searchsorted(grid, theta, side="right")) - 1
        if grid[i] == theta:
            return self.values[i].copy()
        w = (theta - grid[i]) / (grid[i + 1] - grid[i])
        return (1.0 - w) * self.values[i] + w * self.values[i + 1]

    def eval_many(self, thetas: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`eval`; rows of values for each offset."""
        thetas = np.asarray(thetas, dtype=float)
        # min and max propagate NaN, which fails both comparisons
        if thetas.size and not (
            thetas.min() >= -self.delay - RANGE_TOL and thetas.max() <= RANGE_TOL
        ):
            raise ValueError("offsets outside the history window")
        return _interp(self.grid, self.values, np.clip(thetas, -self.delay, 0.0))

    def add_constant(self, w) -> "HistorySegment":
        """Shift every value row by the constant vector ``w``."""
        w = np.atleast_1d(np.asarray(w, dtype=float))
        if w.shape != (self.dim,) or not np.isfinite(w).all():
            raise ValueError(f"offset must be finite, of shape ({self.dim},)")
        with np.errstate(over="ignore"):  # an overflow raises below
            values = self.values + w
        if not np.isfinite(values).all():
            raise ValueError("the shift overflows: shifted values must be finite")
        return _segment(self.delay, self.grid, values)

    # -- serialization -------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "r": self.delay,
            "n": self.dim,
            "grid": self.grid.tolist(),
            "values": self.values.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "HistorySegment":
        seg = cls(float(data["r"]), np.asarray(data["grid"]), np.asarray(data["values"]))
        if seg.dim != int(data["n"]):
            raise ValueError("declared dimension does not match the value rows")
        return seg


def _segment(delay, grid: np.ndarray, values: np.ndarray) -> HistorySegment:
    """Segment from a grid strictly increasing from exactly -delay to exactly 0
    and one finite row per offset, without ``__post_init__``'s checks."""
    grid.flags.writeable = values.flags.writeable = False
    seg = object.__new__(HistorySegment)
    seg.__dict__.update(delay=delay, grid=grid, values=values)
    return seg


def _trapezoid(y: np.ndarray, x: np.ndarray):
    """``np.trapezoid(y, x)`` along the last axis of y for a 1-D x, bitwise:
    its own arithmetic and ``np.add.reduce`` without its argument handling.
    Row i of a 2-D y gives what ``y[i]`` alone gives."""
    return np.add.reduce((x[1:] - x[:-1]) * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)


def _lerp(th: np.ndarray, lo: np.ndarray, hi: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """Rows ``(1 - w) * lower + w * upper`` at the weights ``w = (th - lo) / (hi - lo)``,
    and exactly ``lower`` where ``th == lo``: the one array interpolation rule."""
    w = (th - lo) / (hi - lo)
    out = (1.0 - w)[:, None] * lower + w[:, None] * upper
    exact = th == lo
    out[exact] = lower[exact]
    return out


def _interp(grid: np.ndarray, values: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Linear interpolant's rows at offsets ``th`` in [grid[0], grid[-1]], exact at knots."""
    idx = np.minimum(np.searchsorted(grid, th, side="right") - 1, grid.size - 2)
    out = _lerp(th, grid[idx], grid[idx + 1], values[idx], values[idx + 1])
    top = th == grid[-1]
    if top.any():
        out[top] = values[-1]
    return out


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row."""
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a 1-D float array, bit for bit, quiet when its
    square overflows (above about 1.34e154)."""
    if math.hypot(*x.tolist()) < 1e154:  # hypot cannot overflow, and this square cannot either
        return math.sqrt(x.dot(x))
    with np.errstate(over="ignore"):
        return math.sqrt(x.dot(x))


def sup_norm(segment: HistorySegment) -> float:
    """Largest Euclidean value norm over the window.

    The norm is convex along every linear piece of the segment, so its
    maximum sits at a grid offset: the result is the largest knot norm.
    """
    return float(_row_norms(segment.values).max())


def extend(segment: HistorySegment, v, step: float) -> HistorySegment:
    """Slide the window forward by ``step``, appending a linear ramp.

    The result at offset ``theta`` equals ``segment(theta + step)`` for
    ``theta <= -step`` and ``segment(0) + (theta + step) * v`` above; the two
    formulas agree at the knot ``-step``.  Requires ``0 <= step < delay``;
    a zero step returns the segment unchanged (segments are immutable).
    """
    if step == 0.0:
        return segment
    if not (0.0 < step < segment.delay):
        raise ValueError(
            f"step must lie inside [0, {segment.delay!r}), got {step!r}"
        )
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (segment.dim,):
        raise ValueError(f"slope must have shape ({segment.dim},)")
    r = segment.delay
    grid, values = segment.grid, segment.values

    # knots moved back by step that survive inside [-r, -step)
    lo = step - r  # old offsets strictly above this survive; lo is in [-r, 0)
    i0 = int(np.searchsorted(grid, lo, side="right"))
    keep = grid[i0:] - step          # in [-r, -step], as rounding is monotone; the 0 maps to -step
    keep_vals = values[i0:]
    if (keep[1:] <= keep[:-1]).any():
        # neighbours closer than the rounding of the subtraction landed on
        # one offset; keep the last, so the knot at -step still carries x(0)
        last = np.append(keep[1:] > keep[:-1], True)
        keep, keep_vals = keep[last], keep_vals[last]

    # head knot -r with the row at lo, unless a moved knot landed on it;
    # keep[-1] = -step carries x(0), and the ramp ends at the top knot 0
    head = int(keep[0] != -r)
    size = head + keep.size + 1
    new_grid = np.empty(size)
    new_vals = np.empty((size, segment.dim))
    if head:
        # segment.eval(lo): grid[i0 - 1] <= lo < grid[i0], found by the search above
        a = grid[i0 - 1]
        new_grid[0] = -r
        if a == lo:
            new_vals[0] = values[i0 - 1]
        else:
            w = (lo - a) / (grid[i0] - a)
            new_vals[0] = (1.0 - w) * values[i0 - 1] + w * values[i0]
    new_grid[head:-1] = keep
    new_grid[-1] = 0.0
    new_vals[head:-1] = keep_vals
    new_vals[-1] = values[-1] + step * v
    if not np.isfinite(new_vals).all():
        raise ValueError("history values must be finite")
    return _segment(r, new_grid, new_vals)


def history_distance(a: HistorySegment, b: HistorySegment) -> float:
    """Sup norm of the difference of two segments sharing a window."""
    if abs(a.delay - b.delay) > RANGE_TOL:
        raise ValueError("segments live on different windows")
    grid = np.union1d(a.grid, b.grid)
    diff = a.eval_many(grid) - b.eval_many(grid)
    return float(_row_norms(diff).max())


def sample_history(
    rng: np.random.Generator,
    delay: float,
    dim: int,
    norm_bound: float,
) -> HistorySegment:
    """Random piecewise-linear segment inside the closed norm ball.

    Draws 1..SAMPLE_MAX_KNOTS interior knots, then walks knot values uniformly
    in the ball while clipping increments so slopes stay at most
    ``8 * max(norm_bound, 1e-12) / delay``.  SAMPLE_DENSIFY evenly spaced grid
    points are added so downstream quadratures see a reasonable resolution;
    they do not change the function.

    The draws from ``rng``, in order: the knot count (``integers``), the
    interior offsets (``random``, one call, read as ``uniform(-delay, 0)``),
    then for each knot a normal direction (``normal``) and, unless it is
    zero, a radius (``random``).  This is a block of one of the falsifiers'
    block draw: the generator calls are made one knot at a time in that
    order, and the arithmetic on the drawn values (ball points, slope clips,
    densified rows) runs once for the block, so the stream and the window
    are those of a scalar draw.  The window is valid by construction: after
    ``delay`` and ``norm_bound`` are checked it is built by the private
    ``_segment``, while segments users build are still validated.
    """
    return _draw_block(rng, 1, delay, dim, norm_bound)[1][0]


def _box_range(box: np.ndarray) -> tuple:
    """A box's rows of [lo, hi] as (lo, hi - lo).  ``lo + (hi - lo) * u`` at
    ``rng.random`` draws u is bitwise ``rng.uniform(lo, hi)``, and the range
    is checked as it checks it: OverflowError when not finite, then
    ValueError when its sign bit is set."""
    lo = box[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # such a range raises below
        span = box[:, 1] - lo
    if not np.isfinite(span).all():
        raise OverflowError("high - low range exceeds valid bounds")
    if np.signbit(span).any():
        raise ValueError("high - low < 0")
    return lo, span


def _draw_block(
    rng: np.random.Generator,
    count: int,
    delay: float,
    dim: int,
    norm_bound: float,
    t_range: tuple | None = None,
    boxes: tuple = (),
) -> tuple:
    """``count`` samples of a time, a :func:`sample_history` window and a
    point of each box: the times as floats, the windows and the box points of
    :func:`_draw_points`' draw."""
    times, offsets, rows, sizes, drawn = _draw_points(rng, count, delay, dim, norm_bound, t_range, boxes)
    return times.tolist(), _build_windows(delay, offsets, rows, sizes), drawn


def _draw_points(
    rng: np.random.Generator,
    count: int,
    delay: float,
    dim: int,
    norm_bound: float,
    t_range: tuple | None = None,
    boxes: tuple = (),
) -> tuple:
    """The points of ``count`` samples of a time, a :func:`sample_history`
    window and a point of each box, drawn sample by sample in that order.

    A time is one ``random()`` read as ``uniform(*t_range)``; the points of
    ``boxes`` (each None or rows of [lo, hi]) are one ``random(rows)`` call
    over all their rows, read as ``uniform`` per row.  Only the generator
    calls run per sample and per knot, in the documented order, and the loop
    around them only collects their values in flat lists; the ball points,
    the slope clip walk (one vector step per knot column) and the box points
    are computed once for the block, from those lists converted to float
    arrays.  Returns new arrays: the times (empty without ``t_range``), the
    knot offsets and clipped knot rows of the windows with their knot counts
    (what :func:`_build_windows` reads), and one (count, rows) array of points
    per box.
    """
    if t_range is not None:
        t_lo, t_span = _box_range(np.array([t_range], dtype=float))
    if not 0.0 < delay < math.inf:
        raise ValueError(f"delay must be a positive finite real, got {delay!r}")
    if not 0.0 <= norm_bound < math.inf:
        raise ValueError(f"norm_bound must be a finite number >= 0, got {norm_bound!r}")
    boxes = [np.zeros((0, 2)) if b is None or b.shape[0] == 0 else b for b in boxes]
    ranges = [_box_range(b) for b in boxes]
    rows = sum(b.shape[0] for b in boxes)

    random, normal, integers = rng.random, rng.normal, rng.integers
    inv_dim = 1.0 / max(dim, 1)  # a dimension-0 normal is zero: no radius is drawn
    times, knots, sizes, normals, radii, units = [], [], [], [], [], []
    for _ in range(count):
        if t_range is not None:
            times.append(random())
        k = int(integers(1, SAMPLE_MAX_KNOTS + 1))
        # delay * u - delay is uniform(-delay, 0)'s arithmetic; its values lie
        # in [-delay, 0] and are never -0.0: the set drops what np.unique would
        offsets = sorted({-delay, *[delay * u - delay for u in random(k).tolist()], 0.0})
        knots += offsets
        sizes.append(len(offsets))
        for _ in offsets:
            z = normal(size=dim).tolist()
            normals += z
            radii.append(norm_bound * random() ** inv_dim if any(z) else 0.0)
        if rows:
            units += random(rows).tolist()

    # knot columns: line j holds window j's sizes[j] knots, then padding that
    # repeats its last offset 0 with a zero point, so it clips to a zero step
    sizes = np.array(sizes)
    width = SAMPLE_MAX_KNOTS + 2
    used = np.arange(width) < sizes[:, None]
    offsets = np.zeros((count, width))
    offsets[used] = np.array(knots, dtype=float)
    lims = 8.0 * max(norm_bound, 1e-12) / delay * (offsets[:, 1:] - offsets[:, :-1])
    z = np.array(normals, dtype=float).reshape(len(radii), dim)
    nz = np.sqrt(np.vecdot(z, z))  # bitwise math.sqrt(z.dot(z)) row by row
    # a zero normal's point is +0.0, as np.zeros(dim) was, whatever its zeros' signs
    zero = nz == 0.0
    z[zero] = 0.0
    nz[zero] = 1.0
    vals = np.zeros((count, width, dim))
    vals[used] = z * (np.array(radii, dtype=float) / nz)[:, None]
    # the walk overwrites each column's ball points with its clipped values
    for c in range(1, sizes.max()):
        dv = vals[:, c] - vals[:, c - 1]
        nd = np.sqrt(np.vecdot(dv, dv))
        lim = lims[:, c - 1]
        dv *= np.divide(lim, nd, out=np.ones(count), where=nd > lim)[:, None]
        np.add(vals[:, c - 1], dv, out=vals[:, c])

    times = np.array(times, dtype=float)
    if t_range is not None:
        times = t_lo + t_span * times
    units = np.array(units, dtype=float).reshape(count, rows)
    drawn, first = [], 0
    for box, (lo, span) in zip(boxes, ranges):
        drawn.append(lo + span * units[:, first:first + box.shape[0]])
        first += box.shape[0]
    return times, offsets, vals, sizes, drawn


def _build_windows(delay, offsets: np.ndarray, rows: np.ndarray, sizes: np.ndarray) -> list:
    """The windows whose knots are the first ``sizes[j]`` entries of line j of
    ``offsets`` (from exactly -delay to exactly 0) and of ``rows``.

    Each window's grid is the sorted union of its knots and the
    SAMPLE_DENSIFY evenly spaced offsets, and its rows interpolate the knot
    rows with :func:`_lerp`, as :func:`_interp` does, so they are bitwise what
    ``np.union1d`` and ``_interp`` give one window at a time.  All windows
    are merged and interpolated in one pass, against the dense offsets of
    ``delay``, which ``np.linspace`` writes into every line.  The block's
    flat grid and rows are frozen once, and each segment views its slice of
    them.
    """
    count, width = offsets.shape
    base = width * np.arange(count)  # each line's first knot in knots and rows
    knots = offsets.ravel()
    rows = rows.reshape(count * width, rows.shape[2])
    # one line per window: its knots, padding, then the dense offsets; the
    # stable sort puts a knot before a dense offset equal to it, padding last
    lines = np.empty((count, width + SAMPLE_DENSIFY))
    lines[:, :width] = np.where(np.arange(width) < sizes[:, None], offsets, math.inf)
    lines[:, width:] = np.linspace(-delay, 0.0, SAMPLE_DENSIFY)
    order = np.argsort(lines, axis=1, kind="stable")
    lines = np.take_along_axis(lines, order, axis=1)
    # an offset's last knot at or below it, as _interp's searchsorted finds it
    idx = np.minimum(np.cumsum(order < width, axis=1) - 1, (sizes - 2)[:, None]) + base[:, None]
    keep = lines < math.inf
    keep[:, 1:] &= lines[:, 1:] != lines[:, :-1]  # a repeated offset keeps its first point
    grid, idx = lines[keep], idx[keep]
    ends = np.cumsum(keep.sum(axis=1))
    # np.take gathers rows bitwise as indexing does, at a fraction of its cost
    lower, upper = np.take(rows, idx, axis=0), np.take(rows, idx + 1, axis=0)
    values = _lerp(grid, knots[idx], knots[idx + 1], lower, upper)
    values[ends - 1] = np.take(rows, base + sizes - 1, axis=0)  # each window's top offset 0
    if not np.isfinite(values).all():
        raise ValueError("history values must be finite")
    # views of a read-only array are read-only: no window sets its own flags
    grid.flags.writeable = values.flags.writeable = False
    new, windows, ends = object.__new__, [], ends.tolist()
    for a, b in zip([0, *ends], ends):
        seg = new(HistorySegment)
        seg.__dict__.update(delay=delay, grid=grid[a:b], values=values[a:b])
        windows.append(seg)
    return windows


def clip_to_ball(segment: HistorySegment, norm_bound: float) -> HistorySegment:
    """Radially rescale grid values so every point norm is at most the bound."""
    norms = _row_norms(segment.values)
    if norms.size == 0 or norms.max() <= norm_bound:
        return segment
    scale = np.minimum(1.0, norm_bound / np.maximum(norms, 1e-300))
    return HistorySegment(segment.delay, segment.grid, segment.values * scale[:, None])
