"""Method-of-steps integration for uncertain time-varying delay systems.

The integrator marches a classical 4-stage Runge-Kutta scheme whose step is
clamped to divide the delay exactly and whose grid is split at every signal
switch time, so the only discontinuities the scheme ever crosses sit on grid
nodes.  The accumulated solution keeps node derivatives and is interpolated
with the standard cubic-Hermite continuous extension; stage evaluations see
piecewise-linear history snapshots whose knots include the window endpoints
and every integration node, so discrete-delay reads hit exact knots and the
scheme keeps its full order.  Runs whose knots coincide advance in lock-step,
each bitwise its solo run (:func:`_integrate_runs`).

Trajectories report their fate in a status field (completed / blew_up /
step_failure) instead of raising: divergence is a legitimate, observable
outcome for the experiments this package runs.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .history import (
    HistorySegment,
    _box_range,
    _norm,
    clip_to_ball,
    history_distance,
    sample_history,
    sup_norm,
)
from .signals import PiecewiseSignal, _draw_signal

__all__ = [
    "RfdeSystem",
    "IntegrateOpts",
    "Trajectory",
    "integrate",
    "output_norm",
    "output_distance",
    "RegionSpec",
    "LipschitzModuli",
    "estimate_lipschitz_moduli",
    "ContinuityReport",
    "check_continuity_bound",
    "RfcReport",
    "check_rfc",
    "trajectory_to_csv",
]

_EXP_CAP = 709.0  # largest safe argument for math.exp
_AHEAD = 256  # most steps whose stage windows' rows at -delay one pass evaluates


@dataclass(frozen=True)
class RfdeSystem:
    """A delay system x'(t) = f(t, x_window, u(t), d(t)) with output map.

    ``dynamics`` receives the absolute time, the history snapshot on
    [-delay_r, 0], the current input point, and the current disturbance
    point, and returns the state derivative.  ``output`` maps (t, window) to
    either a vector or a HistorySegment (for window-valued outputs).
    """

    delay_r: float
    dim_n: int
    dynamics: Callable
    output: Callable
    d_box: np.ndarray
    u_box: np.ndarray | None = None
    name: str = "system"

    def __post_init__(self):
        object.__setattr__(self, "d_box", np.asarray(self.d_box, dtype=float))
        if self.u_box is not None:
            object.__setattr__(self, "u_box", np.asarray(self.u_box, dtype=float))
        if not (math.isfinite(self.delay_r) and self.delay_r > 0):
            raise ValueError(f"delay_r must be finite and positive, got {self.delay_r!r}")

    @property
    def input_dim(self) -> int:
        return 0 if self.u_box is None else self.u_box.shape[0]

    def zero_input(self) -> np.ndarray:
        return np.zeros(self.input_dim)


def output_norm(y) -> float:
    """Norm of an output sample: Euclidean for vectors (``np.linalg.norm``, bit
    for bit, and quietly inf where its square overflows), sup for windows."""
    if isinstance(y, HistorySegment):
        return sup_norm(y)
    return _norm(np.asarray(y, dtype=float).ravel(order="K"))


def output_distance(ya, yb) -> float:
    if isinstance(ya, HistorySegment) or isinstance(yb, HistorySegment):
        return history_distance(ya, yb)
    a = np.atleast_1d(np.asarray(ya, dtype=float))
    b = np.atleast_1d(np.asarray(yb, dtype=float))
    return float(np.linalg.norm(a - b))


@dataclass
class IntegrateOpts:
    """Step request and blow-up level of :func:`integrate`, which checks that
    both are positive; ``blowup_norm=inf`` runs without a blow-up guard.  The
    guard compares ``np.linalg.norm`` of each new state, which is inf above
    about 1.34e154, so a finite ``blowup_norm`` set higher fires there.
    ``record_output`` is ignored: outputs are computed from the node windows
    on read (:attr:`Trajectory.outputs`); the field stays for callers that pass it."""

    step_req: float = 1e-3
    blowup_norm: float = 1e9
    record_output: bool = True


_ROWS = ("V", "DIN", "DOUT", "CUM", "TAIL", "TP")  # the per-run row arrays of a store


def _tail_pieces(K: np.ndarray, V: np.ndarray, i0, taus, delay: float, tails: np.ndarray) -> np.ndarray:
    """The trapezoid piece of each window [tau - delay, tau] from -delay to
    its first inner knot ``K[i0]``: the width of the offset grid times the
    mean of the row at -delay (one of ``tails``) and the knot's row, as
    scalars would give it, row for row."""
    widths = 0.5 * ((K[i0] - taus) + delay)
    return widths.reshape((-1,) + (1,) * (tails.ndim - 1)) * (tails + V[i0])


def _window_ends(K: np.ndarray, taus: np.ndarray, delay: float) -> tuple:
    """Lower end ``i0`` and row time of the window [tau - delay, tau] for each
    of ``taus`` (none above ``K[-1]``).  Its inner knots start at
    ``searchsorted(K, tau - delay, "right")``, moved past each knot whose
    offset still rounds onto -delay, so the offset grid stays strictly
    increasing.  Its row at -delay is the dense value at the row time: the
    last knot so passed, else tau - delay, whose interval ends at knot ``i0``."""
    lo = taus - delay
    i0 = np.searchsorted(K[:-1], lo, side="right")
    fold = K[i0] - taus <= -delay
    while fold.any():
        i0 += fold
        fold = K[i0] - taus <= -delay
    return i0, np.maximum(K[i0 - 1], lo)


class _Dense:
    """Knot/value/slope store with cubic-Hermite evaluation.

    Its row arrays (``_ROWS``) fill up to ``count``: ``V``, ``DIN``,
    ``DOUT`` and ``CUM`` are (knots, n), one row per knot of ``K``.
    ``TAIL`` and ``TP`` have one row per stage window, in time order: node
    k's at 2k and step k's midpoint's at 2k + 1.  They hold the window's
    row at -delay and the tail piece of its quadrature
    (:func:`_tail_pieces`), which the look-ahead sets; its inner knots
    start at ``I0``, and ``ON_KNOT`` marks the windows whose row at -delay
    is the stored knot ``V[I0 - 1]`` (see :meth:`group`).  ``FROZEN`` holds
    read-only views of ``V``, ``TAIL`` and ``TP``, whose rows the windows
    hand out.  A lock-step group of m > 1 runs keeps one stack whose row
    arrays are (rows, m, n); each run's store holds the column views of the
    stack and shares its knots and lower ends.  The stack goes on writing
    the column of a run that stopped, but its store reads no row past its
    own ``count``.
    """

    @classmethod
    def group(cls, t0: float, x0s: list, tgrid: np.ndarray) -> tuple:
        """The stack of runs from ``x0s`` (equal grids and delays) on the node
        grid ``tgrid``, and one store per run; a group of one is its own
        stack.  Before the first step ``K`` holds every knot, the stack the
        initial windows' rows, slopes and running integral, and each store
        the ``close_knots`` of all of ``K`` (merging a window without a tie
        changes nothing).  The window of every stage time has its lower end
        and row time at -delay fixed here (:func:`_window_ends`): the lower
        ends are ``I0``, ``ON_KNOT`` marks the row times on the knot
        ``K[I0 - 1]``, where the dense value is that knot's row, and the
        stage times and row times, which the steps fill the rows from, are
        returned with the stores."""
        x0 = x0s[0]
        k0 = x0.grid.size
        V0 = x0.values if len(x0s) == 1 else np.stack([x.values for x in x0s], 1)
        per_knot = (-1,) + (1,) * (V0.ndim - 1)  # a knot-wise factor, broadcast over the rows
        stack = cls.__new__(cls)
        K = stack.K = np.concatenate((t0 + x0.grid, tgrid[1:]))
        ta, tb = tgrid[:-1], tgrid[1:]
        tm = ta + 0.5 * (tb - ta)
        # the stage times: the nodes and the step midpoints in turn; a one-ulp
        # step has no midpoint, and its start belongs to the node
        taus = np.empty(2 * tgrid.size - 1)
        taus[0::2], taus[1::2] = tgrid, np.where(tm == ta, tb, tm)
        stack.I0, at = _window_ends(K, taus, x0.delay)
        stack.ON_KNOT = at == K[stack.I0 - 1]
        shape = K.shape + V0.shape[1:]
        stack.V, stack.CUM = np.empty(shape), np.empty(shape)
        stack.TAIL, stack.TP = np.empty(taus.shape + V0.shape[1:]), np.empty(taus.shape + V0.shape[1:])
        stack.DIN = np.zeros(shape)   # slope arriving at the knot
        stack.DOUT = np.zeros(shape)  # slope leaving the knot
        slopes = np.diff(V0, axis=0) / np.diff(x0.grid).reshape(per_knot)
        stack.V[:k0], stack.DOUT[: k0 - 1], stack.DIN[1:k0], stack.DIN[0] = V0, slopes, slopes, slopes[0]
        # running trapezoid integral of the stored polyline from K[0] on,
        # so a window's integral is a difference of two rows
        stack.CUM[0] = 0.0
        widths = (0.5 * np.diff(K[:k0])).reshape(per_knot)
        stack.CUM[1:k0] = np.cumsum(widths * (V0[1:] + V0[:-1]), axis=0)
        # rounding K - tau (in [-delay, 0]) cannot merge knots further apart
        close = bool(np.diff(K).min() <= 4.0 * float(np.spacing(x0.delay)))
        stack.n, stack.delay, stack.count, stack.node0, stack.close_knots = x0.dim, x0.delay, k0, k0 - 1, close
        stores = [cls.__new__(cls) for _ in x0s] if len(x0s) > 1 else []
        for i, store in enumerate(stores):  # by setattr: a __dict__ update would slow every read of a store
            for name in ("K", "I0", "ON_KNOT", "n", "delay", "count", "node0", "close_knots", *_ROWS):
                value = getattr(stack, name)  # the stack's field, or its column of a row array
                setattr(store, name, value[:, i] if name in _ROWS else value)
        for store in (stack, *stores):
            store._freeze()
        return stack, stores or [stack], (taus, at)

    def _freeze(self):
        """Set ``FROZEN``: read-only views of ``V``, ``TAIL`` and ``TP`` that
        see every later write, and whose rows no caller can make writeable
        again (a plain view's flag can be set back while its owner's is set)."""
        self.FROZEN = tuple(as_strided(getattr(self, name), writeable=False) for name in ("V", "TAIL", "TP"))

    # a copy or pickle holds the row arrays once and makes its own read-only views of them
    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if name != "FROZEN"}

    def __setstate__(self, state: dict):
        self.__dict__.update(state)
        self._freeze()

    def node_window(self, k: int) -> _Window:
        """The window the dynamics saw at node ``k`` (node 0 is t0)."""
        c = self.node0 + k
        V, TAIL, TP = self.FROZEN
        return _Window(self, self.K.item(c), self.I0.item(2 * k), c, TAIL[2 * k], V[c], TP[2 * k],
                       lend=self.ON_KNOT.item(2 * k))

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        """Dense values at the times ``ts``, none below K[0] = t0 - delay, one
        row (a stack's rows, one per run) each: a stored knot's row, else the
        cubic Hermite of the two stored knots around the time."""
        c = self.count
        K, V = self.K, self.V
        j = np.minimum(np.searchsorted(K[:c], ts, side="right") - 1, c - 2)
        ta, tb = K[j], K[j + 1]
        dt = tb - ta
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 only on knots that rounded together
            s = (ts - ta) / dt
        s2 = s * s
        s3 = s2 * s
        per_row = (-1,) + (1,) * (V.ndim - 1)
        h00 = (2 * s3 - 3 * s2 + 1).reshape(per_row)
        h10 = ((s3 - 2 * s2 + s) * dt).reshape(per_row)
        h01 = (-2 * s3 + 3 * s2).reshape(per_row)
        h11 = ((s3 - s2) * dt).reshape(per_row)
        va, vb = V[j], V[j + 1]
        out = h00 * va + h10 * self.DOUT[j] + h01 * vb + h11 * self.DIN[j + 1]
        on_b = ts == tb
        out[on_b] = vb[on_b]
        on_a = ts == ta
        out[on_a] = va[on_a]
        return out

    def window_segment(self, tau: float) -> _Window:
        """History snapshot on [tau - delay, tau], as a view of the store; its
        row at offset 0 is the dense value at ``tau``, and its tail piece is
        formed as the look-ahead forms a stage window's."""
        c, K = self.count, self.K
        (i0,), (at,) = _window_ends(K, np.array([tau]), self.delay)
        i1 = c if K.item(c - 1) < tau else int(np.searchsorted(K[:c], tau, side="left"))
        rows = self.eval_many(np.array([at, tau]))
        rows.setflags(write=False)  # freezes as flags.writeable = False does, at about half the cost
        (tp,) = _tail_pieces(K, self.V, i0, tau, self.delay, rows[:1])
        return _Window(self, tau, int(i0), i1, rows[0], rows[1], tp)


class _Window(HistorySegment):
    """The window [tau - delay, tau] of a dense store, without a copy.

    It holds the store, the index range ``i0:i1`` of the inner knots, the
    rows at -delay and 0 and the tail piece ``tp`` of its quadrature, formed
    with :func:`_tail_pieces` before the window is made.  A stage or node
    window's ``i0``, row at -delay and tail piece come from the group's
    set-up and look-ahead (:meth:`_Dense.group`, :func:`_lockstep`), and
    the step loop builds it (:func:`_march_one` for a group of one,
    :func:`_march_group` for a larger one); any other's from
    :func:`_window_ends`, :meth:`_Dense.eval_many` and
    :func:`_tail_pieces` when :meth:`_Dense.window_segment` builds it.  Both
    ways are the same search, fold, Hermite and arithmetic.  ``head``,
    ``delayed`` and ``integral()`` cost O(1); ``grid`` and ``values`` are
    built on first read and kept, read-only.  ``grid`` is one O(delay/step)
    copy.  ``values`` of a window that ``lend`` marks, a node window whose
    row at -delay is the stored knot before its inner knots, is a read-only
    slice of the store, no copy; any other window's is a copy of the store's
    rows with its two end rows put in.  The store only appends, so a window
    stays valid as it grows.  ``_body`` is all of ``integral()`` but the
    head piece, computed on first need; windows with the same time, inner
    knots and tail share it.
    """

    def __init__(self, dense: _Dense, tau: float, i0: int, i1: int, tail, head, tp, body=None, lend=False):
        # the builders freeze the two rows, often a whole stack of them at once
        d = self.__dict__
        d["delay"] = dense.delay
        d["_dense"] = dense
        d["_tau"] = tau
        d["_i0"] = i0
        d["_i1"] = i1
        d["_tail"] = tail
        d["_head"] = head
        d["_tp"] = tp
        d["_body"] = body
        d["_lend"] = lend

    @property
    def dim(self) -> int:
        return self._dense.n

    @property
    def head(self) -> np.ndarray:
        return self._head

    @property
    def delayed(self) -> np.ndarray:
        return self._tail

    def integral(self) -> np.ndarray:
        """Per-column trapezoid integral: the two end pieces, with the widths
        of the offset grid, plus the running integral of the store between
        the inner knots."""
        K, V, C = self._dense.K, self._dense.V, self._dense.CUM
        i0, i1, tau = self._i0, self._i1, self._tau
        if i0 == i1:
            return (0.5 * self.delay) * (self._tail + self._head)
        if self._body is None:  # the tail piece plus the running integral between the inner knots
            self.__dict__["_body"] = self._tp + (C[i1 - 1] - C[i0])
        return self._body + (0.5 * (tau - K.item(i1 - 1))) * (V[i1 - 1] + self._head)

    # grid and values are built apart, each on its first read, and kept in
    # __dict__: a cached_property would take a lock on every read
    @property
    def grid(self) -> np.ndarray:
        d = self.__dict__
        grid = d.get("_grid")
        if grid is None:
            if d["_dense"].close_knots:
                return self._merged()[0]
            grid = d["_grid"] = self._offsets()
            grid.setflags(write=False)
        return grid

    @property
    def values(self) -> np.ndarray:
        d = self.__dict__
        vals = d.get("_values")
        if vals is None:
            if d["_dense"].close_knots:
                return self._merged()[1]
            vals = d["_values"] = self._rows()
        return vals

    def __reduce__(self):
        # a copy or pickle is a plain segment of the window's own rows, not
        # its store: a contiguous slice of the store would pass as it is
        return HistorySegment, (self.delay, self.grid, self.values.copy())

    def _offsets(self) -> np.ndarray:
        """The offsets -delay, the inner knots' and 0, in one new array."""
        inner = self._dense.K[self._i0 : self._i1]
        grid = np.empty(inner.size + 2)
        grid[0], grid[-1] = -self.delay, 0.0
        np.subtract(inner, self._tau, out=grid[1:-1])
        return grid

    def _rows(self) -> np.ndarray:
        """The row at -delay, the inner knots' rows and the head, read-only:
        the store's rows ``i0 - 1`` to ``i1`` when the window lends them,
        else a copy of those rows with the two end rows put in.  A copy is
        handed out as a view, since its owner's flag could be set back."""
        rows = self._dense.FROZEN[0][self._i0 - 1 : self._i1 + 1]
        if self._lend:
            return rows
        vals = rows.copy()
        vals[0], vals[-1] = self._tail, self._head
        vals.setflags(write=False)
        return vals[...]

    def _merged(self) -> tuple:
        """Grid and values with the last knot of each run of knots that
        rounded onto one offset: the grid decides which rows stay."""
        grid = self._offsets()
        vals = self._rows()
        last = np.concatenate([[True], np.diff(grid[1:]) > 0.0, [True]])
        grid, vals = grid[last], vals[last]
        grid.setflags(write=False)
        vals.setflags(write=False)
        vals = vals[...]  # a view, as _rows hands out
        self.__dict__.update(_grid=grid, _values=vals)
        return grid, vals


@dataclass
class Trajectory:
    """Integration result with dense accessors.

    ``times``/``states`` cover the accepted nodes from t0 on; the initial
    window and the cubic-Hermite slope data stay available through
    :meth:`history` and :meth:`state`, which reproduce the supplied initial
    segment exactly at its grid points.  ``outputs`` is an iterator over
    one output per node, built on each read and computed from the node
    windows as it advances, so an output map that fails raises when its
    output is reached, not inside :func:`integrate`.
    """

    system: RfdeSystem
    t0: float
    times: np.ndarray
    states: np.ndarray
    initial: HistorySegment
    u: PiecewiseSignal | None
    d: PiecewiseSignal | None
    status: str
    t_event: float | None
    _dense: _Dense

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def _clamped(self, t: float) -> float:
        t0, t_end = self.t0, self.t_end
        if not (t0 - 1e-12 <= t <= t_end + 1e-12):  # NaN fails too
            raise ValueError(f"time {t!r} outside [{t0!r}, {t_end!r}]")
        return min(max(t, t0), t_end)

    def state(self, t: float) -> np.ndarray:
        """The dense state at ``t``, as a fresh row."""
        return self._dense.eval_many(np.array([self._clamped(t)]))[0]

    def history(self, t: float) -> HistorySegment:
        """Window snapshot at ``t``, built from the dense store; exact at
        stored knots.  At a node time it is bitwise the window the integrator
        handed to the dynamics there."""
        return self._dense.window_segment(self._clamped(t))

    @property
    def outputs(self) -> Iterator:
        """``system.output(times[k], node window k)`` for each node k, in order."""
        return map(self.system.output, self.times, map(self._dense.node_window, range(self.times.size)))

    def output_norms(self) -> np.ndarray:
        return np.array([output_norm(y) for y in self.outputs])


def _grid_for(t0: float, t_end: float, h: float, switches: np.ndarray) -> np.ndarray:
    """Nodes from t0 to t_end at step ``h`` plus ``switches``, which lie strictly inside."""
    n_steps = int(math.floor((t_end - t0) / h + 1e-9))
    base = t0 + h * np.arange(n_steps + 1)
    base = base[(base >= t0) & (base <= t_end)]
    special = np.unique(np.concatenate([[t0, t_end], switches]))
    # keep endpoint and switch times bitwise exact; drop base nodes that
    # would create a vanishing step next to them
    eps = 1e-9 * h
    pos = np.searchsorted(special, base)
    d_right = np.where(pos < special.size, special[np.minimum(pos, special.size - 1)] - base, np.inf)
    d_left = np.where(pos > 0, base - special[np.maximum(pos - 1, 0)], np.inf)
    base = base[np.minimum(np.abs(d_right), np.abs(d_left)) >= eps]
    return np.union1d(special, base)


def _step_size(r: float, t0: float, t_end: float, opts: IntegrateOpts) -> float:
    """The step of a run of delay ``r`` from t0 to t_end at ``opts`` (see
    :func:`integrate`).  A ValueError that names the value refuses a
    non-finite t0 or t_end, t_end <= t0, a step request or blow-up level that
    is not positive, and a step count (t_end - t0) / step that is not finite
    or too large for the grid's arrays."""
    for name, value in (("t0", t0), ("t_end", t_end)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    for name in ("step_req", "blowup_norm"):
        value = getattr(opts, name)
        if not value > 0:  # NaN fails too; inf is no blow-up guard
            raise ValueError(f"IntegrateOpts.{name} must be positive, got {value!r}")
    per_delay = r / opts.step_req - 1e-12
    h = r / max(2, math.ceil(per_delay)) if math.isfinite(per_delay) else 0.0
    steps = (t_end - t0) / h if h > 0.0 else math.inf
    # the stage times hold two float64s a step, and NumPy sizes no array
    # whose bytes an index cannot count
    if not steps <= np.iinfo(np.intp).max / 16:
        raise ValueError(
            f"step count (t_end - t0) / step = {steps!r} (t0={t0!r}, t_end={t_end!r}, "
            f"step={h!r}) is too large for the grid's arrays"
        )
    return h


def integrate(
    system: RfdeSystem,
    t0: float,
    x0: HistorySegment,
    u: PiecewiseSignal | None,
    d: PiecewiseSignal | None,
    t_end: float,
    opts: IntegrateOpts | None = None,
) -> Trajectory:
    """March the delay system from (t0, x0) to t_end under the given signals.

    The requested step is clamped to delay_r / max(2, ceil(delay_r / step_req))
    so a whole number of steps, at least two, spans the delay: a window's row
    at -delay_r then always lies inside the dense store.  Signal switch times
    inside the horizon are inserted as grid nodes.  Blow-up (state norm above
    opts.blowup_norm) and non-finite dynamics truncate the run and are
    reported through the status field.  A horizon :func:`_step_size` refuses
    is a ValueError before any signal is read.

    This is the one-run case of :func:`_integrate_runs`, which advances runs
    whose knots coincide (same initial grid and delay, same switch times) in
    lock-step.  A run alone is a group of one, which steps in its own loop
    on (n,) rows (:func:`_march_one`).  A run in a larger group is bitwise
    this one; the dynamics are called in (step, stage, run) order, so they
    must not depend on the call order.
    """
    return _integrate_runs(system, t0, [(x0, u, d)], t_end, opts)[0]


def _integrate_runs(
    system: RfdeSystem, t0: float, runs: list, t_end: float, opts: IntegrateOpts | None = None
) -> list:
    """:func:`integrate` of each ``(x0, u, d)`` in ``runs``, in order.

    Runs with the same delay, initial grid and set of switch times (of input
    and disturbance together) have the same knots.  They form a group, whose
    node grid is built and whose store is set up once (:meth:`_Dense.group`),
    and advance in lock-step.  Every stage window's lower end is found at
    set-up; its row at -delay is the dense value at a time before the step's
    start (steps are at most delay / 2), so the rows of about a delay of
    steps are evaluated at once, in one Hermite pass, as soon as the knots
    they read are stored.  A group of one steps in its own loop on (n,)
    rows; a larger group does the RK4 arithmetic and the store writes once
    per step on (m, n) stacks (:func:`_lockstep`).  Element-wise NumPy with
    scalar or per-row coefficients rounds each row as it rounds an (n,)
    array, so every run is bitwise its solo run.
    A run that stops (``blew_up`` or ``step_failure``) is not called again;
    the rest of its group carries on.  Groups run one after another, in the
    order of their first run.  Within a step the right-hand side is called
    stage by stage, run by run, so it must not depend on the call order.
    """
    opts = opts or IntegrateOpts()
    r = system.delay_r
    h = _step_size(r, t0, t_end, opts)
    groups: dict = {}
    for k, (x0, u, d) in enumerate(runs):
        if abs(x0.delay - r) > 1e-12:
            raise ValueError("initial segment window does not match the system delay")
        if x0.dim != system.dim_n:
            raise ValueError("initial segment dimension does not match the system")
        signals = [sig for sig in (u, d) if sig is not None]
        for sig in signals:
            sig.eval(t0)  # signals are defined on [0, inf): this rejects t0 < 0
        sw = np.unique(np.concatenate([sig.switches_in(t0, t_end) for sig in signals] or [np.empty(0)]))
        groups.setdefault((x0.delay, x0.grid.tobytes(), sw.tobytes()), (sw, []))[1].append(k)
    trajs = [None] * len(runs)
    for sw, ks in groups.values():
        tgrid = _grid_for(t0, t_end, h, sw)
        for k, traj in zip(ks, _lockstep(system, t0, [runs[k] for k in ks], tgrid, opts)):
            trajs[k] = traj
    return trajs


def _draw_runs(system: RfdeSystem, rng: np.random.Generator, count: int, norm_bound: float,
               horizon: float, d_dwell: float, u_boxes=None, windows=()) -> list:
    """``count`` runs ``(x0, u, d)`` drawn from ``rng``, with signals on
    [0, horizon]: the one ensemble draw of the trajectory checks.  Run k draws
    1. its initial window, sup norm at most ``norm_bound``, unless ``windows[k]`` gives one;
    2. its input from the box ``u_boxes[k]``, mean dwell 1 (none if it or ``u_boxes`` is None);
    3. its disturbance from ``system.d_box``, mean dwell ``d_dwell``.
    """
    runs = []
    for k in range(count):
        x0 = windows[k] if k < len(windows) else sample_history(rng, system.delay_r, system.dim_n, norm_bound)
        u_box = None if u_boxes is None else u_boxes[k]
        u = None if u_box is None else _draw_signal(rng, u_box, horizon, 1.0)
        runs.append((x0, u, _draw_signal(rng, system.d_box, horizon, d_dwell)))
    return runs


def _lockstep(system: RfdeSystem, t0: float, runs: list, tgrid: np.ndarray, opts: IntegrateOpts) -> list:
    """Trajectories of ``runs`` (x0, u, d), which share the node grid
    ``tgrid``, the initial grid and the delay, advanced together.  A group
    of one steps in its own loop on (n,) rows (:func:`_march_one`); a larger
    group on (m, n) stacks (:func:`_march_group`).  Both make the same calls
    with the same windows and store the same bits for a run.

    A stage at time tau reads its row at -delay on the knot interval that
    ends at its window's lower end, and tau - delay lies before the step's
    start ``K[count - 1]``, so every knot it reads is stored before its step.
    When a step's rows are not there yet, ``rows_ahead`` evaluates the
    next stage windows' rows whose knots are stored (up to ``_AHEAD``
    steps' worth) in one pass, into ``TAIL``, and forms their tail pieces
    of quadrature (:func:`_tail_pieces`) in the same pass, into ``TP``.
    The stage windows take those rows and pieces, and their heads on
    stored knots, from read-only views made once."""
    m = len(runs)
    stack, stores, (taus, at) = _Dense.group(t0, [run[0] for run in runs], tgrid)

    def levels(width: int, signals: list) -> np.ndarray:
        per_run = [np.zeros((tgrid.size, width)) if s is None else s.eval_many(tgrid) for s in signals]
        return np.stack(per_run, 1) if m > 1 else per_run[0]

    # every switch is a node, so the levels read at a node hold until the next
    U = levels(system.input_dim, [u for _, u, _ in runs])
    D = levels(system.d_box.shape[0], [d for *_, d in runs])
    U.setflags(write=False)
    D.setflags(write=False)
    switched = np.any(U[1:] != U[:-1], axis=-1) | np.any(D[1:] != D[:-1], axis=-1)
    switched[-1] = False  # the run ends at the last node: no slope leaves it
    switched = switched.reshape(-1, m).T.tolist()  # switched[p][j]: run p's levels change at node j + 1

    def rows_ahead(s: int) -> int:
        """Store the rows at -delay of the stage windows from ``s`` on whose
        interval's right knot (the window's lower end) is stored, and their
        tail pieces, in one pass; return the first window whose is not.
        Steps of at most delay / 2 make that the next step's stages and
        those of about a delay after them.  The rows of a run that stops
        before it reads them may overflow: no warning."""
        s1 = min(int(np.searchsorted(stack.I0, stack.count - 1, side="right")), s + 2 * _AHEAD)
        with np.errstate(over="ignore", invalid="ignore"):
            ahead = stack.eval_many(at[s:s1])
            stack.TAIL[s:s1], stack.TP[s:s1] = ahead, _tail_pieces(
                stack.K, stack.V, stack.I0[s:s1], taus[s:s1], stack.delay, ahead)
        return s1

    # Python floats and ints: the step arithmetic is the same, with less overhead
    plan = (tgrid.tolist(), taus.tolist(), stack.I0.tolist(), stack.ON_KNOT.tolist(), rows_ahead, opts.blowup_norm)
    if m == 1:
        status, t_event = _march_one(system.dynamics, stack, U, D, switched[0], *plan)
    else:
        status, t_event = _march_group(system.dynamics, stack, stores, U, D, switched, *plan)
    return [
        Trajectory(
            system=system,
            t0=t0,
            times=store.K[store.node0 : store.count].copy(),
            states=store.V[store.node0 : store.count].copy(),
            initial=x0,
            u=u,
            d=d,
            status=st,
            t_event=te,
            _dense=store,
        )
        for store, (x0, u, d), st, te in zip(stores, runs, status, t_event)
    ]


def _march_one(f, stack: _Dense, U, D, switched: list, times: list, stage_times: list, ends: list,
               lend: list, rows_ahead, blowup: float) -> tuple:
    """The steps of a group of one (see :func:`_lockstep`): the statuses and
    event times of its one run.  Stage s's window has the time
    ``stage_times[s]``, the inner knots from ``ends[s]`` to the step's start,
    and the row at -delay and tail piece ``TAIL[s]`` and ``TP[s]``; a node
    window lends its rows from the store where ``lend[s]`` is set.  Each
    node's row and running integral are written from the step's own start,
    length and end row: ``K[c] - K[c - 1]`` is ``hk`` and ``V[c - 1]`` is
    ``xk``, exactly."""
    V, TAIL, TP = stack.FROZEN
    X, CUM, DIN, DOUT = stack.V, stack.CUM, stack.DIN, stack.DOUT
    k2, k3, k4 = (np.empty(stack.n) for _ in range(3))  # stage slopes, reused from step to step
    ready = rows_ahead(0)  # the stage windows before it have their rows at -delay stored
    c = stack.count - 1  # node 0
    DOUT[c] = f(times[0], _Window(stack, times[0], ends[0], c, TAIL[0], V[c], TP[0], None, lend[0]), U[0], D[0])

    for j in range(len(times) - 1):
        ta = times[j]
        tb = times[j + 1]
        hk = tb - ta
        u, d = U[j], D[j]
        c += 1
        xk = X[c - 1]
        k1 = DOUT[c - 1]
        s = 2 * j + 1  # the step's stage windows: its midpoint's, then node j + 1's
        if ready <= s + 1:
            ready = rows_ahead(ready)

        # each head is frozen and handed out as a view: the owner's own flag could be set back
        tm, i0, tail, tp = stage_times[s], ends[s], TAIL[s], TP[s]
        head = xk + (0.5 * hk) * k1
        head.setflags(write=False)
        seg_m = _Window(stack, tm, i0, c, tail, head[...], tp)
        k2[...] = f(tm, seg_m, u, d)
        head = xk + (0.5 * hk) * k2
        head.setflags(write=False)
        k3[...] = f(tm, _Window(stack, tm, i0, c, tail, head[...], tp, seg_m._body), u, d)
        i0, tail, tp = ends[s + 1], TAIL[s + 1], TP[s + 1]
        head = xk + hk * k3
        head.setflags(write=False)
        seg_b = _Window(stack, tb, i0, c, tail, head[...], tp)
        k4[...] = f(tb, seg_b, u, d)
        x_next = xk + (hk / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        # hk > 0, so x_next is non-finite whenever a stage is; a finite norm
        # has finite entries, an overflowed one may still
        norm = _norm(x_next)
        if not math.isfinite(norm) and not np.isfinite(x_next).all():
            return ["step_failure"], [tb]
        X[c] = x_next
        CUM[c] = CUM[c - 1] + (0.5 * hk) * (x_next + xk)
        stack.count = c + 1
        # the node window is k4's: storing the node at tb moves neither end of its inner knots
        node = _Window(stack, tb, i0, c, tail, V[c], tp, seg_b._body, lend[s + 1])
        f_end = DOUT[c]
        f_end[...] = f(tb, node, u, d)
        DIN[c] = f_end
        if not math.isfinite(math.hypot(*f_end.tolist())) and not np.isfinite(f_end).all():
            DIN[c], f_end[...] = k4, 0.0  # the failed run keeps k4 arriving and no slope leaving
            return ["step_failure"], [tb]
        if switched[j]:  # new levels leave the node with a slope of their own
            f_end[...] = f(tb, node, U[j + 1], D[j + 1])
        if norm > blowup:
            return ["blew_up"], [tb]
    return ["completed"], [None]


def _march_group(f, stack: _Dense, stores: list, U, D, switched: list, times: list, stage_times: list,
                 ends: list, lend: list, rows_ahead, blowup: float) -> tuple:
    """The steps of a group of m > 1 runs (see :func:`_lockstep` and
    :func:`_march_one`, whose windows, calls and writes these are, run by
    run): the statuses and event times of its runs.  The RK4 arithmetic and
    the store writes are done once per step on (m, n) stacks.  A run that
    stops keeps its column of the stack: it is not called again, its stage
    slopes are zero from then on, and its store reads no row past its count."""
    m = len(stores)
    # run p's row of an (m, n) stack array is rows(a)[p]
    cols = range(m)
    rows = lambda a: list(map(a.__getitem__, cols))
    status, t_event = ["completed"] * m, [None] * m
    live = list(cols)  # the runs still advancing
    norms = [0.0] * m  # np.linalg.norm(x_next) per run
    k2, k3, k4 = (np.empty(stack.V.shape[1:]) for _ in range(3))  # stage slopes, reused from step to step
    k2s, k3s, k4s = rows(k2), rows(k3), rows(k4)

    V, TAIL, TP = stack.FROZEN

    def stage(outs, tau: float, i0: int, i1: int, tls, tps, heads, like=None, on_knot=False) -> dict:
        """Each live run's window at ``tau``, after the dynamics saw it at
        the levels ``us``, ``ds``; ``outs[p]`` gets run p's slope.  The
        windows' inner knots are ``i0:i1``, and run p's rows at -delay and 0
        are ``tls[p]`` and row p of ``heads``, which this freezes, and its
        tail piece is ``tps[p]``.  Windows with the same time, inner knots
        and tail share the quadrature of all but the head piece: run p's is
        ``like[p]``'s.  Node windows lend their rows where ``on_knot`` is set."""
        heads.setflags(write=False)
        heads = rows(heads)  # views: the owner's own flag could be set back
        segs = {}
        for p in live:
            body = None if like is None else like[p]._body
            seg = segs[p] = _Window(stores[p], tau, i0, i1, tls[p], heads[p], tps[p], body, on_knot)
            outs[p][...] = f(tau, seg, us[p], ds[p])
        return segs

    def stop(stopped: list, why: str, tb: float) -> None:
        for p in stopped:
            status[p], t_event[p] = why, tb
            stores[p].count = stack.count
            live.remove(p)
            # its column still goes through the stack's arithmetic: keep it finite
            k2s[p][...] = k3s[p][...] = k4s[p][...] = 0.0

    ready = rows_ahead(0)  # the stage windows before it have their rows at -delay stored
    c = stack.count - 1  # node 0
    us, ds = rows(U[0]), rows(D[0])
    stage(rows(stack.DOUT[c]), times[0], ends[0], c, rows(TAIL[0]), rows(TP[0]), V[c], None, lend[0])

    for j in range(len(times) - 1):
        ta = times[j]
        tb = times[j + 1]
        hk = tb - ta
        us, ds = rows(U[j]), rows(D[j])
        c = stack.count
        xk = stack.V[c - 1]
        k1 = stack.DOUT[c - 1]
        s = 2 * j + 1  # the step's stage windows: its midpoint's, then node j + 1's
        if ready <= s + 1:
            ready = rows_ahead(ready)

        tm, i0, tls, tps = stage_times[s], ends[s], rows(TAIL[s]), rows(TP[s])
        seg_m = stage(k2s, tm, i0, c, tls, tps, xk + (0.5 * hk) * k1)
        stage(k3s, tm, i0, c, tls, tps, xk + (0.5 * hk) * k2, seg_m)
        i0, tls, tps = ends[s + 1], rows(TAIL[s + 1]), rows(TP[s + 1])
        seg_b = stage(k4s, tb, i0, c, tls, tps, xk + hk * k3)
        x_next = xk + (hk / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        # hk > 0, so x_next is non-finite whenever a stage is; a finite norm
        # has finite entries, an overflowed one may still
        xs = rows(x_next)
        failed = []
        for p in live:
            norms[p] = _norm(xs[p])
            if not math.isfinite(norms[p]) and not np.isfinite(xs[p]).all():
                failed.append(p)
        if failed:
            stop(failed, "step_failure", tb)
            if not live:
                break
            x_next[failed] = xk[failed]  # a stopped run stays at its last node

        stack.V[c] = x_next
        stack.CUM[c] = stack.CUM[c - 1] + (0.5 * hk) * (x_next + xk)
        stack.count = c + 1
        # the node window is k4's: storing the node at tb moves neither end of its inner knots
        f_end = stack.DOUT[c]
        fs = rows(f_end)
        nodes = stage(fs, tb, i0, c, tls, tps, V[c], seg_b, lend[s + 1])
        stack.DIN[c] = f_end
        failed, blown = [], []
        for p in live:
            if not math.isfinite(math.hypot(*fs[p].tolist())) and not np.isfinite(fs[p]).all():
                failed.append(p)  # the failed run keeps k4 arriving and no slope leaving
                rows(stack.DIN[c])[p][...], fs[p][...] = k4s[p], 0.0
                continue
            if switched[p][j]:  # new levels leave the node with a slope of their own
                fs[p][...] = f(tb, nodes[p], rows(U[j + 1])[p], rows(D[j + 1])[p])
            if norms[p] > blowup:
                blown.append(p)
        if failed or blown:
            stop(failed, "step_failure", tb)
            stop(blown, "blew_up", tb)
            if not live:
                break

    for p in live:
        stores[p].count = stack.count
    return status, t_event


def _trailing_window_max(ts: np.ndarray, vals: np.ndarray, width: float) -> np.ndarray:
    """Running max of ``vals`` over the trailing time window ``[t - width, t]``
    of each of the increasing times ``ts``, whose knots are those at or after
    ``t - width - 1e-12``; a NaN inside a window is its max, as in ``np.max``.
    Each window is the union of two runs of 2**L values, L its largest such
    that fits: level L of the doubling table holds the max of every run of
    2**L values, and only one level is kept at a time."""
    k = np.arange(vals.size)
    lo = np.searchsorted(ts, ts - width - 1e-12, side="left")  # each window's first knot
    size = k - lo + 1
    out = np.empty(vals.size)
    level, run = vals, 1  # level[i] = max(vals[i : i + run])
    while True:
        at = np.flatnonzero((size >= run) & (size < 2 * run))
        out[at] = np.maximum(level[lo[at]], level[k[at] - run + 1])
        if not (size >= 2 * run).any():
            return out
        level, run = np.maximum(level[:-run], level[run:]), 2 * run


# -- empirical Lipschitz moduli -------------------------------------------------

@dataclass(frozen=True)
class RegionSpec:
    t_lo: float
    t_hi: float
    norm_bound: float


@dataclass
class LipschitzModuli:
    one_sided_state: float      # one-sided modulus of the dynamics in the state
    output_rate: float          # joint (time, state) modulus of the output map
    input_rate: float           # modulus of the dynamics in the input
    region: RegionSpec
    samples: int
    low_confidence: tuple = ()


def _uniform_box(rng: np.random.Generator, box: np.ndarray | None) -> np.ndarray:
    if box is None or box.shape[0] == 0:
        return np.zeros(0)
    lo, span = _box_range(box)
    return lo + span * rng.random(lo.size)


def estimate_lipschitz_moduli(
    system: RfdeSystem,
    region: RegionSpec,
    samples: int = 400,
    rng: np.random.Generator | None = None,
) -> LipschitzModuli:
    """Empirical moduli from maximal sampled quotients, inflated by 1.5.

    Pairs mix independent draws with nearby constant-offset pairs so both the
    large-separation and the differential regimes are probed.  Channels with
    no valid quotient (no input, zero distances) come back as zero and are
    flagged low-confidence.
    """
    rng = rng or np.random.default_rng(0)
    r = system.delay_r
    n = system.dim_n
    q_state = []
    q_out = []
    q_in = []
    for i in range(samples):
        t = rng.uniform(region.t_lo, region.t_hi)
        tau = rng.uniform(region.t_lo, region.t_hi)
        x = sample_history(rng, r, n, region.norm_bound)
        if i % 2:
            direction = rng.normal(size=n)
            direction /= max(np.linalg.norm(direction), 1e-12)
            eps = region.norm_bound * 10.0 ** rng.uniform(-3.0, -0.3)
            y = clip_to_ball(x.add_constant(eps * direction), region.norm_bound)
        else:
            y = sample_history(rng, r, n, region.norm_bound)
        dpt = _uniform_box(rng, system.d_box)
        upt = _uniform_box(rng, system.u_box)
        vpt = _uniform_box(rng, system.u_box)

        dist = history_distance(x, y)
        fx = np.asarray(system.dynamics(t, x, upt, dpt), dtype=float)
        if dist > 1e-12:
            fy = np.asarray(system.dynamics(t, y, upt, dpt), dtype=float)
            num = float(np.dot(x.values[-1] - y.values[-1], fx - fy))
            q_state.append(num / dist**2)
        hx = system.output(t, x)
        hy = system.output(tau, y)
        den = abs(t - tau) + dist
        if den > 1e-12:
            q_out.append(output_distance(hx, hy) / den)
        if system.u_box is not None:
            du = float(np.linalg.norm(upt - vpt))
            if du > 1e-12:
                fv = np.asarray(system.dynamics(t, x, vpt, dpt), dtype=float)
                q_in.append(float(np.linalg.norm(fx - fv)) / du)

    low = []
    if not q_state:
        low.append("one_sided_state")
    if not q_out:
        low.append("output_rate")
    if not q_in:
        low.append("input_rate")
    return LipschitzModuli(
        one_sided_state=1.5 * max(0.0, max(q_state, default=0.0)),
        output_rate=1.5 * max(q_out, default=0.0),
        input_rate=1.5 * max(q_in, default=0.0),
        region=region,
        samples=samples,
        low_confidence=tuple(low),
    )


# -- dependence on the initial window -------------------------------------------

@dataclass
class ContinuityReport:
    passed: bool
    worst_ratio: float
    worst_time: float
    initial_distance: float
    bound_overflowed: bool
    worst_ratio_after_t0: float  # the largest ratio at the nodes after t0 (0.0 if none)


def check_continuity_bound(
    system: RfdeSystem,
    t0: float,
    x0: HistorySegment,
    y0: HistorySegment,
    u: PiecewiseSignal | None,
    d: PiecewiseSignal | None,
    t_end: float,
    moduli: LipschitzModuli,
    opts: IntegrateOpts | None = None,
) -> ContinuityReport:
    """Exponential-in-time bound on the window distance of two runs.

    Both initial segments evolve under the same signals; at every node the
    window distance must stay below the initial distance amplified by
    exp(L * elapsed) with L the estimated one-sided modulus.  Equality holds
    at t0, so the check allows a relative slack of 1e-9; ``worst_ratio``
    is then at least 1 and ``worst_ratio_after_t0`` shows the margin.  The
    two runs advance in lock-step when their initial windows share a grid.
    """
    ta, tb = _integrate_runs(system, t0, [(x0, u, d), (y0, u, d)], t_end, opts)
    if ta.status != "completed" or tb.status != "completed":
        return ContinuityReport(False, math.inf, ta.t_event or tb.t_event or t0, 0.0, False, math.inf)
    if ta.times.size != tb.times.size or not np.array_equal(ta.times, tb.times):
        raise RuntimeError("paired runs produced different grids")

    # the shared nodes give their rows directly; the initial windows' knots
    # before t0 are read from each run's dense store
    pre = np.union1d(t0 + x0.grid, t0 + y0.grid)
    pre = pre[pre < t0]
    diff = np.vstack([ta._dense.eval_many(pre) - tb._dense.eval_many(pre), ta.states - tb.states])
    knots = np.concatenate([pre, ta.times])
    dn = np.linalg.norm(diff, axis=1)
    window_dist = _trailing_window_max(knots, dn, system.delay_r)[pre.size :]
    d0 = window_dist[0]  # the window distance at t0 is the initial distance
    arg = moduli.one_sided_state * (ta.times - t0)
    overflow = arg > _EXP_CAP
    # math.exp per node: NumPy's array exp is not libm's, bit for bit
    bound = d0 * np.array([math.exp(a) for a in np.minimum(arg, _EXP_CAP).tolist()])
    bound[overflow] = math.inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vanished = np.where(window_dist <= 1e-12, 0.0, math.inf)
        ratio = np.where(bound == 0.0, vanished, window_dist / bound)
        ratio[np.isinf(bound) | ~(ratio > 0.0)] = 0.0  # NaN ratios never count as worst
        passed = not (window_dist > bound * (1.0 + 1e-9) + 1e-12).any()
    k = int(ratio.argmax())  # the first worst node
    worst_time = float(ta.times[k]) if ratio[k] > 0.0 else t0
    after = float(ratio[1:].max(initial=0.0))
    return ContinuityReport(passed, float(ratio[k]), worst_time, float(d0), bool(overflow.any()), after)


# -- robust forward completeness ---------------------------------------------

@dataclass
class RfcReport:
    verdict: str                 # "no_counterexample" | "blow_up_witness"
    sup_norm_observed: float
    witness_index: int | None
    witness_time: float | None
    trajectories: int


def check_rfc(
    system: RfdeSystem,
    s: float,
    T: float,
    n_traj: int,
    rng: np.random.Generator | None = None,
    opts: IntegrateOpts | None = None,
) -> RfcReport:
    """Ensemble boundedness experiment over start times and signals.

    Refuses (ValueError), before any draw: ``n_traj`` not a positive integer,
    ``s`` not finite and >= 0, ``T`` not finite and > 0, and an input box row
    that [-s, s] misses; inputs are drawn from the box clipped to [-s, s]
    coordinate by coordinate.  The first min(n_traj, 2n) runs start at t0 = 0
    from the constant windows +/- s along each axis, so the ball's boundary
    is always probed.  ``rng`` draws the other runs' t0s first, uniform on
    [0, T] in one call, then every run in :func:`_draw_runs` order, with
    windows of sup norm at most s and signals of mean dwell 1 on [0, 2T],
    which covers each run's [t0, t0 + T].  The report carries the first
    blow-up witness, if any, else the largest window norm seen
    (``sup_norm_observed``): a lower bound on the forward-completeness gain
    on the sampled ball, not a proof of robust forward completeness.
    """
    if isinstance(n_traj, bool) or not isinstance(n_traj, (int, np.integer)) or n_traj < 1:
        raise ValueError(f"n_traj must be a positive integer, got {n_traj!r}")
    if not (math.isfinite(s) and s >= 0.0 and math.isfinite(T) and T > 0.0):
        raise ValueError(f"s must be finite and >= 0 and T finite and > 0, got s = {s!r}, T = {T!r}")
    u_boxes = None
    if system.u_box is not None:
        ubox = np.column_stack([np.maximum(system.u_box[:, 0], -s), np.minimum(system.u_box[:, 1], s)])
        missed = np.flatnonzero(ubox[:, 0] > ubox[:, 1])
        if missed.size:
            raise ValueError(f"[-s, s] misses input box row {missed[0]}, {system.u_box[missed[0]].tolist()}, at s = {s!r}")
        u_boxes = [ubox] * n_traj
    rng = rng or np.random.default_rng(0)
    opts = opts or IntegrateOpts()
    axes = s * np.eye(system.dim_n)
    corners = [HistorySegment.constant(system.delay_r, c) for e in axes for c in (e, -e)][:n_traj]
    t0s = np.concatenate([np.zeros(len(corners)), rng.uniform(0.0, T, n_traj - len(corners))])
    runs = _draw_runs(system, rng, n_traj, s, 2.0 * T, 1.0, u_boxes, corners)
    worst = 0.0
    for i, (t0, (x0, u, d)) in enumerate(zip(t0s.tolist(), runs)):
        traj = integrate(system, t0, x0, u, d, t0 + T, opts)
        if traj.status != "completed":
            return RfcReport("blow_up_witness", float("inf"), i, traj.t_event, i + 1)
        norms = np.linalg.norm(traj._dense.V[: traj._dense.count], axis=1)
        worst = max(worst, float(norms.max()))
    return RfcReport("no_counterexample", worst, None, None, n_traj)


# -- serialization ---------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory, outputs: list) -> str:
    """CSV text: t, state columns, state norm, output columns or norm, from
    ``outputs`` already read, one per node (such as ``list(traj.outputs)``)."""
    n = traj.states.shape[1]
    header = ["t"] + [f"x_{i+1}" for i in range(n)] + ["|x|"]
    y0 = outputs[0]
    window = isinstance(y0, HistorySegment)

    def out_cells(y):
        return [output_norm(y)] if window else np.atleast_1d(np.asarray(y))

    header += ["out_norm"] if window else [f"out_{i+1}" for i in range(len(out_cells(y0)))]
    lines = [",".join(header)]
    for t, x, y in zip(traj.times, traj.states, outputs):
        row = [t, *x, np.linalg.norm(x), *out_cells(y)]
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
