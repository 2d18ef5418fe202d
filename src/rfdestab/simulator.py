"""Method-of-steps integration for uncertain time-varying delay systems.

The integrator marches a classical 4-stage Runge-Kutta scheme whose step is
clamped to divide the delay exactly and whose grid is split at every signal
switch time, so the only discontinuities the scheme ever crosses sit on grid
nodes.  The accumulated solution keeps node derivatives and is interpolated
with the standard cubic-Hermite continuous extension; stage evaluations see
piecewise-linear history snapshots whose knots include the window endpoints
and every integration node, so discrete-delay reads hit exact knots and the
scheme keeps its full order.

Trajectories report their fate in a status field (completed / blew_up /
step_failure) instead of raising: divergence is a legitimate, observable
outcome for the experiments this package runs.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .history import HistorySegment, _box_range, clip_to_ball, history_distance, sample_history, sup_norm
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
    """Norm of an output sample: Euclidean for vectors, sup for windows."""
    if isinstance(y, HistorySegment):
        return sup_norm(y)
    return float(np.linalg.norm(np.atleast_1d(np.asarray(y, dtype=float))))


def output_distance(ya, yb) -> float:
    if isinstance(ya, HistorySegment) or isinstance(yb, HistorySegment):
        return history_distance(ya, yb)
    a = np.atleast_1d(np.asarray(ya, dtype=float))
    b = np.atleast_1d(np.asarray(yb, dtype=float))
    return float(np.linalg.norm(a - b))


@dataclass
class IntegrateOpts:
    """Step request and blow-up level of :func:`integrate`.  ``record_output``
    is ignored: outputs are computed from the node windows on read
    (:attr:`Trajectory.outputs`); the field stays for callers that pass it."""

    step_req: float = 1e-3
    blowup_norm: float = 1e9
    record_output: bool = True


class _Dense:
    """Growing knot/value/slope store with cubic-Hermite evaluation."""

    def __init__(self, t0: float, x0: HistorySegment, capacity: int):
        k0 = x0.grid.size
        n = x0.dim
        self.n = n
        self.K = np.empty(capacity)
        self.V = np.empty((capacity, n))
        self.DIN = np.zeros((capacity, n))   # slope arriving at the knot
        self.DOUT = np.zeros((capacity, n))  # slope leaving the knot
        self.K[:k0] = t0 + x0.grid
        self.V[:k0] = x0.values
        slopes = np.diff(x0.values, axis=0) / np.diff(x0.grid)[:, None]
        self.DOUT[: k0 - 1] = slopes
        self.DIN[1:k0] = slopes
        self.DIN[0] = slopes[0]
        # running trapezoid integral of the stored polyline from K[0] on,
        # so a window's integral is a difference of two rows
        self.CUM = np.empty((capacity, n))
        self.CUM[0] = 0.0
        self.CUM[1:k0] = np.cumsum(
            (0.5 * np.diff(self.K[:k0]))[:, None] * (x0.values[1:] + x0.values[:-1]), axis=0
        )
        self.count = k0
        self.delay = x0.delay
        # rounding K - tau (in [-delay, 0]) cannot merge knots further apart
        self.tie_gap = 4.0 * float(np.spacing(x0.delay))
        self.close_knots = bool(np.diff(self.K[:k0]).min() <= self.tie_gap)
        # each node's window: the lower end of its inner knots and its row at -delay
        self.node0 = k0 - 1
        self.I0 = np.zeros(capacity, dtype=np.intp)
        self.TAIL = np.empty((capacity, n))

    def append(self, t: float, x: np.ndarray, din: np.ndarray):
        c = self.count
        t_prev = self.K.item(c - 1)
        if t - t_prev <= self.tie_gap:
            self.close_knots = True
        self.K[c] = t
        self.V[c] = x
        self.DIN[c] = din
        self.CUM[c] = self.CUM[c - 1] + (0.5 * (t - t_prev)) * (x + self.V[c - 1])
        self.count = c + 1

    def node_window(self, k: int, seg: _Window | None = None) -> _Window:
        """The window the dynamics saw at node ``k`` (node 0 is t0).  The
        integrator passes ``seg``, a window at the node's time, whose lower
        end and window quadrature the node window keeps."""
        c = self.node0 + k
        if seg is not None:
            self.I0[c] = seg._i0
            self.TAIL[c] = seg._tail
        tail = self.TAIL[c]
        tail.flags.writeable = False
        body = None if seg is None else seg._body
        return _Window(self, self.K.item(c), self.I0.item(c), c, tail, self.V[c], body)

    def _basis(self, s):
        s2 = s * s
        s3 = s2 * s
        return 2 * s3 - 3 * s2 + 1, s3 - 2 * s2 + s, -2 * s3 + 3 * s2, s3 - s2

    def eval_one(self, t: float) -> np.ndarray:
        return self._eval_in(int(np.searchsorted(self.K[: self.count], t, side="right")) - 1, t)

    def _eval_in(self, j: int, t: float) -> np.ndarray:
        """Dense value at ``t``, which the search put after knot ``j``."""
        c = self.count
        if j < 0:
            j = 0
        if j >= c - 1:
            j = c - 2
        ta, tb = self.K.item(j), self.K.item(j + 1)
        if t == ta:
            return self.V[j]
        if t == tb:
            return self.V[j + 1]
        dt = tb - ta
        h00, h10, h01, h11 = self._basis((t - ta) / dt)
        return (
            h00 * self.V[j]
            + (h10 * dt) * self.DOUT[j]
            + h01 * self.V[j + 1]
            + (h11 * dt) * self.DIN[j + 1]
        )

    def window_segment(
        self, tau: float, prov: np.ndarray | None = None, start: int | None = None
    ) -> _Window:
        """History snapshot on [tau - delay, tau], as a view of the store.

        Inner knots are the stored knots strictly below ``tau``; the left
        endpoint is interpolated when it falls between knots.  The row at
        offset 0 is ``prov`` when given, for ``tau`` at or beyond the newest
        knot: a stage's provisional state (the linear piece between the last
        node and the stage is exactly the forward extension used by the stage
        formulas) or the newest node's own state, which supersedes a knot at
        ``tau``.  Otherwise it is the dense value at ``tau``.  ``start``, when
        given, is ``searchsorted(K[:count], tau - delay, "right")``, which a
        caller whose times only grow can keep by walking forward.
        """
        r = self.delay
        c = self.count
        lo = tau - r
        K = self.K
        i0 = int(np.searchsorted(K[:c], lo, side="right")) if start is None else start
        tail_row = i0 - 1 if i0 > 0 and K.item(i0 - 1) == lo else None
        # a knot just above lo can still land on offset -r after subtraction;
        # fold it into the tail so the offset grid stays strictly increasing
        while i0 < c and K.item(i0) - tau <= -r:
            tail_row = i0
            i0 += 1
        if prov is None:
            prov = self.eval_one(tau)
        i1 = c if K.item(c - 1) < tau else int(np.searchsorted(K[:c], tau, side="left"))
        # without a fold, the search for i0 is eval_one(lo)'s own search
        tail = self._eval_in(i0 - 1, lo) if tail_row is None else self.V[tail_row]
        tail.flags.writeable = False
        return _Window(self, tau, i0, i1, tail, prov)


class _Window(HistorySegment):
    """The window [tau - delay, tau] of a dense store, without a copy.

    It holds the store, the index range ``i0:i1`` of the inner knots and the
    rows at -delay and 0.  ``head``, ``delayed`` and ``integral()`` cost O(1);
    ``grid`` and ``values`` cost one O(delay/step) copy on first read and are
    kept.  The store only appends, so a window stays valid as it grows.
    ``_body`` is all of ``integral()`` but the head piece, computed on first
    need; windows with the same time, inner knots and tail share it.
    """

    def __init__(self, dense: _Dense, tau: float, i0: int, i1: int, tail, head, body=None):
        # the builders freeze the tail, which with_head passes on
        head.flags.writeable = False
        self.__dict__.update(
            delay=dense.delay, _dense=dense, _tau=tau, _i0=i0, _i1=i1, _tail=tail, _head=head,
            _body=body,
        )

    def with_head(self, head: np.ndarray) -> _Window:
        """The same window with another row at offset 0: the RK stages that
        share a time share the search for the lower end and the quadrature
        of all but the head piece."""
        return _Window(self._dense, self._tau, self._i0, self._i1, self._tail, head, self._body)

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
            tail_piece = (0.5 * ((K.item(i0) - tau) + self.delay)) * (self._tail + V[i0])
            self.__dict__["_body"] = tail_piece + (C[i1 - 1] - C[i0])
        return self._body + (0.5 * (tau - K.item(i1 - 1))) * (V[i1 - 1] + self._head)

    @property
    def grid(self) -> np.ndarray:
        return self._rows[0]

    @property
    def values(self) -> np.ndarray:
        return self._rows[1]

    @functools.cached_property
    def _rows(self) -> tuple:
        dense = self._dense
        i0, i1 = self._i0, self._i1
        size = i1 - i0 + 2
        grid = np.empty(size)
        vals = np.empty((size, dense.n))
        grid[0] = -self.delay
        vals[0] = self._tail
        grid[1:-1] = dense.K[i0:i1] - self._tau
        vals[1:-1] = dense.V[i0:i1]
        grid[-1] = 0.0
        vals[-1] = self._head
        if dense.close_knots:
            # keep the last knot of each run that rounded onto one offset
            last = np.concatenate([[True], np.diff(grid[1:]) > 0.0, [True]])
            grid, vals = grid[last], vals[last]
        grid.flags.writeable = False
        vals.flags.writeable = False
        return grid, vals


@dataclass
class Trajectory:
    """Integration result with dense accessors.

    ``times``/``states`` cover the accepted nodes from t0 on; the initial
    window and the cubic-Hermite slope data stay available through
    :meth:`history` and :meth:`state`, which reproduce the supplied initial
    segment exactly at its grid points.  ``outputs`` holds one output per
    node, computed from the node window each time it is read, so an output
    map that fails raises when its output is read, not inside
    :func:`integrate`.
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
        return np.array(self._dense.eval_one(self._clamped(t)))

    def history(self, t: float) -> HistorySegment:
        """Window snapshot at ``t``; exact at stored knots.

        At a node time this is the stored window the integrator handed to the
        dynamics there, found by one search over ``times``; between nodes it
        is built from the dense store.
        """
        t = self._clamped(t)
        k = int(self.times.searchsorted(t))
        if self.times[k] == t:
            return self._dense.node_window(k)
        return self._dense.window_segment(t)

    @property
    def outputs(self) -> _Outputs:
        # built on each read: a stored view of self would be a reference cycle
        return _Outputs(self)

    def output_norms(self) -> np.ndarray:
        return np.array([output_norm(y) for y in self.outputs])


class _Outputs(Sequence):
    """Item k is ``system.output(times[k], node window k)``, computed on every read."""

    def __init__(self, traj: Trajectory):
        self._traj = traj

    def __len__(self) -> int:
        return self._traj.times.size

    def __iter__(self):  # Sequence's loop would stop at an IndexError of the output map
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, k: int):
        k = range(len(self))[k]  # a list's negative indices and bounds
        return self._traj.system.output(self._traj.times[k], self._traj._dense.node_window(k))


def _grid_for(t0: float, t_end: float, h: float, switches: np.ndarray) -> np.ndarray:
    n_steps = int(math.floor((t_end - t0) / h + 1e-9))
    base = t0 + h * np.arange(n_steps + 1)
    base = base[(base >= t0) & (base <= t_end)]
    switches = switches[(switches > t0) & (switches < t_end)]
    special = np.unique(np.concatenate([[t0, t_end], switches]))
    # keep endpoint and switch times bitwise exact; drop base nodes that
    # would create a vanishing step next to them
    eps = 1e-9 * h
    pos = np.searchsorted(special, base)
    d_right = np.where(pos < special.size, special[np.minimum(pos, special.size - 1)] - base, np.inf)
    d_left = np.where(pos > 0, base - special[np.maximum(pos - 1, 0)], np.inf)
    base = base[np.minimum(np.abs(d_right), np.abs(d_left)) >= eps]
    return np.union1d(special, base)


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
    inside the horizon are inserted as grid nodes.  Blow-up (window norm above
    opts.blowup_norm) and non-finite dynamics truncate the run and are
    reported through the status field.
    """
    opts = opts or IntegrateOpts()
    r = system.delay_r
    n = system.dim_n
    if abs(x0.delay - r) > 1e-12:
        raise ValueError("initial segment window does not match the system delay")
    if x0.dim != n:
        raise ValueError("initial segment dimension does not match the system")
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    if opts.step_req <= 0:
        raise ValueError("step_req must be positive")

    m_sub = max(2, int(math.ceil(r / opts.step_req - 1e-12)))
    h = r / m_sub

    signals = [sig for sig in (u, d) if sig is not None]
    for sig in signals:
        sig.eval(t0)  # signals are defined on [0, inf): this rejects t0 < 0
    sw = np.concatenate([sig.switches_in(t0, t_end) for sig in signals]) if signals else np.empty(0)
    tgrid = _grid_for(t0, t_end, h, sw)
    # every switch is a node, so the levels read at a node hold until the next
    U = u.eval_many(tgrid) if u is not None else np.zeros((tgrid.size, system.input_dim))
    D = d.eval_many(tgrid) if d is not None else np.zeros((tgrid.size, system.d_box.shape[0]))
    U.flags.writeable = D.flags.writeable = False
    switched = np.any(U[1:] != U[:-1], axis=1) | np.any(D[1:] != D[:-1], axis=1)
    switched[-1] = False  # the run ends at the last node: no slope leaves it
    switched = switched.tolist()

    dense = _Dense(t0, x0, x0.grid.size + tgrid.size)
    f = system.dynamics
    K, V, DIN, DOUT = dense.K, dense.V, dense.DIN, dense.DOUT
    lower = 0  # searchsorted(K[:count], tau - delay, "right") at the last stage time tau

    def window(tau: float, head: np.ndarray) -> _Window:
        # stage times never decrease and knots only append, so the lower end walks forward
        nonlocal lower
        lo = tau - dense.delay
        while lower < dense.count and K.item(lower) <= lo:
            lower += 1
        return dense.window_segment(tau, head, lower)

    status = "completed"
    times = tgrid.tolist()  # Python floats: the step arithmetic is the same, with less overhead
    seg0 = dense.node_window(0, window(times[0], V[dense.count - 1]))
    DOUT[dense.count - 1] = np.asarray(f(times[0], seg0, U[0], D[0]), dtype=float)

    for j in range(len(times) - 1):
        ta = times[j]
        tb = times[j + 1]
        hk = tb - ta
        uk = U[j]
        dk = D[j]
        c = dense.count
        xk = V[c - 1]
        k1 = DOUT[c - 1]

        tm = ta + 0.5 * hk
        if tm == ta:  # a one-ulp step has no midpoint; its start belongs to the node
            tm = tb
        seg_m = window(tm, xk + (0.5 * hk) * k1)
        k2 = np.asarray(f(tm, seg_m, uk, dk), dtype=float)
        k3 = np.asarray(f(tm, seg_m.with_head(xk + (0.5 * hk) * k2), uk, dk), dtype=float)
        seg_b = window(tb, xk + hk * k3)
        k4 = np.asarray(f(tb, seg_b, uk, dk), dtype=float)
        x_next = xk + (hk / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        # hk > 0, so x_next is non-finite whenever a stage is; a finite square
        # has finite entries, an overflowed one may still
        sq = x_next.dot(x_next)
        if not math.isfinite(sq) and not np.isfinite(x_next).all():
            status = "step_failure"
            break

        dense.append(tb, x_next, k4)
        # the node window has the lower end of k4's: appending at tb moves neither
        seg_b = dense.node_window(j + 1, seg_b)
        f_end = np.asarray(f(tb, seg_b, uk, dk), dtype=float)
        if not math.isfinite(f_end.dot(f_end)) and not np.isfinite(f_end).all():
            status = "step_failure"
            break
        DIN[c] = DOUT[c] = f_end
        if switched[j]:  # new levels leave the node with a slope of their own
            DOUT[c] = np.asarray(f(tb, seg_b, U[j + 1], D[j + 1]), dtype=float)

        if math.sqrt(sq) > opts.blowup_norm:  # bitwise np.linalg.norm(x_next)
            status = "blew_up"
            break

    return Trajectory(
        system=system,
        t0=t0,
        times=dense.K[dense.node0 : dense.count].copy(),
        states=dense.V[dense.node0 : dense.count].copy(),
        initial=x0,
        u=u,
        d=d,
        status=status,
        t_event=None if status == "completed" else float(tb),
        _dense=dense,
    )


def _trailing_window_max(ts: np.ndarray, vals: np.ndarray, width: float) -> np.ndarray:
    """Running max of ``vals`` over the trailing time window ``[t - width, t]``."""
    out = np.empty(vals.size)
    dq: deque = deque()
    for k in range(vals.size):
        while dq and vals[dq[-1]] <= vals[k]:
            dq.pop()
        dq.append(k)
        while ts[dq[0]] < ts[k] - width - 1e-12:
            dq.popleft()
        out[k] = vals[dq[0]]
    return out


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
    at t0, so the check allows a relative slack of 1e-9.
    """
    opts = opts or IntegrateOpts()
    ta = integrate(system, t0, x0, u, d, t_end, opts)
    tb = integrate(system, t0, y0, u, d, t_end, opts)
    if ta.status != "completed" or tb.status != "completed":
        return ContinuityReport(False, math.inf, ta.t_event or tb.t_event or t0, 0.0, False)
    if ta.times.size != tb.times.size or not np.array_equal(ta.times, tb.times):
        raise RuntimeError("paired runs produced different grids")

    # the shared nodes give their rows directly; the initial windows' knots
    # before t0 are read from each run's dense store
    pre = np.union1d(t0 + x0.grid, t0 + y0.grid)
    pre = pre[pre < t0]
    pre_rows = (ta._dense.eval_one(t) - tb._dense.eval_one(t) for t in pre)
    diff = np.vstack([*pre_rows, ta.states - tb.states])
    knots = np.concatenate([pre, ta.times])
    dn = np.linalg.norm(diff, axis=1)
    window_dist = _trailing_window_max(knots, dn, system.delay_r)[pre.size :]
    L = moduli.one_sided_state
    d0 = window_dist[0]  # the window distance at t0 is the initial distance
    worst_ratio = 0.0
    worst_time = t0
    passed = True
    overflow = False
    for t, lhs in zip(ta.times, window_dist):
        arg = L * (t - t0)
        if arg > _EXP_CAP:
            overflow = True
            bound = math.inf
        else:
            bound = d0 * math.exp(arg)
        if bound == 0.0:
            ratio = 0.0 if lhs <= 1e-12 else math.inf
        elif math.isinf(bound):
            ratio = 0.0
        else:
            ratio = lhs / bound
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_time = float(t)
        if lhs > bound * (1.0 + 1e-9) + 1e-12:
            passed = False
    return ContinuityReport(passed, worst_ratio, worst_time, float(d0), overflow)


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

    Draws initial windows with norm at most s, start times in [0, T], and
    signals with mean dwell 1 over the horizon (inputs clipped to the ball of
    radius s); the
    first 2n ensemble members are the deterministic constant extremes
    +/- s along each axis started at t0 = 0, so the ball boundary is always
    probed.  The report carries the largest window norm seen and the first
    blow-up witness, if any.
    """
    rng = rng or np.random.default_rng(0)
    opts = opts or IntegrateOpts()
    r = system.delay_r
    n = system.dim_n
    worst = 0.0
    for i in range(n_traj):
        if i < 2 * n:
            t0 = 0.0
            corner = np.zeros(n)
            corner[i // 2] = s if i % 2 == 0 else -s
            x0 = HistorySegment.constant(r, corner)
        else:
            t0 = float(rng.uniform(0.0, T))
            x0 = sample_history(rng, r, n, s)
        horizon = t0 + T
        d_sig = _draw_signal(rng, system.d_box, horizon + 1.0, 1.0)
        u_sig = None
        if system.u_box is not None:
            ubox = np.column_stack(
                [np.maximum(system.u_box[:, 0], -s), np.minimum(system.u_box[:, 1], s)]
            )
            ubox[ubox[:, 0] > ubox[:, 1]] = 0.0
            u_sig = _draw_signal(rng, ubox, horizon + 1.0, 1.0)
        traj = integrate(system, t0, x0, u_sig, d_sig, horizon, opts)
        if traj.status != "completed":
            return RfcReport("blow_up_witness", float("inf"), i, traj.t_event, i + 1)
        norms = np.linalg.norm(traj._dense.V[: traj._dense.count], axis=1)
        worst = max(worst, float(norms.max()))
    return RfcReport("no_counterexample", worst, None, None, n_traj)


# -- serialization ---------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV text: t, state columns, state norm, output columns or norm."""
    return _csv_text(traj, list(traj.outputs))


def _csv_text(traj: Trajectory, outputs: list) -> str:
    """``trajectory_to_csv`` on outputs already read, one per node."""
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
