"""Piecewise-constant disturbance and input signals.

Signals are right-continuous step functions on [0, inf) taking values inside
an axis-aligned box.  Random signals come from a renewal process: exponential
dwell times between switches, values drawn uniformly from the box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compfn import _require_positive

__all__ = ["PiecewiseSignal", "SignalSpec", "sample_signal", "constant_signal"]

_T_TOL = 1e-12


def _as_box(box) -> np.ndarray:
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = box[None, :]
    if box.ndim != 2 or box.shape[1] != 2:
        raise ValueError("box must have shape (m, 2)")
    if np.any(box[:, 0] > box[:, 1]):
        raise ValueError("box lower bounds exceed upper bounds")
    return box


@dataclass(frozen=True)
class PiecewiseSignal:
    """Right-continuous step function: values[k] on [t_k, t_{k+1})."""

    switch_times: np.ndarray   # (k,) strictly increasing, nonnegative
    values: np.ndarray         # (k+1, m)
    box: np.ndarray            # (m, 2)

    def __post_init__(self):
        st = np.ascontiguousarray(np.atleast_1d(np.asarray(self.switch_times, dtype=float)))
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        vals = np.ascontiguousarray(vals)
        box = _as_box(self.box)
        if st.size and (np.any(np.diff(st) <= 0.0) or st[0] < 0.0):
            raise ValueError("switch times must be strictly increasing and nonnegative")
        if vals.shape[0] != st.size + 1:
            raise ValueError("need one value row per interval (switch count + 1)")
        if vals.shape[1] != box.shape[0]:
            raise ValueError("value dimension does not match the box")
        eps = 1e-9 * (1.0 + np.abs(box).max(initial=0.0))
        if np.any(vals < box[:, 0] - eps) or np.any(vals > box[:, 1] + eps):
            raise ValueError("signal values leave the domain box")
        st.flags.writeable = False
        vals.flags.writeable = False
        box.flags.writeable = False
        object.__setattr__(self, "switch_times", st)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "box", box)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def eval(self, t: float) -> np.ndarray:
        if t < -_T_TOL:
            raise ValueError(f"signals are defined on [0, inf); got t={t!r}")
        idx = int(np.searchsorted(self.switch_times, t, side="right"))
        return self.values[idx]

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        idx = np.searchsorted(self.switch_times, ts, side="right")
        return self.values[idx]

    def switches_in(self, t_lo: float, t_hi: float) -> np.ndarray:
        st = self.switch_times
        return st[(st > t_lo) & (st < t_hi)]


def constant_signal(value, box=None) -> PiecewiseSignal:
    value = np.atleast_1d(np.asarray(value, dtype=float))
    if box is None:
        box = np.column_stack([value, value])
    return PiecewiseSignal(np.empty(0), value[None, :], box)


@dataclass(frozen=True)
class SignalSpec:
    """Recipe for a random signal: box, horizon, mean dwell time, seed."""

    box: np.ndarray
    horizon: float
    mean_dwell: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "box", _as_box(self.box))
        _require_positive(horizon=self.horizon, mean_dwell=self.mean_dwell)


def sample_signal(spec: SignalSpec) -> PiecewiseSignal:
    """Renewal-process sample: exp(mean_dwell) dwells, uniform box values.

    The generator is seeded from ``spec.seed``, so a spec always gives the
    same signal.
    """
    rng = np.random.default_rng(spec.seed)
    switches = []
    t = float(rng.exponential(spec.mean_dwell))
    while t < spec.horizon:
        switches.append(t)
        t += float(rng.exponential(spec.mean_dwell))
    m = spec.box.shape[0]
    vals = rng.uniform(spec.box[:, 0], spec.box[:, 1], size=(len(switches) + 1, m))
    return PiecewiseSignal(np.asarray(switches), vals, spec.box)


def _draw_signal(rng: np.random.Generator, box, horizon: float, mean_dwell: float) -> PiecewiseSignal:
    """A :func:`sample_signal` seeded by the next 32-bit integer drawn from ``rng``."""
    return sample_signal(SignalSpec(box, horizon, mean_dwell, seed=int(rng.integers(2**32))))
