"""Comparison functions and KL decay envelopes.

The vocabulary of the stability estimates: class-K / K-infinity gains,
positive time weights, positive-definite decay rates, and two-argument KL
envelopes.  KL envelopes are built as flows of the scalar comparison system
y' = -rho(y), which makes them semigroups in the time argument;
:func:`fading_sup` exploits exactly that property.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ComparisonFn",
    "KlFn",
    "kl_from_rate",
    "fading_sup",
    "identity",
    "linear",
    "power",
    "exp_weight",
    "constant",
]


@dataclass(frozen=True)
class ComparisonFn:
    """Scalar gain, weight or rate; ``fn`` must accept floats and numpy arrays."""

    fn: Callable
    name: str = ""

    def __call__(self, s):
        return self.fn(s)


# -- named constructors ------------------------------------------------------

def identity() -> ComparisonFn:
    return ComparisonFn(lambda s: s, "identity")


def linear(c: float) -> ComparisonFn:
    if c <= 0:
        raise ValueError("linear gain needs a positive slope")
    return ComparisonFn(lambda s: c * s, f"linear({c!r})")


def power(p: float, scale: float = 1.0) -> ComparisonFn:
    if p <= 0 or scale <= 0:
        raise ValueError("power gain needs positive exponent and scale")

    def fn(s):
        return scale * np.abs(s) ** p

    return ComparisonFn(fn, f"power(p={p!r}, scale={scale!r})")


def exp_weight(c: float) -> ComparisonFn:
    return ComparisonFn(lambda t: np.exp(c * np.asarray(t, dtype=float)), f"exp_weight({c!r})")


def constant(c: float) -> ComparisonFn:
    if c <= 0:
        raise ValueError("constant weights must be positive")
    return ComparisonFn(lambda t: c * np.ones_like(np.asarray(t, dtype=float)), f"constant({c!r})")


def _guard_level(gain, weight, t: float, u) -> float:
    """The input level gain(weight(t)|u|) that the guarded decay conditions
    and the input-to-output envelopes compare against."""
    return float(gain(float(weight(t)) * float(np.linalg.norm(u))))


# -- KL envelopes from decay rates --------------------------------------------

FLOW_T_MAX = 60.0
FLOW_ATOL = 1e-10
FLOW_PROBES = np.logspace(-9, 3, 25)


@dataclass(frozen=True)
class KlFn:
    """Two-argument decay envelope sigma(s, t); ``flow(s, ts)``, set by
    :func:`kl_from_rate`, marks a rate flow and evaluates it on arrays of times."""

    fn: Callable
    name: str = "kl"
    flow: Callable | None = None

    def __call__(self, s: float, t: float) -> float:
        return float(self.fn(s, t))

    def eval_t_array(self, s: float, ts: np.ndarray) -> np.ndarray:
        if self.flow is not None:
            return self.flow(s, ts)
        return np.array([self.fn(s, float(t)) for t in np.asarray(ts, dtype=float)])


class _SteppedFlow:
    """An RK45 solution of the comparison flow, stepped only as far as it is read.

    It keeps the step times and interpolants that ``solve_ivp(...,
    dense_output=True)`` keeps, and drops a zero-length step as it does.  The
    solver's bound stays FLOW_T_MAX, so its steps do not depend on where
    stepping stops, and every value is the full solve's.
    """

    def __init__(self, rhs, s: float):
        from scipy.integrate import RK45  # SciPy's ODE suite loads on first use

        self.s = s
        self.solver = RK45(rhs, 0.0, [s], FLOW_T_MAX, rtol=1e-10, atol=FLOW_ATOL)
        self.ts = [0.0]
        self.interpolants = []
        self.failure = None

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        """y(t) for an array of times in (0, FLOW_T_MAX]."""
        from scipy.integrate import OdeSolution

        solver, t_max = self.solver, ts.max()
        # step past the latest time asked, so each time lies on a finished step
        while self.ts[-1] <= t_max and solver.status == "running":
            message = solver.step()
            if solver.status == "failed":
                self.failure = message
            elif solver.t != self.ts[-1]:
                self.ts.append(solver.t)
                self.interpolants.append(solver.dense_output())
        if self.ts[-1] < t_max:  # the solver finishes at FLOW_T_MAX, so it failed
            raise RuntimeError(
                f"comparison flow failed from y(0)={self.s!r}: {self.failure}"
            )
        return OdeSolution(self.ts, self.interpolants)(ts)[0]


def kl_from_rate(rho: ComparisonFn | Callable) -> KlFn:
    """KL envelope as the flow of y' = -rho(y); sigma(s, 0) = s exactly.

    The rate must be a number >= 0 on FLOW_PROBES (25 log-spaced points in
    [1e-9, 1e3]); a negative or NaN value there raises ValueError naming its
    s.  A queried initial value gets an adaptive RK45 solution bounded by
    FLOW_T_MAX (60) at absolute tolerance FLOW_ATOL (1e-10), so closed-form
    accuracy is limited only by the integration tolerance.  The solution is stepped only as far as it is
    read: a query at time t steps it just past t, and a later query that
    reaches further steps on from there.  The steps are those of a solve to
    FLOW_T_MAX, so values do not depend on the order of queries.  A solve
    that fails, including one that meets a rate value that is not finite,
    raises RuntimeError only on queries that reach the failure point;
    earlier times still read.  Times past FLOW_T_MAX chain through
    the value at FLOW_T_MAX, and values are clamped at zero (the exact flow
    never crosses it; the numerical one may undershoot by ~FLOW_ATOL).
    Callers re-query only the value they queried last, so only the last two
    solutions are kept: the queried value's and, past FLOW_T_MAX, the one it
    chains to; each holds at most one solve to FLOW_T_MAX.
    """
    rate = rho.fn if isinstance(rho, ComparisonFn) else rho
    probes = np.asarray([rate(s) for s in FLOW_PROBES], dtype=float)
    if not np.all(probes >= 0.0):  # NaN fails this test as a negative value does
        k = int(np.argmin(probes >= 0.0))
        raise ValueError(
            f"decay rate is {float(probes[k])!r} at s={float(FLOW_PROBES[k])!r}; "
            "not positive definite"
        )

    def rhs(t, y):
        yv = y[0]
        if yv <= 0.0:
            return [0.0]
        v = float(rate(yv))
        if not math.isfinite(v):  # RK45 would retry a non-finite first slope forever
            raise RuntimeError(
                f"comparison flow failed: the decay rate is {v!r} at y={float(yv)!r}"
            )
        return [-v]

    @functools.lru_cache(maxsize=2)
    def solution(s: float) -> _SteppedFlow:
        return _SteppedFlow(rhs, s)

    def flow(s: float, ts) -> np.ndarray:
        """sigma(s, t) for a time or an array of times, in the shape of ``ts``."""
        if s < 0.0:
            raise ValueError("KL envelopes are defined for s >= 0")
        ts = np.asarray(ts, dtype=float)
        out = np.where(ts <= 0.0, s, np.nan)
        inside = (ts > 0.0) & (ts <= FLOW_T_MAX)
        if inside.any():
            out[inside] = np.clip(solution(s)(ts[inside]), 0.0, None)
        past = ts > FLOW_T_MAX
        if past.any():
            out[past] = flow(float(flow(s, FLOW_T_MAX)), ts[past] - FLOW_T_MAX)
        return out

    label = rho.name if isinstance(rho, ComparisonFn) and rho.name else "rate"
    return KlFn(flow, f"flow(-{label})", flow=flow)


def fading_sup(sigma: KlFn, s_series: np.ndarray, times: np.ndarray) -> np.ndarray:
    """w(t_i) = max over j <= i of sigma(s_j, t_i - t_j), via the flow recursion.

    Valid only for envelopes with the semigroup property (built by
    kl_from_rate): the running sup then satisfies
    w_{i+1} = max(sigma(w_i, dt), s_{i+1}).  Each node with a new level
    steps a new solution only to its gap dt: for the rate rho(y) = y and
    dt = 0.02 that is about 14 rate calls and 0.4 ms per node on a 2-core
    x86 box.
    """
    if sigma.flow is None:
        raise ValueError("fading_sup needs a flow-backed KL envelope")
    s_series = np.asarray(s_series, dtype=float)
    times = np.asarray(times, dtype=float)
    out = np.empty(times.shape)
    w = float(s_series[0])
    out[0] = w
    for i in range(1, times.size):
        dt = float(times[i] - times[i - 1])
        w = max(sigma(w, dt), float(s_series[i]))
        out[i] = w
    return out
