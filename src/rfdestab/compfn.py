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

from .history import _norm

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


def _require_positive(**params) -> None:
    """Reject a constructor parameter that is not finite and positive (None means "default")."""
    for key, value in params.items():
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValueError(f"parameter {key} must be finite and positive, got {value!r}")


def linear(c: float) -> ComparisonFn:
    _require_positive(c=c)
    return ComparisonFn(lambda s: c * s, f"linear({c!r})")


def power(p: float, scale: float = 1.0) -> ComparisonFn:
    _require_positive(p=p, scale=scale)

    def fn(s):
        return scale * np.abs(s) ** p

    return ComparisonFn(fn, f"power(p={p!r}, scale={scale!r})")


# The input guards (``_guard_level``) call a time weight once a sample, so a
# float time takes a scalar path.  Its result is the array expression's,
# bitwise and of the same type and shape; only a product c * t beyond the
# float range, which the array path warns about, turns inf silently.

def exp_weight(c: float) -> ComparisonFn:
    if not math.isfinite(c):
        raise ValueError(f"exp_weight needs a finite rate, got {c!r}")

    def fn(t):
        if isinstance(t, float):
            return np.exp(c * t)
        return np.exp(c * np.asarray(t, dtype=float))

    return ComparisonFn(fn, f"exp_weight({c!r})")


def constant(c: float) -> ComparisonFn:
    _require_positive(c=c)
    value = np.float64(c)

    def fn(t):
        if isinstance(t, float):
            return value
        t = np.asarray(t, dtype=float)
        return np.full(t.shape, value) if t.ndim else value

    return ComparisonFn(fn, f"constant({c!r})")


def _guard_level(gain, weight, t: float, u) -> float:
    """The input level gain(weight(t)|u|) that the guarded decay conditions
    and the input-to-output envelopes compare against."""
    return float(gain(float(weight(t)) * _norm(np.asarray(u, dtype=float).ravel(order="K"))))


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


# SciPy's RK45: the Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput.
# Appl. Math. 6 (1980)), its error weights and its quartic dense output
_DP_A = [np.array(row) for row in (
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
)]
_DP_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
FLOW_RTOL = 1e-10
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _norm1(x: float) -> float:
    """``np.linalg.norm`` of a one-entry vector, bit for bit: inf where x * x overflows."""
    return math.sqrt(x * x)


class _SteppedFlow:
    """A Dormand-Prince 5(4) solution of the comparison flow from ``s``,
    stepped only as far as it is read.

    It takes the steps of SciPy's ``RK45(rhs, 0, [s], FLOW_T_MAX,
    rtol=FLOW_RTOL, atol=FLOW_ATOL)``, one scalar at a time: the same first
    step, error norm, step factors and failure below 10 ulp.  Its bound stays
    FLOW_T_MAX, so its steps do not depend on where stepping stops, and every
    value is the full solve's.  The 10-ulp floor keeps every step longer than
    zero, so no step is dropped.  A step that ``rhs`` interrupts by raising
    leaves the solution as it was.  Each step keeps one row (t_old, h, y_old,
    q0..q3) of ``rows``; ``table`` is that list as an array, rebuilt when a
    step was added since it was last read.
    """

    def __init__(self, rhs, s: float):
        if not math.isfinite(s):
            raise ValueError(f"comparison flow needs a finite initial value, got {s!r}")
        self.rhs, self.s = rhs, s
        self.t, self.y = 0.0, float(s)
        self.f = rhs(self.y)
        self.h_abs = self._first_step()
        self.K = np.empty((7, 1))  # the stage slopes of the step being taken
        self.rows = []
        self.table = None
        self.failure = None

    def _first_step(self) -> float:
        """SciPy's ``select_initial_step`` for error order 4 (Hairer, Norsett
        & Wanner, Solving ODEs I, Sec. II.4)."""
        y0, f0 = self.y, self.f
        scale = FLOW_ATOL + abs(y0) * FLOW_RTOL
        d0, d1 = _norm1(y0 / scale), _norm1(f0 / scale)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, FLOW_T_MAX)
        df = self.rhs(y0 + h0 * f0) - f0
        if h0 == 0.0:  # d1 is inf: RK45's d2 is NaN, and its first step 0
            return 0.0
        d2 = _norm1(df / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
        return min(100 * h0, h1, FLOW_T_MAX)

    def _step(self) -> None:
        """One accepted step, or ``failure`` set when the step falls below 10 ulp of t.

        The stage sums go through ``np.dot`` on the (7, 1) stage array, as in
        RK45: the error estimate is a difference of nearly equal slopes, so a
        sum rounded in another order would accept or reject other steps.  The
        rest is Python float arithmetic, which overflows to inf quietly.
        """
        rhs, t, y, K = self.rhs, self.t, self.y, self.K
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(self.h_abs, min_step), False
        while True:
            if h_abs < min_step:
                self.failure = "Required step size is less than spacing between numbers."
                return
            t_new = min(t + h_abs, FLOW_T_MAX)
            h = h_abs = t_new - t
            K[0] = self.f
            for s, a in enumerate(_DP_A, start=1):
                K[s] = rhs(y + float(np.dot(K[:s].T, a)[0]) * h)
            y_new = y + h * float(np.dot(K[:-1].T, _DP_B)[0])
            K[-1] = f_new = rhs(y_new)
            err = float(np.dot(K.T, _DP_E)[0]) * h
            error_norm = abs(err / (FLOW_ATOL + max(abs(y), abs(y_new)) * FLOW_RTOL))
            if error_norm < 1:
                factor = _MAX_FACTOR if error_norm == 0 else min(_MAX_FACTOR, _SAFETY * error_norm ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** -0.2)
            rejected = True
        self.rows.append((t, h, y, *K.T.dot(_DP_P)[0].tolist()))
        self.t, self.y, self.f, self.h_abs, self.table = t_new, y_new, f_new, h_abs, None

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        """y(t) for an array of times in (0, FLOW_T_MAX]."""
        t_max = ts.max()
        # step past the latest time asked, so each time lies on a finished step
        while self.t <= t_max and self.t < FLOW_T_MAX and self.failure is None:
            self._step()
        if self.t < t_max:  # stepping ends at FLOW_T_MAX, so it failed
            raise RuntimeError(
                f"comparison flow failed from y(0)={self.s!r}: {self.failure}"
            )
        if self.table is None:
            self.table = np.array(self.rows)
        # the step a time lies on: a step's end time belongs to that step
        i = np.searchsorted(self.table[:, 0], ts, side="left") - 1
        t_old, h, y_old, q0, q1, q2, q3 = self.table[i].T
        x = (ts - t_old) / h
        x2 = x * x
        x3 = x2 * x
        return h * (q0 * x + q1 * x2 + q2 * x3 + q3 * (x3 * x)) + y_old


def kl_from_rate(rho: ComparisonFn | Callable) -> KlFn:
    """KL envelope as the flow of y' = -rho(y); sigma(s, 0) = s exactly.

    The rate must be a number >= 0 on FLOW_PROBES (25 log-spaced points in
    [1e-9, 1e3]); a negative or NaN value there raises ValueError naming its
    s.  A queried initial value gets an adaptive Dormand-Prince 5(4)
    solution (:class:`_SteppedFlow`, the steps of SciPy's RK45) bounded by
    FLOW_T_MAX (60) at tolerances FLOW_RTOL and FLOW_ATOL (both 1e-10), so
    closed-form accuracy is limited only by the integration tolerance.  The
    solution is stepped only as far as it is read: a query at time t steps
    it just past t, and a later query that reaches further steps on from
    there.  The steps are those of a solve to FLOW_T_MAX, so values do not
    depend on the order of queries.  A solve that fails, including one that
    meets a rate value that is not finite, raises RuntimeError only on
    queries that reach the failure point; earlier times still read.  Times
    past FLOW_T_MAX chain through the value at FLOW_T_MAX, and values are
    clamped at zero (the exact flow never crosses it; the numerical one may
    undershoot by ~FLOW_ATOL).
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

    def rhs(y: float) -> float:
        if y <= 0.0:
            return 0.0
        v = float(rate(y))
        # a non-finite slope would make the step size NaN, which no test rejects,
        # so stepping would never end
        if not math.isfinite(v):
            raise RuntimeError(
                f"comparison flow failed: the decay rate is {v!r} at y={y!r}"
            )
        return -v

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
    dt = 0.02 that is 14 rate calls and 45-51 us of CPU per node (300 nodes
    with a new level at each, on a 2-core x86 box with NumPy 2.4).
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
