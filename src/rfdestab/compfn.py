"""Comparison functions, KL decay envelopes, and small-gain checks.

The vocabulary of the stability estimates: class-K / K-infinity gains,
positive time weights, positive-definite decay rates, and two-argument KL
envelopes.  KL envelopes are built as flows of the scalar comparison system
y' = -rho(y), which makes them semigroups in the time argument; several
verification routines exploit exactly that property.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ComparisonFn",
    "KlFn",
    "ClassCheckReport",
    "check_class",
    "check_kl",
    "kl_from_rate",
    "fading_sup",
    "check_small_gain",
    "SmallGainReport",
    "periodic_wrap",
    "nondecreasing_majorant",
    "identity",
    "linear",
    "power",
    "exp_weight",
    "constant",
    "fn_min",
    "fn_max",
    "comparison_from_config",
]

ZERO_TOL = 1e-12
DEFAULT_GRID = np.logspace(-9.0, 6.0, 64)
UNBOUNDED_PROBE = 1e6
UNBOUNDED_THRESHOLD = 1e3

VALID_TAGS = ("K", "K_inf", "K_plus", "positive_definite")


@dataclass(frozen=True)
class ComparisonFn:
    """Scalar gain/weight with a declared class tag; ``fn`` must accept
    floats and numpy arrays."""

    fn: Callable
    tag: str
    name: str = ""

    def __post_init__(self):
        if self.tag not in VALID_TAGS:
            raise ValueError(f"unknown class tag {self.tag!r}")

    def __call__(self, s):
        return self.fn(s)


# -- named constructors (also built from JSON by comparison_from_config) ----

def identity() -> ComparisonFn:
    return ComparisonFn(lambda s: s, "K_inf", "identity")


def linear(c: float, tag: str = "K_inf") -> ComparisonFn:
    if c <= 0 and tag != "K_plus":
        raise ValueError("linear gain needs a positive slope")
    return ComparisonFn(lambda s: c * s, tag, f"linear({c!r})")


def power(p: float, scale: float = 1.0) -> ComparisonFn:
    if p <= 0 or scale <= 0:
        raise ValueError("power gain needs positive exponent and scale")

    def fn(s):
        return scale * np.abs(s) ** p

    return ComparisonFn(fn, "K_inf", f"power(p={p!r}, scale={scale!r})")


def exp_weight(c: float) -> ComparisonFn:
    return ComparisonFn(lambda t: np.exp(c * np.asarray(t, dtype=float)), "K_plus", f"exp_weight({c!r})")


def constant(c: float) -> ComparisonFn:
    if c <= 0:
        raise ValueError("constant weights must be positive")
    return ComparisonFn(lambda t: c * np.ones_like(np.asarray(t, dtype=float)), "K_plus", f"constant({c!r})")


def fn_min(*fns: ComparisonFn, tag: str = "K") -> ComparisonFn:
    return ComparisonFn(
        lambda s: np.minimum.reduce([f(s) for f in fns]), tag,
        "min(" + ", ".join(f.name for f in fns) + ")",
    )


def fn_max(*fns: ComparisonFn, tag: str = "K") -> ComparisonFn:
    return ComparisonFn(
        lambda s: np.maximum.reduce([f(s) for f in fns]), tag,
        "max(" + ", ".join(f.name for f in fns) + ")",
    )


def comparison_from_config(cfg: dict) -> ComparisonFn:
    """Build a registry function from a JSON-able description."""
    kind = cfg.get("name")
    if kind == "identity":
        return identity()
    if kind == "linear":
        return linear(float(cfg["c"]), tag=cfg.get("tag", "K_inf"))
    if kind == "power":
        return power(float(cfg["p"]), float(cfg.get("scale", 1.0)))
    if kind == "exp_weight":
        return exp_weight(float(cfg["c"]))
    if kind == "constant":
        return constant(float(cfg["c"]))
    if kind in ("min", "max"):
        parts = [comparison_from_config(sub) for sub in cfg["of"]]
        build = fn_min if kind == "min" else fn_max
        return build(*parts, tag=cfg.get("tag", "K"))
    raise ValueError(f"unknown comparison function {kind!r}")


# -- class membership checks --------------------------------------------------

@dataclass
class ClassCheckReport:
    tag: str
    passed: bool
    checks: dict  # name -> {"ok": bool, "worst_s": float, "worst_value": float}

    def to_json_dict(self) -> dict:
        return asdict(self)


def _record(checks: dict, name: str, ok: bool, worst_s, worst_value):
    checks[name] = {
        "ok": bool(ok),
        "worst_s": None if worst_s is None else float(worst_s),
        "worst_value": None if worst_value is None else float(worst_value),
    }


def check_class(f: ComparisonFn) -> ClassCheckReport:
    """Sampled membership check for the declared class tag.

    Probes ``DEFAULT_GRID``, 64 log-spaced magnitudes in [1e-9, 1e6]; the
    unboundedness probe for K-infinity is the heuristic value test
    f(1e6) > 1e3.  Per-invariant results carry the worst offending sample.
    """
    grid = DEFAULT_GRID
    checks: dict = {}
    with np.errstate(over="ignore"):
        vals = np.asarray(f(grid), dtype=float)

    if f.tag in ("K", "K_inf", "positive_definite"):
        bad = ~np.isfinite(vals)
        if np.any(bad):
            s_bad = float(grid[np.argmax(bad)])
            raise ValueError(f"gain evaluates non-finite at s = {s_bad!r}")
        v0 = float(f(0.0))
        _record(checks, "zero_at_zero", abs(v0) <= ZERO_TOL, 0.0, v0)

    if f.tag in ("K", "K_inf"):
        diffs = np.diff(vals)
        ok = bool(np.all(diffs > 0.0))
        worst = None if ok else int(np.argmin(diffs))
        _record(
            checks, "strictly_increasing", ok,
            None if ok else grid[worst + 1],
            None if ok else float(diffs.min()),
        )

    if f.tag == "positive_definite":
        ok = bool(np.all(vals > 0.0))
        worst = None if ok else int(np.argmin(vals))
        _record(
            checks, "positive_away_from_zero", ok,
            None if ok else grid[worst], None if ok else float(vals.min()),
        )

    if f.tag == "K_plus":
        # time weights such as e^{ct} may overflow to +inf at the top of the
        # magnitude grid; +inf still witnesses positivity
        tgrid = np.concatenate([[0.0], grid])
        with np.errstate(over="ignore"):
            tvals = np.asarray(f(tgrid), dtype=float)
        if np.any(np.isnan(tvals)):
            raise ValueError(
                f"weight evaluates to NaN at t = {float(tgrid[np.argmax(np.isnan(tvals))])!r}"
            )
        ok = bool(np.all(tvals > 0.0))
        worst = None if ok else int(np.argmin(tvals))
        _record(
            checks, "positive", ok,
            None if ok else tgrid[worst], None if ok else float(tvals.min()),
        )

    if f.tag == "K_inf":
        probe = float(f(UNBOUNDED_PROBE))
        _record(checks, "unbounded_probe", probe > UNBOUNDED_THRESHOLD, UNBOUNDED_PROBE, probe)

    passed = all(c["ok"] for c in checks.values())
    return ClassCheckReport(f.tag, passed, checks)


def check_kl(
    sigma: "KlFn",
    s_grid: np.ndarray,
    t_grid: np.ndarray,
    tol: float = 1e-9,
) -> ClassCheckReport:
    """Sampled KL membership: increasing in s, zero at zero, fading in t."""
    s_grid = np.sort(np.asarray(s_grid, dtype=float))
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    table = np.array([[sigma(s, t) for t in t_grid] for s in s_grid])
    checks: dict = {}

    zero_row = np.array([sigma(0.0, t) for t in t_grid])
    _record(checks, "zero_at_zero", np.all(np.abs(zero_row) <= ZERO_TOL),
            0.0, float(np.abs(zero_row).max()))

    d_s = np.diff(table, axis=0)
    ok_s = bool(np.all(d_s >= -tol))
    _record(checks, "nondecreasing_in_s", ok_s, None, float(d_s.min()) if d_s.size else None)

    d_t = np.diff(table, axis=1)
    ok_t = bool(np.all(d_t <= tol))
    _record(checks, "nonincreasing_in_t", ok_t, None, float(d_t.max()) if d_t.size else None)

    first, last = table[:, 0], table[:, -1]
    fading = np.all((last < first) | (first <= tol))
    _record(checks, "fading", bool(fading), None, float((last - first).max()))

    passed = all(c["ok"] for c in checks.values())
    return ClassCheckReport("KL", passed, checks)


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


def kl_from_rate(rho: ComparisonFn | Callable) -> KlFn:
    """KL envelope as the flow of y' = -rho(y); sigma(s, 0) = s exactly.

    The rate must be nonnegative on FLOW_PROBES (25 log-spaced points in
    [1e-9, 1e3]; class error otherwise).  A queried initial value gets a
    dense adaptive solution on [0, FLOW_T_MAX] (60) at absolute tolerance
    FLOW_ATOL (1e-10), so closed-form accuracy is limited only by the
    integration tolerance.  Times past FLOW_T_MAX chain through the value at
    FLOW_T_MAX, and values are clamped at zero (the exact flow never crosses
    it; the numerical one may undershoot by ~FLOW_ATOL).  Callers re-query
    only the value they queried last, so only the last two solutions are
    kept: the queried value's and, past FLOW_T_MAX, the one it chains to.
    """
    rate = rho.fn if isinstance(rho, ComparisonFn) else rho
    probes = np.asarray([rate(s) for s in FLOW_PROBES], dtype=float)
    if np.any(probes < 0.0):
        bad = FLOW_PROBES[int(np.argmin(probes))]
        raise ValueError(f"decay rate is negative at s={bad!r}; not positive definite")

    def rhs(t, y):
        yv = y[0]
        if yv <= 0.0:
            return [0.0]
        return [-float(rate(yv))]

    @functools.lru_cache(maxsize=2)
    def solution(s: float):
        from scipy.integrate import solve_ivp  # SciPy's ODE suite loads on first use

        res = solve_ivp(
            rhs, (0.0, FLOW_T_MAX), [s],
            method="RK45", rtol=1e-10, atol=FLOW_ATOL, dense_output=True,
        )
        if not res.success:
            raise RuntimeError(f"comparison flow failed from y(0)={s!r}: {res.message}")
        return res.sol

    def flow(s: float, ts) -> np.ndarray:
        """sigma(s, t) for a time or an array of times, in the shape of ``ts``."""
        if s < 0.0:
            raise ValueError("KL envelopes are defined for s >= 0")
        ts = np.asarray(ts, dtype=float)
        out = np.empty(ts.shape)
        inside = ts <= FLOW_T_MAX
        if inside.any():
            out[inside] = np.clip(solution(s)(ts[inside])[0], 0.0, None)
        if not inside.all():
            out[~inside] = flow(float(flow(s, FLOW_T_MAX)), ts[~inside] - FLOW_T_MAX)
        return np.where(ts > 0.0, out, s)

    label = rho.name if isinstance(rho, ComparisonFn) and rho.name else "rate"
    return KlFn(flow, f"flow(-{label})", flow=flow)


def fading_sup(sigma: KlFn, s_series: np.ndarray, times: np.ndarray) -> np.ndarray:
    """w(t_i) = max over j <= i of sigma(s_j, t_i - t_j), via the flow recursion.

    Valid only for envelopes with the semigroup property (built by
    kl_from_rate): the running sup then satisfies
    w_{i+1} = max(sigma(w_i, dt), s_{i+1}).
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


# -- small-gain hypothesis/conclusion check -----------------------------------

@dataclass
class SmallGainReport:
    hypothesis_ok: bool
    worst_hypothesis_residual: float
    hypothesis_witness: float | None
    conclusion_evaluated: bool
    worst_conclusion_slack: float | None
    envelope_times: np.ndarray | None
    envelope: np.ndarray | None
    envelope_decayed: bool | None

    def to_json_dict(self) -> dict:
        return {
            "hypothesis_ok": self.hypothesis_ok,
            "worst_hypothesis_residual": self.worst_hypothesis_residual,
            "hypothesis_witness": self.hypothesis_witness,
            "conclusion_evaluated": self.conclusion_evaluated,
            "worst_conclusion_slack": self.worst_conclusion_slack,
            "envelope_decayed": self.envelope_decayed,
        }


def check_small_gain(
    times: np.ndarray,
    y: np.ndarray,
    u: np.ndarray,
    sigma: KlFn,
    a: ComparisonFn,
    M: float,
    tol: float = 1e-9,
) -> SmallGainReport:
    """Pointwise small-gain bound check on a sampled series.

    Hypothesis at each grid time t: y(t) does not exceed the infimum over
    window starts xi of max(sigma(M, t - xi), a(sup of y on [xi, t]), u(t)).
    When it holds, the minimal nonincreasing majorant E of the part of y that
    sticks above the running sup of u is fitted, so that
    y(t) <= max(E(t - t0), sup u) holds by construction; the report carries E
    and whether it has decayed by the end of the window.
    """
    times = np.asarray(times, dtype=float)
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    n = times.size
    if not (y.shape == u.shape == times.shape):
        raise ValueError("times, y, u must share a shape")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")

    worst = -np.inf
    witness = None
    ok = True
    for i in range(n):
        lags = times[i] - times[: i + 1]
        sig = sigma.eval_t_array(M, lags)
        # running sup of y over [xi, t]: reversed cumulative max of y[:i+1]
        tail_max = np.maximum.accumulate(y[i::-1])[::-1]
        bound = np.maximum(np.maximum(sig, np.asarray(a(tail_max), dtype=float)), u[i])
        resid = float(y[i] - bound.min())
        if resid > worst:
            worst = resid
            if resid > tol:
                witness = float(times[i])
        if resid > tol:
            ok = False

    if not ok:
        return SmallGainReport(False, worst, witness, False, None, None, None, None)

    sup_u = np.maximum.accumulate(u)
    excess = np.where(y > sup_u, y, 0.0)
    env = np.maximum.accumulate(excess[::-1])[::-1]  # minimal nonincreasing majorant
    slack = np.minimum(np.maximum(env, sup_u) - y, np.inf)
    decayed = bool(env[-1] <= tol + 1e-3 * max(env[0], tol))
    return SmallGainReport(
        True, worst, None, True, float(slack.min()),
        times - times[0], env, decayed,
    )


# -- periodicity helpers -------------------------------------------------------

def periodic_wrap(t0: float, period: float) -> tuple[int, float]:
    """Reduce a start time into [0, period): returns (k, t0 - k*period)."""
    if period <= 0:
        raise ValueError("period must be positive")
    if t0 < 0:
        raise ValueError("start times are nonnegative")
    k = int(math.floor(t0 / period))
    w = t0 - k * period
    if w >= period:  # guard the floating boundary
        k += 1
        w = t0 - k * period
    if w < 0.0:
        w = 0.0
    return k, w


def nondecreasing_majorant(weight: ComparisonFn | Callable, t_grid: np.ndarray) -> ComparisonFn:
    """Running max of a positive time weight, tabulated on a grid.

    Turns an arbitrary positive weight into the nondecreasing envelope used
    when a monotone weight is required.  Between samples the envelope
    interpolates linearly, which majorizes the samples but not necessarily an
    oscillation finer than the grid; pick the grid accordingly.
    """
    fn = weight.fn if isinstance(weight, ComparisonFn) else weight
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    vals = np.maximum.accumulate(np.asarray(fn(t_grid), dtype=float))

    def majorant(t):
        return np.interp(np.asarray(t, dtype=float), t_grid, vals)

    return ComparisonFn(majorant, "K_plus", "running_max_weight")
