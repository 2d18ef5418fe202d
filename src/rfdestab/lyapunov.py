"""Dini derivatives of energy functions and sampling-based falsification.

Two kinds of energy functions appear: window functionals V(t, x_window) and
pointwise functions V(t, x(t)).  Their forward upper Dini derivatives along
the dynamics are estimated with a shrinking-step quotient ladder (analytic
expressions take precedence when supplied), and decay inequalities of the
form  derivative + rate(V) <= 0  are stress-tested on random ensembles of
times, windows, inputs, and disturbances.  Window functionals are tested
under an input-size guard (:func:`check_lyapunov_ios`; a zero-width input
box with zeta(0) = 0 leaves the unguarded inequality), pointwise functions
under a window-dominates-point guard (:func:`check_razumikhin`).  The falsifiers
never prove an inequality; they either exhibit a concrete violating sample or
report that none was found at the stated tolerance.  Also here: the
truncated-horizon converse energy :func:`converse_functional_uq`.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .compfn import ComparisonFn, _guard_level
from .history import HistorySegment, _build_windows, _draw_points, _segment, _slide, _slope, sup_norm
from .simulator import IntegrateOpts, RfdeSystem, _integrate_runs, output_norm

__all__ = [
    "LyapunovFunctional",
    "RazumikhinFunction",
    "DiniOpts",
    "dini_functional",
    "dini_pointwise",
    "SamplerSpec",
    "FalsificationReport",
    "check_lyapunov_ios",
    "check_razumikhin",
    "converse_functional_uq",
]


@dataclass(frozen=True)
class LyapunovFunctional:
    """Nonnegative window functional V(t, x_window).

    ``analytic_dini(t, window, v)``, when given, returns the exact forward
    Dini derivative for the window sliding ahead with terminal slope v and is
    used instead of the numeric ladder.  ``evaluator_many(t, grid, X)``, when
    given, evaluates at time t the windows that share ``grid`` and have the
    rows ``X[i]`` (X of shape (m, k, n)) in one call, and each rung of the
    numeric ladder makes one such call.  It must be row-wise and bitwise:
    entry i of its result is exactly ``evaluator(t, window)`` on the window
    with grid ``grid`` and rows ``X[i]``.
    """

    evaluator: Callable[[float, HistorySegment], float]
    analytic_dini: Callable | None = None
    name: str = "V"
    evaluator_many: Callable | None = None

    def __call__(self, t: float, seg: HistorySegment) -> float:
        return float(self.evaluator(t, seg))

    def stacked(self, t: float, grid: np.ndarray, X: np.ndarray) -> np.ndarray:
        """V at time t of each window ``(grid, X[i])``: one value per window,
        or ValueError.  ``grid`` runs from exactly -delay to exactly 0 and the
        rows are finite; without ``evaluator_many`` the windows are evaluated
        one at a time, in order."""
        if self.evaluator_many is None:
            delay = float(-grid[0])
            return np.array([float(self.evaluator(t, _segment(delay, grid, x))) for x in X])
        out = np.asarray(self.evaluator_many(t, grid, X), dtype=float)
        if out.shape != (len(X),):
            raise ValueError(
                f"evaluator_many must return one value per window, shape ({len(X)},); got {out.shape}"
            )
        return out


@dataclass(frozen=True)
class RazumikhinFunction:
    """Nonnegative pointwise function V(t, x) defined for t >= -r.

    ``evaluator_many(ts, X)``, when given, evaluates rows of X at paired
    times in one call and speeds up window-sup guards.  It must be row-wise:
    row i of its result depends only on ``(ts[i], X[i])``, because the
    falsifiers evaluate the rows of a whole block of windows in one call.
    """

    evaluator: Callable[[float, np.ndarray], float]
    analytic_dini: Callable | None = None
    evaluator_many: Callable | None = None
    name: str = "V"

    def __call__(self, t: float, x: np.ndarray) -> float:
        return float(self.evaluator(t, np.asarray(x, dtype=float)))

    def along(self, ts: np.ndarray, X: np.ndarray) -> np.ndarray:
        """V at each ``(ts[i], X[i])``: one value per row, or ValueError."""
        if self.evaluator_many is None:
            return np.array([float(self.evaluator(t, x)) for t, x in zip(ts, X)])
        out = np.asarray(self.evaluator_many(ts, X), dtype=float)
        if out.shape != (len(ts),):
            raise ValueError(
                f"evaluator_many must return one value per row, shape ({len(ts)},); got {out.shape}"
            )
        return out


LADDER_STEPS = (1e-2, 1e-3, 1e-4)
LADDER_PROBES = 8


@dataclass(frozen=True)
class DiniOpts:
    """Dini-derivative options: ``use_analytic`` prefers an attached analytic
    derivative to the numeric ladder (steps LADDER_STEPS = 1e-2, 1e-3, 1e-4;
    LADDER_PROBES = 8 sphere probes per step for window functionals)."""

    use_analytic: bool = True


@functools.lru_cache(maxsize=8)  # one entry per dimension
def _probe_directions(n: int) -> np.ndarray:
    rng = np.random.default_rng(20240901)
    dirs = rng.normal(size=(LADDER_PROBES, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs


def _steps_below(delay: float) -> tuple:
    """The ladder steps shorter than the window, which a slide can take."""
    hs = tuple(h for h in LADDER_STEPS if h < delay)
    if not hs:
        raise ValueError("every ladder step is at least the window length")
    return hs


def _extrapolate(hs, qs) -> float:
    """Limit of the quotient ladder at step 0, with a consistency gate.

    Quotients of regular functions approach the derivative linearly (plus
    higher order) in the step, so polynomial extrapolation through the last
    rungs removes the bias.  When successive differences do not shrink the
    way a smooth ladder would, extrapolation is untrusted and the raw
    smallest-step quotient is returned instead (a conservative estimate).
    """
    if len(qs) == 1:
        return float(qs[0])
    if len(qs) >= 3:
        h0, h1, h2 = hs[-3], hs[-2], hs[-1]
        q0, q1, q2 = qs[-3], qs[-2], qs[-1]
        d1 = q1 - q0
        d2 = q2 - q1
        expected = abs((h2 - h1) / (h1 - h0))
        if abs(d2) <= 3.0 * expected * abs(d1) + 1e-9 * (1.0 + abs(q2)):
            return float(
                q0 * h1 * h2 / ((h0 - h1) * (h0 - h2))
                + q1 * h0 * h2 / ((h1 - h0) * (h1 - h2))
                + q2 * h0 * h1 / ((h2 - h0) * (h2 - h1))
            )
        return float(q2)
    h1, h2 = hs[-2], hs[-1]
    q1, q2 = qs[-2], qs[-1]
    return float(q2 + (q2 - q1) * h2 / (h1 - h2))


def _uses_analytic(V, opts: DiniOpts | None) -> bool:
    """Whether the Dini derivative of ``V`` is its attached analytic term."""
    return V.analytic_dini is not None and (opts or DiniOpts()).use_analytic


def _analytic(dini: Callable, t: float, x, v) -> float:
    """An attached analytic derivative ``dini(t, x, v)``, which must be finite."""
    out = float(dini(t, x, np.asarray(v, dtype=float)))
    if not math.isfinite(out):
        raise ValueError("analytic derivative returned a non-finite value")
    return out


def _ladder(hs, base: float, rung: Callable) -> float:
    """The quotient ladder from the energy ``base`` now: at each step h in
    ``hs``, the largest of the energies ``rung(h)`` h ahead gives the quotient
    (max - base)/h, and :func:`_extrapolate` takes the quotients to step 0.
    An energy that is not finite raises ValueError."""
    if not math.isfinite(base):
        raise ValueError("energy evaluated to a non-finite value")
    qs = []
    for h in hs:
        arr = np.asarray(rung(h))
        if not np.isfinite(arr).all():
            raise ValueError("energy evaluated to a non-finite value")
        qs.append(float((arr.max() - base) / h))
    return _extrapolate(hs, qs)


def dini_functional(
    V: LyapunovFunctional,
    t: float,
    x: HistorySegment,
    v: np.ndarray,
    opts: DiniOpts | None = None,
) -> float:
    """Forward upper Dini derivative of a window functional.

    The window slides ahead by h with terminal slope v; at each of the
    LADDER_STEPS shorter than the window, the largest of the quotients
    [V(t+h, slid window + h*y) - V(t, x)]/h with y = 0 and LADDER_PROBES
    sphere probes of radius h is a rung of the ladder that
    :func:`_extrapolate` takes to step 0.  An analytic expression, when
    attached and allowed by ``opts``, wins.  A rung evaluates the slid window
    and its probe windows, each bitwise ``slid.add_constant((h*h)*dvec)``,
    as one (1 + LADDER_PROBES, k, n) stack through :meth:`LyapunovFunctional.stacked`.
    """
    if _uses_analytic(V, opts):
        return _analytic(V.analytic_dini, t, x, v)
    return _functional_ladder(V, t, x, v, float(V.evaluator(t, x)))


def _functional_ladder(V: LyapunovFunctional, t: float, x: HistorySegment, v, base: float) -> float:
    """:func:`dini_functional`'s numeric ladder from ``base``, the energy
    V(t, x) now, which a caller that has it hands over instead of evaluating
    it again."""
    v = _slope(x, v)
    dirs = _probe_directions(x.dim)

    def rung(h: float) -> np.ndarray:
        slid = _slide(x, v, h)  # _steps_below keeps 0 < h < x.delay
        stack = np.empty((1 + LADDER_PROBES, *slid.values.shape))
        stack[0] = slid.values
        # shifts of at most h^2 <= 1e-4 keep finite rows finite
        np.add(slid.values, (h * h) * dirs[:, None, :], out=stack[1:])
        return V.stacked(t + h, slid.grid, stack)

    return _ladder(_steps_below(x.delay), base, rung)


def dini_pointwise(
    Vr: RazumikhinFunction,
    t: float,
    x: np.ndarray,
    v: np.ndarray,
    opts: DiniOpts | None = None,
) -> float:
    """Forward upper Dini derivative of a pointwise function along v."""
    x = np.asarray(x, dtype=float)
    if _uses_analytic(Vr, opts):
        return _analytic(Vr.analytic_dini, t, x, v)
    return _pointwise_ladder(Vr, t, x, v, float(Vr.evaluator(t, x)))


def _pointwise_ladder(Vr: RazumikhinFunction, t: float, x: np.ndarray, v, base: float) -> float:
    """:func:`dini_pointwise`'s numeric ladder from ``base``, the value
    Vr(t, x) now, which a caller that has it hands over instead of
    evaluating it again."""
    v = np.asarray(v, dtype=float)
    return _ladder(LADDER_STEPS, base, lambda h: float(Vr.evaluator(t + h, x + h * v)))


# -- sampling ---------------------------------------------------------------------

# samples drawn together: the generator calls stay per knot, in the documented
# order, and the arithmetic on their values runs once per block, so the stream
# is a scalar draw's; the block's windows are alive at once, so the size
# trades set-up per sample against memory.  Drawing example-4.8's samples
# cost 18.3 us each in blocks of 64, 16.0 in blocks of 128 and 15.4 in blocks
# of 256 (CPU time, medians of 7 runs of 2,048 samples, 2-core x86 box), and
# blocks of 256 raised the peak RSS of perfbench's falsify-sweep by 1.2-1.5 MB
# over 128 (3 runs each).
FALSIFY_BLOCK = 128
# the most the draws sweeps keep on one seed, for later sweeps on the same
# samples, take together, in bytes of their point arrays: 2,000 samples of
# example-4.8 take about 0.35 MB
FALSIFY_KEEP_BYTES = 4 * 2**20


@dataclass(frozen=True)
class SamplerSpec:
    """Ensemble description for the falsifiers."""

    t_lo: float = 0.0
    t_hi: float = 5.0
    norm_bound: float = 2.0
    samples: int = 1000
    seed: int = 0


@dataclass
class FalsificationReport:
    verdict: str  # no_counterexample | counterexample | inconclusive
    samples_tested: int
    worst_residual: float
    witness: dict | None
    tolerance: float
    seed: int
    guard_skipped: int = 0
    eval_failures: int = 0
    first_failure: dict | None = None  # {"type", "message"} of the first swallowed error

    def __post_init__(self):
        if self.verdict == "counterexample":
            if self.witness is None or not (self.worst_residual > self.tolerance):
                raise ValueError("counterexample verdict requires a beyond-tolerance witness")

    def to_json_dict(self) -> dict:
        data = asdict(self)
        data["samples"] = data.pop("samples_tested")
        return data


def _witness_dict(t: float, seg: HistorySegment, u, d, residual: float) -> dict:
    return {
        "t": float(t),
        "history": seg.to_json_dict(),
        "u": None if u is None else [float(a) for a in np.atleast_1d(u)],
        "d": None if d is None else [float(a) for a in np.atleast_1d(d)],
        "residual": float(residual),
    }


def _require_tolerance(value, name: str = "tolerance") -> float:
    """``value`` as a float, which must be finite and >= 0 (ValueError
    otherwise): the rule for every tolerance a check is given."""
    tol = float(value)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return tol


def _default_tol(has_analytic: bool, tolerance: float | None) -> float:
    """A given ``tolerance`` (:func:`_require_tolerance`); else 1e-9 for an
    analytic derivative and 1e-6 for the numeric ladder."""
    if tolerance is None:
        return 1e-9 if has_analytic else 1e-6
    return _require_tolerance(tolerance)


def _guard_holds(level: float, energy: float) -> bool:
    """Whether the guard ``level <= energy`` holds; a NaN on either side
    is the sample's failure to evaluate (ValueError)."""
    if level <= energy:
        return True
    if level > energy:
        return False
    raise ValueError(f"guard compares NaN: level {level!r}, energy {energy!r}")


# None, or the draws sweeps finished on one seed, as (seed, {key: draw}) with
# the newest draw first, a draw being the list of its blocks' points: replaced
# whole, never changed in place, and at most FALSIFY_KEEP_BYTES of arrays in all
_kept = None


def _draw_key(sys: RfdeSystem, spec: SamplerSpec, boxes: tuple) -> tuple | None:
    """Everything a draw from ``spec.seed`` reads, exactly: each number with
    its type, a float by its bits (so 0.0 is not -0.0), and each box by its
    shape and bytes.  None, and the draw is not kept, when a number is
    neither an integer nor a float (a seed of None draws fresh entropy)."""
    key = []
    for value in (spec.t_lo, spec.t_hi, spec.norm_bound, spec.samples, spec.seed,
                  sys.delay_r, sys.dim_n, FALSIFY_BLOCK):
        if isinstance(value, float):
            key.append((type(value), float.hex(value)))
        elif isinstance(value, numbers.Integral):
            key.append((type(value), int(value)))
        else:
            return None
    return (*key, *[None if box is None else (box.shape, box.tobytes()) for box in boxes])


def _sample_blocks(sys: RfdeSystem, spec: SamplerSpec, draw_u: bool):
    """Yield the ``spec.samples`` samples of a generator seeded with
    ``spec.seed``, FALSIFY_BLOCK at a time, each block as (times, windows,
    us, ds), one entry per sample; ``zip(*block)`` gives its samples as (t,
    window, u, d).  This is the falsifiers' one draw.

    A block is one ``history._draw_points`` call and the windows
    ``history._build_windows`` builds from its points: its generator calls
    run sample by sample in the order t, window, u, d (one ``random`` per box
    row), and its arithmetic runs once per block, so every sample is the one
    that ``uniform``, ``sample_history`` and one ``uniform`` per box row give,
    drawing one sample at a time.  Without ``draw_u`` no input is drawn and
    each u is the system's zero input.

    The draw, the list of its blocks' points, is made whole before the first
    block is yielded, or read from a draw a sweep finished on this seed with
    the same :func:`_draw_key`.  A fresh draw drops the kept draws if they are
    on another seed or its key is None, and is filed once the sweep has
    consumed the last block, with the newest other draws of its seed, as far
    as all fit in FALSIFY_KEEP_BYTES.  Each block's box points are copies,
    so no sweep sees what a callback wrote into another's.
    """
    global _kept
    boxes = (sys.u_box if draw_u else None, sys.d_box)
    key, kept = _draw_key(sys, spec, boxes), _kept  # one read: another thread may replace it
    hit = kept is not None and key in kept[1]
    if hit:
        draw = kept[1][key]
    else:
        if kept is not None and (key is None or kept[0] != key[4]):  # key[4] is the seed's entry
            _kept = None
        rng, t_range = np.random.default_rng(spec.seed), (spec.t_lo, spec.t_hi)
        draw = [
            _draw_points(rng, min(FALSIFY_BLOCK, spec.samples - start), sys.delay_r, sys.dim_n,
                         spec.norm_bound, t_range, boxes)
            for start in range(0, spec.samples, FALSIFY_BLOCK)
        ]
    for times, offsets, rows, sizes, drawn in draw:
        windows = _build_windows(sys.delay_r, offsets, rows, sizes)
        us, ds = [points.copy() for points in drawn]
        if not draw_u:
            us = [sys.zero_input() for _ in windows]
        yield times.tolist(), windows, us, ds
    if hit or key is None:
        return
    old, draws, size = _kept, {}, 0  # one read: another thread may replace it
    others = old[1].items() if old is not None and old[0] == key[4] else ()
    for other, other_draw in ((key, draw), *others):
        size += sum(a.nbytes for *arrays, points in other_draw for a in (*arrays, *points))
        if size > FALSIFY_KEEP_BYTES:
            break
        draws.setdefault(other, other_draw)
    if draws:
        _kept = key[4], draws


# the errors a sweep counts as a sample's failure to evaluate
_EVAL_ERRORS = (ValueError, FloatingPointError, ZeroDivisionError, OverflowError)


def _falsify(
    sys: RfdeSystem,
    spec: SamplerSpec,
    tol: float,
    draw_u: bool,
    sample_fn: Callable,
    screen: Callable | None = None,
) -> FalsificationReport:
    """Shared sampling loop over the blocks of :func:`_sample_blocks`, drawn
    from ``spec.seed``; ``spec.samples`` must be a positive integer.  The
    draw is one value, made whole before the first sample; a sweep that
    finishes files it in-process, beside the other draws kept on its seed,
    for a later sweep on the same samples, which rebuilds its windows from
    it, so every report is that of a fresh draw.

    ``sample_fn(t, seg, u, d, mark)`` returns None for a sample its guard
    skips and (residual, derivative_scale) otherwise; a residual that is not
    a finite number is a failure to evaluate.  ``screen(times,
    windows)``, when given, runs once for each block, before its samples, and
    gives one ``mark`` per window (:func:`check_razumikhin` screens the
    block's window guards in one call); without it every mark is None.
    """
    samples = spec.samples
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) or samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    worst = -math.inf
    worst_wit = None
    found = False
    skipped = 0
    failures = 0
    first_failure = None
    tested = 0
    for times, windows, us, ds in _sample_blocks(sys, spec, draw_u):
        marks = [None] * len(times) if screen is None else screen(times, windows)
        for t, seg, u, d, mark in zip(times, windows, us, ds, marks):
            try:
                out = sample_fn(t, seg, u, d, mark)
                if out is not None and not math.isfinite(out[0]):
                    raise ValueError(f"residual evaluated to a non-finite value: {out[0]!r}")
            except _EVAL_ERRORS as err:
                failures += 1
                if first_failure is None:
                    first_failure = {"type": type(err).__name__, "message": str(err)}
                continue
            if out is None:
                skipped += 1
                continue
            residual, scale = out
            tested += 1
            if residual > worst:
                worst = residual
                worst_wit = (t, seg, u, d, residual)
            if residual > tol + tol * abs(scale):
                found = True
    if found:
        verdict = "counterexample"
    elif failures > max(1, samples // 10) or tested == 0:
        verdict = "inconclusive"
    else:
        verdict = "no_counterexample"
    # a residual beyond tolerance is above -inf, so found implies a witness
    return FalsificationReport(
        verdict=verdict,
        samples_tested=tested,
        worst_residual=worst if tested else 0.0,
        witness=_witness_dict(*worst_wit) if found else None,
        tolerance=tol,
        seed=spec.seed,
        guard_skipped=skipped,
        eval_failures=failures,
        first_failure=first_failure,
    )


def _window_tops(Vr: RazumikhinFunction, times, windows) -> list:
    """(largest value, all finite) of Vr(t + theta, x(theta)) over each
    window's grid, for windows at times ``times``, from one ``Vr.along`` call
    over all their rows.  With a row-wise ``evaluator_many``, each pair is
    bitwise what the window's own call ``Vr.along(t + seg.grid, seg.values)``
    gives."""
    sizes = [seg.grid.size for seg in windows]
    starts = np.cumsum(sizes) - sizes
    ts = np.repeat(times, sizes) + np.concatenate([seg.grid for seg in windows])
    vals = Vr.along(ts, np.concatenate([seg.values for seg in windows]))
    tops = np.maximum.reduceat(vals, starts).tolist()
    return list(zip(tops, np.logical_and.reduceat(np.isfinite(vals), starts).tolist()))


def check_lyapunov_ios(
    sys: RfdeSystem,
    V: LyapunovFunctional,
    zeta: ComparisonFn,
    delta: ComparisonFn,
    rho: ComparisonFn,
    spec: SamplerSpec,
    tolerance: float | None = None,
    dini_opts: DiniOpts | None = None,
) -> FalsificationReport:
    """Falsify the guarded decay: whenever zeta(delta(t)|u|) <= V(t, window),
    derivative(V) + rho(V) must be <= 0.  Guard-failing samples are skipped
    and counted; a guard that compares NaN fails to evaluate."""
    if sys.u_box is None:
        raise ValueError("system declares no input channel")
    analytic = _uses_analytic(V, dini_opts)
    tol = _default_tol(analytic, tolerance)

    def sample_fn(t, seg, u, d, _):
        val = float(V.evaluator(t, seg))
        if not _guard_holds(_guard_level(zeta, delta, t, u), val):
            return None
        v = np.asarray(sys.dynamics(t, seg, u, d), dtype=float)
        # the guard's energy is the ladder's base: V is evaluated once a sample
        dv = _analytic(V.analytic_dini, t, seg, v) if analytic else _functional_ladder(V, t, seg, v, val)
        return dv + float(rho(val)), dv

    return _falsify(sys, spec, tol, True, sample_fn)


def check_razumikhin(
    sys: RfdeSystem,
    Vr: RazumikhinFunction,
    a: ComparisonFn,
    rho,
    spec: SamplerSpec,
    zeta: ComparisonFn | None = None,
    delta: ComparisonFn | None = None,
    tolerance: float | None = None,
    dini_opts: DiniOpts | None = None,
) -> FalsificationReport:
    """Falsify the window-dominated decay condition for a pointwise function.

    Guard: a(sup over the window grid of Vr(t+theta, x(theta))) <= Vr(t, x(0)),
    and, when (zeta, delta) are given and the system has an input,
    zeta(delta(t)|u|) <= Vr(t, x(0)).  On guard-passing samples the residual
    derivative + rate(t, Vr(t, x(0))) must stay below tolerance.  ``rho`` is
    either a comparison function of V or a callable (t, V) for time-varying
    rates.  A guard that compares NaN fails to evaluate.

    The window values of a block's guards come from one ``Vr.along`` call
    over all of the block's window rows (so ``evaluator_many`` must be
    row-wise), and each window's largest value and finiteness are reduced
    from it.  Each sample evaluates Vr(t, x(0)) first, then reads them.  When
    the block call raises an error a sweep counts, each of the block's
    samples makes its own window's call instead, after its Vr(t, x(0)), so
    failures are counted, and the first reported, in sample order.
    """
    if (zeta is None) != (delta is None):
        raise ValueError("zeta and delta make one input guard: give both or neither")
    s_grid = np.logspace(-6, 3, 50)
    gains = np.array([float(a(s)) for s in s_grid])
    if not np.all(gains < s_grid):
        k = int(np.argmax(gains >= s_grid))
        raise ValueError(
            f"guard gain must satisfy a(s) < s; violated at s={s_grid[k]!r} with a(s)={gains[k]!r}"
        )
    if isinstance(rho, ComparisonFn):
        rate = lambda t, val: float(rho(val))
    else:
        rate = lambda t, val: float(rho(t, val))
    analytic = _uses_analytic(Vr, dini_opts)
    tol = _default_tol(analytic, tolerance)
    draw_u = sys.u_box is not None and zeta is not None

    def screen(times, windows):
        try:
            return _window_tops(Vr, times, windows)
        except _EVAL_ERRORS:
            return [None] * len(windows)  # each sample makes its own call, in turn

    def sample_fn(t, seg, u, d, screened):
        x0 = seg.values[-1]
        v0 = float(Vr.evaluator(t, x0))
        top, finite = screened if screened is not None else _window_tops(Vr, [t], [seg])[0]
        if not finite:
            raise ValueError("window evaluation produced non-finite values")
        if not _guard_holds(float(a(top)), v0):
            return None
        if draw_u and not _guard_holds(_guard_level(zeta, delta, t, u), v0):
            return None
        v = np.asarray(sys.dynamics(t, seg, u, d), dtype=float)
        # v0 is the ladder's base: Vr(t, x(0)) is evaluated once a sample
        dv = _analytic(Vr.analytic_dini, t, x0, v) if analytic else _pointwise_ladder(Vr, t, x0, v, v0)
        return dv + rate(t, v0), dv

    return _falsify(sys, spec, tol, draw_u, sample_fn, screen)


# -- truncated converse construction ----------------------------------------------

def converse_functional_uq(
    sys: RfdeSystem,
    q: int,
    a1: ComparisonFn,
    a2: ComparisonFn,
    beta: ComparisonFn,
    disturbance_ensemble,
    t: float,
    x: HistorySegment,
    opts: IntegrateOpts | None = None,
) -> float:
    """Truncated-horizon converse energy built from output excursions.

    Each ensemble disturbance is integrated from (t, x) over the horizon
    T = max{0, (1/2) log(1 + q * a2(beta(R) R))} with R = max{t, window sup};
    the value is the largest exp(tau - t)-weighted clamp
    max{0, a1(|output(tau)|) - 1/q} over ensemble and time grid.  The tau = t
    term makes the result exact-sandwich from below.  Ensemble trajectories
    must complete; blow-up raises, for the first member in ensemble order
    that stopped.  The members start from one window on one horizon, so the
    ones with the same switch times (all constant disturbances, say) advance
    in lock-step, each bitwise its solo run; every member is integrated
    before any output is read.  An empty ensemble is a ValueError before
    any run.
    """
    if isinstance(q, bool) or not isinstance(q, numbers.Integral) or q < 1:
        raise ValueError(f"q must be a positive integer, got {q!r}")
    runs = [(x, None, dsig) for dsig in disturbance_ensemble]
    if not runs:
        raise ValueError("empty ensemble")
    opts = opts or IntegrateOpts(step_req=1e-2)
    R = max(float(t), sup_norm(x))
    arg = 1.0 + q * float(a2(float(beta(R)) * R))
    horizon = max(0.0, 0.5 * math.log(arg))
    base_term = max(0.0, float(a1(output_norm(sys.output(t, x)))) - 1.0 / q)
    best = base_term
    if horizon > 0.0:
        for traj in _integrate_runs(sys, t, runs, t + horizon, opts):
            if traj.status != "completed":
                raise RuntimeError(
                    f"ensemble trajectory left the bounded regime at t={traj.t_event!r}; "
                    "the region is not robustly forward complete"
                )
            for tau, y in zip(traj.times.tolist(), traj.outputs):
                term = max(0.0, float(a1(output_norm(y))) - 1.0 / q) * math.exp(tau - t)
                if term > best:
                    best = term
    return float(best)
