"""Trajectory-level verification of decay envelopes and energy estimates.

Given simulated trajectories, these checks compare recorded output norms (or
energy values) against candidate envelopes: the input-to-output form, a decay
envelope seeded by the initial window size or a running weighted-gain term,
whichever is larger (without an input it is the pure decay check), and the
energy-level variant, whose input term fades along a rate flow.  All checks
are grid-pointwise with explicit slacks and report the worst offending
sample; they are falsifiers over the supplied trajectory set, not proofs.
Also here: the monotone-decay check of an energy series and an empirical
envelope fitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .compfn import ComparisonFn, KlFn, _guard_level, fading_sup
from .history import sup_norm
from .lyapunov import LyapunovFunctional, _require_tolerance
from .simulator import RfdeSystem, Trajectory, _trailing_window_max

__all__ = [
    "EnvelopeCheck",
    "verify_ios_envelope",
    "verify_v_decay_estimate",
    "check_monotone_decay",
    "fit_kl_envelope",
]


@dataclass
class EnvelopeCheck:
    """Result of an envelope comparison over a trajectory ensemble.

    ``slacks`` holds, per trajectory, the minimum of envelope minus observed
    value over the grid; the check passes exactly when every slack clears
    ``-tolerance``.  ``witness`` identifies the worst (trajectory index, time,
    observed, allowed).
    """

    verdict: str  # "pass" | "fail"
    slacks: list
    tolerance: float
    witness: tuple | None
    reasons: dict = field(default_factory=dict)  # trajectory index -> why its slack is infinite

    def __post_init__(self):
        ok = all(s >= -self.tolerance for s in self.slacks)
        if (self.verdict == "pass") != ok:
            raise ValueError("verdict inconsistent with slacks")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        """Strict JSON: a non-finite number is written as null, and
        ``nonfinite`` maps its key to the value and the reason."""
        nonfinite = {}

        def number(key, x, i):
            x = float(x)
            if math.isfinite(x):
                return x
            nonfinite[key] = f"{x}: {self.reasons.get(i, 'a compared value is not finite')}"
            return None

        wit = None
        if self.witness is not None:
            i = int(self.witness[0])
            wit = {
                "trajectory": i,
                "t": number("witness.t", self.witness[1], i),
                "observed": number("witness.observed", self.witness[2], i),
                "allowed": number("witness.allowed", self.witness[3], i),
            }
        return {
            "verdict": self.verdict,
            "slacks": [number(f"slacks[{i}]", s, i) for i, s in enumerate(self.slacks)],
            "tolerance": self.tolerance,
            "witness": wit,
            "nonfinite": nonfinite,
        }


def _envelope_check(trajs: Sequence[Trajectory], series: Callable, tolerance: float) -> EnvelopeCheck:
    """Compare observed values with allowed ones along every trajectory.

    ``series(traj)`` returns (times, observed, allowed) for a completed
    trajectory, at least one value each.  Its slack is the minimum of
    allowed minus observed (NaN when a compared value is NaN); a trajectory
    that did not complete gets -inf at its truncation point.  The worst
    sample is the witness, kept only when the check fails: a NaN slack ranks
    with -inf, and ties keep the first.  ``tolerance`` must be finite and
    >= 0 (ValueError before any series is read).
    """
    tolerance = _require_tolerance(tolerance)
    slacks = []
    reasons = {}
    witness = None
    worst = math.inf
    for i, traj in enumerate(trajs):
        if traj.status != "completed":
            slack = -math.inf
            reasons[i] = f"the run stopped ({traj.status}) at t = {traj.t_event!r}"
            sample = (i, traj.t_event or traj.t0, math.inf, 0.0)
        else:
            times, observed, allowed = series(traj)
            slack_arr = allowed - observed
            k = int(np.argmin(slack_arr))  # the first NaN, if there is one
            slack = float(slack_arr[k])
            sample = (i, float(times[k]), float(observed[k]), float(allowed[k]))
        slacks.append(slack)
        rank = -math.inf if math.isnan(slack) else slack
        if rank < worst:
            worst, witness = rank, sample
    passed = all(s >= -tolerance for s in slacks)
    return EnvelopeCheck(
        "pass" if passed else "fail", slacks, tolerance, None if passed else witness, reasons
    )


def _input_levels(traj: Trajectory, gain: ComparisonFn, weight: ComparisonFn) -> np.ndarray:
    """gain(weight(t)|u(t)|) at every node; zero without an input signal.

    The input is piecewise constant and every switch inside the horizon is a
    grid node, so the nodes see every level the input takes.
    """
    if traj.u is None:
        return np.zeros(traj.times.size)
    return np.array([_guard_level(gain, weight, t, traj.u.eval(t)) for t in traj.times])


def verify_ios_envelope(
    trajs: Sequence[Trajectory],
    sigma: KlFn,
    beta: ComparisonFn,
    gamma: ComparisonFn,
    delta: ComparisonFn,
    tolerance: float = 1e-9,
) -> EnvelopeCheck:
    """Check output norms against max{sigma(beta(t0) * initial window norm,
    elapsed), running max of gamma(delta(t)|u(t)|)} at every grid time.

    Without an input (``u`` None) the gain term is zero, so this is the
    output-decay (RGAOS) check with allowed series max{sigma, 0}.  That is
    sigma itself wherever sigma is >= 0 (as every KL function is) or NaN;
    only an envelope that goes negative, and so is no KL function, is
    raised to 0.
    A trajectory that did not complete fails with its truncation point as
    witness.
    """

    def series(traj):
        s0 = float(beta(traj.t0)) * sup_norm(traj.initial)
        env = sigma.eval_t_array(s0, traj.times - traj.t0)
        gain = np.maximum.accumulate(_input_levels(traj, gamma, delta))
        return traj.times, traj.output_norms(), np.maximum(env, gain)

    return _envelope_check(trajs, series, tolerance)


def verify_v_decay_estimate(
    sys: RfdeSystem,
    V: LyapunovFunctional,
    a: ComparisonFn,
    beta: ComparisonFn,
    zeta: ComparisonFn | None,
    delta: ComparisonFn | None,
    sigma: KlFn,
    trajs: Sequence[Trajectory],
    tolerance: float = 1e-9,
) -> EnvelopeCheck:
    """Check the energy estimate along solutions.

    V(t, window) must stay below max{sigma(a(beta(t0) * initial norm),
    elapsed), sup over input times tau of sigma(zeta(delta(tau)|u(tau)|),
    t - tau)}.  Only the input term needs ``sigma`` to come from
    ``kl_from_rate``: it reads the running sup through :func:`fading_sup`,
    which uses the flow's semigroup property.  Without inputs (or without
    ``zeta`` and ``delta``) any :class:`KlFn` works, such as
    ``energy-bounded-by-initial``'s ``hold``, sigma(s, t) = s.
    """

    def series(traj):
        s0 = float(a(float(beta(traj.t0)) * sup_norm(traj.initial)))
        env = sigma.eval_t_array(s0, traj.times - traj.t0)
        if traj.u is not None and zeta is not None and delta is not None:
            env = np.maximum(env, fading_sup(sigma, _input_levels(traj, zeta, delta), traj.times))
        node_window = traj._dense.node_window  # history(t) at node k, from its stored tail
        vals = np.array([float(V.evaluator(t, node_window(k))) for k, t in enumerate(traj.times)])
        return traj.times, vals, env

    return _envelope_check(trajs, series, tolerance)


def check_monotone_decay(
    trajs: Sequence[Trajectory],
    values_fn: Callable,
    rel_slack: float = 1e-6,
    window_delay: float | None = None,
) -> EnvelopeCheck:
    """Check that a scalar reading never increases along each trajectory.

    ``values_fn(times, states)`` maps the node times and the state rows to a
    scalar series, one value per time (ValueError otherwise).  With
    ``window_delay`` set, each node's reading is replaced by the maximum of
    the series over the trailing window of that width (the initial segment's
    nodes are included so early windows are complete) before the
    monotonicity test.  A step from w0 to w1 violates when
    ``w1 > w0 + rel_slack * (1 + |w0|)``; per-trajectory slacks record the
    worst margin and the report's witness is the worst offending node.
    ``rel_slack`` must be finite and >= 0, ``window_delay`` >= 0 (0 reads each
    node alone, inf takes the running max); ValueError otherwise.
    """
    rel_slack = _require_tolerance(rel_slack, "rel_slack")
    if window_delay is not None and not window_delay >= 0.0:
        raise ValueError(f"window_delay must be >= 0, got {window_delay!r}")

    def readings(ts, states):
        w = np.asarray(values_fn(ts, states), dtype=float)
        if w.shape != ts.shape:
            raise ValueError(f"values_fn must return one value per time, shape {ts.shape}; got {w.shape}")
        return w

    def series(traj):
        if window_delay is None:
            w = readings(traj.times, traj.states)
        else:
            pre_t = traj.t0 + traj.initial.grid[:-1]
            ts = np.concatenate([pre_t, traj.times])
            states = np.vstack([traj.initial.values[:-1], traj.states])
            w = _trailing_window_max(ts, readings(ts, states), window_delay)[pre_t.size:]
        return traj.times[1:], w[1:], w[:-1] + rel_slack * (1.0 + np.abs(w[:-1]))

    return _envelope_check(trajs, series, 0.0)


# -- empirical envelope fitting ------------------------------------------------------

def fit_kl_envelope(
    trajs: Sequence[Trajectory],
    beta: ComparisonFn,
    bins: int = 8,
    inflate: float = 1.05,
) -> KlFn:
    """Fit a tabulated two-argument decay envelope from an ensemble.

    Completed trajectories are labeled s = beta(t0) * initial window norm and
    grouped into min(bins, their number) quantile bins by s; per bin the
    nonincreasing majorant (suffix max) of the observed output norm over
    elapsed time is tabulated on the union of member grids; bins are then
    swept so the table is nondecreasing in s, and the whole table is inflated
    by 5%.  Queries step up to the nearest bin edge in s (with a linear pinch
    to zero below the lowest edge, so the value vanishes at s = 0) and
    interpolate linearly in elapsed time, clamping beyond the data.
    """
    trajs = [tr for tr in trajs if tr.status == "completed"]
    if not trajs:
        raise ValueError("empty ensemble")
    labels = np.array([float(beta(tr.t0)) * sup_norm(tr.initial) for tr in trajs])
    order = np.argsort(labels)
    bins = max(1, min(bins, len(trajs)))
    groups = np.array_split(order, bins)
    edges = []
    tables = []
    for g in groups:
        edges.append(float(labels[g].max()))
        grid = np.unique(np.concatenate([trajs[i].times - trajs[i].t0 for i in g]))
        acc = np.zeros(grid.size)
        for i in g:
            tr = trajs[i]
            vals = tr.output_norms()
            suffix = np.maximum.accumulate(vals[::-1])[::-1]
            elapsed = tr.times - tr.t0
            interp = np.interp(grid, elapsed, suffix)
            # exact at the member's own grid points; linear between
            acc = np.maximum(acc, interp)
        tables.append((grid, acc))
    # enforce: nondecreasing in s across bins (cumulative max on a merged grid)
    t_grid = np.unique(np.concatenate([g for g, _ in tables]))
    table = np.maximum.accumulate(np.vstack([np.interp(t_grid, g, a) for g, a in tables]), axis=0) * inflate
    edges_arr = np.asarray(edges)

    def evaluate(s: float, t: float) -> float:
        s = float(s)
        t = float(t)
        if s <= 0.0:
            return 0.0
        j = int(np.searchsorted(edges_arr, s, side="left"))
        scale = 1.0
        if j >= edges_arr.size:
            j = edges_arr.size - 1
            scale = s / edges_arr[-1]  # extrapolate radially above the data
        val = float(np.interp(t, t_grid, table[j]))
        if j == 0 and s < edges_arr[0]:
            val *= s / edges_arr[0]  # pinch to zero at s = 0
        return float(val * scale)

    return KlFn(fn=evaluate, name="fitted-envelope")
