"""Built-in benchmark systems bundled with runnable stability certificates.

Each bundle packages a delay system together with the energy functions that
certify its behaviour and a list of executable certificates: falsification
sweeps, trajectory-envelope checks, and scripted demonstrations whose
expected verdicts are part of the regression contract.  The three bundles
exercise complementary parts of the toolkit:

* ``example-4.8`` — a two-state cascade with a delayed multiplicative input
  channel.  A quartic window functional decays under an exponentially
  weighted input guard; removing the weight breaks the guard, and constant
  unit signals drive the output unbounded.
* ``example-5.2`` — a linear time-varying loop with a distributed
  (integrated) delay term, closed by a stabilizing state feedback.  A
  pointwise quadratic energy satisfies a window-dominated decay condition
  and its window supremum is non-increasing along solutions.
* ``example-5.4`` — a scalar saturating system with delayed gain and a
  dead-zone output.  A threshold energy satisfies the window-dominated decay
  under an input-level guard, and the output obeys a power-law input gain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .compfn import (
    KlFn,
    _require_positive,
    constant,
    exp_weight,
    linear,
    power,
)
from .history import HistorySegment, _trapezoid, sample_history
from .lyapunov import (
    LyapunovFunctional,
    RazumikhinFunction,
    SamplerSpec,
    check_lyapunov_ios,
    check_razumikhin,
)
from .signals import _draw_signal, constant_signal
from .simulator import IntegrateOpts, RfdeSystem, integrate
from .verify import (
    check_monotone_decay,
    fit_kl_envelope,
    verify_ios_envelope,
    verify_v_decay_estimate,
)

__all__ = [
    "Certificate",
    "ExampleBundle",
    "DemoReport",
    "example_4_8",
    "example_5_2",
    "example_5_4",
    "REGISTRY",
    "build_example",
]


@dataclass
class DemoReport:
    """Outcome of a scripted demonstration run."""

    verdict: str
    details: dict

    def to_json_dict(self) -> dict:
        return {"verdict": self.verdict, **self.details}


@dataclass(frozen=True)
class Certificate:
    """One runnable claim about a bundled system.

    ``checker`` names the library operation the runner delegates to;
    ``expected`` is the verdict the regression suite pins down.  ``runner``
    takes the keywords seed, samples, tolerance, step and horizon, each with
    its default in the runner's own signature: None for a keyword the runner
    does not read, and for a falsification sweep's tolerance, which the
    checker then sets.  It returns a report object exposing ``verdict`` and
    ``to_json_dict``.
    """

    checker: str
    name: str
    expected: str
    description: str
    runner: Callable


@dataclass(frozen=True)
class ExampleBundle:
    """A registered system plus its certificates and energy functions."""

    name: str
    system: RfdeSystem
    certificates: tuple
    notes: str
    params: dict
    functional: LyapunovFunctional | None = None
    pointwise: RazumikhinFunction | None = None

    def certificate(self, name: str) -> Certificate:
        for cert in self.certificates:
            if cert.name == name:
                return cert
        raise KeyError(f"no certificate named {name!r} in bundle {self.name!r}")


def _sweep(norm_bound: float, check: Callable) -> Callable:
    """Runner of a falsification certificate: ``check(spec, tolerance=...)``
    on ``samples`` draws of ``seed`` with t in [0, horizon] and windows of
    norm at most ``norm_bound``."""

    def run(seed=0, samples=2000, tolerance=None, step=None, horizon=5.0):
        spec = SamplerSpec(0.0, horizon, norm_bound, samples, seed)
        return check(spec, tolerance=tolerance)

    return run


def _disturbed_runs(sys: RfdeSystem, rng, count: int, norm_bound: float, horizon: float,
                    mean_dwell: float, opts: IntegrateOpts) -> list:
    """``count`` runs from t = 0 with no input, each under a random disturbance.

    Each run draws its initial window (norm at most ``norm_bound``) and then
    its disturbance signal from ``rng``, in that order.
    """
    runs = []
    for _ in range(count):
        x0 = sample_history(rng, sys.delay_r, sys.dim_n, norm_bound)
        d_sig = _draw_signal(rng, sys.d_box, horizon, mean_dwell)
        runs.append(integrate(sys, 0.0, x0, None, d_sig, horizon, opts))
    return runs


# ---------------------------------------------------------------------------
# example-4.8: cascade with delayed multiplicative input
# ---------------------------------------------------------------------------

def example_4_8(r: float = 0.5, u_max: float = 1.0) -> ExampleBundle:
    """Two-state cascade: the disturbance scales the first state's growth and
    the input multiplies its delayed value into a stable second state.

    The certified energy combines quartic and quadratic point terms with a
    window integral of the fourth power; its decay holds whenever the
    exponentially weighted input guard does.  The input axis is sampled in
    the box [-u_max, u_max].
    """
    _require_positive(r=r, u_max=u_max)

    def dynamics(t, seg, u, d):
        x1, x2 = seg.head
        return np.array([d[0] * x1, -x2 + seg.delayed[0] * u[0]])

    def output(t, seg):
        return seg.head[1:2]

    sys = RfdeSystem(
        delay_r=r,
        dim_n=2,
        dynamics=dynamics,
        output=output,
        d_box=np.array([[-1.0, 1.0]]),
        u_box=np.array([[-u_max, u_max]]),
        name="example-4.8",
    )

    def v_terms(t, seg):
        """x1(0), x2(0), e^{-8t}, e^{-4t} and the window integral of x1^4."""
        x1 = seg.values[:, 0]
        integral = float(_trapezoid(x1 ** 4, seg.grid))
        return x1[-1], seg.values[-1, 1], math.exp(-8.0 * t), math.exp(-4.0 * t), integral

    def v_eval(t, seg):
        x10, x20, e8, e4, integral = v_terms(t, seg)
        return e8 * x10 ** 4 + e4 * x10 ** 2 + 0.5 * x20 ** 2 + 0.25 * e8 * integral

    def v_dini(t, seg, v):
        x10, x20, e8, e4, integral = v_terms(t, seg)
        x1_back = seg.values[0, 0]
        return (
            -8.0 * e8 * x10 ** 4
            - 4.0 * e4 * x10 ** 2
            - 2.0 * e8 * integral
            + (4.0 * e8 * x10 ** 3 + 2.0 * e4 * x10) * v[0]
            + x20 * v[1]
            + 0.25 * e8 * (x10 ** 4 - x1_back ** 4)
        )

    V = LyapunovFunctional(
        evaluator=v_eval,
        analytic_dini=v_dini,
        name="quartic-window-energy",
    )

    zeta = power(4.0, 0.5)        # s -> s^4 / 2
    rho = linear(0.5)

    def guarded_sweep(delta):
        """Runner of the guarded decay sweep with input-guard weight ``delta``."""
        return _sweep(2.0, functools.partial(check_lyapunov_ios, sys, V, zeta, delta, rho))

    def run_divergence(seed=None, samples=None, tolerance=None, step=1e-3, horizon=10.0 + r):
        threshold = 1e3
        x0 = HistorySegment.constant(r, np.array([1.0, 0.0]))
        u_sig = constant_signal(np.array([1.0]), box=sys.u_box)
        d_sig = constant_signal(np.array([1.0]), box=sys.d_box)
        traj = integrate(sys, 0.0, x0, u_sig, d_sig, horizon, IntegrateOpts(step_req=step))
        norms = traj.output_norms()
        hits = np.nonzero(norms > threshold)[0]
        details = {"threshold": threshold, "horizon": horizon, "status": traj.status}
        if hits.size:
            crossing = float(traj.times[hits[0]])
            return DemoReport("witness_found", dict(details, crossing_time=crossing))
        return DemoReport("no_witness", dict(details, max_output=float(norms.max())))

    certificates = (
        Certificate(
            checker="check_lyapunov_ios",
            name="weighted-input-decay",
            expected="no_counterexample",
            description=(
                "energy derivative + energy/2 stays nonpositive whenever "
                "(e^{2t}|u|)^4/2 <= energy"
            ),
            runner=guarded_sweep(exp_weight(2.0)),
        ),
        Certificate(
            checker="check_lyapunov_ios",
            name="unweighted-guard-fails",
            expected="counterexample",
            description=(
                "with the time weight removed from the input guard the decay "
                "inequality is violated at large t"
            ),
            runner=guarded_sweep(constant(1.0)),
        ),
        Certificate(
            checker="integrate",
            name="bounded-input-divergence",
            expected="witness_found",
            description=(
                "constant unit input and disturbance push the output past "
                "1000 before t = 10 + r"
            ),
            runner=run_divergence,
        ),
    )

    notes = (
        "Cascade of a disturbance-scaled growth state feeding a stable "
        "filter through a delayed product with the input.  The weighted "
        "input guard certifies decay of the quartic window energy; the "
        "unweighted guard demonstrably fails, and bounded constant signals "
        "produce an unbounded output."
    )
    return ExampleBundle(
        name="example-4.8",
        system=sys,
        certificates=certificates,
        notes=notes,
        params={"r": r, "u_max": u_max},
        functional=V,
    )


# ---------------------------------------------------------------------------
# example-5.2: distributed-delay loop under stabilizing feedback
# ---------------------------------------------------------------------------

def example_5_2(r: float = 0.5, eps: float = 1.0, L: float | None = None) -> ExampleBundle:
    """Linear time-varying loop with a distributed delay, closed by feedback.

    The open loop integrates the first state over the trailing window with
    an exponentially growing gain; the constructed feedback dominates that
    growth whenever the delay satisfies the stated margin.  The pointwise
    quadratic energy then decays at an exponential rate under the usual
    window-domination guard, and its window supremum never increases along
    solutions.
    """
    _require_positive(r=r, eps=eps, L=L)
    bound = 3.0 * math.sqrt(2.0) / 2.0
    K = r * math.exp(r)
    if not (K < bound):
        raise ValueError(
            "delay margin requires 3*sqrt(2)/2 > r*exp(r): "
            f"{bound:.5f} > {K:.5f} fails for r = {r!r}"
        )
    c = 49.5 - (33.0 / math.sqrt(2.0) + (math.sqrt(33.0) + 4.0 * math.sqrt(2.0)) / (2.0 * eps)) * K
    if c <= 0:
        raise ValueError(
            "decay margin must be positive: 99/2 = 49.50000 vs subtracted term "
            f"{49.5 - c:.5f} (eps = {eps!r}, r = {r!r})"
        )
    L_min = (8.0 / math.sqrt(33.0) + eps * (math.sqrt(33.0) + 4.0 * math.sqrt(2.0)) / 2.0) * K + c
    if L is None:
        L = L_min + 1.0
    elif L < L_min:
        raise ValueError(
            f"feedback gain too small: L = {L:.5f} is below the minimum admissible {L_min:.5f}"
        )
    L_val = float(L)

    def dynamics(t, seg, u, d):
        x1, x2 = seg.head.tolist()
        et = math.exp(t)
        window_integral = seg.integral().item(0)
        z2 = x2 + 4.0 * et * x1
        feedback = -4.0 * et * x1 - 16.5 * et * et * x1 - 4.0 * et * x2 - L_val * et * z2
        return np.array([d[0] * et * window_integral + x2, feedback])

    sys = RfdeSystem(
        delay_r=r,
        dim_n=2,
        dynamics=dynamics,
        output=lambda t, seg: seg,
        d_box=np.array([[-1.0, 1.0]]),
        u_box=None,
        name="example-5.2",
    )

    def vr_eval(t, x):
        et = math.exp(t)
        z2 = x[1] + 4.0 * et * x[0]
        return 8.25 * et * et * x[0] * x[0] + 0.5 * z2 * z2

    def vr_many(ts, X):
        et = np.exp(np.asarray(ts, dtype=float))
        z2 = X[:, 1] + 4.0 * et * X[:, 0]
        return 8.25 * et * et * X[:, 0] ** 2 + 0.5 * z2 ** 2

    def vr_dini(t, x, v):
        et = math.exp(t)
        z2 = x[1] + 4.0 * et * x[0]
        return (
            16.5 * et * et * x[0] * x[0]
            + 4.0 * et * x[0] * z2
            + (16.5 * et * et * x[0] + 4.0 * et * z2) * v[0]
            + z2 * v[1]
        )

    Vr = RazumikhinFunction(
        evaluator=vr_eval,
        analytic_dini=vr_dini,
        evaluator_many=vr_many,
        name="weighted-quadratic-energy",
    )

    rate_coeff = 4.0 * c / 33.0

    def decay_rate(t, value):
        return rate_coeff * math.exp(t) * value

    guarded_decay = functools.partial(check_razumikhin, sys, Vr, linear(0.5), decay_rate)

    V_window = LyapunovFunctional(
        evaluator=lambda t, seg: vr_eval(t, seg.head),
        name="weighted-quadratic-energy-at-head",
    )

    # the two trajectory certificates read the same ensemble, one after the other
    @functools.lru_cache(maxsize=1)
    def _ensemble(seed: int, step: float, horizon: float, count: int):
        rng = np.random.default_rng(seed)
        return _disturbed_runs(sys, rng, count, 1.0, horizon, 0.4, IntegrateOpts(step_req=step))

    hold = KlFn(fn=lambda s, t: float(s), name="hold")

    def run_bounded(seed=0, samples=20, tolerance=1e-4, step=2e-4, horizon=1.4):
        trajs = _ensemble(seed, step, horizon, samples)
        return verify_v_decay_estimate(
            sys,
            V_window,
            power(2.0, 30.0),
            exp_weight(1.0),
            None,
            None,
            hold,
            trajs,
            tolerance=tolerance,
        )

    def run_window_monotone(seed=0, samples=20, tolerance=1e-6, step=2e-4, horizon=1.4):
        trajs = _ensemble(seed, step, horizon, samples)
        return check_monotone_decay(trajs, vr_many, rel_slack=tolerance, window_delay=r)

    certificates = (
        Certificate(
            checker="check_razumikhin",
            name="guarded-exponential-decay",
            expected="no_counterexample",
            description=(
                "energy derivative + (4c/33)e^t * energy stays nonpositive "
                "whenever half the window supremum of the energy is below its "
                "current value"
            ),
            runner=_sweep(2.0, guarded_decay),
        ),
        Certificate(
            checker="verify_v_decay_estimate",
            name="energy-bounded-by-initial",
            expected="pass",
            description=(
                "along sampled closed-loop solutions the energy never exceeds "
                "30 * (e^{t0} * initial window norm)^2"
            ),
            runner=run_bounded,
        ),
        Certificate(
            checker="check_monotone_decay",
            name="window-sup-monotone",
            expected="pass",
            description=(
                "the trailing-window supremum of the energy is non-increasing "
                "along sampled closed-loop solutions"
            ),
            runner=run_window_monotone,
        ),
    )

    notes = (
        "Distributed-delay loop with exponentially growing gain, stabilized "
        "by a time-varying state feedback.  Accepted only when the delay "
        f"margin holds ({K:.5f} < {bound:.5f}); decay margin c = {c:.5f}, "
        f"feedback gain L = {L_val:.5f} (minimum admissible {L_min:.5f}).  "
        "The quadratic energy decays exponentially under the window guard; "
        "its window supremum is non-increasing along solutions, which also "
        "bounds the energy by its initial window level."
    )
    return ExampleBundle(
        name="example-5.2",
        system=sys,
        certificates=certificates,
        notes=notes,
        params={"r": r, "eps": eps, "L": L_val, "c": c, "L_min": L_min},
        pointwise=Vr,
    )


# ---------------------------------------------------------------------------
# example-5.4: saturating scalar system with dead-zone output
# ---------------------------------------------------------------------------

def example_5_4(R: float = 1.0, r: float = 1.0, u_max: float = 1.0) -> ExampleBundle:
    """Scalar system with delayed gain, cubic saturation, and additive input.

    The output is the window of a dead-zone map that vanishes inside the band
    |x| <= 2*sqrt(R).  A threshold energy (squared distance past the band,
    clamped at zero) satisfies the window-dominated decay under a power-law
    input guard, giving a two-thirds-power input-to-output gain.
    """
    _require_positive(R=R, r=r, u_max=u_max)

    band = 2.0 * math.sqrt(R)

    def dead_zone(values):
        return np.sign(values) * np.maximum(np.abs(values) - band, 0.0)

    def dynamics(t, seg, u, d):
        x0 = seg.head[0]
        return np.array([d[0] * seg.delayed[0] - x0 ** 3 + u[0]])

    def output(t, seg):
        return HistorySegment(seg.delay, seg.grid, dead_zone(seg.values))

    sys = RfdeSystem(
        delay_r=r,
        dim_n=1,
        dynamics=dynamics,
        output=output,
        d_box=np.array([[-R, R]]),
        u_box=np.array([[-u_max, u_max]]),
        name="example-5.4",
    )

    four_R = 4.0 * R

    def vr_eval(t, x):
        return max(0.0, x[0] * x[0] - four_R)

    def vr_many(ts, X):
        return np.maximum(0.0, X[:, 0] ** 2 - four_R)

    def vr_dini(t, x, v):
        gap = x[0] * x[0] - four_R
        rate = 2.0 * x[0] * v[0]
        if gap > 0.0:
            return rate
        if gap < 0.0:
            return 0.0
        return max(0.0, rate)

    Vr = RazumikhinFunction(
        evaluator=vr_eval,
        analytic_dini=vr_dini,
        evaluator_many=vr_many,
        name="band-excess-energy",
    )

    zeta = power(4.0 / 3.0, 1.5 / R)
    gamma = power(2.0 / 3.0, math.sqrt(1.5 / R))
    one = constant(1.0)

    band_decay = functools.partial(
        check_razumikhin, sys, Vr, linear(0.25), linear(2.0 * R), zeta=zeta, delta=one
    )

    def run_gain_envelope(seed=0, samples=24, tolerance=1e-9, step=4e-3, horizon=9.0):
        opts = IntegrateOpts(step_req=step)
        rng = np.random.default_rng(seed)
        fit_trajs = _disturbed_runs(sys, rng, samples, 3.0, horizon, 0.5, opts)
        sigma = fit_kl_envelope(fit_trajs, one, bins=4)
        test_trajs = []
        for k in range(max(6, samples // 2)):
            x0 = sample_history(rng, r, 1, 2.8)
            u_sig = None
            if k % 3 != 0:
                u_sig = _draw_signal(rng, sys.u_box, horizon, 1.0)
            d_sig = _draw_signal(rng, sys.d_box, horizon, 0.5)
            test_trajs.append(integrate(sys, 0.0, x0, u_sig, d_sig, horizon, opts))
        return verify_ios_envelope(test_trajs, sigma, one, gamma, one, tolerance=tolerance)

    def run_constant_gain(seed=0, samples=None, tolerance=0.05, step=2e-3, horizon=14.0):
        opts = IntegrateOpts(step_req=step)
        rng = np.random.default_rng(seed)
        cases = []
        ok = True
        for level in (0.2, 0.5, 1.0):
            allowed = (1.0 + tolerance) * float(gamma(level))
            tail_sup = 0.0
            d_choices = [
                constant_signal(np.array([R]), box=sys.d_box),
                constant_signal(np.array([-R]), box=sys.d_box),
                _draw_signal(rng, sys.d_box, horizon, 0.7),
            ]
            for d_sig in d_choices:
                x0 = sample_history(rng, r, 1, 2.5)
                traj = integrate(
                    sys, 0.0, x0, constant_signal(np.array([level]), box=sys.u_box),
                    d_sig, horizon, opts,
                )
                norms = traj.output_norms()
                tail = norms[traj.times >= horizon - 4.0]
                tail_sup = max(tail_sup, float(tail.max()))
            cases.append({"input_level": level, "tail_sup": tail_sup, "allowed": allowed})
            ok = ok and tail_sup <= allowed
        return DemoReport("pass" if ok else "fail", {"cases": cases})

    certificates = (
        Certificate(
            checker="check_razumikhin",
            name="band-energy-decay",
            expected="no_counterexample",
            description=(
                "energy derivative + 2R * energy stays nonpositive whenever a "
                "quarter of the window supremum and the input level guard are "
                "below the current energy"
            ),
            runner=_sweep(4.0, band_decay),
        ),
        Certificate(
            checker="verify_ios_envelope",
            name="fitted-envelope-with-gain",
            expected="pass",
            description=(
                "outputs stay below the maximum of a fitted decay envelope and "
                "the running two-thirds-power input gain"
            ),
            runner=run_gain_envelope,
        ),
        Certificate(
            checker="integrate",
            name="constant-input-gain",
            expected="pass",
            description=(
                "for constant inputs the late-time output norm stays within "
                "5% of the two-thirds-power gain level"
            ),
            runner=run_constant_gain,
        ),
    )

    notes = (
        "Scalar saturating system whose delayed gain is bounded by the "
        "disturbance box and whose output ignores the band |x| <= "
        f"{band:.5f}.  The band-excess energy decays at rate 2R under the "
        "window and input guards; outputs obey a two-thirds-power gain in "
        "the input level."
    )
    return ExampleBundle(
        name="example-5.4",
        system=sys,
        certificates=certificates,
        notes=notes,
        params={"R": R, "r": r, "u_max": u_max},
        pointwise=Vr,
    )


REGISTRY: dict = {
    "example-4.8": example_4_8,
    "example-5.2": example_5_2,
    "example-5.4": example_5_4,
}


def build_example(name: str, params: Mapping | None = None) -> ExampleBundle:
    """Construct a registered bundle from its name and a parameter mapping."""
    if name not in REGISTRY:
        raise ValueError(f"unknown example {name!r}; known names: {sorted(REGISTRY)}")
    return REGISTRY[name](**dict(params or {}))
