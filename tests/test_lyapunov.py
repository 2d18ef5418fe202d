"""Dini derivatives, the sup-norm Lipschitz bound, falsifiers, and the converse energy."""

import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfdestab import (
    ComparisonFn,
    DiniOpts,
    HistorySegment,
    IntegrateOpts,
    LyapunovFunctional,
    RazumikhinFunction,
    RfdeSystem,
    SamplerSpec,
    build_example,
    check_lyapunov_ios,
    check_razumikhin,
    clip_to_ball,
    constant,
    constant_signal,
    converse_functional_uq,
    dini_functional,
    dini_pointwise,
    exp_weight,
    extend,
    history_distance,
    identity,
    integrate,
    linear,
    output_norm,
    power,
    sample_history,
    sup_norm,
)
from rfdestab import lyapunov
from rfdestab.history import _draw_points
from rfdestab.lyapunov import FALSIFY_BLOCK, LADDER_STEPS, _extrapolate

ZERO_D = np.array([[0.0, 0.0]])

CONTRACTION = RfdeSystem(
    delay_r=1.0,
    dim_n=1,
    dynamics=lambda t, seg, u, d: -seg.values[-1],
    output=lambda t, seg: seg.values[-1],
    d_box=ZERO_D,
)

V_SQUARE = LyapunovFunctional(evaluator=lambda t, seg: float(seg.values[-1, 0] ** 2))
NUMERIC = DiniOpts(use_analytic=False)


class TestDiniFunctional:
    def test_square_moves_along_slope(self):
        # [ (c + h w)^2 - c^2 ] / h -> 2 c w
        for c, w in [(1.0, 1.0), (0.7, -2.0), (-1.3, 0.4)]:
            seg = HistorySegment.constant(1.0, [c])
            est = dini_functional(V_SQUARE, 0.0, seg, np.array([w]))
            assert est == pytest.approx(2 * c * w, abs=1e-6)

    def test_constant_functional_zero(self):
        V = LyapunovFunctional(evaluator=lambda t, seg: 42.0)
        seg = HistorySegment.constant(1.0, [3.0])
        assert dini_functional(V, 0.0, seg, np.array([5.0])) == pytest.approx(0.0, abs=1e-9)

    def test_kinked_sup_norm_upper_derivative(self):
        # V = sup-norm of the window, x constant c > 0, positive slope v:
        # the kink sits at theta = 0 and the upper derivative is v
        V = LyapunovFunctional(evaluator=lambda t, seg: sup_norm(seg))
        seg = HistorySegment.constant(1.0, [2.0])
        est = dini_functional(V, 0.0, seg, np.array([1.0]))
        assert est == pytest.approx(1.0, abs=1e-5)

    def test_analytic_short_circuit(self):
        V = LyapunovFunctional(
            evaluator=lambda t, seg: float(seg.values[-1, 0] ** 2),
            analytic_dini=lambda t, seg, v: 123.0,
        )
        seg = HistorySegment.constant(1.0, [1.0])
        assert dini_functional(V, 0.0, seg, np.zeros(1)) == 123.0
        numeric = dini_functional(V, 0.0, seg, np.zeros(1), NUMERIC)
        assert numeric == pytest.approx(0.0, abs=1e-6)

    def test_window_shorter_than_every_ladder_step(self):
        seg = HistorySegment.constant(1e-4, [1.0])
        with pytest.raises(ValueError, match="every ladder step is at least the window length"):
            dini_functional(V_SQUARE, 0.0, seg, np.array([1.0]), NUMERIC)

    def test_ladder_rungs_below_the_window(self):
        # V = x(0) + 10 along slope 1: the quotient at step h is 1 + h, as the
        # largest sphere probe adds h^2 to the head (one direction is +1 in 1-D)
        V = LyapunovFunctional(evaluator=lambda t, seg: float(seg.head[0]) + 10.0)
        # window 5e-4: only the 1e-4 rung fits, and its quotient is returned
        one = dini_functional(V, 0.0, HistorySegment.constant(5e-4, [0.0]), np.ones(1))
        assert one == pytest.approx(1.0 + 1e-4, abs=1e-9)
        # window 5e-3: two rungs, extrapolated linearly to step 0
        two = dini_functional(V, 0.0, HistorySegment.constant(5e-3, [0.0]), np.ones(1))
        assert two == pytest.approx(1.0, abs=1e-9)

    def test_untrusted_ladder_returns_the_smallest_step(self):
        # V = max(0, x(0) - 5e-4) from x = 0 along slope 1 has its kink between
        # the rungs: quotients near 0.95, 0.5, 0 do not shrink like a smooth
        # ladder, so the smallest step's quotient, 0, is returned
        V = LyapunovFunctional(evaluator=lambda t, seg: max(0.0, float(seg.head[0]) - 5e-4))
        seg = HistorySegment.constant(1.0, [0.0])
        assert dini_functional(V, 0.0, seg, np.ones(1)) == 0.0

    def test_time_dependence_included(self):
        # V = e^{-2t} |x(0)|^2: moving time forward contributes -2V
        V = LyapunovFunctional(
            evaluator=lambda t, seg: float(np.exp(-2 * t) * seg.values[-1, 0] ** 2)
        )
        seg = HistorySegment.constant(1.0, [1.5])
        est = dini_functional(V, 0.0, seg, np.zeros(1))
        assert est == pytest.approx(-2 * 1.5 ** 2, abs=1e-5)

    @staticmethod
    def _ladder_cases():
        """2,000 seeded (energy, t, window, slope, slides) of example-4.8: one
        slide whose lower end lands on or next to a knot, and one anywhere"""
        bundle = build_example("example-4.8")
        sys_, V = bundle.system, bundle.functional
        r = sys_.delay_r
        rng = np.random.default_rng(48)
        for _ in range(2000):
            t = float(rng.uniform(0.0, 5.0))
            seg = sample_history(rng, r, sys_.dim_n, 2.0)
            v = rng.uniform(-4.0, 4.0, sys_.dim_n)
            knot = float(seg.grid[rng.integers(1, seg.grid.size - 1)])
            yield V, t, seg, v, (knot + r, float(rng.uniform(0.0, r)))

    def test_numeric_ladders_are_pinned(self):
        # sha256 over 2,000 seeded numeric Dini values of example-4.8's window
        # energy, recorded with its integrand x1^4 formed as (x1 * x1)^2
        digest = hashlib.sha256()
        for V, t, seg, v, _ in self._ladder_cases():
            digest.update(np.float64(dini_functional(V, t, seg, v, NUMERIC)).tobytes())
        assert digest.hexdigest() == "f1395f280922b864b5afeadb0fadaf483c8d294371cc7bf4d646249a6c4606aa"

    def test_slides_are_pinned(self):
        # sha256 over the 4,000 windows extend slides those windows to,
        # recorded when each slide built its rows one at a time
        digest = hashlib.sha256()
        for _, _, seg, v, steps in self._ladder_cases():
            for step in steps:
                slid = extend(seg, v, step)
                digest.update(slid.grid.tobytes() + slid.values.tobytes())
        assert digest.hexdigest() == "29aa2839cf29192bb565f8cf8cfaa958f09b308f8916ce6b6b7d9bbb74fadb2c"

    def test_window_at_a_time_is_bitwise_the_stacked_rung(self):
        # without evaluator_many a rung evaluates its windows one at a time
        V = build_example("example-4.8").functional
        alone = replace(V, evaluator_many=None)
        rng = np.random.default_rng(27)
        for _ in range(2000):
            t = float(rng.uniform(0.0, 5.0))
            seg = sample_history(rng, 0.5, 2, 2.0)
            v = rng.uniform(-4.0, 4.0, 2)
            stacked = dini_functional(V, t, seg, v, NUMERIC)
            assert np.float64(stacked).tobytes() == np.float64(dini_functional(alone, t, seg, v, NUMERIC)).tobytes()

    def test_evaluator_many_must_give_one_value_per_window(self):
        # a scalar or a first value alone would broadcast into the rung's
        # largest energy and drop the probes
        bundle = build_example("example-4.8")
        V = bundle.functional
        spec = SamplerSpec(0.0, 5.0, 2.0, 200, seed=0)

        def sweep(many):
            # positional (evaluator, analytic_dini, name) still construct it
            swapped = LyapunovFunctional(V.evaluator, V.analytic_dini, V.name, many)
            return check_lyapunov_ios(
                bundle.system, swapped, power(4.0, 0.5), exp_weight(2.0), linear(0.5), spec,
                tolerance=1e-3, dini_opts=NUMERIC,
            )

        rep = sweep(V.evaluator_many)
        assert rep.eval_failures == 0 and rep.samples_tested > 0
        grid, X = np.array([-0.5, 0.0]), np.ones((3, 2, 2))
        for wrong, shape in [(lambda t, g, X: 0.0, "()"), (lambda t, g, X: V.evaluator_many(t, g, X)[:1], "(1,)")]:
            with pytest.raises(ValueError, match=r"one value per window, shape \(3,\); got " + re.escape(shape)):
                LyapunovFunctional(V.evaluator, evaluator_many=wrong).stacked(0.0, grid, X)
            bad = sweep(wrong)
            # the guard reads the scalar evaluator, so it skips the same samples
            assert (bad.samples_tested, bad.guard_skipped) == (0, rep.guard_skipped)
            assert bad.eval_failures == spec.samples - rep.guard_skipped
            assert bad.verdict == "inconclusive"
            assert bad.first_failure["type"] == "ValueError"
            assert bad.first_failure["message"].endswith(f"got {shape}")


class TestDefaultTolerance:
    """With no tolerance given, a sweep's tolerance follows the derivative it
    uses: 1e-9 for an attached analytic term, 1e-6 for the numeric ladder.
    A given tolerance must be finite and >= 0, as the CLI requires."""

    @pytest.mark.parametrize("opts, tol", [(None, 1e-9), (NUMERIC, 1e-6)], ids=["analytic", "ladder"])
    def test_functional_sweep(self, opts, tol):
        bundle = build_example("example-4.8")
        rep = check_lyapunov_ios(
            bundle.system, bundle.functional, power(4.0, 0.5), exp_weight(2.0), linear(0.5),
            SamplerSpec(samples=20, seed=0), dini_opts=opts,
        )
        assert rep.tolerance == tol

    @pytest.mark.parametrize("opts, tol", [(None, 1e-9), (NUMERIC, 1e-6)], ids=["analytic", "ladder"])
    def test_pointwise_sweep(self, opts, tol):
        bundle = build_example("example-5.2")
        rate = 4.0 * bundle.params["c"] / 33.0
        rep = check_razumikhin(
            bundle.system, bundle.pointwise, linear(0.5), lambda t, v: rate * math.exp(t) * v,
            SamplerSpec(samples=20, seed=0), dini_opts=opts,
        )
        assert rep.tolerance == tol

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1.0], ids=repr)
    def test_a_tolerance_not_finite_and_nonnegative_raises_before_any_draw(self, tolerance, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(lyapunov, "_draw_points", no_draw)
        monkeypatch.setattr(lyapunov, "_kept", None)
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            build_example("example-4.8").certificate("unweighted-guard-fails").runner(tolerance=tolerance)
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            check_razumikhin(
                CONTRACTION, RazumikhinFunction(lambda t, x: float(x @ x)), linear(0.5), linear(1.0),
                SamplerSpec(samples=10, seed=0), tolerance=tolerance,
            )

    def test_a_zero_tolerance_is_a_tolerance(self):
        rep = check_lyapunov_ios(
            zero_input_system(), V_SQUARE, power(2.0), constant(1.0), linear(2.0),
            SamplerSpec(samples=20, seed=0), tolerance=0.0,
        )
        assert (rep.tolerance, rep.samples_tested) == (0.0, 20)


class TestDiniPointwise:
    def test_quadratic_gradient(self):
        Vr = RazumikhinFunction(evaluator=lambda t, x: float(np.dot(x, x)))
        x = np.array([1.0, -2.0])
        v = np.array([0.5, 1.0])
        est = dini_pointwise(Vr, 0.0, x, v)
        assert est == pytest.approx(2 * np.dot(x, v), abs=1e-5)

    def test_flat_region_of_dead_zone_energy(self):
        Vr = RazumikhinFunction(evaluator=lambda t, x: max(0.0, float(x[0] ** 2) - 4.0))
        est = dini_pointwise(Vr, 0.0, np.array([1.0]), np.array([5.0]))
        assert est == pytest.approx(0.0, abs=1e-9)

    def test_numeric_matches_analytic_on_random_probes(self):
        Vr = RazumikhinFunction(
            evaluator=lambda t, x: float(np.exp(t) * np.dot(x, x)),
            analytic_dini=lambda t, x, v: float(
                np.exp(t) * (np.dot(x, x) + 2 * np.dot(x, v))
            ),
        )
        rng = np.random.default_rng(0)
        for _ in range(100):
            t = rng.uniform(0.0, 2.0)
            x = rng.normal(size=3)
            v = rng.normal(size=3)
            exact = Vr.analytic_dini(t, x, v)
            est = dini_pointwise(Vr, t, x, v, NUMERIC)
            assert est == pytest.approx(exact, abs=max(1e-3, 1e-3 * abs(exact)))


    def test_numeric_value_is_the_extrapolated_quotient_ladder(self):
        def energy(t, x):
            return float(np.exp(-t) * np.dot(x, x) + np.abs(x).max())

        Vr = RazumikhinFunction(evaluator=energy)
        rng = np.random.default_rng(7)
        for _ in range(20):
            t, x, v = rng.uniform(0.0, 2.0), rng.normal(size=3), rng.normal(size=3)
            base = energy(t, x)
            qs = [(energy(t + h, x + h * v) - base) / h for h in LADDER_STEPS]
            expected = _extrapolate(LADDER_STEPS, qs)
            assert dini_pointwise(Vr, t, x, v, NUMERIC) == expected  # bitwise


NON_FINITE = pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])


class TestLadderGuards:
    """The numeric ladder refuses an energy that is not finite, at the base
    point or on a rung, for window functionals and pointwise functions alike;
    a falsification sweep counts such a sample as a failure to evaluate."""

    @NON_FINITE
    def test_a_base_energy_that_is_not_finite(self, bad):
        V = LyapunovFunctional(evaluator=lambda t, seg: bad)
        with pytest.raises(ValueError, match="non-finite"):
            dini_functional(V, 0.0, HistorySegment.constant(1.0, [1.0]), np.ones(1), NUMERIC)
        Vr = RazumikhinFunction(evaluator=lambda t, x: bad)
        with pytest.raises(ValueError, match="non-finite"):
            dini_pointwise(Vr, 0.0, np.ones(1), np.ones(1), NUMERIC)

    @NON_FINITE
    @pytest.mark.parametrize("h", LADDER_STEPS)
    def test_a_rung_that_is_not_finite(self, bad, h):
        # finite at the base time 0 and on the longer rungs before step h
        V = LyapunovFunctional(evaluator=lambda t, seg: float(seg.head[0] ** 2) if t == 0.0 or t > h else bad)
        with pytest.raises(ValueError, match="non-finite"):
            dini_functional(V, 0.0, HistorySegment.constant(1.0, [1.0]), np.ones(1), NUMERIC)
        Vr = RazumikhinFunction(evaluator=lambda t, x: float(x[0] ** 2) if t == 0.0 or t > h else bad)
        with pytest.raises(ValueError, match="non-finite"):
            dini_pointwise(Vr, 0.0, np.ones(1), np.ones(1), NUMERIC)

    @NON_FINITE
    def test_a_functional_sweep_counts_a_non_finite_rung_as_a_failure(self, bad):
        # sample times in [0.995, 1]: every first rung lands after t = 1
        V = LyapunovFunctional(evaluator=lambda t, seg: float(seg.head[0] ** 2) if t <= 1.0 else bad)
        spec = SamplerSpec(t_lo=0.995, t_hi=1.0, samples=100, seed=0)
        rep = check_lyapunov_ios(
            zero_input_system(), V, power(2.0), constant(1.0), linear(1.0), spec, dini_opts=NUMERIC
        )
        assert rep.eval_failures == 100 and rep.samples_tested == 0
        assert rep.first_failure["type"] == "ValueError"
        assert "non-finite" in rep.first_failure["message"]

    @NON_FINITE
    def test_a_pointwise_sweep_counts_a_non_finite_rung_as_a_failure(self, bad):
        Vr = RazumikhinFunction(evaluator=lambda t, x: float(x[0] ** 2) if t <= 1.0 else bad)
        spec = SamplerSpec(t_lo=0.995, t_hi=1.0, samples=200, seed=0)
        rep = check_razumikhin(CONTRACTION, Vr, a=linear(0.5), rho=linear(1.0), spec=spec, dini_opts=NUMERIC)
        # sample times in [0.995, 1]: every sample the guard lets through fails on its first rung
        assert rep.eval_failures > 0 and rep.samples_tested == 0
        assert rep.eval_failures + rep.guard_skipped == 200
        assert rep.first_failure["type"] == "ValueError"
        assert "non-finite" in rep.first_failure["message"]


def zero_input_system(dynamics=lambda t, seg, u, d: -seg.head + u[0]):
    """x' = -x + u on a zero-width input box: the guarded falsifier with
    zeta(0) = 0 tests the unguarded decay inequality."""
    return RfdeSystem(
        delay_r=1.0,
        dim_n=1,
        dynamics=dynamics,
        output=lambda t, seg: seg.head,
        d_box=ZERO_D,
        u_box=np.array([[0.0, 0.0]]),
    )


def zero_input_decay(sys_, rho, spec):
    return check_lyapunov_ios(
        sys_, V_SQUARE, zeta=power(2.0), delta=constant(1.0), rho=rho, spec=spec
    )


class TestAlmostLipschitz:
    def test_sup_norm_is_one_lipschitz(self):
        # |sup x - sup y| <= sup |x - y| on random windows of the radius-2
        # ball, mixing independent and nearby pairs
        rng = np.random.default_rng(0)
        worst = 0.0
        for i in range(2000):
            x = sample_history(rng, 1.0, 1, 2.0)
            if i % 2:
                eps = 2.0 * 10.0 ** rng.uniform(-4.0, -0.3)
                y = clip_to_ball(x.add_constant(eps * rng.choice([-1.0, 1.0], size=1)), 2.0)
            else:
                y = sample_history(rng, 1.0, 1, 2.0)
            dist = history_distance(x, y)
            if dist > 1e-13:
                worst = max(worst, abs(sup_norm(y) - sup_norm(x)) / dist)
        assert 0.0 < worst <= 1.0 + 1e-6


class TestDecayFalsifier:
    """The unguarded decay inequality V0 <= -rho(V), checked by the guarded
    falsifier on a zero-width input box."""

    def test_tight_rate_no_counterexample(self):
        rep = zero_input_decay(zero_input_system(), linear(2.0), SamplerSpec(samples=500, seed=0))
        assert rep.verdict == "no_counterexample"

    def test_too_fast_rate_found(self):
        rep = zero_input_decay(zero_input_system(), linear(3.0), SamplerSpec(samples=500, seed=0))
        assert rep.verdict == "counterexample"
        assert rep.witness is not None
        assert rep.worst_residual > rep.tolerance

    def test_witness_reproducible_by_direct_evaluation(self):
        rep = zero_input_decay(zero_input_system(), linear(3.0), SamplerSpec(samples=500, seed=0))
        w = rep.witness
        seg = HistorySegment.from_json_dict(w["history"])
        x0 = seg.values[-1, 0]
        # residual = V0 + rho(V) = -2 x0^2 + 3 x0^2 = x0^2
        assert w["residual"] == pytest.approx(x0 ** 2, rel=1e-3)

    def test_report_json_clean(self):
        rep = zero_input_decay(zero_input_system(), linear(3.0), SamplerSpec(samples=200, seed=0))
        text = json.dumps(rep.to_json_dict())
        assert "counterexample" in text

    def test_report_names_its_failures(self):
        def dynamics(t, seg, u, d):
            if t > 4.0:
                raise ValueError("dynamics undefined after t = 4")
            return -seg.head

        spec = SamplerSpec(samples=200, seed=0)
        rep = zero_input_decay(zero_input_system(dynamics), linear(1.0), spec).to_json_dict()
        assert rep["eval_failures"] > 0 and rep["guard_skipped"] == 0
        assert rep["samples"] + rep["eval_failures"] == 200
        assert rep["first_failure"] == {
            "type": "ValueError", "message": "dynamics undefined after t = 4",
        }
        clean = zero_input_decay(zero_input_system(), linear(1.0), spec).to_json_dict()
        assert clean["eval_failures"] == 0 and clean["first_failure"] is None


class TestIosFalsifier:
    def test_zero_input_box_reduces_to_decay(self):
        rep = zero_input_decay(zero_input_system(), linear(2.0), SamplerSpec(samples=400, seed=1))
        assert rep.verdict == "no_counterexample"
        assert rep.guard_skipped == 0

    def test_guarded_decay_with_inputs(self):
        # x' = -x + u, V = x(0)^2: V0 = -2V + 2xu; under x^2 >= 4u^2 the
        # cross term obeys 2|x||u| <= x^2 so V0 <= -V, i.e. rho(s) = s
        sys_u = RfdeSystem(
            delay_r=1.0,
            dim_n=1,
            dynamics=lambda t, seg, u, d: -seg.values[-1] + u[0],
            output=lambda t, seg: seg.values[-1],
            d_box=ZERO_D,
            u_box=np.array([[-1.0, 1.0]]),
        )
        rep = check_lyapunov_ios(
            sys_u, V_SQUARE, zeta=power(2.0, scale=4.0), delta=constant(1.0),
            rho=linear(1.0), spec=SamplerSpec(samples=2000, seed=2),
        )
        assert rep.verdict == "no_counterexample"
        assert rep.guard_skipped > 0


class TestRazumikhinFalsifier:
    def test_delay_free_contraction(self):
        Vr = RazumikhinFunction(evaluator=lambda t, x: float(x[0] ** 2))
        rep = check_razumikhin(
            CONTRACTION, Vr, a=linear(0.5), rho=linear(1.0),
            spec=SamplerSpec(samples=500, seed=3),
        )
        assert rep.verdict == "no_counterexample"

    def test_evaluator_many_must_give_one_value_per_row(self):
        # a scalar or a first row alone would broadcast into the window-sup
        # guard and let every sample, or the wrong ones, through
        bundle = build_example("example-5.2")
        Vr = bundle.pointwise
        rate = 4.0 * bundle.params["c"] / 33.0
        spec = SamplerSpec(0.0, 5.0, 2.0, 400, seed=0)

        def sweep(many):
            swapped = RazumikhinFunction(Vr.evaluator, Vr.analytic_dini, many, Vr.name)
            return check_razumikhin(
                bundle.system, swapped, linear(0.5), lambda t, v: rate * math.exp(t) * v, spec
            )

        rep = sweep(Vr.evaluator_many)
        assert (rep.samples_tested, rep.guard_skipped, rep.eval_failures) == (218, 182, 0)
        for wrong, shape in [(lambda ts, X: 0.0, "()"), (lambda ts, X: Vr.evaluator_many(ts, X)[:1], "(1,)")]:
            with pytest.raises(ValueError, match=r"one value per row, shape \(3,\); got " + re.escape(shape)):
                RazumikhinFunction(Vr.evaluator, evaluator_many=wrong).along(np.zeros(3), np.ones((3, 2)))
            rep = sweep(wrong)
            assert (rep.samples_tested, rep.guard_skipped, rep.eval_failures) == (0, 0, 400)
            assert rep.verdict == "inconclusive"
            assert rep.first_failure["type"] == "ValueError"
            assert rep.first_failure["message"].endswith(f"got {shape}")

    @pytest.mark.parametrize("guard", ["zeta", "delta"])
    def test_a_lone_input_guard_function_is_refused(self, guard):
        # a lone zeta used to die mid-sweep calling the missing delta, and a
        # lone delta was dropped: the sweep drew no input
        bundle = build_example("example-5.4")
        with pytest.raises(ValueError, match="both or neither"):
            check_razumikhin(
                bundle.system, bundle.pointwise, linear(0.25), linear(2.0),
                SamplerSpec(samples=200, seed=0), **{guard: power(4.0 / 3.0, 1.5)},
            )

    def test_a_must_be_below_identity(self):
        Vr = RazumikhinFunction(evaluator=lambda t, x: float(x[0] ** 2))
        with pytest.raises(ValueError):
            check_razumikhin(
                CONTRACTION, Vr, a=linear(1.5), rho=linear(1.0),
                spec=SamplerSpec(samples=100, seed=0),
            )

    def test_guard_filters_samples(self):
        # x' = -2x + 0.5 x(t-1), V = x^2: under the guard
        # sup V <= 4 V(0) the cross term obeys x * x(-1) <= 2 x^2, so
        # D+V <= -4x^2 + 2x^2 = -2V; rate V leaves a -V margin
        sys_d = RfdeSystem(
            delay_r=1.0,
            dim_n=1,
            dynamics=lambda t, seg, u, d: -2.0 * seg.values[-1] + 0.5 * seg.values[0],
            output=lambda t, seg: seg.values[-1],
            d_box=ZERO_D,
        )
        Vr = RazumikhinFunction(evaluator=lambda t, x: float(x[0] ** 2))
        rep = check_razumikhin(
            sys_d, Vr, a=linear(0.25), rho=linear(1.0),
            spec=SamplerSpec(samples=2000, seed=4),
        )
        assert rep.verdict == "no_counterexample"
        assert rep.guard_skipped > 0
        assert rep.samples_tested + rep.guard_skipped == 2000


def _counting(fn, calls):
    def counted(*args):
        calls[0] += 1
        return fn(*args)

    return counted


class TestOneEnergyCallPerSample:
    """The guard's energy value is the residual's and the numeric ladder's
    base: one evaluator call for each sample that does not fail, whether the
    guard skips it or not, besides the ladder rungs' own calls."""

    @pytest.mark.parametrize("opts", [None, NUMERIC], ids=["analytic", "numeric"])
    def test_guarded_functional_sweep(self, opts):
        # the numeric ladder's base is the guard's energy, not a second call;
        # its rungs go through evaluator_many
        bundle = build_example("example-4.8")
        V, calls = bundle.functional, [0]
        counted = replace(V, evaluator=_counting(V.evaluator, calls))
        rep = check_lyapunov_ios(
            bundle.system, counted, power(4.0, 0.5), exp_weight(2.0), linear(0.5),
            SamplerSpec(t_lo=0.0, t_hi=5.0, norm_bound=2.0, samples=600, seed=0), dini_opts=opts,
        )
        assert rep.guard_skipped > 0 and rep.samples_tested > 0
        assert calls[0] == 600 - rep.eval_failures

    @pytest.mark.parametrize("opts", [None, NUMERIC], ids=["analytic", "numeric"])
    def test_razumikhin_sweep(self, opts):
        # the numeric ladder's base is the guard's Vr(t, x(0)); each of its
        # rungs adds one call, at t + h
        bundle = build_example("example-5.2")
        Vr, calls = bundle.pointwise, [0]
        counted = replace(Vr, evaluator=_counting(Vr.evaluator, calls))
        rep = check_razumikhin(
            bundle.system, counted, linear(0.5), linear(0.1),
            SamplerSpec(t_lo=0.0, t_hi=2.0, norm_bound=2.0, samples=600, seed=0), dini_opts=opts,
        )
        assert rep.guard_skipped > 0 and rep.samples_tested > 0
        rungs = 0 if opts is None else len(LADDER_STEPS) * rep.samples_tested
        assert calls[0] == 600 - rep.eval_failures + rungs


# sha256 of each report's sorted-key JSON, as the sweeps drew and built one
# window at a time; the sample counts straddle blocks of 64 and of 128 samples
BLOCK_REPORTS = {
    ("example-4.8", "unweighted-guard-fails"): {
        63: "3f6f3b4dfe948379ca006c3e3dfe21d953cc53cdcf3db5285b3a779d9f1aa104",
        64: "de86ff44876fa2b5a0e06af7b2efeacea16f00e1dc34f9d8d4c21aeb32cb1000",
        65: "fd0020e64725b62d629e2519a688a180d485cc3c29167ee1c972cdb6ff2c7ef8",
        127: "bab23311917dd6ee4258fd013dbeda7ba788e8f23efc6c087526f99481abc1b9",
        128: "bcbbb25a612a15334196520acae3988889b4857c0f78a393492d099a5c6c3d8e",
        129: "ffcc44a99ad12db3b6ca2851aabcc29997d0063c0b8c2f5383756b4dec77a702",
        131: "27c73d6dc496cc6ea89b1d44dd4e3ef3519306ae31deada22424c698f9c873f9",
        259: "d05ac55f65aa5a1ec02b051cbe800ff43ff368ce7c077f7a6d7619de03bea5b8",
    },
    ("example-5.4", "band-energy-decay"): {
        63: "298a00c85d645b0b4bee9ee9ebf01794644731dd29472e8f06d89f0c48616657",
        64: "e5b202842f27973d69815d71d2e576e7d99eab5968ceb31b8e4e1c0a734c9b3c",
        65: "8deeb0bb99787bfe2d88af077ac6967e826a038bc5bf19dcc1da893716728dcc",
        127: "80ee8d60cffa1816239f8502c6d7b2ac98f6fa6731ddd70c756eeb856c4d51e2",
        128: "ab3603be339ad63a43e350df9c2a3b3a847a2d5deab23269b5e8dafd02a9044f",
        129: "cba91f170dca77a77c80ccd14822386468a4f8bcabc747a76762850c53719b48",
        131: "a526b4c9c9fa1249d575e3841a3a178968a71be0261d1826ed2289382bd62116",
        259: "92185e8dc3e069c0404fb10e356d2ccb67ece65e66dc4ff695a90a70921b4136",
    },
    ("example-5.2", "guarded-exponential-decay"): {
        63: "b01cf86452442405ee43900372c4420930e237227690a2ed3f17ce42ba7f536f",
        64: "51334588ee058e5f3f8fa61d6f43753a92103fc1e23e3adbe50f256dabe9ec60",
        65: "4abec1946620817b918bb7d1a8da1433f9891966e1709857480850c5695078b8",
        127: "3f55f6ad9c3b9b8c518d41ef61c58fa218b4e64f0e04ce784c7f626e88e2e7da",
        128: "3c55018c461255f7254f31e378bac8efbaa3d4bb8ac25c07de5ee6a899d348f8",
        129: "a192d0a7180d390ec5d2cab8aec1d6353ca38f488eb4284c76c9ce988fb53969",
        131: "52b9051ce8fadfb48b0c1efe9d7e5228692e6cc958980dd0ce6911982622525c",
        259: "a17495e611f387f1af7b8475b603c313d261b724f7553f1bad92a46750e6e72c",
    },
}


class TestSampleBlocks:
    """Falsifiers draw their samples in blocks of FALSIFY_BLOCK and build each
    block's windows at once; reports stay those of one-at-a-time sampling."""

    def test_recorded_counts_straddle_the_block(self):
        # the counts straddle this block, and 63, 64, 65 and 131 a block of 64
        straddle = {FALSIFY_BLOCK - 1, FALSIFY_BLOCK, FALSIFY_BLOCK + 1, 2 * FALSIFY_BLOCK + 3}
        for hashes in BLOCK_REPORTS.values():
            assert sorted(hashes) == sorted(straddle | {63, 64, 65, 131})

    @pytest.mark.parametrize("example, certificate, samples", [
        (example, certificate, samples)
        for (example, certificate), hashes in BLOCK_REPORTS.items()
        for samples in hashes
    ])
    def test_reports_at_block_boundaries(self, example, certificate, samples):
        rep = build_example(example).certificate(certificate).runner(samples=samples)
        if certificate == "unweighted-guard-fails":
            assert rep.verdict == "counterexample" and rep.witness is not None
        text = json.dumps(rep.to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == BLOCK_REPORTS[example, certificate][samples]

    def test_reports_do_not_depend_on_the_block_size(self, monkeypatch, draws):
        bundles = {name: build_example(name) for name in ("example-4.8", "example-5.2", "example-5.4")}
        certificates = [
            ("example-4.8", "weighted-input-decay"), ("example-4.8", "unweighted-guard-fails"),
            ("example-5.2", "guarded-exponential-decay"), ("example-5.4", "band-energy-decay"),
        ]
        # example-5.2's sweep with a batch energy that raises on any call holding
        # the time of sample 150: its block's screen fails, and each of the
        # block's samples makes its own window's call
        b52 = bundles["example-5.2"]
        spec = SamplerSpec(samples=300, seed=7)
        blocks = lyapunov._sample_blocks(b52.system, spec, False)
        bad_t = np.concatenate([times for times, *_ in blocks])[150]
        # the draw of that time is kept; the counts below start from none
        monkeypatch.setattr(lyapunov, "_kept", None)
        many = b52.pointwise.evaluator_many

        def raising_many(ts, X):
            if bad_t in ts:
                raise ValueError(f"no energy at t={bad_t!r}")
            return many(ts, X)

        Vr = replace(b52.pointwise, evaluator_many=raising_many)
        rate = 4.0 * b52.params["c"] / 33.0
        runs = [
            lambda example=example, certificate=certificate: bundles[example].certificate(certificate).runner(
                samples=spec.samples, seed=spec.seed
            )
            for example, certificate in certificates
        ] + [lambda: check_razumikhin(b52.system, Vr, linear(0.5), lambda t, v: rate * math.exp(t) * v, spec)]
        reports = {}
        for block in (1, 7, 64, 128):
            monkeypatch.setattr(lyapunov, "FALSIFY_BLOCK", block)
            del draws[:]
            reports[block] = [json.dumps(run().to_json_dict(), sort_keys=True) for run in runs]
            # the block size is in a kept draw's key, so every size draws: three
            # sweeps draw; example-4.8's second certificate reuses the first's
            # draw, and the raising example-5.2 sweep its certificate's
            assert draws == 3 * _blocks_of(spec.samples, block)
        assert all(texts == reports[1] for texts in reports.values())
        unweighted, raising = json.loads(reports[1][1]), json.loads(reports[1][-1])
        assert unweighted["verdict"] == "counterexample" and unweighted["witness"] is not None
        assert raising["eval_failures"] == 1
        assert raising["first_failure"] == {"type": "ValueError", "message": f"no energy at t={bad_t!r}"}

    def test_a_failure_in_a_later_block_is_reported_in_draw_order(self):
        spec = SamplerSpec(samples=2 * FALSIFY_BLOCK + 3, seed=0)
        # the samples one at a time, in the documented order t, window, u, d
        # (one draw each for the one-row input and disturbance boxes)
        rng = np.random.default_rng(spec.seed)
        heads = []
        for _ in range(spec.samples):
            rng.uniform(spec.t_lo, spec.t_hi)
            heads.append(float(sample_history(rng, 1.0, 1, spec.norm_bound).head[0]))
            rng.uniform(0.0, 0.0)
            rng.uniform(0.0, 0.0)
        failing = [2 * FALSIFY_BLOCK + 1, FALSIFY_BLOCK + 9, FALSIFY_BLOCK + 5]
        bad_heads = {heads[i] for i in failing}

        def energy(t, seg):
            x0 = float(seg.head[0])
            if x0 in bad_heads:
                raise ValueError(f"energy undefined at x(0)={x0!r}")
            return x0 ** 2

        V = LyapunovFunctional(energy, analytic_dini=lambda t, seg, v: 2.0 * seg.head[0] * v[0])
        rep = check_lyapunov_ios(zero_input_system(), V, power(2.0), constant(1.0), linear(2.0), spec)
        assert rep.eval_failures == len(failing)
        assert rep.samples_tested + rep.guard_skipped + rep.eval_failures == spec.samples
        assert rep.first_failure == {
            "type": "ValueError",
            "message": f"energy undefined at x(0)={heads[min(failing)]!r}",
        }
        assert rep.verdict == "no_counterexample"

    @pytest.mark.parametrize("samples", [-3, 0, 2.5, 3.0, True, None], ids=repr)
    def test_a_sample_count_that_is_not_a_positive_integer_raises_before_any_draw(self, samples):
        # the t range is bad too: the count is refused first
        calls = [0]
        V = LyapunovFunctional(_counting(V_SQUARE.evaluator, calls))
        Vr = RazumikhinFunction(_counting(lambda t, x: float(x @ x), calls))
        sys_ = zero_input_system(_counting(lambda t, seg, u, d: -seg.head, calls))
        spec = SamplerSpec(t_lo=5.0, t_hi=0.0, samples=samples, seed=0)
        with pytest.raises(ValueError, match="samples must be a positive integer"):
            check_lyapunov_ios(sys_, V, power(2.0), constant(1.0), linear(2.0), spec)
        with pytest.raises(ValueError, match="samples must be a positive integer"):
            check_razumikhin(sys_, Vr, linear(0.5), linear(1.0), spec)
        assert calls[0] == 0

    def test_a_numpy_integer_sample_count_is_a_count(self):
        reps = [
            check_lyapunov_ios(
                zero_input_system(), V_SQUARE, power(2.0), constant(1.0), linear(2.0),
                SamplerSpec(samples=samples, seed=0),
            ).to_json_dict()
            for samples in (np.int64(FALSIFY_BLOCK + 1), FALSIFY_BLOCK + 1)
        ]
        assert reps[0] == reps[1]

    @pytest.mark.parametrize("norm_bound", [-1.0, math.nan, math.inf])
    def test_a_bad_norm_bound_raises_before_any_evaluation(self, norm_bound):
        calls = [0]
        V = LyapunovFunctional(_counting(V_SQUARE.evaluator, calls))
        sys_ = zero_input_system(_counting(lambda t, seg, u, d: -seg.head, calls))
        spec = SamplerSpec(norm_bound=norm_bound, samples=2 * FALSIFY_BLOCK, seed=0)
        with pytest.raises(ValueError, match="norm_bound"):
            check_lyapunov_ios(sys_, V, power(2.0), constant(1.0), linear(2.0), spec)
        assert calls[0] == 0

    @pytest.mark.parametrize("t_lo, t_hi, u_box, d_box, error", [
        (0.0, math.inf, ZERO_D, ZERO_D, OverflowError),
        (math.nan, 5.0, ZERO_D, ZERO_D, OverflowError),
        (-1e308, 1e308, ZERO_D, ZERO_D, OverflowError),
        (5.0, 0.0, ZERO_D, ZERO_D, ValueError),
        (0.0, 5.0, [[-math.inf, 0.0]], ZERO_D, OverflowError),
        (0.0, 5.0, ZERO_D, [[0.0, 0.0], [0.0, math.nan]], OverflowError),
        (0.0, 5.0, ZERO_D, [[0.0, 0.0], [1.0, -1.0]], ValueError),
    ])
    def test_a_bad_range_raises_as_uniform_does_before_any_evaluation(
        self, t_lo, t_hi, u_box, d_box, error
    ):
        # rng.uniform's errors: OverflowError for a range that is not finite,
        # ValueError for a negative one
        calls = [0]
        V = LyapunovFunctional(_counting(V_SQUARE.evaluator, calls))
        sys_ = RfdeSystem(
            1.0, 1, _counting(lambda t, seg, u, d: -seg.head, calls), lambda t, seg: seg.head,
            np.array(d_box), np.array(u_box),
        )
        spec = SamplerSpec(t_lo=t_lo, t_hi=t_hi, samples=2 * FALSIFY_BLOCK, seed=0)
        with pytest.raises(error, match="high - low"):
            check_lyapunov_ios(sys_, V, power(2.0), constant(1.0), linear(2.0), spec)
        assert calls[0] == 0


@pytest.fixture
def draws(monkeypatch):
    """The count of each draw of a block's points, the one call that makes
    the falsifiers' generator calls, from no kept draw on."""
    counts = []
    draw = lyapunov._draw_points

    def counted(rng, count, *args):
        counts.append(count)
        return draw(rng, count, *args)

    monkeypatch.setattr(lyapunov, "_draw_points", counted)
    monkeypatch.setattr(lyapunov, "_kept", None)
    return counts


def _blocks_of(samples, block):
    """The sample counts of the blocks a draw of ``samples`` is made in."""
    return [min(block, samples - start) for start in range(0, samples, block)]


ZERO = ComparisonFn(lambda s: 0.0 * s, "zero")
BOX = np.array([[-1.0, 1.0]])
KEY_SYSTEM = RfdeSystem(1.0, 1, None, lambda t, seg: seg.head, BOX, BOX)
KEY_SPEC = SamplerSpec(samples=2 * FALSIFY_BLOCK + 3, seed=0)


def _seen_by_callbacks(sys_, spec, draw_u=True, dynamics=None):
    """What a Razumikhin sweep hands its callbacks, sample by sample, as
    exact bits: every guard passes, so the dynamics sees every sample's t,
    window, u and d.  With ``draw_u`` the sweep draws u for an input guard;
    ``dynamics(t, seg, u, d)``, when given, runs after the recording."""
    seen = []

    def recording(t, seg, u, d):
        seen.append((t.hex(), seg.delay, seg.grid.tobytes(), seg.values.tobytes(),
                     u.shape, u.tobytes(), d.shape, d.tobytes()))
        if dynamics is not None:
            dynamics(t, seg, u, d)
        return -seg.head

    Vr = RazumikhinFunction(lambda t, x: float(x @ x), analytic_dini=lambda t, x, v: 2.0 * float(x @ v))
    guard = {"zeta": ZERO, "delta": constant(1.0)} if draw_u else {}
    rep = check_razumikhin(replace(sys_, dynamics=recording), Vr, ZERO, linear(1.0), spec, **guard)
    assert rep.samples_tested == spec.samples
    return seen


# (first sweep, second sweep): the second differs in one field of the key
KEY_CHANGES = {
    "seed": ((KEY_SYSTEM, KEY_SPEC), (KEY_SYSTEM, replace(KEY_SPEC, seed=1))),
    "samples": ((KEY_SYSTEM, KEY_SPEC), (KEY_SYSTEM, replace(KEY_SPEC, samples=KEY_SPEC.samples + 1))),
    "t_lo": ((KEY_SYSTEM, KEY_SPEC), (KEY_SYSTEM, replace(KEY_SPEC, t_lo=0.5))),
    "t_hi": ((KEY_SYSTEM, KEY_SPEC), (KEY_SYSTEM, replace(KEY_SPEC, t_hi=4.0))),
    # a zero bound's knot points are zeros with their normals' signs, flipped by -0.0
    "norm_bound": (
        (KEY_SYSTEM, replace(KEY_SPEC, norm_bound=0.0)), (KEY_SYSTEM, replace(KEY_SPEC, norm_bound=-0.0)),
    ),
    "delay": ((KEY_SYSTEM, KEY_SPEC), (replace(KEY_SYSTEM, delay_r=0.5), KEY_SPEC)),
    "dim": ((KEY_SYSTEM, KEY_SPEC), (replace(KEY_SYSTEM, dim_n=2), KEY_SPEC)),
    "box bytes": ((KEY_SYSTEM, KEY_SPEC), (replace(KEY_SYSTEM, d_box=np.array([[-1.0, 2.0]])), KEY_SPEC)),
    # the same three rows drawn with the same calls, split between the boxes another way
    "box shape": (
        (replace(KEY_SYSTEM, d_box=np.vstack([BOX, BOX])), KEY_SPEC),
        (replace(KEY_SYSTEM, u_box=np.vstack([BOX, BOX])), KEY_SPEC),
    ),
    "u drawn": ((KEY_SYSTEM, KEY_SPEC, True), (KEY_SYSTEM, KEY_SPEC, False)),
}


def _points(blocks) -> list:
    """The point arrays of a draw's blocks: times, knot offsets, knot rows,
    knot counts and box points."""
    return [a for *arrays, drawn in blocks for a in (*arrays, *drawn)]


def _fresh_blocks(sys_, spec, boxes) -> list:
    """The points of each block of a fresh draw from ``spec.seed``, drawn as
    :func:`lyapunov._sample_blocks` draws them."""
    rng = np.random.default_rng(spec.seed)
    return [
        _draw_points(rng, count, sys_.delay_r, sys_.dim_n, spec.norm_bound, (spec.t_lo, spec.t_hi), boxes)
        for count in _blocks_of(spec.samples, FALSIFY_BLOCK)
    ]


class TestKeptDraw:
    """A sweep keeps the points it drew, beside the draws kept on its seed,
    and a later sweep that would draw exactly the same samples builds its
    windows from them without a generator call; every report is that of a
    fresh draw."""

    def test_the_whole_draw_is_made_before_the_first_sample(self, draws):
        sweep = lyapunov._sample_blocks(KEY_SYSTEM, KEY_SPEC, True)
        next(sweep)
        assert draws == _blocks_of(KEY_SPEC.samples, FALSIFY_BLOCK)
        # a sweep left before its last block files nothing
        sweep.close()
        assert lyapunov._kept is None

    def test_a_second_sweep_on_the_same_spec_makes_no_generator_call(self, draws):
        bundle = build_example("example-4.8")
        samples = FALSIFY_BLOCK + 1
        texts = []
        for name in ("weighted-input-decay", "weighted-input-decay", "unweighted-guard-fails"):
            texts.append(json.dumps(bundle.certificate(name).runner(samples=samples).to_json_dict(), sort_keys=True))
        assert draws == _blocks_of(samples, FALSIFY_BLOCK)
        assert texts[1] == texts[0]
        # the unweighted sweep on the weighted one's draw gives its pinned report
        pinned = BLOCK_REPORTS["example-4.8", "unweighted-guard-fails"][samples]
        assert hashlib.sha256(texts[2].encode()).hexdigest() == pinned

    def test_interleaved_specs_on_one_seed_keep_both_draws(self, draws, monkeypatch):
        samples = FALSIFY_BLOCK + 1
        a = build_example("example-4.8").certificate("weighted-input-decay").runner
        b = build_example("example-5.2").certificate("guarded-exponential-decay").runner
        texts, drawn = [], []
        for run in (a, b, a):
            del draws[:]
            texts.append(json.dumps(run(samples=samples).to_json_dict(), sort_keys=True))
            drawn.append(list(draws))
        assert drawn == [_blocks_of(samples, FALSIFY_BLOCK)] * 2 + [[]]
        monkeypatch.setattr(lyapunov, "_kept", None)
        assert json.dumps(a(samples=samples).to_json_dict(), sort_keys=True) == texts[2]

    def test_a_sweep_on_another_seed_drops_the_kept_draws(self, draws):
        fresh = _seen_by_callbacks(KEY_SYSTEM, KEY_SPEC)
        _seen_by_callbacks(KEY_SYSTEM, replace(KEY_SPEC, seed=1))
        del draws[:]
        assert _seen_by_callbacks(KEY_SYSTEM, KEY_SPEC) == fresh
        assert draws == _blocks_of(KEY_SPEC.samples, FALSIFY_BLOCK)

    @settings(max_examples=40, deadline=None)
    @given(
        budget=st.integers(0, 40_000),
        sweeps=st.lists(
            st.tuples(
                st.integers(0, 2),
                st.sampled_from([KEY_SYSTEM, replace(KEY_SYSTEM, delay_r=0.5), replace(KEY_SYSTEM, dim_n=2)]),
                st.sampled_from([1, FALSIFY_BLOCK, FALSIFY_BLOCK + 1, 300]),
                st.booleans(),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_the_kept_draws_fit_the_byte_budget_together(self, budget, sweeps):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lyapunov, "FALSIFY_KEEP_BYTES", budget)
            mp.setattr(lyapunov, "_kept", None)
            for seed, sys_, samples, draw_u in sweeps:
                spec = replace(KEY_SPEC, seed=seed, samples=samples)
                for _ in lyapunov._sample_blocks(sys_, spec, draw_u):
                    pass
                kept = {} if lyapunov._kept is None else lyapunov._kept[1]
                assert sum(a.nbytes for blocks in kept.values() for a in _points(blocks)) <= budget
                # the last sweep's draw is kept, as drawn, when it fits alone
                boxes = (sys_.u_box if draw_u else None, sys_.d_box)
                fresh = _points(_fresh_blocks(sys_, spec, boxes))
                key = lyapunov._draw_key(sys_, spec, boxes)
                assert (key in kept) == (sum(a.nbytes for a in fresh) <= budget)
                if key in kept:
                    got = _points(kept[key])
                    assert len(got) == len(fresh) and all(map(np.array_equal, got, fresh))

    @pytest.mark.parametrize("first, second", KEY_CHANGES.values(), ids=KEY_CHANGES.keys())
    def test_a_change_of_any_key_field_draws_afresh(self, draws, monkeypatch, first, second):
        fresh = _seen_by_callbacks(*second)
        monkeypatch.setattr(lyapunov, "_kept", None)
        assert _seen_by_callbacks(*first) != fresh
        del draws[:]
        assert _seen_by_callbacks(*second) == fresh
        assert draws

    def test_a_change_of_the_block_size_draws_afresh(self, draws, monkeypatch):
        seen = _seen_by_callbacks(KEY_SYSTEM, KEY_SPEC)
        monkeypatch.setattr(lyapunov, "FALSIFY_BLOCK", 7)
        del draws[:]
        assert _seen_by_callbacks(KEY_SYSTEM, KEY_SPEC) == seen
        assert draws == _blocks_of(KEY_SPEC.samples, 7)

    def test_a_seed_of_none_is_never_reused(self, draws):
        spec = replace(KEY_SPEC, seed=None)
        assert _seen_by_callbacks(KEY_SYSTEM, spec) != _seen_by_callbacks(KEY_SYSTEM, spec)
        assert draws == 2 * _blocks_of(spec.samples, FALSIFY_BLOCK)

    def test_a_draw_over_the_byte_budget_is_not_kept(self, draws, monkeypatch):
        fresh = _seen_by_callbacks(KEY_SYSTEM, KEY_SPEC)
        (blocks,) = lyapunov._kept[1].values()
        size = sum(a.nbytes for a in _points(blocks))
        for budget, drawn_again in [(size - 1, True), (size, False)]:
            monkeypatch.setattr(lyapunov, "FALSIFY_KEEP_BYTES", budget)
            monkeypatch.setattr(lyapunov, "_kept", None)
            _seen_by_callbacks(KEY_SYSTEM, KEY_SPEC)
            del draws[:]
            assert _seen_by_callbacks(KEY_SYSTEM, KEY_SPEC) == fresh
            assert bool(draws) == drawn_again

    def test_a_sweep_that_raises_an_uncounted_error_keeps_nothing(self, draws):
        calls = [0]

        def fails_in_the_second_block(t, seg, u, d):
            calls[0] += 1
            if calls[0] == FALSIFY_BLOCK + 2:
                raise TypeError("not a sample's failure to evaluate")

        # the kept draw is dropped when a new draw starts, and a sweep that
        # raises keeps nothing, so each sweep after one that raised draws
        other = replace(KEY_SPEC, seed=1)
        for after in (other, KEY_SPEC):
            _seen_by_callbacks(KEY_SYSTEM, other)
            calls[0] = 0
            with pytest.raises(TypeError):
                _seen_by_callbacks(KEY_SYSTEM, KEY_SPEC, dynamics=fails_in_the_second_block)
            del draws[:]
            _seen_by_callbacks(KEY_SYSTEM, after)
            assert draws == _blocks_of(KEY_SPEC.samples, FALSIFY_BLOCK)

    @pytest.mark.parametrize("draw_u", [True, False], ids=["u drawn", "zero u"])
    def test_a_callback_that_writes_into_u_and_d_does_not_change_a_later_sweep(self, draws, draw_u):
        def scribble(t, seg, u, d):
            u[...] = 7.0
            d[...] = 7.0

        fresh = _seen_by_callbacks(KEY_SYSTEM, KEY_SPEC, draw_u)
        _seen_by_callbacks(KEY_SYSTEM, KEY_SPEC, draw_u, dynamics=scribble)
        del draws[:]
        assert _seen_by_callbacks(KEY_SYSTEM, KEY_SPEC, draw_u) == fresh
        assert draws == []


def _guarded_52(rate, spec, Vr=None):
    """example-5.2's guarded decay sweep with the time-varying rate ``rate``."""
    bundle = build_example("example-5.2")
    return check_razumikhin(bundle.system, Vr or bundle.pointwise, linear(0.5), rate, spec)


def _weighted_48(spec, zeta=power(4.0, 0.5), rho=linear(0.5), V=None):
    """example-4.8's weighted input-decay sweep, with its parts swappable."""
    bundle = build_example("example-4.8")
    return check_lyapunov_ios(bundle.system, V or bundle.functional, zeta, exp_weight(2.0), rho, spec)


def _band_54(spec, zeta):
    """example-5.4's band energy decay sweep with the input gain ``zeta``."""
    bundle = build_example("example-5.4")
    R = bundle.params["R"]
    return check_razumikhin(
        bundle.system, bundle.pointwise, linear(0.25), linear(2.0 * R), spec, zeta=zeta, delta=constant(1.0),
    )


class TestNonFiniteValues:
    """A residual that is not a finite number and a guard comparison with
    NaN on either side are failures to evaluate, counted in
    ``eval_failures``; every report is strict JSON."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
    def test_a_non_finite_rate_fails_every_guarded_sample(self, value):
        spec = SamplerSpec(samples=400, seed=0)
        sweeps = [
            (_guarded_52(lambda t, v: value, spec), _guarded_52(lambda t, v: 0.0, spec)),
            (_weighted_48(spec, rho=ComparisonFn(lambda s: value)), _weighted_48(spec)),
        ]
        for rep, finite in sweeps:
            assert finite.samples_tested > 0
            assert (rep.samples_tested, rep.guard_skipped, rep.eval_failures) == (
                0, finite.guard_skipped, finite.samples_tested)
            assert rep.verdict == "inconclusive" and rep.witness is None
            assert rep.first_failure["type"] == "ValueError"
            assert rep.first_failure["message"].startswith("residual evaluated to a non-finite value")
            json.dumps(rep.to_json_dict(), allow_nan=False)

    def test_a_nan_guard_fails_the_sample_in_both_checkers(self):
        # a NaN on either side of a guard: the input level, or the energy now
        spec = SamplerSpec(samples=400, seed=0)
        nan = ComparisonFn(lambda s: math.nan)
        functional = build_example("example-4.8").functional
        pointwise = build_example("example-5.2").pointwise
        nan_now = RazumikhinFunction(lambda t, x: math.nan, pointwise.analytic_dini, pointwise.evaluator_many)
        held = _band_54(spec, zeta=ComparisonFn(lambda s: 0.0 * s))  # an input guard that always holds
        assert held.samples_tested > 0
        cases = [
            (_weighted_48(spec, zeta=nan), (0, 0, 400)),
            (_weighted_48(spec, V=replace(functional, evaluator=lambda t, seg: math.nan)), (0, 0, 400)),
            # the window guard's values stay finite: only the energy now is NaN
            (_guarded_52(lambda t, v: 0.0, spec, nan_now), (0, 0, 400)),
            # the samples that pass the window guard reach the NaN input level
            (_band_54(spec, zeta=nan), (0, held.guard_skipped, held.samples_tested)),
        ]
        for rep, counts in cases:
            assert (rep.samples_tested, rep.guard_skipped, rep.eval_failures) == counts
            assert rep.verdict == "inconclusive"
            assert rep.first_failure["type"] == "ValueError"
            assert rep.first_failure["message"].startswith("guard compares NaN")
            json.dumps(rep.to_json_dict(), allow_nan=False)

class TestConverseEnergy:
    def test_zero_history_gives_zero(self):
        val = converse_functional_uq(
            CONTRACTION, q=5, a1=identity(), a2=identity(), beta=constant(1.0),
            disturbance_ensemble=[constant_signal([0.0])],
            t=0.0, x=HistorySegment.constant(1.0, [0.0]),
        )
        assert val == 0.0

    @pytest.mark.parametrize("q", [np.nan, 2.5, np.inf, True, 3.0], ids=["nan", "2.5", "inf", "True", "3.0"])
    def test_q_must_be_an_integer_of_at_least_one(self, q):
        with pytest.raises(ValueError, match="positive integer"):
            converse_functional_uq(
                CONTRACTION, q=q, a1=identity(), a2=identity(), beta=constant(1.0),
                disturbance_ensemble=[constant_signal([0.0])],
                t=0.0, x=HistorySegment.constant(1.0, [0.5]),
            )

    @pytest.mark.parametrize("empty", [list, tuple, iter], ids=["list", "tuple", "iterator"])
    def test_an_empty_ensemble_raises_before_any_run(self, empty):
        # with one run this is 1.5: the tau = t term of the window 2 at q = 2
        def unrun(t, seg, u, d):
            raise AssertionError("ran the dynamics")

        with pytest.raises(ValueError, match="empty ensemble"):
            converse_functional_uq(
                replace(CONTRACTION, dynamics=unrun), q=2, a1=identity(), a2=identity(), beta=constant(1.0),
                disturbance_ensemble=empty(()), t=0.0, x=HistorySegment.constant(1.0, [2.0]),
            )

    def test_a_numpy_integer_q_is_an_integer(self):
        kwargs = dict(
            a1=identity(), a2=identity(), beta=constant(1.0),
            disturbance_ensemble=[constant_signal([0.0])], t=0.0, x=HistorySegment.constant(1.0, [0.5]),
        )
        assert converse_functional_uq(CONTRACTION, q=np.int64(4), **kwargs) == converse_functional_uq(
            CONTRACTION, q=4, **kwargs
        )

    def test_clamp_zeroes_small_state(self):
        # x : 0.05 e^{-tau}; a1 = id, q = 10: every term <= max(0, 0.05 e^{-s} - 0.1) e^s = 0
        val = converse_functional_uq(
            CONTRACTION, q=10, a1=identity(), a2=identity(), beta=constant(1.0),
            disturbance_ensemble=[constant_signal([0.0])],
            t=0.0, x=HistorySegment.constant(1.0, [0.05]),
        )
        assert val == 0.0

    def test_monotone_in_q(self):
        x = HistorySegment.constant(1.0, [0.8])
        ens = [constant_signal([0.0])]
        vals = [
            converse_functional_uq(
                CONTRACTION, q=q, a1=identity(), a2=identity(), beta=constant(1.0),
                disturbance_ensemble=ens, t=0.0, x=x,
            )
            for q in (1, 2, 5, 10, 50)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_lower_sandwich(self):
        x = HistorySegment.constant(1.0, [0.8])
        q = 10
        val = converse_functional_uq(
            CONTRACTION, q=q, a1=identity(), a2=identity(), beta=constant(1.0),
            disturbance_ensemble=[constant_signal([0.0])], t=0.0, x=x,
        )
        assert val >= max(0.0, 0.8 - 1.0 / q) - 1e-12

    def test_ensemble_term_above_the_base_term(self):
        # x' = 0 keeps the output at 0.8 over T = log(1 + q * 0.8) / 2 = log 3,
        # so the term at t + T, (0.8 - 1/q) e^T = 2.1, sets the value
        still = RfdeSystem(
            delay_r=1.0, dim_n=1, dynamics=lambda t, seg, u, d: np.zeros(1),
            output=lambda t, seg: seg.head, d_box=ZERO_D,
        )
        val = converse_functional_uq(
            still, q=10, a1=identity(), a2=identity(), beta=constant(1.0),
            disturbance_ensemble=[constant_signal([0.0])], t=0.0,
            x=HistorySegment.constant(1.0, [0.8]),
        )
        assert val == pytest.approx(0.7 * 3.0, rel=1e-12)

    @staticmethod
    def _contracting_family(dynamics=None):
        """Acceptance criterion 8's scalar decay, whose rate the disturbance
        modulates within [1, 1.5], and its three constant disturbances."""
        sys_ = RfdeSystem(
            delay_r=0.5, dim_n=1,
            dynamics=dynamics or (lambda t, seg, u, d: np.array([-(1.25 + d[0]) * seg.head[0]])),
            output=lambda t, seg: seg.head, d_box=np.array([[-0.25, 0.25]]),
        )
        ensemble = [constant_signal(np.array([c]), box=sys_.d_box) for c in (-0.25, 0.0, 0.25)]
        return sys_, ensemble

    def test_lock_step_is_the_sequential_loop(self):
        # the members share one grid and advance together; the value must be
        # the one a member-by-member loop of integrate gives, bit for bit
        sys_, ensemble = self._contracting_family()
        ident, one, opts = identity(), constant(1.0), IntegrateOpts(step_req=2e-2)

        def sequential(q, t, x):
            R = max(t, sup_norm(x))
            horizon = max(0.0, 0.5 * math.log(1.0 + q * float(ident(float(one(R)) * R))))
            best = max(0.0, output_norm(sys_.output(t, x)) - 1.0 / q)
            for dsig in ensemble:
                traj = integrate(sys_, t, x, None, dsig, t + horizon, opts)
                assert traj.status == "completed"
                for tau, y in zip(traj.times, traj.outputs):
                    best = max(best, max(0.0, output_norm(y) - 1.0 / q) * math.exp(tau - t))
            return best

        rng = np.random.default_rng(42)
        qs = (1, 2, 3, 5, 8, 13, 21, 34, 50)
        for k in range(200):
            q, t = qs[k % len(qs)], float(rng.uniform(0.0, 3.0))
            x = sample_history(rng, 0.5, 1, 3.0)
            value = converse_functional_uq(sys_, q, ident, ident, one, ensemble, t, x, opts)
            assert value == sequential(q, t, x)

    def test_a_raising_member_propagates(self):
        class Boom(Exception):
            pass

        def dynamics(t, seg, u, d):
            if d[0] == 0.0 and t > 1.1:  # member 1, a few steps in
                raise Boom(t)
            return np.array([-(1.25 + d[0]) * seg.head[0]])

        sys_, ensemble = self._contracting_family(dynamics)
        with pytest.raises(Boom):
            converse_functional_uq(
                sys_, 8, identity(), identity(), constant(1.0), ensemble, 1.0,
                HistorySegment.constant(0.5, [2.0]), IntegrateOpts(step_req=2e-2),
            )
