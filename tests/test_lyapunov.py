"""Dini derivatives, the sup-norm Lipschitz bound, falsifiers, and the converse energy."""

import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

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

    def test_numeric_ladders_and_slides_are_pinned(self):
        # sha256 over 2,000 seeded numeric Dini values of example-4.8's window
        # energy and the windows extend slides them to, recorded when each
        # rung built its probes and each slide its rows one at a time
        bundle = build_example("example-4.8")
        sys_, V = bundle.system, bundle.functional
        r = sys_.delay_r
        rng = np.random.default_rng(48)
        digest = hashlib.sha256()
        for _ in range(2000):
            t = float(rng.uniform(0.0, 5.0))
            seg = sample_history(rng, r, sys_.dim_n, 2.0)
            v = rng.uniform(-4.0, 4.0, sys_.dim_n)
            digest.update(np.float64(dini_functional(V, t, seg, v, NUMERIC)).tobytes())
            # a slide whose lower end lands on or next to a knot, and one anywhere
            knot = float(seg.grid[rng.integers(1, seg.grid.size - 1)])
            for step in (knot + r, float(rng.uniform(0.0, r))):
                slid = extend(seg, v, step)
                digest.update(slid.grid.tobytes() + slid.values.tobytes())
        assert digest.hexdigest() == "64d8e2556c500f295e266fed45f0ee2c7f443c44b53778b45544732e9405ad43"


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

        monkeypatch.setattr(lyapunov, "_draw_block", no_draw)
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
# window at a time; the sample counts straddle blocks of 64 samples
BLOCK_REPORTS = {
    ("example-4.8", "unweighted-guard-fails"): {
        63: "3f6f3b4dfe948379ca006c3e3dfe21d953cc53cdcf3db5285b3a779d9f1aa104",
        64: "de86ff44876fa2b5a0e06af7b2efeacea16f00e1dc34f9d8d4c21aeb32cb1000",
        65: "fd0020e64725b62d629e2519a688a180d485cc3c29167ee1c972cdb6ff2c7ef8",
        131: "27c73d6dc496cc6ea89b1d44dd4e3ef3519306ae31deada22424c698f9c873f9",
    },
    ("example-5.4", "band-energy-decay"): {
        63: "298a00c85d645b0b4bee9ee9ebf01794644731dd29472e8f06d89f0c48616657",
        64: "e5b202842f27973d69815d71d2e576e7d99eab5968ceb31b8e4e1c0a734c9b3c",
        65: "8deeb0bb99787bfe2d88af077ac6967e826a038bc5bf19dcc1da893716728dcc",
        131: "a526b4c9c9fa1249d575e3841a3a178968a71be0261d1826ed2289382bd62116",
    },
    ("example-5.2", "guarded-exponential-decay"): {
        63: "b01cf86452442405ee43900372c4420930e237227690a2ed3f17ce42ba7f536f",
        64: "51334588ee058e5f3f8fa61d6f43753a92103fc1e23e3adbe50f256dabe9ec60",
        65: "4abec1946620817b918bb7d1a8da1433f9891966e1709857480850c5695078b8",
        131: "52b9051ce8fadfb48b0c1efe9d7e5228692e6cc958980dd0ce6911982622525c",
    },
}


class TestSampleBlocks:
    """Falsifiers draw their samples in blocks of FALSIFY_BLOCK and build each
    block's windows at once; reports stay those of one-at-a-time sampling."""

    def test_recorded_counts_straddle_the_block(self):
        assert sorted(BLOCK_REPORTS["example-4.8", "unweighted-guard-fails"]) == [
            FALSIFY_BLOCK - 1, FALSIFY_BLOCK, FALSIFY_BLOCK + 1, 2 * FALSIFY_BLOCK + 3,
        ]

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
