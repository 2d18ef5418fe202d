"""Method-of-steps integration, moduli estimation, continuity bound, completeness probe."""

import copy
import hashlib
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from rfdestab import (
    HistorySegment,
    IntegrateOpts,
    KlFn,
    LipschitzModuli,
    PiecewiseSignal,
    RegionSpec,
    RfdeSystem,
    SignalSpec,
    build_example,
    check_continuity_bound,
    check_rfc,
    constant,
    constant_signal,
    converse_functional_uq,
    estimate_lipschitz_moduli,
    integrate,
    output_distance,
    output_norm,
    power,
    sample_history,
    sample_signal,
    trajectory_to_csv,
    verify_ios_envelope,
)
from rfdestab.simulator import _AHEAD, _Dense, _draw_runs, _integrate_runs, _uniform_box

ZERO_D = np.array([[0.0, 0.0]])


def scalar_system(rhs, delay=1.0, output=None, **kw):
    return RfdeSystem(
        delay_r=delay,
        dim_n=1,
        dynamics=rhs,
        output=output or (lambda t, seg: seg.values[-1]),
        d_box=ZERO_D,
        **kw,
    )


def contraction():
    # x' = -x(t): delay-free decay written as a window functional
    return scalar_system(lambda t, seg, u, d: -seg.values[-1])


def _same_window(a, b):
    return np.array_equal(a.grid, b.grid) and np.array_equal(a.values, b.values)


def delayed_negative_feedback():
    # x' = -x(t - 1)
    return scalar_system(lambda t, seg, u, d: -seg.values[0])


class TestIntegrateBasics:
    def test_zero_equilibrium(self):
        sys_ = contraction()
        x0 = HistorySegment.constant(1.0, [0.0])
        traj = integrate(sys_, 0.0, x0, None, None, 10.0, IntegrateOpts(step_req=0.01))
        assert traj.status == "completed"
        assert np.abs(traj.states).max() <= 1e-12

    def test_decoupled_exponential_growth(self):
        # first state channel x' = d*x with d = 1 grows like e^t
        sys_ = RfdeSystem(
            delay_r=0.5,
            dim_n=2,
            dynamics=lambda t, seg, u, d: np.array([d[0] * seg.values[-1, 0], 0.0]),
            output=lambda t, seg: seg.values[-1],
            d_box=np.array([[-1.0, 1.0]]),
        )
        x0 = HistorySegment.constant(0.5, [1.0, 0.0])
        traj = integrate(
            sys_, 0.0, x0, None, constant_signal([1.0]), 1.0, IntegrateOpts(step_req=1e-3)
        )
        assert traj.state(1.0)[0] == pytest.approx(np.e, abs=1e-6)

    def test_first_interval_of_delayed_equation(self):
        # x' = -x(t-1) with unit constant history: x(t) = 1 - t on [0, 1]
        sys_ = delayed_negative_feedback()
        x0 = HistorySegment.constant(1.0, [1.0])
        traj = integrate(sys_, 0.0, x0, None, None, 1.0, IntegrateOpts(step_req=0.05))
        for t in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert traj.state(t)[0] == pytest.approx(1.0 - t, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        sys_ = contraction()
        with pytest.raises(ValueError):
            integrate(sys_, 0.0, HistorySegment.constant(1.0, [0.0, 0.0]), None, None, 1.0)
        with pytest.raises(ValueError):
            integrate(sys_, 0.0, HistorySegment.constant(0.5, [0.0]), None, None, 1.0)

    def test_backwards_horizon_rejected(self):
        sys_ = contraction()
        with pytest.raises(ValueError):
            integrate(sys_, 1.0, HistorySegment.constant(1.0, [0.0]), None, None, 0.5)

    @pytest.mark.parametrize(
        "t0, t_end, named",
        [
            (0.0, math.nan, "t_end must be finite, got nan"),
            (0.0, math.inf, "t_end must be finite, got inf"),
            (math.nan, 1.0, "t0 must be finite, got nan"),
            (0.0, 1e308, "step count (t_end - t0) / step = inf"),
            (0.0, 1e300, "step count (t_end - t0) / step = 1e+303"),
        ],
    )
    def test_a_horizon_no_grid_can_hold_is_refused(self, t0, t_end, named):
        # NaN failed on its way to an integer, inf and 1e308 overflowed it,
        # and 1e300 asked NumPy for 1e303 nodes: each is refused before a
        # signal is read
        class Unread:
            def __getattr__(self, name):
                raise AssertionError(f"signal read: {name}")

        x0 = HistorySegment.constant(1.0, [1.0])
        with pytest.raises(ValueError) as refused:
            integrate(contraction(), t0, x0, None, Unread(), t_end, IntegrateOpts(step_req=1e-3))
        assert named in str(refused.value)

    def test_signal_before_time_zero_rejected(self):
        # signals are defined on [0, inf); a run without one may start earlier
        sys_ = contraction()
        x0 = HistorySegment.constant(1.0, [1.0])
        with pytest.raises(ValueError, match="defined on"):
            integrate(sys_, -0.5, x0, None, constant_signal([0.0]), 1.0)
        assert integrate(sys_, -0.5, x0, None, None, 1.0).status == "completed"

    def test_determinism_bitwise(self):
        sys_ = delayed_negative_feedback()
        rng = np.random.default_rng(0)
        x0 = sample_history(rng, 1.0, 1, 2.0)
        a = integrate(sys_, 0.0, x0, None, None, 4.0, IntegrateOpts(step_req=0.01))
        b = integrate(sys_, 0.0, x0, None, None, 4.0, IntegrateOpts(step_req=0.01))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_switch_times_inserted_as_nodes(self):
        sys_ = RfdeSystem(
            delay_r=1.0,
            dim_n=1,
            dynamics=lambda t, seg, u, d: np.atleast_1d(d[0]),
            output=lambda t, seg: seg.values[-1],
            d_box=np.array([[-1.0, 1.0]]),
        )
        d_sig = PiecewiseSignal(
            np.array([0.7321]), np.array([[1.0], [-1.0]]), np.array([[-1.0, 1.0]])
        )
        x0 = HistorySegment.constant(1.0, [0.0])
        traj = integrate(sys_, 0.0, x0, None, d_sig, 2.0, IntegrateOpts(step_req=0.25))
        assert np.any(np.isclose(traj.times, 0.7321, atol=1e-12))
        # integral of the piecewise-constant slope is exact at nodes
        assert traj.state(2.0)[0] == pytest.approx(0.7321 - (2.0 - 0.7321), abs=1e-12)


class TestTrajectoryAccessors:
    def test_initial_window_reproduced_exactly(self):
        sys_ = delayed_negative_feedback()
        rng = np.random.default_rng(1)
        x0 = sample_history(rng, 1.0, 1, 1.0)
        traj = integrate(sys_, 0.0, x0, None, None, 3.0, IntegrateOpts(step_req=0.05))
        w0 = traj.history(0.0)
        for th in x0.grid:
            assert np.allclose(w0.eval(th), x0.eval(th), atol=1e-14)

    def test_nan_time_raises(self):
        x0 = HistorySegment.constant(1.0, [1.0])
        traj = integrate(contraction(), 0.0, x0, None, None, 1.0, IntegrateOpts(step_req=0.1))
        for read in (traj.state, traj.history):
            with pytest.raises(ValueError, match="outside"):
                read(float("nan"))

    def test_a_state_row_is_the_callers_own(self):
        # on a node and between nodes, in a solo run and in a lock-step
        # group's column of the stack: writing the row changes no later read
        x0 = HistorySegment.constant(1.0, [1.0])
        sys_, opts = delayed_negative_feedback(), IntegrateOpts(step_req=0.1)
        group = _integrate_runs(sys_, 0.0, [(x0, None, None), (x0.add_constant([0.5]), None, None)], 2.0, opts)
        for traj in [integrate(sys_, 0.0, x0, None, None, 2.0, opts), *group]:
            for t in (0.0, 0.5, 0.55, 2.0):
                row = traj.state(t)
                kept = row.copy()
                row[...] = -7.0
                assert np.array_equal(traj.state(t), kept)

    def test_a_pickled_or_copied_window_carries_its_own_rows(self):
        system = build_example("example-5.2").system
        runs = _draw_runs(system, np.random.default_rng(0), 1, 1.0, 1.0, 0.4)
        (traj,) = _integrate_runs(system, 0.0, runs, 1.0, IntegrateOpts(step_req=1e-3))
        window = traj._dense.node_window(traj.times.size - 1)
        # its row at -r, at t = 0, is a stored knot: the window lends the store's rows
        assert np.shares_memory(window.values, traj._dense.V)
        plain = HistorySegment(window.delay, window.grid, window.values)
        assert len(pickle.dumps(window)) <= len(pickle.dumps(plain)) + 1024
        for dup in (pickle.loads(pickle.dumps(window)), copy.copy(window), copy.deepcopy(window)):
            assert type(dup) is HistorySegment and dup == plain
            assert not np.shares_memory(dup.values, traj._dense.V)

    def test_history_matches_state_samples(self):
        sys_ = delayed_negative_feedback()
        rng = np.random.default_rng(2)
        x0 = sample_history(rng, 1.0, 1, 1.0)
        traj = integrate(sys_, 0.0, x0, None, None, 5.0, IntegrateOpts(step_req=0.02))
        for t in (1.3, 2.0, 4.7):
            seg = traj.history(t)
            # exact at the window's own knots (they are trajectory nodes)
            direct = np.array([traj.state(u) for u in t + seg.grid])
            assert np.allclose(seg.values, direct, atol=1e-12)
            # between knots the window is piecewise-linear: O(step^2) gap only
            thetas = np.linspace(-1.0, 0.0, 23)
            gap = seg.eval_many(thetas) - np.array([traj.state(u) for u in t + thetas])
            assert np.abs(gap).max() <= 5e-4

    def test_integral_of_a_window_without_inner_knots(self):
        # from a constant window the window at t0 has only its two end rows
        seen = []

        def rhs(t, seg, u, d):
            seen.append((t, seg.integral(), seg.grid.size))
            return -seg.integral()

        x0 = HistorySegment.constant(0.5, [1.5, -2.0])
        system = RfdeSystem(0.5, 2, rhs, lambda t, seg: seg.head, ZERO_D)
        integrate(system, 0.0, x0, None, None, 0.1, IntegrateOpts(step_req=0.05))
        t, integral, size = seen[0]
        assert t == 0.0 and size == 2
        assert np.array_equal(integral, [0.75, -1.0])
        assert all(size > 2 for t, _, size in seen[1:])

    def test_history_at_nodes_is_the_window_the_dynamics_saw(self):
        # example-5.2 at a fine step: t - r falls between knots at most nodes,
        # and a knot just above t - r can round onto offset -r; the other two
        # bundles switch both their input and their disturbance
        for name, step, horizon in (
            ("example-5.2", 2e-4, 1.4), ("example-4.8", 1e-2, 4.0), ("example-5.4", 5e-3, 3.0),
        ):
            system = build_example(name).system
            seen = {}

            def dynamics(t, seg, u, d, f=system.dynamics):
                seen[t] = seg  # the node-time call after a step comes last
                return f(t, seg, u, d)

            rng = np.random.default_rng(0)
            x0 = sample_history(rng, system.delay_r, system.dim_n, 1.0)
            d_sig = sample_signal(SignalSpec(system.d_box, horizon, 0.4, seed=int(rng.integers(2**32))))
            u_sig = None
            if system.u_box is not None:
                u_sig = sample_signal(
                    SignalSpec(system.u_box, horizon, 0.5, seed=int(rng.integers(2**32)))
                )
                assert u_sig.switches_in(0.0, horizon).size > 0
            opts = IntegrateOpts(step_req=step)
            traj = integrate(replace(system, dynamics=dynamics), 0.0, x0, u_sig, d_sig, horizon, opts)
            assert traj.status == "completed"
            mismatched = []
            for t, y in zip(traj.times, traj.outputs):
                seg = traj.history(t)
                expected = system.output(t, seen[t])
                if not (
                    _same_window(seg, seen[t])
                    and (_same_window(y, expected) if isinstance(y, HistorySegment)
                         else np.array_equal(y, expected))
                ):
                    mismatched.append(float(t))
            assert not mismatched, (
                f"{name}: {len(mismatched)} of {traj.times.size} nodes differ, first at {mismatched[0]!r}"
            )

    def test_outputs_stay_aligned_after_a_step_failure(self):
        # calls: 1 at t0, then k2, k3, k4 and f_end per step; the 13th is the
        # f_end of the third step, after its node was appended
        calls = [0]

        def rhs(t, seg, u, d):
            calls[0] += 1
            return np.array([np.nan if calls[0] == 13 else -seg.head[0]])

        traj = integrate(
            scalar_system(rhs), 0.0, HistorySegment.constant(1.0, [1.0]), None, None, 2.0,
            IntegrateOpts(step_req=0.1),
        )
        assert traj.status == "step_failure"
        assert len(list(traj.outputs)) == traj.times.size == traj.output_norms().size == 4
        # the last piece is read with the slope k4 that arrived at its node
        assert np.isfinite(traj.state(0.25)).all()
        lines = trajectory_to_csv(traj, list(traj.outputs)).strip().splitlines()
        assert len(lines) == 1 + traj.times.size

    def test_record_output_is_inert(self):
        system = build_example("example-5.4").system
        rng = np.random.default_rng(3)
        x0 = sample_history(rng, system.delay_r, system.dim_n, 1.0)
        d_sig = sample_signal(SignalSpec(system.d_box, 3.0, 0.4, seed=5))
        u_sig = sample_signal(SignalSpec(system.u_box, 3.0, 0.5, seed=6))
        on, off = (
            integrate(system, 0.0, x0, u_sig, d_sig, 3.0, IntegrateOpts(step_req=5e-3, record_output=flag))
            for flag in (True, False)
        )
        assert np.array_equal(on.times, off.times) and np.array_equal(on.states, off.states)
        outs_on, outs_off = list(on.outputs), list(off.outputs)
        assert len(outs_on) == len(outs_off) == on.times.size  # before zip, which stops at the shorter
        assert all(_same_window(a, b) for a, b in zip(outs_on, outs_off))
        # a converse probe and an envelope check read the outputs either way
        ensemble = [constant_signal(np.array([0.5]), box=system.d_box)]
        values = [
            converse_functional_uq(
                system, 2, power(1.0), power(1.0), power(1.0), ensemble, 0.0, x0,
                IntegrateOpts(step_req=1e-2, record_output=flag),
            )
            for flag in (True, False)
        ]
        assert values[0] == values[1]
        # the run has an input; the roomy envelope still dominates the gain term
        one = constant(1.0)
        roomy = KlFn(fn=lambda s, t: 1e6, name="roomy")
        assert verify_ios_envelope([off], roomy, one, one, one).passed

    def test_outputs_are_read_lazily_once_per_node_in_order(self):
        seen = []

        def output(t, seg):
            seen.append(t)
            return seg.head.copy()

        traj = integrate(
            scalar_system(lambda t, seg, u, d: -seg.head, output=output), 0.0,
            HistorySegment.constant(1.0, [1.0]), None, None, 1.0, IntegrateOpts(step_req=0.1),
        )
        assert seen == []  # integrate never calls the output map
        first = list(traj.outputs)
        assert seen == traj.times.tolist()
        second = list(traj.outputs)
        assert seen == 2 * traj.times.tolist()  # each read calls it again, node by node
        assert len(first) == len(second) == traj.times.size
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
        assert all(np.array_equal(y, x) for y, x in zip(first, traj.states))

    def test_a_failing_output_raises_when_its_node_is_reached(self):
        class Boom(Exception):
            pass

        k = 3
        failing = []  # the time of node k, once the run has it

        def output(t, seg):
            if t in failing:
                raise Boom(t)
            return seg.head

        traj = integrate(
            scalar_system(lambda t, seg, u, d: -seg.head, output=output), 0.0,
            HistorySegment.constant(1.0, [1.0]), None, None, 1.0, IntegrateOpts(step_req=0.1),
        )
        failing.append(traj.times[k])
        outputs = iter(traj.outputs)
        for _ in range(k):
            next(outputs)  # nodes before k read fine
        with pytest.raises(Boom):
            next(outputs)

    def test_csv_round_trip_shape(self):
        sys_ = contraction()
        x0 = HistorySegment.constant(1.0, [1.0])
        traj = integrate(sys_, 0.0, x0, None, None, 1.0, IntegrateOpts(step_req=0.1))
        text = trajectory_to_csv(traj, list(traj.outputs))
        lines = text.strip().splitlines()
        assert lines[0] == "t,x_1,|x|,out_1"
        body = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert body.shape[0] == traj.times.size
        # repr round-trip: parsing gives back the stored values bitwise
        assert np.array_equal(body[:, 0], traj.times)
        assert np.array_equal(body[:, 1], traj.states[:, 0])


class TestBlowUpAndFailure:
    def test_quadratic_escape_reported(self):
        sys_ = scalar_system(lambda t, seg, u, d: seg.values[-1] ** 2)
        x0 = HistorySegment.constant(1.0, [2.0])
        traj = integrate(sys_, 0.0, x0, None, None, 1.0, IntegrateOpts(step_req=1e-3))
        assert traj.status == "blew_up"
        assert traj.t_event is not None and traj.t_event <= 0.6

    def test_nonfinite_dynamics_is_step_failure(self):
        def rhs(t, seg, u, d):
            return np.array([np.nan if t > 0.5 else -seg.values[-1, 0]])

        sys_ = scalar_system(rhs)
        x0 = HistorySegment.constant(1.0, [1.0])
        traj = integrate(sys_, 0.0, x0, None, None, 2.0, IntegrateOpts(step_req=0.05))
        assert traj.status == "step_failure"
        assert traj.t_event is not None and 0.4 <= traj.t_event <= 0.7

    def test_stage_only_nan_fails_the_step(self):
        # finite at every node, NaN at the midpoint stages after t = 0.5: only
        # the stages k2, k3 see it, and x_next carries it into the one check
        h = 0.1

        def rhs(t, seg, u, d):
            off_node = abs(t / h - round(t / h)) > 0.25
            return np.array([np.nan if off_node and t > 0.5 else -seg.head[0]])

        traj = integrate(
            scalar_system(rhs), 0.0, HistorySegment.constant(1.0, [1.0]), None, None, 2.0,
            IntegrateOpts(step_req=h),
        )
        assert traj.status == "step_failure"
        assert traj.t_event == h * 6  # the end of the step [0.5, 0.6]
        assert traj.times[-1] == h * 5 and np.isfinite(traj.states).all()


    @pytest.mark.parametrize("field", ["step_req", "blowup_norm"])
    @pytest.mark.parametrize("value", [math.nan, 0.0, -1.0])
    def test_options_are_checked(self, field, value):
        # NaN used to switch the blow-up guard off, -1 stopped every run after
        # one step, and a NaN step failed on its way to an integer
        opts = IntegrateOpts(**{field: value})
        with pytest.raises(ValueError, match=f"IntegrateOpts.{field} must be positive"):
            integrate(contraction(), 0.0, HistorySegment.constant(1.0, [1.0]), None, None, 1.0, opts)

    def test_infinite_blowup_norm_is_no_guard(self):
        # x' = x^2 from 2 escapes at t = 0.5: with the guard at 1e9 the run
        # ends blew_up; without one it runs on until the state overflows
        sys_ = scalar_system(lambda t, seg, u, d: seg.head ** 2)
        x0 = HistorySegment.constant(1.0, [2.0])
        guarded = integrate(sys_, 0.0, x0, None, None, 1.0, IntegrateOpts(step_req=1e-2))
        assert guarded.status == "blew_up" and guarded.t_event == pytest.approx(0.51)
        with np.errstate(over="ignore", invalid="ignore"):
            opts = IntegrateOpts(step_req=1e-2, blowup_norm=math.inf)
            free = integrate(sys_, 0.0, x0, None, None, 1.0, opts)
        assert free.status == "step_failure" and free.t_event > guarded.t_event
        assert np.isfinite(free.states).all() and np.abs(free.states).max() > 1e100

    @pytest.mark.filterwarnings("error")
    def test_the_checks_of_a_huge_state_are_quiet(self):
        # x' = x from 1e154 passes 1.34e154, where the square of the state
        # overflows: the checks raise no warning and change no value, so the
        # states are those of the run from 2**-512 times as much, scaled up
        # (a power of two scales every step exactly)
        sys_ = scalar_system(lambda t, seg, u, d: seg.head)
        opts = IntegrateOpts(step_req=1e-2, blowup_norm=math.inf)
        big = integrate(sys_, 0.0, HistorySegment.constant(1.0, [1e154]), None, None, 2.0, opts)
        assert big.status == "completed" and big.t_event is None
        assert np.isfinite(big.states).all() and big.states.max() > 7e154
        small = integrate(sys_, 0.0, HistorySegment.constant(1.0, [math.ldexp(1e154, -512)]), None, None, 2.0, opts)
        assert np.array_equal(big.states, np.ldexp(small.states, 512))
        # the guard compares np.linalg.norm, which is inf from about 1.34e154
        # on, so a guard set higher fires there
        opts = IntegrateOpts(step_req=1e-2, blowup_norm=1e200)
        capped = integrate(sys_, 0.0, HistorySegment.constant(1.0, [1e154]), None, None, 2.0, opts)
        assert capped.status == "blew_up" and capped.t_event == pytest.approx(0.3)
        assert 1.34e154 < capped.states[-1, 0] < 1.35e154


class TestOutputHelpers:
    def test_output_norm_vector_and_window(self):
        assert output_norm(np.array([3.0, 4.0])) == pytest.approx(5.0)
        seg = HistorySegment.constant(1.0, [3.0, 4.0])
        assert output_norm(seg) == pytest.approx(5.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_output_norm_of_a_huge_vector_is_a_quiet_inf(self):
        # the square of 1e200 overflows: np.linalg.norm gives inf there too
        assert output_norm(np.full(3, 1e200)) == math.inf
        assert output_norm(np.full(3, 1e150)) == float(np.linalg.norm(np.full(3, 1e150)))

    def test_output_distance(self):
        assert output_distance(np.array([1.0]), np.array([3.0])) == pytest.approx(2.0)
        a = HistorySegment.constant(1.0, [1.0])
        b = HistorySegment.constant(1.0, [2.5])
        assert output_distance(a, b) == pytest.approx(1.5)


class TestUniformBox:
    @pytest.mark.parametrize(
        "box",
        [
            np.array([[-1.0, 1.0]]),
            np.array([[-1.0, 1.0], [0.0, 1e-3], [2.5, 7.0]]),
            np.array([[0.3, 0.3], [-2.0, 2.0]]),  # a degenerate row
        ],
    )
    def test_bitwise_the_array_bound_draw(self, box):
        rng, ref = np.random.default_rng(17), np.random.default_rng(17)
        for _ in range(10_000):
            got = _uniform_box(rng, box)
            want = ref.uniform(box[:, 0], box[:, 1])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("box", [None, np.zeros((0, 2))])
    def test_empty_box_draws_nothing(self, box):
        rng = np.random.default_rng(17)
        state = rng.bit_generator.state
        assert _uniform_box(rng, box).shape == (0,)
        assert rng.bit_generator.state == state


class TestLipschitzModuli:
    def test_zero_dynamics_zero_modulus(self):
        sys_ = scalar_system(lambda t, seg, u, d: np.zeros(1))
        moduli = estimate_lipschitz_moduli(
            sys_, RegionSpec(0.0, 1.0, 2.0), samples=200, rng=np.random.default_rng(0)
        )
        assert moduli.one_sided_state == 0.0

    def test_linear_dynamics_modulus_near_matrix_bound(self):
        # x' = 3 x(t): one-sided modulus is exactly 3; estimate within 1.5x
        sys_ = scalar_system(lambda t, seg, u, d: 3.0 * seg.values[-1])
        moduli = estimate_lipschitz_moduli(
            sys_, RegionSpec(0.0, 1.0, 2.0), samples=2000, rng=np.random.default_rng(1)
        )
        assert 2.5 <= moduli.one_sided_state <= 3.0 * 1.5 + 1e-9

    def test_contraction_modulus_clamped_nonnegative(self):
        # x' = -3 x(t): the one-sided quotient is negative everywhere
        sys_ = scalar_system(lambda t, seg, u, d: -3.0 * seg.values[-1])
        moduli = estimate_lipschitz_moduli(
            sys_, RegionSpec(0.0, 1.0, 2.0), samples=500, rng=np.random.default_rng(1)
        )
        assert moduli.one_sided_state == 0.0

    def test_identity_output_modulus(self):
        sys_ = scalar_system(lambda t, seg, u, d: np.zeros(1), output=lambda t, seg: seg)
        moduli = estimate_lipschitz_moduli(
            sys_, RegionSpec(0.0, 1.0, 2.0), samples=500, rng=np.random.default_rng(2)
        )
        assert moduli.output_rate <= 1.5 + 1e-9

    def test_empty_sample_flagged(self):
        sys_ = contraction()
        moduli = estimate_lipschitz_moduli(
            sys_, RegionSpec(0.0, 1.0, 2.0), samples=0, rng=np.random.default_rng(3)
        )
        assert moduli.low_confidence


class TestContinuityBound:
    def test_identical_starts_zero_ratio(self):
        sys_ = contraction()
        x0 = HistorySegment.constant(1.0, [1.0])
        moduli = estimate_lipschitz_moduli(
            sys_, RegionSpec(0.0, 2.0, 2.0), samples=300, rng=np.random.default_rng(4)
        )
        rep = check_continuity_bound(sys_, 0.0, x0, x0, None, None, 2.0, moduli)
        assert rep.passed and rep.worst_ratio == 0.0

    def test_contraction_pair(self):
        sys_ = contraction()
        x0 = HistorySegment.constant(1.0, [1.0])
        y0 = HistorySegment.constant(1.0, [1.1])
        moduli = estimate_lipschitz_moduli(
            sys_, RegionSpec(0.0, 2.0, 2.0), samples=300, rng=np.random.default_rng(5)
        )
        rep = check_continuity_bound(sys_, 0.0, x0, y0, None, None, 2.0, moduli)
        assert rep.passed
        assert rep.initial_distance == pytest.approx(0.1)

    def test_blown_up_pair_inconclusive(self):
        sys_ = scalar_system(lambda t, seg, u, d: seg.values[-1] ** 2)
        x0 = HistorySegment.constant(1.0, [2.0])
        y0 = HistorySegment.constant(1.0, [2.1])
        moduli = estimate_lipschitz_moduli(
            sys_, RegionSpec(0.0, 1.0, 3.0), samples=100, rng=np.random.default_rng(6)
        )
        rep = check_continuity_bound(sys_, 0.0, x0, y0, None, None, 1.0, moduli)
        assert not rep.passed

    def test_growth_beyond_the_modulus_fails(self):
        # x' = x: two runs part as 0.1 e^t, beyond 0.1 e^{0.5 t} and within 0.1 e^{1.5 t}
        sys_ = scalar_system(lambda t, seg, u, d: seg.head)
        x0 = HistorySegment.constant(1.0, [1.0])
        y0 = HistorySegment.constant(1.0, [1.1])
        moduli = LipschitzModuli(0.5, 0.0, 0.0, RegionSpec(0.0, 2.0, 10.0), 0)
        rep = check_continuity_bound(sys_, 0.0, x0, y0, None, None, 2.0, moduli)
        assert not rep.passed and not rep.bound_overflowed
        assert rep.initial_distance == pytest.approx(0.1)
        assert rep.worst_time == 2.0
        assert rep.worst_ratio == pytest.approx(np.exp(0.5 * 2.0), rel=1e-6)
        rep = check_continuity_bound(
            sys_, 0.0, x0, y0, None, None, 2.0, replace(moduli, one_sided_state=1.5)
        )
        assert rep.passed and rep.worst_ratio <= 1.0

    def test_margin_after_t0(self):
        # x' = x at L = 1.5: the ratio is e^{-0.5 (t - t0)}, 1 at t0 and
        # largest after it at the first node, t0 + h with h = 1e-3
        sys_ = scalar_system(lambda t, seg, u, d: seg.head)
        x0 = HistorySegment.constant(1.0, [1.0])
        y0 = HistorySegment.constant(1.0, [1.1])
        moduli = LipschitzModuli(1.5, 0.0, 0.0, RegionSpec(0.0, 2.0, 10.0), 0)
        rep = check_continuity_bound(sys_, 0.0, x0, y0, None, None, 2.0, moduli)
        assert rep.passed and rep.worst_ratio == 1.0 and rep.worst_time == 0.0
        assert rep.worst_ratio_after_t0 == pytest.approx(math.exp(-0.5 * 1e-3), rel=1e-6)
        # a pair that breaks the bound has its worst ratio after t0 too
        rep = check_continuity_bound(sys_, 0.0, x0, y0, None, None, 2.0, replace(moduli, one_sided_state=0.5))
        assert rep.worst_ratio_after_t0 == rep.worst_ratio == pytest.approx(math.exp(1.0), rel=1e-6)

    @pytest.mark.parametrize(
        "t0, L, span, expected",
        [
            (0.0, 0.0, 1.5, (False, 3.9290266870494115, 1.5, 0.41428571428571415, False)),
            (0.75, -1.0, 0.6, (False, 1.6487212707001282, 1.25, 0.41428571428571415, False)),
            (0.75, 0.5, 1.5, (False, 1.8559407917890043, 2.25, 0.41428571428571415, False)),
            (0.0, 800.0, 1.5, (True, 1.0, 0.0, 0.41428571428571415, True)),
            (0.75, -800.0, 1.5, (False, math.inf, 1.65, 0.41428571428571415, False)),
        ],
    )
    @pytest.mark.filterwarnings("error")  # a subnormal bound divides without an overflow warning
    def test_reports_are_pinned(self, t0, L, span, expected):
        # recorded when the check interpolated every knot of both dense stores;
        # each initial window has knots the other lacks, and at L = -1 the
        # worst ratio is read off a knot before t0.  At L = 800 the bound
        # overflows; at L = -800 it turns subnormal, then zero
        sys_ = scalar_system(lambda t, seg, u, d: 2.0 * seg.head + 1.5 * seg.delayed)
        x0 = HistorySegment(1.0, np.array([-1.0, -0.5, 0.0]), np.array([[0.8], [1.4], [1.0]]))
        y0 = HistorySegment(
            1.0, np.array([-1.0, -0.7, -0.35, -0.1, 0.0]), np.array([[1.2], [0.9], [1.05], [1.3], [1.1]])
        )
        moduli = LipschitzModuli(L, 0.0, 0.0, RegionSpec(0.0, 3.0, 2.0), 0)
        rep = check_continuity_bound(
            sys_, t0, x0, y0, None, None, t0 + span, moduli, IntegrateOpts(step_req=0.05)
        )
        fields = (rep.passed, rep.worst_ratio, rep.worst_time, rep.initial_distance, rep.bound_overflowed)
        assert fields == expected


class TestRfc:
    def test_zero_system_max_is_s(self):
        sys_ = scalar_system(lambda t, seg, u, d: np.zeros(1))
        rep = check_rfc(sys_, s=2.0, T=1.0, n_traj=10, rng=np.random.default_rng(7))
        assert rep.verdict == "no_counterexample"
        # the deterministic corner members pin the sup at exactly s
        assert rep.sup_norm_observed == pytest.approx(2.0, abs=1e-12)

    def test_quadratic_blowup_witness(self):
        sys_ = scalar_system(lambda t, seg, u, d: seg.values[-1] ** 2)
        rep = check_rfc(sys_, s=2.0, T=1.0, n_traj=8, rng=np.random.default_rng(8))
        assert rep.verdict == "blow_up_witness"
        assert rep.witness_time is not None and rep.witness_time <= 0.6

    def test_linear_growth_stays_finite(self):
        sys_ = RfdeSystem(
            delay_r=0.5,
            dim_n=2,
            dynamics=lambda t, seg, u, d: np.array(
                [d[0] * seg.values[-1, 0], -seg.values[-1, 1] + seg.values[0, 0] * u[0]]
            ),
            output=lambda t, seg: seg.values[-1, 1:],
            d_box=np.array([[-1.0, 1.0]]),
            u_box=np.array([[-1.0, 1.0]]),
        )
        rep = check_rfc(sys_, s=1.0, T=2.0, n_traj=10, rng=np.random.default_rng(9))
        assert rep.verdict == "no_counterexample"
        assert np.isfinite(rep.sup_norm_observed)

    @pytest.mark.parametrize(
        "s, T, n_traj, match",
        [
            (1.0, 1.0, 0, "n_traj"),  # no run would certify nothing
            (1.0, 1.0, -2, "n_traj"),
            (1.0, 1.0, 2.0, "n_traj"),
            (1.0, 1.0, True, "n_traj"),
            (-1.0, 1.0, 2, "s must"),  # only corners, at -/+1
            (-1.0, 1.0, 5, "s must"),  # corners and drawn windows
            (np.nan, 1.0, 2, "s must"),
            (np.inf, 1.0, 2, "s must"),
            (1.0, 0.0, 2, "T finite"),
            (1.0, -1.0, 2, "T finite"),
            (1.0, np.inf, 2, "T finite"),
            (1.0, np.nan, 2, "T finite"),
        ],
    )
    def test_invalid_arguments_refused_before_any_draw(self, s, T, n_traj, match):
        calls = []
        sys_ = scalar_system(lambda t, seg, u, d: calls.append(t) or np.zeros(1))
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=match):
            check_rfc(sys_, s=s, T=T, n_traj=n_traj, rng=rng)
        assert rng.bit_generator.state == state and not calls

    def test_input_box_row_outside_the_ball_refused(self):
        # [-1, 1] misses the input box [2, 3]: no input the system allows is in the ball
        seen = []
        sys_ = scalar_system(lambda t, seg, u, d: seen.append(float(u[0])) or np.zeros(1), u_box=[[2.0, 3.0]])
        with pytest.raises(ValueError, match="row 0"):
            check_rfc(sys_, s=1.0, T=1.0, n_traj=4, rng=np.random.default_rng(0))
        assert not seen
        # a ball that reaches the box clips the box to it, and inputs stay inside
        rep = check_rfc(sys_, s=2.5, T=1.0, n_traj=4, rng=np.random.default_rng(0))
        assert rep.verdict == "no_counterexample"
        assert seen and 2.0 <= min(seen) and max(seen) <= 2.5


def _draws_digest(runs) -> str:
    """sha256 of each run's initial grid and values, then of its input's and
    disturbance's switch times and values (b"none" for no signal), in order."""
    h = hashlib.sha256()
    for x0, u, d in runs:
        h.update(x0.grid.tobytes())
        h.update(x0.values.tobytes())
        for sig in (u, d):
            if sig is None:
                h.update(b"none")
            else:
                h.update(sig.switch_times.tobytes())
                h.update(sig.values.tobytes())
    return h.hexdigest()


class TestDrawRuns:
    """The ensembles the trajectory checks draw, without integrating them:
    digests recorded from the draw loops ``_draw_runs`` replaced, so each
    caller's stream is kept bit for bit."""

    def test_example_5_2_ensemble(self):
        # energy-bounded-by-initial and window-sup-monotone at their defaults, seed 0
        sys_ = build_example("example-5.2").system
        runs = _draw_runs(sys_, np.random.default_rng(0), 20, 1.0, 1.4, 0.4)
        assert _draws_digest(runs) == "9d3de045318f11406102034c98a516f0a078a1e5a35c207036a275e463e6c25c"

    def test_example_5_4_fit_then_test_runs(self):
        # fitted-envelope-with-gain at its defaults, seed 0: 24 fit runs, then
        # 12 test runs on the same generator, with an input where k % 3 != 0
        sys_ = build_example("example-5.4").system
        rng = np.random.default_rng(0)
        fit = _draw_runs(sys_, rng, 24, 3.0, 9.0, 0.5)
        u_boxes = [None if k % 3 == 0 else sys_.u_box for k in range(12)]
        test = _draw_runs(sys_, rng, 12, 2.8, 9.0, 0.5, u_boxes)
        assert _draws_digest(fit) == "ac176181b7b5ccdf92f2cae8b691fa8fbce3cad4adfbc88281f218d84211ed2e"
        assert _draws_digest(test) == "1054f4b329d5d62b73fefbaff36fbe98ef0b9dc626a622512cfc922c49f3eafc"
        assert [u is None for _, u, _ in test] == [k % 3 == 0 for k in range(12)]

    def test_envelope_command_defaults(self):
        # rfdestab envelope example-5.4 --seed 0: 20 runs, norm bound 2, horizon 8, dwell 0.5
        sys_ = build_example("example-5.4").system
        runs = _draw_runs(sys_, np.random.default_rng(0), 20, 2.0, 8.0, 0.5)
        assert _draws_digest(runs) == "bbb66e4960261d15a90e9c97906717e73271ce200e276321b8cc5db4cab03adb"

    def test_a_given_window_takes_no_draw(self):
        sys_ = build_example("example-5.2").system
        corner = HistorySegment.constant(sys_.delay_r, [1.0, 0.0])
        ((x0, u, d),) = _draw_runs(sys_, np.random.default_rng(4), 1, 1.0, 2.0, 1.0, windows=(corner,))
        # the disturbance is the generator's first draw
        first = sample_signal(SignalSpec(sys_.d_box, 2.0, 1.0, seed=int(np.random.default_rng(4).integers(2**32))))
        assert x0 is corner and u is None
        assert np.array_equal(d.switch_times, first.switch_times) and np.array_equal(d.values, first.values)


def _digest(traj) -> str:
    """sha256 of a trajectory's node times and states, in that order."""
    return hashlib.sha256(traj.times.tobytes() + traj.states.tobytes()).hexdigest()


PINNED = {
    "example-5.2": "7d03b768efe318791dbacaaee4fdf6c22a908e8a6497f7bea6fbbbd33658244e",
    "example-4.8": "5bb5d36eae8f9d2cc415dba737a2d5f896cae64df8621ef122dd2e6dce7d90b4",
    "group": [
        "b808744f30a026aae7ac3bc47b6eaa195fe8f6900841f9663d6e68fbd8a73755",
        "b7a80a1def16cf763371e500889c89e38fca7f16f65471a643287d3fb1e0b2c4",
        "f6a2c3f7fee6b5f6af28fe609d15e65e1301f5979a4523cf291c9738af716e29",
    ],
    "half-delay-group": [
        "9e25355eec64256b097765481bc6b9cf3d4b58756635537cbfec6dfb2015f52b",
        "b254d8db897036e1e2957032bb78791e1dbd73aa46c88443f54958ab904317cf",
        "23f068933a4b843d81f75ea941cf1d81877193555816ee85843922d2526d97cf",
    ],
}


class TestPinnedBits:
    """Node times and states of three runs, recorded when each stage
    evaluated its own row at -delay; an integrator that keeps every bit
    keeps these digests."""

    def test_example_5_2_ensemble_member(self):
        # the first member of energy-bounded-by-initial's seed-0 ensemble
        sys_ = build_example("example-5.2").system
        rng = np.random.default_rng(0)
        x0 = sample_history(rng, sys_.delay_r, sys_.dim_n, 1.0)
        d = sample_signal(SignalSpec(sys_.d_box, 1.4, 0.4, seed=int(rng.integers(2**32))))
        traj = integrate(sys_, 0.0, x0, None, d, 1.4, IntegrateOpts(step_req=2e-4))
        assert traj.status == "completed" and traj.times.size == 7001 + d.switches_in(0.0, 1.4).size
        assert _digest(traj) == PINNED["example-5.2"]

    def test_example_4_8_with_switching_input_and_disturbance(self):
        sys_ = build_example("example-4.8").system
        x0 = sample_history(np.random.default_rng(2), sys_.delay_r, sys_.dim_n, 1.0)
        u = sample_signal(SignalSpec(sys_.u_box, 3.0, 0.3, seed=1))
        d = sample_signal(SignalSpec(sys_.d_box, 3.0, 0.3, seed=2))
        traj = integrate(sys_, 0.0, x0, u, d, 3.0, IntegrateOpts(step_req=1e-2))
        assert traj.status == "completed" and u.switches_in(0.0, 3.0).size >= 3
        assert _digest(traj) == PINNED["example-4.8"]

    def test_constant_disturbance_group(self):
        # the runs converse_functional_uq integrates: one window from t > 0,
        # one constant disturbance per member, all in one lock-step group
        sys_ = build_example("example-5.2").system
        x0 = sample_history(np.random.default_rng(5), sys_.delay_r, sys_.dim_n, 1.0)
        runs = [(x0, None, constant_signal([c], box=sys_.d_box)) for c in (-1.0, 0.0, 1.0)]
        trajs = _integrate_runs(sys_, 0.3, runs, 1.1, IntegrateOpts(step_req=1e-2))
        assert [t.status for t in trajs] == ["completed"] * 3
        assert trajs[0]._dense.K is trajs[2]._dense.K  # one group
        assert [_digest(t) for t in trajs] == PINNED["group"]

    def test_half_delay_steps_group(self):
        # r / h = 2: every step's stages read rows at -r that the step before
        # stored, so the look-ahead runs at every step; the dynamics read
        # the head, the row at -r and the window integral
        A = np.array([[-1.0, 0.4], [-0.3, -0.6]])
        box = np.array([[-1.0, 1.0]])
        sys_ = RfdeSystem(
            1.0, 2, lambda t, seg, u, d: A @ seg.head + d[0] * seg.delayed[::-1] - 0.25 * seg.integral(),
            lambda t, seg: seg.head, box,
        )
        x0 = sample_history(np.random.default_rng(11), 1.0, 2, 1.0)
        runs = [(x0, None, PiecewiseSignal([1.3], [[c], [-c]], box)) for c in (-0.5, 0.25, 0.8)]
        trajs = _integrate_runs(sys_, 0.0, runs, 3.0, IntegrateOpts(step_req=0.5))
        assert [t.status for t in trajs] == ["completed"] * 3
        assert trajs[0]._dense.K is trajs[2]._dense.K  # one group
        assert trajs[0].times.tolist() == [0.0, 0.5, 1.0, 1.3, 1.5, 2.0, 2.5, 3.0]
        assert [_digest(t) for t in trajs] == PINNED["half-delay-group"]


def test_look_ahead_passes_per_run(monkeypatch):
    # the rows at -r (and their tail pieces) of up to _AHEAD nodes and
    # midpoints come from one _Dense.eval_many pass: at 2,500 steps a delay
    # (r = 0.5, h = 2e-4) a run of 7,000 steps makes ceil(7000 / 256) = 28
    # passes, and no other call evaluates the store while it integrates
    calls = []
    eval_many = _Dense.eval_many

    def counted(self, ts):
        calls.append(ts.size)
        return eval_many(self, ts)

    monkeypatch.setattr(_Dense, "eval_many", counted)
    sys_ = build_example("example-5.2").system
    rng = np.random.default_rng(0)
    x0 = sample_history(rng, sys_.delay_r, sys_.dim_n, 1.0)
    d = sample_signal(SignalSpec(sys_.d_box, 1.4, 0.4, seed=int(rng.integers(2**32))))
    traj = integrate(sys_, 0.0, x0, None, d, 1.4, IntegrateOpts(step_req=2e-4))
    steps = traj.times.size - 1
    assert traj.status == "completed" and steps == 7002
    assert len(calls) <= math.ceil(steps / _AHEAD) + 1
