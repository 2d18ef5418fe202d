"""Trajectory-level envelope checks, monotone decay, and envelope fits."""

import json
import math
import re

import numpy as np
import pytest

from rfdestab import (
    HistorySegment,
    IntegrateOpts,
    KlFn,
    LyapunovFunctional,
    RfdeSystem,
    SignalSpec,
    build_example,
    check_monotone_decay,
    constant,
    constant_signal,
    fit_kl_envelope,
    integrate,
    kl_from_rate,
    linear,
    power,
    sample_history,
    sample_signal,
    sup_norm,
    verify_ios_envelope,
    verify_v_decay_estimate,
)

ZERO_D = np.array([[0.0, 0.0]])
ONE = constant(1.0)  # beta, and the gains, which input-free runs never read

CONTRACTION = RfdeSystem(
    delay_r=1.0,
    dim_n=1,
    dynamics=lambda t, seg, u, d: -seg.values[-1],
    output=lambda t, seg: seg.values[-1],
    d_box=ZERO_D,
)


def contraction_ensemble(count=8, horizon=6.0, seed=0, norm=2.0):
    rng = np.random.default_rng(seed)
    opts = IntegrateOpts(step_req=0.01)
    return [
        integrate(
            CONTRACTION, 0.0, sample_history(rng, 1.0, 1, norm), None, None, horizon, opts
        )
        for _ in range(count)
    ]


def escaping_run():
    """x' = x^2 from x = 2: escapes at t = 0.5, so the blow-up guard stops it."""
    esc = RfdeSystem(1.0, 1, lambda t, seg, u, d: seg.head ** 2, lambda t, seg: seg.head, ZERO_D)
    return integrate(esc, 0.0, HistorySegment.constant(1.0, [2.0]), None, None, 1.0)


class TestRgaosEnvelope:
    def test_zero_trajectories_pass_any_envelope(self):
        x0 = HistorySegment.constant(1.0, [0.0])
        trajs = [integrate(CONTRACTION, 0.0, x0, None, None, 3.0)]
        sigma = KlFn(fn=lambda s, t: s * np.exp(-5 * t))
        rep = verify_ios_envelope(trajs, sigma, ONE, ONE, ONE)
        assert rep.verdict == "pass"

    def test_exact_decay_envelope_passes(self):
        trajs = contraction_ensemble()
        sigma = KlFn(fn=lambda s, t: s * np.exp(-t))
        rep = verify_ios_envelope(trajs, sigma, ONE, ONE, ONE, tolerance=1e-6)
        assert rep.verdict == "pass"
        assert min(rep.slacks) >= -1e-6

    def test_too_fast_envelope_fails_with_witness(self):
        trajs = contraction_ensemble()
        sigma = KlFn(fn=lambda s, t: s * np.exp(-2 * t))
        rep = verify_ios_envelope(trajs, sigma, ONE, ONE, ONE)
        assert rep.verdict == "fail"
        assert rep.witness is not None
        idx, t_w, observed, allowed = rep.witness
        assert observed > allowed

    def test_enlarging_envelope_is_monotone(self):
        trajs = contraction_ensemble(count=4)
        small = KlFn(fn=lambda s, t: s * np.exp(-2 * t))
        big = KlFn(fn=lambda s, t: 2.0 * s * np.exp(-t))
        rep_small = verify_ios_envelope(trajs, small, ONE, ONE, ONE)
        rep_big = verify_ios_envelope(trajs, big, ONE, ONE, ONE)
        assert rep_small.verdict == "fail" and rep_big.verdict == "pass"

    def test_blown_up_trajectory_fails(self):
        traj = escaping_run()
        assert traj.status == "blew_up"
        sigma = KlFn(fn=lambda s, t: 1e12 * s)
        rep = verify_ios_envelope([traj], sigma, ONE, ONE, ONE)
        assert rep.verdict == "fail"

    def test_blown_up_report_is_strict_json(self):
        trajs = [contraction_ensemble(count=1)[0], escaping_run()]
        rep = verify_ios_envelope(trajs, KlFn(fn=lambda s, t: 1e12 * s), ONE, ONE, ONE)
        data = json.loads(json.dumps(rep.to_json_dict(), allow_nan=False))
        assert data["slacks"][0] > 0.0 and data["slacks"][1] is None
        assert data["witness"]["trajectory"] == 1 and data["witness"]["observed"] is None
        assert set(data["nonfinite"]) == {"slacks[1]", "witness.observed"}
        assert data["nonfinite"]["slacks[1]"].startswith("-inf: the run stopped (blew_up) at t = ")

    def test_first_stopped_run_stays_the_witness(self):
        # a passing sample of a later run must not replace the stop
        blown, ok = escaping_run(), contraction_ensemble(count=1)[0]
        sigma = KlFn(fn=lambda s, t: 1e12 * s)
        for trajs, i in (([blown, ok], 0), ([ok, blown], 1), ([blown, ok, blown], 0)):
            rep = verify_ios_envelope(trajs, sigma, ONE, ONE, ONE)
            assert rep.verdict == "fail"
            assert rep.witness == (i, blown.t_event, math.inf, 0.0)

    def test_nan_envelope_witness_is_the_first_nan_sample(self):
        trajs = contraction_ensemble(count=3)
        sigma = KlFn(fn=lambda s, t: math.nan if t >= 1.0 else 10.0 * s)
        rep = verify_ios_envelope(trajs, sigma, ONE, ONE, ONE)
        assert rep.verdict == "fail" and all(math.isnan(x) for x in rep.slacks)
        i, t_w, observed, allowed = rep.witness
        times = trajs[0].times
        assert i == 0 and t_w == times[times >= 1.0][0] and math.isnan(allowed)
        assert observed == trajs[0].output_norms()[times >= 1.0][0]
        data = json.loads(json.dumps(rep.to_json_dict(), allow_nan=False))
        assert data["witness"]["allowed"] is None and "witness.allowed" in data["nonfinite"]


class TestIosEnvelope:
    def test_zero_input_is_the_decay_envelope_check(self):
        # without an input the allowed series is the decay envelope itself:
        # every slack is min(sigma(beta(t0) |x0|, t - t0) - |y(t)|), bitwise
        trajs = contraction_ensemble(count=5)
        beta = constant(1.5)
        envelopes = (
            KlFn(fn=lambda s, t: s * np.exp(-t)),
            KlFn(fn=lambda s, t: s * np.exp(-2.0 * t)),
            kl_from_rate(linear(1.0)),
            fit_kl_envelope(contraction_ensemble(count=6, seed=3), beta, bins=3),
        )
        for sigma in envelopes:
            rep = verify_ios_envelope(trajs, sigma, beta, linear(1.0), ONE)
            for tr, slack in zip(trajs, rep.slacks):
                env = sigma.eval_t_array(1.5 * sup_norm(tr.initial), tr.times - tr.t0)
                assert slack == np.min(env - tr.output_norms())

    def test_gain_term_covers_forced_response(self):
        sys_u = RfdeSystem(
            delay_r=1.0,
            dim_n=1,
            dynamics=lambda t, seg, u, d: -seg.values[-1] + u[0],
            output=lambda t, seg: seg.values[-1],
            d_box=ZERO_D,
            u_box=np.array([[-1.0, 1.0]]),
        )
        x0 = HistorySegment.constant(1.0, [0.0])
        traj = integrate(sys_u, 0.0, x0, constant_signal([0.8]), None, 8.0)
        sigma = KlFn(fn=lambda s, t: s * np.exp(-t))
        # |x(t)| = 0.8 (1 - e^{-t}) <= gamma(0.8) needs gamma >= identity
        rep = verify_ios_envelope(
            [traj], sigma, constant(1.0), gamma=linear(1.0), delta=constant(1.0),
            tolerance=1e-9,
        )
        assert rep.verdict == "pass"
        rep_small = verify_ios_envelope(
            [traj], sigma, constant(1.0), gamma=linear(0.5), delta=constant(1.0)
        )
        assert rep_small.verdict == "fail"


class TestVDecayEstimate:
    def test_input_term_covers_the_forced_energy(self):
        # x' = -x + u, V = x(0)^2: V >= 2|u|^2 gives V' <= -V/2, so V stays
        # below max{sigma(|x0|^2, t), sup over tau of sigma(2|u(tau)|^2, t - tau)}
        # with sigma the flow of y' = -y/2
        sys_u = RfdeSystem(
            delay_r=1.0,
            dim_n=1,
            dynamics=lambda t, seg, u, d: -seg.head + u[0],
            output=lambda t, seg: seg.head,
            d_box=ZERO_D,
            u_box=np.array([[-1.0, 1.0]]),
        )
        V = LyapunovFunctional(evaluator=lambda t, seg: float(seg.head[0] ** 2))
        u_sig = sample_signal(SignalSpec(sys_u.u_box, 6.0, 0.7, seed=4))
        trajs = [
            integrate(sys_u, 0.0, HistorySegment.constant(1.0, [x0]), u_sig, None, 6.0,
                      IntegrateOpts(step_req=0.01))
            for x0 in (0.0, 0.5, -1.0)
        ]
        sigma = kl_from_rate(linear(0.5))
        zeta, one, square = power(2.0, 2.0), constant(1.0), power(2.0)
        rep = verify_v_decay_estimate(sys_u, V, square, one, zeta, one, sigma, trajs)
        assert rep.verdict == "pass"
        # the decay term alone does not cover the energy the input feeds in
        rep = verify_v_decay_estimate(sys_u, V, square, one, None, None, sigma, trajs)
        assert rep.verdict == "fail" and rep.witness[0] == 0


class TestFitEnvelope:
    def test_zero_system_zero_envelope(self):
        zero_sys = RfdeSystem(
            delay_r=1.0,
            dim_n=1,
            dynamics=lambda t, seg, u, d: np.zeros(1),
            output=lambda t, seg: np.zeros(1),
            d_box=ZERO_D,
        )
        rng = np.random.default_rng(5)
        trajs = [
            integrate(zero_sys, 0.0, sample_history(rng, 1.0, 1, 1.0), None, None, 3.0)
            for _ in range(6)
        ]
        sigma = fit_kl_envelope(trajs, constant(1.0), bins=3)
        for s in (0.2, 0.5, 1.0):
            for t in (0.0, 1.0, 3.0):
                assert sigma(s, t) == 0.0

    def test_contraction_fit_close_to_closed_form(self):
        # constant histories x = c: window sup is c and |x(t)| = c e^{-t}
        # exactly; four distinct levels make the quantile bins deterministic
        opts = IntegrateOpts(step_req=0.01)
        trajs = [
            integrate(CONTRACTION, 0.0, HistorySegment.constant(1.0, [c]), None, None, 5.0, opts)
            for c in (0.5, 1.0, 1.5, 2.0)
            for _ in range(10)
        ]
        sigma = fit_kl_envelope(trajs, constant(1.0), bins=4)
        # queried at each bin's own level the fit is ref * inflation: within 10%
        for s in (0.5, 1.0, 1.5, 2.0):
            for t in (0.0, 0.5, 1.5, 3.0, 5.0):
                ref = s * np.exp(-t)
                assert ref <= sigma(s, t) <= ref * 1.10 + 1e-9

    def test_fit_majorizes_training_set(self):
        trajs = contraction_ensemble(count=12, horizon=4.0, seed=7)
        sigma = fit_kl_envelope(trajs, constant(1.0), bins=4)
        rep = verify_ios_envelope(trajs, sigma, ONE, ONE, ONE, tolerance=1e-9)
        assert rep.verdict == "pass"

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            fit_kl_envelope([], constant(1.0))


class TestMonotoneDecay:
    def test_decaying_series_passes(self):
        trajs = contraction_ensemble(count=5)
        rep = check_monotone_decay(trajs, lambda ts, xs: np.abs(xs[:, 0]))
        assert rep.verdict == "pass"

    def test_oscillation_caught_without_window(self):
        sys_osc = RfdeSystem(
            delay_r=1.0,
            dim_n=2,
            dynamics=lambda t, seg, u, d: np.array(
                [seg.values[-1, 1], -seg.values[-1, 0]]
            ),
            output=lambda t, seg: seg.values[-1],
            d_box=ZERO_D,
        )
        x0 = HistorySegment.constant(1.0, [1.0, 0.0])
        traj = integrate(sys_osc, 0.0, x0, None, None, 6.0, IntegrateOpts(step_req=0.01))
        values = lambda ts, xs: np.abs(xs[:, 0])
        rep = check_monotone_decay([traj], values)
        assert rep.verdict == "fail"
        assert rep.witness is not None

    @pytest.mark.parametrize("window_delay", [None, 1.0])
    @pytest.mark.parametrize(
        "values_fn",
        [lambda ts, xs: np.array([5.0]), lambda ts, xs: np.abs(xs[1:, 0])],
        ids=["one value", "one value short"],
    )
    def test_a_series_of_the_wrong_length_is_rejected(self, values_fn, window_delay):
        traj = integrate(
            CONTRACTION, 0.0, HistorySegment.constant(1.0, [1.0]), None, None, 2.0,
            IntegrateOpts(step_req=0.1),
        )
        assert traj.times.size == 21
        with pytest.raises(ValueError, match="one value per time"):
            check_monotone_decay([traj], values_fn, window_delay=window_delay)

    def test_windowed_sup_smooths_transient_ripples(self):
        # |x1| of the rotation rises on half-periods but equals a constant
        # amplitude envelope; with conserved energy the window sup of the
        # NORM is constant, hence nonincreasing
        sys_osc = RfdeSystem(
            delay_r=4.0,
            dim_n=2,
            dynamics=lambda t, seg, u, d: np.array(
                [seg.values[-1, 1], -seg.values[-1, 0]]
            ),
            output=lambda t, seg: seg.values[-1],
            d_box=ZERO_D,
        )
        x0 = HistorySegment.constant(4.0, [1.0, 0.0])
        traj = integrate(sys_osc, 0.0, x0, None, None, 12.0, IntegrateOpts(step_req=0.01))
        values = lambda ts, xs: np.abs(xs[:, 0])
        assert check_monotone_decay([traj], values).verdict == "fail"
        rep = check_monotone_decay([traj], values, window_delay=4.0)
        assert rep.verdict == "pass"

    @pytest.mark.parametrize("window_delay", [None, 0.5])
    def test_nan_readings_fail_with_or_without_a_window(self, window_delay):
        # a reading that turns NaN past t = 0.5 has no slack: the trailing
        # window max of a window holding a NaN is NaN, so the windowed check
        # fails at the first NaN node as the plain one does
        sys_ = build_example("example-5.2").system
        x0 = sample_history(np.random.default_rng(0), sys_.delay_r, sys_.dim_n, 1.0)
        d = constant_signal([0.0], box=sys_.d_box)
        traj = integrate(sys_, 0.0, x0, None, d, 1.0, IntegrateOpts(step_req=1e-2))
        assert traj.status == "completed" and sys_.delay_r == 0.5
        rep = check_monotone_decay([traj], lambda ts, xs: np.where(ts > 0.5, np.nan, np.exp(-ts)),
                                   window_delay=window_delay)
        assert rep.verdict == "fail" and math.isnan(rep.slacks[0])
        assert rep.witness[1] == 0.51 and math.isnan(rep.witness[2])

    @pytest.mark.parametrize("window_delay", [-1.0, -math.inf, math.nan], ids=repr)
    def test_a_negative_or_nan_window_raises_before_any_reading(self, window_delay):
        # such a width leaves every trailing window empty, so the windowed
        # series would be whatever the maximum's unwritten buffer held
        traj = contraction_ensemble(count=1, horizon=0.5)[0]

        def unread(ts, xs):
            raise AssertionError("read the series")

        with pytest.raises(ValueError, match=re.escape(f"window_delay must be >= 0, got {window_delay!r}")):
            check_monotone_decay([traj], unread, window_delay=window_delay)

    def test_a_zero_window_reads_each_node_alone_and_an_infinite_one_the_running_max(self):
        trajs = contraction_ensemble(count=3, horizon=2.0)
        values = lambda ts, xs: np.abs(xs[:, 0])
        plain = check_monotone_decay(trajs, values)
        assert check_monotone_decay(trajs, values, window_delay=0.0).slacks == plain.slacks
        # the running max of |x| from the initial window never rises on a contraction
        assert check_monotone_decay(trajs, values, window_delay=math.inf).verdict == "pass"


class TestTolerance:
    """Every envelope check refuses a tolerance that is not finite and >= 0,
    before it reads a trajectory: an infinite one would pass any envelope."""

    @staticmethod
    def zero_envelope_run():
        # example-5.2 from the constant window [1, 0.5]: against the all-zero
        # envelope its output norm leaves a slack of -3.66
        sys_ = build_example("example-5.2").system
        x0 = HistorySegment.constant(sys_.delay_r, [1.0, 0.5])
        d = constant_signal([0.0], box=sys_.d_box)
        return sys_, integrate(sys_, 0.0, x0, None, d, 0.5, IntegrateOpts(step_req=1e-2))

    def test_the_zero_envelope_fails_at_a_finite_tolerance(self):
        _, traj = self.zero_envelope_run()
        rep = verify_ios_envelope([traj], KlFn(fn=lambda s, t: 0.0), ONE, ONE, ONE, tolerance=0.0)
        assert rep.verdict == "fail" and rep.slacks[0] == pytest.approx(-3.6643, abs=1e-4)
        assert verify_ios_envelope([traj], KlFn(fn=lambda s, t: 0.0), ONE, ONE, ONE, tolerance=4.0).passed

    @pytest.mark.parametrize("tolerance", [math.inf, math.nan, -math.inf, -1.0], ids=repr)
    def test_a_tolerance_not_finite_and_nonnegative_raises(self, tolerance):
        sys_, traj = self.zero_envelope_run()

        def unread(*args):
            raise AssertionError("read the envelope")

        sigma = KlFn(fn=unread, flow=unread)
        V = LyapunovFunctional(evaluator=unread)
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            verify_ios_envelope([traj], sigma, ONE, ONE, ONE, tolerance=tolerance)
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            verify_v_decay_estimate(sys_, V, ONE, ONE, None, None, sigma, [traj], tolerance=tolerance)
        with pytest.raises(ValueError, match="rel_slack must be finite and >= 0"):
            check_monotone_decay([traj], unread, rel_slack=tolerance)


class TestEmptyEnsemble:
    """An empty ensemble is refused before any series is read: a check over
    no trajectory would pass with no slacks."""

    @staticmethod
    def unread(*args):
        raise AssertionError("read the envelope")

    @pytest.mark.parametrize("checker", ["ios", "v_decay", "monotone", "windowed monotone", "fit"])
    @pytest.mark.parametrize("empty", [list, tuple, iter], ids=["list", "tuple", "iterator"])
    def test_every_check_refuses_an_empty_ensemble(self, checker, empty):
        sys_ = build_example("example-5.2").system
        sigma = KlFn(fn=self.unread, flow=self.unread)
        V = LyapunovFunctional(evaluator=self.unread)
        run = {
            "ios": lambda trajs: verify_ios_envelope(trajs, sigma, ONE, ONE, ONE),
            "v_decay": lambda trajs: verify_v_decay_estimate(sys_, V, ONE, ONE, None, None, sigma, trajs),
            "monotone": lambda trajs: check_monotone_decay(trajs, self.unread),
            "windowed monotone": lambda trajs: check_monotone_decay(trajs, self.unread, window_delay=1.0),
            "fit": lambda trajs: fit_kl_envelope(trajs, ONE),
        }[checker]
        with pytest.raises(ValueError, match="empty ensemble"):
            run(empty(()))
