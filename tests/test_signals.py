"""Piecewise-constant right-continuous signals and their random generator."""

import numpy as np
import pytest

from rfdestab import PiecewiseSignal, SignalSpec, constant_signal, sample_signal


class TestEval:
    def test_constant_no_switches(self):
        sig = constant_signal([1.0])
        for t in (0.0, 0.5, 100.0):
            assert sig.eval(t)[0] == 1.0

    def test_right_continuity_at_switch(self):
        sig = PiecewiseSignal(
            np.array([2.0]), np.array([[0.0], [1.0]]), np.array([[0.0, 1.0]])
        )
        assert sig.eval(2.0)[0] == 1.0

    def test_value_before_switch(self):
        sig = PiecewiseSignal(
            np.array([2.0]), np.array([[0.0], [1.0]]), np.array([[0.0, 1.0]])
        )
        assert sig.eval(1.999)[0] == 0.0

    def test_last_value_extension(self):
        sig = PiecewiseSignal(
            np.array([1.0]), np.array([[0.0], [0.5]]), np.array([[0.0, 1.0]])
        )
        assert sig.eval(1e6)[0] == 0.5

    def test_values_must_lie_in_box(self):
        with pytest.raises(ValueError):
            PiecewiseSignal(np.array([]), np.array([[2.0]]), np.array([[0.0, 1.0]]))

    def test_eval_many_rejects_negative_times_as_eval_does(self):
        sig = constant_signal([1.0])
        with pytest.raises(ValueError, match=r"defined on \[0, inf\); got t=-1.0"):
            sig.eval_many([-1.0])
        with pytest.raises(ValueError, match=r"got t=-1.0"):
            sig.eval(-1.0)
        # NaN and the tolerance below zero read as eval reads them
        assert np.array_equal(sig.eval_many([np.nan, -1e-13]), [sig.eval(np.nan), sig.eval(-1e-13)])

    def test_switch_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            PiecewiseSignal(
                np.array([1.0, 1.0]),
                np.array([[0.0], [0.0], [0.0]]),
                np.array([[-1.0, 1.0]]),
            )


class TestSampling:
    def test_singleton_box_constant_zero(self):
        spec = SignalSpec(np.array([[0.0, 0.0]]), horizon=10.0, mean_dwell=0.5, seed=3)
        sig = sample_signal(spec)
        ts = np.linspace(0.0, 10.0, 101)
        assert np.all(sig.eval_many(ts) == 0.0)

    def test_huge_dwell_gives_constant(self):
        spec = SignalSpec(np.array([[-1.0, 1.0]]), horizon=1.0, mean_dwell=1e9, seed=0)
        sig = sample_signal(spec)
        assert sig.switch_times.size == 0

    @pytest.mark.parametrize(
        "horizon, mean_dwell",
        [(np.nan, 0.5), (3.0, np.nan), (np.inf, 1.0), (3.0, np.inf)],
    )
    def test_a_horizon_or_dwell_that_is_not_finite_is_rejected(self, horizon, mean_dwell):
        # an infinite horizon would keep sample_signal drawing switches forever
        with pytest.raises(ValueError):
            SignalSpec(np.array([[-1.0, 1.0]]), horizon, mean_dwell)

    def test_a_dwell_too_short_for_the_horizon_is_rejected(self):
        # sample_signal would loop about horizon / mean_dwell times
        with pytest.raises(ValueError, match="mean switch count"):
            SignalSpec(np.array([[-1.0, 1.0]]), 3.0, 1e-300)
        SignalSpec(np.array([[-1.0, 1.0]]), 3.0, 3e-6)  # a million switches on average is allowed

    def test_determinism(self):
        spec = SignalSpec(np.array([[-1.0, 1.0]]), horizon=20.0, mean_dwell=0.3, seed=11)
        a = sample_signal(spec)
        b = sample_signal(spec)
        assert np.array_equal(a.switch_times, b.switch_times)
        assert np.array_equal(a.values, b.values)

    def test_membership_over_random_draws(self):
        box = np.array([[-2.0, 3.0], [0.0, 1.0]])
        rng = np.random.default_rng(5)
        for seed in range(20):
            sig = sample_signal(SignalSpec(box, 15.0, 0.4, seed=seed))
            ts = rng.uniform(0.0, 15.0, size=500)
            vals = sig.eval_many(ts)
            assert np.all(vals[:, 0] >= -2.0) and np.all(vals[:, 0] <= 3.0)
            assert np.all(vals[:, 1] >= 0.0) and np.all(vals[:, 1] <= 1.0)

    def test_right_continuity_at_every_switch(self):
        sig = sample_signal(SignalSpec(np.array([[-1.0, 1.0]]), 30.0, 0.2, seed=9))
        for tk in sig.switch_times:
            assert np.array_equal(sig.eval(tk), sig.eval(tk + 1e-12))


class TestTransforms:
    def test_switches_in_window(self):
        sig = PiecewiseSignal(
            np.array([1.0, 2.0, 3.0]),
            np.array([[0.0], [1.0], [0.0], [1.0]]),
            np.array([[0.0, 1.0]]),
        )
        assert np.array_equal(sig.switches_in(1.5, 3.5), [2.0, 3.0])
