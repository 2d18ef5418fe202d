"""Comparison functions and KL envelopes built from decay rates."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from rfdestab import (
    ComparisonFn,
    KlFn,
    constant,
    exp_weight,
    fading_sup,
    identity,
    kl_from_rate,
    linear,
    power,
)
from rfdestab.compfn import FLOW_ATOL, FLOW_T_MAX


def assert_kl(sigma, s_grid, t_grid, tol=1e-9):
    """Sampled KL membership on sorted grids: zero at s = 0, nondecreasing in
    s, nonincreasing in t, and fading from the first time to the last."""
    table = np.array([[sigma(s, t) for t in t_grid] for s in s_grid])
    assert np.all(np.abs([sigma(0.0, t) for t in t_grid]) <= 1e-12)
    assert np.all(np.diff(table, axis=0) >= -tol)
    assert np.all(np.diff(table, axis=1) <= tol)
    first, last = table[:, 0], table[:, -1]
    assert np.all((last < first) | (first <= tol))


class TestBuiltins:
    def test_identity_and_linear(self):
        assert identity()(3.0) == 3.0
        assert linear(2.0)(3.0) == 6.0

    def test_power(self):
        assert power(2.0)(3.0) == 9.0
        assert power(0.5, scale=4.0)(9.0) == pytest.approx(12.0)

    def test_exp_weight_is_time_weight(self):
        w = exp_weight(2.0)
        assert w(0.0) == 1.0
        assert w(1.0) == pytest.approx(np.e ** 2)

    def test_constant(self):
        assert constant(5.0)(123.0) == 5.0


CLASS_GRID = np.logspace(-9.0, 6.0, 64)


class TestCheckClass:
    """Sampled class membership on 64 log-spaced magnitudes in [1e-9, 1e6]."""

    def test_identity_kinf_passes(self):
        f = identity()
        vals = np.asarray(f(CLASS_GRID), dtype=float)
        assert np.all(np.isfinite(vals))
        assert abs(float(f(0.0))) <= 1e-12
        assert np.all(np.diff(vals) > 0.0)
        assert float(f(1e6)) > 1e3

    def test_square_positive_definite(self):
        f = ComparisonFn(fn=lambda s: np.asarray(s) ** 2)
        vals = np.asarray(f(CLASS_GRID), dtype=float)
        assert np.all(np.isfinite(vals))
        assert abs(float(f(0.0))) <= 1e-12
        assert np.all(vals > 0.0)

    def test_kplus_weight(self):
        # e^{t} overflows to +inf at the top of the grid; +inf is still positive
        tgrid = np.concatenate([[0.0], CLASS_GRID])
        with np.errstate(over="ignore"):
            tvals = np.asarray(exp_weight(1.0)(tgrid), dtype=float)
        assert not np.any(np.isnan(tvals))
        assert np.all(tvals > 0.0)


class TestKlFromRate:
    def test_linear_rate_closed_form(self):
        sigma = kl_from_rate(linear(1.0))
        assert sigma(2.0, 1.0) == pytest.approx(2.0 * np.exp(-1.0), abs=1e-8)

    def test_quadratic_rate_closed_form(self):
        sigma = kl_from_rate(power(2.0))
        assert sigma(2.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_zero_time_is_identity_exact(self):
        sigma = kl_from_rate(power(2.0))
        for s in (0.0, 0.3, 2.0, 17.5):
            assert sigma(s, 0.0) == s

    def test_zero_input_stays_zero(self):
        sigma = kl_from_rate(linear(1.0))
        for t in (0.0, 0.5, 10.0):
            assert sigma(0.0, t) == 0.0

    def test_kl_membership_probe(self):
        sigma = kl_from_rate(linear(0.7))
        assert_kl(sigma, np.linspace(0.0, 3.0, 20), np.linspace(0.0, 8.0, 20))

    def test_semigroup_property(self):
        sigma = kl_from_rate(power(2.0, scale=0.5))
        for s in (0.5, 1.5, 3.0):
            for t1 in (0.2, 1.0):
                for t2 in (0.3, 2.0):
                    two_step = sigma(sigma(s, t1), t2)
                    one_step = sigma(s, t1 + t2)
                    assert two_step == pytest.approx(one_step, abs=1e-6)

    def test_comparison_principle_monotone_in_rate(self):
        fast = kl_from_rate(linear(2.0))
        slow = kl_from_rate(linear(1.0))
        for s in (0.5, 2.0):
            for t in (0.1, 1.0, 4.0):
                assert slow(s, t) >= fast(s, t) - 1e-12

    def test_negative_rate_rejected(self):
        bad = ComparisonFn(fn=lambda s: -s)
        with pytest.raises(ValueError):
            kl_from_rate(bad)

    def test_fading_sup_matches_brute_force(self):
        sigma = kl_from_rate(linear(1.0))
        times = np.linspace(0.0, 5.0, 81)
        rng = np.random.default_rng(0)
        s_series = rng.uniform(0.0, 2.0, size=times.size)
        fast = fading_sup(sigma, s_series, times)
        # brute[i] = max over j <= i of sigma(s_j, t_i - t_j), one column j at a time
        brute = np.full(times.size, -np.inf)
        for j in range(times.size):
            column = sigma.eval_t_array(s_series[j], times[j:] - times[j])
            brute[j:] = np.maximum(brute[j:], column)
        assert np.allclose(fast, brute, atol=1e-7)

    @pytest.mark.parametrize("rate", [linear(1.0), power(2.0)], ids=["linear", "square"])
    def test_distinct_levels_retain_bounded_memory(self, rate):
        sigma = kl_from_rate(rate)
        sigma(1.0, 0.5)  # warm-up solve: SciPy's ODE suite loads outside the trace
        levels = np.linspace(0.01, 2.0, 100)  # rising, so each node queries a new value
        times = 0.05 * np.arange(levels.size)
        tracemalloc.start()
        try:
            fading_sup(sigma, levels, times)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 1_000_000

    def test_repeated_query_past_the_solve_horizon_reuses_its_solutions(self, monkeypatch):
        import scipy.integrate

        solves = []
        rk45 = scipy.integrate.RK45

        def counting(*args, **kwargs):
            solves.append(args[2])  # the initial value
            return rk45(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "RK45", counting)
        sigma = kl_from_rate(linear(1.0))
        ts = np.linspace(0.0, 100.0, 11)  # past FLOW_T_MAX = 60: chains through sigma(1, 60)
        first = sigma.eval_t_array(1.0, ts)
        for _ in range(3):
            assert np.array_equal(sigma.eval_t_array(1.0, ts), first)
        assert len(solves) == 2

    @pytest.mark.parametrize("rate", [identity(), power(2.0)], ids=["identity", "square"])
    def test_values_are_the_bits_of_a_full_solve(self, rate):
        from scipy.integrate import solve_ivp

        def rhs(t, y):
            return [0.0] if y[0] <= 0.0 else [-float(rate(y[0]))]

        def full_solve(s):
            return solve_ivp(
                rhs, (0.0, FLOW_T_MAX), [s],
                method="RK45", rtol=1e-10, atol=FLOW_ATOL, dense_output=True,
            )

        def oracle(s, ts):
            # the flow's definition on one complete solve per chained horizon
            ts = np.asarray(ts, dtype=float)
            out = np.where(ts <= 0.0, s, np.nan)
            inside = (ts > 0.0) & (ts <= FLOW_T_MAX)
            out[inside] = np.clip(full_solve(s).sol(ts[inside])[0], 0.0, None)
            past = ts > FLOW_T_MAX
            if past.any():
                out[past] = oracle(float(oracle(s, FLOW_T_MAX)), ts[past] - FLOW_T_MAX)
            return out

        s = 1.5
        sigma = kl_from_rate(rate)
        # a short query first, so the later ones extend a partly stepped solution
        queries = [0.02, full_solve(s).t, np.linspace(-1.0, 130.0, 263), FLOW_T_MAX]
        for ts in queries:
            assert sigma.flow(s, ts).tobytes() == oracle(s, ts).tobytes()

    def test_query_order_does_not_change_the_bits(self):
        rate = identity()
        ts = np.concatenate([np.linspace(-1.0, 130.0, 41), [0.02, FLOW_T_MAX]])
        fresh = [kl_from_rate(rate)(0.7, t) for t in ts]
        sigma = kl_from_rate(rate)
        rising = [sigma(0.7, t) for t in ts]
        falling = [sigma(0.7, t) for t in ts[::-1]][::-1]
        assert np.array(rising).tobytes() == np.array(fresh).tobytes()
        assert np.array(falling).tobytes() == np.array(fresh).tobytes()

    def test_a_short_query_steps_only_a_prefix_of_the_solve(self):
        calls = []

        def rate(y):
            calls.append(y)
            return y

        def rate_calls(t):
            sigma = kl_from_rate(rate)
            calls.clear()  # drop the class probes
            sigma(1.0, t)
            return len(calls)

        assert rate_calls(0.02) < 0.05 * rate_calls(FLOW_T_MAX)

    @pytest.mark.parametrize(
        "rate",
        [lambda y: y if y > 0.5 else 1e300, lambda y: np.nan if 0.32 < y < 0.5 else y],
        ids=["stiff", "nan"],
    )
    def test_a_failed_solve_raises_on_every_query_that_reaches_it(self, rate):
        # below 0.5, which y = exp(-t) reaches at t = ln 2, the rate jumps to
        # 1e300 (the step size collapses) or turns NaN on (0.32, 0.5), where
        # no class probe sits
        sigma = kl_from_rate(rate)
        assert sigma(1.0, 0.1) == pytest.approx(np.exp(-0.1), abs=1e-8)
        for t in (1.0, 0.8, 5.0, 1.0, 100.0):
            with pytest.raises(RuntimeError, match="comparison flow failed"):
                sigma(1.0, t)
        with pytest.raises(RuntimeError, match="comparison flow failed"):
            sigma.eval_t_array(1.0, np.array([0.1, 1.0]))
        assert sigma(1.0, 0.1) == pytest.approx(np.exp(-0.1), abs=1e-8)

    def test_a_non_finite_rate_at_the_initial_value_raises(self):
        # RK45 rejects steps from a NaN first slope without end
        sigma = kl_from_rate(lambda y: np.nan if 0.32 < y < 0.5 else y)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="the decay rate is nan at y=0.4"):
                sigma(0.4, 0.1)

    @pytest.mark.parametrize(
        "rate, s",
        [(lambda y: np.nan, 1e-9), (lambda y: y if y > 0.5 else np.nan, 1e-9),
         (lambda y: np.nan if y > 5.0 else y, 10.0)],
        ids=["nan-everywhere", "nan-below-half", "nan-above-five"],
    )
    def test_a_nan_rate_on_a_class_probe_is_refused_at_construction(self, rate, s):
        with pytest.raises(ValueError, match=rf"decay rate is nan at s={s!r};"):
            kl_from_rate(rate)

    def test_fading_sup_needs_a_rate_flow(self):
        sigma = KlFn(fn=lambda s, t: s * np.exp(-t), name="exp")
        with pytest.raises(ValueError, match="flow-backed"):
            fading_sup(sigma, np.ones(3), np.arange(3.0))

    def test_import_leaves_the_ode_suite_unloaded(self):
        # SciPy's ODE suite loads only when a rate flow is first solved
        code = "import sys, rfdestab; assert 'scipy.integrate' not in sys.modules"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestKlFnWrapper:
    def test_custom_closed_form(self):
        sigma = KlFn(fn=lambda s, t: s * np.exp(-t), name="exp")
        assert_kl(sigma, np.linspace(0.0, 2.0, 10), np.linspace(0.0, 5.0, 10))

    def test_eval_t_array(self):
        sigma = kl_from_rate(linear(1.0))
        ts = np.linspace(0.0, 3.0, 7)
        rows = sigma.eval_t_array(2.0, ts)
        for t, v in zip(ts, rows):
            assert v == pytest.approx(sigma(2.0, t), abs=1e-10)
