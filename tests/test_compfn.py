"""Comparison-function algebra: class checks, KL envelopes, small gain, wrapping."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from rfdestab import (
    KlFn,
    check_class,
    check_kl,
    check_small_gain,
    comparison_from_config,
    constant,
    exp_weight,
    fading_sup,
    fn_max,
    fn_min,
    identity,
    kl_from_rate,
    linear,
    nondecreasing_majorant,
    periodic_wrap,
    power,
)


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

    def test_min_max_combinators(self):
        lo = fn_min(linear(1.0), constant(2.0))
        hi = fn_max(linear(1.0), constant(2.0))
        assert lo(5.0) == 2.0 and lo(1.0) == 1.0
        assert hi(5.0) == 5.0 and hi(1.0) == 2.0

    def test_registry_config(self):
        f = comparison_from_config({"name": "power", "p": 2.0, "scale": 3.0})
        assert f(2.0) == 12.0
        g = comparison_from_config(
            {"name": "min", "of": [{"name": "identity"}, {"name": "constant", "c": 2.0}]}
        )
        assert g(5.0) == 2.0
        with pytest.raises(ValueError):
            comparison_from_config({"name": "no-such-fn"})


class TestCheckClass:
    def test_identity_kinf_passes(self):
        assert check_class(identity()).passed

    def test_bounded_fails_kinf(self):
        f = fn_min(linear(1.0), constant(1.0), tag="K_inf")
        rep = check_class(f)
        assert not rep.passed
        assert not rep.checks["unbounded_probe"]["ok"]

    def test_square_positive_definite(self):
        from rfdestab import ComparisonFn

        f = ComparisonFn(fn=lambda s: np.asarray(s) ** 2, tag="positive_definite")
        assert check_class(f).passed

    def test_kplus_weight(self):
        assert check_class(exp_weight(1.0)).passed

    def test_nonfinite_evaluation_raises(self):
        from rfdestab import ComparisonFn

        bad = ComparisonFn(
            fn=lambda s: np.where(np.asarray(s) > 1.0, np.inf, np.asarray(s, dtype=float)),
            tag="K",
        )
        with pytest.raises(ValueError, match="non-finite"):
            check_class(bad)


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
        rep = check_kl(sigma, np.linspace(0.0, 3.0, 20), np.linspace(0.0, 8.0, 20))
        assert rep.passed

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
        from rfdestab import ComparisonFn

        bad = ComparisonFn(fn=lambda s: -s, tag="positive_definite")
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
        solve_ivp = scipy.integrate.solve_ivp

        def counting(*args, **kwargs):
            solves.append(args[2])  # the initial value
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "solve_ivp", counting)
        sigma = kl_from_rate(linear(1.0))
        ts = np.linspace(0.0, 100.0, 11)  # past FLOW_T_MAX = 60: chains through sigma(1, 60)
        first = sigma.eval_t_array(1.0, ts)
        for _ in range(3):
            assert np.array_equal(sigma.eval_t_array(1.0, ts), first)
        assert len(solves) == 2

    def test_fading_sup_needs_a_rate_flow(self):
        sigma = KlFn(fn=lambda s, t: s * np.exp(-t), name="exp")
        with pytest.raises(ValueError, match="flow-backed"):
            fading_sup(sigma, np.ones(3), np.arange(3.0))

    def test_import_leaves_the_ode_suite_unloaded(self):
        # SciPy's ODE suite loads only when a rate flow is first solved
        code = "import sys, rfdestab; assert 'scipy.integrate' not in sys.modules"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestSmallGain:
    def test_zero_series_pass(self):
        times = np.linspace(0.0, 5.0, 200)
        sigma = kl_from_rate(linear(1.0))
        rep = check_small_gain(times, np.zeros_like(times), np.zeros_like(times),
                               sigma, linear(0.5), M=0.0)
        assert rep.hypothesis_ok and rep.conclusion_evaluated
        assert np.all(rep.envelope == 0.0)

    def test_constant_input_dominates(self):
        times = np.linspace(0.0, 5.0, 200)
        c = 0.8
        sigma = kl_from_rate(linear(1.0))
        rep = check_small_gain(times, np.full_like(times, c), np.full_like(times, c),
                               sigma, linear(0.5), M=c)
        assert rep.hypothesis_ok
        assert rep.conclusion_evaluated and rep.worst_conclusion_slack >= 0.0

    def test_decaying_excess_envelope(self):
        times = np.linspace(0.0, 8.0, 400)
        c, M = 0.3, 2.0
        y = np.maximum(M * np.exp(-times), c)
        u = np.full_like(times, c)
        sigma = kl_from_rate(linear(1.0))
        rep = check_small_gain(times, y, u, sigma, linear(0.5), M=M)
        assert rep.hypothesis_ok
        assert rep.conclusion_evaluated and rep.worst_conclusion_slack >= 0.0
        assert rep.envelope_decayed
        # fitted envelope dominated by the analytic decay
        assert np.all(rep.envelope <= np.maximum(M * np.exp(-rep.envelope_times), c) + 1e-9)

    def test_hypothesis_violation_detected(self):
        times = np.linspace(0.0, 5.0, 200)
        y = np.exp(0.5 * times)  # grows: cannot satisfy a fading bound from M=1
        u = np.zeros_like(times)
        sigma = kl_from_rate(linear(1.0))
        rep = check_small_gain(times, y, u, sigma, linear(0.5), M=1.0)
        assert not rep.hypothesis_ok
        assert not rep.conclusion_evaluated
        assert rep.hypothesis_witness is not None


class TestPeriodicWrap:
    def test_zero(self):
        assert periodic_wrap(0.0, 5.0) == (0, 0.0)

    def test_interior(self):
        k, rem = periodic_wrap(12.5, 5.0)
        assert k == 2 and rem == pytest.approx(2.5)

    def test_boundary(self):
        assert periodic_wrap(5.0, 5.0) == (1, 0.0)

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            t0 = rng.uniform(0.0, 100.0)
            T = rng.uniform(0.1, 7.0)
            k, rem = periodic_wrap(t0, T)
            assert 0.0 <= rem < T
            assert k * T + rem == pytest.approx(t0, abs=1e-12)


class TestMajorant:
    def test_oscillating_weight(self):
        grid = np.linspace(0.0, 10.0, 2001)
        maj = nondecreasing_majorant(lambda t: np.sin(t) + 1.5, grid)
        ts = np.linspace(0.0, 10.0, 101)
        vals = np.array([maj(t) for t in ts])
        assert np.all(np.diff(vals) >= -1e-12)
        for t, v in zip(ts, vals):
            assert v >= np.sin(t) + 1.5 - 1e-6


class TestKlFnWrapper:
    def test_custom_closed_form(self):
        sigma = KlFn(fn=lambda s, t: s * np.exp(-t), name="exp")
        rep = check_kl(sigma, np.linspace(0.0, 2.0, 10), np.linspace(0.0, 5.0, 10))
        assert rep.passed

    def test_eval_t_array(self):
        sigma = kl_from_rate(linear(1.0))
        ts = np.linspace(0.0, 3.0, 7)
        rows = sigma.eval_t_array(2.0, ts)
        for t, v in zip(ts, rows):
            assert v == pytest.approx(sigma(2.0, t), abs=1e-10)
