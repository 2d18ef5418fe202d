"""Comparison functions and KL envelopes built from decay rates."""

import os
import subprocess
import sys
import tracemalloc
import warnings

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
from rfdestab import compfn
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


    @pytest.mark.parametrize(
        "build",
        [
            lambda: linear(np.nan),
            lambda: linear(np.inf),
            lambda: power(np.nan),
            lambda: power(np.inf),
            lambda: power(2.0, np.nan),
            lambda: power(2.0, np.inf),
            lambda: constant(np.nan),
            lambda: constant(np.inf),
            lambda: exp_weight(np.nan),
            lambda: exp_weight(np.inf),
            lambda: exp_weight(-np.inf),
        ],
        ids=[
            "linear-nan", "linear-inf", "power-nan", "power-inf", "power-scale-nan",
            "power-scale-inf", "constant-nan", "constant-inf", "exp_weight-nan",
            "exp_weight-inf", "exp_weight-minus-inf",
        ],
    )
    def test_a_parameter_that_is_not_finite_is_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_a_negative_exponential_rate_is_a_fading_weight(self):
        assert exp_weight(-1.0)(1.0) == pytest.approx(np.exp(-1.0))


def _array_constant(c):
    return lambda t: c * np.ones_like(np.asarray(t, dtype=float))


def _array_exp_weight(c):
    return lambda t: np.exp(c * np.asarray(t, dtype=float))


def _same(ours, ref):
    return (
        type(ours) is type(ref)
        and np.shape(ours) == np.shape(ref)
        and np.asarray(ours).dtype == np.asarray(ref).dtype
        and np.asarray(ours).tobytes() == np.asarray(ref).tobytes()
    )


def _calls_with_warnings(fn, ts):
    """fn at each of ts, and the (category, message) of every warning raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = [fn(t) for t in ts]
    return out, [(w.category, str(w.message)) for w in caught]


class TestScalarTimeWeights:
    """``constant`` and ``exp_weight`` take a scalar path for a float time:
    each result has the value, type and shape of the array expression's."""

    def test_every_kind_of_time_gives_the_array_expression(self):
        times = [
            1.5, -0.0, 0.0, 3, np.float64(2.25), np.float32(1.25), True, np.array(0.75),
            np.array(-0.0), [0.5, -1.0], np.linspace(-2.0, 2.0, 6).reshape(2, 3),
            np.asfortranarray(np.ones((3, 2))), np.array([]),
        ]
        cases = [(constant, _array_constant, c) for c in (1.0, 5.0, 2, np.float64(0.3))]
        cases += [(exp_weight, _array_exp_weight, c) for c in (2.0, -1.0, 0.0, 3, np.float64(-0.7))]
        differ = [
            (build.__name__, c, t)
            for build, array_form, c in cases
            for t in times
            if not _same(build(c)(t), array_form(c)(t))
        ]
        assert not differ, differ

    def test_bitwise_over_many_float_times(self):
        rng = np.random.default_rng(11)
        ts = np.concatenate([
            rng.uniform(-50.0, 50.0, 60_000),
            rng.uniform(-1e3, 1e3, 20_000),  # exp overflows to inf, or underflows to 0
            rng.integers(-2**20, 2**20, 20_000) * 5e-324,  # subnormals
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 354.9, 355.0, -372.0, 1e300],
        ]).tolist()
        for build, array_form, rates in [
            (exp_weight, _array_exp_weight, (2.0, -1.0, 0.5, 0.0)),
            (constant, _array_constant, (1.0, 7.5)),
        ]:
            for c in rates:
                ours, ours_warned = _calls_with_warnings(build(c), ts)
                ref, ref_warned = _calls_with_warnings(array_form(c), ts)
                assert all(_same(a, b) for a, b in zip(ours, ref))
                assert ours_warned == ref_warned
        # 2.0 * 355.0 overflows exp, with NumPy's warning on both paths
        _, warned = _calls_with_warnings(exp_weight(2.0), [355.0])
        assert warned == [(RuntimeWarning, "overflow encountered in exp")]
        # a product c * t beyond the float range is inf on both paths, and
        # only the array path warns, about its multiply
        _, warned = _calls_with_warnings(exp_weight(2.0), [1e308])
        assert _same(exp_weight(2.0)(1e308), np.float64(np.inf)) and warned == []


class TestGuardLevel:
    """gain(weight(t)|u|) with the package's one Euclidean norm: bitwise
    ``np.linalg.norm``, and quiet where its square overflows."""

    def test_bitwise_the_numpy_norm_form(self):
        rng = np.random.default_rng(3)
        weight = exp_weight(2.0)
        # sizes up to 1e150, where no square overflows; the quartic gain up to 1e70
        for gain, top in [(power(4.0, 0.5), 70), (identity(), 150)]:
            for _ in range(1000):
                u = rng.normal(size=rng.integers(0, 5)) * 10.0 ** rng.uniform(-top, top)
                t = float(rng.uniform(0.0, 5.0))
                ref = float(gain(float(weight(t)) * float(np.linalg.norm(u))))
                assert compfn._guard_level(gain, weight, t, u) == ref

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_square_gives_inf_without_a_warning(self):
        assert compfn._guard_level(identity(), constant(1.0), 0.0, np.array([1e200])) == np.inf
        assert compfn._guard_level(identity(), constant(1.0), 0.0, [3.0, 4.0]) == 5.0


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
        sigma(1.0, 0.5)  # warm-up solve, outside the trace
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
        solves = []

        class Counting(compfn._SteppedFlow):
            def __init__(self, rhs, s):
                solves.append(s)
                super().__init__(rhs, s)

        monkeypatch.setattr(compfn, "_SteppedFlow", Counting)
        sigma = kl_from_rate(linear(1.0))
        ts = np.linspace(0.0, 100.0, 11)  # past FLOW_T_MAX = 60: chains through sigma(1, 60)
        first = sigma.eval_t_array(1.0, ts)
        for _ in range(3):
            assert np.array_equal(sigma.eval_t_array(1.0, ts), first)
        assert len(solves) == 2

    @pytest.mark.parametrize("rate", [identity(), power(2.0)], ids=["identity", "square"])
    def test_values_are_the_bits_of_a_full_solve(self, rate):
        def rhs(y):
            return 0.0 if y <= 0.0 else -float(rate(y))

        def full_solve(s):
            sol = compfn._SteppedFlow(rhs, s)
            sol(np.array([FLOW_T_MAX]))  # steps the whole solve before anything is read
            return sol

        def oracle(s, ts):
            # the flow's definition on one complete solve per chained horizon
            ts = np.asarray(ts, dtype=float)
            out = np.where(ts <= 0.0, s, np.nan)
            inside = (ts > 0.0) & (ts <= FLOW_T_MAX)
            out[inside] = np.clip(full_solve(s)(ts[inside]), 0.0, None)
            past = ts > FLOW_T_MAX
            if past.any():
                out[past] = oracle(float(oracle(s, FLOW_T_MAX)), ts[past] - FLOW_T_MAX)
            return out

        s = 1.5
        full = full_solve(s)
        step_times = [row[0] for row in full.rows] + [full.t]
        sigma = kl_from_rate(rate)
        # a short query first, so the later ones extend a partly stepped solution
        queries = [0.02, step_times, np.linspace(-1.0, 130.0, 263), FLOW_T_MAX]
        for ts in queries:
            assert sigma.flow(s, ts).tobytes() == oracle(s, ts).tobytes()

    @pytest.mark.parametrize(
        "rate",
        [identity(), power(2.0), lambda y: y / (1.0 + y) + np.sin(y) ** 2, lambda y: 1e160 if y > 0.5 else y],
        ids=["identity", "square", "no-closed-form", "first-slope-norm-overflows"],
    )
    def test_takes_the_steps_of_scipys_rk45(self, rate):
        from scipy.integrate import solve_ivp

        calls = {"flow": 0, "rk45": 0}

        def counted(key):
            def fn(y):
                calls[key] += 1
                return rate(y)

            return fn

        def rhs(t, y):
            return [0.0] if y[0] <= 0.0 else [-float(scipy_rate(y[0]))]

        def oracle(s, ts):
            with np.errstate(all="ignore"):  # RK45's own norms overflow on a slope of -1e160
                sol = solve_ivp(
                    rhs, (0.0, FLOW_T_MAX), [s],
                    method="RK45", rtol=1e-10, atol=FLOW_ATOL, dense_output=True,
                ).sol
            return np.clip(sol(ts)[0], 0.0, None)

        scipy_rate = counted("rk45")
        sigma = kl_from_rate(counted("flow"))
        calls["flow"] = 0  # drop the class probes
        ts = np.linspace(0.0, FLOW_T_MAX, 241)[1:]  # a whole solve, read every 0.25
        for s in np.logspace(-6.0, 3.0, 10):
            assert np.max(np.abs(sigma.eval_t_array(s, ts) - oracle(s, ts))) <= 1e-12
            assert calls["flow"] == calls["rk45"]  # the same steps, accepted and rejected

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

    @pytest.mark.parametrize("s", [np.inf, np.nan])
    def test_a_non_finite_initial_value_is_refused(self, s):
        sigma = kl_from_rate(linear(1.0))
        with pytest.raises(ValueError, match="finite"):
            sigma(s, 1.0)

    def test_fading_sup_needs_a_rate_flow(self):
        sigma = KlFn(fn=lambda s, t: s * np.exp(-t), name="exp")
        with pytest.raises(ValueError, match="flow-backed"):
            fading_sup(sigma, np.ones(3), np.arange(3.0))

    def test_import_leaves_the_ode_suite_unloaded(self):
        # the rate flows step themselves: no query loads SciPy
        code = (
            "import sys, numpy as np, rfdestab\n"
            "sigma = rfdestab.kl_from_rate(rfdestab.linear(1.0))\n"
            "assert sigma(1.0, 0.5) > 0.0\n"
            "rfdestab.fading_sup(sigma, np.ones(3), np.arange(3.0))\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n"
        )
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
