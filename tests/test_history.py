"""Window-segment storage, interpolation, sup norms, and the shift-extend operator."""

import numpy as np
import pytest

from rfdestab import (
    HistorySegment,
    clip_to_ball,
    extend,
    history_distance,
    sample_history,
    sup_norm,
)


def seg_from_fn(delay, fn, n_points=65, dim=1):
    grid = np.linspace(-delay, 0.0, n_points)
    vals = np.array([np.atleast_1d(fn(th)) for th in grid], dtype=float)
    assert vals.shape[1] == dim
    return HistorySegment(delay, grid, vals)


class TestConstruction:
    def test_grid_must_span_window(self):
        with pytest.raises(ValueError):
            HistorySegment(1.0, np.array([-0.5, 0.0]), np.zeros((2, 1)))

    def test_grid_strictly_increasing(self):
        with pytest.raises(ValueError):
            HistorySegment(1.0, np.array([-1.0, -0.5, -0.5, 0.0]), np.zeros((4, 1)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            HistorySegment(1.0, np.array([-1.0, 0.0]), np.array([[np.nan], [0.0]]))

    def test_values_with_more_than_two_dimensions_rejected(self):
        # a third axis used to pass as dim 2, then broke sup_norm and integral
        values = np.zeros((2, 2, 2))
        with pytest.raises(ValueError, match="3 dimensions"):
            HistorySegment(1.0, [-1.0, 0.0], values)
        data = {"r": 1.0, "n": 2, "grid": [-1.0, 0.0], "values": values.tolist()}
        with pytest.raises(ValueError, match="3 dimensions"):
            HistorySegment.from_json_dict(data)

    def test_constant_builder(self):
        seg = HistorySegment.constant(2.0, [3.0, 4.0])
        assert seg.delay == 2.0
        assert seg.dim == 2
        assert np.all(seg.values == [3.0, 4.0])

    def test_json_round_trip(self):
        seg = seg_from_fn(1.5, lambda th: [np.sin(th), np.cos(th)], 17, dim=2)
        back = HistorySegment.from_json_dict(seg.to_json_dict())
        assert back.delay == seg.delay
        assert np.array_equal(back.grid, seg.grid)
        assert np.array_equal(back.values, seg.values)


class TestSupNorm:
    def test_constant_vector(self):
        # constant (3, 4) on [-1, 0] has Euclidean norm 5 everywhere
        assert sup_norm(HistorySegment.constant(1.0, [3.0, 4.0])) == pytest.approx(5.0)

    def test_zero_segment(self):
        assert sup_norm(HistorySegment.constant(1.0, [0.0])) == 0.0

    def test_linear_ramp(self):
        # x(theta) = theta on [-1, 0]: max |theta| = 1 at theta = -1
        seg = HistorySegment(1.0, np.array([-1.0, 0.0]), np.array([[-1.0], [0.0]]))
        assert sup_norm(seg) == pytest.approx(1.0)

    def test_interior_norm_max_bracketed(self):
        # the components cross zero together: the norm is sqrt(2) at both knots
        # and 0 at the midpoint, so the maximum sits at the knots
        seg = HistorySegment(
            1.0,
            np.array([-1.0, 0.0]),
            np.array([[1.0, -1.0], [-1.0, 1.0]]),
        )
        exact = np.sqrt(2.0)
        assert sup_norm(seg) == pytest.approx(exact, rel=1e-9)


class TestEval:
    def test_linear_interpolation(self):
        seg = HistorySegment(1.0, np.array([-1.0, 0.0]), np.array([[0.0], [2.0]]))
        assert seg.eval(-0.5)[0] == pytest.approx(1.0)

    def test_endpoints_exact(self):
        rng = np.random.default_rng(0)
        seg = sample_history(rng, 1.0, 3, 2.0)
        assert np.array_equal(seg.eval(0.0), seg.values[-1])
        assert np.array_equal(seg.eval(-1.0), seg.values[0])

    def test_grid_points_exact_bitwise(self):
        rng = np.random.default_rng(1)
        seg = sample_history(rng, 2.0, 2, 1.0)
        for i, th in enumerate(seg.grid):
            assert np.array_equal(seg.eval(th), seg.values[i])

    def test_out_of_range_raises(self):
        seg = HistorySegment.constant(1.0, [0.0])
        with pytest.raises(ValueError):
            seg.eval(-1.5)
        with pytest.raises(ValueError):
            seg.eval(0.5)

    def test_nan_offset_raises(self):
        seg = HistorySegment.constant(1.0, [0.0])
        with pytest.raises(ValueError, match="outside"):
            seg.eval(float("nan"))
        with pytest.raises(ValueError, match="outside"):
            seg.eval_many(np.array([-0.5, np.nan]))

    def test_eval_many_matches_eval(self):
        rng = np.random.default_rng(2)
        seg = sample_history(rng, 1.0, 2, 3.0)
        thetas = np.linspace(-1.0, 0.0, 37)
        many = seg.eval_many(thetas)
        for th, row in zip(thetas, many):
            assert np.allclose(row, seg.eval(th), atol=1e-14)


class TestExtend:
    def test_zero_step_identity(self):
        rng = np.random.default_rng(3)
        seg = sample_history(rng, 1.0, 2, 1.0)
        out = extend(seg, np.zeros(2), 0.0)
        thetas = np.linspace(-1.0, 0.0, 50)
        assert np.allclose(out.eval_many(thetas), seg.eval_many(thetas), atol=1e-14)

    def test_constant_history_zero_slope(self):
        seg = HistorySegment.constant(1.0, [2.5])
        out = extend(seg, [0.0], 0.3)
        assert np.allclose(out.values, 2.5)

    def test_ramp_on_zero_history(self):
        # zero history, slope 1, step 0.5: 0 on [-1, -0.5], theta + 0.5 after
        seg = HistorySegment.constant(1.0, [0.0])
        out = extend(seg, [1.0], 0.5)
        assert out.eval(-0.75)[0] == pytest.approx(0.0, abs=1e-12)
        assert out.eval(-0.5)[0] == pytest.approx(0.0, abs=1e-12)
        assert out.eval(-0.25)[0] == pytest.approx(0.25, abs=1e-12)
        assert out.eval(0.0)[0] == pytest.approx(0.5, abs=1e-12)

    def test_endpoint_identity_invariant(self):
        # extended value at theta = 0 is x(0) + step * v, to 1e-12
        rng = np.random.default_rng(4)
        for _ in range(20):
            seg = sample_history(rng, 1.0, 2, 2.0)
            v = rng.normal(size=2)
            step = rng.uniform(0.0, 0.99)
            out = extend(seg, v, step)
            assert np.allclose(out.eval(0.0), seg.eval(0.0) + step * v, atol=1e-12)

    def test_continuity_at_knot(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            seg = sample_history(rng, 1.0, 2, 2.0)
            v = rng.normal(size=2)
            step = rng.uniform(1e-3, 0.99)
            out = extend(seg, v, step)
            gap = out.eval(-step + 1e-13) - out.eval(-step - 1e-13)
            assert np.linalg.norm(gap) < 1e-10

    def test_triangle_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            seg = sample_history(rng, 1.0, 3, 2.0)
            v = rng.normal(size=3)
            step = rng.uniform(0.0, 0.99)
            out = extend(seg, v, step)
            assert sup_norm(out) <= sup_norm(seg) + step * np.linalg.norm(v) + 1e-12

    def test_step_at_or_beyond_delay_rejected(self):
        seg = HistorySegment.constant(1.0, [0.0])
        with pytest.raises(ValueError):
            extend(seg, [1.0], 1.0)

    def test_nan_slope_rejected(self):
        seg = sample_history(np.random.default_rng(4), 1.0, 2, 1.0)
        with pytest.raises(ValueError, match="finite"):
            extend(seg, [0.0, np.nan], 0.25)


class TestAddConstant:
    def test_shares_the_grid_and_shifts_every_row(self):
        seg = sample_history(np.random.default_rng(5), 1.0, 2, 1.0)
        out = seg.add_constant([0.5, -1.0])
        assert out.grid is seg.grid
        assert np.array_equal(out.values, seg.values + [0.5, -1.0])
        assert not out.values.flags.writeable

    def test_nan_shift_rejected(self):
        seg = HistorySegment.constant(1.0, [1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            seg.add_constant([np.nan, 0.0])

    def test_overflowing_shift_rejected(self):
        # quietly: a RuntimeWarning from the package fails the test
        seg = HistorySegment.constant(1.0, [1e308])
        with pytest.raises(ValueError, match="overflows"):
            seg.add_constant([1e308])

    def test_wrong_length_shift_rejected(self):
        # a one-element shift would broadcast over every coordinate
        seg = HistorySegment.constant(1.0, [1.0, 2.0])
        for w in (np.ones((3, 1, 2)), [5.0], 5.0):
            with pytest.raises(ValueError, match=r"shape \(2,\)"):
                seg.add_constant(w)


class TestSamplingHelpers:
    def test_sample_history_inside_ball(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            seg = sample_history(rng, 1.0, 2, 1.5)
            assert sup_norm(seg) <= 1.5 + 1e-12

    def test_sample_history_deterministic(self):
        a = sample_history(np.random.default_rng(42), 1.0, 2, 1.0)
        b = sample_history(np.random.default_rng(42), 1.0, 2, 1.0)
        assert np.array_equal(a.grid, b.grid)
        assert np.array_equal(a.values, b.values)

    def test_fixed_slope_bound_respected(self):
        # the cap is 8 * norm_bound / delay; about half the draws reach it
        rng = np.random.default_rng(8)
        reached = 0
        for delay, dim, norm_bound in ((1.0, 1, 5.0), (0.3, 2, 2.0), (2.0, 2, 0.5)):
            cap = 8.0 * norm_bound / delay
            for _ in range(50):
                seg = sample_history(rng, delay, dim, norm_bound)
                rise = np.linalg.norm(np.diff(seg.values, axis=0), axis=1)
                ratio = (rise / np.diff(seg.grid)).max() / cap
                assert ratio <= 1.0 + 1e-9
                reached += ratio > 1.0 - 1e-9
        assert reached >= 50

    @pytest.mark.parametrize("delay", [0.0, -1.0, np.nan, np.inf])
    def test_bad_delay_rejected_up_front(self, delay):
        with pytest.raises(ValueError, match="delay"):
            sample_history(np.random.default_rng(0), delay, 1, 1.0)

    @pytest.mark.parametrize("norm_bound", [np.nan, np.inf, -1.0])
    def test_bad_norm_bound_rejected_up_front(self, norm_bound):
        with pytest.raises(ValueError, match="norm_bound"):
            sample_history(np.random.default_rng(0), 1.0, 1, norm_bound)

    def test_overflowing_walk_rejected(self):
        # a finite bound near the float limit: the walk's increments overflow
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
            sample_history(np.random.default_rng(0), 1.0, 1, 1e308)

    def test_clip_to_ball(self):
        seg = HistorySegment.constant(1.0, [3.0, 4.0])
        clipped = clip_to_ball(seg, 1.0)
        assert sup_norm(clipped) <= 1.0 + 1e-12

    def test_history_distance_symmetric_zero(self):
        rng = np.random.default_rng(9)
        a = sample_history(rng, 1.0, 2, 1.0)
        b = sample_history(rng, 1.0, 2, 1.0)
        assert history_distance(a, a) == 0.0
        assert history_distance(a, b) == pytest.approx(history_distance(b, a))
