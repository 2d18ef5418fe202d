"""Property tests for the invariants of windows, the dense store and signals."""

import copy
import hashlib
import itertools
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rfdestab import (
    DiniOpts,
    HistorySegment,
    IntegrateOpts,
    KlFn,
    LyapunovFunctional,
    PiecewiseSignal,
    RazumikhinFunction,
    RfdeSystem,
    SamplerSpec,
    SignalSpec,
    build_example,
    check_razumikhin,
    constant_signal,
    dini_functional,
    dini_pointwise,
    exp_weight,
    extend,
    integrate,
    linear,
    output_norm,
    power,
    sample_history,
    sample_signal,
    sup_norm,
    verify_v_decay_estimate,
)
from rfdestab import lyapunov
from rfdestab.history import _build_windows, _draw_points, _slide, _slope, _trapezoid
from rfdestab.lyapunov import FALSIFY_BLOCK, _sample_blocks, _window_tops
from rfdestab.simulator import _integrate_runs, _tail_pieces, _trailing_window_max, _Window

SETTINGS = settings(max_examples=150, deadline=None)
NUMERIC = DiniOpts(use_analytic=False)

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def segments(draw, max_knots=12, dim=2):
    delay = draw(st.floats(1e-3, 1e3))
    cuts = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=max_knots))
    grid = np.unique(np.concatenate([[-delay], -delay * np.asarray(cuts, dtype=float), [0.0]]))
    assume(np.all(np.diff(grid) > 0.0))
    rows = draw(st.lists(st.lists(finite, min_size=dim, max_size=dim), min_size=grid.size, max_size=grid.size))
    return HistorySegment(delay, grid, np.asarray(rows))


class TestSegmentEvaluation:
    @SETTINGS
    @given(segments())
    def test_eval_and_eval_many_are_exact_at_grid_offsets(self, seg):
        many = seg.eval_many(seg.grid)
        assert np.array_equal(many, seg.values)
        for k, theta in enumerate(seg.grid):
            assert np.array_equal(seg.eval(theta), seg.values[k])

    @SETTINGS
    @given(segments(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_eval_matches_eval_many_between_offsets(self, seg, fracs):
        thetas = -seg.delay * np.asarray(fracs)
        many = seg.eval_many(thetas)
        for k, theta in enumerate(thetas):
            assert np.array_equal(seg.eval(theta), many[k])


class TestAccessors:
    @SETTINGS
    @given(segments())
    def test_rows_and_columnwise_trapezoid(self, seg):
        assert np.array_equal(seg.head, seg.values[-1])
        assert np.array_equal(seg.delayed, seg.values[0])
        integral = seg.integral()
        for j in range(seg.dim):
            assert integral[j] == np.trapezoid(seg.values[:, j], seg.grid)

    @SETTINGS
    @given(st.integers(2, 600), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_long_windows_integrate_column_by_column(self, knots, dim, seed):
        # past 8 and 128 terms NumPy's pairwise summation regroups a sum:
        # each column must still sum as that column alone does
        rng = np.random.default_rng(seed)
        grid = np.concatenate([[-2.0], np.sort(rng.uniform(-2.0, 0.0, knots - 2)), [0.0]])
        assume(np.all(np.diff(grid) > 0.0))
        seg = HistorySegment(2.0, grid, rng.normal(size=(knots, dim)) * 10.0 ** rng.uniform(-3, 3, dim))
        want = [np.trapezoid(seg.values[:, j], seg.grid) for j in range(dim)]
        assert np.array_equal(seg.integral(), want)


class TestTrapezoid:
    @SETTINGS
    @given(
        st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e200, 1e200)), min_size=2, max_size=60),
        st.integers(1, 3),
    )
    def test_bitwise_np_trapezoid(self, points, stride):
        x = np.array([p[0] for p in points])
        # a strided view, as a column of a window's values is
        y = np.repeat(np.array([p[1] for p in points])[:, None], stride, axis=1)[:, 0]
        ours, ref = _trapezoid(y, x), np.trapezoid(y, x)
        assert np.array_equal(ours, ref, equal_nan=True) and type(ours) is type(ref)


    @SETTINGS
    @given(
        st.lists(st.floats(1e-9, 1e3), min_size=1, max_size=60),
        st.floats(-1e3, 1e3),
        st.integers(1, 4),
        st.data(),
    )
    def test_bitwise_np_trapezoid_on_increasing_grids(self, gaps, start, rows, data):
        x = start + np.cumsum([0.0] + gaps)
        assume(np.all(np.diff(x) > 0.0))
        y = np.array(data.draw(st.lists(
            st.lists(st.floats(-1e200, 1e200), min_size=x.size, max_size=x.size), min_size=rows, max_size=rows
        )))
        for values in (y[0], y):  # 1-D, and 2-D along the last axis
            ours, ref = _trapezoid(values, x), np.trapezoid(values, x)
            assert np.asarray(ours).tobytes() == np.asarray(ref).tobytes() and type(ours) is type(ref)


class TestSupNorm:
    @SETTINGS
    @given(segments(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_is_the_largest_knot_norm(self, seg, fracs):
        best = sup_norm(seg)
        assert best == np.linalg.norm(seg.values, axis=1).max()
        # the norm is convex along each linear piece, so no offset between
        # knots exceeds it; interpolating two equal rows rounds, which lifts
        # their norm by up to 3 ulps in a random probe, hence the 8-ulp band
        between = np.linalg.norm(seg.eval_many(-seg.delay * np.asarray(fracs)), axis=1)
        assert between.max() <= best + 8.0 * np.spacing(best)


class TestOutputNorm:
    @SETTINGS
    @given(st.lists(st.floats(-1e150, 1e150, allow_nan=False), min_size=1, max_size=6))
    def test_is_numpys_norm_bit_for_bit(self, entries):
        y = np.asarray(entries)
        assert output_norm(y) == np.linalg.norm(y)


class TestExtend:
    @SETTINGS
    @given(segments(), st.lists(finite, min_size=2, max_size=2))
    def test_zero_step_returns_the_same_segment(self, seg, v):
        assert extend(seg, v, 0.0) is seg

    @SETTINGS
    @given(segments(), st.lists(finite, min_size=2, max_size=2), st.floats(1e-3, 0.999))
    @example(  # two knots closer than the rounding of the shift by -step
        HistorySegment(1.0, np.array([-1.0, -1.17549435e-38, 0.0]), np.array([[0.0, 0], [0, 0], [0, 1]])),
        [0.0, 0.0],
        0.5,
    )
    def test_both_pieces_agree_at_minus_step(self, seg, v, frac):
        step = frac * seg.delay
        v = np.asarray(v)
        out = extend(seg, v, step)
        assert HistorySegment(out.delay, out.grid, out.values) == out
        assert out.grid[0] == -seg.delay and out.grid[-1] == 0.0
        # the old window moved back by step and the appended ramp meet at the knot -step,
        # where both give the old head value
        assert np.array_equal(out.eval(-step), seg.values[-1])
        # just either side of -step each piece follows its own formula; the
        # moved knots are rounded, which moves values by up to slope * ulp(r)
        eps = 1e-6 * step
        scale = 1e-9 * (1.0 + np.abs(seg.values).max() + np.abs(v).max() * seg.delay)
        with np.errstate(over="ignore"):  # knots a subnormal apart: any error goes
            slope = np.abs(np.diff(seg.values, axis=0)).max() / np.diff(seg.grid).min()
            shift_err = slope * 4.0 * np.finfo(float).eps * seg.delay
        assert np.abs(out.eval(-step - eps) - seg.eval(-eps)).max() <= scale + shift_err
        assert np.abs(out.eval(-step + eps) - (seg.values[-1] + eps * v)).max() <= scale

    @SETTINGS
    @given(segments(), st.lists(finite, min_size=2, max_size=2), st.floats(0.0, 1.0, exclude_max=True))
    @example(  # two knots closer than the rounding of the shift by -step
        HistorySegment(1.0, np.array([-1.0, -1.17549435e-38, 0.0]), np.array([[0.0, 0], [0, 0], [0, 1]])),
        [0.0, 0.0],
        0.5,
    )
    @example(  # a moved knot lands on -r, so the row at the lower end is dropped
        HistorySegment(1.0, np.array([-1.0, -0.36303831267854564, 0.0]), np.array([[1.0, 2], [3, 4], [5, 6]])),
        [1.0, -1.0],
        0.6369616873214543,
    )
    @example(  # the lower end lands exactly on a knot
        HistorySegment(2.0, np.array([-2.0, -1.5, 0.0]), np.array([[1.0, 2], [3, 4], [5, 6]])),
        [1.0, -1.0],
        0.25,
    )
    def test_bitwise_the_stacked_construction(self, seg, v, frac):
        step = frac * seg.delay
        out, ref = extend(seg, v, step), _extend_by_stacking(seg, v, step)
        assert out.grid.tobytes() == ref.grid.tobytes()
        assert out.values.tobytes() == ref.values.tobytes()

    @SETTINGS
    @given(st.data())
    def test_the_grid_is_strictly_increasing_at_ulp_scale(self, data):
        # steps a few ulps above 0 and below the delay, and runs of knots 1 ulp
        # apart around -delay, the lower end step - delay, 0 and a few cuts:
        # moved knots that round onto one offset fold into the last, and none
        # lands below -delay, so no check of the grid is needed
        delay = data.draw(st.floats(1e-3, 1e3))
        ulps = data.draw(st.integers(1, 4))
        below_delay = delay
        for _ in range(ulps):
            below_delay = math.nextafter(below_delay, 0.0)
        step = data.draw(st.sampled_from([
            ulps * math.ulp(0.0),
            below_delay,
            delay * data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        ]))
        assume(0.0 < step < delay)
        cuts = data.draw(st.lists(st.floats(0.0, 1.0), max_size=3))
        knots = {-delay, 0.0}
        for anchor in [-delay, step - delay, 0.0, *(-delay * c for c in cuts)]:
            for toward in (-math.inf, math.inf):
                x = anchor
                for _ in range(data.draw(st.integers(0, 3))):
                    x = math.nextafter(x, toward)
                    knots.add(x)
        grid = np.array(sorted(k for k in knots if -delay <= k <= 0.0))
        rows = data.draw(st.lists(finite, min_size=grid.size, max_size=grid.size))
        seg = HistorySegment(delay, grid, np.array(rows))
        out = extend(seg, [data.draw(finite)], step)
        assert out.grid[0] == -delay and out.grid[-1] == 0.0
        assert (np.diff(out.grid) > 0.0).all()
        assert out.grid[-2] == -step and np.array_equal(out.values[-2], seg.values[-1])
        assert HistorySegment(out.delay, out.grid, out.values) == out

    @SETTINGS
    @given(segments(), st.lists(finite, min_size=2, max_size=2), st.floats(0.0, 1.0), st.integers(0, 12))
    @example(  # the lower end lands exactly on a knot
        HistorySegment(2.0, np.array([-2.0, -1.5, 0.0]), np.array([[1.0, 2], [3, 4], [5, 6]])),
        [1.0, -1.0],
        0.25,
        0,
    )
    def test_the_ladder_slide_is_bitwise_extend(self, seg, v, frac, knot):
        # a numeric Dini ladder checks its slope once and slides each rung
        # with _slide: one step anywhere, and one whose lower end is a knot
        steps = [frac * seg.delay]
        if seg.grid.size > 2:
            steps.append(seg.grid[1 + knot % (seg.grid.size - 2)] + seg.delay)
        slope = _slope(seg, v)
        for step in steps:
            if not 0.0 < step < seg.delay:
                continue
            out, ref = _slide(seg, slope, step), extend(seg, v, step)
            assert out.grid.tobytes() == ref.grid.tobytes()
            assert out.values.tobytes() == ref.values.tobytes()
        # a wrong-shaped slope still raises rather than broadcast
        V = LyapunovFunctional(evaluator=lambda t, x: float(x.head @ x.head))
        for bad in ([1.0], [1.0, 2.0, 3.0], [[1.0], [2.0]]):
            with pytest.raises(ValueError, match=r"slope must have shape \(2,\)"):
                dini_functional(V, 0.0, seg, np.array(bad), NUMERIC)


def _extend_by_stacking(segment, v, step):
    """``extend`` as it was written before it filled preallocated rows: the
    row at the lower end from ``eval``, then ``concatenate`` and ``vstack``."""
    if step == 0.0:
        return segment
    v = np.asarray(v, dtype=float)
    r, grid = segment.delay, segment.grid
    lo = step - r
    i0 = int(np.searchsorted(grid, lo, side="right"))
    keep, keep_vals = grid[i0:] - step, segment.values[i0:]
    if (keep[1:] <= keep[:-1]).any():
        last = np.append(keep[1:] > keep[:-1], True)
        keep, keep_vals = keep[last], keep_vals[last]
    new_grid = np.concatenate([[-r], keep, [0.0]])
    new_vals = np.vstack([segment.eval(lo), keep_vals, segment.values[-1] + step * v])
    if keep[0] == -r:
        new_grid, new_vals = new_grid[1:], new_vals[1:]
    return HistorySegment(r, new_grid, new_vals)


def _validated_sample(rng, delay, dim, norm_bound):
    """``sample_history`` as it was built before its one-pass construction:
    a validated knot segment, densified by ``union1d`` and ``eval_many``."""
    k = int(rng.integers(1, 5))
    interior = np.sort(rng.uniform(-delay, 0.0, size=k))
    grid = np.unique(np.concatenate([[-delay], interior, [0.0]]))
    max_slope = 8.0 * max(norm_bound, 1e-12) / delay

    def ball_point():
        z = rng.normal(size=dim)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return np.zeros(dim)
        radius = norm_bound * rng.random() ** (1.0 / dim)
        return z * (radius / nz)

    vals = np.empty((grid.size, dim))
    vals[0] = ball_point()
    for i in range(1, grid.size):
        dv = ball_point() - vals[i - 1]
        lim = max_slope * (grid[i] - grid[i - 1])
        nd = np.linalg.norm(dv)
        if nd > lim:
            dv *= lim / nd
        vals[i] = vals[i - 1] + dv
    seg = HistorySegment(delay, grid, vals)
    dense = np.union1d(seg.grid, np.linspace(-delay, 0.0, 33))
    return HistorySegment(delay, dense, seg.eval_many(dense))


def _scalar_samples(rng, sys_, spec, draw_u):
    """The falsifiers' samples drawn one at a time: ``uniform`` t, a
    validated window, then ``uniform`` per row of the input box (when drawn)
    and of the disturbance box."""

    def box_point(box):
        rows = [] if box is None else box.tolist()
        return np.array([rng.uniform(lo, hi) for lo, hi in rows], dtype=float)

    for _ in range(spec.samples):
        t = float(rng.uniform(spec.t_lo, spec.t_hi))
        seg = _validated_sample(rng, sys_.delay_r, sys_.dim_n, spec.norm_bound)
        u = box_point(sys_.u_box) if draw_u else sys_.zero_input()
        yield t, seg, u, box_point(sys_.d_box)


def _block_samples(sys_, spec, draw_u):
    """The falsifiers' samples drawn from ``spec.seed``, block after block,
    as (t, window, u, d): a fresh draw, which leaves the kept draws as they
    were."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lyapunov, "_kept", None)
        return [sample for block in _sample_blocks(sys_, spec, draw_u) for sample in zip(*block)]


def _assert_same_window(seg, ref):
    assert seg.delay == ref.delay
    assert seg.grid.tobytes() == ref.grid.tobytes()
    assert seg.values.shape == ref.values.shape
    assert seg.values.tobytes() == ref.values.tobytes()
    assert not (seg.grid.flags.writeable or seg.values.flags.writeable)


class _ZeroNormals:
    """A generator whose ``normal`` draws come back zero at the chosen calls
    (counted from 0), each zero with its draw's sign, as the ziggurat can
    give -0.0; every call still draws from the wrapped generator."""

    def __init__(self, seed, zero_calls):
        self._rng = np.random.default_rng(seed)
        self._zero = set(zero_calls)
        self._calls = 0

    def normal(self, *args, **kwargs):
        z = self._rng.normal(*args, **kwargs)
        self._calls += 1
        return np.copysign(0.0, z) if self._calls - 1 in self._zero else z

    def __getattr__(self, name):
        return getattr(self._rng, name)


class _Recording:
    """A generator that records each call it passes on to the wrapped one as
    (method name, args, kwargs, result)."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def record(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls.append((name, args, kwargs, out))
            return out

        return record


# a falsifier block's draws: its seed, window shape, norm bound and time range
BLOCK_DRAWS = dict(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    delay=st.floats(1e-4, 1e3),
    norm_bound=st.one_of(st.sampled_from([0.0, 1e6]), st.floats(1e-6, 1e3)),
    t_lo=finite,
    t_width=st.floats(0.0, 1e3),
)
BLOCK_COUNTS = st.one_of(
    st.sampled_from([1, FALSIFY_BLOCK, FALSIFY_BLOCK + 1]), st.integers(2, FALSIFY_BLOCK)
)


class TestSampleHistory:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 3),
        delay=st.floats(1e-3, 10.0),
        norm_bound=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
    )
    def test_bitwise_the_validated_construction(self, seed, dim, delay, norm_bound):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            seg = sample_history(rng, delay, dim, norm_bound)
            ref = _validated_sample(ref_rng, delay, dim, norm_bound)
            assert seg.delay == ref.delay
            assert seg.grid.tobytes() == ref.grid.tobytes()
            assert seg.values.tobytes() == ref.values.tobytes()
            assert HistorySegment(seg.delay, seg.grid, seg.values) == seg
            assert not (seg.grid.flags.writeable or seg.values.flags.writeable)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @SETTINGS
    @given(
        **BLOCK_DRAWS,
        count=BLOCK_COUNTS,
        draw_u=st.booleans(),
        u_box=st.sampled_from([None, [[-1.0, 1.0]], [[0.3, 0.3], [-2.0, 2.0]]]),
        d_box=st.sampled_from([np.zeros((0, 2)), [[0.0, 0.0]], [[-0.25, 0.25], [1.0, 1.0]]]),
    )
    def test_a_block_is_bitwise_its_windows_drawn_one_at_a_time(
        self, seed, dim, delay, norm_bound, t_lo, t_width, count, draw_u, u_box, d_box
    ):
        # every (t, window, u, d) of the falsifiers' blocks is the scalar draw's
        sys_ = RfdeSystem(delay, dim, None, None, d_box, None if u_box is None else np.array(u_box))
        spec = SamplerSpec(t_lo, t_lo + t_width, norm_bound, count, seed)
        ref_rng = np.random.default_rng(seed)
        got = _block_samples(sys_, spec, draw_u)
        want = list(_scalar_samples(ref_rng, sys_, spec, draw_u))
        assert len(got) == len(want) == count
        for (t, seg, u, d), (t_ref, ref, u_ref, d_ref) in zip(got, want):
            assert type(t) is float and t.hex() == t_ref.hex()
            _assert_same_window(seg, ref)
            assert u.shape == u_ref.shape and u.tobytes() == u_ref.tobytes()
            assert d.shape == d_ref.shape and d.tobytes() == d_ref.tobytes()
        # and the same blocks leave the generator where the scalar draws do
        rng, boxes = np.random.default_rng(seed), (sys_.u_box if draw_u else None, sys_.d_box)
        for start in range(0, count, FALSIFY_BLOCK):
            _draw_points(rng, min(FALSIFY_BLOCK, count - start), delay, dim, norm_bound, (spec.t_lo, spec.t_hi), boxes)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("dim", [1, 3])
    def test_a_zero_normal_gives_a_zero_knot_and_draws_no_radius(self, dim):
        # every third normal is zero, window 0's first knot among them
        zeros = range(0, 20 * FALSIFY_BLOCK, 3)
        rng, ref = _ZeroNormals(7, zeros), _ZeroNormals(7, zeros)
        box = np.array([[0.3, 0.3], [-2.0, 2.0]])
        spec = SamplerSpec(norm_bound=2.0, samples=FALSIFY_BLOCK + 1)
        sys_ = RfdeSystem(0.5, dim, None, None, box)
        times, offsets, rows, sizes, (points,) = _draw_points(
            rng, spec.samples, 0.5, dim, 2.0, (spec.t_lo, spec.t_hi), (box,)
        )
        windows = _build_windows(0.5, offsets, rows, sizes)
        want = list(_scalar_samples(ref, sys_, spec, False))
        assert not windows[0].delayed.any()
        for t, seg, d, (t_ref, ref_seg, _, d_ref) in zip(times.tolist(), windows, points, want):
            assert t.hex() == t_ref.hex()
            _assert_same_window(seg, ref_seg)
            assert d.tobytes() == d_ref.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        one, one_ref = _ZeroNormals(7, [0]), _ZeroNormals(7, [0])
        seg = sample_history(one, 0.5, dim, 2.0)
        _assert_same_window(seg, _validated_sample(one_ref, 0.5, dim, 2.0))
        assert not seg.delayed.any()
        assert one.bit_generator.state == one_ref.bit_generator.state

    @pytest.mark.parametrize("dim", [1, 3])
    def test_a_block_makes_the_documented_calls_in_order(self, dim):
        # per sample: t, the knot count, the offsets, then per knot a normal
        # and, unless it is zero (every fourth here), a radius; then the box rows
        rng = _Recording(_ZeroNormals(5, range(0, 100, 4)))
        box = np.array([[0.3, 0.3], [-2.0, 2.0]])
        _draw_points(rng, 3, 0.5, dim, 2.0, (0.0, 5.0), (box,))
        calls = iter(rng.calls)
        zero_normals = 0
        for _ in range(3):
            assert next(calls)[:3] == ("random", (), {})
            name, args, kwargs, k = next(calls)
            assert (name, args, kwargs) == ("integers", (1, 5), {})
            name, args, kwargs, us = next(calls)
            assert (name, args, kwargs) == ("random", (k,), {})
            for _ in {-0.5, *(0.5 * us - 0.5).tolist(), 0.0}:
                name, args, kwargs, z = next(calls)
                assert (name, args, kwargs) == ("normal", (), {"size": dim})
                if z.any():
                    assert next(calls)[:3] == ("random", (), {})
                else:
                    zero_normals += 1
            assert next(calls)[:3] == ("random", (2,), {})
        assert next(calls, None) is None
        assert zero_normals > 0

    @pytest.mark.parametrize("delay, dim, norm_bound, digest", [
        (0.5, 2, 2.0, "dd68b2dc2c3da1da28902dfdfb43114e62c5bc683cb0944f266f987910124c9e"),
        (1e-3, 1, 1e6, "3b088fb51d46005d654c85ca6c202562242af8964d2944691c86dbd663ef9de7"),
        (1e3, 4, 0.0, "934e9ec167575c2f3e4a414488afc2d706bd5030038bf91da8e06d4c88a48a6d"),
    ])
    def test_windows_of_seed_0_are_pinned(self, delay, dim, norm_bound, digest):
        # sha256 over 20 windows' grid and value bytes, recorded when each
        # window was densified by union1d and interpolated on its own
        rng = np.random.default_rng(0)
        h = hashlib.sha256()
        for _ in range(20):
            seg = sample_history(rng, delay, dim, norm_bound)
            h.update(seg.grid.tobytes())
            h.update(seg.values.tobytes())
        assert h.hexdigest() == digest

    def test_witness_history_round_trips(self):
        cert = build_example("example-4.8").certificate("unweighted-guard-fails")
        rep = cert.runner(seed=0, samples=200)
        assert rep.verdict == "counterexample"
        data = rep.witness["history"]
        back = HistorySegment.from_json_dict(data)
        assert back.to_json_dict() == data
        assert back.dim == 2 and back.delay == data["r"]


def _screen_energy(nan_cut, raise_cut, max_rows):
    """A row-wise batch energy, e^(-|t|/1e3)|x|^2, that is NaN on rows whose
    first coordinate is above ``nan_cut`` and raises on a call with a row
    above ``raise_cut`` or with more than ``max_rows`` rows."""

    def many(ts, X):
        if X.shape[0] > max_rows:
            raise ZeroDivisionError(f"{X.shape[0]} rows")
        if (X[:, 0] > raise_cut).any():
            first = ts[np.argmax(X[:, 0] > raise_cut)]
            raise ValueError(f"a row above {raise_cut!r}, first at t={first!r}")
        out = np.exp(-np.abs(ts) / 1e3) * np.einsum("ij,ij->i", X, X)
        out[X[:, 0] > nan_cut] = np.nan
        return out

    return many


def _razumikhin_by_window(sys_, Vr, a, rho, spec):
    """check_razumikhin's counts, verdict and first failure, computed one
    window at a time, each window making its own ``Vr.along`` call."""
    tested = skipped = failures = 0
    first, found = None, False
    for t, seg, u, d in _block_samples(sys_, spec, False):
        try:
            x0 = seg.values[-1]
            v0 = float(Vr.evaluator(t, x0))
            vals = Vr.along(t + seg.grid, seg.values)
            if not np.isfinite(vals).all():
                raise ValueError("window evaluation produced non-finite values")
            if float(a(float(vals.max()))) > v0:
                skipped += 1
                continue
            v = np.asarray(sys_.dynamics(t, seg, u, d), dtype=float)
            dv = dini_pointwise(Vr, t, x0, v)
            residual = dv + float(rho(v0))
        except (ValueError, FloatingPointError, ZeroDivisionError, OverflowError) as err:
            failures += 1
            first = first or {"type": type(err).__name__, "message": str(err)}
            continue
        tested += 1
        found = found or residual > 1e-9 + 1e-9 * abs(dv)
    if found:
        verdict = "counterexample"
    elif failures > max(1, spec.samples // 10) or tested == 0:
        verdict = "inconclusive"
    else:
        verdict = "no_counterexample"
    return verdict, tested, skipped, failures, first


class TestWindowScreen:
    """check_razumikhin screens a block's window guards with one ``along``
    call: each window's largest value and finiteness are bitwise its own
    call's, and a batch energy that gives NaN or raises leaves the report as
    a window-at-a-time sweep gives it."""

    CUTS = dict(
        nan_cut=st.one_of(st.just(math.inf), st.floats(-1.0, 1.0)),
        raise_cut=st.one_of(st.just(math.inf), st.floats(-1.0, 1.0)),
        max_rows=st.sampled_from([10**9, 200, 37]),
    )

    @SETTINGS
    @given(**BLOCK_DRAWS, count=BLOCK_COUNTS, nan_cut=CUTS["nan_cut"])
    def test_each_window_is_its_own_call(self, seed, dim, delay, norm_bound, t_lo, t_width, count, nan_cut):
        sys_ = RfdeSystem(delay, dim, None, None, np.zeros((0, 2)))
        spec = SamplerSpec(t_lo, t_lo + t_width, norm_bound, count, seed)
        many = _screen_energy(nan_cut * norm_bound, math.inf, 10**9)
        Vr = RazumikhinFunction(lambda t, x: 0.0, evaluator_many=many)
        times, windows, _, _ = zip(*_block_samples(sys_, spec, False))
        for t, seg, (top, finite) in zip(times, windows, _window_tops(Vr, times, windows)):
            vals = Vr.along(t + seg.grid, seg.values)
            assert type(top) is float and type(finite) is bool
            assert finite == bool(np.isfinite(vals).all())
            if not np.isnan(vals).any():
                assert np.float64(top).tobytes() == vals.max().tobytes()
            else:
                assert math.isnan(top)

    @SETTINGS
    @given(
        seed=BLOCK_DRAWS["seed"],
        dim=st.integers(1, 3),
        count=st.sampled_from([FALSIFY_BLOCK - 1, 2 * FALSIFY_BLOCK + 3]),
        rate=st.sampled_from([1.0, 3.0]),
        **CUTS,
    )
    def test_a_faulty_batch_energy_gives_the_window_at_a_time_report(
        self, seed, dim, count, rate, nan_cut, raise_cut, max_rows
    ):
        # x' = -x(0) and V = |x|^2 along the rows: the residual is (rate - 2)|x(0)|^2
        sys_ = RfdeSystem(0.5, dim, lambda t, seg, u, d: -seg.head, lambda t, seg: seg.head, np.zeros((0, 2)))
        Vr = RazumikhinFunction(
            evaluator=lambda t, x: float(x.dot(x)),
            analytic_dini=lambda t, x, v: 2.0 * float(x.dot(v)),
            evaluator_many=_screen_energy(nan_cut, raise_cut, max_rows),
        )
        spec = SamplerSpec(0.0, 5.0, 1.0, count, seed)
        rep = check_razumikhin(sys_, Vr, linear(0.5), linear(rate), spec)
        ref = _razumikhin_by_window(sys_, Vr, linear(0.5), linear(rate), spec)
        assert (rep.verdict, rep.samples_tested, rep.guard_skipped, rep.eval_failures, rep.first_failure) == ref


def _window_run(r, steps_per_delay, t0, span, fracs, levels, seed):
    """A scalar run with d-switches inside the horizon; every window the
    dynamics saw is recorded."""
    t_end = t0 + span * r
    switches = np.unique(t0 + np.asarray(fracs) * (t_end - t0))
    switches = switches[(switches > t0) & (switches < t_end)]
    d = PiecewiseSignal(switches, np.asarray(levels[: switches.size + 1])[:, None], [[-1.0, 1.0]])
    seen = []

    def dynamics(t, seg, u, dd):
        seen.append((t, seg))
        return dd[0] * seg.values[0] - seg.values[-1]

    system = RfdeSystem(r, 1, dynamics, lambda t, seg: seg.values[-1], np.array([[-1.0, 1.0]]))
    x0 = sample_history(np.random.default_rng(seed), r, 1, 1.0)
    traj = integrate(system, t0, x0, None, d, t_end, IntegrateOpts(step_req=r / steps_per_delay))
    return traj, seen


def _check_window(seg, t, r, K, V):
    """Endpoints exact, grid strictly increasing, and the interior is the
    stored knots after t - r and before t whose offsets stay above -r."""
    grid = seg.grid
    assert grid[0] == -r and grid[-1] == 0.0
    assert np.all(np.diff(grid) > 0.0), f"grid not strictly increasing at t={t!r}"
    off = K - t
    inside = np.nonzero((K > t - r) & (K < t) & (off > -r))[0]
    # knots whose offsets round together appear once, as the last of the run
    inside = inside[np.append(np.diff(off[inside]) > 0.0, True)]
    assert np.array_equal(grid[1:-1], off[inside])
    assert np.array_equal(seg.values[1:-1], V[inside])


# a run of the dense store: delay, step, start time, span, switch nodes and
# levels of d, off-node query times and the initial window's seed
DENSE_RUNS = dict(
    r=st.floats(0.05, 2.0),
    steps_per_delay=st.integers(1, 30),
    t0=st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(1e3, 1e6)),
    span=st.floats(0.3, 3.0),
    fracs=st.lists(st.floats(0.0, 1.0), max_size=4),
    levels=st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5),
    queries=st.lists(st.floats(0.0, 1.0), max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
# a switch node so close to t0 that both land on one offset
CLOSE_SWITCH = dict(
    r=1.0, steps_per_delay=2, t0=0.0, span=1.0, fracs=[1.6567910543969661e-261],
    levels=[0.0] * 5, queries=[], seed=0,
)
# a switch one ulp after a large t0: the first step has no floating-point midpoint
ULP_STEP = dict(
    r=1.0, steps_per_delay=2, t0=262144.0, span=2.0, fracs=[2.4172877385693633e-11],
    levels=[0.0] * 5, queries=[], seed=0,
)
# a switch 4e-10 below the base node t0 + r, within 1e-9 h of it: the grid
# drops that node, so the step after the switch is h + 4e-10, the longest a
# grid makes, and its stages' rows at -r must still read stored knots only
DROPPED_NODE = dict(
    r=1.0, steps_per_delay=2, t0=0.0, span=2.0, fracs=[0.4999999998],
    levels=[0.5, -0.5, 0.0, 0.0, 0.0], queries=[], seed=0,
)
# 300 steps a delay: more than one look-ahead pass (at most 256 nodes) a delay
MANY_STEPS = dict(
    r=1.0, steps_per_delay=300, t0=0.0, span=3.0, fracs=[0.5],
    levels=[0.5, -0.5, 0.0, 0.0, 0.0], queries=[], seed=0,
)
# a step request of a whole delay, where t0 + r - r rounds one ulp above t0:
# with h = r the window's row at -r would lie past the store's last node
WHOLE_DELAY_STEP = dict(
    r=1.6344240681559816, steps_per_delay=1, t0=1.3760699688623768, span=1.0, fracs=[],
    levels=[0.0] * 5, queries=[], seed=0,
)


def _hermite_at(dense, t):
    """The dense value at ``t`` by the scalar cubic Hermite of the two stored
    knots around it (a knot's own row on a knot), written out here so the
    reference shares no code with the store's evaluator."""
    c, K, V = dense.count, dense.K, dense.V
    j = min(int(np.searchsorted(K[:c], t, side="right")) - 1, c - 2)
    ta, tb = float(K[j]), float(K[j + 1])
    if t == ta:
        return V[j]
    if t == tb:
        return V[j + 1]
    dt = tb - ta
    s = (t - ta) / dt
    s2 = s * s
    s3 = s2 * s
    return (
        (2 * s3 - 3 * s2 + 1) * V[j]
        + ((s3 - 2 * s2 + s) * dt) * dense.DOUT[j]
        + (-2 * s3 + 3 * s2) * V[j + 1]
        + ((s3 - s2) * dt) * dense.DIN[j + 1]
    )


def _copied_window(dense, t, head=None):
    """Grid and values of the window at ``t`` built as a copy, the way the
    integrator built every window before windows became views of the store.
    ``head`` is the row at offset 0 (the dense value at ``t`` when None)."""
    r, c, K = dense.delay, dense.count, dense.K
    lo = t - r
    i0 = int(np.searchsorted(K[:c], lo, side="right"))
    tail_row = i0 - 1 if i0 > 0 and K[i0 - 1] == lo else None
    while i0 < c and K[i0] - t <= -r:
        tail_row = i0
        i0 += 1
    i1 = int(np.searchsorted(K[:c], t, side="left"))
    size = i1 - i0 + 2
    grid = np.empty(size)
    vals = np.empty((size, dense.n))
    grid[0] = -r
    vals[0] = _hermite_at(dense, lo) if tail_row is None else dense.V[tail_row]
    grid[1:-1] = K[i0:i1] - t
    vals[1:-1] = dense.V[i0:i1]
    grid[-1] = 0.0
    vals[-1] = _hermite_at(dense, t) if head is None else head
    if dense.close_knots:
        last = np.concatenate([[True], np.diff(grid[1:]) > 0.0, [True]])
        grid, vals = grid[last], vals[last]
    return grid, vals


class TestStackedFunctional:
    """example-4.8's window energy evaluates a stack of windows on one grid,
    as each rung of the numeric Dini ladder does, bitwise window by window."""

    V = build_example("example-4.8").functional

    @SETTINGS
    @given(
        m=st.integers(1, 12),
        cuts=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=38),
        t=st.floats(0.0, 5.0),
        data=st.data(),
    )
    def test_each_row_is_its_window_alone(self, m, cuts, t, data):
        r = 0.5
        grid = np.unique(np.concatenate([[-r], -r * np.asarray(cuts, dtype=float), [0.0]]))
        assume(np.all(np.diff(grid) > 0.0))
        rows = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=m * grid.size * 2, max_size=m * grid.size * 2))
        X = np.reshape(rows, (m, grid.size, 2))
        many = self.V.evaluator_many(t, grid, X)
        assert len(many) == m
        for i in range(m):
            alone = self.V.evaluator(t, HistorySegment(r, grid, X[i]))
            assert np.float64(many[i]).tobytes() == np.float64(alone).tobytes()

    @SETTINGS
    @given(
        cuts=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=38),
        t=st.floats(0.0, 5.0),
        data=st.data(),
    )
    def test_the_energy_is_the_power_formula_to_a_few_ulps(self, cuts, t, data):
        # the integrand (x1 * x1)^2 is within an ulp or two of np.power's x1 ** 4,
        # and every term of the energy is nonnegative; below the smallest
        # normal number the ulp no longer shrinks, hence the absolute floor
        r = 0.5
        grid = np.unique(np.concatenate([[-r], -r * np.asarray(cuts, dtype=float), [0.0]]))
        assume(np.all(np.diff(grid) > 0.0))
        rows = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=grid.size * 2, max_size=grid.size * 2))
        seg = HistorySegment(r, grid, np.reshape(rows, (grid.size, 2)))
        x1 = seg.values[:, 0]
        x10, x20 = seg.values[-1]
        e8, e4 = math.exp(-8.0 * t), math.exp(-4.0 * t)
        power_formula = (
            e8 * x10 ** 4 + e4 * x10 ** 2 + 0.5 * x20 ** 2 + 0.25 * e8 * float(np.trapezoid(x1 ** 4, grid))
        )
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        assert abs(self.V.evaluator(t, seg) - power_formula) <= 8.0 * eps * power_formula + tiny


class TestDenseWindows:
    @settings(max_examples=100, deadline=None)
    @given(**DENSE_RUNS)
    @example(**CLOSE_SWITCH)
    def test_windows_are_exact_slices_of_the_store(
        self, r, steps_per_delay, t0, span, fracs, levels, queries, seed
    ):
        traj, seen = _window_run(r, steps_per_delay, t0, span, fracs, levels, seed)
        assert traj.status == "completed"
        dense = traj._dense
        K, V = dense.K[: dense.count], dense.V[: dense.count]
        for t, seg in seen:
            _check_window(seg, t, r, K, V)
        off_nodes = traj.t0 + np.asarray(queries) * (traj.t_end - traj.t0)
        for t in np.concatenate([traj.times, off_nodes]):
            seg = traj.history(t)
            _check_window(seg, t, r, K, V)
            assert np.array_equal(seg.values[-1], traj.state(t))
            # a knot at t - r, or one whose offset rounds onto -r, gives the row at -r
            folded = np.nonzero((K == t - r) | ((K > t - r) & (K - t <= -r)))[0]
            tail = V[folded[-1]] if folded.size else _hermite_at(dense, t - r)
            assert np.array_equal(seg.values[0], tail)

    @settings(max_examples=100, deadline=None)
    @given(**DENSE_RUNS)
    @example(**CLOSE_SWITCH)
    @example(**ULP_STEP)
    @example(**WHOLE_DELAY_STEP)
    def test_views_read_what_a_copy_would(
        self, r, steps_per_delay, t0, span, fracs, levels, queries, seed
    ):
        traj, seen = _window_run(r, steps_per_delay, t0, span, fracs, levels, seed)
        dense = traj._dense
        K, CUM = dense.K[: dense.count], dense.CUM[: dense.count]
        off_nodes = traj.t0 + np.asarray(queries) * (traj.t_end - traj.t0)
        # the dynamics read every stage window's values; history windows are
        # read through the O(1) accessors first
        windows = [(t, seg, seg.head) for t, seg in seen]
        windows += [(t, traj.history(t), None) for t in np.concatenate([traj.times, off_nodes])]
        # the last window the dynamics saw at a node is that node's window
        last_seen = dict(seen)
        for t, x in zip(traj.times, traj.states):
            assert np.array_equal(last_seen[t].head, x)
        for t, seg, stage_head in windows:
            head, delayed, integral = seg.head, seg.delayed, seg.integral()
            assert isinstance(seg, HistorySegment) and seg.dim == 1
            grid, vals = _copied_window(dense, t, stage_head)
            assert np.array_equal(seg.grid, grid) and np.array_equal(seg.values, vals)
            assert np.array_equal(head, vals[-1]) and np.array_equal(delayed, vals[0])
            # the view subtracts two rows of the running integral, so it carries
            # the rounding of each addition between them (half an ulp of the
            # running value each) on top of the quadrature's own: the scale is
            # the window's L1 plus the running integral's size over the window
            l1 = np.array([np.trapezoid(np.abs(col), grid) for col in vals.T])
            spanned = np.abs(CUM[(K >= t - r) & (K <= t)]).max(axis=0, initial=0.0)
            tol = (grid.size + 6) * np.spacing(l1 + spanned)
            ref = np.array([np.trapezoid(col, grid) for col in vals.T])
            assert np.all(np.abs(integral - ref) <= tol), (t, integral, ref, tol)

    @settings(max_examples=100, deadline=None)
    @given(**DENSE_RUNS)
    @example(**CLOSE_SWITCH)
    @example(**ULP_STEP)
    def test_history_at_a_node_is_its_node_window(
        self, r, steps_per_delay, t0, span, fracs, levels, queries, seed
    ):
        traj, _ = _window_run(r, steps_per_delay, t0, span, fracs, levels, seed)
        for k, t in enumerate(traj.times):
            seg, node = traj.history(t), traj._dense.node_window(k)
            for a, b in zip(
                (seg.grid, seg.values, seg.head, seg.delayed, seg.integral()),
                (node.grid, node.values, node.head, node.delayed, node.integral()),
            ):
                assert np.array_equal(a, b), (k, t)

    @settings(max_examples=30, deadline=None)
    @given(**DENSE_RUNS)
    def test_views_survive_copies(self, r, steps_per_delay, t0, span, fracs, levels, queries, seed):
        traj, _ = _window_run(r, steps_per_delay, t0, span, fracs, levels, seed)
        off_nodes = traj.t0 + np.asarray(queries) * (traj.t_end - traj.t0)
        for t in np.concatenate([traj.times[-1:], off_nodes]):
            view = traj.history(t)
            # copied before anything materializes the view's grid and values:
            # a copy is a plain segment of the view's own rows, not of its store
            copies = [copy.deepcopy(view), pickle.loads(pickle.dumps(view))]
            plain = HistorySegment(view.delay, view.grid, view.values)
            assert view == plain and plain == view
            for dup in copies:
                assert type(dup) is HistorySegment and dup == plain and plain == dup
                assert np.array_equal(dup.grid, view.grid) and np.array_equal(dup.values, view.values)
                assert np.array_equal(dup.head, view.head)
                assert np.array_equal(dup.delayed, view.delayed)
                assert np.array_equal(dup.integral(), plain.integral())
        for store in (copy.deepcopy(traj._dense), pickle.loads(pickle.dumps(traj._dense))):
            node = store.node_window(0)  # a copied store still hands out frozen rows
            assert not (node.head.flags.writeable or node.delayed.flags.writeable)

    @pytest.mark.parametrize("blowup, t_stop", [(12.0, 0.45), (20.0, 0.62)])
    def test_a_run_that_stops_before_its_close_switches(self, blowup, t_stop):
        # d switches at 0.8 and one ulp later: the store knows of the tie
        # from the start, but the run blows up before it, so each window must
        # be the one of the same run without the switches, which has no tie
        r, box = 0.5, np.array([[-1.0, 1.0]])
        x0 = HistorySegment(r, np.array([-0.5, -0.2, 0.0]), np.array([[1.0], [0.5], [3.0]]))
        system = RfdeSystem(
            r, 1, lambda t, seg, u, d: 3.0 * seg.head + d + 0.1 * seg.integral(), lambda t, seg: seg.head, box
        )
        pair = PiecewiseSignal([0.8, np.nextafter(0.8, 2.0)], [[0.5], [-0.5], [0.5]], box)
        opts = IntegrateOpts(step_req=1e-2, blowup_norm=blowup)
        close, plain = (integrate(system, 0.0, x0, None, d, 2.0, opts) for d in (pair, constant_signal([0.5], box)))
        assert close.status == plain.status == "blew_up" and close.t_event == plain.t_event == t_stop
        assert np.array_equal(close.times, plain.times) and np.array_equal(close.states, plain.states)
        windows = [(close._dense.node_window(k), plain._dense.node_window(k)) for k in range(close.times.size)]
        windows += [(close.history(t), plain.history(t)) for t in np.linspace(0.0, t_stop, 37)]
        for a, b in windows:
            for x, y in zip((a.grid, a.values, a.integral()), (b.grid, b.values, b.integral())):
                assert np.array_equal(x, y)


def _stage_run(r, steps_per_delay, t0, span, fracs, levels, seed):
    """``_window_run``'s run with dynamics that read the O(1) accessors.  At
    every call it records the time, the window, the window's integral and
    the lower end and row at -r that a search over the store as it stands
    gives: ``searchsorted(K[:count], t - r, "right")``, then the fold of
    knots whose offsets round onto -r, and the row by :func:`_hermite_at`."""
    t_end = t0 + span * r
    switches = np.unique(t0 + np.asarray(fracs) * (t_end - t0))
    switches = switches[(switches > t0) & (switches < t_end)]
    d = PiecewiseSignal(switches, np.asarray(levels[: switches.size + 1])[:, None], [[-1.0, 1.0]])
    seen = []

    def dynamics(t, seg, u, dd):
        dense = seg._dense
        c, K = dense.count, dense.K
        lo = t - dense.delay
        i0 = int(np.searchsorted(K[:c], lo, side="right"))
        tail_row = i0 - 1 if i0 > 0 and K[i0 - 1] == lo else None
        while i0 < c and K[i0] - t <= -dense.delay:
            tail_row = i0
            i0 += 1
        tail = _hermite_at(dense, lo) if tail_row is None else dense.V[tail_row]
        integral = seg.integral()
        seen.append((t, seg, integral, i0, tail.copy()))
        return dd[0] * seg.delayed - seg.head + 0.5 * integral

    system = RfdeSystem(r, 1, dynamics, lambda t, seg: seg.head, np.array([[-1.0, 1.0]]))
    x0 = sample_history(np.random.default_rng(seed), r, 1, 1.0)
    traj = integrate(system, t0, x0, None, d, t_end, IntegrateOpts(step_req=r / steps_per_delay))
    return traj, seen


class TestStageWindows:
    """The integrator finds every stage window's lower end and row at -r
    before it steps, and the windows that share a time share the quadrature
    of all but the head piece; neither may change a bit from a search over
    the store as it stands at the stage."""

    @settings(max_examples=100, deadline=None)
    @given(**DENSE_RUNS)
    @example(**CLOSE_SWITCH)
    @example(**ULP_STEP)
    @example(**DROPPED_NODE)
    @example(**MANY_STEPS)
    def test_lower_end_is_the_search(
        self, r, steps_per_delay, t0, span, fracs, levels, queries, seed
    ):
        traj, seen = _stage_run(r, steps_per_delay, t0, span, fracs, levels, seed)
        assert traj.status == "completed"
        for t, seg, _, i0, tail in seen:
            assert seg._tau == t and seg._i0 == i0, (t, seg._i0, i0)
            assert np.array_equal(seg.delayed, tail)

    @settings(max_examples=25, deadline=None)
    @given(**DENSE_RUNS)
    @example(**CLOSE_SWITCH)
    @example(**ULP_STEP)
    def test_every_window_row_is_read_only(
        self, r, steps_per_delay, t0, span, fracs, levels, queries, seed
    ):
        traj, seen = _stage_run(r, steps_per_delay, t0, span, fracs, levels, seed)
        # the same dynamics, for a lock-step group of two members
        runs = [(HistorySegment(r, traj.initial.grid, s * traj.initial.values), None, traj.d) for s in (1.0, 0.5)]
        opts = IntegrateOpts(step_req=r / steps_per_delay)
        group = _integrate_runs(traj.system, traj.t0, runs, traj.t_end, opts)
        assert group[0]._dense.K is group[1]._dense.K
        windows = [seg for _, seg, _, _, _ in seen]  # the stage windows of the run and of the group
        for run in [traj, *group]:
            windows += [run.history(t) for t in run.times]
            windows += [run._dense.node_window(k) for k in range(run.times.size)]
        for seg in windows:
            for row in (seg.head, seg.delayed):
                assert not row.flags.writeable
                with pytest.raises(ValueError, match="WRITEABLE"):
                    row.setflags(write=True)  # no handed-out row can be thawed

    @settings(max_examples=100, deadline=None)
    @given(**DENSE_RUNS)
    @example(**CLOSE_SWITCH)
    @example(**ULP_STEP)
    def test_shared_quadrature_is_a_fresh_windows(
        self, r, steps_per_delay, t0, span, fracs, levels, queries, seed
    ):
        traj, seen = _stage_run(r, steps_per_delay, t0, span, fracs, levels, seed)
        dense = traj._dense
        windows = [(seg, integral) for _, seg, integral, _, _ in seen]
        windows += [(w, w.integral()) for w in map(traj.history, traj.times)]
        for seg, integral in windows:
            tp = _tail_pieces(dense.K, dense.V, seg._i0, seg._tau, seg.delay, seg._tail[None])[0]
            fresh = _Window(dense, seg._tau, seg._i0, seg._i1, seg._tail.copy(), seg._head.copy(), tp)
            assert np.array_equal(integral, fresh.integral())
            assert np.array_equal(seg.integral(), integral)

    @settings(max_examples=50, deadline=None)
    @given(**DENSE_RUNS)
    @example(**CLOSE_SWITCH)
    @example(**ULP_STEP)
    def test_one_call_at_t0_four_per_step_one_per_switch_node(
        self, r, steps_per_delay, t0, span, fracs, levels, queries, seed
    ):
        traj, seen = _stage_run(r, steps_per_delay, t0, span, fracs, levels, seed)
        lv = traj.d.eval_many(traj.times)
        switch_nodes = int(np.any(lv[1:-1] != lv[:-2], axis=1).sum())
        assert len(seen) == 1 + 4 * (traj.times.size - 1) + switch_nodes

    def test_example_call_count(self):
        bundle = build_example("example-4.8")
        calls = []

        def counted(t, seg, u, d):
            calls.append(t)
            return bundle.system.dynamics(t, seg, u, d)

        rng = np.random.default_rng(2)
        x0 = sample_history(rng, 0.5, 2, 1.0)
        u = sample_signal(SignalSpec(bundle.system.u_box, 3.0, 0.3, seed=1))
        d = sample_signal(SignalSpec(bundle.system.d_box, 3.0, 0.3, seed=2))
        traj = integrate(replace(bundle.system, dynamics=counted), 0.0, x0, u, d, 3.0,
                         IntegrateOpts(step_req=1e-2))
        levels = np.hstack([u.eval_many(traj.times), d.eval_many(traj.times)])
        switch_nodes = int(np.any(levels[1:-1] != levels[:-2], axis=1).sum())
        assert switch_nodes >= 5
        assert len(calls) == 1 + 4 * (traj.times.size - 1) + switch_nodes

    def test_v_decay_reads_each_node_window(self):
        bundle = build_example("example-5.2")
        sys_ = bundle.system
        rng = np.random.default_rng(0)
        x0 = sample_history(rng, sys_.delay_r, sys_.dim_n, 1.0)
        d = sample_signal(SignalSpec(sys_.d_box, 1.0, 0.4, seed=int(rng.integers(2**32))))
        traj = integrate(sys_, 0.0, x0, None, d, 1.0, IntegrateOpts(step_req=2e-3))
        read = []

        def evaluator(t, seg):
            read.append((t, seg.head, seg.delayed, seg.integral(), seg.grid, seg.values))
            return float(seg.head @ seg.head)

        V = LyapunovFunctional(evaluator=evaluator, name="head-square")
        hold = KlFn(fn=lambda s, t: float(s), name="hold")
        verify_v_decay_estimate(sys_, V, power(2.0, 30.0), exp_weight(1.0), None, None, hold, [traj])
        assert len(read) == traj.times.size
        for (t, *got), t_k in zip(read, traj.times):
            w = traj.history(t_k)
            assert t == t_k
            for a, b in zip(got, (w.head, w.delayed, w.integral(), w.grid, w.values)):
                assert np.array_equal(a, b)


# members of a lock-step run: the scale of the shared initial window, whether
# the member draws a window with its own grid, and the call (counted per
# member) at which its dynamics return NaN, if any
MEMBERS = st.lists(
    st.tuples(st.floats(0.1, 3.0), st.booleans(), st.none() | st.integers(1, 40)), min_size=1, max_size=4
)
GROUP_BLOWUP = 20.0


def _tagged_runs(r, steps_per_delay, t0, span, fracs, levels, seed, members):
    """A scalar system whose disturbance carries the member's index as its
    second level, the members' runs, and the log of every call per member.
    The dynamics grow like x|x| past |x| ~ 1, so large members blow up."""
    t_end = t0 + span * r
    switches = np.unique(t0 + np.asarray(fracs) * (t_end - t0))
    switches = switches[(switches > t0) & (switches < t_end)]
    box = np.array([[-1.0, 1.0], [0.0, 4.0]])
    base = sample_history(np.random.default_rng(seed), r, 1, 1.0)
    runs, nan_at = [], []
    for k, (scale, own_grid, nan_call) in enumerate(members):
        x0 = sample_history(np.random.default_rng([seed, k]), r, 1, 1.0) if own_grid else base
        lv = np.roll(np.asarray(levels), k)[: switches.size + 1]
        d = PiecewiseSignal(switches, np.column_stack([lv, np.full(lv.size, float(k))]), box)
        runs.append((HistorySegment(r, x0.grid, scale * x0.values), None, d))
        nan_at.append(nan_call)
    log = {}

    def dynamics(t, seg, u, dd):
        calls = log.setdefault(int(dd[1]), [])
        integral = seg.integral()
        calls.append((t, seg.head.copy(), seg.delayed.copy(), integral.copy(), seg.grid.copy(), seg.values.copy()))
        if len(calls) == nan_at[int(dd[1])]:
            return np.array([np.nan])
        return dd[0] * seg.delayed - seg.head + 0.5 * integral + seg.head * np.abs(seg.head)

    system = RfdeSystem(r, 1, dynamics, lambda t, seg: seg.head, box)
    return system, runs, t_end, log


class TestLockStep:
    """Runs that share their knots advance together; each must be bitwise
    the run ``integrate`` gives it alone."""

    @staticmethod
    def _assert_same_run(run, alone):
        assert (run.status, run.t_event) == (alone.status, alone.t_event)
        assert np.array_equal(run.times, alone.times) and np.array_equal(run.states, alone.states)
        a, b = run._dense, alone._dense
        assert a.count == b.count
        for name in ("K", "V", "DIN", "DOUT", "CUM"):
            # a NaN at t0 is stored: only the steps check their slopes
            assert np.array_equal(getattr(a, name)[: a.count], getattr(b, name)[: b.count], equal_nan=True), name
        for i in range(run.times.size):
            wa, wb = a.node_window(i), b.node_window(i)
            for x, y in zip((wa.head, wa.delayed, wa.integral()), (wb.head, wb.delayed, wb.integral())):
                assert np.array_equal(x, y, equal_nan=True), i

    @settings(max_examples=60, deadline=None)
    @given(**DENSE_RUNS, members=MEMBERS)
    @example(**CLOSE_SWITCH, members=[(0.5, False, None), (2.5, False, None), (1.0, False, 7)])
    @example(**ULP_STEP, members=[(0.5, False, 13), (0.7, True, None), (3.0, False, None)])
    @example(**WHOLE_DELAY_STEP, members=[(3.0, False, None), (0.2, False, 4), (0.4, False, None)])
    def test_each_member_is_its_solo_run(
        self, r, steps_per_delay, t0, span, fracs, levels, queries, seed, members
    ):
        system, runs, t_end, log = _tagged_runs(r, steps_per_delay, t0, span, fracs, levels, seed, members)
        opts = IntegrateOpts(step_req=r / steps_per_delay, blowup_norm=GROUP_BLOWUP)
        together = _integrate_runs(system, t0, runs, t_end, opts)
        seen_together = dict(log)
        for k, ((x0, u, d), run) in enumerate(zip(runs, together)):
            log.clear()
            self._assert_same_run(run, integrate(system, t0, x0, u, d, t_end, opts))
            # the dynamics saw the same windows, in the same order per member
            assert len(seen_together[k]) == len(log[k])
            for got, want in zip(seen_together[k], log[k]):
                assert got[0] == want[0]
                assert all(np.array_equal(x, y, equal_nan=True) for x, y in zip(got[1:], want[1:]))
        # members share a store's knots exactly when their initial grids agree
        for a, b in itertools.combinations(range(len(runs)), 2):
            same_grid = np.array_equal(runs[a][0].grid, runs[b][0].grid)
            assert (together[a]._dense.K is together[b]._dense.K) == same_grid

    def test_a_member_stops_while_the_others_complete(self):
        # members 0 and 2 stay small, 1 escapes, 3 fails on its 13th call:
        # the f_end of its third step, after the node was stored
        kw = dict(
            r=1.0, steps_per_delay=10, t0=0.0, span=3.0, fracs=[0.5], levels=[0.5, -0.5, 0.0, 0.0, 0.0], seed=0
        )
        members = [(0.2, False, None), (3.0, False, None), (0.3, False, None), (0.5, False, 13)]
        system, runs, t_end, log = _tagged_runs(**kw, members=members)
        opts = IntegrateOpts(step_req=0.1, blowup_norm=GROUP_BLOWUP)
        together = _integrate_runs(system, 0.0, runs, t_end, opts)
        assert [run.status for run in together] == ["completed", "blew_up", "completed", "step_failure"]
        assert together[3].t_event == 0.30000000000000004 and together[3].times.size == 4
        assert together[1].t_event < t_end
        for (x0, u, d), run in zip(runs, together):
            log.clear()
            self._assert_same_run(run, integrate(system, 0.0, x0, u, d, t_end, opts))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad_call", [2, 6, 7])
    def test_an_infinite_slope_stops_its_member_quietly(self, bad_call):
        # member 1's slope turns infinite from a k2, k3 or k4 stage on; the
        # stack still advances its column and interpolates its rows at -r for
        # the others, which must raise no floating-point warning
        calls = []

        def dynamics(t, seg, u, d):
            if d[1] == 1.0:
                calls.append(t)
                if len(calls) >= bad_call:
                    return np.array([math.inf])
            return d[0] * seg.delayed - seg.head

        box = np.array([[-1.0, 1.0], [0.0, 1.0]])
        switches = np.array([0.37, 1.4, 2.23])  # 1.4 - 1.0 rounds to just below the knot at 0.4
        system = RfdeSystem(1.0, 1, dynamics, lambda t, seg: seg.head, box)
        x0 = HistorySegment.constant(1.0, [1.0])
        runs = [
            (x0, None, PiecewiseSignal(switches, np.column_stack([[0.5, -0.5, 0.9, 0.1], np.full(4, k)]), box))
            for k in (0.0, 1.0)
        ]
        opts = IntegrateOpts(step_req=0.1)
        together = _integrate_runs(system, 0.0, runs, 3.0, opts)
        assert [run.status for run in together] == ["completed", "step_failure"]
        for (x0, u, d), run in zip(runs, together):
            calls.clear()
            self._assert_same_run(run, integrate(system, 0.0, x0, u, d, 3.0, opts))

    @pytest.mark.filterwarnings("error")
    def test_each_member_checks_its_own_slopes(self):
        # each slope squares to 1.44e308, which is finite; the sum of two overflows
        huge = np.array([1.2e154])
        system = RfdeSystem(1.0, 1, lambda t, seg, u, d: huge, lambda t, seg: seg.head, np.zeros((0, 2)))
        x0 = HistorySegment.constant(1.0, [0.0])
        opts = IntegrateOpts(step_req=0.1)
        together = _integrate_runs(system, 0.0, [(x0, None, None)] * 2, 1.0, opts)
        alone = integrate(system, 0.0, x0, None, None, 1.0, opts)
        assert alone.status == "blew_up"
        for run in together:
            self._assert_same_run(run, alone)

    @settings(max_examples=30, deadline=None)
    @given(**DENSE_RUNS)
    @example(**CLOSE_SWITCH)
    def test_members_with_one_switch_set_share_their_knots(
        self, r, steps_per_delay, t0, span, fracs, levels, queries, seed
    ):
        # member 0's input switches at the first half of the switch times and
        # its disturbance at the rest; member 1's the other way round
        t_end = t0 + span * r
        switches = np.unique(t0 + np.asarray(fracs) * (t_end - t0))
        switches = switches[(switches > t0) & (switches < t_end)]
        first, rest = np.split(switches, [switches.size // 2])
        box = np.array([[-1.0, 1.0]])

        def signal(times):
            return PiecewiseSignal(times, np.asarray(levels[: times.size + 1])[:, None], box)

        system = RfdeSystem(
            r, 1, lambda t, seg, u, d: u * seg.delayed + d * seg.head - 0.5 * seg.integral(),
            lambda t, seg: seg.head, box, u_box=box,
        )
        x0 = sample_history(np.random.default_rng(seed), r, 1, 1.0)
        runs = [(x0, signal(first), signal(rest)), (x0, signal(rest), signal(first))]
        opts = IntegrateOpts(step_req=r / steps_per_delay)
        together = _integrate_runs(system, t0, runs, t_end, opts)
        assert together[0]._dense.K is together[1]._dense.K
        for (x0, u, d), run in zip(runs, together):
            self._assert_same_run(run, integrate(system, t0, x0, u, d, t_end, opts))


def _whole_window_dynamics(bundle):
    """The bundle's dynamics as written before the O(1) accessors: every read
    goes through ``seg.values`` and ``seg.grid``."""
    if bundle.name == "example-4.8":
        def dynamics(t, seg, u, d):
            x1, x2 = seg.values[-1]
            return np.array([d[0] * x1, -x2 + seg.values[0, 0] * u[0]])
    elif bundle.name == "example-5.2":
        L_val = bundle.params["L"]

        def dynamics(t, seg, u, d):
            x1, x2 = seg.values[-1]
            et = math.exp(t)
            window_integral = float(np.trapezoid(seg.values[:, 0], seg.grid))
            z2 = x2 + 4.0 * et * x1
            feedback = -4.0 * et * x1 - 16.5 * et * et * x1 - 4.0 * et * x2 - L_val * et * z2
            return np.array([d[0] * et * window_integral + x2, feedback])
    else:
        def dynamics(t, seg, u, d):
            x0 = seg.values[-1, 0]
            return np.array([d[0] * seg.values[0, 0] - x0 ** 3 + u[0]])
    return dynamics


class TestAccessorPorts:
    """One member per bundle, integrated with the bundle's dynamics and with
    the whole-window copy above, on the same draws."""

    @staticmethod
    def _both(name, step, horizon, norm):
        bundle = build_example(name)
        sys_ = bundle.system
        rng = np.random.default_rng(0)
        x0 = sample_history(rng, sys_.delay_r, sys_.dim_n, norm)
        d = sample_signal(SignalSpec(sys_.d_box, horizon, 0.4, seed=int(rng.integers(2**32))))
        u = None
        if sys_.u_box is not None:
            u = sample_signal(SignalSpec(sys_.u_box, horizon, 0.5, seed=int(rng.integers(2**32))))
        opts = IntegrateOpts(step_req=step)
        ported = integrate(sys_, 0.0, x0, u, d, horizon, opts)
        whole = replace(sys_, dynamics=_whole_window_dynamics(bundle))
        return ported, integrate(whole, 0.0, x0, u, d, horizon, opts)

    def test_example_5_2_within_rounding_of_the_running_integral(self):
        ported, whole = self._both("example-5.2", 2e-4, 1.4, 1.0)
        assert ported.status == whole.status == "completed"
        assert np.array_equal(ported.times, whole.times)
        # the window integral comes from a running quadrature, not a fresh
        # sum; relative to the largest state the drift stays at rounding level
        scale = np.abs(whole.states).max()
        assert np.abs(ported.states - whole.states).max() <= 1e-12 * scale

    @pytest.mark.parametrize("name, step, horizon, norm", [
        ("example-4.8", 1e-3, 3.0, 1.0),
        ("example-5.4", 2e-3, 9.0, 3.0),
    ])
    def test_head_and_delayed_ports_are_bitwise(self, name, step, horizon, norm):
        ported, whole = self._both(name, step, horizon, norm)
        assert ported.status == whole.status == "completed"
        assert np.array_equal(ported.times, whole.times)
        assert np.array_equal(ported.states, whole.states)


class TestTrailingWindowMax:
    @SETTINGS
    @given(
        gaps=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=60),
        vals=st.lists(finite | st.sampled_from([math.nan, math.inf, -math.inf]), min_size=61, max_size=61),
        width=st.floats(0.0, 5.0),
        start=st.floats(-1e3, 1e3),
    )
    def test_matches_brute_force(self, gaps, vals, width, start):
        ts = start + np.cumsum(np.concatenate([[0.0], gaps]))
        assume(np.all(np.diff(ts) > 0.0))
        vals = np.asarray(vals[: ts.size])
        got = _trailing_window_max(ts, vals, width)
        for k, t in enumerate(ts):
            inside = ts[: k + 1] >= t - width - 1e-12
            # a NaN inside the window is the window's max, as in np.max
            assert np.array_equal(got[k], vals[: k + 1][inside].max(), equal_nan=True), k
