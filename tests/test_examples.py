"""Bundled demonstration systems: constructed values, preconditions, certificates."""

import inspect

import numpy as np
import pytest

import rfdestab
from rfdestab import (
    HistorySegment,
    REGISTRY,
    build_example,
    example_4_8,
    example_5_2,
    example_5_4,
)
from rfdestab.cli import FALSIFIER_CHECKERS


class TestRegistry:
    def test_names(self):
        assert set(REGISTRY) == {"example-4.8", "example-5.2", "example-5.4"}

    def test_build_with_params(self):
        bundle = build_example("example-4.8", {"r": 0.25})
        assert bundle.system.delay_r == 0.25

    def test_unknown_name_cited(self):
        with pytest.raises(ValueError, match="example-9.1"):
            build_example("example-9.1")

    def test_every_checker_is_a_public_operation(self):
        for make in REGISTRY.values():
            bundle = make()
            for cert in bundle.certificates:
                op = getattr(rfdestab, cert.checker, None)
                assert callable(op), f"{bundle.name}: {cert.checker} not implemented"

    def test_runners_take_the_cli_keywords(self):
        # the keywords cli._run_certificates passes, each with its default in the signature
        sweeps = []
        for make in REGISTRY.values():
            for cert in make().certificates:
                params = inspect.signature(cert.runner).parameters
                assert list(params) == ["seed", "samples", "tolerance", "step", "horizon"]
                assert all(p.default is not p.empty for p in params.values()), cert.name
                if cert.checker in FALSIFIER_CHECKERS:
                    sweeps.append(tuple(p.default for p in params.values()))
        # the four falsification runners share one set of defaults
        assert sweeps == [(0, 2000, None, None, 5.0)] * 4

    def test_certificate_lookup(self):
        bundle = example_4_8()
        cert = bundle.certificate("weighted-input-decay")
        assert cert.expected == "no_counterexample"
        with pytest.raises(KeyError):
            bundle.certificate("missing")


class TestGrowthRelayBundle:
    """Two-state relay: one self-exciting channel feeding a damped channel."""

    def test_functional_value_at_unit_constants(self):
        # V(0, (1,1)-window) = 1 + 1 + 1/2 + (1/4) * r with unit integrand
        for r in (0.5, 1.0):
            bundle = example_4_8(r=r)
            seg = HistorySegment.constant(r, [1.0, 1.0])
            assert bundle.functional.evaluator(0.0, seg) == pytest.approx(2.5 + r / 4)

    def test_functional_zero_at_zero(self):
        bundle = example_4_8()
        seg = HistorySegment.constant(0.5, [0.0, 0.0])
        assert bundle.functional.evaluator(0.0, seg) == 0.0
        assert bundle.functional.evaluator(3.0, seg) == 0.0

    def test_analytic_dini_at_unit_point(self):
        # frozen oracle: at t = 0 with both coordinates held at the constant
        # unit window (r = 1/2, u = 0, d = 0) the field gives slope (0, -1)
        # and the hand-computed upper derivative of the energy functional
        # is exactly -14
        from rfdestab import DiniOpts, dini_functional

        bundle = example_4_8(r=0.5)
        seg = HistorySegment.constant(0.5, [1.0, 1.0])
        v = np.array([0.0, -1.0])  # f at u = 0, d = 0
        analytic = bundle.functional.analytic_dini(0.0, seg, v)
        assert analytic == pytest.approx(-14.0, abs=1e-12)
        numeric = dini_functional(
            bundle.functional, 0.0, seg, v, DiniOpts(use_analytic=False)
        )
        assert numeric == pytest.approx(analytic, abs=1e-3)

    def test_weighted_guard_certificate(self):
        bundle = example_4_8()
        rep = bundle.certificate("weighted-input-decay").runner(samples=300)
        assert rep.verdict == "no_counterexample"

    def test_unweighted_guard_fails(self):
        bundle = example_4_8()
        rep = bundle.certificate("unweighted-guard-fails").runner(samples=800)
        assert rep.verdict == "counterexample"
        assert rep.witness is not None

    def test_divergence_under_constant_signals(self):
        bundle = example_4_8()
        rep = bundle.certificate("bounded-input-divergence").runner()
        assert rep.verdict == "witness_found"
        assert rep.details["crossing_time"] < 10.0 + bundle.system.delay_r
        # independent oracle: y2(t) ~ e^{t-r}/2 crosses 1e3 at r + ln(2000)
        expected = bundle.system.delay_r + np.log(2000.0)
        assert rep.details["crossing_time"] == pytest.approx(expected, abs=0.05)


class TestCascadeFeedbackBundle:
    """Integral-coupled cascade stabilized by a time-growing feedback."""

    def test_accept_and_reject_arithmetic(self):
        bundle = example_5_2(r=0.5)
        assert "0.82436" in bundle.notes and "2.12132" in bundle.notes
        with pytest.raises(ValueError) as err:
            example_5_2(r=1.2)
        msg = str(err.value)
        assert "2.12132" in msg and "3.98414" in msg

    def test_margin_must_be_positive(self):
        with pytest.raises(ValueError, match="decay margin"):
            example_5_2(r=0.5, eps=0.01)

    def test_gain_floor_enforced(self):
        bundle = example_5_2()
        l_min = bundle.params["L_min"]
        with pytest.raises(ValueError, match="feedback gain"):
            example_5_2(L=l_min - 0.5)
        assert bundle.params["L"] == pytest.approx(l_min + 1.0)

    def test_energy_zero_at_zero(self):
        bundle = example_5_2()
        assert bundle.pointwise.evaluator(0.0, np.zeros(2)) == 0.0
        assert bundle.pointwise.evaluator(2.0, np.zeros(2)) == 0.0

    def test_energy_positive_definite_sandwich(self):
        # a1(|x|) <= V(t, x) <= a2(e^t |x|) with a1 = s^2/4, a2 = 30 s^2
        bundle = example_5_2()
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = rng.uniform(0.0, 3.0)
            x = rng.normal(size=2) * 2.0
            val = bundle.pointwise.evaluator(t, x)
            nx = np.linalg.norm(x)
            assert val >= 0.25 * nx ** 2 - 1e-9
            assert val <= 30.0 * (np.exp(t) * nx) ** 2 + 1e-9

    def test_guarded_decay_certificate(self):
        bundle = example_5_2()
        rep = bundle.certificate("guarded-exponential-decay").runner(samples=500)
        assert rep.verdict == "no_counterexample"

    def test_trajectory_certificates_small_ensemble(self):
        # energy-bounded-by-initial, on the same 4 runs, is criterion 3 (d)
        bundle = example_5_2()
        mono = bundle.certificate("window-sup-monotone").runner(samples=4)
        assert mono.verdict == "pass"


class TestSaturatedScalarBundle:
    """Scalar saturation system with dead-zone output and band energy."""

    def test_band_energy_values(self):
        bundle = example_5_4(R=1.0)
        Vr = bundle.pointwise.evaluator
        assert Vr(0.0, np.array([2.0])) == 0.0  # at the band edge 2 sqrt(R)
        assert Vr(0.0, np.array([1.0])) == 0.0  # inside the band
        assert Vr(0.0, np.array([3.0])) == pytest.approx(5.0)  # 9 - 4

    def test_dead_zone_output(self):
        bundle = example_5_4(R=1.0)
        seg = HistorySegment.constant(1.0, [4.0])
        out = bundle.system.output(0.0, seg)
        assert isinstance(out, HistorySegment)
        assert out.values[-1, 0] == pytest.approx(2.0)  # 4 - 2 sqrt(R)
        seg_in = HistorySegment.constant(1.0, [-1.5])
        assert np.all(bundle.system.output(0.0, seg_in).values == 0.0)

    def test_scaling_with_R(self):
        bundle = example_5_4(R=4.0)
        Vr = bundle.pointwise.evaluator
        assert Vr(0.0, np.array([4.0])) == 0.0  # band edge 2 sqrt(4)
        assert Vr(0.0, np.array([5.0])) == pytest.approx(9.0)

    def test_band_decay_certificate(self):
        bundle = example_5_4()
        rep = bundle.certificate("band-energy-decay").runner(samples=400)
        assert rep.verdict == "no_counterexample"

    def test_fitted_envelope_certificate_defaults(self, fitted_envelope_report):
        # the run is shared with acceptance criterion 4 (tests/conftest.py)
        assert fitted_envelope_report.verdict == "pass"

    def test_fitted_envelope_certificate_can_fail(self, monkeypatch):
        # a run that starts outside the dead band has a nonzero output, so a
        # quarter of the fitted envelope is crossed early in some test run
        fit = rfdestab.examples.fit_kl_envelope

        def quartered(trajs, beta, **kw):
            sigma = fit(trajs, beta, **kw)
            return rfdestab.KlFn(lambda s, t: 0.25 * sigma(s, t), name="quarter-fitted")

        monkeypatch.setattr(rfdestab.examples, "fit_kl_envelope", quartered)
        rep = example_5_4().certificate("fitted-envelope-with-gain").runner(samples=8)
        assert rep.verdict == "fail"
        observed, allowed = rep.witness[2:]
        assert observed > allowed


class TestReportShape:
    def test_demo_report_json(self):
        from rfdestab import DemoReport

        rep = DemoReport(verdict="pass", details={"k": 1.5})
        d = rep.to_json_dict()
        assert d["verdict"] == "pass" and d["k"] == 1.5


def test_the_falsification_certificates_hold_on_seeds_0_to_19():
    # the falsifiers' seed table: every falsification certificate at its
    # runner's defaults gives its expected verdict on each of 20 seeds; a
    # seed that does not is a defect of the certificate, not a seed to drop
    sweeps = [
        (bundle.name, cert)
        for bundle in (make() for make in REGISTRY.values())
        for cert in bundle.certificates
        if cert.checker in FALSIFIER_CHECKERS
    ]
    assert len(sweeps) == 4
    wrong = [
        (name, cert.name, seed, verdict)
        for seed in range(20)
        for name, cert in sweeps
        if (verdict := cert.runner(seed=seed).verdict) != cert.expected
    ]
    assert wrong == []
