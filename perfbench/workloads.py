"""The benchmark's three workloads, built from a seed.

Every workload calls only the public API of ``rfdestab``.  A task is one call
sequence plus the checks of its output.  A workload returns

* a generator of passes: pass ``p`` is a list of tasks whose inputs are drawn
  from the run's seed, the same work on new inputs for every ``p``.  The
  benchmark (``run.py``) times whole passes and reports the median;
* reference tasks: inputs drawn from ``REFERENCE_SEED`` whatever the run's
  seed is, run once and untimed, and compared with ``reference.json``, which
  was recorded from the same tasks.

Every output is checked against independent oracles and against the verdicts
the certificates promise.  Why these three workloads, and what each should
move, is in ``README.md``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import rfdestab as rf

REFERENCE_SEED = 0
# Relative and absolute tolerance of the floats compared with the reference
# (states, slacks, residuals, witness times, converse values): wide enough for
# the <=1e-12 relative drift of example-5.2 node states that a new window
# quadrature may bring; a changed verdict, count or sample still fails.
REF_REL = 1e-9
REF_ABS = 1e-15
# Oracle tolerance of rate-flow values against their closed forms.
FLOW_TOL = 1e-8
# Absolute tolerance of rate-flow values against the reference: a flow solver
# within 1e-9 of the current one still matches.
FLOW_REF_ABS = 1e-9


@dataclass
class Task:
    """One unit: ``run()`` returns an output and ``check(output)`` returns
    ``[(label, ok, detail)]``.  ``summary(output)`` is the dict a reference
    task compares with the recorded reference."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    summary: Callable[[object], dict]
    ref_tol: tuple = (REF_REL, REF_ABS)  # (relative, absolute) for floats


def _build(name: str, tracer):
    with tracer.span("build"):
        return rf.build_example(name)


def _shim_system(sys_, tracer):
    if not tracer.traced:
        return sys_
    return replace(
        sys_,
        dynamics=tracer.shim("rhs", sys_.dynamics, knots=True),
        output=tracer.shim("output", sys_.output),
    )


def _shim_energy(V, tracer):
    """Count a LyapunovFunctional's or RazumikhinFunction's evaluator,
    batch evaluator and analytic Dini term as energy calls."""
    if not tracer.traced:
        return V
    changes = {"evaluator": tracer.shim("energy", V.evaluator)}
    if V.analytic_dini is not None:
        changes["analytic_dini"] = tracer.shim("energy", V.analytic_dini)
    if getattr(V, "evaluator_many", None) is not None:
        changes["evaluator_many"] = tracer.shim("energy", V.evaluator_many)
    return replace(V, **changes)


# -- long-window-ensemble ------------------------------------------------------

# The window-sup-monotone and energy-bounded-by-initial certificates' own
# ensemble: step, horizon, initial-window norm and disturbance dwell.
ENSEMBLE_STEP = 2e-4
ENSEMBLE_HORIZON = 1.4
ENSEMBLE_NORM = 1.0
ENSEMBLE_DWELL = 0.4
MONOTONE_REL_SLACK = 1e-6


def _ensemble_member(rng, sys_, tracer):
    """The next member of the certificates' ensemble drawn from ``rng``."""
    with tracer.span("sample_history"):
        x0 = rf.sample_history(rng, sys_.delay_r, sys_.dim_n, ENSEMBLE_NORM)
    spec = rf.SignalSpec(sys_.d_box, ENSEMBLE_HORIZON, ENSEMBLE_DWELL, seed=int(rng.integers(2**32)))
    with tracer.span("sample_signal"):
        d = rf.sample_signal(spec)
    return x0, d


def long_window_ensemble(seed: int, tracer) -> tuple:
    """A pass is one member: integrate, then both ensemble checkers."""
    bundle = _build("example-5.2", tracer)
    plain = bundle.system
    sys_ = _shim_system(plain, tracer)
    r = plain.delay_r
    Vr = bundle.pointwise
    vr_many = tracer.shim("energy", Vr.evaluator_many)
    V_window = rf.LyapunovFunctional(
        evaluator=tracer.shim("energy", lambda t, seg: Vr.evaluator(t, seg.values[-1])),
        name="weighted-quadratic-energy-at-head",
    )
    hold = rf.KlFn(fn=lambda s, t: float(s), name="hold")
    a, beta = rf.power(2.0, 30.0), rf.exp_weight(1.0)
    opts = rf.IntegrateOpts(step_req=ENSEMBLE_STEP, record_output=False)

    def member(name, x0, d):
        def run():
            with tracer.span("integrate"):
                traj = rf.integrate(sys_, 0.0, x0, None, d, ENSEMBLE_HORIZON, opts)
            tracer.count("simulator.nodes", traj.times.size)
            with tracer.span("monotone"):
                mono = rf.check_monotone_decay(
                    [traj], vr_many, rel_slack=MONOTONE_REL_SLACK, window_delay=r)
            with tracer.span("v_decay"):
                vd = rf.verify_v_decay_estimate(
                    sys_, V_window, a, beta, None, None, hold, [traj], tolerance=1e-4
                )
            return traj, mono, vd

        def check(out):
            traj, mono, vd = out
            # oracle: the certificate's bound 30 * (e^0 * initial window sup)^2,
            # evaluated on the node states without the verify module
            energy = float(np.max(Vr.evaluator_many(traj.times, traj.states)))
            bound = 30.0 * float(np.max(np.linalg.norm(x0.values, axis=1))) ** 2
            return [
                ("status is completed", traj.status == "completed", traj.status),
                ("window-sup-monotone passes", mono.verdict == "pass", mono.slacks),
                ("energy-bounded-by-initial passes", vd.verdict == "pass", vd.slacks),
                ("oracle: node energy <= 30|x0|^2", energy <= bound + 1e-4, f"{energy!r} <= {bound!r}"),
            ]

        def summary(out):
            traj, mono, vd = out
            return {
                "status": traj.status,
                "nodes": int(traj.times.size),
                "final_state": [float(v) for v in traj.states[-1]],
                "monotone": mono.verdict,
                # the worst slack is rel_slack * (1 + w) at a plateau of the
                # window sup w; what is left after rel_slack carries the states
                "monotone_slack_minus_rel_slack": float(mono.slacks[0]) - MONOTONE_REL_SLACK,
                "v_decay": vd.verdict,
                "v_decay_slack": float(vd.slacks[0]),
            }

        return Task(name, run, check, summary)

    def passes():
        rng = np.random.default_rng(seed)
        for p in itertools.count():
            yield [member(f"member {p}", *_ensemble_member(rng, plain, tracer))]

    ref = _ensemble_member(np.random.default_rng(REFERENCE_SEED), plain, tracer)
    return passes(), [member("reference member 0", *ref)]


# -- falsify-sweep -------------------------------------------------------------

FALSIFY_SAMPLES = 2000  # the certificates' own sampler spec
LADDER_TOL = 1e-3       # acceptance criterion 1's tolerance for the numeric ladder


def falsify_sweep(seed: int, tracer) -> tuple:
    """A pass is the five sweeps; pass p samples with seed ``seed + p``, so
    pass 0 draws what the certificate runners draw for the run's seed."""
    b48, b52, b54 = (_build(name, tracer) for name in ("example-4.8", "example-5.2", "example-5.4"))
    s48, s52, s54 = (_shim_system(b.system, tracer) for b in (b48, b52, b54))
    V48 = _shim_energy(b48.functional, tracer)
    Vr52 = _shim_energy(b52.pointwise, tracer)
    Vr54 = _shim_energy(b54.pointwise, tracer)
    # the certificates' own comparison functions, rebuilt from their statements
    zeta48, rho48 = rf.power(4.0, 0.5), rf.linear(0.5)
    weight48, flat48 = rf.exp_weight(2.0), rf.constant(1.0)
    rate_coeff = 4.0 * b52.params["c"] / 33.0
    R = b54.params["R"]
    zeta54, one = rf.power(4.0 / 3.0, 1.5 / R), rf.constant(1.0)
    numeric = rf.DiniOpts(use_analytic=False)

    def decay52(t, value):
        return rate_coeff * math.exp(t) * value

    def replay(delta):
        """Re-evaluate a counterexample of an example-4.8 sweep from its JSON."""
        plain, V = b48.system, b48.functional

        def checks(rep):
            w = rep.witness
            seg = rf.HistorySegment.from_json_dict(w["history"])
            t, u, d = w["t"], np.asarray(w["u"]), np.asarray(w["d"])
            v = np.asarray(plain.dynamics(t, seg, u, d), dtype=float)
            energy = float(V.evaluator(t, seg))
            residual = rf.dini_functional(V, t, seg, v) + float(rho48(energy))
            guard = float(zeta48(float(delta(t)) * float(np.linalg.norm(u))))
            return [
                ("witness replays its residual", residual == w["residual"], f"{residual!r} vs {w['residual']!r}"),
                ("witness passes the input guard", guard <= energy, f"{guard!r} <= {energy!r}"),
                ("witness residual exceeds tolerance", w["residual"] > rep.tolerance, w["residual"]),
            ]

        return checks

    # (label, expected verdict, norm bound, call, witness replay)
    sweeps = [
        ("4.8/weighted-input-decay", "no_counterexample", 2.0,
         lambda sp: rf.check_lyapunov_ios(s48, V48, zeta48, weight48, rho48, sp), None),
        ("4.8/unweighted-guard-fails", "counterexample", 2.0,
         lambda sp: rf.check_lyapunov_ios(s48, V48, zeta48, flat48, rho48, sp), replay(flat48)),
        ("5.2/guarded-exponential-decay", "no_counterexample", 2.0,
         lambda sp: rf.check_razumikhin(s52, Vr52, rf.linear(0.5), decay52, sp), None),
        ("5.4/band-energy-decay", "no_counterexample", 4.0,
         lambda sp: rf.check_razumikhin(
             s54, Vr54, rf.linear(0.25), rf.linear(2.0 * R), sp, zeta=zeta54, delta=one), None),
        ("4.8/numeric-ladder", "no_counterexample", 2.0,
         lambda sp: rf.check_lyapunov_ios(
             s48, V48, zeta48, weight48, rho48, sp, tolerance=LADDER_TOL, dini_opts=numeric), None),
    ]

    def sweep(label, expected, norm, call, witness_checks, sampler_seed):
        spec = rf.SamplerSpec(t_lo=0.0, t_hi=5.0, norm_bound=norm, samples=FALSIFY_SAMPLES, seed=sampler_seed)

        def run():
            with tracer.span("falsify:" + label):
                rep = call(spec)
            tracer.count("lyapunov.samples_drawn", spec.samples)
            tracer.count("lyapunov.samples_tested", rep.samples_tested)
            tracer.count("lyapunov.guard_skipped", rep.guard_skipped)
            tracer.count("lyapunov.eval_failures", rep.eval_failures)
            return rep

        def check(rep):
            out = [
                (f"verdict is {expected}", rep.verdict == expected, rep.verdict),
                ("no evaluation failures", rep.eval_failures == 0, rep.eval_failures),
            ]
            if rep.verdict == "counterexample" and witness_checks is not None:
                out += witness_checks(rep)
            return out

        def summary(rep):
            return {
                "verdict": rep.verdict,
                "samples_tested": rep.samples_tested,
                "guard_skipped": rep.guard_skipped,
                "eval_failures": rep.eval_failures,
                "worst_residual": rep.worst_residual,
                "witness_t": None if rep.witness is None else rep.witness["t"],
            }

        return Task(f"{label} seed {sampler_seed}", run, check, summary)

    passes = ([sweep(*spec, seed + p) for spec in sweeps] for p in itertools.count())
    return passes, [sweep(*spec, REFERENCE_SEED) for spec in sweeps]


# -- probe-queries -------------------------------------------------------------

# Acceptance criterion 8's contracting scalar system, disturbance ensemble,
# step and probe distribution.
PROBE_QS = (1, 2, 3, 5, 8, 13, 21, 34, 50)
PROBE_STEP = 2e-2
PROBE_PER_PASS = 20
PROBE_REFERENCE = 10
# Rate-flow queries per rate and pass: initial values for eval_t_array, and
# one level series for fading_sup.  The levels switch about four times per
# node step, so every node asks the flow for a new initial value and caches a
# new row: the worst case for the flow's cache, not the held levels the
# library's callers read (ROADMAP item 3 counts ~790 rate calls per node).
# The identity rate's series has 300 nodes, so that its cached rows (~70 KB
# each) are a visible share of peak memory; the square rate's is short.
FLOW_S_VALUES = 10
FLOW_TIMES = np.linspace(0.0, 10.0, 200)
FLOW_NODE_STEP = 0.02
FLOW_LEVEL_DWELL = 0.005
FLOW_LEVEL_MAX = 1.0
FLOW_REFERENCE_NODES = 60  # every rate's series in the reference tasks

# (label, rate rho, closed-form flow of y' = -rho(y), fading_sup nodes)
RATES = (
    ("identity", rf.identity(), lambda s, t: s * np.exp(-t), 300),
    ("square", rf.power(2.0), lambda s, t: s / (1.0 + s * t), 60),
)


def _contracting_system():
    """Scalar decay whose rate the disturbance modulates within [1, 1.5]."""
    return rf.RfdeSystem(
        delay_r=0.5,
        dim_n=1,
        dynamics=lambda t, seg, u, d: np.array([-(1.25 + d[0]) * seg.values[-1, 0]]),
        output=lambda t, seg: seg.values[-1],
        d_box=np.array([[-0.25, 0.25]]),
        name="contracting-scalar",
    )


def _probe_inputs(rng, count: int, tracer) -> list:
    probes = []
    for k in range(count):
        t = float(rng.uniform(0.0, 3.0))
        with tracer.span("sample_history"):
            x = rf.sample_history(rng, 0.5, 1, 3.0)
        probes.append((PROBE_QS[k % len(PROBE_QS)], t, x))
    return probes


def _flow_inputs(rng, nodes: int, tracer):
    """Initial values for eval_t_array, and input levels in [0, FLOW_LEVEL_MAX]
    read at ``nodes`` node times from a random piecewise-constant signal."""
    s_values = rng.uniform(0.01, 5.0, FLOW_S_VALUES)
    times = FLOW_NODE_STEP * np.arange(nodes)
    spec = rf.SignalSpec(np.array([[0.0, FLOW_LEVEL_MAX]]), float(times[-1]) + FLOW_NODE_STEP,
                         FLOW_LEVEL_DWELL, seed=int(rng.integers(2**32)))
    with tracer.span("sample_signal"):
        signal = rf.sample_signal(spec)
    return s_values, times, signal.eval_many(times)[:, 0]


def _fading_brute(closed, levels, times):
    """max over j <= i of the closed-form flow sigma(s_j, t_i - t_j)."""
    return np.array([np.max(closed(levels[: i + 1], t - times[: i + 1])) for i, t in enumerate(times)])


def probe_queries(seed: int, tracer) -> tuple:
    """A pass is PROBE_PER_PASS converse probes, then per rate one flow with
    its eval_t_array and fading_sup queries."""
    plain = _contracting_system()
    sys_ = _shim_system(plain, tracer)
    with tracer.span("sample_signal"):
        ensemble = [rf.constant_signal(np.array([c]), box=plain.d_box) for c in (-0.25, 0.0, 0.25)]
    ident, one = rf.identity(), rf.constant(1.0)
    opts = rf.IntegrateOpts(step_req=PROBE_STEP)

    def probes_task(name, probes):
        def run():
            values = []
            for q, t, x in probes:
                with tracer.span("converse"):
                    values.append(rf.converse_functional_uq(sys_, q, ident, ident, one, ensemble, t, x, opts))
            return values

        def check(values):
            out = []
            for (q, t, x), uq in zip(probes, values):
                lower = max(0.0, abs(float(x.values[-1, 0])) - 1.0 / q)
                out.append(("oracle: uq >= max(0, |x(0)| - 1/q)", uq >= lower, f"{uq!r} vs {lower!r}"))
                out.append(("oracle: uq <= lower + 1e-3", uq <= lower + 1e-3, f"{uq!r} vs {lower!r}"))
            return out

        return Task(name, run, check, lambda values: {"uq": values})

    def flow_task(name, label, rho, closed, s_values, times, levels):
        rate = tracer.shim("rate", rho.fn)

        def run():
            with tracer.span("kl_from_rate"):
                sigma = rf.kl_from_rate(rate)
            evals = []
            for s in s_values:
                with tracer.span("eval_t_array"):
                    evals.append(sigma.eval_t_array(s, FLOW_TIMES))
            with tracer.span("fading_sup"):
                fading = rf.fading_sup(sigma, levels, times)
            tracer.count("compfn.fading_sup_nodes", times.size)
            return evals, fading

        def check(out):
            evals, fading = out
            errs = [float(np.max(np.abs(got - closed(s, FLOW_TIMES)))) for s, got in zip(s_values, evals)]
            result = [(f"oracle: {label} eval_t_array = closed form", e <= FLOW_TOL, e) for e in errs]
            err = float(np.max(np.abs(fading - _fading_brute(closed, levels, times))))
            return result + [(f"oracle: {label} fading_sup = brute force", err <= FLOW_TOL, err)]

        def summary(out):
            evals, fading = out
            return {
                "eval_t_array_every_20th": [[float(v) for v in e[::20]] for e in evals],
                "fading_sup": [float(v) for v in fading],
            }

        return Task(f"{name} {label} flow", run, check, summary, (0.0, FLOW_REF_ABS))

    def batch(name, rng, count, nodes=None):
        tasks = [probes_task(f"{name} converse probes", _probe_inputs(rng, count, tracer))]
        for label, rho, closed, rate_nodes in RATES:
            inputs = _flow_inputs(rng, nodes or rate_nodes, tracer)
            tasks.append(flow_task(name, label, rho, closed, *inputs))
        return tasks

    def passes():
        rng = np.random.default_rng(seed)
        for p in itertools.count():
            yield batch(f"pass {p}", rng, PROBE_PER_PASS)

    reference = batch("reference", np.random.default_rng(REFERENCE_SEED), PROBE_REFERENCE,
                      FLOW_REFERENCE_NODES)
    return passes(), reference


WORKLOADS = {
    "long-window-ensemble": long_window_ensemble,
    "falsify-sweep": falsify_sweep,
    "probe-queries": probe_queries,
}


# -- per-layer metrics ---------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    nodes = tr.counts["simulator.nodes"]
    integrator = ("integrate", "converse")  # spans in which the integrator calls the RHS
    rhs_calls = tr.shim_total("rhs", 0, integrator)
    sim_self = tr.self_s("integrate")
    drawn = tr.counts["lyapunov.samples_drawn"]
    fading_nodes = tr.counts["compfn.fading_sup_nodes"]
    ladder = ("falsify:4.8/numeric-ladder",)
    return {
        "simulator.integrate_s": (tr.span_s("integrate"), "s"),
        "simulator.nodes": (nodes, "count"),
        "simulator.rhs_calls": (rhs_calls, "count"),
        "simulator.self_s": (sim_self, "s"),
        "simulator.self_us_per_node": (_ratio(sim_self * 1e6, nodes), "us"),
        "simulator.window_knots_mean": (_ratio(tr.shim_total("rhs", 2, integrator), rhs_calls), "knots"),
        "examples.rhs_s": (tr.shim_total("rhs", 1), "s"),
        "examples.energy_calls": (tr.shim_total("energy", 0), "count"),
        "examples.energy_s": (tr.shim_total("energy", 1), "s"),
        "examples.output_calls": (tr.shim_total("output", 0), "count"),
        "examples.build_s": (tr.span_s("build"), "s"),
        "history.sample_s": (tr.span_s("sample_history"), "s"),
        "signals.sample_s": (tr.span_s("sample_signal"), "s"),
        "verify.monotone_s": (tr.span_s("monotone"), "s"),
        "verify.v_decay_s": (tr.span_s("v_decay"), "s"),
        "verify.v_decay_self_s": (tr.self_s("v_decay"), "s"),
        "lyapunov.falsify_s": (tr.span_s("falsify:"), "s"),
        "lyapunov.samples_drawn": (drawn, "count"),
        "lyapunov.samples_tested": (tr.counts["lyapunov.samples_tested"], "count"),
        "lyapunov.guard_skipped": (tr.counts["lyapunov.guard_skipped"], "count"),
        "lyapunov.eval_failures": (tr.counts["lyapunov.eval_failures"], "count"),
        "lyapunov.tested_ratio": (_ratio(tr.counts["lyapunov.samples_tested"], drawn), "ratio"),
        "lyapunov.self_us_per_sample": (_ratio(tr.self_s("falsify:") * 1e6, drawn), "us"),
        "lyapunov.ladder_s": (tr.span_s(ladder[0]), "s"),
        "lyapunov.ladder_energy_calls": (tr.shim_total("energy", 0, ladder), "count"),
        "lyapunov.converse_s": (tr.span_s("converse"), "s"),
        "lyapunov.converse_self_s": (tr.self_s("converse"), "s"),
        "lyapunov.converse_ms_per_probe": (_ratio(tr.span_s("converse") * 1e3, tr.entries("converse")), "ms"),
        "compfn.kl_from_rate_s": (tr.span_s("kl_from_rate"), "s"),
        "compfn.eval_t_array_s": (tr.span_s("eval_t_array"), "s"),
        "compfn.fading_sup_s": (tr.span_s("fading_sup"), "s"),
        "compfn.fading_sup_us_per_node": (_ratio(tr.span_s("fading_sup") * 1e6, fading_nodes), "us"),
        "compfn.rate_calls": (tr.shim_total("rate", 0), "count"),
        "compfn.rate_s": (tr.shim_total("rate", 1), "s"),
    }


def crosscheck(tr) -> list:
    """Compare a traced run with the figures measured when the roadmap was last
    re-anchored: [(what, value, unit, low, high)] for the layers used."""
    out = []
    steps = tr.counts["simulator.nodes"] - tr.entries("integrate")
    if steps > 0:
        out.append(("RK4 step incl. RHS", tr.span_s("integrate") / steps * 1e6, "us", 170.0, 440.0))
    guarded = "falsify:5.2/guarded-exponential-decay"
    if tr.entries(guarded):
        per_1e4 = tr.span_s(guarded) / (tr.entries(guarded) * FALSIFY_SAMPLES) * 1e4
        out.append(("example-5.2 guarded sweep per 1e4 samples", per_1e4, "s", 2.7, 4.5))
    if tr.counts["compfn.fading_sup_nodes"]:
        per_node = tr.span_s("fading_sup") / tr.counts["compfn.fading_sup_nodes"] * 1e3
        out.append(("fading_sup per node", per_node, "ms", 6.0, 10.0))
    return out


# -- reference validation --------------------------------------------------------

def compare(ref, got, rel=REF_REL, abs_=REF_ABS, path="") -> list:
    """Paths where ``got`` differs from ``ref``: floats beyond ``rel``/``abs_``,
    anything else when not equal."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(ref)}"]
        return [d for k in ref for d in compare(ref[k], got[k], rel, abs_, f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [d for i, (a, b) in enumerate(zip(ref, got))
                for d in compare(a, b, rel, abs_, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(got, float):
        if math.isclose(got, ref, rel_tol=rel, abs_tol=abs_):
            return []
        return [f"{path}: {got!r} != {ref!r}"]
    return [] if got == ref and type(got) is type(ref) else [f"{path}: {got!r} != {ref!r}"]


def runner_checks(name: str, outputs: dict) -> list:
    """Confirm that the reference tasks call the library as the certificate
    runners do, by running the runners at the reference seed.  Used when the
    reference is recorded."""
    out = []
    if name == "falsify-sweep":
        certs = {
            "4.8/weighted-input-decay": ("example-4.8", "weighted-input-decay"),
            "4.8/unweighted-guard-fails": ("example-4.8", "unweighted-guard-fails"),
            "5.2/guarded-exponential-decay": ("example-5.2", "guarded-exponential-decay"),
            "5.4/band-energy-decay": ("example-5.4", "band-energy-decay"),
        }
        for label, (example, cert) in certs.items():
            rep = rf.build_example(example).certificate(cert).runner(seed=REFERENCE_SEED)
            ours = outputs[f"{label} seed {REFERENCE_SEED}"]
            same = (rep.verdict, rep.worst_residual, rep.samples_tested) == (
                ours.verdict, ours.worst_residual, ours.samples_tested)
            out.append((f"runner {cert} agrees", same, rep.to_json_dict()))
    elif name == "long-window-ensemble":
        bundle = rf.build_example("example-5.2")
        mono = bundle.certificate("window-sup-monotone").runner(seed=REFERENCE_SEED, samples=1)
        vd = bundle.certificate("energy-bounded-by-initial").runner(seed=REFERENCE_SEED, samples=1)
        _, our_mono, our_vd = outputs["reference member 0"]
        out.append(("runner window-sup-monotone agrees", mono.slacks == our_mono.slacks, mono.slacks))
        out.append(("runner energy-bounded-by-initial agrees", vd.slacks == our_vd.slacks, vd.slacks))
    return out
