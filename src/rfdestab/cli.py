"""Batch command-line front end.

Runs simulations, certificate checks, falsification sweeps, full example
reproductions, and envelope-table fits from a JSON config plus flag
overrides, writing deterministic CSV/JSON artifacts and a manifest that
records versions, seeds, tolerances, and content hashes.  Exit status: 0 when
everything passed, 1 when a check failed or a counterexample was found, 2 on
configuration or I/O errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .compfn import constant
from .examples import REGISTRY, ExampleBundle, build_example
from .history import HistorySegment, sample_history
from .signals import SignalSpec, constant_signal, sample_signal
from .simulator import (
    IntegrateOpts,
    _draw_runs,
    _integrate_runs,
    _step_size,
    integrate,
    output_norm,
    trajectory_to_csv,
)
from .verify import fit_kl_envelope

__all__ = ["RunConfig", "ConfigError", "run", "main"]

FALSIFIER_CHECKERS = ("check_lyapunov_ios", "check_razumikhin")


class ConfigError(Exception):
    """Invalid run configuration (maps to exit status 2)."""


# what a number read from the config must be, and the test of it
_FINITE = ("finite", math.isfinite)
_POSITIVE = ("finite and positive", lambda v: math.isfinite(v) and v > 0.0)
_NONNEGATIVE = ("finite and nonnegative", lambda v: math.isfinite(v) and v >= 0.0)
_AT_LEAST_1 = ("at least 1", lambda v: v >= 1)


def _is_number(value) -> bool:
    """Whether ``value`` is a JSON number (a bool is not one)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _number(key: str, value, cast, rule):
    """``cast(value)`` for a JSON number ``value`` (an integral one when ``cast``
    is ``int``), or a ConfigError naming ``key`` when ``value`` is none or the
    result breaks ``rule``."""
    need, ok = rule
    kind = "an integer" if cast is int else "a number"
    if not _is_number(value) or (
        cast is int and not (isinstance(value, numbers.Integral) or float(value).is_integer())
    ):
        raise ConfigError(f"{key} must be {need}, got {value!r}, which is not {kind}")
    try:
        number = cast(value)
    except OverflowError as exc:
        raise ConfigError(f"{key} must be {need}, got {value!r}") from exc
    if not ok(number):
        raise ConfigError(f"{key} must be {need}, got {number!r}")
    return number


@dataclass
class RunConfig:
    """Validated description of one batch run.  Its fields are the JSON config
    keys, and ``system`` is ``{"name", "params"}``."""

    command: str
    system: dict
    seed: int = 0
    out: str = "artifacts"
    tolerance: float | None = None
    samples: int | None = None
    step: float | None = None
    horizon: float | None = None
    certificate: str | None = None
    simulate: dict = field(default_factory=dict)
    envelope: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ConfigError(
                f"unknown config keys: {sorted(unknown)} (system parameters "
                "go under system: {name, params})"
            )
        command = raw.get("command")
        if command not in COMMANDS:
            raise ConfigError(
                f"command must be one of {list(COMMANDS)}, got {command!r}"
            )
        system = raw.get("system")
        if isinstance(system, str):
            system = {"name": system}
        if not isinstance(system, dict) or "name" not in system:
            raise ConfigError("config requires a system: {name, params}")
        _known_keys("system", system, ("name", "params"))
        params = system.get("params")
        if params is not None and not isinstance(params, dict):
            raise ConfigError(f"system.params must be a JSON object, got {params!r}")
        out = raw.get("out", "artifacts")
        if not isinstance(out, str) or not out:
            raise ConfigError(f"out must be a nonempty JSON string, got {out!r}")
        if "seed" not in raw or raw["seed"] is None:
            raise ConfigError("config requires an explicit seed (no nondeterministic defaults)")
        seed = _number("seed", raw["seed"], int, ("a nonnegative integer", lambda v: v >= 0))
        for key in ("simulate", "envelope"):
            if not isinstance(raw.get(key) or {}, dict):
                raise ConfigError(f"{key} must be a JSON object")

        def opt_number(key, cast, rule):
            return None if raw.get(key) is None else _number(key, raw[key], cast, rule)

        return RunConfig(
            command=command,
            system={"name": str(system["name"]), "params": dict(params or {})},
            seed=seed,
            out=out,
            tolerance=opt_number("tolerance", float, _NONNEGATIVE),
            samples=opt_number("samples", int, _AT_LEAST_1),
            step=opt_number("step", float, _POSITIVE),
            horizon=opt_number("horizon", float, _POSITIVE),
            certificate=raw.get("certificate"),
            simulate=dict(raw.get("simulate") or {}),
            envelope=dict(raw.get("envelope") or {}),
        )

    def public_dict(self) -> dict:
        return asdict(self)


class _ArtifactWriter:
    """Serialized artifact writes with content hashes for the manifest."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.hashes: dict = {}
        out_dir.mkdir(parents=True, exist_ok=True)

    def write_text(self, name: str, text: str) -> None:
        data = text.encode("utf-8")
        (self.out_dir / name).write_bytes(data)
        self.hashes[name] = hashlib.sha256(data).hexdigest()

    def write_json(self, name: str, obj) -> None:
        # strict JSON: a NaN or an infinity raises instead of writing NaN/Infinity
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
        self.write_text(name, text + "\n")


def _known_keys(section: str, spec: dict, keys) -> None:
    """A ConfigError naming ``section`` and each key of ``spec`` outside ``keys``."""
    unknown = set(spec) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")


def _vector(key: str, value, size: int) -> np.ndarray:
    """``value`` as a vector of ``size`` finite numbers, or a ConfigError naming ``key``."""
    need = f"{key} must have {size} entries, each a finite number, got {value!r}"
    if not isinstance(value, (list, tuple)) or not all(map(_is_number, value)):
        raise ConfigError(need)
    try:
        vec = np.asarray(value, dtype=float)
    except OverflowError as exc:
        raise ConfigError(need) from exc
    if vec.size != size or not np.isfinite(vec).all():
        raise ConfigError(need)
    return vec


def _signal_from(sc: dict, channel: str, box, t_hi: float, seed: int):
    key = f"simulate.{channel}"
    spec = sc.get(channel)
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ConfigError(f"{key} must be a JSON object")
    _known_keys(key, spec, ("kind", "value", "mean_dwell"))
    kind = spec.get("kind", "zero")
    if kind == "zero":
        return None
    if box is None or box.shape[0] == 0:
        raise ConfigError(f"system has no channel for {key}")
    if kind == "constant":
        value = _vector(f"{key}.value", spec.get("value"), box.shape[0])
        try:
            return constant_signal(value, box=box)
        except ValueError as exc:
            need = f"{key}.value must lie in the system's box {box.tolist()}"
            raise ConfigError(f"{need}, got {value.tolist()}") from exc
    if kind == "random":
        mean_dwell = _number(f"{key}.mean_dwell", spec.get("mean_dwell", 0.5), float, _POSITIVE)
        return sample_signal(_signal_spec(f"{key}.mean_dwell", box, max(t_hi, 1e-6), mean_dwell, seed))
    raise ConfigError(f"unknown signal kind {kind!r}")


def _signal_spec(key: str, box: np.ndarray, horizon: float, mean_dwell: float, seed: int) -> SignalSpec:
    """``SignalSpec(box, horizon, mean_dwell, seed=seed)``; a mean dwell too
    short for the horizon is a ConfigError on ``key``."""
    try:
        return SignalSpec(box, horizon, mean_dwell, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"{key} is too short for the horizon: {exc}") from exc


def _integrate_opts(system, t0: float, duration: float, step: float) -> IntegrateOpts:
    """The options of runs from t0 over ``duration`` at the step request
    ``step``; a horizon or step the integrator refuses is a ConfigError on
    both, raised before any signal is drawn."""
    opts = IntegrateOpts(step_req=step)
    try:
        _step_size(system.delay_r, t0, t0 + duration, opts)
    except ValueError as exc:
        raise ConfigError(f"horizon {duration!r} at step {step!r}: {exc}") from exc
    return opts


def _initial_from(spec, delay: float, dim: int, rng) -> HistorySegment:
    if spec is None:
        spec = {"kind": "zero"}
    if not isinstance(spec, dict):
        raise ConfigError("simulate.initial must be a JSON object")
    _known_keys("simulate.initial", spec, ("kind", "value", "norm_bound"))
    kind = spec.get("kind", "zero")
    if kind == "zero":
        return HistorySegment.constant(delay, np.zeros(dim))
    if kind == "constant":
        value = _vector("simulate.initial.value", spec.get("value"), dim)
        return HistorySegment.constant(delay, value)
    if kind == "random":
        bound = spec.get("norm_bound", 1.0)
        norm_bound = _number("simulate.initial.norm_bound", bound, float, _NONNEGATIVE)
        return sample_history(rng, delay, dim, norm_bound)
    raise ConfigError(f"unknown initial-segment kind {kind!r}")


def _cmd_simulate(cfg: RunConfig, bundle: ExampleBundle, writer: _ArtifactWriter) -> int:
    system = bundle.system
    sc = cfg.simulate
    _known_keys("simulate", sc, ("t0", "initial", "disturbance", "input"))
    t0 = _number("simulate.t0", sc.get("t0", 0.0), float, _FINITE)
    duration = cfg.horizon if cfg.horizon is not None else 5.0
    step = cfg.step if cfg.step is not None else 1e-3
    opts = _integrate_opts(system, t0, duration, step)
    rng = np.random.default_rng(cfg.seed)
    x0 = _initial_from(sc.get("initial"), system.delay_r, system.dim_n, rng)
    t_end = t0 + duration
    d_sig = _signal_from(sc, "disturbance", system.d_box, t_end, cfg.seed * 2 + 1)
    u_sig = _signal_from(sc, "input", system.u_box, t_end, cfg.seed * 2 + 2)
    if t0 < 0.0 and (d_sig is not None or u_sig is not None):
        raise ConfigError(f"simulate.t0 must be nonnegative with a signal, got {t0!r}")
    traj = integrate(system, t0, x0, u_sig, d_sig, t_end, opts)
    outputs = list(traj.outputs)  # the output map runs once per node
    writer.write_text("trajectory.csv", trajectory_to_csv(traj, outputs))
    report = {
        "status": traj.status,
        "t0": t0,
        "t_end": float(traj.times[-1]),
        "t_event": traj.t_event,
        "nodes": int(traj.times.size),
        "max_state_norm": float(np.linalg.norm(traj.states, axis=1).max()),
        "max_output_norm": float(np.max([output_norm(y) for y in outputs])),
    }
    writer.write_json("simulate_report.json", report)
    return 0 if traj.status == "completed" else 1


def _selected_certificates(cfg: RunConfig, bundle: ExampleBundle, falsifiers_only: bool):
    if cfg.certificate is not None:
        try:
            certs = (bundle.certificate(cfg.certificate),)
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from exc
    elif falsifiers_only:
        certs = tuple(c for c in bundle.certificates if c.checker in FALSIFIER_CHECKERS)
        if not certs:
            raise ConfigError(f"bundle {bundle.name!r} has no falsification certificate")
        certs = certs[:1]
    else:
        certs = bundle.certificates
    if falsifiers_only:
        bad = [c.name for c in certs if c.checker not in FALSIFIER_CHECKERS]
        if bad:
            raise ConfigError(f"certificate {bad[0]!r} is not a falsification sweep")
    return certs


def _run_certificates(cfg: RunConfig, writer: _ArtifactWriter, certs):
    # a runner's own signature holds the default of each option the config leaves unset
    settings = {
        "seed": cfg.seed,
        "samples": cfg.samples,
        "tolerance": cfg.tolerance,
        "step": cfg.step,
        "horizon": cfg.horizon,
    }
    overrides = {key: value for key, value in settings.items() if value is not None}
    rows = []
    for cert in certs:
        report = cert.runner(**overrides)
        row = {
            "certificate": cert.name,
            "checker": cert.checker,
            "expected": cert.expected,
            "verdict": report.verdict,
            "matches_expected": report.verdict == cert.expected,
        }
        writer.write_json(
            f"report-{cert.name}.json",
            dict(row, description=cert.description, report=report.to_json_dict()),
        )
        rows.append(row)
    return rows


def _summarize(rows, writer: _ArtifactWriter) -> int:
    """Write the summary of a certificate run; exit 0 when every verdict is the expected one."""
    ok = all(r["matches_expected"] for r in rows)
    writer.write_json("summary.json", {"certificates": rows, "all_match_expected": ok})
    return 0 if ok else 1


def _cmd_check(cfg: RunConfig, bundle: ExampleBundle, writer: _ArtifactWriter) -> int:
    certs = _selected_certificates(cfg, bundle, False)
    return _summarize(_run_certificates(cfg, writer, certs), writer)


def _cmd_falsify(cfg: RunConfig, bundle: ExampleBundle, writer: _ArtifactWriter) -> int:
    certs = _selected_certificates(cfg, bundle, True)
    rows = _run_certificates(cfg, writer, certs)
    verdict = rows[0]["verdict"]
    writer.write_json("summary.json", {"certificates": rows, "verdict": verdict})
    return 0 if verdict == "no_counterexample" else 1


def _cmd_reproduce(cfg: RunConfig, bundle: ExampleBundle, writer: _ArtifactWriter) -> int:
    writer.write_json(
        "bundle.json",
        {"name": bundle.name, "params": bundle.params, "notes": bundle.notes},
    )
    return _summarize(_run_certificates(cfg, writer, bundle.certificates), writer)


def _cmd_envelope(cfg: RunConfig, bundle: ExampleBundle, writer: _ArtifactWriter) -> int:
    system = bundle.system
    duration = cfg.horizon if cfg.horizon is not None else 8.0
    step = cfg.step if cfg.step is not None else 4e-3
    count = cfg.samples if cfg.samples is not None else 20
    ec = cfg.envelope
    _known_keys("envelope", ec, ("norm_bound", "mean_dwell", "bins", "s_points", "t_points"))

    def setting(key, default, cast, rule):
        return _number(f"envelope.{key}", ec.get(key, default), cast, rule)

    norm_bound = setting("norm_bound", 2.0, float, _NONNEGATIVE)
    mean_dwell = setting("mean_dwell", 0.5, float, _POSITIVE)
    bins = setting("bins", 4, int, _AT_LEAST_1)
    s_points = setting("s_points", 8, int, _AT_LEAST_1)
    t_points = setting("t_points", 33, int, _AT_LEAST_1)
    opts = _integrate_opts(system, 0.0, duration, step)
    _signal_spec("envelope.mean_dwell", system.d_box, duration, mean_dwell, 0)  # rejects a dwell no run can draw
    runs = _draw_runs(system, np.random.default_rng(cfg.seed), count, norm_bound, duration, mean_dwell)
    trajs = _integrate_runs(system, 0.0, runs, duration, opts)
    completed = sum(tr.status == "completed" for tr in trajs)
    if not completed:  # the fit needs a completed run
        blown = sum(tr.status == "blew_up" for tr in trajs)
        raise ConfigError(
            f"no run completed: {blown} of {count} runs blew up, the first stop at "
            f"t={min(tr.t_event for tr in trajs)!r}; shorten the horizon or lower envelope.norm_bound"
        )
    sigma = fit_kl_envelope(trajs, constant(1.0), bins=bins)
    s_vals = np.linspace(norm_bound / s_points, norm_bound, s_points)
    t_vals = np.linspace(0.0, duration, t_points)
    lines = ["s,t,sigma"]
    for s in s_vals:
        for t in t_vals:
            lines.append(f"{float(s)!r},{float(t)!r},{float(sigma(s, t))!r}")
    writer.write_text("envelope.csv", "\n".join(lines) + "\n")
    writer.write_json(
        "envelope_report.json",
        {
            "trajectories": count,
            "completed": completed,
            "norm_bound": norm_bound,
            "bins": bins,
            "bins_fitted": min(bins, completed),  # fit_kl_envelope gives each bin a completed run
            "duration": duration,
            "step": step,
        },
    )
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "check": _cmd_check,
    "falsify": _cmd_falsify,
    "reproduce": _cmd_reproduce,
    "envelope": _cmd_envelope,
}
COMMANDS = tuple(_HANDLERS)


def run(cfg: RunConfig) -> int:
    """Execute a validated config, write artifacts, and return the exit status."""
    name = cfg.system["name"]
    if name not in REGISTRY:
        raise ConfigError(f"unknown registry name {name!r}; known: {sorted(REGISTRY)}")
    try:
        bundle = build_example(name, cfg.system["params"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    writer = _ArtifactWriter(Path(cfg.out))
    status = _HANDLERS[cfg.command](cfg, bundle, writer)
    manifest = {
        "config": cfg.public_dict(),
        "versions": {
            "rfdestab": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "artifacts": writer.hashes,
        "exit_status": status,
    }
    writer.write_json("manifest.json", manifest)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rfdestab",
        description=(
            "Simulate registered delay systems, run their stability "
            "certificates, falsify decay inequalities, and emit deterministic "
            "CSV/JSON artifacts."
        ),
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS, help="what to run")
    parser.add_argument("system", nargs="?", help="registry name, e.g. example-5.4")
    parser.add_argument("--config", help="JSON config file mirroring RunConfig")
    parser.add_argument("--certificate", help="run a single named certificate")
    parser.add_argument("--seed", type=int, help="master seed (required here or in config)")
    parser.add_argument("--out", help="artifact output directory")
    parser.add_argument("--tolerance", type=float, help="tolerance override")
    parser.add_argument("--samples", type=int, help="sample/ensemble-size override")
    parser.add_argument("--step", type=float, help="integration step request")
    parser.add_argument("--horizon", type=float, help="time-horizon override")
    args = parser.parse_args(argv)

    try:
        raw: dict = {}
        if args.config is not None:
            try:
                raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config {args.config!r} is not valid JSON: {exc}") from exc
        if args.system is not None:
            system = raw.get("system")
            params = system.get("params") if isinstance(system, dict) else None
            raw["system"] = {"name": args.system, "params": params}
        for key, value in vars(args).items():
            if key not in ("config", "system") and value is not None:
                raw[key] = value
        out = raw.get("out", "artifacts")
        if isinstance(out, str) and out:
            # the manifest is written last, so one in --out means that a run
            # finished: a previous run's goes before this one can be refused
            Path(out, "manifest.json").unlink(missing_ok=True)
        cfg = RunConfig.from_dict(raw)
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
