"""End-to-end tests of the batch command-line front end.

Covers config validation, the exit-status contract (0 pass / 1 failed check
or counterexample / 2 config or I/O error), artifact shapes, error messages
that name the offending item, and byte-level determinism of reruns.
"""

import dataclasses
import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rfdestab.cli as cli
from rfdestab.cli import COMMANDS, ConfigError, RunConfig, main

SRC = Path(__file__).resolve().parents[1] / "src"


def read_tree(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def load_json(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name).read_text(encoding="utf-8"))


def write_config(tmp_path: Path, payload: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# RunConfig validation
# ---------------------------------------------------------------------------


class TestRunConfig:
    def test_requires_a_known_command(self):
        with pytest.raises(ConfigError, match="command"):
            RunConfig.from_dict({"system": "example-4.8", "seed": 0})
        with pytest.raises(ConfigError, match="'bogus'"):
            RunConfig.from_dict({"command": "bogus", "system": "example-4.8", "seed": 0})

    def test_requires_a_system(self):
        with pytest.raises(ConfigError, match="system"):
            RunConfig.from_dict({"command": "check", "seed": 0})

    def test_unknown_top_level_key_rejected(self):
        # a typo must not silently run something else (e.g. system params
        # placed at the top level instead of under system.params)
        with pytest.raises(ConfigError, match=r"unknown config keys.*params"):
            RunConfig.from_dict(
                {"command": "check", "system": "example-5.2", "seed": 0,
                 "params": {"r": 1.2}}
            )

    def test_unknown_system_key_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown system keys.*delay"):
            RunConfig.from_dict(
                {"command": "check", "seed": 0,
                 "system": {"name": "example-5.2", "delay": 1.2}}
            )

    def test_string_system_shorthand(self):
        cfg = RunConfig.from_dict({"command": "check", "system": "example-5.4", "seed": 3})
        assert cfg.system == {"name": "example-5.4", "params": {}}
        assert cfg.out == "artifacts"
        assert cfg.certificate is None

    def test_requires_an_explicit_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.from_dict({"command": "check", "system": "example-5.4"})
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.from_dict({"command": "check", "system": "example-5.4", "seed": None})
        with pytest.raises(ConfigError, match="nonnegative"):
            RunConfig.from_dict({"command": "check", "system": "example-5.4", "seed": -1})

    def test_public_dict_round_trips(self):
        raw = {
            "command": "falsify",
            "system": {"name": "example-4.8", "params": {"r": 0.5}},
            "seed": 5,
            "out": "somewhere",
            "samples": 10,
            "tolerance": 1e-6,
            "step": 0.01,
            "horizon": 3.0,
            "certificate": "weighted-input-decay",
        }
        cfg = RunConfig.from_dict(raw)
        assert RunConfig.from_dict(cfg.public_dict()) == cfg

    def test_command_list_matches_parser_choices(self):
        assert COMMANDS == ("simulate", "check", "falsify", "reproduce", "envelope")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


class TestSimulate:
    def test_zero_defaults_stay_at_equilibrium(self, tmp_path):
        out = tmp_path / "art"
        rc = main(
            [
                "simulate",
                "example-4.8",
                "--seed",
                "0",
                "--out",
                str(out),
                "--horizon",
                "1.0",
                "--step",
                "1e-2",
            ]
        )
        assert rc == 0
        csv_lines = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
        assert csv_lines[0] == "t,x_1,x_2,|x|,out_1"
        data = np.array([[float(v) for v in line.split(",")] for line in csv_lines[1:]])
        assert np.all(data[:, 1:] == 0.0)
        report = load_json(out, "simulate_report.json")
        assert report["status"] == "completed"
        assert report["t0"] == 0.0
        assert report["t_end"] == pytest.approx(1.0, abs=1e-9)
        assert report["max_state_norm"] == 0.0
        assert report["max_output_norm"] == 0.0

    def test_manifest_hashes_every_other_artifact(self, tmp_path):
        out = tmp_path / "art"
        rc = main(
            ["simulate", "example-5.4", "--seed", "2", "--out", str(out), "--horizon", "1.0", "--step", "1e-2"]
        )
        assert rc == 0
        manifest = load_json(out, "manifest.json")
        files = read_tree(out)
        assert set(manifest["artifacts"]) == set(files) - {"manifest.json"}
        for name, digest in manifest["artifacts"].items():
            assert hashlib.sha256(files[name]).hexdigest() == digest
        assert manifest["exit_status"] == 0
        assert manifest["config"]["seed"] == 2
        for key in ("rfdestab", "python", "numpy"):
            assert manifest["versions"][key]

    def test_output_map_runs_once_per_node(self, tmp_path, monkeypatch):
        # the CSV and the report's max_output_norm read one list of outputs
        calls = []
        build = cli.build_example

        def counting_build(name, params=None):
            bundle = build(name, params)
            output = bundle.system.output

            def counted(t, seg):
                calls.append(t)
                return output(t, seg)

            system = dataclasses.replace(bundle.system, output=counted)
            return dataclasses.replace(bundle, system=system)

        monkeypatch.setattr(cli, "build_example", counting_build)
        out = tmp_path / "art"
        rc = main(
            ["simulate", "example-5.4", "--seed", "2", "--out", str(out), "--horizon", "3", "--step", "5e-3"]
        )
        assert rc == 0
        assert len(calls) == load_json(out, "simulate_report.json")["nodes"] > 0

    def test_rich_run_with_signals_completes(self, tmp_path):
        out = tmp_path / "art"
        cfg = write_config(
            tmp_path,
            {
                "command": "simulate",
                "system": "example-5.4",
                "seed": 11,
                "out": str(out),
                "horizon": 2.0,
                "step": 5e-3,
                "simulate": {
                    "initial": {"kind": "random", "norm_bound": 1.5},
                    "disturbance": {"kind": "random", "mean_dwell": 0.4},
                    "input": {"kind": "constant", "value": [0.5]},
                },
            },
        )
        rc = main(["--config", cfg])
        assert rc == 0
        report = load_json(out, "simulate_report.json")
        assert report["status"] == "completed"
        assert report["max_state_norm"] > 0.0

    def test_blow_up_exits_1_with_event_time(self, tmp_path):
        # constant unit disturbance makes the first coordinate grow like e^t,
        # so the norm guard at 1e9 trips near t = ln(1e9), well before the
        # requested horizon
        out = tmp_path / "art"
        cfg = write_config(
            tmp_path,
            {
                "command": "simulate",
                "system": "example-4.8",
                "seed": 0,
                "out": str(out),
                "horizon": 24.0,
                "step": 2e-3,
                "simulate": {
                    "initial": {"kind": "constant", "value": [1.0, 0.0]},
                    "input": {"kind": "constant", "value": [1.0]},
                    "disturbance": {"kind": "constant", "value": [1.0]},
                },
            },
        )
        rc = main(["--config", cfg])
        assert rc == 1
        report = load_json(out, "simulate_report.json")
        assert report["status"] == "blew_up"
        assert report["t_event"] == pytest.approx(np.log(1e9), abs=0.5)
        assert load_json(out, "manifest.json")["exit_status"] == 1


# ---------------------------------------------------------------------------
# check / falsify / reproduce
# ---------------------------------------------------------------------------


class TestCheckAndFalsify:
    def test_check_single_certificate_pass(self, tmp_path):
        out = tmp_path / "art"
        rc = main(
            [
                "check",
                "example-5.2",
                "--certificate",
                "energy-bounded-by-initial",
                "--samples",
                "4",
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        summary = load_json(out, "summary.json")
        assert summary["all_match_expected"] is True
        assert [row["certificate"] for row in summary["certificates"]] == [
            "energy-bounded-by-initial"
        ]
        report = load_json(out, "report-energy-bounded-by-initial.json")
        assert report["matches_expected"] is True
        assert report["verdict"] == report["expected"] == "pass"

    def test_falsify_defaults_to_first_sweep_and_passes(self, tmp_path):
        out = tmp_path / "art"
        rc = main(
            ["falsify", "example-4.8", "--samples", "200", "--seed", "0", "--out", str(out)]
        )
        assert rc == 0
        summary = load_json(out, "summary.json")
        assert summary["verdict"] == "no_counterexample"
        assert summary["certificates"][0]["certificate"] == "weighted-input-decay"
        assert (out / "report-weighted-input-decay.json").exists()

    def test_falsify_counterexample_exits_1(self, tmp_path):
        out = tmp_path / "art"
        rc = main(
            [
                "falsify",
                "example-4.8",
                "--certificate",
                "unweighted-guard-fails",
                "--samples",
                "800",
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        assert rc == 1
        summary = load_json(out, "summary.json")
        assert summary["verdict"] == "counterexample"
        report = load_json(out, "report-unweighted-guard-fails.json")
        # the bundled expectation is that this guard fails, so the sweep
        # still matches its declared outcome even though the exit code is 1
        assert report["matches_expected"] is True

    def test_falsify_rejects_non_sweep_certificate(self, tmp_path, capsys):
        rc = main(
            [
                "falsify",
                "example-4.8",
                "--certificate",
                "bounded-input-divergence",
                "--seed",
                "0",
                "--out",
                str(tmp_path / "art"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "bounded-input-divergence" in err
        assert "not a falsification sweep" in err

    def test_unknown_certificate_is_named(self, tmp_path, capsys):
        rc = main(
            [
                "check",
                "example-4.8",
                "--certificate",
                "no-such-certificate",
                "--seed",
                "0",
                "--out",
                str(tmp_path / "art"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "no-such-certificate" in err


class TestReproduce:
    def test_reproduce_runs_every_certificate(self, tmp_path):
        out = tmp_path / "art"
        rc = main(
            [
                "reproduce",
                "example-4.8",
                "--samples",
                "800",
                "--step",
                "2e-3",
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        bundle = load_json(out, "bundle.json")
        assert bundle["name"] == "example-4.8"
        assert bundle["params"]["r"] == 0.5
        assert bundle["notes"]
        summary = load_json(out, "summary.json")
        assert summary["all_match_expected"] is True
        names = [row["certificate"] for row in summary["certificates"]]
        assert names == [
            "weighted-input-decay",
            "unweighted-guard-fails",
            "bounded-input-divergence",
        ]
        for name in names:
            assert (out / f"report-{name}.json").exists()
        assert load_json(out, "manifest.json")["exit_status"] == 0

    def test_reproduce_rejects_infeasible_delay(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "command": "reproduce",
                "system": {"name": "example-5.2", "params": {"r": 1.2}},
                "seed": 0,
                "out": str(tmp_path / "art"),
            },
        )
        rc = main(["--config", cfg])
        assert rc == 2
        err = capsys.readouterr().err
        assert "2.12132" in err
        assert "3.98414" in err


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------


class TestEnvelope:
    def test_envelope_table_is_monotone_and_hashed(self, tmp_path):
        out = tmp_path / "art"
        cfg = write_config(
            tmp_path,
            {
                "command": "envelope",
                "system": "example-5.2",
                "seed": 3,
                "out": str(out),
                "samples": 3,
                "horizon": 2.0,
                "step": 1e-2,
            },
        )
        rc = main(["--config", cfg])
        assert rc == 0
        lines = (out / "envelope.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "s,t,sigma"
        assert len(lines) == 1 + 8 * 33
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        s_vals, t_vals, sig = rows[:, 0], rows[:, 1], rows[:, 2]
        assert np.all(np.isfinite(sig)) and np.all(sig >= 0.0)
        table = sig.reshape(8, 33)
        # nonincreasing in elapsed time for each level, nondecreasing in the
        # level for each time
        assert np.all(np.diff(table, axis=1) <= 1e-12)
        assert np.all(np.diff(table, axis=0) >= -1e-12)
        assert s_vals.min() > 0.0 and t_vals.max() == pytest.approx(2.0)
        report = load_json(out, "envelope_report.json")
        assert report["trajectories"] == 3
        assert report["completed"] == 3
        assert report["bins"] == 4
        assert report["bins_fitted"] == 3  # one bin per run: three runs

    def test_an_ensemble_with_no_completed_run_exits_2(self, tmp_path, capsys):
        # both runs blow up before the horizon, so there is nothing to fit
        argv = ["envelope", "example-5.2", "--seed", "0", "--samples", "2", "--step", "1e-2", "--horizon", "4"]
        assert main(argv + ["--out", str(tmp_path / "art")]) == 2
        err = capsys.readouterr().err
        assert err == (
            "config error: no run completed: 2 of 2 runs blew up, the first stop at t=2.61; "
            "shorten the horizon or lower envelope.norm_bound\n"
        )


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------


class TestErrorPaths:
    def test_artifacts_refuse_nonfinite_numbers(self, tmp_path):
        from rfdestab.cli import _ArtifactWriter

        writer = _ArtifactWriter(tmp_path)
        writer.write_json("ok.json", {"a": 1.5})
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError):
                writer.write_json("bad.json", {"a": [bad]})
        assert not (tmp_path / "bad.json").exists()

    @pytest.mark.parametrize(
        "refused",
        [
            ["envelope", "example-5.2", "--seed", "0", "--samples", "2", "--step", "1e-2", "--horizon", "4"],
            ["check", "example-5.2", "--certificate", "nope", "--seed", "0"],
            ["check", "example-9.9", "--seed", "0"],
            ["simulate", "example-5.4", "--seed", "0", "--samples", "0"],
        ],
        ids=["envelope-no-run-completed", "check-unknown-certificate", "unknown-system", "samples-below-1"],
    )
    def test_a_refused_command_leaves_no_manifest(self, tmp_path, capsys, refused):
        # the manifest is written last, so one in --out means that a run
        # finished: a refused command drops a previous run's
        out = tmp_path / "art"
        finished = ["envelope", "example-5.2", "--seed", "3", "--samples", "3", "--step", "1e-2", "--horizon", "2"]
        assert main(finished + ["--out", str(out)]) == 0
        assert load_json(out, "manifest.json")["exit_status"] == 0
        assert main(refused + ["--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["simulate", "example-4.8", "--horizon", "1e308"], "horizon 1e+308 at step 0.001: step count"),
            (["envelope", "example-4.8", "--step", "1e-300"], "horizon 8.0 at step 1e-300: step count"),
        ],
        ids=["simulate-horizon", "envelope-step"],
    )
    def test_a_horizon_no_grid_can_hold_exits_2(self, tmp_path, capsys, argv, named):
        # the step count overflowed an integer, or asked NumPy for 1e303 nodes, in a traceback
        out = tmp_path / "a"
        assert main(argv + ["--seed", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {named}") and err.count("\n") == 1
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "argv, params, named",
        [
            (["simulate", "example-5.4", "--horizon", "-1"], None, "horizon must be finite"),
            (["simulate", "example-5.4", "--step", "0"], None, "step must be finite"),
            (["simulate", "example-5.4", "--horizon", "nan"], None, "horizon must be finite"),
            (["simulate", "example-5.4", "--tolerance", "nan"], None, "tolerance must be finite"),
            (["simulate", "example-4.8"], {"r": float("nan")}, "parameter r must be finite"),
            (["simulate", "example-5.4"], {"r": float("nan")}, "parameter r must be finite"),
            (["simulate", "example-5.2"], {"eps": float("inf")}, "parameter eps must be finite"),
            (
                ["check", "example-5.2", "--certificate", "window-sup-monotone", "--samples", "0"],
                None,
                "samples must be at least 1",
            ),
        ],
    )
    def test_out_of_range_numbers_exit_2(self, tmp_path, capsys, argv, params, named):
        out = tmp_path / "a"
        argv = argv + ["--seed", "0", "--out", str(out)]
        if params is not None:
            # Python's json reads and writes NaN and Infinity
            argv += ["--config", write_config(tmp_path, {"system": {"name": argv[1], "params": params}})]
        assert main(argv) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload, named",
        [
            ({"seed": "abc"}, "seed must be a nonnegative integer, got 'abc'"),
            ({"simulate": {"t0": float("nan")}}, "simulate.t0 must be finite"),
            (
                {"simulate": {"disturbance": {"kind": "random", "mean_dwell": 0}}},
                "simulate.disturbance.mean_dwell must be finite and positive",
            ),
            (
                {"simulate": {"initial": {"kind": "random", "norm_bound": -1}}},
                "simulate.initial.norm_bound must be finite and nonnegative",
            ),
            (
                {"command": "envelope", "system": "example-5.2", "samples": 2, "horizon": 0.5,
                 "envelope": {"bins": 0}},
                "envelope.bins must be at least 1",
            ),
            (
                {"command": "envelope", "system": "example-5.2", "samples": 2, "horizon": 0.5,
                 "envelope": {"bin": 2}},
                "unknown envelope keys: ['bin']",
            ),
            ({"simulate": {"intial": {"kind": "random"}}}, "unknown simulate keys: ['intial']"),
            (
                {"simulate": {"initial": {"kind": "random", "norm": 1.0}}},
                "unknown simulate.initial keys: ['norm']",
            ),
            (
                {"simulate": {"disturbance": {"kind": "random", "dwell": 0.5}}},
                "unknown simulate.disturbance keys: ['dwell']",
            ),
            (
                {"simulate": {"input": {"kind": "constant", "values": [0.5]}}},
                "unknown simulate.input keys: ['values']",
            ),
            ({"seed": 3.7}, "seed must be a nonnegative integer, got 3.7, which is not an integer"),
            ({"seed": True}, "seed must be a nonnegative integer, got True, which is not an integer"),
            ({"seed": "4"}, "seed must be a nonnegative integer, got '4', which is not an integer"),
            ({"samples": 2.5}, "samples must be at least 1, got 2.5, which is not an integer"),
            ({"horizon": True}, "horizon must be finite and positive, got True, which is not a number"),
            ({"step": "0.05"}, "step must be finite and positive, got '0.05', which is not a number"),
            (
                {"command": "envelope", "system": "example-5.2", "samples": 2, "horizon": 0.5,
                 "envelope": {"bins": 1.9}},
                "envelope.bins must be at least 1, got 1.9, which is not an integer",
            ),
            (
                {"command": "envelope", "system": "example-5.2", "samples": 2, "horizon": 0.5,
                 "envelope": {"t_points": "33"}},
                "envelope.t_points must be at least 1, got '33', which is not an integer",
            ),
            (
                {"simulate": {"initial": {"kind": "constant", "value": [True]}}},
                "simulate.initial.value must have 1 entries, each a finite number",
            ),
            (
                {"simulate": {"disturbance": {"kind": "constant", "value": ["0.5"]}}},
                "simulate.disturbance.value must have 1 entries, each a finite number",
            ),
            (
                {"system": "example-4.8",
                 "simulate": {"disturbance": {"kind": "constant", "value": [5.0]},
                              "input": {"kind": "constant", "value": [40.0]}}},
                "simulate.disturbance.value must lie in the system's box [[-1.0, 1.0]], got [5.0]",
            ),
            (
                {"system": "example-4.8", "simulate": {"input": {"kind": "constant", "value": [-1.5]}}},
                "simulate.input.value must lie in the system's box [[-1.0, 1.0]], got [-1.5]",
            ),
            (
                {"system": {"name": "example-4.8", "params": 5}},
                "system.params must be a JSON object, got 5",
            ),
            (
                {"system": {"name": "example-4.8", "params": [1, 2]}},
                "system.params must be a JSON object, got [1, 2]",
            ),
        ],
    )
    def test_bad_nested_values_exit_2(self, tmp_path, capsys, payload, named):
        out = tmp_path / "a"
        base = {"command": "simulate", "system": "example-5.4", "seed": 0, "step": 1e-2,
                "out": str(out)}
        assert main(["--config", write_config(tmp_path, dict(base, **payload))]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("value", [None, 5, "", ["a"]], ids=["null", "number", "empty", "list"])
    def test_out_that_is_not_a_string_exits_2(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path, {"command": "simulate", "system": "example-5.4", "seed": 0, "out": value}
        )
        assert main(["--config", cfg]) == 2
        assert f"out must be a nonempty JSON string, got {value!r}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.json"]  # no artifact directory anywhere

    def test_unknown_system_lists_known_names(self, tmp_path, capsys):
        rc = main(["check", "no-such-system", "--seed", "0", "--out", str(tmp_path / "a")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown registry name" in err
        assert "example-5.2" in err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        rc = main(["--config", str(bad)])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_constant_signal_length_is_checked(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "command": "simulate",
                "system": "example-4.8",
                "seed": 0,
                "out": str(tmp_path / "a"),
                "horizon": 0.5,
                "simulate": {"input": {"kind": "constant", "value": [0.1, 0.2]}},
            },
        )
        rc = main(["--config", cfg])
        assert rc == 2
        assert "must have 1 entries" in capsys.readouterr().err

    def test_signal_on_missing_channel_is_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "command": "simulate",
                "system": "example-5.2",
                "seed": 0,
                "out": str(tmp_path / "a"),
                "horizon": 0.5,
                "simulate": {"input": {"kind": "constant", "value": [0.5]}},
            },
        )
        rc = main(["--config", cfg])
        assert rc == 2
        assert "no channel" in capsys.readouterr().err

    def test_unknown_signal_and_initial_kinds(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "command": "simulate",
                "system": "example-4.8",
                "seed": 0,
                "out": str(tmp_path / "a"),
                "horizon": 0.5,
                "simulate": {"disturbance": {"kind": "sine"}},
            },
        )
        assert main(["--config", cfg]) == 2
        assert "'sine'" in capsys.readouterr().err
        cfg2 = write_config(
            tmp_path,
            {
                "command": "simulate",
                "system": "example-4.8",
                "seed": 0,
                "out": str(tmp_path / "a"),
                "horizon": 0.5,
                "simulate": {"initial": {"kind": "spline"}},
            },
        )
        assert main(["--config", cfg2]) == 2
        assert "'spline'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"command": "simulate", "simulate": {"disturbance": {"kind": "random", "mean_dwell": 1e-300}}},
            {"command": "envelope", "system": "example-5.2", "samples": 2, "horizon": 0.5,
             "envelope": {"mean_dwell": 1e-300}},
        ],
        ids=["simulate", "envelope"],
    )
    def test_a_dwell_too_short_for_the_horizon_exits_2(self, tmp_path, payload):
        # drawing its switches one by one would not end: the run must refuse it
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        base = {"system": "example-5.4", "seed": 0, "step": 1e-2, "out": str(tmp_path / "a")}
        cfg = write_config(tmp_path, dict(base, **payload))
        proc = subprocess.run(
            [sys.executable, "-m", "rfdestab", "--config", cfg], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 2, proc.stderr
        assert "mean_dwell is too short for the horizon" in proc.stderr


# ---------------------------------------------------------------------------
# determinism and entry points
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_same_config_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "art"
        cfg = write_config(
            tmp_path,
            {
                "command": "simulate",
                "system": "example-5.4",
                "seed": 7,
                "out": str(out),
                "horizon": 2.0,
                "step": 5e-3,
                "simulate": {
                    "initial": {"kind": "random", "norm_bound": 1.5},
                    "disturbance": {"kind": "random"},
                },
            },
        )
        assert main(["--config", cfg]) == 0
        first = read_tree(out)
        assert main(["--config", cfg]) == 0
        second = read_tree(out)
        assert first == second

    def test_missing_seed_exits_2_and_seed_matters(self, tmp_path, capsys):
        def run_into(out, extra):
            cfg = write_config(
                tmp_path,
                {
                    "command": "simulate",
                    "system": "example-5.4",
                    "out": str(out),
                    "horizon": 1.0,
                    "step": 1e-2,
                    "simulate": {"initial": {"kind": "random", "norm_bound": 1.0}},
                },
            )
            return main(["--config", cfg] + extra)

        # neither the flag nor the config gives a seed: no silent default
        assert run_into(tmp_path / "a", []) == 2
        assert "explicit seed" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()
        assert main(["simulate", "example-5.4", "--out", str(tmp_path / "d")]) == 2
        assert "explicit seed" in capsys.readouterr().err
        assert run_into(tmp_path / "b", ["--seed", "0"]) == 0
        assert run_into(tmp_path / "c", ["--seed", "1"]) == 0
        zero = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert zero != (tmp_path / "c" / "trajectory.csv").read_bytes()
        assert load_json(tmp_path / "b", "manifest.json")["config"]["seed"] == 0

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "art"
        # a subprocess does not see pytest's pythonpath setting
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "rfdestab.cli",
                "simulate",
                "example-5.4",
                "--seed",
                "1",
                "--horizon",
                "1.0",
                "--step",
                "1e-2",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "manifest.json").exists()

    def test_package_runs_as_a_module(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "rfdestab", "--help"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert "simulate" in proc.stdout and proc.stdout.startswith("usage: rfdestab")

    def test_console_script_if_installed(self, capsys):
        exe = shutil.which("rfdestab")
        if exe is not None:
            proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
            assert proc.returncode == 0
            assert "simulate" in proc.stdout
            return
        # not installed: the entry point pyproject.toml declares must still be the CLI
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        project = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
        module, _, attr = project["project"]["scripts"]["rfdestab"].partition(":")
        entry = getattr(importlib.import_module(module), attr)
        with pytest.raises(SystemExit) as exc:
            entry(["--help"])
        assert exc.value.code == 0
        assert "simulate" in capsys.readouterr().out
