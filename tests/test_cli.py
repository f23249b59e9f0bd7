"""Command-line frontend: schemas, determinism, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import pinlab
from pinlab import quenched
from pinlab.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, EXIT_UNDECIDED, main
from pinlab.disorder import gaussian_disorder
from pinlab.errors import PrecisionError
from pinlab.kernels import make_power_kernel
from pinlab.relevance import RelevanceReport


GEOMETRIC = {"family": "geometric", "p": 0.5}
GAUSSIAN = {"family": "gaussian"}
# a small config for each command, one that runs in well under a second
SMALL_RUNS = {
    "homopolymer": {"kernel": GEOMETRIC, "lambda_grid": [0.5]},
    "annealed-curve": {"disorder": GAUSSIAN, "beta_grid": [1.0]},
    "phase-diagram": {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta_grid": [0.5],
                      "base_seed": 1, "quenched": {"n": 64, "replicas": 2}},
    "relevance": {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta": 0.5, "base_seed": 1,
                  "tr_schedule": [4], "n_multiplier": 16, "replicas": 2},
    "chi": {"kernel": GEOMETRIC},
    "validate": {"kernel": GEOMETRIC, "base_seed": 3},
}
COMMANDS = list(SMALL_RUNS)


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(args):
    return main([str(a) for a in args])


def read_rows(path):
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(dict(zip(header, line.split(","))))
    return header, rows


class TestHomopolymerCommand:
    def test_geometric_sweep(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "kernel": {"family": "geometric", "p": 0.5},
                "lambda_grid": [0.0, math.log(3.0)],
            },
        )
        out = tmp_path / "out"
        assert run(["homopolymer", "--config", cfg, "--out", out]) == EXIT_OK
        header, rows = read_rows(out / "homopolymer.csv")
        assert header == ["lambda", "f", "residual"]
        assert float(rows[0]["f"]) == 0.0
        assert abs(float(rows[1]["f"]) - math.log(2.0)) <= 1e-10
        assert float(rows[1]["residual"]) <= 1e-10

    def test_manifest_written(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"kernel": {"family": "geometric", "p": 0.5}, "lambda_grid": [0.5]},
        )
        out = tmp_path / "out"
        assert run(["homopolymer", "--config", cfg, "--out", out]) == EXIT_OK
        manifest = json.loads((out / "homopolymer_manifest.json").read_text())
        assert manifest["command"] == "homopolymer"
        assert manifest["outputs"] == ["homopolymer.csv"]
        assert "total" in manifest["timings"]
        header_text = (out / "homopolymer.csv").read_text()
        assert manifest["config_hash"] in header_text

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "kernel": {"family": "power", "alpha": 0.5},
                "lambda_grid": {"start": 0.1, "stop": 1.0, "count": 7},
            },
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["homopolymer", "--config", cfg, "--out", out1]) == EXIT_OK
        assert run(["homopolymer", "--config", cfg, "--out", out2]) == EXIT_OK
        assert (out1 / "homopolymer.csv").read_bytes() == (
            out2 / "homopolymer.csv"
        ).read_bytes()

    def test_log_spaced_grid(self, tmp_path):
        grid = {"start": 1e-6, "stop": 2.0, "count": 5, "spacing": "log"}
        cfg = write_config(tmp_path, "cfg.json", {"kernel": GEOMETRIC, "lambda_grid": grid})
        out = tmp_path / "out"
        assert run(["homopolymer", "--config", cfg, "--out", out]) == EXIT_OK
        _, rows = read_rows(out / "homopolymer.csv")
        want = [f"{x:.17g}" for x in np.geomspace(1e-6, 2.0, 5)]
        assert [row["lambda"] for row in rows] == want

    def test_lambda_beyond_float_range_exits_with_manifest(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "kernel": {"family": "power", "alpha": 0.3},
                "lambda_grid": {"start": 1.0, "stop": 1000.0, "count": 4},
            },
        )
        out = tmp_path / "out"
        assert run(["homopolymer", "--config", cfg, "--out", out]) == EXIT_INVARIANT
        manifest = json.loads((out / "homopolymer_manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_INVARIANT
        assert "lam = 1000.0" in manifest["error"]
        assert manifest["outputs"] == []

    def test_underflowing_fixed_point_exits_with_manifest(self, tmp_path):
        # at alpha 1e-3 the root at lam 0.5 lies below 1e-290: no silent f = 0
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"kernel": {"family": "power", "alpha": 1e-3}, "lambda_grid": [0.5]},
        )
        out = tmp_path / "out"
        assert run(["homopolymer", "--config", cfg, "--out", out]) == EXIT_INVARIANT
        manifest = json.loads((out / "homopolymer_manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_INVARIANT
        assert "fixed-point residual" in manifest["error"]
        assert "at f = 0.0" in manifest["error"]
        assert manifest["outputs"] == []

    def test_json_format(self, tmp_path, capsys):
        # the table is written as CSV alone; --format is a usage error
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"kernel": {"family": "geometric", "p": 0.5}, "lambda_grid": [1.0]},
        )
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            run(["homopolymer", "--config", cfg, "--out", out, "--format", "json"])
        assert info.value.code == EXIT_CONFIG
        assert "--format" in capsys.readouterr().err
        assert not out.exists()
        assert run(["homopolymer", "--config", cfg, "--out", out]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "homopolymer.csv", "homopolymer_manifest.json"
        ]


class TestConfigErrors:
    def test_missing_field_path_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {"kernel": {"family": "geometric", "p": 0.5}})
        assert run(["homopolymer", "--config", cfg, "--out", tmp_path]) == EXIT_CONFIG
        assert "lambda_grid" in capsys.readouterr().err

    def test_bad_kernel_family(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "cfg.json", {"kernel": {"family": "cauchy"}, "lambda_grid": [1.0]}
        )
        assert run(["homopolymer", "--config", cfg, "--out", tmp_path]) == EXIT_CONFIG
        assert "kernel" in capsys.readouterr().err

    def test_missing_seed_for_sampling_command(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "kernel": {"family": "power", "alpha": 1.5},
                "disorder": {"family": "gaussian"},
                "beta_grid": [0.0],
            },
        )
        assert run(["phase-diagram", "--config", cfg, "--out", tmp_path]) == EXIT_CONFIG
        assert "base_seed" in capsys.readouterr().err

    def test_alpha_lost_in_one_plus_alpha(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"kernel": {"family": "power", "alpha": 1e-17}, "lambda_grid": [0.5]},
        )
        out = tmp_path / "out"
        assert run(["homopolymer", "--config", cfg, "--out", out]) == EXIT_CONFIG
        assert "1 + alpha" in capsys.readouterr().err
        manifest = json.loads((out / "homopolymer_manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_CONFIG

    def test_unreadable_config(self, tmp_path):
        assert run(["chi", "--config", tmp_path / "missing.json"]) == EXIT_CONFIG

    def test_unread_kernel_field_named(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "cfg.json", {"kernel": {"family": "power", "alpha": 0.3, "n_cap": 100}}
        )
        assert run(["chi", "--config", cfg, "--out", tmp_path]) == EXIT_CONFIG
        assert "n_cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "disorder, unread",
        [
            ({"family": "gaussian", "sigma": 3}, "sigma"),
            ({"family": "rademacher", "table": {"xs": [-1, 1], "ps": [0.5, 0.5]}}, "table"),
            ({"family": "discrete",
              "table": {"xs": [-1, 1], "ps": [0.5, 0.5], "weights": [1, 1]}},
             "weights"),
            ({"family": "continuous", "grid": [0, 1, 2],
              "table": {"grid": [0, 1, 2], "values": [1, 1, 1]}},
             "grid"),
        ],
        ids=["gaussian", "rademacher", "discrete-table", "continuous"],
    )
    def test_unread_disorder_field_named(self, tmp_path, capsys, disorder, unread):
        cfg = write_config(
            tmp_path, "cfg.json",
            {"kernel": GEOMETRIC, "disorder": disorder, "beta_grid": [0.5], "base_seed": 1},
        )
        out = tmp_path / "out"
        assert run(["phase-diagram", "--config", cfg, "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error at 'disorder'" in err
        assert unread in err
        manifest = json.loads((out / "phase_diagram_manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, doc, field",
        [
            ("homopolymer", {"kernel": GEOMETRIC, "lambda_grid": [0.5, "abc"]}, "lambda_grid[1]"),
            ("annealed-curve",
             {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta_grid": [0.5, "abc"]},
             "beta_grid[1]"),
            ("phase-diagram",
             {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta_grid": [0.0], "base_seed": 1,
              "quenched": {"n": "abc"}},
             "quenched.n"),
            ("relevance",
             {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta": 1.0, "base_seed": 1,
              "tr_schedule": [4, "abc"]},
             "tr_schedule[1]"),
            ("relevance",
             {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta": 1.0, "base_seed": 1,
              "tr_schedule": 8},
             "tr_schedule"),
            ("chi", {"kernel": GEOMETRIC, "tolerance": "abc"}, "tolerance"),
            ("validate", {"kernel": GEOMETRIC, "base_seed": "abc"}, "base_seed"),
            ("phase-diagram",
             {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta_grid": [0.0], "base_seed": 1,
              "quenched": {"n": 4096.7}},
             "quenched.n"),
            ("homopolymer",
             {"kernel": GEOMETRIC, "lambda_grid": {"start": 0.1, "stop": 1.0, "count": 3.9}},
             "lambda_grid.count"),
            ("relevance",
             {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta": 1.0, "base_seed": 1,
              "replicas": True},
             "replicas"),
            ("homopolymer", {"kernel": GEOMETRIC, "lambda_grid": [0.5, math.nan]}, "lambda_grid[1]"),
            ("homopolymer", {"kernel": GEOMETRIC, "lambda_grid": [0.5, "nan"]}, "lambda_grid[1]"),
            ("relevance",
             {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta": 1.0, "base_seed": 1,
              "tr_schedule": []},
             "tr_schedule"),
            ("relevance",
             {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta": 1.0, "base_seed": -1},
             "base_seed"),
            ("homopolymer",
             {"kernel": GEOMETRIC,
              "lambda_grid": {"start": 0.01, "stop": 1.0, "count": 3, "spacing": "logarithmic"}},
             "lambda_grid.spacing"),
            # counts below 1 are config errors, not library failures (exit 3)
            ("phase-diagram",
             {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta_grid": [0.0], "base_seed": 1,
              "quenched": {"n": 0}},
             "quenched.n"),
            ("phase-diagram",
             {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta_grid": [0.0], "base_seed": 1,
              "quenched": {"replicas": -2}},
             "quenched.replicas"),
            ("relevance",
             {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta": 1.0, "base_seed": 1,
              "replicas": 0},
             "replicas"),
            ("relevance",
             {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta": 1.0, "base_seed": 1,
              "n_multiplier": 0},
             "n_multiplier"),
            ("relevance",
             {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta": 1.0, "base_seed": 1,
              "tr_schedule": [8, 0]},
             "tr_schedule[1]"),
            ("relevance",
             {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta": 1.0, "base_seed": 1,
              "tr_schedule": [4, 1], "n_multiplier": 1},
             "n_multiplier"),
            # nonpositive tolerances and widths are config errors, not library
            # failures (exit 3) or, for the width, a run that widens the bracket
            ("chi", {"kernel": GEOMETRIC, "tolerance": 0}, "tolerance"),
            ("chi", {"kernel": GEOMETRIC, "tolerance": -1}, "tolerance"),
            ("phase-diagram",
             {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta_grid": [0.0], "base_seed": 1,
              "quenched": {"target_width": -1}},
             "quenched.target_width"),
            # a kernel or disorder that is not an object raised a bare AttributeError
            ("chi", {"kernel": "power"}, "kernel"),
            ("annealed-curve",
             {"kernel": GEOMETRIC, "disorder": "gaussian", "beta_grid": [0.5]},
             "disorder"),
            # a NaN table entry built a NaN law, which failed later (exit 3)
            ("homopolymer",
             {"kernel": {"family": "table", "masses": [math.nan, 1.0]}, "lambda_grid": [0.5]},
             "kernel"),
            ("annealed-curve",
             {"kernel": GEOMETRIC, "beta_grid": [0.5], "disorder": {
                 "family": "discrete", "table": {"xs": [-1, 1], "ps": [math.nan, 0.5]}}},
             "disorder"),
            ("phase-diagram",
             {"kernel": GEOMETRIC, "beta_grid": [0.5], "base_seed": 1, "disorder": {
                 "family": "continuous", "table": {"grid": [0, 1, 2], "values": [1, math.nan, 1]}}},
             "disorder"),
            # an infinity (JSON Infinity, or a literal such as 1e400) reached the
            # library, where a beta grid could hang the annealed curve
            ("annealed-curve", {"disorder": GAUSSIAN, "beta_grid": [1.0, math.inf]}, "beta_grid[1]"),
            ("annealed-curve",
             {"disorder": GAUSSIAN, "beta_grid": {"start": 0.1, "stop": math.inf, "count": 3}},
             "beta_grid.stop"),
            ("homopolymer", {"kernel": GEOMETRIC, "lambda_grid": [0.5, -math.inf]}, "lambda_grid[1]"),
            ("homopolymer", {"kernel": GEOMETRIC, "lambda_grid": [0.5, "inf"]}, "lambda_grid[1]"),
            ("phase-diagram",
             {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta_grid": [0.0], "base_seed": 1,
              "quenched": {"target_width": math.inf}},
             "quenched.target_width"),
            ("relevance",
             {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta": math.inf, "base_seed": 1},
             "beta"),
            ("chi", {"kernel": GEOMETRIC, "tolerance": math.inf}, "tolerance"),
            # keys that nothing reads ran with their defaults, exit 0
            ("phase-diagram",
             {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta_grid": [0.0], "base_seed": 1,
              "quenched": {"n": 64, "replicsa": 2}},
             "quenched.replicsa"),
            ("homopolymer",
             {"kernel": GEOMETRIC,
              "lambda_grid": {"start": 0.1, "stop": 1.0, "count": 3, "spacnig": "log"}},
             "lambda_grid.spacnig"),
            ("annealed-curve",
             {"disorder": GAUSSIAN, "beta_grid": {"start": 0.1, "stop": 1.0, "count": 3,
                                                  "step": 0.1}},
             "beta_grid.step"),
            # a section that is not an object gave every default
            ("phase-diagram",
             {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta_grid": [0.0], "base_seed": 1,
              "quenched": 5},
             "quenched"),
            # the overall verdict reads the last level as the largest tr
            ("relevance",
             {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta": 1.0, "base_seed": 1,
              "tr_schedule": [16, 4]},
             "tr_schedule"),
            ("relevance",
             {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta": 1.0, "base_seed": 1,
              "tr_schedule": [8, 8]},
             "tr_schedule"),
            # a family without its field: "malformed kernel config: 'alpha'"
            ("chi", {"kernel": {"family": "power"}}, "kernel"),
            # grids: empty, log spaced from 0, and neither a list nor an object
            ("homopolymer", {"kernel": GEOMETRIC, "lambda_grid": []}, "lambda_grid"),
            ("homopolymer",
             {"kernel": GEOMETRIC,
              "lambda_grid": {"start": 0, "stop": 1.0, "count": 3, "spacing": "log"}},
             "lambda_grid"),
            ("homopolymer", {"kernel": GEOMETRIC, "lambda_grid": 3}, "lambda_grid"),
        ],
    )
    def test_unparsable_number_named(self, tmp_path, capsys, command, doc, field):
        cfg = write_config(tmp_path, "cfg.json", doc)
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", out]) == EXIT_CONFIG
        assert f"config error at '{field}'" in capsys.readouterr().err
        manifest = json.loads((out / f"{command.replace('-', '_')}_manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_CONFIG
        assert f"'{field}'" in manifest["error"]

    def test_overflowing_literal_named(self, tmp_path, capsys):
        # json reads the literal 1e400 as inf
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"disorder": {"family": "gaussian"}, "beta_grid": [1.0, 1e400]}')
        out = tmp_path / "out"
        assert run(["annealed-curve", "--config", cfg, "--out", out]) == EXIT_CONFIG
        assert "config error at 'beta_grid[1]'" in capsys.readouterr().err
        manifest = json.loads((out / "annealed_curve_manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_CONFIG

    @pytest.mark.parametrize("command", COMMANDS)
    def test_non_object_config(self, tmp_path, capsys, command):
        # validate used to run its default suite on [1, 2] and exit 0
        cfg = write_config(tmp_path, "cfg.json", [1, 2])
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", out]) == EXIT_CONFIG
        assert "expected a JSON object, got list" in capsys.readouterr().err
        manifest = json.loads((out / f"{command.replace('-', '_')}_manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_CONFIG
        assert "JSON object" in manifest["error"]
        assert manifest["outputs"] == []

    @pytest.mark.parametrize("command", ["phase-diagram", "validate"])
    def test_negative_seed_flag_named(self, tmp_path, capsys, command):
        # the seed is the config's base_seed alone; the usage error names the flag
        cfg = write_config(
            tmp_path, "cfg.json",
            {"kernel": GEOMETRIC, "disorder": GAUSSIAN, "beta_grid": [0.0], "base_seed": 1},
        )
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            run([command, "--config", cfg, "--out", out, "--seed", "-3"])
        assert info.value.code == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--format", "json"]])
    def test_removed_flag_writes_nothing(self, tmp_path, command, flag):
        cfg = write_config(tmp_path, "cfg.json", SMALL_RUNS[command])
        with pytest.raises(SystemExit) as info:
            run([command, "--config", cfg, "--out", tmp_path / "out", *flag])
        assert info.value.code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_threads_only_on_phase_diagram(self, tmp_path):
        # every flag is registered only on the commands that read it
        cfg = write_config(tmp_path, "cfg.json", {"kernel": {"family": "power", "alpha": 0.3}})
        for command in COMMANDS:
            if command == "phase-diagram":
                continue
            with pytest.raises(SystemExit) as info:
                run([command, "--config", cfg, "--out", tmp_path / "out", "--threads", "1"])
            assert info.value.code == EXIT_CONFIG, command
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_manifest_holds_the_config_it_hashes(self, tmp_path, command):
        # a run directory holds every input of its run, and every payload file
        # it wrote is named among the outputs
        doc = SMALL_RUNS[command]
        cfg = write_config(tmp_path, "cfg.json", doc)
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", out]) in (EXIT_OK, EXIT_UNDECIDED)
        stem = command.replace("-", "_")
        manifest = json.loads((out / f"{stem}_manifest.json").read_text())
        assert manifest["config"] == doc
        canonical = json.dumps(manifest["config"], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode()).hexdigest() == manifest["config_hash"]
        assert manifest["seed"] == doc.get("base_seed")
        payload = sorted(p.name for p in out.iterdir() if p.name != f"{stem}_manifest.json")
        assert sorted(manifest["outputs"]) == payload


class TestAnnealedCurveCommand:
    def test_values(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "kernel": {"family": "power", "alpha": 0.5},
                "disorder": {"family": "gaussian"},
                "beta_grid": [0.0, 1.0],
            },
        )
        out = tmp_path / "out"
        assert run(["annealed-curve", "--config", cfg, "--out", out]) == EXIT_OK
        _, rows = read_rows(out / "annealed_curve.csv")
        assert float(rows[0]["h_c_ann"]) == 0.0
        assert abs(float(rows[1]["h_c_ann"]) - 0.5) <= 1e-14
        assert abs(float(rows[1]["bisection_gap"])) <= 1e-8

    def test_reads_no_kernel(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"disorder": GAUSSIAN, "beta_grid": [1.0]})
        out = tmp_path / "out"
        assert run(["annealed-curve", "--config", cfg, "--out", out]) == EXIT_OK
        _, rows = read_rows(out / "annealed_curve.csv")
        assert float(rows[0]["h_c_ann"]) == 0.5

    def test_beta_past_float_spacing_exits_with_manifest(self, tmp_path):
        # log M(1e4) = 5e7 has float spacing 7.5e-9, above the bisection's
        # 2.5e-9 stop width, where the loop used to spin forever; a
        # subprocess with a timeout makes a regression fail, not hang
        cfg = write_config(tmp_path, "cfg.json", {"disorder": GAUSSIAN, "beta_grid": [1.0, 1e4]})
        out = tmp_path / "out"
        src = str(Path(pinlab.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "pinlab.cli", "annealed-curve", "--config", cfg, "--out", out],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == EXIT_INVARIANT, proc.stderr
        assert "beta = 10000.0" in proc.stderr
        manifest = json.loads((out / "annealed_curve_manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_INVARIANT
        assert "beta = 10000.0" in manifest["error"]
        assert manifest["outputs"] == []

    def test_underflowing_tilted_mass_exits_with_manifest(self, tmp_path, capsys):
        # the density is 0 at its right end, so the tilted mass underflows at
        # beta 1e200; that is a precision error, not a traceback
        disorder = {"family": "continuous",
                    "table": {"grid": [-1, 0, 1, 2], "values": [1, 0.5, 0.2, 0]}}
        cfg = write_config(tmp_path, "cfg.json", {"disorder": disorder, "beta_grid": [1e200]})
        out = tmp_path / "out"
        assert run(["annealed-curve", "--config", cfg, "--out", out]) == EXIT_INVARIANT
        assert "error: tilted mass underflows at tilt 1e+200" in capsys.readouterr().err
        manifest = json.loads((out / "annealed_curve_manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_INVARIANT
        assert manifest["outputs"] == []


class TestChiCommand:
    def test_alpha_03(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"kernel": {"family": "power", "alpha": 0.3}})
        out = tmp_path / "out"
        assert run(["chi", "--config", cfg, "--out", out]) == EXIT_OK
        _, rows = read_rows(out / "chi.csv")
        assert rows[0]["status"] == "finite"
        assert 0.2 < float(rows[0]["chi"]) < 0.3

    def test_undecided_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"kernel": {"family": "power", "alpha": 0.5}})
        out = tmp_path / "out"
        assert run(["chi", "--config", cfg, "--out", out]) == 4
        _, rows = read_rows(out / "chi.csv")
        assert rows[0]["status"] == "undecided"


class TestPhaseDiagramCommand:
    def test_beta_zero_row(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "kernel": {"family": "power", "alpha": 1.5},
                "disorder": {"family": "gaussian"},
                "beta_grid": [0.0],
                "base_seed": 12,
                "quenched": {"n": 512, "replicas": 1, "target_width": 0.01},
            },
        )
        out = tmp_path / "out"
        code = run(["phase-diagram", "--config", cfg, "--out", out])
        assert code in (EXIT_OK, 4)
        header, rows = read_rows(out / "phase_diagram.csv")
        assert header == ["beta", "h_c_ann", "h_que_lo", "h_que_hi", "verdict"]
        row = rows[0]
        assert float(row["h_c_ann"]) == 0.0
        assert float(row["h_que_lo"]) <= 0.0 <= float(row["h_que_hi"])
        assert (out / "phase_diagram_diagnostics.json").exists()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "kernel": {"family": "power", "alpha": 1.5},
                "disorder": {"family": "rademacher"},
                "beta_grid": [0.3],
                "base_seed": 5,
                "quenched": {"n": 256, "replicas": 4, "target_width": 0.02},
            },
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["phase-diagram", "--config", cfg, "--out", out1]) in (EXIT_OK, 4)
        assert run(["phase-diagram", "--config", cfg, "--out", out2]) in (EXIT_OK, 4)
        assert (out1 / "phase_diagram.csv").read_bytes() == (
            out2 / "phase_diagram.csv"
        ).read_bytes()

    def test_threads_do_not_change_output(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "kernel": {"family": "power", "alpha": 1.5},
                "disorder": {"family": "gaussian"},
                "beta_grid": [0.0, 0.4],
                "base_seed": 9,
                "quenched": {"n": 256, "replicas": 4, "target_width": 0.02},
            },
        )
        # the grid is solved serially: --threads 1 is the default, any other
        # count is a usage error
        serial, flagged = tmp_path / "s", tmp_path / "t"
        assert run(["phase-diagram", "--config", cfg, "--out", serial]) in (EXIT_OK, 4)
        assert run(
            ["phase-diagram", "--config", cfg, "--out", flagged, "--threads", "1"]
        ) in (EXIT_OK, 4)
        assert (serial / "phase_diagram.csv").read_bytes() == (
            flagged / "phase_diagram.csv"
        ).read_bytes()
        with pytest.raises(SystemExit) as info:
            run(["phase-diagram", "--config", cfg, "--out", tmp_path / "x", "--threads", "2"])
        assert info.value.code == EXIT_CONFIG
        assert not (tmp_path / "x").exists()

    GRID_RUN = {
        "kernel": {"family": "power", "alpha": 1.5},
        "disorder": {"family": "gaussian"},
        "beta_grid": [0.3, 0.6, 0.9],
        "base_seed": 4,
        "quenched": {"n": 64, "replicas": 3, "target_width": 0.05},
    }

    def test_charges_drawn_once_per_run(self, tmp_path):
        # every beta sees the same disorder: the run draws each replica's
        # charges once, at 2n, and each search takes their first n columns.
        # The search probes several biases per DP call, and BLAS may round a
        # column differently with another column count, so a fresh one-bias
        # call agrees to the DP's bound; charges of another seed must miss
        cfg = write_config(tmp_path, "cfg.json", self.GRID_RUN)
        out = tmp_path / "out"
        with mock.patch.object(quenched, "sample", wraps=quenched.sample) as spy:
            assert run(["phase-diagram", "--config", cfg, "--out", out]) in (EXIT_OK, 4)
        assert [call.args[2] for call in spy.call_args_list] == [128] * 3
        kernel, law = make_power_kernel(1.5), gaussian_disorder()
        sidecar = json.loads((out / "phase_diagram_diagnostics.json").read_text())
        assert [bracket["beta"] for bracket in sidecar] == self.GRID_RUN["beta_grid"]
        for bracket in sidecar:
            beta = bracket["beta"]
            for label, diag in bracket["per_n_diagnostics"].items():
                for n, key in ((64, "mean"), (128, "mean_2n")):
                    want = diag[key]
                    redrawn = quenched.quenched_free_energy(
                        kernel, quenched.replica_charges(law, n, 3, 4), beta, diag["h"])
                    assert abs(redrawn.mean - want) <= 1e-12 * max(1.0, abs(want)), (beta, label)
                    other = quenched.quenched_free_energy(
                        kernel, quenched.replica_charges(law, n, 3, 5), beta, diag["h"])
                    assert abs(other.mean - want) > 1e-6, (beta, label, key)

    def test_grid_rows_equal_single_beta_runs(self, tmp_path):
        # sharing one array of charges couples no two betas: each row of a
        # grid run is the row of a run on that beta alone, byte for byte
        def payload(name, grid):
            cfg = write_config(tmp_path, f"{name}.json", dict(self.GRID_RUN, beta_grid=grid))
            out = tmp_path / name
            assert run(["phase-diagram", "--config", cfg, "--out", out]) in (EXIT_OK, 4)
            lines = (out / "phase_diagram.csv").read_text().splitlines()
            rows = [line for line in lines if not line.startswith("#")]
            return rows, json.loads((out / "phase_diagram_diagnostics.json").read_text())

        rows, sidecar = payload("grid", self.GRID_RUN["beta_grid"])
        assert len(rows) == 4
        for i, beta in enumerate(self.GRID_RUN["beta_grid"]):
            alone, alone_sidecar = payload(f"beta{i}", [beta])
            assert alone == [rows[0], rows[1 + i]]
            assert alone_sidecar == [sidecar[i]]

    def test_undecided_bracket_exits_undecided(self, tmp_path):
        # at n 200 with 4 replicas the sampling noise swamps the 5/n allowance
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "kernel": {"family": "power", "alpha": 0.5},
                "disorder": GAUSSIAN,
                "beta_grid": [1.5],
                "base_seed": 2,
                "quenched": {"n": 200, "replicas": 4, "target_width": 0.002},
            },
        )
        out = tmp_path / "out"
        assert run(["phase-diagram", "--config", cfg, "--out", out]) == EXIT_UNDECIDED
        _, rows = read_rows(out / "phase_diagram.csv")
        assert [row["verdict"] for row in rows] == ["undecided"]
        manifest = json.loads((out / "phase_diagram_manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_UNDECIDED
        assert manifest["warnings"] == ["beta=1.5: quenched bracket undecided"]
        assert manifest["error"] is None


class TestRelevanceCommand:
    def test_smoke(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "kernel": {"family": "power", "alpha": 0.3},
                "disorder": {"family": "gaussian"},
                "beta": 1.5,
                "base_seed": 8,
                "tr_schedule": [4, 8],
                "n_multiplier": 64,
                "replicas": 8,
            },
        )
        out = tmp_path / "out"
        code = run(["relevance", "--config", cfg, "--out", out])
        assert code in (EXIT_OK, 4)
        header, rows = read_rows(out / "relevance_scan.csv")
        assert header == ["beta", "tr", "m_tr", "estimate", "stderr", "lower", "upper", "verdict"]
        assert len(rows) == 2
        for row in rows:
            assert float(row["lower"]) <= float(row["upper"]) + 1e-9
        bounds = json.loads((out / "relevance_bounds.json").read_text())
        expected_star = math.sqrt(math.log(1.0 + 1.0 / bounds["chi"]))
        assert abs(bounds["beta_c_star"] - expected_star) <= 1e-8
        expected_star2 = math.sqrt(2.0 * bounds["kernel_entropy"])
        assert abs(bounds["beta_c_star_star"] - expected_star2) <= 1e-8

    def test_seed_override_changes_hash_not_schema(self, tmp_path):
        # a seed is overridden in the config document alone, so the hash follows it
        doc = {
            "kernel": {"family": "power", "alpha": 0.3},
            "disorder": {"family": "rademacher"},
            "beta": 0.5,
            "base_seed": 1,
            "tr_schedule": [4],
            "n_multiplier": 32,
            "replicas": 4,
        }
        runs = {}
        for seed in (1, 2):
            cfg = write_config(tmp_path, f"cfg{seed}.json", dict(doc, base_seed=seed))
            out = tmp_path / f"out{seed}"
            assert run(["relevance", "--config", cfg, "--out", out]) in (EXIT_OK, EXIT_UNDECIDED)
            manifest = json.loads((out / "relevance_manifest.json").read_text())
            assert manifest["seed"] == seed
            runs[seed] = manifest["config_hash"], read_rows(out / "relevance_scan.csv")[0]
        assert runs[1][0] != runs[2][0]
        assert runs[1][1] == runs[2][1]
        with pytest.raises(SystemExit) as info:
            run(["relevance", "--config", cfg, "--out", tmp_path / "flag", "--seed", "2"])
        assert info.value.code == EXIT_CONFIG
        assert not (tmp_path / "flag").exists()

    def test_unit_truncation_small_beta(self, tmp_path):
        # the overlap masses of the unit truncation sum above 1 in floats, so
        # the upper bound's fixed-point bracket has to widen at log Xi = 1e-6
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "kernel": {"family": "power", "alpha": 0.3},
                "disorder": {"family": "gaussian"},
                "beta": 1e-3,
                "base_seed": 1,
                "tr_schedule": [1],
                "n_multiplier": 64,
                "replicas": 8,
            },
        )
        out = tmp_path / "out"
        assert run(["relevance", "--config", cfg, "--out", out]) == EXIT_OK
        manifest = json.loads((out / "relevance_manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_OK
        _, rows = read_rows(out / "relevance_scan.csv")
        # f2 at tr = 1 is lam = log Xi = beta^2 for gaussian charges
        assert float(rows[0]["upper"]) == pytest.approx(1e-6, rel=1e-5)

    def test_undecided_chi_exits_undecided(self, tmp_path, capsys):
        # chi comes back undecided at alpha = 0.5, so beta_c_star has no value
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "kernel": {"family": "power", "alpha": 0.5},
                "disorder": {"family": "gaussian"},
                "beta": 1.5,
                "base_seed": 8,
                "tr_schedule": [4],
                "n_multiplier": 32,
                "replicas": 4,
            },
        )
        out = tmp_path / "out"
        assert run(["relevance", "--config", cfg, "--out", out]) == EXIT_UNDECIDED
        assert "undecided" in capsys.readouterr().err
        manifest = json.loads((out / "relevance_manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_UNDECIDED
        assert "chi convergence undecided" in manifest["error"]
        assert manifest["outputs"] == []
        assert manifest["seed"] == 8


# tr -> (estimate, stderr, lower, upper) of a stubbed level; binary fractions,
# so the 3-stderr edges are exact: 0.375 - 3 * 0.125 == 0 is not positive,
# and 0.5 lies on the edge 0.875 - 3 * 0.125 of its sandwich, so inside it
_INSIDE = (0.5, 0.125, 0.0, 1.0)
_ZERO_EDGE = (0.375, 0.125, 0.0, 1.0)
_ON_SANDWICH_EDGE = (0.5, 0.125, 0.875, 1.0)
_BELOW_LOWER = (0.5, 0.125, 0.9, 1.0)
_ABOVE_UPPER = (0.5, 0.0625, 0.0, 0.25)
_UNDECIDED_SCAN = "relevance verdict undecided across the tr scan"

# levels (tr 4, then 8) -> row verdicts, overall verdict, warnings, exit code
_VERDICT_CASES = {
    "all-positive-inside": (
        (_INSIDE, _ON_SANDWICH_EDGE), ("relevant", "relevant"), "relevant", [], EXIT_OK),
    "last-not-positive": (
        (_INSIDE, _ZERO_EDGE),
        ("relevant", "irrelevant-consistent"), "irrelevant-consistent", [], EXIT_OK),
    "none-positive": (
        (_ZERO_EDGE, _ZERO_EDGE),
        ("irrelevant-consistent", "irrelevant-consistent"), "irrelevant-consistent", [],
        EXIT_OK),
    "positive-only-at-the-end": (
        (_ZERO_EDGE, _INSIDE),
        ("irrelevant-consistent", "relevant"), "undecided", [_UNDECIDED_SCAN], EXIT_UNDECIDED),
    "one-level-below-its-sandwich": (
        (_BELOW_LOWER, _INSIDE),
        ("undecided", "relevant"), "relevant", ["tr=4: sandwich violated"], EXIT_UNDECIDED),
    "undecided-scan-and-a-level-above-its-sandwich": (
        (_ZERO_EDGE, _ABOVE_UPPER),
        ("irrelevant-consistent", "undecided"), "undecided",
        [_UNDECIDED_SCAN, "tr=8: sandwich violated"], EXIT_UNDECIDED),
}


class TestRelevanceVerdicts:
    """The relevance verdict rule, with the estimator and the bounds stubbed:
    a level is positive when ``estimate - 3 stderr > 0``; a row is
    ``undecided`` when its estimate leaves ``[lower, upper]`` widened by
    ``3 stderr``; the scan is ``relevant`` when every level is positive,
    ``irrelevant-consistent`` when the last is not, else ``undecided``."""

    @pytest.mark.parametrize(
        "levels, rows_want, overall, warnings, code",
        list(_VERDICT_CASES.values()),
        ids=list(_VERDICT_CASES),
    )
    def test_verdicts(self, tmp_path, monkeypatch, levels, rows_want, overall, warnings, code):
        by_tr = dict(zip((4, 8), levels))

        def estimator(kernel, disorder, beta, tr, n, replicas, base_seed):
            estimate, stderr, _, _ = by_tr[tr]
            return RelevanceReport(beta, tr, 1.5, estimate, stderr, np.zeros(replicas))

        monkeypatch.setattr("pinlab.cli.entropy_estimator", estimator)
        monkeypatch.setattr("pinlab.cli.entropy_bounds", lambda k, d, beta, tr: by_tr[tr][2:])
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "kernel": {"family": "power", "alpha": 0.3},
                "disorder": {"family": "gaussian"},
                "beta": 1.5,
                "base_seed": 1,
                "tr_schedule": [4, 8],
                "replicas": 2,
            },
        )
        out = tmp_path / "out"
        assert run(["relevance", "--config", cfg, "--out", out]) == code
        _, rows = read_rows(out / "relevance_scan.csv")
        assert tuple(row["verdict"] for row in rows) == rows_want
        for row, (estimate, stderr, lower, upper) in zip(rows, levels):
            assert [float(row[c]) for c in ("estimate", "stderr", "lower", "upper")] == [
                estimate, stderr, lower, upper
            ]
        doc = json.loads((out / "relevance_bounds.json").read_text())
        assert doc["overall_verdict"] == overall
        manifest = json.loads((out / "relevance_manifest.json").read_text())
        assert manifest["warnings"] == warnings
        assert manifest["exit_code"] == code


class TestValidateCommand:
    def test_default_suite_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "cfg.json", {"kernel": {"family": "power", "alpha": 0.5}, "base_seed": 3}
        )
        assert run(["validate", "--config", cfg, "--out", tmp_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS replica-identity" in out
        assert "FAIL" not in out

    def test_default_kernel_is_power_half(self, tmp_path, capsys):
        # without a kernel the checks run on the power-0.5 kernel
        outputs = []
        for name, doc in [("bare", {"base_seed": 1}),
                          ("power", {"kernel": {"family": "power", "alpha": 0.5}, "base_seed": 1})]:
            cfg = write_config(tmp_path, name + ".json", doc)
            assert run(["validate", "--config", cfg, "--out", tmp_path / name]) == EXIT_OK
            outputs.append(capsys.readouterr().out.splitlines())
        assert len(outputs[0]) == 7 and all(line.startswith("PASS ") for line in outputs[0])
        assert outputs[0] == outputs[1]

    def test_corrupted_table_fails_with_invariant_name(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "cfg.json", {"kernel": {"family": "table", "masses": [0.5, 0.51]}}
        )
        assert run(["validate", "--config", cfg, "--out", tmp_path]) == EXIT_INVARIANT
        out = capsys.readouterr().out
        assert "FAIL kernel-mass-normalization" in out

    def test_unbuildable_kernel_fails_any_check_subset(self, tmp_path, capsys):
        # a stale "checks" key is not read: the whole matrix is printed
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"kernel": {"family": "table", "masses": [0.5, 0.51]}, "checks": ["replica-identity"]},
        )
        assert run(["validate", "--config", cfg, "--out", tmp_path]) == EXIT_INVARIANT
        lines = capsys.readouterr().out.splitlines()
        matrix = [("kernel-mass-normalization", "FAIL")] + [
            (name, "SKIP") for name in (
                "renewal-recursion",
                "truncation-mass",
                "overlap-reconstruction",
                "dp-vs-enumeration",
                "annealed-moment-identity",
                "replica-identity",
            )
        ]
        assert [tuple(line.split()[:2][::-1]) for line in lines] == matrix
        assert all(line.endswith("(kernel construction failed)") for line in lines[1:])
        manifest = json.loads((tmp_path / "validate_manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_INVARIANT
        assert "kernel-mass-normalization" in manifest["error"]
        assert [(c["name"], c["verdict"]) for c in manifest["checks"]] == matrix

    def test_checks_the_series_path_the_library_runs(self, tmp_path, capsys, monkeypatch):
        import pinlab.kernels
        import pinlab.relevance
        import pinlab.series

        exact = pinlab.series.power_series_inverse

        def perturbed(a, n, *rest):
            v = exact(a, n, *rest)
            v[1] += 1e-9
            return v

        # every module that binds the reciprocal
        for module in (pinlab.series, pinlab.kernels, pinlab.relevance):
            monkeypatch.setattr(module, "power_series_inverse", perturbed)
        cfg = write_config(
            tmp_path, "cfg.json", {"kernel": {"family": "power", "alpha": 0.5}, "base_seed": 3}
        )
        assert run(["validate", "--config", cfg, "--out", tmp_path]) == EXIT_INVARIANT
        lines = capsys.readouterr().out.splitlines()
        # the replica moment is a series in the squared returns, so it sees u_1 too
        assert [" ".join(line.split()[:2]).rstrip(":") for line in lines] == [
            "PASS kernel-mass-normalization",
            "FAIL renewal-recursion",
            "PASS truncation-mass",
            "FAIL overlap-reconstruction",
            "PASS dp-vs-enumeration",
            "PASS annealed-moment-identity",
            "FAIL replica-identity",
        ]

    def test_gapped_table_kernel_passes(self, tmp_path, capsys):
        # only gaps 9 and 10: no renewal set reaches the small enumeration sizes
        masses = [0.0] * 8 + [0.5, 0.5]
        cfg = write_config(
            tmp_path, "cfg.json", {"kernel": {"family": "table", "masses": masses}}
        )
        assert run(["validate", "--config", cfg, "--out", tmp_path]) == EXIT_OK
        assert "PASS dp-vs-enumeration" in capsys.readouterr().out

    def test_nan_partition_fails_dp_check(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("pinlab.cli.partition_function_log", lambda kernel, weights: math.nan)
        cfg = write_config(
            tmp_path, "cfg.json", {"kernel": {"family": "power", "alpha": 0.5}, "base_seed": 3}
        )
        assert run(["validate", "--config", cfg, "--out", tmp_path]) == EXIT_INVARIANT
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL dp-vs-enumeration (gap nan, tol 1e-12)"
        ]

    def test_nan_replica_moment_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            "pinlab.cli.replica_moment_exact_check", lambda *args: (1.0, 1.0, math.nan)
        )
        cfg = write_config(
            tmp_path, "cfg.json", {"kernel": {"family": "power", "alpha": 0.5}, "base_seed": 3}
        )
        assert run(["validate", "--config", cfg, "--out", tmp_path]) == EXIT_INVARIANT
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines if line.startswith("FAIL")] == [
            "replica-identity"
        ]

    def test_manifest_is_the_only_file(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "cfg.json", {"kernel": {"family": "power", "alpha": 0.5}, "base_seed": 3}
        )
        out = tmp_path / "out"
        assert run(["validate", "--config", cfg, "--out", out]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7
        assert all(line.startswith("PASS ") and line.endswith(")") for line in lines)
        assert sorted(p.name for p in out.iterdir()) == ["validate_manifest.json"]
        manifest = json.loads((out / "validate_manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["exit_code"] == EXIT_OK
        assert manifest["outputs"] == []
        checks = manifest["checks"]
        assert [c["name"] for c in checks] == [line.split()[1] for line in lines]
        assert all(c["verdict"] == "PASS" for c in checks)
        assert all(c["gap"] <= c["tol"] for c in checks[1:])

    def test_seed_flag_rejected(self, tmp_path):
        # validate's seed is the config's base_seed (default 0), never a flag
        cfg = write_config(
            tmp_path, "cfg.json", {"kernel": {"family": "power", "alpha": 0.5}, "base_seed": 3}
        )
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            run(["validate", "--config", cfg, "--out", out, "--seed", "5"])
        assert info.value.code == EXIT_CONFIG
        assert not out.exists()
        cfg = write_config(tmp_path, "cfg.json", {"kernel": {"family": "power", "alpha": 0.5}})
        assert run(["validate", "--config", cfg, "--out", out]) == EXIT_OK
        assert json.loads((out / "validate_manifest.json").read_text())["seed"] == 0

    def test_raising_check_fails(self, tmp_path, capsys, monkeypatch):
        def overflow(kernel, weights):
            raise PrecisionError("partition sum overflows")

        monkeypatch.setattr("pinlab.cli.partition_function_log", overflow)
        cfg = write_config(
            tmp_path, "cfg.json", {"kernel": {"family": "power", "alpha": 0.5}, "base_seed": 3}
        )
        assert run(["validate", "--config", cfg, "--out", tmp_path]) == EXIT_INVARIANT
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL dp-vs-enumeration (partition sum overflows)"
        ]
        manifest = json.loads((tmp_path / "validate_manifest.json").read_text())
        assert {"name": "dp-vs-enumeration", "verdict": "FAIL", "gap": None, "tol": None} in (
            manifest["checks"]
        )


class TestEnvOutputDir(object):
    def test_env_var_ignored(self, tmp_path, monkeypatch):
        # no manifest records the environment, so no run reads its output from it
        target = tmp_path / "env_out"
        monkeypatch.setenv("PINLAB_OUT_DIR", str(target))
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"kernel": {"family": "geometric", "p": 0.5}, "lambda_grid": [0.5]},
        )
        assert run(["homopolymer", "--config", cfg]) == EXIT_OK
        assert (tmp_path / "homopolymer.csv").exists()
        assert not target.exists()

    def test_config_has_no_output_dir(self, tmp_path, monkeypatch):
        # --out moves the output; a config key does not
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"kernel": GEOMETRIC, "lambda_grid": [0.5], "output": {"dir": "cfg_out"}},
        )
        assert run(["homopolymer", "--config", cfg]) == EXIT_OK
        assert (tmp_path / "homopolymer.csv").exists()
        assert not (tmp_path / "cfg_out").exists()
