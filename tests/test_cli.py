"""Command-line frontend: schemas, determinism, exit codes."""

import json
import math

import pytest

from pinlab.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, EXIT_UNDECIDED, main


GEOMETRIC = {"family": "geometric", "p": 0.5}
GAUSSIAN = {"family": "gaussian"}


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

    def test_json_format(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"kernel": {"family": "geometric", "p": 0.5}, "lambda_grid": [1.0]},
        )
        out = tmp_path / "out"
        assert run(["homopolymer", "--config", cfg, "--out", out, "--format", "json"]) == EXIT_OK
        doc = json.loads((out / "homopolymer.json").read_text())
        assert doc["columns"] == ["lambda", "f", "residual"]
        assert len(doc["rows"]) == 1


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

    def test_unreadable_config(self, tmp_path):
        assert run(["chi", "--config", tmp_path / "missing.json"]) == EXIT_CONFIG

    def test_unread_kernel_field_named(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "cfg.json", {"kernel": {"family": "power", "alpha": 0.3, "n_cap": 100}}
        )
        assert run(["chi", "--config", cfg, "--out", tmp_path]) == EXIT_CONFIG
        assert "n_cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, doc, field",
        [
            ("homopolymer", {"kernel": GEOMETRIC, "lambda_grid": [0.5], "tol": "abc"}, "tol"),
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
            ("homopolymer", {"kernel": GEOMETRIC, "lambda_grid": [0.5], "tol": math.nan}, "tol"),
            ("homopolymer", {"kernel": GEOMETRIC, "lambda_grid": [0.5], "tol": "nan"}, "tol"),
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

    def test_threads_only_on_phase_diagram(self, tmp_path):
        # every flag is registered only on the commands that read it
        cfg = write_config(tmp_path, "cfg.json", {"kernel": {"family": "power", "alpha": 0.3}})
        for command, flag in [
            ("chi", ["--threads", "2"]),
            ("chi", ["--seed", "3"]),
            ("homopolymer", ["--seed", "3"]),
            ("annealed-curve", ["--seed", "3"]),
            ("validate", ["--format", "json"]),
        ]:
            with pytest.raises(SystemExit) as info:
                run([command, "--config", cfg, "--out", tmp_path / "out", *flag])
            assert info.value.code == EXIT_CONFIG, (command, flag)
        assert not (tmp_path / "out").exists()


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
        serial, threaded = tmp_path / "s", tmp_path / "t"
        assert run(["phase-diagram", "--config", cfg, "--out", serial]) in (EXIT_OK, 4)
        assert run(
            ["phase-diagram", "--config", cfg, "--out", threaded, "--threads", "2"]
        ) in (EXIT_OK, 4)
        assert (serial / "phase_diagram.csv").read_bytes() == (
            threaded / "phase_diagram.csv"
        ).read_bytes()


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
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "kernel": {"family": "power", "alpha": 0.3},
                "disorder": {"family": "rademacher"},
                "beta": 0.5,
                "base_seed": 1,
                "tr_schedule": [4],
                "n_multiplier": 32,
                "replicas": 4,
            },
        )
        out = tmp_path / "out"
        assert run(["relevance", "--config", cfg, "--out", out, "--seed", "2"]) in (EXIT_OK, 4)
        manifest = json.loads((out / "relevance_manifest.json").read_text())
        assert manifest["seed"] == 2

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


class TestValidateCommand:
    def test_default_suite_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "cfg.json", {"kernel": {"family": "power", "alpha": 0.5}, "base_seed": 3}
        )
        assert run(["validate", "--config", cfg, "--out", tmp_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS replica-identity" in out
        assert "FAIL" not in out

    def test_corrupted_table_fails_with_invariant_name(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "cfg.json", {"kernel": {"family": "table", "masses": [0.5, 0.51]}}
        )
        assert run(["validate", "--config", cfg, "--out", tmp_path]) == EXIT_INVARIANT
        out = capsys.readouterr().out
        assert "FAIL kernel-mass-normalization" in out

    def test_unbuildable_kernel_fails_any_check_subset(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"kernel": {"family": "table", "masses": [0.5, 0.51]}, "checks": ["replica-identity"]},
        )
        assert run(["validate", "--config", cfg, "--out", tmp_path]) == EXIT_INVARIANT
        lines = capsys.readouterr().out.splitlines()
        assert [" ".join(line.split()[:2]) for line in lines] == [
            "FAIL kernel-mass-normalization",
            "SKIP replica-identity",
        ]
        manifest = json.loads((tmp_path / "validate_manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_INVARIANT
        assert "kernel-mass-normalization" in manifest["error"]
        assert [(c["name"], c["verdict"]) for c in manifest["checks"]] == [
            ("kernel-mass-normalization", "FAIL"),
            ("replica-identity", "SKIP"),
        ]

    def test_checks_the_series_path_the_library_runs(self, tmp_path, capsys, monkeypatch):
        import pinlab.series

        exact = pinlab.series.power_series_inverse

        def perturbed(a, n, *rest):
            v = exact(a, n, *rest)
            v[1] += 1e-9
            return v

        monkeypatch.setattr(pinlab.series, "power_series_inverse", perturbed)
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
        monkeypatch.setattr("pinlab.cli.partition_function_log", lambda params, omega: math.nan)
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

    def test_seed_flag_recorded(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json", {"kernel": {"family": "power", "alpha": 0.5}, "base_seed": 3}
        )
        assert run(["validate", "--config", cfg, "--out", tmp_path, "--seed", "5"]) == EXIT_OK
        assert json.loads((tmp_path / "validate_manifest.json").read_text())["seed"] == 5

    def test_check_subset(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"kernel": {"family": "power", "alpha": 0.5}, "checks": ["replica-identity"]},
        )
        assert run(["validate", "--config", cfg, "--out", tmp_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS replica-identity" in out
        assert "renewal-recursion" not in out


class TestEnvOutputDir(object):
    def test_env_var_respected(self, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("PINLAB_OUT_DIR", str(target))
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"kernel": {"family": "geometric", "p": 0.5}, "lambda_grid": [0.5]},
        )
        assert run(["homopolymer", "--config", cfg]) == EXIT_OK
        assert (target / "homopolymer.csv").exists()
