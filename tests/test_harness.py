import os
import subprocess
import sys
from pathlib import Path

import pytest

from supdev.cli import main as cli_main
from supdev.errors import ConfigError
from supdev.harness import (
    CSV_HEADER,
    EXPERIMENT_KINDS,
    calibrate,
    default_config,
    effective_seed,
    emit,
    load_records_json,
    parse_config,
    records_to_csv,
    records_to_json,
    records_to_plotdata,
    run_experiment,
    SEED_ENV_VAR,
)

EQUI_INI = """
[experiment]
kind = equicorrelated
seed = 11
reps = 20000

[params]
n = 6
lam = 0.25
theta = 1.8
"""


def strip_timing(csv_text: str) -> str:
    # drop the wall-time and timestamp columns before comparing bytes
    rows = []
    for line in csv_text.strip().split("\n"):
        cells = line.split(",")
        del cells[12:14]
        rows.append(",".join(cells))
    return "\n".join(rows)


class TestConfigParsing:
    def test_round_trip_fields(self):
        cfg = parse_config(EQUI_INI)
        assert cfg.kind == "equicorrelated"
        assert cfg.seed == 11 and cfg.reps == 20000
        assert cfg.params == {"n": 6, "lam": 0.25, "theta": 1.8}

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(EQUI_INI + "\nrho = 0.5\n")

    def test_missing_required_param(self):
        bad = EQUI_INI.replace("theta = 1.8", "")
        with pytest.raises(ConfigError, match="theta"):
            parse_config(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="section"):
            parse_config(EQUI_INI + "\n[mystery]\nkey = 1\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config(EQUI_INI.replace("equicorrelated", "nonsense"))

    def test_type_errors_named(self):
        with pytest.raises(ConfigError, match="lam"):
            parse_config(EQUI_INI.replace("lam = 0.25", "lam = abc"))

    def test_list_params(self):
        txt = """
[experiment]
kind = limsup

[params]
alphas = 1.0 1.0
lambdas = 1.4142135623730951, 1.7320508075688772
max_terms = 100
"""
        cfg = parse_config(txt)
        assert cfg.params["alphas"] == (1.0, 1.0)
        assert len(cfg.params["lambdas"]) == 2

    def test_key_case_preserved(self):
        txt = """
[experiment]
kind = cyclic-transfer

[params]
x = 32
U = 4.0
H = 1.0
C = 0.5
"""
        cfg = parse_config(txt)
        assert cfg.params["C"] == 0.5 and cfg.params["U"] == 4.0

    def test_schema_covers_all_kinds(self):
        assert len(EXPERIMENT_KINDS) == 10
        for kind in EXPERIMENT_KINDS:
            cfg = default_config(kind)
            assert cfg.kind == kind


class TestSeedPrecedence:
    def test_config_seed_used(self, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        assert effective_seed(parse_config(EQUI_INI)) == 11

    def test_env_beats_config(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "77")
        assert effective_seed(parse_config(EQUI_INI)) == 77

    def test_cli_beats_env(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "77")
        assert effective_seed(parse_config(EQUI_INI), cli_seed=5) == 5

    def test_default_zero(self, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        cfg = default_config("equicorrelated")
        assert effective_seed(cfg) == 0

    def test_bad_env_named(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        with pytest.raises(ConfigError, match=SEED_ENV_VAR):
            effective_seed(parse_config(EQUI_INI))


class TestRunExperiment:
    def test_equicorrelated_end_to_end(self):
        rec = run_experiment(parse_config(EQUI_INI))
        assert rec.experiment == "equicorrelated"
        assert rec.seed == 11
        row = rec.checks[0]
        assert row.passed is True
        assert 0.0 <= row.mc <= 1.0
        assert row.bound > 0.0

    def test_same_config_identical_but_wall_time(self):
        a = run_experiment(parse_config(EQUI_INI))
        b = run_experiment(parse_config(EQUI_INI))
        assert a.config_hash == b.config_hash
        assert [vars(r) for r in a.checks] == [vars(r) for r in b.checks]

    def test_worker_count_invisible(self):
        from dataclasses import replace

        cfg = parse_config(EQUI_INI)
        a = run_experiment(cfg)
        b = run_experiment(replace(cfg, workers=8))
        assert [vars(r) for r in a.checks] == [vars(r) for r in b.checks]

    def test_error_annotated_with_context(self):
        cfg = parse_config(EQUI_INI.replace("lam = 0.25", "lam = 1.5"))
        with pytest.raises(Exception, match="kind=equicorrelated"):
            run_experiment(cfg)


class TestAllKinds:
    def test_every_kind_runs_and_serializes(self):
        from dataclasses import replace

        for kind in EXPERIMENT_KINDS:
            cfg = default_config(kind, seed=13)
            if cfg.reps > 5000:
                cfg = replace(cfg, reps=5000)
            rec = run_experiment(cfg)
            assert rec.experiment == kind
            assert rec.checks
            text = records_to_csv([rec])
            assert text.startswith(CSV_HEADER)
            assert load_records_json(records_to_json([rec]))[0].experiment == kind

    def test_verify_help_describes_each_kind(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["verify", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for kind in EXPERIMENT_KINDS:
            assert kind in out
        assert "running maximum" in out  # behavior text, not bare names


class TestEmission:
    def test_header_only_for_empty(self):
        assert records_to_csv([]) == CSV_HEADER + "\n"

    def test_single_record_rows(self):
        rec = run_experiment(parse_config(EQUI_INI))
        text = records_to_csv([rec])
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(rec.checks)
        assert lines[1].startswith("equicorrelated,sup_prob_le_product_bound,")

    def test_json_round_trip(self):
        rec = run_experiment(parse_config(EQUI_INI))
        back = load_records_json(records_to_json([rec]))
        assert len(back) == 1
        assert vars(back[0].checks[0]) == vars(rec.checks[0])
        assert back[0].config_hash == rec.config_hash

    def test_plotdata_columns(self):
        rec = run_experiment(parse_config(EQUI_INI))
        text = records_to_plotdata([rec])
        lines = text.strip().split("\n")
        assert lines[0] == "x,mc,mc_lo,mc_hi,bound"
        assert len(lines[1].split(",")) == 5

    def test_emit_writes_files(self, tmp_path):
        rec = run_experiment(parse_config(EQUI_INI))
        for fmt, name in (("csv", "r.csv"), ("json", "r.json"), ("plotdata", "p.csv")):
            path = emit([rec], fmt, str(tmp_path / name))
            assert os.path.exists(path)
        with pytest.raises(ConfigError):
            emit([rec], "xml", str(tmp_path / "r.xml"))

    def test_csv_determinism_modulo_timing(self):
        a = records_to_csv([run_experiment(parse_config(EQUI_INI))])
        b = records_to_csv([run_experiment(parse_config(EQUI_INI))])
        assert strip_timing(a) == strip_timing(b)


class TestCalibrate:
    def test_transfer_constant_is_order_one(self):
        cfg = default_config("cyclic-transfer", seed=3)
        out = calibrate(cfg)
        assert out["c_max"] >= 1.0
        assert out["passes_at_C_1"]

    def test_kronecker_constant_reported(self):
        cfg = default_config("kronecker-search", seed=3)
        out = calibrate(cfg)
        assert out["c_max"] > 0.0
        assert out["count"] >= 1

    def test_non_calibratable_kind_rejected(self):
        with pytest.raises(ConfigError):
            calibrate(default_config("limsup"))


class TestCli:
    def test_verify_pass_exit_zero(self, capsys, tmp_path):
        cfg = tmp_path / "equi.ini"
        cfg.write_text(EQUI_INI)
        code = cli_main(["verify", "equicorrelated", "-c", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_bound_and_simulate_modes(self, capsys, tmp_path):
        cfg = tmp_path / "equi.ini"
        cfg.write_text(EQUI_INI)
        assert cli_main(["bound", "equicorrelated", "-c", str(cfg)]) == 0
        assert cli_main(["simulate", "equicorrelated", "-c", str(cfg)]) == 0

    @pytest.mark.parametrize("mode", ["bound", "simulate"])
    @pytest.mark.parametrize("kind", ["equicorrelated", "lattice-correlation"])
    def test_one_sided_modes_print_no_verdict(self, capsys, mode, kind):
        # the verdict compares both sides, one of which these modes hide;
        # lattice-correlation fails its variance floor under verify
        assert cli_main([mode, kind]) == 0
        out = capsys.readouterr().out
        assert ("bound=" if mode == "bound" else "mc=") in out
        assert "PASS" not in out and "FAIL" not in out and "margin=" not in out

    def test_alias_subcommands(self, capsys):
        assert cli_main(["decouple", "--reps", "4000"]) == 0
        out = capsys.readouterr().out
        assert "experiment=decoupling" in out

    def test_config_error_exit_two(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(EQUI_INI + "\nbogus_key = 3\n")
        assert cli_main(["verify", "equicorrelated", "-c", str(cfg)]) == 2

    def test_kind_mismatch_exit_two(self, tmp_path):
        cfg = tmp_path / "equi.ini"
        cfg.write_text(EQUI_INI)
        assert cli_main(["verify", "block", "-c", str(cfg)]) == 2

    def test_failed_check_exit_one(self, capsys):
        # the lattice-correlation variance floor is structurally violated
        # for admissible parameters; the CLI reports it honestly
        code = cli_main(["verify", "lattice-correlation"])
        out = capsys.readouterr().out
        assert code == 1
        assert "variance_floor" in out and "FAIL" in out

    def test_outputs_written(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        code = cli_main(["verify", "limsup", "--csv", str(csv_path)])
        assert code == 0
        assert csv_path.read_text().startswith(CSV_HEADER.split(",")[0])

    def test_calibrate_command(self, capsys):
        code = cli_main(["calibrate", "cyclic-transfer", "--reps", "500"])
        out = capsys.readouterr().out
        assert code == 0
        assert "c_max=" in out and "never stored" in out

    @pytest.mark.parametrize(
        "override", [["--reps", "0"], ["--workers", "0"], ["--seed", "-1"], ["--seed", str(2**64)]]
    )
    def test_out_of_range_override_exit_two(self, capsys, override):
        assert cli_main(["verify", "equicorrelated", *override]) == 2
        assert "config error" in capsys.readouterr().err

    def test_out_of_range_env_seed_exit_two(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "-1")
        assert cli_main(["verify", "equicorrelated"]) == 2
        assert SEED_ENV_VAR in capsys.readouterr().err

    def test_seed_echoed(self, capsys):
        cli_main(["verify", "limsup", "--seed", "99"])
        assert "seed=99" in capsys.readouterr().out


class TestVerificationScript:
    SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_verifications.py"

    @pytest.mark.parametrize(
        "args", [["--workers", "0"], ["--seed", "-1"], ["--kinds", "nope"], ["--kinds", "limsup", "nope"]]
    )
    def test_bad_input_exit_two_without_traceback(self, args, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(self.SCRIPT), *args, "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert proc.stdout == "" and not any(tmp_path.iterdir())
