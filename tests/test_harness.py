import ast
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from supdev import cli, decoupling, harness, mc
from supdev.cli import SEED_ENV_VAR
from supdev.cli import main as cli_main
from supdev.errors import ConfigError, SupdevError
from supdev.harness import (
    CSV_HEADER,
    EXPERIMENT_KINDS,
    KINDS,
    ExperimentConfig,
    calibrate,
    csv_without_timing,
    default_config,
    emit,
    load_config,
    load_records_json,
    parse_config,
    records_to_csv,
    records_to_json,
    records_to_plotdata,
    run_experiment,
)
from supdev.kronecker import LimsupRecords

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

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

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_omitted_optional_params_take_default_config_values(self, kind):
        def ini_value(v):
            if isinstance(v, tuple):
                return " ".join(map(repr, v))
            return repr(v) if isinstance(v, float) else str(v)

        required = [(name, default) for name, (_, req, default) in KINDS[kind].params.items() if req]
        text = f"[experiment]\nkind = {kind}\n\n[params]\n" + "".join(
            f"{name} = {ini_value(default)}\n" for name, default in required
        )
        cfg = parse_config(text)
        assert cfg.params == default_config(kind).params
        # reps too: an INI without a reps line runs at the kind's count
        assert cfg == default_config(kind) and cfg.config_hash() == default_config(kind).config_hash()

    def test_shipped_configs_parse_one_per_kind(self):
        kinds = [load_config(str(path)).kind for path in sorted(CONFIGS.glob("*.ini"))]
        assert sorted(kinds) == list(EXPERIMENT_KINDS)

    def test_omitted_reps_take_the_kinds_count(self):
        no_reps = [path for path in sorted(CONFIGS.glob("*.ini")) if "reps" not in path.read_text(encoding="utf-8")]
        assert [path.stem for path in no_reps] == ["divergence", "kronecker_search", "lattice_correlation", "limsup"]
        for path in no_reps:
            cfg = load_config(str(path))
            assert cfg.reps == KINDS[cfg.kind].reps == 1, path.name
        direct = ExperimentConfig(kind="equicorrelated", params=default_config("equicorrelated").params)
        assert direct.reps == KINDS["equicorrelated"].reps == 100000

    def test_unknown_kind_named_by_every_entry_point(self):
        for call in (
            lambda: default_config("nonsense"),
            lambda: ExperimentConfig(kind="nonsense", params={}),
            lambda: parse_config("[experiment]\nkind = nonsense\n"),
        ):
            with pytest.raises(ConfigError, match="unknown experiment kind 'nonsense'; known"):
                call()


class TestDirectConfigs:
    """A config built directly, or changed through ``dataclasses.replace``,
    passes the same schema check as an INI config."""

    def test_unknown_key_rejected(self):
        params = dict(default_config("equicorrelated").params, thta=2.0)
        with pytest.raises(ConfigError, match=r"unknown \[params\] keys for kind 'equicorrelated': \['thta'\]"):
            ExperimentConfig(kind="equicorrelated", params=params)

    @pytest.mark.parametrize("value", [math.nan, math.inf, (1.0, math.nan)])
    def test_non_finite_float_rejected(self, value):
        key = "root_coeffs" if isinstance(value, tuple) else "z"
        params = dict(default_config("szego").params, **{key: value})
        with pytest.raises(ConfigError, match=f"param {key!r} of kind 'szego' must be finite"):
            ExperimentConfig(kind="szego", params=params)

    def test_replace_is_checked(self):
        cfg = default_config("limsup")
        with pytest.raises(ConfigError, match="requires param 'max_terms'"):
            replace(cfg, params={k: v for k, v in cfg.params.items() if k != "max_terms"})

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("kind", ["equicorrelated"], "kind must be a string, got ['equicorrelated']"),
            ("params", None, "params must be a mapping, got None"),
            ("params", [("n", 8)], "params must be a mapping, got [('n', 8)]"),
            ("params", {"n": 8, "lam": 0.3, "theta": 2.0, 1: 2, "zz": 3}, "unknown [params] keys for kind "
             "'equicorrelated': ['zz', 1]"),
            ("output", "out.csv", "output must be a mapping, got 'out.csv'"),
            ("output", {"csv": 3}, "[output] csv path must be a string, got 3"),
            ("output", {"pdf": "x"}, "unknown [output] keys: ['pdf']"),
        ],
        ids=["kind_list", "params_none", "params_pairs", "params_int_key", "output_text", "output_int_path",
             "output_unknown_key"],
    )
    def test_containers_are_checked(self, name, value, message):
        fields = {"kind": "equicorrelated", "params": default_config("equicorrelated").params, name: value}
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig(**fields)

    def test_omitted_optional_params_take_defaults(self):
        cfg = ExperimentConfig(kind="moderate-trig", params={"x": 100, "eta": 0.3}, reps=200)
        assert cfg.params == default_config("moderate-trig").params
        record = run_experiment(replace(cfg, seed=1))
        assert [row.name for row in record.checks] == ["sup_prob_le_moderate_bound", "bound_vacuous"]


class TestConfigTyping:
    """Values are typed by the schema whatever their source: a config built
    in code runs and hashes like its INI text, and a value of the wrong type
    is a ConfigError (exit 2 from the CLI), not a traceback or a silently
    truncated number."""

    def test_text_and_python_values_are_typed_alike(self):
        cfg = ExperimentConfig(kind="equicorrelated", params={"n": "6", "lam": 0.25, "theta": 2}, seed="3")
        assert cfg.params == {"n": 6, "lam": 0.25, "theta": 2.0} and type(cfg.params["theta"]) is float
        assert cfg.seed == 3
        assert replace(cfg, reps=500).params == cfg.params

    def test_int_for_a_float_hashes_like_the_ini(self):
        params = dict(default_config("equicorrelated").params, theta=2)
        ini = parse_config(ini_with("equicorrelated", {"theta": "2"}))
        assert ExperimentConfig(kind="equicorrelated", params=params).config_hash() == ini.config_hash()

    def test_list_hashes_like_the_tuple_and_the_ini(self):
        params = default_config("limsup").params
        as_list = ExperimentConfig(kind="limsup", params=dict(params, alphas=[1, 1.0, 1]))
        assert as_list.params["alphas"] == (1.0, 1.0, 1.0)
        assert all(type(a) is float for a in as_list.params["alphas"])
        assert (
            as_list.config_hash()
            == ExperimentConfig(kind="limsup", params=params).config_hash()
            == parse_config(ini_with("limsup", {})).config_hash()
        )

    @pytest.mark.parametrize("name, value", [("seed", 1.5), ("reps", 1000.5), ("workers", 2.0), ("seed", True),
                                             ("reps", "many")])
    def test_experiment_numbers_take_the_int_rule(self, name, value):
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig(kind="equicorrelated", params=default_config("equicorrelated").params, **{name: value})

    def test_seed_override_takes_the_int_rule(self):
        with pytest.raises(ConfigError, match=re.escape("seed must be an integer, got 1.5")):
            replace(default_config("equicorrelated"), seed=1.5)

    @pytest.mark.parametrize(
        "kind, key, value, description",
        [
            ("equicorrelated", "n", 6.5, "an integer"),
            ("equicorrelated", "n", True, "an integer"),
            ("equicorrelated", "theta", None, "a number"),
            ("equicorrelated", "theta", "two", "a number"),
            ("moderate-trig", "coeff_kind", 1, "a string"),
            ("limsup", "alphas", 1.0, "a list of numbers"),
            ("divergence", "ladder", (1000, 1e4), "a list of integers"),
        ],
    )
    def test_wrong_type_rejected(self, kind, key, value, description):
        params = dict(default_config(kind).params, **{key: value})
        message = f"param {key!r} of kind {kind!r} must be {description}, got {value!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig(kind=kind, params=params)

    @pytest.mark.parametrize(
        "key, value, what",
        [("seed", "1.5", "seed"), ("reps", "1000.5", "reps"), ("n", "6.5", "param 'n' of kind 'equicorrelated'")],
    )
    def test_cli_exit_two_names_the_field(self, key, value, what, capsys, tmp_path, deadline):
        text = ini_with("equicorrelated", {key: value})
        if key != "n":
            text = text.replace("[params]", f"{key} = {value}\n[params]")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        assert cli_main(["verify", "equicorrelated", "-c", str(cfg), "--reps", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {what} must be an integer, got {value!r}\n"
        assert captured.out == ""


class TestSeedPrecedence:
    """The CLI's seed rule, for both subcommands: --seed > SUPDEV_SEED >
    config > 0.  Under calibrate, equicorrelated gets a fit that reports
    its config's seed."""

    @pytest.fixture(params=["verify", "calibrate"])
    def command(self, request, monkeypatch):
        if request.param == "calibrate":
            entry = KINDS["equicorrelated"]._replace(calibrate=lambda cfg: {"seed": cfg.seed})
            monkeypatch.setitem(KINDS, "equicorrelated", entry)
        return request.param

    @staticmethod
    def seed_run(command, capsys, tmp_path, *flags, config=True):
        argv = [command, "equicorrelated", "--reps", "50", *flags]
        if config:
            cfg = tmp_path / "equi.ini"
            cfg.write_text(EQUI_INI)
            argv += ["-c", str(cfg)]
        code = cli_main(argv)
        return code, capsys.readouterr()

    @staticmethod
    def ran_seed(out, seed):
        return re.search(rf"(^|\s)seed={seed}(\s|$)", out, re.MULTILINE) is not None

    def test_config_seed_used(self, command, monkeypatch, capsys, tmp_path):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        code, captured = self.seed_run(command, capsys, tmp_path)
        assert code == 0 and self.ran_seed(captured.out, 11)

    def test_env_beats_config(self, command, monkeypatch, capsys, tmp_path):
        monkeypatch.setenv(SEED_ENV_VAR, "77")
        code, captured = self.seed_run(command, capsys, tmp_path)
        assert code == 0 and self.ran_seed(captured.out, 77)

    def test_cli_beats_env(self, command, monkeypatch, capsys, tmp_path):
        monkeypatch.setenv(SEED_ENV_VAR, "77")
        code, captured = self.seed_run(command, capsys, tmp_path, "--seed", "5")
        assert code == 0 and self.ran_seed(captured.out, 5)

    def test_default_zero(self, command, monkeypatch, capsys, tmp_path):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        code, captured = self.seed_run(command, capsys, tmp_path, config=False)
        assert code == 0 and self.ran_seed(captured.out, 0)

    def test_bad_env_named(self, command, monkeypatch, capsys, tmp_path):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        code, captured = self.seed_run(command, capsys, tmp_path)
        assert code == 2 and captured.out == ""
        assert captured.err == f"config error: {SEED_ENV_VAR} must be an integer, got 'not-a-number'\n"

    def test_library_reads_no_environment(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "77")
        assert run_experiment(replace(parse_config(EQUI_INI), reps=50)).seed == 11
        assert run_experiment(default_config("limsup")).seed == 0
        assert run_experiment(default_config("limsup", seed=5)).seed == 5
        monkeypatch.setitem(KINDS, "limsup", KINDS["limsup"]._replace(calibrate=lambda cfg: {"seed": cfg.seed}))
        assert calibrate(default_config("limsup", seed=4)) == {"seed": 4}


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
        cfg = parse_config(EQUI_INI)
        a = run_experiment(cfg)
        b = run_experiment(replace(cfg, workers=8))
        assert [vars(r) for r in a.checks] == [vars(r) for r in b.checks]

    @pytest.mark.parametrize("kind", ["limsup", "divergence"])
    def test_scan_records_identical_at_one_and_eight_workers(self, kind):
        # the exponential-sum scans run on one thread whatever the worker count
        cfg = default_config(kind, seed=3)
        texts = {csv_without_timing([run_experiment(replace(cfg, workers=w))]) for w in (1, 8)}
        assert len(texts) == 1

    def test_decoupling_violations_keep_their_numbers(self, monkeypatch):
        # verifiers patched to return right sides below their estimates
        real_mc, real_gn = harness.verify_decoupling_mc, harness.verify_gebelein_nelson

        def low_mc(*args, **kwargs):
            chk = real_mc(*args, **kwargs)
            return chk._replace(rhs=chk.lhs.estimate - 0.1)

        def low_gn(*args, **kwargs):
            res = real_gn(*args, **kwargs)
            return res._replace(gebelein_rhs=0.0, nelson_rhs=0.0)

        monkeypatch.setattr(harness, "verify_decoupling_mc", low_mc)
        monkeypatch.setattr(harness, "verify_gebelein_nelson", low_gn)
        cfg = replace(default_config("decoupling"), reps=5000)
        rows = {row.name: row for row in run_experiment(replace(cfg, seed=0)).checks}
        for name in ("product_indicator_le_pnorm_bound", "correlation_l2_bound", "hypercontractive_bound"):
            row = rows[name]
            assert row.passed is False and row.mc is not None and row.bound is not None, name
            assert row.mc_lo <= row.mc <= row.mc_hi and row.margin < 0.0, name
        assert "correlation_bounds" not in rows

    @pytest.mark.parametrize(
        "target, value, failing",
        [
            ("decoupling_multiplier", 1e-3, "product_indicator_le_pnorm_bound"),
            ("_hermite_abs_moment", 1e-6, "hypercontractive_bound"),
        ],
    )
    def test_decoupling_rows_judge_a_violated_inequality(self, monkeypatch, target, value, failing):
        # the library returns the numbers; the harness row alone decides FAIL
        monkeypatch.setattr(decoupling, target, lambda *args: value)
        cfg = replace(default_config("decoupling"), reps=20000)
        rows = {row.name: row for row in run_experiment(replace(cfg, seed=0)).checks}
        row = rows[failing]
        assert row.passed is False and row.margin < 0.0
        assert abs(row.mc) - row.bound > 3.0 * (row.mc_hi - row.mc)

    def test_error_annotated_with_context(self):
        cfg = parse_config(EQUI_INI.replace("lam = 0.25", "lam = 1.5"))
        with pytest.raises(Exception, match="kind=equicorrelated"):
            run_experiment(cfg)


class TestAllKinds:
    def test_every_kind_runs_and_serializes(self):
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
            assert f"{kind}: {KINDS[kind].help}" in out  # behavior text, not bare names


# every default config, then configs whose rows fail with a negative margin at seed 0
VERDICT_CASES = [pytest.param(kind, {}, id=kind) for kind in EXPERIMENT_KINDS] + [
    pytest.param("divergence", {"growth": 5.0}, id="divergence-growth-5"),
    pytest.param(
        "divergence",
        {"coeffs": (1.0, 0.8337174859600163), "lambdas": (0.01266766781473308, 0.04602212255369406), "ladder": (50,)},
        id="divergence-slow-growth",  # S_100 / S_50 = 1.079 < 1 + 0.1, the paper's growth
    ),
    pytest.param("kronecker-search", {"t_hi": 5.0}, id="kronecker-search-short-interval"),
    pytest.param("limsup", {"max_terms": 10, "target_frac": 0.99}, id="limsup-few-terms"),
]


class TestVerdictRule:
    @pytest.mark.parametrize("kind,params", VERDICT_CASES)
    def test_row_passes_iff_margin_nonnegative(self, kind, params):
        cfg = default_config(kind)
        cfg = replace(cfg, params={**cfg.params, **params})
        rows = [row for row in run_experiment(replace(cfg, seed=0)).checks if row.passed is not None and row.margin is not None]
        assert rows
        for row in rows:
            assert row.passed == (row.margin >= 0), row.name
        if params:
            assert any(row.margin < 0 and row.passed is False for row in rows)

    @staticmethod
    def _final_le_total(monkeypatch=None, scale=None):
        # one term of amplitude 2.6e11: the modulus rounds 2 ulps (6.1e-5) past the total
        cfg = default_config("limsup")
        params = {**cfg.params, "alphas": [264690385294.98776], "lambdas": [2.8198310289464494], "max_terms": 2000}
        if scale is not None:
            monkeypatch.setattr(harness, "limsup_records", lambda alphas, *args, **kw: LimsupRecords([0], [sum(alphas) * scale], 1))
        [row] = [row for row in run_experiment(replace(cfg, params=params, seed=0)).checks if row.name == "final_le_total"]
        return row

    def test_total_row_allows_the_rounding_of_a_large_total(self):
        row = self._final_le_total()
        assert -1e-4 < row.margin < 0.0 and row.passed is True

    def test_total_row_fails_past_the_rounding(self, monkeypatch):
        row = self._final_le_total(monkeypatch, scale=1.0 + 1e-9)
        assert row.margin < 0.0 and row.passed is False

    def test_correlation_cap_with_one_point_passes_without_margin(self):
        cfg = default_config("lattice-correlation")
        record = run_experiment(replace(cfg, params={**cfg.params, "max_points": 1}, seed=0))
        [cap] = [row for row in record.checks if row.name == "correlation_cap"]
        assert cap.passed is True and cap.margin is None and cap.mc is None

    def test_rows_are_built_and_cushioned_in_one_place(self):
        # every runner judges its rows through _row, every Monte Carlo
        # comparison takes its cushion from _cushion, and every interval
        # comes from the McEstimate that owns it
        sites = {"CheckRow": set(), "half_width": set()}
        for module in (harness, mc):
            for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "CheckRow":
                        sites["CheckRow"].add(getattr(node, "name", "<module>"))
                    if isinstance(sub, ast.Attribute) and sub.attr == "half_width":
                        sites["half_width"].add(getattr(node, "name", "<module>"))
        assert sites == {"CheckRow": {"_row", "load_records_json"}, "half_width": {"_cushion", "McEstimate"}}


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

    def test_csv_without_timing_drops_the_two_timing_columns(self):
        rec = run_experiment(parse_config(EQUI_INI))
        header = CSV_HEADER.split(",")
        kept = [name for name in header if name not in ("wall_time_s", "timestamp")]
        assert len(kept) == len(header) - 2
        full = [dict(zip(header, line.split(","))) for line in records_to_csv([rec]).splitlines()]
        text = csv_without_timing([rec])
        assert text == "".join(",".join(row[name] for name in kept) + "\n" for row in full)
        assert csv_without_timing([replace(rec, wall_time_s=1.5, timestamp="then")]) == text
        assert csv_without_timing([replace(rec, seed=rec.seed + 1)]) != text

    def test_csv_determinism_modulo_timing(self):
        a = csv_without_timing([run_experiment(parse_config(EQUI_INI))])
        b = csv_without_timing([run_experiment(parse_config(EQUI_INI))])
        assert a == b


class TestCalibrate:
    def test_transfer_window_that_constrains_nothing_gives_no_verdict(self):
        # at the default window sup X never stays below theta - h, so every C passes
        out = calibrate(default_config("cyclic-transfer", seed=3))
        assert out == {"kind": "cyclic-transfer", "c_max": math.inf, "constrained": False}

    @pytest.mark.parametrize("zero_delta", [False, True])
    def test_transfer_constant_closes_the_deficit(self, monkeypatch, zero_delta):
        cfg = default_config("cyclic-transfer", seed=3)
        tb, _, est_perp, theta, h = harness._transfer_pieces(cfg)
        if zero_delta:
            tb = tb._replace(delta_report=replace(tb.delta_report, delta=0.0))
        est_x = mc.McEstimate(estimate=0.5, reps=cfg.reps, half_width=0.0, seed=3, kind="probability")
        monkeypatch.setattr(harness, "_transfer_pieces", lambda cfg: (tb, est_x, est_perp, theta, h))
        out = calibrate(cfg)
        deficit = 0.5 - est_perp.estimate - 3.0 * est_perp.half_width
        assert deficit > 0.0 and out["constrained"] and out["passes_at_C_1"] == (out["c_max"] >= 1.0)
        if zero_delta:
            assert out["c_max"] == 0.0
        else:
            # at C = c_max the error term equals the deficit
            d, log_kappa = tb.delta_report.delta, tb.log_kappa_guarded
            assert 2.0 * math.exp(-out["c_max"] * h * h / (d * d * log_kappa)) == pytest.approx(deficit, rel=1e-12)

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

    def test_one_sided_subcommands_removed(self, capsys):
        for argv in (["bound", "equicorrelated"], ["simulate", "szego"]):
            with pytest.raises(SystemExit) as exc:
                cli_main(argv)
            assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_no_alias_subcommands(self, capsys):
        for alias in ("cyclic", "decouple", "kronecker"):
            with pytest.raises(SystemExit) as exc:
                cli_main([alias])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "invalid choice" in err and err.count("\n") == 1
        with pytest.raises(SystemExit):
            cli_main(["--help"])
        assert "{verify,calibrate}" in capsys.readouterr().out

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

    def test_verify_ends_with_run_summary(self, capsys):
        code = cli_main(["verify", "lattice-correlation"])
        lines = capsys.readouterr().out.splitlines()
        passed = sum(line.endswith(" PASS") for line in lines)
        assert code == 1 and passed > 0
        assert lines[-1] == f"overall: FAIL - {passed} passed, 1 failed: lattice-correlation/variance_floor"

    def test_passing_run_summary(self, capsys):
        assert cli_main(["verify", "limsup"]) == 0
        lines = capsys.readouterr().out.splitlines()
        passed = sum(line.endswith(" PASS") for line in lines)
        assert passed > 0 and lines[-1] == f"overall: PASS - {passed} passed, 0 failed"

    def test_outputs_written(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        code = cli_main(["verify", "limsup", "--csv", str(csv_path)])
        assert code == 0
        assert csv_path.read_text().startswith(CSV_HEADER.split(",")[0])

    @pytest.mark.parametrize("kind", [kind for kind in EXPERIMENT_KINDS if not KINDS[kind].calibrate])
    def test_calibrate_kind_without_a_fit_exit_two(self, capsys, tmp_path, monkeypatch, kind):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["calibrate", kind]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"config error: no free constant to calibrate for kind {kind!r}\n"
        assert not any(tmp_path.iterdir())

    def test_calibrate_command(self, capsys):
        code = cli_main(["calibrate", "cyclic-transfer", "--reps", "500"])
        out = capsys.readouterr().out
        assert code == 0
        assert "c_max=" in out and "never stored" in out

    def test_calibrate_rejects_output_section(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "ct.ini"
        cfg.write_text((CONFIGS / "cyclic_transfer.ini").read_text() + "\n[output]\ncsv = cal.csv\n")
        assert cli_main(["calibrate", "cyclic-transfer", "-c", str(cfg), "--reps", "200"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("config error: ") and "[output]" in captured.err
        assert [path.name for path in tmp_path.iterdir()] == ["ct.ini"]

    @pytest.mark.parametrize("flag", ["--csv", "--json", "--plotdata"])
    def test_calibrate_rejects_output_flags(self, capsys, tmp_path, monkeypatch, flag):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["calibrate", "cyclic-transfer", "--reps", "200", flag, "out"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert f"unrecognized arguments: {flag} out" in captured.err
        assert not any(tmp_path.iterdir())

    def test_domain_error_exit_two_without_traceback(self, capsys, tmp_path):
        cfg = tmp_path / "equi.ini"
        cfg.write_text(EQUI_INI.replace("lam = 0.25", "lam = 2.0"))
        assert cli_main(["verify", "equicorrelated", "-c", str(cfg), "--csv", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("domain error: ") and err.count("\n") == 1
        assert "lam=2.0" in err and "Traceback" not in err
        assert [path.name for path in tmp_path.iterdir()] == ["equi.ini"]

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

    @pytest.mark.parametrize("case", ["config_dir", "config_not_utf8", "csv_dir"])
    def test_unreadable_path_exit_two(self, capsys, tmp_path, case):
        argv = ["verify", "limsup"]
        if case == "config_dir":
            argv += ["-c", str(tmp_path)]
        elif case == "config_not_utf8":
            cfg = tmp_path / "bytes.ini"
            cfg.write_bytes(b"\xff\xfe\x00")
            argv += ["-c", str(cfg)]
        else:
            argv += ["--csv", str(tmp_path)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_seed_echoed(self, capsys):
        cli_main(["verify", "limsup", "--seed", "99"])
        assert "seed=99" in capsys.readouterr().out


def _package_errors():
    """Every subclass of SupdevError, at any depth."""
    found, todo = [], [SupdevError]
    while todo:
        subs = todo.pop().__subclasses__()
        found += subs
        todo += subs
    return found


class TestErrorMap:
    """Each package error's stderr label and exit code are class constants,
    listed in the CLI docstring; one clause reports every one of them."""

    def test_every_error_maps_as_documented(self):
        rows = (re.match(r"\s+(\w+Error)\s+(\S.*?)\s+(\d)(\s|$)", line) for line in cli.__doc__.splitlines())
        documented = {row[1]: (row[2], int(row[3])) for row in rows if row}
        assert {cls.__name__: (cls.label, cls.exit_code) for cls in _package_errors()} == documented

    @pytest.mark.parametrize("cls", _package_errors(), ids=lambda cls: cls.__name__)
    def test_cli_reports_each_error(self, cls, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise cls("boom")

        monkeypatch.setattr(cli, "run_experiment", fail)
        assert cli_main(["verify", "limsup"]) == cls.exit_code
        assert capsys.readouterr() == ("", f"{cls.label}: boom\n")

    def test_block_escape_in_a_process(self, tmp_path):
        # admissible block inputs whose shrink factor beta = 1.46 leaves (0, 1)
        cfg = tmp_path / "block.ini"
        cfg.write_text(ini_with("block", {"blocks": "2", "block_size": "3", "u": "0.7773", "lam": "0.7699"}))
        src = str(Path(cli.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "supdev.cli", "verify", "block", "-c", str(cfg), "--reps", "50"],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("domain error: [kind=block hash=") and proc.stderr.count("\n") == 1
        assert "escaped (0, 1)" in proc.stderr and "Traceback" not in proc.stderr

    def test_unconverged_quadrature_exits_three(self, capsys, tmp_path, deadline):
        # 1 + cos t is log-integrable with geometric mean 1/2 (Jensen), but
        # the midpoint quadrature runs out of nodes at its zero t = pi
        cfg = tmp_path / "szego.ini"
        cfg.write_text(ini_with("szego", {"root_coeffs": "1 1", "floor": "0"}))
        assert cli_main(["verify", "szego", "-c", str(cfg), "--reps", "50"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("numerical error: [kind=szego hash=")
        assert "did not converge within 4194304 nodes" in captured.err


class TestVerifyKinds:
    """``supdev verify`` with any number of kinds: every config is checked
    before the first run, and each output file holds every record."""

    @pytest.mark.parametrize(
        "args",
        [["--workers", "0"], ["--seed", "-1"], ["nope"], ["limsup", "nope"], ["limsup", "--csv", ""],
         ["limsup", "--csv", "o", "--json", "./o"], ["limsup", "divergence", "-c", str(CONFIGS / "limsup.ini")],
         ["limsup", "-c", str(CONFIGS / "limsup.ini"), "--csv", str(CONFIGS / "limsup.ini")], ["limsup", "limsup"],
         ["limsup", "-c", str(GOLDEN / "limsup.csv")]],
        ids=["workers_0", "seed_negative", "unknown_kind", "unknown_after_known", "empty_path", "one_path_two_formats",
             "config_two_kinds", "output_over_config", "kind_twice", "config_not_ini"],
    )
    def test_bad_input_exit_two_before_any_run(self, args, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail(f"{cfg.kind} ran"))
        assert cli_main(["verify", *args, "--plotdata", "plot.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert captured.out == "" and not any(tmp_path.iterdir())

    def test_every_kind_by_default(self, capsys, tmp_path):
        path = tmp_path / "all.csv"
        assert cli_main(["verify", "--seed", "0", "--csv", str(path)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            "overall: FAIL - 18 passed, 1 failed: lattice-correlation/variance_floor"
        )
        keep = [i for i, name in enumerate(CSV_HEADER.split(",")) if name not in ("wall_time_s", "timestamp")]
        got = [",".join(line.split(",")[i] for i in keep) for line in path.read_text().splitlines()]
        golden = [(GOLDEN / f"{kind}.csv").read_text().splitlines() for kind in EXPERIMENT_KINDS]
        assert got == golden[0][:1] + [row for lines in golden for row in lines[1:]]

    def test_summary_names_every_failed_row(self, capsys):
        assert cli_main(["verify", "lattice-correlation", "limsup"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        passed = sum(line.endswith(" PASS") for line in lines)
        assert passed > 0 and captured.err == ""
        assert lines[-1] == f"overall: FAIL - {passed} passed, 1 failed: lattice-correlation/variance_floor"

    def test_unwritable_output_exit_two(self, capsys, tmp_path):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        assert cli_main(["verify", "limsup", "--csv", str(blocker / "out.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("config error: cannot write csv to ")

    @pytest.mark.parametrize("flags, seed", [(["--seed", "3"], "3"), ([], "5")], ids=["flag_beats_env", "env"])
    def test_seed_reaches_every_kind(self, flags, seed, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "5")
        path = tmp_path / "out.csv"
        assert cli_main(["verify", "limsup", "kronecker-search", *flags, "--csv", str(path)]) == 0
        rows = [row.split(",") for row in path.read_text().splitlines()[1:]]
        assert {row[0] for row in rows} == {"limsup", "kronecker-search"} and {row[3] for row in rows} == {seed}

    def test_json_holds_every_record(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        assert cli_main(["verify", "limsup", "kronecker-search", "--json", str(path)]) == 0
        records = load_records_json(path.read_text())
        assert [record.experiment for record in records] == ["limsup", "kronecker-search"]

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")), ids=lambda path: path.stem)
    def test_shipped_configs_run(self, path, capsys, tmp_path, monkeypatch):
        # configs may name [output] files relative to the working directory
        monkeypatch.chdir(tmp_path)
        kind = load_config(str(path)).kind
        assert cli_main(["verify", kind, "-c", str(path), "--reps", "200"]) == (1 if kind == "lattice-correlation" else 0)
        assert capsys.readouterr().err == ""


def ini_with(kind, overrides):
    """The kind's default config as INI text, with some params replaced."""
    lines = ["[experiment]", f"kind = {kind}", "[params]"]
    for name, default in default_config(kind).params.items():
        text = " ".join(map(str, default)) if isinstance(default, tuple) else str(default)
        lines.append(f"{name} = {overrides.get(name, text)}")
    return "\n".join(lines) + "\n"


class TestNonFiniteParams:
    """inf and nan in float and float-list params are config errors with
    exit 2; the cases cover the cyclic-transfer window U, the lattice scan
    ends t_hi and scan_hi, and the limsup amplitudes."""

    CASES = [
        ("cyclic-transfer", "U", "inf"),
        ("cyclic-transfer", "U", "nan"),
        ("kronecker-search", "t_hi", "inf"),
        ("kronecker-search", "t_hi", "nan"),
        ("lattice-correlation", "scan_hi", "inf"),
        ("limsup", "alphas", "1 1 nan"),
    ]

    @pytest.mark.parametrize("kind, key, value", CASES)
    def test_parse_rejects(self, kind, key, value):
        with pytest.raises(ConfigError, match=f"param {key!r} .* must be finite"):
            parse_config(ini_with(kind, {key: value}))

    @pytest.mark.parametrize("kind, key, value", CASES)
    def test_cli_exit_two_one_line(self, kind, key, value, capsys, tmp_path, deadline):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(ini_with(kind, {key: value}))
        assert cli_main(["verify", kind, "-c", str(cfg), "--reps", "50"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "must be finite" in err and "Traceback" not in err


SCAN_KINDS = [kind for kind in EXPERIMENT_KINDS if KINDS[kind].reps == 1]


class TestScanKindReps:
    """A scan kind (replication count 1) draws nothing, so it records reps =
    1 whatever --reps says, and a config that sets it otherwise is refused."""

    def test_scan_kinds(self):
        assert SCAN_KINDS == ["divergence", "kronecker-search", "lattice-correlation", "limsup"]

    def test_reps_override_skips_a_scan_kind(self, capsys):
        assert cli_main(["verify", "limsup", "--reps", "4000"]) == 0
        assert "experiment=limsup seed=0 reps=1 hash=28dd69d1f02b8750\n" in capsys.readouterr().out

    def test_bad_reps_override_refused_for_a_scan_kind(self, capsys):
        assert cli_main(["verify", "limsup", "--reps", "0"]) == 2
        assert capsys.readouterr().err == "config error: --reps must be >= 1, got 0\n"

    def test_reps_override_reaches_every_drawing_kind(self, capsys, deadline):
        cli_main(["verify", "--reps", "200"])
        recorded = dict(re.findall(r"^experiment=(\S+) seed=\d+ reps=(\d+) ", capsys.readouterr().out, re.MULTILINE))
        assert recorded == {kind: "1" if kind in SCAN_KINDS else "200" for kind in EXPERIMENT_KINDS}

    @pytest.mark.parametrize("kind", SCAN_KINDS)
    def test_config_reps_exit_two_one_line(self, kind, capsys, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(ini_with(kind, {}).replace("[params]", "reps = 5\n[params]"))
        assert cli_main(["verify", kind, "-c", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: kind {kind!r} draws no replications: reps must be 1, got 5\n"
        assert captured.out == ""


class TestCalibrateKinds:
    """``supdev calibrate`` with any number of kinds: every config is built
    and every fit runs before anything is printed."""

    @pytest.mark.parametrize(
        "args",
        [["--seed", "-1"], ["--reps", "0"], ["nope"], ["cyclic-transfer", "cyclic-transfer"],
         ["cyclic-transfer", "kronecker-search", "-c", str(CONFIGS / "cyclic_transfer.ini")]],
        ids=["seed_negative", "reps_0", "unknown_kind", "kind_twice", "config_two_kinds"],
    )
    def test_bad_input_exit_two_before_any_fit(self, args, capsys, monkeypatch):
        monkeypatch.setattr(cli, "calibrate", lambda cfg: pytest.fail(f"{cfg.kind} fitted"))
        assert cli_main(["calibrate", *args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_every_fit_before_any_output(self, capsys, monkeypatch):
        fitted = []
        entry = KINDS["cyclic-transfer"]._replace(calibrate=lambda cfg: fitted.append(cfg.kind) or {"c_max": 1.0})
        monkeypatch.setitem(KINDS, "cyclic-transfer", entry)
        assert cli_main(["calibrate", "cyclic-transfer", "limsup"]) == 2
        assert fitted == ["cyclic-transfer"]
        assert capsys.readouterr() == ("", "config error: no free constant to calibrate for kind 'limsup'\n")

    def test_transfer_fit_that_constrains_nothing_prints_no_verdict(self, capsys):
        assert cli_main(["calibrate", "cyclic-transfer", "--seed", "0"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert captured.err == "" and lines[:3] == ["kind=cyclic-transfer", "c_max=inf", "constrained=False"]
        assert len(lines) == 4 and lines[-1].startswith("note: ")

    def test_every_fitted_kind_by_default(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        assert cli_main(["calibrate"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        kinds = [line for line in lines if line.startswith("kind=")]
        assert captured.err == "" and kinds == ["kind=cyclic-transfer", "kind=kronecker-search"]
        assert lines[-3:-1] == ["c_max=0.24179880711017174", "count=40000"]
        assert lines[-1].startswith("note: ")


class TestBudgetErrors:
    """Inputs whose work would exceed a hard budget end in one "budget
    error" line and exit 2, before the work is allocated."""

    CASES = {
        "xi_enumeration": (
            "kronecker-search",
            {"lambdas": "1.4142135623730951 1.7320508075688772 2.23606797749979", "betas": "0.25 0.75 0.5",
             "omega": "40"},
            "enumeration size (2*1648+1)^3",
        ),
        "walk": ("cyclic-transfer", {"ts_kind": "identity", "U": "1e9"}, "test sequence walk to 1e+09"),
        "grid": ("cyclic-transfer", {"ts_kind": "pow2", "U": "1e9"}, "grid of 127999999873 nodes"),
        "terms": ("cyclic-transfer", {"x": "100000000", "U": "2"}, "range [1, 100000000] of 100000000 terms"),
        "divergence": ("divergence", {"ladder": "1000000000000"}, "divergence scan size (2000000000000 + 1)*4"),
        "ou_covariance": ("decoupling", {"ou_n": "1000000"}, "covariance of dimension 1000000 "),
        "szego_covariance": ("szego", {"n": "1000000"}, "covariance of dimension 1000000 "),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_cli_exit_two_one_line(self, case, capsys, tmp_path, deadline):
        kind, overrides, message = self.CASES[case]
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(ini_with(kind, overrides))
        assert cli_main(["verify", kind, "-c", str(cfg), "--reps", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"budget error: [kind={kind} hash=") and captured.err.count("\n") == 1
        assert message in captured.err and "Traceback" not in captured.err
        assert captured.out == ""


class TestNamedDomainErrors:
    """Inputs outside a statement's domain end in one "domain error" line
    and exit 2, not in a traceback, a complex bound or a warning: the free
    constant C is positive, a rational companion needs N*L inside the float
    range, a vanishing beta needs an infinite omega, lattice, limsup and
    divergence phases need fractional bits, a lattice correlation needs a
    positive step a and at least one point, a density's mass is finite and
    positive, a coefficient power sum is a finite float, explicit
    coefficients and frequencies come in lists of one length, divergence
    rungs are at least 1, a limsup target fraction lies in (0, 1] and a
    divergence growth is positive (S_J never decreases), a transfer grid
    has at least one node per unit,
    the OU covariance is large enough for its row sum to reach the limit
    within the row's tolerance, a transfer test sequence is one a config
    can build, the eta = 1 moderate-deviation statement needs a V that no
    config sets, and a zero A(x) names its cause: an empty transfer range,
    or divergence or lattice-correlation coefficients whose squares
    underflow."""

    THREE = {"lambdas": "1.4142135623730951 1.7320508075688772 2.23606797749979", "betas": "0.25 0.75 0.5",
             "omega": "5", "t_hi": "10000"}
    CASES = {
        "pow2_denominator": ("cyclic-transfer", {"x": "1100"}, "N*L is not a finite float"),
        "freq_step": ("cyclic-transfer", {"freq_step": "1e300"}, "N*L is not a finite float"),
        "transfer_C": ("cyclic-transfer", {"C": "-1e300"}, "free constant C=-1e+300 must be positive"),
        "moderate_C": ("moderate-trig", {"C": "-1e300"}, "free constant C=-1e+300 must be positive"),
        "moderate_eta_one": ("moderate-trig", {"eta": "1"}, "eta=1: the eta = 1 statement needs a V with 0 < V < A"),
        "count_C": ("kronecker-search", dict(THREE, C="-1e300"), "free constant C=-1e+300 must be positive"),
        "count_C_complex": ("kronecker-search", dict(THREE, C="-1"), "free constant C=-1.0 must be positive"),
        "beta_zero": ("lattice-correlation", {"beta": "0"}, "12 pi / (c (pi beta)^2) = inf"),
        "beta_tiny": ("lattice-correlation", {"beta": "1e-300"}, "12 pi / (c (pi beta)^2) = inf"),
        "beta_tiny_negative": ("lattice-correlation", {"beta": "-1e-300"}, "12 pi / (c (pi beta)^2) = inf"),
        "huge_step": ("lattice-correlation", {"a": "1e300"}, "leave a float no fractional bits"),
        "correlation_step_zero": ("lattice-correlation", {"a": "0"}, "step a=0.0 must be positive"),
        "correlation_step_negative": ("lattice-correlation", {"a": "-1"}, "step a=-1.0 must be positive"),
        "correlation_no_points": ("lattice-correlation", {"max_points": "0"}, "max_points=0 must be at least 1"),
        "correlation_negative_points": ("lattice-correlation", {"max_points": "-3"}, "max_points=-3 must be at least 1"),
        "limsup_start_past_int64": ("limsup", {"start": "9223372036854775807"}, "leave a float no fractional bits"),
        "limsup_phase_past_2_52": ("limsup", {"start": "9007199254740993"}, "leave a float no fractional bits"),
        "limsup_progression_past_int64": (
            "limsup", {"lambdas": "0 0 0", "start": "9223372036854775807"}, "progression leaves int64 arithmetic"
        ),
        "divergence_huge_step": ("divergence", {"a": "1e300"}, "leave a float no fractional bits"),
        "limsup_target_negative": ("limsup", {"target_frac": "-1"}, "target_frac=-1.0 outside (0, 1]"),
        "limsup_target_past_one": ("limsup", {"target_frac": "1.5"}, "target_frac=1.5 outside (0, 1]"),
        "divergence_growth_negative": ("divergence", {"growth": "-1"}, "growth=-1.0 must be positive"),
        "divergence_growth_zero": ("divergence", {"growth": "0"}, "growth=0.0 must be positive"),
        "szego_zero_mass": ("szego", {"root_coeffs": "0", "floor": "0"}, "mass sum c_j^2 + floor = 0.0 is not"),
        "szego_mass_overflow": ("szego", {"root_coeffs": "1e300 1e300"}, "mass sum c_j^2 + floor = inf is not"),
        "divergence_power_sum": ("divergence", {"coeffs": "1e300 1e300 1 1"}, "sum of a_k^2 over [1, 4] is inf"),
        "correlation_power_sum": ("lattice-correlation", {"coeffs": "1e300 1e300"}, "sum of a_k^2 over [1, 2] is inf"),
        "divergence_lengths": ("divergence", {"coeffs": "1 0.8 0.6"}, "3 coefficients for 4 frequencies"),
        "correlation_lengths": ("lattice-correlation", {"coeffs": "1 0.8 0.6"}, "3 coefficients for 2 frequencies"),
        "divergence_rung_zero": ("divergence", {"ladder": "0 100"}, "ladder rung J=0 must be at least 1"),
        "divergence_ladder_empty": ("divergence", {"ladder": ""}, "J ladder is empty"),
        "transfer_grid_empty": ("cyclic-transfer", {"grid_per_unit": "0"}, "per_unit=0 must be at least 1"),
        "transfer_grid_negative": ("cyclic-transfer", {"grid_per_unit": "-5"}, "per_unit=-5 must be at least 1"),
        "ou_row_sum_short": ("decoupling", {"ou_n": "33"}, "ou_n=33 leaves the OU row sum more than 0.001 below"),
        "transfer_empty_range": ("cyclic-transfer", {"y": "5", "x": "4"}, "over [5, 4] is 0: the range is empty"),
        "divergence_underflow": (
            "divergence", {"coeffs": "1e-200 1e-200 1e-200 1e-200"}, "over [1, 4] is 0: the coefficients are nonzero"
        ),
        "correlation_underflow": (
            "lattice-correlation",
            {"coeffs": "1e-200 1e-200"},
            "A(x) = sum of a_k^2 over [1, 2] is 0: the coefficients are nonzero, so their squares underflow",
        ),
        # a config sets no floor_value, so N_k = max(k, 1) would silently be identity
        "transfer_ts_floor": (
            "cyclic-transfer", {"ts_kind": "floor"}, "ts_kind='floor': a config can build 'pow2' or 'identity'"
        ),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", CASES)
    def test_cli_exit_two_one_line(self, case, capsys, tmp_path, deadline):
        kind, overrides, message = self.CASES[case]
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(ini_with(kind, overrides))
        assert cli_main(["verify", kind, "-c", str(cfg), "--reps", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("domain error: ") and captured.err.count("\n") == 1
        assert message in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "kind, overrides, shown",
        [
            # 1/N_k^2 underflows past k = 537 instead of overflowing at k = 512
            ("cyclic-transfer", {"x": "600"}, "delta: bound=6.28148"),
            # both count bounds read inf past the float range
            ("kronecker-search", dict(THREE, C="1e300"), "count_lower_iii: bound=inf"),
            # the smallest OU covariance whose row sum reaches the limit within 1e-3
            ("decoupling", {"ou_n": "34"}, "ou_decoupling_constant: mc=4.08216 bound=4.08299 margin=0.000169241 PASS"),
            # the companion of a range that starts past k = 1
            ("cyclic-transfer", {"y": "2"}, "delta: bound=4.05848"),
        ],
    )
    def test_cli_ends_in_a_record(self, kind, overrides, shown, capsys, tmp_path, deadline):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(ini_with(kind, overrides))
        assert cli_main(["verify", kind, "-c", str(cfg), "--reps", "50"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and shown in captured.out


def _extreme_cases():
    """(kind, param, value): each float param at +-1e300, +-1e-300 and 0,
    each int param at -1, 0 and 2^40, each float-list param at (1e300,
    1e300), (0,) and (), each int-list param (the divergence ladder) at
    (0,), and pow2 cyclic-transfer at x = 600."""
    values = {
        "float": (-1e300, -1e-300, 0.0, 1e-300, 1e300),
        "int": (-1, 0, 2**40),
        "list_float": ((1e300, 1e300), (0.0,), ()),
        "list_int": ((0,),),
    }
    cases = [
        (kind, name, value)
        for kind, entry in KINDS.items()
        for name, (tname, _, _) in entry.params.items()
        for value in values.get(tname, ())
    ]
    return cases + [("cyclic-transfer", "x", 600)]


# scan sizes shrunk so the sweep stays fast; lattice-correlation keeps its
# default scan, where a vanishing beta is reached
_SWEEP_SIZES = {"kronecker-search": {"t_hi": 1e4}, "limsup": {"max_terms": 1000}, "divergence": {"ladder": (100, 1000)}}


@pytest.mark.parametrize("kind, name, value", _extreme_cases(), ids=str)
def test_extreme_values_end_in_a_record_or_a_named_error(kind, name, value, deadline):
    """One parameter at a time at the edges of its type: a run ends in a
    record whose numbers are floats and not NaN, or in a package error (exit
    2 or 3 from the CLI), never in another exception."""
    base = default_config(kind)
    params = dict(base.params, **_SWEEP_SIZES.get(kind, {}))
    params[name] = value
    try:
        record = run_experiment(ExperimentConfig(kind=kind, params=params, seed=1, reps=min(base.reps, 200)))
    except SupdevError:
        return
    for row in record.checks:
        for number in (row.x, row.mc, row.mc_lo, row.mc_hi, row.bound, row.margin):
            assert number is None or (type(number) is float and not math.isnan(number)), (row.name, number)


class TestProductBoundsBeyondFloat:
    """Product-bound configs whose displayed form overflows or divides by
    zero end in a record: the bound is evaluated in logs, and one past the
    float range reads inf (a vacuous pass)."""

    CASES = {
        "equicorrelated": ("equicorrelated", {"n": "300", "lam": "0.3", "theta": "2.0"}, "bound=3.61514e+245"),
        "block": ("block", {"blocks": "400", "block_size": "4", "u": "0.5", "lam": "0.1"}, "bound=inf"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_cli_ends_in_a_record(self, case, capsys, tmp_path, deadline):
        kind, overrides, bound = self.CASES[case]
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(ini_with(kind, overrides))
        assert cli_main(["verify", kind, "-c", str(cfg), "--reps", "50"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert bound in captured.out and captured.out.splitlines()[-1] == "overall: PASS - 1 passed, 0 failed"
