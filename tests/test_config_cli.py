"""Config builders and the command-line surface.

CLI commands run in-process through cli.main so exit codes, artifacts, and
precedence rules are all checked against real files under tmp_path.
"""

import argparse
import filecmp
import json
import os
import pathlib
import re

import numpy as np
import pytest

from idcoverage import cli, config as cfg, corr, levy, rng as rngmod


# -- config builders ---------------------------------------------------------

class TestLawFromConfig:
    def test_poisson(self):
        law = cfg.law_from_config({"kind": "poisson", "rate": 2.0})
        assert law.eval(np.pi) == pytest.approx(2.0 * (np.exp(1j * np.pi) - 1))

    def test_gaussian_defaults_beta(self):
        law = cfg.law_from_config({"kind": "gaussian", "sigma2": 4.0})
        assert law.eval(1.0) == pytest.approx(-2.0)

    def test_compound_poisson_nested_mark(self):
        law = cfg.law_from_config({
            "kind": "compound_poisson", "rate": 3.0,
            "mark": {"kind": "point_mass", "value": 2.0}})
        assert law.eval(0.5) == pytest.approx(3.0 * (np.exp(1j) - 1))

    def test_gamma(self):
        law = cfg.law_from_config({"kind": "gamma"})
        assert law.eval(1.0) == pytest.approx(complex(-0.5 * np.log(2), np.pi / 4))

    def test_spectrally_positive(self):
        law = cfg.law_from_config({
            "kind": "spectrally_positive", "measure": {"kind": "reciprocal", "b": 0.5}})
        assert law.mean() == pytest.approx(1 / np.log(2))

    def test_bad_kind_names_field(self):
        with pytest.raises(cfg.ConfigError, match=r"law\.kind"):
            cfg.law_from_config({"kind": "bogus"})

    def test_missing_required_names_field(self):
        with pytest.raises(cfg.ConfigError, match=r"law\.rate"):
            cfg.law_from_config({"kind": "poisson"})

    def test_nested_mark_path(self):
        with pytest.raises(cfg.ConfigError, match=r"law\.mark\.kind"):
            cfg.law_from_config({"kind": "compound_poisson", "rate": 1.0,
                                 "mark": {"kind": "nope"}})

    def test_domain_error_carries_path(self):
        with pytest.raises(cfg.ConfigError, match="law"):
            cfg.law_from_config({"kind": "poisson", "rate": -1.0})

    def test_unknown_field_refused(self):
        with pytest.raises(cfg.ConfigError, match=r"law\.trunc_esp: unknown field"):
            cfg.law_from_config({"kind": "spectrally_positive",
                                 "measure": {"kind": "reciprocal", "b": 0.5},
                                 "trunc_esp": 1e-3})
        with pytest.raises(cfg.ConfigError, match=r"law\.mark\.mean: unknown field"):
            cfg.law_from_config({"kind": "compound_poisson", "rate": 1.0,
                                 "mark": {"kind": "point_mass", "value": 1.0, "mean": 2.0}})
        with pytest.raises(cfg.ConfigError, match=r"law\.sigma2: unknown field"):
            cfg.law_from_config({"kind": "gamma", "sigma2": 1.0})

    def test_trunc_eps_and_normal_mark_default(self):
        law = cfg.law_from_config({"kind": "spectrally_positive",
                                   "measure": {"kind": "reciprocal", "b": 0.5},
                                   "trunc_eps": 1e-3})
        assert law.truncation_info()["eps"] == 1e-3
        mark = cfg.mark_from_config({"kind": "normal", "variance": 4.0})
        assert mark.moment(1) == 0.0


class TestOtherBuilders:
    def test_service(self):
        svc = cfg.service_from_config({"kind": "exponential", "rate": 2.0})
        assert svc.mean() == pytest.approx(0.5)

    def test_structure_mixture_and_paths(self):
        h = cfg.structure_from_config({
            "kind": "mixture",
            "components": [
                {"weight": 0.5, "structure": {"kind": "exponential", "mu": 1.0}},
                {"weight": 0.5, "structure": {"kind": "power", "alpha": 0.5}}]})
        assert h.eval(1.0) == pytest.approx(0.5 * (1 - np.exp(-1)) + 0.5)
        with pytest.raises(cfg.ConfigError, match=r"components\[1\]\.structure"):
            cfg.structure_from_config({
                "kind": "mixture",
                "components": [
                    {"weight": 1.0, "structure": {"kind": "power", "alpha": 0.5}},
                    {"weight": 1.0, "structure": {"kind": "power", "alpha": 7.0}}]})

    def test_integrated_tail_structure(self):
        h = cfg.structure_from_config({
            "kind": "integrated_tail",
            "service": {"kind": "deterministic", "value": 2.0}})
        assert h.eval(1.0) == pytest.approx(0.5)

    def test_array_power_and_explicit(self):
        spec = cfg.array_from_config(
            {"kind": "power_example", "mu": 1.0, "alpha": 0.5, "b": 0.5})
        lam, r = spec.row(4)
        assert lam[0] == pytest.approx(0.5)
        spec2 = cfg.array_from_config(
            {"kind": "explicit", "mu": 2.0, "rows": {"2": [[0.1, 1.0], [0.2, 0.5]]}})
        lam2, r2 = spec2.row(2)
        np.testing.assert_allclose(lam2, [0.1, 0.2])

    def test_grid(self):
        grid = cfg.grid_from_config([0.0, 1.0, 2.5])
        assert isinstance(grid, corr.TimeGrid)
        with pytest.raises(cfg.ConfigError):
            cfg.grid_from_config([])

    def test_thetas_explicit_and_product(self):
        arr = cfg.thetas_from_config({"thetas": [[1.0, 2.0], [0.5, -1.0]]}, 2)
        assert arr.shape == (2, 2)
        arr = cfg.thetas_from_config({"thetas": [1.0, -1.0]}, 1)
        assert arr.shape == (2, 1)
        arr = cfg.thetas_from_config({"theta_grid": [-1.0, 1.0]}, 3)
        assert arr.shape == (8, 3)
        with pytest.raises(cfg.ConfigError, match="length 2"):
            cfg.thetas_from_config({"thetas": [[1.0, 2.0, 3.0]]}, 2)

    @pytest.mark.parametrize("bad", [[], 1.0, "ab"])
    def test_malformed_theta_grid_names_field(self, bad):
        with pytest.raises(cfg.ConfigError, match="theta_grid"):
            cfg.thetas_from_config({"theta_grid": bad}, 2)

    @pytest.mark.parametrize("rows", [[[0.1, 1.0]], {"2": 5}, {"x": [[0.1, 1.0]]}])
    def test_malformed_rows_raise_config_error(self, rows):
        with pytest.raises(cfg.ConfigError, match=r"array\.rows"):
            cfg.array_from_config({"kind": "explicit", "mu": 1.0, "rows": rows})


def _readme_json_blocks():
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [json.loads(b) for b in re.findall(r"```json\n(.*?)```", text, re.S)]


@pytest.mark.parametrize("conf", _readme_json_blocks())
def test_readme_json_blocks_build(conf):
    assert set(conf) <= cli._FIELDS, sorted(set(conf) - cli._FIELDS)
    builders = {"law": cfg.law_from_config, "structure": cfg.structure_from_config,
                "service": cfg.service_from_config, "marks": cfg.mark_from_config,
                "measure": cfg.measure_from_config, "array": cfg.array_from_config}
    built = [builders[key](conf[key], key) for key in builders if key in conf]
    if "grid" in conf:
        built.append(cfg.grid_from_config(conf["grid"]))
        if "thetas" in conf or "theta_grid" in conf:
            built.append(cfg.thetas_from_config(conf, len(conf["grid"])))
    assert built


# -- CLI ---------------------------------------------------------------------

def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


FILE_FLAGS = {"--config", "--out", "--force"}
ALL_FLAGS = FILE_FLAGS | {"--seed", "--reps", "--threads"}
COMMAND_FLAGS = {
    "cf-eval": FILE_FLAGS, "check-array": FILE_FLAGS,
    "sample": ALL_FLAGS, "simulate-coverage": ALL_FLAGS,
    "simulate-onoff": ALL_FLAGS, "convergence": ALL_FLAGS,
    "verify": {"--seed", "--threads"},
}


def test_each_command_takes_only_the_flags_it_reads():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: {opt for action in p._actions for opt in action.option_strings
                    if opt != "--help" and opt.startswith("--")}
             for name, p in sub.choices.items()}
    assert flags == COMMAND_FLAGS
    assert sum(len(v) for v in flags.values()) == 32


@pytest.mark.parametrize("command, flag", [
    ("cf-eval", "--threads"), ("cf-eval", "--seed"), ("cf-eval", "--reps"),
    ("check-array", "--threads"), ("check-array", "--seed"), ("check-array", "--reps"),
    ("verify", "--out"), ("verify", "--config"),
])
def test_unread_flag_is_usage_error(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


SAMPLE_CONF = {
    "law": {"kind": "poisson", "rate": 2.0},
    "structure": {"kind": "exponential", "mu": 1.0},
    "grid": [0.0, 1.0],
    "reps": 300,
    "seed": 7,
}


class TestCfEval:
    def test_poisson_at_pi_prints_minus_two(self, tmp_path, capsys):
        conf = write_config(tmp_path, "c.json", {
            "law": {"kind": "poisson", "rate": 1.0},
            "structure": {"kind": "exponential", "mu": 1.0},
            "grid": [0.0],
            "thetas": [[np.pi]],
        })
        assert cli.main(["cf-eval", "--config", conf]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out[0]["re"] == pytest.approx(-2.0, abs=1e-12)
        assert out[0]["im"] == pytest.approx(0.0, abs=1e-12)

    def test_out_file(self, tmp_path):
        conf = write_config(tmp_path, "c.json", {
            "law": {"kind": "gaussian", "sigma2": 1.0},
            "structure": {"kind": "power", "alpha": 0.5},
            "grid": [0.0, 1.0],
            "theta_grid": [-1.0, 1.0],
        })
        out = str(tmp_path / "cf.json")
        assert cli.main(["cf-eval", "--config", conf, "--out", out]) == 0
        data = json.loads(open(out).read())
        assert len(data) == 4
        assert set(data[0]) == {"theta", "re", "im"}

    def test_config_error_exit_code(self, tmp_path, capsys):
        conf = write_config(tmp_path, "c.json", {"law": {"kind": "bogus"}})
        assert cli.main(["cf-eval", "--config", conf]) == 2
        assert "law.kind" in capsys.readouterr().err

    @pytest.mark.parametrize("conf, path", [
        ({"law": {"kind": "poisson", "rate": "2"},
          "structure": {"kind": "exponential", "mu": 1.0}}, "law"),
        ({"law": {"kind": "poisson", "rate": 1.0},
          "structure": {"kind": "mixture", "components": [1.0]}}, "structure.components[0]"),
    ])
    def test_wrong_json_type_exit_code(self, tmp_path, capsys, conf, path):
        conf = write_config(tmp_path, "c.json", dict(conf, grid=[0.0], thetas=[[1.0]]))
        assert cli.main(["cf-eval", "--config", conf]) == 2
        assert f"{path}: " in capsys.readouterr().err

    def test_missing_config(self, capsys):
        assert cli.main(["cf-eval"]) == 2
        assert "config" in capsys.readouterr().err

    def test_empty_theta_grid_exit_code(self, tmp_path, capsys):
        conf = write_config(tmp_path, "c.json", {
            "law": {"kind": "gamma"},
            "structure": {"kind": "power", "alpha": 0.5},
            "grid": [0.0, 1.0],
            "theta_grid": [],
        })
        assert cli.main(["cf-eval", "--config", conf]) == 2
        assert "theta_grid" in capsys.readouterr().err


def _sampler_calls(monkeypatch):
    """The list of run_batched calls, which from now on sample nothing."""
    calls = []
    monkeypatch.setattr(rngmod, "run_batched", lambda *a, **k: calls.append(a))
    return calls


def _refuses_before_sampling(monkeypatch, capsys, command, conf, out):
    """An existing --out without --force exits 2 without running the sampler
    and leaves the file as it was."""
    calls = _sampler_calls(monkeypatch)
    out.write_text("keep me\n")
    assert cli.main([command, "--config", conf, "--out", str(out)]) == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert calls == []
    assert out.read_text() == "keep me\n"


@pytest.mark.parametrize("command, field, value", [
    ("sample", "reps", "abc"),
    ("sample", "reps", 2.5),
    ("sample", "seed", "abc"),
    ("sample", "seed", -1),
    ("simulate-onoff", "n", "abc"),
    ("simulate-onoff", "n", True),
])
def test_wrong_integer_field_refused_before_sampling(tmp_path, monkeypatch, capsys,
                                                     command, field, value):
    calls = _sampler_calls(monkeypatch)
    base = SAMPLE_CONF if command == "sample" else TestSimulateOnoff.CONF
    conf = write_config(tmp_path, "c.json", dict(base, **{field: value}))
    out = str(tmp_path / "out.csv")
    assert cli.main([command, "--config", conf, "--out", out]) == 2
    assert f"config error: {field}: expected an integer" in capsys.readouterr().err
    assert calls == []
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize("flag", ["--seed", "--reps"])
def test_negative_flag_is_usage_error(tmp_path, monkeypatch, capsys, flag):
    calls = _sampler_calls(monkeypatch)
    conf = write_config(tmp_path, "c.json", SAMPLE_CONF)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", "--config", conf, "--out", str(tmp_path / "out.csv"), flag, "-1"])
    assert exc.value.code == 2
    assert f"argument {flag}: expected an integer >= 0, got -1" in capsys.readouterr().err
    assert calls == []


class TestSample:
    def test_writes_csv_with_header(self, tmp_path):
        conf = write_config(tmp_path, "c.json", SAMPLE_CONF)
        out = str(tmp_path / "draws.csv")
        assert cli.main(["sample", "--config", conf, "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "x1,x2"
        assert len(lines) == 1 + 300

    def test_overwrite_guard_and_force(self, tmp_path, capsys):
        conf = write_config(tmp_path, "c.json", dict(SAMPLE_CONF, reps=20))
        out = str(tmp_path / "draws.csv")
        assert cli.main(["sample", "--config", conf, "--out", out]) == 0
        assert cli.main(["sample", "--config", conf, "--out", out]) == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert cli.main(["sample", "--config", conf, "--out", out, "--force"]) == 0

    def test_flag_beats_config_seed(self, tmp_path):
        base = dict(SAMPLE_CONF, reps=50)
        conf0 = write_config(tmp_path, "c0.json", dict(base, seed=0))
        conf5 = write_config(tmp_path, "c5.json", dict(base, seed=5))
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        c = str(tmp_path / "c.csv")
        assert cli.main(["sample", "--config", conf0, "--out", a, "--seed", "5"]) == 0
        assert cli.main(["sample", "--config", conf5, "--out", b]) == 0
        assert cli.main(["sample", "--config", conf0, "--out", c]) == 0
        assert filecmp.cmp(a, b, shallow=False)
        assert not filecmp.cmp(a, c, shallow=False)

    def test_failed_csv_write_leaves_no_file(self, tmp_path, monkeypatch):
        def half_write(target, arr, **kwargs):
            fh = open(target, "w") if isinstance(target, str) else target
            fh.write("x1,x2\n")
            fh.flush()
            raise OSError("disk full")
        monkeypatch.setattr(np, "savetxt", half_write)
        conf = write_config(tmp_path, "c.json", dict(SAMPLE_CONF, reps=20))
        with pytest.raises(OSError, match="disk full"):
            cli.main(["sample", "--config", conf, "--out", str(tmp_path / "draws.csv")])
        assert os.listdir(tmp_path) == ["c.json"]

    def test_failed_json_write_leaves_no_file(self, tmp_path, monkeypatch):
        def half_dump(obj, fh, **kwargs):
            fh.write("[")
            fh.flush()
            raise OSError("disk full")
        monkeypatch.setattr(json, "dump", half_dump)
        path = str(tmp_path / "cf.json")
        with pytest.raises(OSError, match="disk full"):
            cli._write_json(path, [1.0], force=False)
        assert os.listdir(tmp_path) == []

    def test_existing_out_refused_before_sampling(self, tmp_path, monkeypatch, capsys):
        conf = write_config(tmp_path, "c.json", SAMPLE_CONF)
        _refuses_before_sampling(monkeypatch, capsys, "sample", conf, tmp_path / "draws.csv")

    def test_missing_reps_is_usage_error(self, tmp_path, capsys):
        conf = write_config(tmp_path, "c.json",
                            {k: v for k, v in SAMPLE_CONF.items() if k != "reps"})
        out = str(tmp_path / "draws.csv")
        assert cli.main(["sample", "--config", conf, "--out", out]) == 2
        assert "reps" in capsys.readouterr().err


class TestSimulateCoverage:
    def test_unmarked_integer_csv_and_report(self, tmp_path):
        conf = write_config(tmp_path, "c.json", {
            "arrival_rate": 1.0,
            "service": {"kind": "exponential", "rate": 1.0},
            "grid": [0.0, 1.0],
            "reps": 400,
            "seed": 3,
            "theta_grid": [-1.0, 1.0],
        })
        out = str(tmp_path / "counts.csv")
        assert cli.main(["simulate-coverage", "--config", conf, "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 401
        assert all(tok.lstrip("-").isdigit()
                   for tok in lines[1].split(","))
        report = json.loads(open(str(tmp_path / "counts.json")).read())
        assert report["rho"] == pytest.approx(1.0)
        assert set(report) >= {"grid", "estimates", "distances", "n_samples",
                               "epoch_means", "epoch_variances"}
        assert report["distances"]["sup"] <= 4 / np.sqrt(400) * 2

    def test_marked_float_csv(self, tmp_path):
        conf = write_config(tmp_path, "c.json", {
            "arrival_rate": 2.0,
            "service": {"kind": "deterministic", "value": 1.0},
            "marks": {"kind": "normal", "mean": 0.0, "variance": 1.0},
            "grid": [0.0],
            "reps": 50,
            "seed": 3,
        })
        out = str(tmp_path / "load.csv")
        assert cli.main(["simulate-coverage", "--config", conf, "--out", out]) == 0
        first = open(out).read().splitlines()[1]
        assert "." in first or "e" in first

    def test_existing_report_refused_before_sampling(self, tmp_path, capsys):
        conf = write_config(tmp_path, "c.json", {
            "arrival_rate": 1.0,
            "service": {"kind": "exponential", "rate": 1.0},
            "grid": [0.0, 1.0],
            "reps": 400,
            "seed": 3,
        })
        (tmp_path / "counts.json").write_text("{}")
        out = tmp_path / "counts.csv"
        assert cli.main(["simulate-coverage", "--config", conf, "--out", str(out)]) == 2
        assert "counts.json" in capsys.readouterr().err
        assert not out.exists()


    def test_wrong_theta_length_refused_before_sampling(self, tmp_path, capsys):
        conf = write_config(tmp_path, "c.json", {
            "arrival_rate": 1.0,
            "service": {"kind": "exponential", "rate": 1.0},
            "grid": [0.0, 1.0],
            "reps": 400,
            "seed": 3,
            "thetas": [[1.0, -1.0, 0.5]],
        })
        out = tmp_path / "counts.csv"
        assert cli.main(["simulate-coverage", "--config", conf, "--out", str(out)]) == 2
        assert "thetas" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("payload, message", [
        ({"arrival_rate": 1.0, "service": {"kind": "exponential", "rate": 1.0},
          "grid": [0.0, 1.0], "reps": 40, "theta_gird": [-1.0, 1.0]},
         "config error: theta_gird: unknown field"),
        ({"arrival_rate": 1.0, "service": {"kind": "exponential", "rate": 1.0},
          "grid": [0.0, 1.0], "reps": 40, "mu": 2.0},
         "config error: mu: unknown field"),
        ([{"arrival_rate": 1.0, "service": {"kind": "exponential", "rate": 1.0},
           "grid": [0.0, 1.0], "reps": 40}],
         "expected an object, got list"),
    ])
    def test_bad_top_level_refused_before_sampling(self, tmp_path, monkeypatch, capsys,
                                                   payload, message):
        calls = _sampler_calls(monkeypatch)
        conf = write_config(tmp_path, "c.json", payload)
        out = str(tmp_path / "counts.csv")
        assert cli.main(["simulate-coverage", "--config", conf, "--out", out]) == 2
        assert message in capsys.readouterr().err
        assert calls == []
        assert os.listdir(tmp_path) == ["c.json"]

    def test_default_theta_grid_capped_before_sampling(self, tmp_path, capsys):
        conf = write_config(tmp_path, "c.json", {
            "arrival_rate": 1.0,
            "service": {"kind": "exponential", "rate": 1.0},
            "grid": [float(k) for k in range(7)],
            "reps": 5,
            "seed": 3,
        })
        out = tmp_path / "counts.csv"
        assert cli.main(["simulate-coverage", "--config", conf, "--out", str(out)]) == 2
        assert "theta_grid" in capsys.readouterr().err
        assert not out.exists()

class TestSimulateOnoff:
    CONF = {
        "array": {"kind": "power_example", "mu": 1.0, "alpha": 0.5, "b": 0.5},
        "grid": [0.0, 1.0],
        "n": 50,
        "reps": 200,
        "seed": 11,
    }

    def test_shape(self, tmp_path):
        conf = write_config(tmp_path, "c.json", self.CONF)
        out = str(tmp_path / "rows.csv")
        assert cli.main(["simulate-onoff", "--config", conf, "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "x1,x2"
        assert len(lines) == 201

    def test_existing_out_refused_before_sampling(self, tmp_path, monkeypatch, capsys):
        conf = write_config(tmp_path, "c.json", self.CONF)
        _refuses_before_sampling(monkeypatch, capsys, "simulate-onoff", conf,
                                 tmp_path / "rows.csv")

    def test_thread_count_never_changes_bytes(self, tmp_path, monkeypatch):
        # shrink the batch so several batches actually run concurrently
        monkeypatch.setattr(rngmod, "DEFAULT_BATCH", 64)
        conf = write_config(tmp_path, "c.json", self.CONF)
        one = str(tmp_path / "one.csv")
        four = str(tmp_path / "four.csv")
        assert cli.main(["simulate-onoff", "--config", conf,
                         "--out", one, "--threads", "1"]) == 0
        assert cli.main(["simulate-onoff", "--config", conf,
                         "--out", four, "--threads", "4"]) == 0
        assert filecmp.cmp(one, four, shallow=False)


class TestCheckArrayAndConvergence:
    def test_check_array_report(self, tmp_path):
        conf = write_config(tmp_path, "c.json", {
            "array": {"kind": "power_example", "mu": 1.0, "alpha": 0.5, "b": 0.5},
            "measure": {"kind": "reciprocal", "b": 0.5},
            "n_list": [100, 1000, 10000],
        })
        out = str(tmp_path / "report.json")
        assert cli.main(["check-array", "--config", conf, "--out", out]) == 0
        report = json.loads(open(out).read())
        assert report["pass"] is True
        assert report["A3"]["pass"] is True

    def test_convergence_artifacts(self, tmp_path):
        conf = write_config(tmp_path, "c.json", {
            "array": {"kind": "power_example", "mu": 1.0, "alpha": 0.5, "b": 0.5},
            "measure": {"kind": "reciprocal", "b": 0.5},
            "grid": [0.0, 1.0],
            "n_list": [50, 200],
            "reps": 2000,
            "seed": 5,
            "theta_grid": [-1.0, 1.0],
        })
        out = str(tmp_path / "conv.json")
        assert cli.main(["convergence", "--config", conf, "--out", out]) == 0
        report = json.loads(open(out).read())
        assert [r["n"] for r in report["rows"]] == [50, 200]
        table = open(str(tmp_path / "conv.csv")).read().splitlines()
        assert table[0] == "n,sup,l2,analytic_bias"
        assert len(table) == 3

    @pytest.mark.parametrize("rtol, passes", [(0.02, True), (1e-9, False)])
    def test_convergence_honours_rtol_tail(self, tmp_path, rtol, passes):
        conf = write_config(tmp_path, "c.json", {
            "array": {"kind": "power_example", "mu": 1.0, "alpha": 0.5, "b": 0.5},
            "measure": {"kind": "reciprocal", "b": 0.5},
            "grid": [0.0, 1.0],
            "n_list": [100, 10000],
            "reps": 200,
            "seed": 5,
            "theta_grid": [-1.0, 1.0],
            "rtol_tail": rtol,
        })
        conv, check = tmp_path / "conv.json", tmp_path / "check.json"
        assert cli.main(["convergence", "--config", conf, "--out", str(conv)]) == 0
        assert cli.main(["check-array", "--config", conf, "--out", str(check)]) == 0
        conv_a4 = json.loads(conv.read_text())["assumptions"]["A4"]["pass"]
        assert conv_a4 is json.loads(check.read_text())["A4"]["pass"] is passes

    def test_existing_table_refused_before_study(self, tmp_path, capsys):
        conf = write_config(tmp_path, "c.json", {
            "array": {"kind": "power_example", "mu": 1.0, "alpha": 0.5, "b": 0.5},
            "measure": {"kind": "reciprocal", "b": 0.5},
            "grid": [0.0, 1.0],
            "n_list": [50],
            "reps": 200,
            "seed": 5,
            "theta_grid": [-1.0, 1.0],
        })
        (tmp_path / "conv.csv").write_text("n,sup,l2,analytic_bias\n")
        out = tmp_path / "conv.json"
        assert cli.main(["convergence", "--config", conf, "--out", str(out)]) == 2
        assert "conv.csv" in capsys.readouterr().err
        assert not out.exists()

class TestVerifyCommand:
    def test_exit_zero_and_pass_lines(self, capsys):
        assert cli.main(["verify", "--seed", "123"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l]
        assert all(l.startswith("PASS") for l in lines[:-1])
        assert "checks passed" in lines[-1]
