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
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from idcoverage import cli, config as cfg, corr, levy, onoff, rng as rngmod
from idcoverage.errors import PreconditionError


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
        # every law is sampled exactly, so no law takes a truncation
        with pytest.raises(cfg.ConfigError, match=r"^law\.trunc_eps: unknown field$"):
            cfg.law_from_config({"kind": "spectrally_positive",
                                 "measure": {"kind": "reciprocal", "b": 0.5},
                                 "trunc_eps": 1e-3})
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

    def test_product_theta_grid_cap(self):
        # 6^6 vectors, the default grid on six epochs, is the most a product
        # grid may hold; explicit vectors are not capped
        assert cfg.thetas_from_config({"theta_grid": [-1.0, 1.0, 2.0] * 2}, 6).shape \
            == (6**6, 6)
        with pytest.raises(cfg.ConfigError, match="theta_grid: .* 117,649 theta vectors"):
            cfg.thetas_from_config({"theta_grid": [[1.0]] + [list(range(7))] * 6}, 7)
        many = np.zeros((6**6 + 1, 1)).tolist()
        assert cfg.thetas_from_config({"thetas": many}, 1).shape == (6**6 + 1, 1)

    @pytest.mark.parametrize("bad", [[], 1.0, "ab"])
    def test_malformed_theta_grid_names_field(self, bad):
        with pytest.raises(cfg.ConfigError, match="theta_grid"):
            cfg.thetas_from_config({"theta_grid": bad}, 2)

    @pytest.mark.parametrize("rows", [[[0.1, 1.0]], {"2": 5}, {"x": [[0.1, 1.0]]}])
    def test_malformed_rows_raise_config_error(self, rows):
        with pytest.raises(cfg.ConfigError, match=r"array\.rows"):
            cfg.array_from_config({"kind": "explicit", "mu": 1.0, "rows": rows})


# every numeric field of every family kind: (family, a valid object, the keys
# down to the field, the object path and constructor parameter the error names)
NUMERIC_FIELDS = [
    ("law", {"kind": "gaussian", "beta": 0.5, "sigma2": 1.0}, ("beta",), "law: beta"),
    ("law", {"kind": "gaussian", "sigma2": 1.0}, ("sigma2",), "law: sigma2"),
    ("law", {"kind": "poisson", "rate": 1.0}, ("rate",), "law: rate"),
    ("law", {"kind": "compound_poisson", "rate": 1.0,
             "mark": {"kind": "point_mass", "value": 1.0}}, ("rate",), "law: rate"),
    ("mark", {"kind": "point_mass", "value": 1.0}, ("value",), "marks: value"),
    ("mark", {"kind": "discrete", "values": [1.0, 2.0], "probs": [0.5, 0.5]},
     ("values", 0), "marks: values"),
    ("mark", {"kind": "discrete", "values": [1.0, 2.0], "probs": [0.5, 0.5]},
     ("probs", 1), "marks: probs"),
    ("mark", {"kind": "normal", "mean": 0.5, "variance": 1.0}, ("mean",), "marks: mean"),
    ("mark", {"kind": "normal", "variance": 1.0}, ("variance",), "marks: variance"),
    ("measure", {"kind": "atomic", "locations": [0.5, 2.0], "masses": [1.0, 0.25]},
     ("locations", 1), "measure: locations"),
    ("measure", {"kind": "atomic", "locations": [0.5, 2.0], "masses": [1.0, 0.25]},
     ("masses", 0), "measure: masses"),
    ("measure", {"kind": "reciprocal", "b": 0.5}, ("b",), "measure: b"),
    ("service", {"kind": "exponential", "rate": 1.0}, ("rate",), "service: rate"),
    ("service", {"kind": "deterministic", "value": 1.0}, ("value",), "service: value"),
    ("service", {"kind": "pareto_truncated", "shape": 3.0, "scale": 1.0},
     ("shape",), "service: shape"),
    ("service", {"kind": "pareto_truncated", "shape": 3.0, "scale": 1.0},
     ("scale",), "service: scale"),
    ("service", {"kind": "discrete", "values": [1.0, 2.0], "probs": [0.5, 0.5]},
     ("values", 1), "service: values"),
    ("service", {"kind": "discrete", "values": [1.0, 2.0], "probs": [0.5, 0.5]},
     ("probs", 0), "service: probs"),
    ("structure", {"kind": "exponential", "mu": 1.0}, ("mu",), "structure: mu"),
    ("structure", {"kind": "power", "alpha": 0.5}, ("alpha",), "structure: alpha"),
    ("structure", {"kind": "mixture", "components": [
        {"weight": 0.5, "structure": {"kind": "power", "alpha": 0.5}},
        {"weight": 0.5, "structure": {"kind": "exponential", "mu": 1.0}}]},
     ("components", 1, "weight"), "structure: weight"),
    ("array", {"kind": "power_example", "mu": 1.0, "alpha": 0.5, "b": 0.5},
     ("mu",), "array: mu"),
    ("array", {"kind": "power_example", "mu": 1.0, "alpha": 0.5, "b": 0.5},
     ("alpha",), "array: alpha"),
    ("array", {"kind": "power_example", "mu": 1.0, "alpha": 0.5, "b": 0.5},
     ("b",), "array: b"),
    ("array", {"kind": "explicit", "mu": 1.0, "rows": {"2": [[0.1, 1.0], [0.2, 0.5]]}},
     ("mu",), "array: mu"),
    ("array", {"kind": "explicit", "mu": 1.0, "rows": {"2": [[0.1, 1.0], [0.2, 0.5]]}},
     ("rows", "2", 1, 0), "array: lam"),
    ("array", {"kind": "explicit", "mu": 1.0, "rows": {"2": [[0.1, 1.0], [0.2, 0.5]]}},
     ("rows", "2", 0, 1), "array: r"),
]
# JSON's NaN, Infinity, -Infinity, true, "1" and null
NON_NUMBERS = [float("nan"), float("inf"), float("-inf"), True, "1", None]


@pytest.mark.parametrize("value", NON_NUMBERS, ids=repr)
@pytest.mark.parametrize("family, valid, keys, named", NUMERIC_FIELDS,
                         ids=[".".join(map(str, (family, valid["kind"]) + keys))
                              for family, valid, keys, _ in NUMERIC_FIELDS])
def test_every_numeric_field_is_a_finite_number(family, valid, keys, named, value):
    conf = json.loads(json.dumps(valid))
    path = named.split(":")[0]
    assert cfg._build(family, conf, path) is not None
    inner = conf
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    with pytest.raises(cfg.ConfigError) as info:
        cfg._build(family, conf, path)
    assert str(info.value).startswith(named)
    assert isinstance(info.value.__cause__, PreconditionError)


def test_range_boundaries_build():
    assert cfg.law_from_config({"kind": "poisson", "rate": 0}).rate == 0.0
    assert cfg.law_from_config({"kind": "gaussian", "sigma2": 0.0}).sigma2 == 0.0
    assert cfg.mark_from_config({"kind": "normal", "variance": 0}).moment(2) == 0.0
    assert cfg.structure_from_config({"kind": "power", "alpha": 1}).alpha == 1.0


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_json_blocks():
    text = README.read_text()
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


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    ns = {}
    exec(compile(blocks[0], "README.md", "exec"), ns)
    np.testing.assert_allclose(ns["draws"].mean(axis=0), 2.0, atol=0.05)
    assert ns["counts"].shape == (50_000, 3)
    assert ns["rows"].shape == (20_000, 3)


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


NONFINITE_THETAS = [
    ("thetas", [[float("nan"), 1.0]]),
    ("thetas", [[1.0, float("inf")]]),
    ("theta_grid", [-1.0, float("-inf")]),
    ("theta_grid", [[1.0], [float("nan")]]),
    # a bool or a numeric string is not a number either
    ("theta_grid", [1.0, True, "2"]),
    ("thetas", [["0.5", False]]),
]


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
        data = json.loads(pathlib.Path(out).read_text())
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

    @pytest.mark.parametrize("field, value", NONFINITE_THETAS)
    def test_nonfinite_theta_exit_code(self, tmp_path, capsys, field, value):
        conf = write_config(tmp_path, "c.json", {
            "law": {"kind": "poisson", "rate": 1.0},
            "structure": {"kind": "exponential", "mu": 1.0},
            "grid": [0.0, 1.0],
            field: value,
        })
        assert cli.main(["cf-eval", "--config", conf]) == 2
        captured = capsys.readouterr()
        assert f"config error: {field}: expected finite numbers" in captured.err
        assert captured.out == ""


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


@pytest.mark.parametrize("value", ["0", "-3"])
def test_threads_below_one_is_usage_error(tmp_path, monkeypatch, capsys, value):
    calls = _sampler_calls(monkeypatch)
    conf = write_config(tmp_path, "c.json", SAMPLE_CONF)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", "--config", conf, "--out", str(tmp_path / "out.csv"),
                  "--threads", value])
    assert exc.value.code == 2
    assert (f"argument --threads: expected an integer >= 1, got {value}"
            in capsys.readouterr().err)
    assert calls == []
    assert os.listdir(tmp_path) == ["c.json"]


class TestSample:
    def test_writes_csv_with_header(self, tmp_path):
        conf = write_config(tmp_path, "c.json", SAMPLE_CONF)
        out = str(tmp_path / "draws.csv")
        assert cli.main(["sample", "--config", conf, "--out", out]) == 0
        lines = pathlib.Path(out).read_text().splitlines()
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
        class HalfWritten:
            """A file whose second write, the first row block after the
            header, lands half and then fails."""
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def write(self, text):
                self.writes += 1
                if self.writes < 2:
                    return self.fh.write(text)
                self.fh.write(text[:len(text) // 2])
                self.fh.flush()
                raise OSError("disk full")

        monkeypatch.setattr(cli, "open", lambda *a, **k: HalfWritten(open(*a, **k)),
                            raising=False)
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


def _savetxt_reference(path, arr, header=None):
    """What _write_csv wrote through np.savetxt, row by row."""
    arr = np.atleast_2d(arr)
    if header is None:
        header = ",".join(f"x{k + 1}" for k in range(arr.shape[1]))
    np.savetxt(path, arr, delimiter=",", header=header, comments="",
               fmt="%d" if np.issubdtype(arr.dtype, np.integer) else "%.17g")


def _with_negatives(arr):
    return np.concatenate([arr, -arr])


def _exact_ties(rng, count=40):
    """Odd multiples of 2**(k - 17) in [10**k, 10**(k + 1)): times 10**(16 - k)
    they end in exactly one half, so their 17th digit is a tie.  k stops at
    14; above it they need more than 53 bits."""
    ties = [1 + 2.0**-17]
    for k in range(-4, 15):
        step = 2.0**(k - 17)
        odd = 2 * np.floor(rng.uniform(10.0**k, 10.0**(k + 1), count) / (2 * step)) + 1
        ties.extend(odd * step)
    return np.array(ties)[:, None]


_POW10 = np.array([float(f"1e{k}") for k in range(-320, 309)])
_CSV_CASES = {
    "int64 extremes": (np.array([[0, -1, 2**62], [-2**62, 7, -123456789]], dtype=np.int64),
                       None),
    # the edges of the float kernel's range, exact ties, and values it leaves to Python
    "powers of ten and neighbours": (_with_negatives(np.stack(
        [_POW10, np.nextafter(_POW10, 0), np.nextafter(_POW10, np.inf)], axis=1)), None),
    "fixed-notation edges": (_with_negatives(np.array([
        [1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1)],
        [1e17, np.nextafter(1e17, 0), np.nextafter(1e17, np.inf)]])), None),
    "1e17 - 8j": (_with_negatives(99999999999999999.0 - 8 * np.arange(64.0))[:, None], None),
    "exact ties": (_with_negatives(_exact_ties(np.random.default_rng(7))), None),
    "whole numbers": (_with_negatives(np.concatenate([
        np.arange(1.0, 2001.0),
        np.random.default_rng(8).integers(1, 2**53, size=2000).astype(float),
        np.random.default_rng(9).integers(2**53, 10**17, size=2000).astype(float)]))
        .reshape(-1, 4), None),
    "subnormals": (_with_negatives(np.random.default_rng(10).integers(
        1, 2**52, size=(1000, 3), dtype=np.uint64).view(np.float64)), None),
    "random bit patterns": (np.random.default_rng(11).integers(
        0, 2**64, size=(100_000, 2), dtype=np.uint64).view(np.float64), None),
    "normals scaled by 10**U{-30..30}": (
        np.random.default_rng(12).normal(size=(100_000, 2))
        * 10.0 ** np.random.default_rng(13).integers(-30, 31, size=(100_000, 2)), None),
    "float specials": (np.array([[-0.0, np.nan, np.inf], [-np.inf, 5e-324, 1e308]]), None),
    "no rows": (np.empty((0, 3)), None),
    "one column": (np.linspace(-1.0, 1.0, 7)[:, None] / 3.0, None),
    # a block holds _CSV_BLOCK_VALUES // width whole rows
    "block - 1 rows": (np.random.default_rng(1).normal(
        size=(cli._CSV_BLOCK_VALUES // 2 - 1, 2)), None),
    "block rows": (np.random.default_rng(2).integers(
        -50, 50, size=(cli._CSV_BLOCK_VALUES // 3, 3)), None),
    "block + 1 rows": (np.random.default_rng(3).normal(
        size=(cli._CSV_BLOCK_VALUES // 2 + 1, 2)), None),
    "rows wider than a block": (np.random.default_rng(5).normal(
        size=(3, cli._CSV_BLOCK_VALUES + 1)), None),
    # column-major, as CoverageProcess.sample returns its draws: in blocks,
    # and in one block that is the whole array
    "column-major floats": (np.asfortranarray(np.random.default_rng(15).normal(
        size=(cli._CSV_BLOCK_VALUES // 7 * 3 + 1, 7))), None),
    "column-major int64": (np.asfortranarray(np.random.default_rng(16).integers(
        -10**12, 10**12, size=(cli._CSV_BLOCK_VALUES // 5, 5))), None),
    "custom header": (np.random.default_rng(4).normal(size=(5, 4)), "n,sup,l2,analytic_bias"),
}


@pytest.mark.parametrize("case", list(_CSV_CASES))
def test_write_csv_matches_savetxt(tmp_path, case):
    arr, header = _CSV_CASES[case]
    out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
    cli._write_csv(str(out), arr, force=False, header=header)
    _savetxt_reference(str(ref), arr, header)
    assert out.read_bytes() == ref.read_bytes()


def test_float_csv_calls_python_only_outside_fixed_notation(tmp_path, monkeypatch):
    """The kernel writes every value whose '%.17g' is fixed notation, except
    exact ties; Python writes the others, one call each."""
    arr = np.random.default_rng(14).uniform(-1e3, 1e3, size=(2000, 5))
    specials = [0.0, -0.0, np.nan, -np.inf, 5e-5, -1e17, 1 + 2.0**-17]
    arr[::300, 2] = specials
    formatted = []
    python_text = cli._python_text
    monkeypatch.setattr(cli, "_python_text",
                        lambda values: formatted.extend(values) or python_text(values))
    out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
    cli._write_csv(str(out), arr, force=False)
    _savetxt_reference(str(ref), arr)
    assert out.read_bytes() == ref.read_bytes()
    assert sorted(map(repr, formatted)) == sorted(map(repr, specials))


def test_write_csv_memory_does_not_grow_with_width(tmp_path):
    """15,000 x 50 floats, row-major and column-major: the float kernel
    holds the temporaries of one block of at most _CSV_BLOCK_VALUES values,
    about 2 MB, not the text of the whole array (14 MB here) or a row-major
    copy of it (6 MB)."""
    arr = np.random.default_rng(6).normal(size=(15_000, 50))
    for layout in (arr, np.asfortranarray(arr)):
        tracemalloc.start()
        try:
            cli._write_csv(str(tmp_path / "wide.csv"), layout, force=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


_GRID4 = [0.0, 0.5, 1.0, 2.0]
_FIDI_GRID = [round(0.1 * k, 10) for k in range(50)]
# small-rep copies of the benchmark's four workload configs; the ON/OFF one
# also carries the row size simulate-onoff needs
_NO_SCIPY_CONFIGS = {
    "light_config.json": {
        "arrival_rate": 2.0, "service": {"kind": "exponential", "rate": 1.0},
        "grid": _GRID4, "reps": 300, "seed": 3},
    "heavy_config.json": {
        "arrival_rate": 1.0, "service": {"kind": "pareto_truncated", "shape": 4.0, "scale": 1.0},
        "grid": _GRID4, "theta_grid": [-1.0, 1.0], "reps": 300, "seed": 3},
    "fidi_config.json": {
        "law": {"kind": "gamma"}, "structure": {"kind": "power", "alpha": 0.5},
        "grid": _FIDI_GRID, "thetas": [[0.5] * 50, [-1.0] * 25 + [1.0] * 25],
        "reps": 50, "seed": 3},
    "onoff_config.json": {
        "array": {"kind": "power_example", "mu": 1.0, "alpha": 0.5, "b": 0.5},
        "measure": {"kind": "reciprocal", "b": 0.5}, "grid": [0.0, 1.0],
        "n_list": [100, 1000, 10000], "n": 1000, "reps": 200, "seed": 3},
}
_NO_SCIPY_RUNS = [
    ["cf-eval", "--config", "fidi_config.json", "--out", "cf.json"],
    ["sample", "--config", "fidi_config.json", "--out", "fidi.csv"],
    ["simulate-coverage", "--config", "light_config.json", "--out", "light.csv"],
    ["simulate-coverage", "--config", "heavy_config.json", "--out", "heavy.csv"],
    ["simulate-onoff", "--config", "onoff_config.json", "--out", "onoff.csv"],
    ["check-array", "--config", "onoff_config.json", "--out", "check.json"],
    ["convergence", "--config", "onoff_config.json", "--out", "conv.json"],
    ["verify"],
]
_NO_SCIPY_SCRIPT = """\
import json, sys


class NoScipy:
    \"\"\"Refuses, and records, every import of scipy or a submodule.\"\"\"
    tried = []

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            self.tried.append(name)
            raise ImportError(f"scipy is blocked: {name}")
        return None


sys.meta_path.insert(0, NoScipy())
from idcoverage.cli import main

codes = [main(args) for args in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "tried": NoScipy.tried}))
"""


def test_import_leaves_scipy_unloaded(tmp_path):
    """With every scipy import refused, the package imports, every command
    runs on the workload configs and writes its artifacts, and verify
    passes; no module even tries to import scipy."""
    for name, conf in _NO_SCIPY_CONFIGS.items():
        write_config(tmp_path, name, conf)
    res = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(_NO_SCIPY_RUNS)],
                         capture_output=True, text=True, env=_src_env(), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    summary = json.loads(res.stdout.splitlines()[-1])
    assert summary == {"codes": [0] * len(_NO_SCIPY_RUNS), "tried": []}, res.stderr
    written = {run[-1] for run in _NO_SCIPY_RUNS if "--out" in run}
    written |= {"light.json", "heavy.json", "conv.csv"}
    assert written <= set(os.listdir(tmp_path))
    assert "all 12 checks passed" in res.stdout


def test_import_leaves_thread_pool_unloaded():
    """Only a run with threads > 1 imports concurrent.futures."""
    code = ("import sys\n"
            "import idcoverage.cli\n"
            "assert 'concurrent.futures' not in sys.modules, 'idcoverage.cli'\n"
            "from idcoverage import rng\n"
            "rng.run_batched(lambda r, c: r.random(c), 4, 1, batch=2, threads=2)\n"
            "assert 'concurrent.futures' in sys.modules, 'threads=2'\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_src_env())
    assert res.returncode == 0, res.stderr


def test_reciprocal_measure_runs_leave_scipy_unloaded(tmp_path):
    """The reciprocal measure is closed-form: a convergence and a check-array
    run on it never import scipy."""
    conf = write_config(tmp_path, "c.json", {
        "array": {"kind": "power_example", "mu": 1.0, "alpha": 0.5, "b": 0.5},
        "measure": {"kind": "reciprocal", "b": 0.5},
        "grid": [0.0, 1.0],
        "n_list": [50, 200],
        "reps": 200,
        "seed": 5,
        "theta_grid": [-1.0, 1.0],
    })
    conv, check = str(tmp_path / "conv.json"), str(tmp_path / "check.json")
    code = ("import sys\n"
            "from idcoverage.cli import main\n"
            f"assert main(['convergence', '--config', {conf!r}, '--out', {conv!r}]) == 0\n"
            f"assert main(['check-array', '--config', {conf!r}, '--out', {check!r}]) == 0\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_src_env())
    assert res.returncode == 0, res.stderr
    assert [r["n"] for r in json.loads((tmp_path / "conv.json").read_text())["rows"]] == [50, 200]
    assert "A4" in json.loads((tmp_path / "check.json").read_text())


def _src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


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
        lines = pathlib.Path(out).read_text().splitlines()
        assert len(lines) == 401
        assert all(tok.lstrip("-").isdigit()
                   for tok in lines[1].split(","))
        report = json.loads((tmp_path / "counts.json").read_text())
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
        first = pathlib.Path(out).read_text().splitlines()[1]
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

    @pytest.mark.parametrize("reps, flag", [(0, False), (1, False), (0, True), (1, True)])
    def test_fewer_than_two_reps_refused_before_sampling(self, tmp_path, monkeypatch, capsys,
                                                         reps, flag):
        """The report's epoch variances need two rows; with fewer a run would
        write the CSV and then fail, or report NaN, which is not JSON."""
        calls = _sampler_calls(monkeypatch)
        conf = write_config(tmp_path, "c.json", {
            "arrival_rate": 1.0,
            "service": {"kind": "exponential", "rate": 1.0},
            "grid": [0.0, 1.0],
            "reps": 400 if flag else reps,
            "seed": 3,
        })
        argv = ["simulate-coverage", "--config", conf, "--out", str(tmp_path / "counts.csv")]
        assert cli.main(argv + (["--reps", str(reps)] if flag else [])) == 2
        assert "reps >= 2" in capsys.readouterr().err
        assert calls == []
        assert os.listdir(tmp_path) == ["c.json"]

    @pytest.mark.parametrize("field, value", NONFINITE_THETAS)
    def test_nonfinite_theta_refused_before_sampling(self, tmp_path, monkeypatch, capsys,
                                                     field, value):
        calls = _sampler_calls(monkeypatch)
        conf = write_config(tmp_path, "c.json", {
            "arrival_rate": 1.0,
            "service": {"kind": "exponential", "rate": 1.0},
            "grid": [0.0, 1.0],
            "reps": 400,
            field: value,
        })
        out = str(tmp_path / "counts.csv")
        assert cli.main(["simulate-coverage", "--config", conf, "--out", out]) == 2
        assert f"config error: {field}: expected finite numbers" in capsys.readouterr().err
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
        lines = pathlib.Path(out).read_text().splitlines()
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
        report = json.loads(pathlib.Path(out).read_text())
        assert report["pass"] is True
        assert report["A3"]["pass"] is True

    def test_check_array_one_row_leaves_a1_open(self, tmp_path):
        conf = write_config(tmp_path, "c.json", {
            "array": {"kind": "power_example", "mu": 1.0, "alpha": 0.5, "b": 0.5},
            "measure": {"kind": "reciprocal", "b": 0.5},
            "n_list": [10000],
        })
        out = str(tmp_path / "report.json")
        assert cli.main(["check-array", "--config", conf, "--out", out]) == 0
        report = json.loads(pathlib.Path(out).read_text())
        assert report["A1"]["pass"] is None
        assert "one row size" in report["A1"]["note"]
        assert all(report[k]["pass"] is True for k in ("A2", "A3", "A4", "A5", "A6"))
        assert report["pass"] is True

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
        report = json.loads(pathlib.Path(out).read_text())
        assert [r["n"] for r in report["rows"]] == [50, 200]
        table = (tmp_path / "conv.csv").read_text().splitlines()
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

    @pytest.mark.parametrize("flag", [False, True])
    def test_zero_reps_refused_before_study(self, tmp_path, monkeypatch, capsys, flag):
        calls = _sampler_calls(monkeypatch)
        monkeypatch.setattr(onoff, "convergence_study", lambda *a, **k: calls.append(a))
        conf = write_config(tmp_path, "c.json", dict(ASSUMPTION_CONF, reps=200 if flag else 0))
        argv = ["convergence", "--config", conf, "--out", str(tmp_path / "conv.json")]
        assert cli.main(argv + (["--reps", "0"] if flag else [])) == 2
        assert "convergence needs reps >= 1, got 0" in capsys.readouterr().err
        assert calls == []
        assert os.listdir(tmp_path) == ["c.json"]

ASSUMPTION_CONF = {
    "array": {"kind": "power_example", "mu": 1.0, "alpha": 0.5, "b": 0.5},
    "measure": {"kind": "reciprocal", "b": 0.5},
    "grid": [0.0, 1.0],
    "n_list": [50, 200],
    "reps": 200,
    "seed": 5,
    "theta_grid": [-1.0, 1.0],
}


@pytest.mark.parametrize("command", ["check-array", "convergence"])
@pytest.mark.parametrize("field, value", [
    ("n_list", ["abc", 100]), ("n_list", []), ("n_list", [0]),
    ("x_probe", "0.5"), ("eps_list", [None]), ("rtol_tail", "x"),
])
def test_bad_assumption_setting_refused_before_work(tmp_path, monkeypatch, capsys,
                                                    command, field, value):
    calls = _sampler_calls(monkeypatch)
    conf = write_config(tmp_path, "c.json", dict(ASSUMPTION_CONF, **{field: value}))
    out = str(tmp_path / "out.json")
    assert cli.main([command, "--config", conf, "--out", out]) == 2
    assert f"config error: {field}: expected" in capsys.readouterr().err
    assert calls == []
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize("array", [
    {"kind": "explicit", "mu": 1.0, "rows": {"2": [[float("nan"), 1.0], [0.2, 0.5]]}},
    {"kind": "power_example", "mu": float("inf"), "alpha": 0.5, "b": 0.5},
    {"kind": "explicit", "mu": 1.0, "rows": {"2": [[0.1], [0.2, 0.5]]}},
    {"kind": "explicit", "mu": 1.0, "rows": {"2": [[0.1, 1.0, 7.0], [0.2, 0.5]]}},
    {"kind": "explicit", "mu": 1.0, "rows": {"0": []}},
])
def test_bad_onoff_array_refused_before_sampling(tmp_path, monkeypatch, capsys, array):
    calls = _sampler_calls(monkeypatch)
    conf = write_config(tmp_path, "c.json", dict(TestSimulateOnoff.CONF, array=array, n=2))
    out = str(tmp_path / "rows.csv")
    assert cli.main(["simulate-onoff", "--config", conf, "--out", out]) == 2
    assert "config error: array: " in capsys.readouterr().err
    assert calls == []
    assert os.listdir(tmp_path) == ["c.json"]


def test_power_example_error_names_the_config_field(tmp_path, monkeypatch, capsys):
    """The spec calls the exponent alpha_exp; the config and its errors call it alpha."""
    calls = _sampler_calls(monkeypatch)
    array = {"kind": "power_example", "mu": 1.0, "alpha": 1.5, "b": 0.5}
    conf = write_config(tmp_path, "c.json", dict(TestSimulateOnoff.CONF, array=array, n=2))
    out = str(tmp_path / "rows.csv")
    assert cli.main(["simulate-onoff", "--config", conf, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "config error: array: alpha must be finite and in (0, 1), got 1.5" in err
    assert "alpha_exp" not in err
    assert calls == []
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize("command, field", [
    ("simulate-onoff", "n"), ("check-array", "n_list"), ("convergence", "n_list"),
])
def test_row_the_explicit_array_lacks_refused_before_work(tmp_path, monkeypatch, capsys,
                                                          command, field):
    """An explicit array builds only the rows it lists: asking for another
    exits 2 naming the field, before any row is drawn or checked."""
    calls = _sampler_calls(monkeypatch)
    for name in ("check_assumptions", "convergence_study"):
        monkeypatch.setattr(onoff, name, lambda *a, **k: calls.append(a))
    array = {"kind": "explicit", "mu": 1.0, "rows": {"2": [[0.1, 1.0], [0.2, 0.5]]}}
    conf = write_config(tmp_path, "c.json",
                        dict(ASSUMPTION_CONF, array=array, n=3, n_list=[2, 3]))
    out = str(tmp_path / ("rows.csv" if command == "simulate-onoff" else "out.json"))
    assert cli.main([command, "--config", conf, "--out", out]) == 2
    assert (f"config error: {field}: row 3 is not defined in the explicit array"
            in capsys.readouterr().err)
    assert calls == []
    assert os.listdir(tmp_path) == ["c.json"]


MM_CONF = {"arrival_rate": 1.0, "service": {"kind": "exponential", "rate": 1.0},
           "grid": [0.0, 1.0], "reps": 50, "seed": 1}
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, conf, named", [
    ("cf-eval", dict(SAMPLE_CONF, structure={"kind": "exponential", "mu": NAN}),
     "structure: mu"),
    ("cf-eval", dict(SAMPLE_CONF, structure={"kind": "mixture", "components": [
        {"weight": NAN, "structure": {"kind": "power", "alpha": 0.5}},
        {"weight": 0.5, "structure": {"kind": "exponential", "mu": 1.0}}]}),
     "structure: weight"),
    ("cf-eval", dict(SAMPLE_CONF, structure={"kind": "integrated_tail", "service": {
        "kind": "pareto_truncated", "shape": NAN, "scale": 1.0}}), "structure.service: shape"),
    ("cf-eval", dict(SAMPLE_CONF, law={"kind": "gaussian", "beta": NAN, "sigma2": 1.0}),
     "law: beta"),
    ("cf-eval", dict(SAMPLE_CONF, law={"kind": "gaussian", "sigma2": INF}), "law: sigma2"),
    ("cf-eval", dict(SAMPLE_CONF, structure={"kind": "power", "alpha": True}),
     "structure: alpha"),
    ("sample", dict(SAMPLE_CONF, law={"kind": "poisson", "rate": NAN}), "law: rate"),
    ("sample", dict(SAMPLE_CONF, law={"kind": "poisson", "rate": True}), "law: rate"),
    ("sample", dict(SAMPLE_CONF, law={"kind": "compound_poisson", "rate": 1.0,
                                      "mark": {"kind": "point_mass", "value": NAN}}),
     "law.mark: value"),
    ("simulate-coverage", dict(MM_CONF, marks={"kind": "normal", "variance": NAN}),
     "marks: variance"),
    ("simulate-coverage", dict(MM_CONF, service={"kind": "exponential", "rate": NAN}),
     "service: rate"),
    ("simulate-coverage", dict(MM_CONF, service={"kind": "deterministic", "value": INF}),
     "service: value"),
    ("simulate-coverage", dict(MM_CONF, arrival_rate="2"), "arrival_rate"),
    ("simulate-coverage", dict(MM_CONF, arrival_rate=NAN), "arrival_rate"),
    ("simulate-coverage", dict(MM_CONF, arrival_rate=INF), "arrival_rate"),
    ("simulate-coverage", dict(MM_CONF, arrival_rate=True), "arrival_rate"),
    ("check-array", dict(ASSUMPTION_CONF, x_probe=[0.5, 0]), "x_probe"),
    ("check-array", dict(ASSUMPTION_CONF, eps_list=[-0.1]), "eps_list"),
    ("check-array", dict(ASSUMPTION_CONF, array={"kind": "explicit", "mu": 1.0, "rows": {"0": []}}),
     "array: rows: expected an integer >= 1, got 0"),
    ("convergence", dict(ASSUMPTION_CONF, eps_list=[0.1, -0.1]), "eps_list"),
    ("convergence", dict(ASSUMPTION_CONF, rtol_tail=INF), "rtol_tail"),
    # no law truncates, so trunc_eps is a field of none
    ("cf-eval", dict(SAMPLE_CONF, law={"kind": "spectrally_positive", "trunc_eps": 1e-3,
                                       "measure": {"kind": "reciprocal", "b": 0.5}}),
     "law.trunc_eps: unknown field"),
    ("sample", dict(SAMPLE_CONF, law={"kind": "spectrally_positive", "trunc_eps": 1e-3,
                                      "measure": {"kind": "reciprocal", "b": 0.5}}),
     "law.trunc_eps: unknown field"),
])
def test_non_finite_or_out_of_range_number_exits_2_and_writes_nothing(
        tmp_path, monkeypatch, capsys, command, conf, named):
    calls = _sampler_calls(monkeypatch)
    conf = write_config(tmp_path, "c.json", conf)
    out = str(tmp_path / ("out.json" if command in ("cf-eval", "check-array", "convergence")
                          else "out.csv"))
    assert cli.main([command, "--config", conf, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {named}")
    assert captured.out == ""
    assert calls == []
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize("command, base", [
    ("cf-eval", SAMPLE_CONF), ("simulate-coverage", MM_CONF), ("convergence", ASSUMPTION_CONF)])
def test_theta_grid_over_the_cap_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                            command, base):
    # 2^50 vectors: refused from the count, before any of them is built
    calls = _sampler_calls(monkeypatch)
    conf = write_config(tmp_path, "c.json", dict(base, grid=_FIDI_GRID, theta_grid=[-1.0, 1.0]))
    out = str(tmp_path / ("out.csv" if command == "simulate-coverage" else "out.json"))
    assert cli.main([command, "--config", conf, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: theta_grid: the product grid would hold "
                                   f"{2**50:,} theta vectors")
    assert captured.out == ""
    assert calls == []
    assert os.listdir(tmp_path) == ["c.json"]


class TestVerifyCommand:
    def test_exit_zero_and_pass_lines(self, capsys):
        assert cli.main(["verify", "--seed", "123"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l]
        assert all(l.startswith("PASS") for l in lines[:-1])
        assert "checks passed" in lines[-1]
