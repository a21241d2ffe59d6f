"""Config parsing/serialization round-trips and the command-line front end
(run/verify/figures) driven in-process against tiny experiment sweeps."""

import csv
import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy

from copesim import cli, verify
from copesim.mechanism import SolverError
from copesim.config import (ConfigError, ExperimentConfig, _parse_int_list,
                            load_config, parse_config, save_config,
                            serialize_config)

TINY_INI = """\
[model]
cost = linear

[run]
n_agents = 2, 3
n_trials = 50
"""


def test_roundtrip_default_config():
    cfg = ExperimentConfig()
    assert parse_config(serialize_config(cfg)) == cfg


def test_roundtrip_custom_config():
    cfg = ExperimentConfig(
        mu0=-0.25, var0=2.5, theta_lo=0.05, theta_hi=0.9, cost="quadratic",
        n_agents_list=(2, 5, 9), n_trials=123, master_seed=77,
        tie_break="seeded-random", use_centralized=False,
        theta_dagger_list=(0.3,), hom_denominator="full-n",
        output_path="out2")
    assert parse_config(serialize_config(cfg)) == cfg


def test_save_load_roundtrip_keeps_percent_signs(tmp_path):
    # values are read verbatim: "%" is not configparser interpolation
    cfg = ExperimentConfig(output_path="a%b")
    path = str(tmp_path / "pct.ini")
    save_config(cfg, path)
    assert load_config(path) == cfg
    assert parse_config("[run]\noutput = a%%b\n").output_path == "a%%b"


def test_parse_int_list_forms():
    assert _parse_int_list("3-19") == tuple(range(3, 20))
    assert _parse_int_list("3, 5, 7") == (3, 5, 7)
    assert _parse_int_list("2, 4-6, 9") == (2, 4, 5, 6, 9)
    with pytest.raises(ConfigError):
        _parse_int_list("9-3")


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config("[model]\nvar0 = abc\n")
    with pytest.raises(ConfigError):
        parse_config("[mechanism.cope]\nenabled = maybe\n")
    with pytest.raises(ConfigError):
        parse_config("[model]\ncost = cubic\n")
    with pytest.raises(ConfigError):
        parse_config("[run\n")   # malformed INI
    with pytest.raises(ConfigError):
        load_config("/nonexistent/copesim.ini")


@pytest.mark.parametrize("text, name", [
    ("[DEFAULT]\nmu0 = 1.0\n", "'mu0' in [DEFAULT]"),
    ("[run]\nformat = csv\n", "'format' in [run]"),   # older save_config
])
def test_parse_rejects_keys_outside_the_schema(text, name):
    with pytest.raises(ConfigError, match=re.escape(name)):
        parse_config(text)


@pytest.mark.parametrize("overrides", [
    {"var0": 0.0},
    {"theta_lo": 0.5, "theta_hi": 0.5},
    {"theta_lo": -0.1},
    {"n_agents_list": ()},
    {"n_agents_list": (0, 3)},
    {"n_agents_list": (2, 2)},
    {"n_agents_list": (3, 4, 5, 4)},
    {"n_trials": 0},
    {"tie_break": "coin-flip"},
    {"hom_denominator": "half"},
    {"theta_dagger_list": ()},
    {"theta_dagger_list": (0.0, 0.5)},
    {"use_cope": False, "use_centralized": False, "use_homogeneous": False},
    {"master_seed": -1},
    {"mu0": float("nan")},
    {"var0": float("inf")},
    {"theta_hi": float("inf")},
    {"theta_dagger_list": (0.5, float("inf"))},
    {"theta_dagger_list": (float("nan"),)},
])
def test_validate_rejects(overrides):
    with pytest.raises(ConfigError):
        replace(ExperimentConfig(), **overrides).validate()


def test_mechanism_composition():
    kinds = [m.kind for m in ExperimentConfig().mechanisms()]
    assert kinds == ["cope-linear", "centralized",
                     "homogeneous", "homogeneous", "homogeneous"]
    tds = [m.theta_dagger for m in ExperimentConfig().mechanisms()[2:]]
    assert tds == [0.2, 0.5, 0.8]
    quad = replace(ExperimentConfig(), cost="quadratic")
    assert quad.mechanisms()[0].kind == "cope-quadratic"
    lean = replace(ExperimentConfig(), use_centralized=False,
                   use_homogeneous=False)
    assert [m.kind for m in lean.mechanisms()] == ["cope-linear"]


def test_default_config_covers_headline_sweep():
    cfg = ExperimentConfig()
    assert cfg.n_agents_list == tuple(range(3, 20))
    assert len(cfg.mechanisms()) == 5
    assert cfg.n_trials == 50_000


# -- CLI -----------------------------------------------------------------------

def _write_tiny_config(tmp_path) -> str:
    path = str(tmp_path / "tiny.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TINY_INI)
    return path


def _run_cli(tmp_path, out_name, extra=()):
    cfg = _write_tiny_config(tmp_path)
    out = str(tmp_path / out_name)
    rc = cli.main(["run", "-c", cfg, "-o", out, "-q", *extra])
    return rc, out


def test_cli_run_writes_results_and_manifest(tmp_path):
    rc, out = _run_cli(tmp_path, "out")
    assert rc == 0
    with open(os.path.join(out, "results.csv"), encoding="utf-8",
              newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == cli.CSV_HEADER
    # 5 mechanism instances x 2 Ns x 8 metrics
    assert len(rows) == 1 + 80
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert set(manifest) == {"config", "elapsed_s", "environment", "seed",
                             "started_at", "version"}
    env = manifest["environment"]
    assert {"platform", "python", "numpy", "scipy", "git_sha"} <= set(env)
    assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
    assert manifest["seed"] == 0
    config = manifest["config"]
    assert config["n_agents_list"] == [2, 3]
    echoed = ExperimentConfig(**{k: tuple(v) if isinstance(v, list) else v
                                 for k, v in config.items()})
    assert echoed == replace(load_config(_write_tiny_config(tmp_path)),
                             output_path=out)


def test_cli_run_is_byte_stable_across_runs_and_workers(tmp_path):
    _, out1 = _run_cli(tmp_path, "o1")
    _, out2 = _run_cli(tmp_path, "o2")
    _, out3 = _run_cli(tmp_path, "o3", extra=("-w", "2"))
    payloads = []
    for out in (out1, out2, out3):
        with open(os.path.join(out, "results.csv"), "rb") as fh:
            payloads.append(fh.read())
    assert payloads[0] == payloads[1] == payloads[2]


def test_cli_run_missing_config(tmp_path):
    rc = cli.main(["run", "-c", str(tmp_path / "absent.ini")])
    assert rc == 2


@pytest.mark.parametrize("ini, message", [
    ("[run]\nn_trails = 10\n", "error: unknown key 'n_trails' in [run]"),
    ("[modle]\ncost = linear\n", "error: unknown section [modle]"),
    ("[run]\nmaster_seed = -1\n", "error: master_seed must be >= 0, got -1"),
    ("[run]\nn_agents = 3-5, 4\n", "error: n_agents repeats N = 4"),
])
def test_cli_run_rejects_bad_config(tmp_path, capsys, ini, message):
    path = str(tmp_path / "bad.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ini)
    out = str(tmp_path / "out")
    assert cli.main(["run", "-c", path, "-o", out, "-q"]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [message]
    assert not os.path.exists(out)


def test_cli_run_rejects_bad_worker_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COPE_SIM_WORKERS", "abc")
    rc, out = _run_cli(tmp_path, "bad-env")
    err = capsys.readouterr().err
    assert rc == 2
    assert err.strip().splitlines() == [
        "error: COPE_SIM_WORKERS must be an integer, got 'abc'"]
    assert not os.path.exists(out)
    # an explicit -w wins over the environment
    rc, _ = _run_cli(tmp_path, "bad-env-w1", extra=("-w", "1"))
    assert rc == 0
    for value in ("0", "-3"):
        monkeypatch.setenv("COPE_SIM_WORKERS", value)
        rc, out = _run_cli(tmp_path, f"bad-env{value}")
        assert rc == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: COPE_SIM_WORKERS must be >= 1, got {value}"]
        assert not os.path.exists(out)


def test_cli_run_reports_solver_diagnostics(tmp_path, monkeypatch, capsys):
    diagnostics = {"theta_hat": [0.4, 0.7], "q": [0.3, 0.1], "P": 1.4,
                   "outer_iterations": 9, "inner_iterations": 21}

    def abort(*args, **kwargs):
        raise SolverError("trial 5 (seed 0, N 2): effort solver did not "
                          "converge", diagnostics)

    monkeypatch.setattr(cli.engine, "run_experiment", abort)
    rc, out = _run_cli(tmp_path, "abort")
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 3
    assert err[-2] == ("solver abort: trial 5 (seed 0, N 2): effort solver "
                       "did not converge")
    assert json.loads(err[-1]) == diagnostics
    assert not os.path.exists(os.path.join(out, "results.csv"))


def test_cli_run_rejects_zero_workers(tmp_path, capsys):
    rc, out = _run_cli(tmp_path, "zero-workers", extra=("-w", "0"))
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: --workers must be >= 1, got 0"]
    assert not os.path.exists(out)


def test_cli_verify_bic_rejects_zero_instances(capsys):
    rc = cli.main(["verify", "bic", "--instances", "0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.strip() == "error: n_instances must be >= 1, got 0"
    assert "result:" not in captured.out


def test_cli_verify_bir_rejects_negative_instances(capsys):
    rc = cli.main(["verify", "bir", "--instances", "-3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.strip() == "error: n_instances must be >= 1, got -3"
    assert "result:" not in captured.out


def test_cli_verify_bic_rejects_zero_mc(capsys):
    rc = cli.main(["verify", "bic", "--mc", "0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.strip() == "error: n_mc must be >= 2, got 0"
    assert "result:" not in captured.out


def test_cli_verify_bic_rejects_one_mc_draw(capsys):
    # a paired standard error needs two draws; one gave a FAIL on an
    # infinite gap, exit 1
    rc = cli.main(["verify", "bic", "--mc", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.strip() == "error: n_mc must be >= 2, got 1"
    assert "result:" not in captured.out
    with pytest.raises(ValueError, match="n_mc must be >= 2"):
        verify.run_suite("bir", n_mc=1)


def test_cli_verify_bir_rejects_one_mc_draw(capsys):
    rc = cli.main(["verify", "bir", "--instances", "2", "--mc", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.strip() == "error: n_mc must be >= 2, got 1"
    assert "result:" not in captured.out


@pytest.mark.parametrize("suite", ["bic", "bir"])
def test_cli_verify_passes_mc_to_the_oracle_suites(monkeypatch, capsys,
                                                   suite):
    seen = []
    monkeypatch.setitem(verify.SUITES, suite,
                        lambda **kw: seen.append(kw) or [])
    assert cli.main(["verify", suite, "--instances", "1", "--mc", "500"]) == 0
    assert cli.main(["verify", suite]) == 0
    capsys.readouterr()
    # without --mc each suite keeps its own default
    assert seen == [dict(seed=0, cost_kind="linear", n_instances=1,
                         n_mc=500),
                    dict(seed=0, cost_kind="linear", n_instances=20)]


def test_cli_verify_cubic(capsys):
    rc = cli.main(["verify", "cubic"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "result: PASS" in out


def test_cli_figures_outputs(tmp_path, capsys):
    _, out = _run_cli(tmp_path, "res")
    results = os.path.join(out, "results.csv")
    figdir = str(tmp_path / "figs")
    rc = cli.main(["figures", results, "-o", figdir])
    assert rc == 0
    capsys.readouterr()
    for name, cost, _, want_centralized in cli.FIGURES:
        path = os.path.join(figdir, f"{name}.csv")
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N", "mechanism", "theta_dagger", "mean", "se"]
        mechs = {r[1] for r in rows[1:]}
        if cost == "linear":
            assert ("centralized" in mechs) == want_centralized
            assert "cope-linear" in mechs and "homogeneous" in mechs
        else:
            # the tiny sweep was linear-only; quadratic figures stay empty
            assert mechs == set()


def test_cli_figures_warns_on_missing_centralized(tmp_path, capsys):
    _, out = _run_cli(tmp_path, "res2")
    results = os.path.join(out, "results.csv")
    with open(results, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r[0] != "centralized"]
    stripped = str(tmp_path / "stripped.csv")
    with open(stripped, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    rc = cli.main(["figures", stripped, "-o", str(tmp_path / "figs2")])
    err = capsys.readouterr().err
    assert rc == 0
    assert "no centralized rows" in err


def test_cli_figures_rejects_bad_csv(tmp_path, capsys):
    empty = str(tmp_path / "empty.csv")
    open(empty, "w").close()
    assert cli.main(["figures", empty]) == 2
    bad = str(tmp_path / "bad.csv")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("who,what\n1,2\n")
    assert cli.main(["figures", bad]) == 2
    capsys.readouterr()
