"""End-to-end tests of the command-line front end and its exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pycnolab import bilayer, cli, harness, hyperbolicity, stratified
from pycnolab.core import STEP_HEADROOM, LevelGrid, SpatialGrid


def write_config(tmp_path, name, payload):
    payload = dict(payload)
    payload.setdefault("schema", 1)
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_summary(out_dir, experiment):
    name = experiment.replace("-", "_") + "_summary.json"
    with open(out_dir / name, encoding="utf-8") as f:
        return json.load(f)


def test_import_leaves_scipy_unloaded():
    # the runtime is numpy only; scipy serves the tests alone. numpy.fft
    # and numpy.random each raise a process's peak RSS when imported, so
    # the package reaches them at call time only
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, pycnolab.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith(('numpy.fft', "
            "'numpy.random'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_readme_library_block_runs():
    # the package's top level exports exactly what this block imports
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("## Library in one minute", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(block, str(readme), "exec"), scope)
    assert not scope["run_2l"].blown_up
    assert not scope["run_nl"].blown_up


class TestConfigHandling:
    def test_wrong_schema_version(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"schema": 99})
        code = cli.main(["check-all", "--config", cfg,
                         "--out", str(tmp_path / "o")])
        assert code == cli.CONFIG_ERROR

    def test_missing_schema_field(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"T": 0.2}', encoding="utf-8")
        code = cli.main(["simulate-bilayer", "--config", str(path),
                         "--out", str(tmp_path / "o")])
        assert code == cli.CONFIG_ERROR

    def test_experiment_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"experiment": "atlas"})
        code = cli.main(["classify", "--config", cfg,
                         "--out", str(tmp_path / "o")])
        assert code == cli.CONFIG_ERROR

    def test_id_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"id": "sweep-kappa"})
        code = cli.main(["sweep-epsilon", "--config", cfg,
                         "--out", str(tmp_path / "o")])
        assert code == cli.CONFIG_ERROR

    def test_matching_id_accepted(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"id": "classify",
                                                "samples": 3})
        code = cli.main(["classify", "--config", cfg,
                         "--out", str(tmp_path / "o")])
        assert code == cli.PASS

    def test_empty_sweep_list(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"kappas": []})
        code = cli.main(["sweep-kappa", "--config", cfg,
                         "--out", str(tmp_path / "o")])
        assert code == cli.CONFIG_ERROR

    def test_unreadable_config(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("not json", encoding="utf-8")
        code = cli.main(["classify", "--config", str(path),
                         "--out", str(tmp_path / "o")])
        assert code == cli.CONFIG_ERROR

    def test_bad_thread_count(self, tmp_path):
        code = cli.main(["classify", "--threads", "0",
                         "--out", str(tmp_path / "o")])
        assert code == cli.CONFIG_ERROR

    def test_unknown_keys_rejected(self, tmp_path):
        for payload in ({"kapas": [1.0]}, {"params": {"kappa": 0.1}},
                        {"initial": {"amplitude": {"H_s": 0.1}}}):
            cfg = write_config(tmp_path, "c.json", payload)
            code = cli.main(["sweep-kappa", "--config", cfg,
                             "--out", str(tmp_path / "o")])
            assert code == cli.CONFIG_ERROR, payload

    def test_bad_value_inside_config(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"n_x": 7, "T": 0.1})
        code = cli.main(["simulate-bilayer", "--config", cfg,
                         "--out", str(tmp_path / "o")])
        assert code == cli.CONFIG_ERROR

    @pytest.mark.parametrize("command, value", [
        ("simulate-bilayer", 0), ("simulate-stratified", -2)])
    def test_snapshot_every_must_be_positive(self, tmp_path, command, value):
        cfg = write_config(tmp_path, "c.json", {
            "snapshot_every": value, "n_x": 32, "T": 0.05})
        code = cli.main([command, "--config", cfg,
                         "--out", str(tmp_path / "o")])
        assert code == cli.CONFIG_ERROR

    @pytest.mark.parametrize("command, payload", [
        ("check-all", {"n_points": -1}), ("check-all", {"n_points": 0}),
        ("classify", {"samples": -3}), ("classify", {"points": []})])
    def test_sample_counts_must_be_positive(self, tmp_path, command,
                                            payload):
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        code = cli.main([command, "--config", cfg, "--out", str(out)])
        assert code == cli.CONFIG_ERROR
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command, payload", [
        ("simulate-bilayer", {"snapshot_every": 2.7, "n_x": 32, "T": 0.05}),
        ("classify", {"samples": 0.5}),
        ("classify", {"seed": 2.7, "samples": 3}),
        ("check-all", {"seed": 2.7, "n_points": 3})])
    def test_counts_must_be_whole_numbers(self, tmp_path, command, payload):
        # a fractional count is rejected, not truncated to a run
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        code = cli.main([command, "--config", cfg, "--out", str(out)])
        assert code == cli.CONFIG_ERROR
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command, payload, key", [
        ("check-all", {"n_points": True}, "n_points"),
        ("check-all", {"seed": True, "n_points": 3}, "seed"),
        ("classify", {"samples": True}, "samples"),
        ("sweep-kappa", {"cfl": True}, "cfl"),
        ("simulate-bilayer", {"dt": True, "T": 0.05}, "dt"),
        ("simulate-bilayer", {"T": True}, "T"),
        ("simulate-bilayer", {"T": "0.05"}, "T"),
        ("simulate-bilayer", {"T": None}, "T"),
        ("simulate-bilayer", {"params": {"rho_b": True}}, "params.rho_b"),
        ("simulate-bilayer", {"params": {"rho_s": True}}, "params.rho_s"),
        ("simulate-bilayer", {"params": {"Hbar_s": True}}, "params.Hbar_s"),
        ("simulate-bilayer", {"params": {"Hbar_b": None}}, "params.Hbar_b"),
        ("simulate-bilayer", {"params": {"Ubar_s": False}}, "params.Ubar_s"),
        ("simulate-bilayer", {"params": {"Ubar_b": "0"}}, "params.Ubar_b"),
        ("simulate-bilayer", {"params": {"kappa": True}}, "params.kappa"),
        ("simulate-bilayer", {"kappa": True}, "kappa"),
        ("simulate-bilayer", {"length": True}, "length"),
        ("simulate-bilayer", {"sigma": True}, "sigma"),
        ("simulate-bilayer", {"initial": {"amplitudes": {"H_s": True}}},
         "initial.amplitudes.H_s"),
        ("simulate-bilayer", {"initial": {"kind": "gaussian",
                                          "center": True}}, "initial.center"),
        ("simulate-bilayer", {"initial": {"kind": "gaussian",
                                          "width": True}}, "initial.width"),
        ("simulate-stratified", {"epsilon": True}, "epsilon"),
        ("simulate-stratified", {"cluster": True}, "cluster"),
        ("refine", {"epsilon": None}, "epsilon"),
        ("refine", {"s": True}, "s"),
        ("refine", {"agreement_tol": True}, "agreement_tol"),
        ("refine", {"ratio_slack": True}, "ratio_slack"),
        ("sweep-kappa", {"kappas": [1e-4, 1e-3, 1e-2, True]}, "kappas[3]"),
        ("sweep-kappa", {"s": True}, "s"),
        ("sweep-kappa", {"expected_slope": True}, "expected_slope"),
        ("sweep-kappa", {"slope_tolerance": True}, "slope_tolerance"),
        ("sweep-epsilon", {"epsilons": [1e-3, 1e-2, "0.1", 1.0]},
         "epsilons[2]"),
        ("sweep-epsilon", {"band_factor": True}, "band_factor"),
        ("atlas", {"h_ratio": True}, "h_ratio"),
        ("atlas", {"rho_ratios": [0.5, True]}, "rho_ratios[1]"),
        ("atlas", {"intercepts": [True]}, "intercepts[0]"),
        ("atlas", {"intercepts": "15"}, "intercepts"),
        ("check-all", {"kappa": True, "n_points": 3}, "kappa")])
    def test_booleans_are_not_numbers(self, tmp_path, capsys, command,
                                      payload, key):
        # JSON's true once passed as 1: one check-all point, cfl 1, a
        # horizon T = 1 or a diffusivity of 1; a null or a string is no
        # number either, and the string "15" once read as the
        # intercepts 1.0 and 5.0
        small = {"n_x": 32, "T": 0.05}
        payload = {**{k: v for k, v in small.items()
                      if k in cli.CONFIG_KEYS[command]}, **payload}
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        code = cli.main([command, "--config", cfg, "--out", str(out)])
        assert code == cli.CONFIG_ERROR
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_wavenumber_must_be_whole(self, tmp_path, capsys):
        # 1.5 once ran a sine that is not periodic on the torus
        cfg = write_config(tmp_path, "c.json", {
            "n_x": 32, "T": 0.05, "initial": {"wavenumber": 1.5}})
        out = tmp_path / "o"
        code = cli.main(["simulate-bilayer", "--config", cfg,
                         "--out", str(out)])
        assert code == cli.CONFIG_ERROR
        assert "initial.wavenumber must be a whole number" in \
            capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("cluster", [float("nan"), -1.0])
    def test_cluster_must_be_finite_and_non_negative(self, tmp_path, capsys,
                                                     cluster):
        # NaN once ran on a uniform grid
        cfg = write_config(tmp_path, "c.json", {
            "n_x": 32, "n_r": 8, "T": 0.05, "cluster": cluster})
        out = tmp_path / "o"
        code = cli.main(["simulate-stratified", "--config", cfg,
                         "--out", str(out)])
        assert code == cli.CONFIG_ERROR
        assert "cluster must be finite and non-negative" in \
            capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("n_r", [1, 0, -3])
    def test_column_needs_two_cells(self, tmp_path, capsys, n_r):
        # 1 and 0 once failed in LevelGrid's edge checks, -3 in linspace
        cfg = write_config(tmp_path, "c.json", {"n_r": n_r})
        code = cli.main(["simulate-stratified", "--config", cfg,
                         "--out", str(tmp_path / "o")])
        assert code == cli.CONFIG_ERROR
        assert f"n_r must be >= 2 to hold an interface, got {n_r}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate-bilayer",
                                         "simulate-stratified"])
    @pytest.mark.parametrize("width", [0, -0.5, float("inf")])
    def test_width_must_be_finite_and_positive(self, tmp_path, capsys,
                                               command, width):
        # 0 once failed as a non-finite field, and -0.5 ran as 0.5
        cfg = write_config(tmp_path, "c.json", {
            "n_x": 32, "T": 0.05, "initial": {"kind": "gaussian",
                                              "width": width}})
        out = tmp_path / "o"
        code = cli.main([command, "--config", cfg, "--out", str(out)])
        assert code == cli.CONFIG_ERROR
        assert "initial.width must be finite and positive" in \
            capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("points, message", [
        ([{"rho_s": 0.5}], "points[0] lacks rho_b, H_s, H_b, U_s, U_b"),
        ("x", "points must list at least one state point, got 'x'"),
        ([0.5], "points[0] must be a JSON object, got 0.5"),
        ([{"rho_s": 0.5, "rho_b": 1.0, "H_s": 0.4, "H_b": 0.6, "U_s": 0.0,
           "U_b": 0.3, "Ub": 9, "Hs": 1}],
         "points[0] has unknown keys: Hs, Ub")])
    def test_classify_points_must_be_whole_rows(self, tmp_path, capsys,
                                                points, message):
        # these once printed "'rho_b'" and "string indices must be
        # integers"
        cfg = write_config(tmp_path, "c.json", {"points": points})
        out = tmp_path / "o"
        code = cli.main(["classify", "--config", cfg, "--out", str(out)])
        assert code == cli.CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("sigma", [0, 1, -0.5])
    def test_sigma_must_lie_in_the_unit_interval(self, tmp_path, capsys,
                                                 sigma):
        # sigma = 0 once ended in a ZeroDivisionError traceback (exit 1)
        cfg = write_config(tmp_path, "c.json", {"n_x": 32, "T": 0.05,
                                                "sigma": sigma})
        out = tmp_path / "o"
        code = cli.main(["simulate-bilayer", "--config", cfg,
                         "--out", str(out)])
        assert code == cli.CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"config error: sigma must lie in (0, 1), got {float(sigma)}\n")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("tolerances, got", [
        ({"agreement_tol": -1}, "-1.0 and 1e-09"),
        ({"agreement_tol": float("nan")}, "nan and 1e-09"),
        ({"agreement_tol": float("inf"), "ratio_slack": float("inf")},
         "inf and inf"),
        ({"ratio_slack": -1e-9}, "1e-10 and -1e-09")])
    def test_refine_tolerances_are_checked_before_any_run(
            self, tmp_path, capsys, monkeypatch, tolerances, got):
        # -1 and NaN once ran the whole experiment and exited 1; two
        # infinities passed every run (exit 0)
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness.stratified, "integrate", no_run)
        cfg = write_config(tmp_path, "c.json", {"n_x": 32, "n_r": 8,
                                                "T": 0.2, **tolerances})
        out = tmp_path / "o"
        code = cli.main(["refine", "--config", cfg, "--out", str(out)])
        assert code == cli.CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"config error: need agreement_tol and ratio_slack finite and "
            f">= 0, got {got}\n")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command, payload, error", [
        ("refine", {"n_r": 8, "T": 0.2, "s": -1},
         "Sobolev index must be finite and >= 0, got -1.0"),
        ("refine", {"n_r": 8, "T": 0.2, "s": float("nan")},
         "Sobolev index must be finite and >= 0, got nan"),
        ("sweep-epsilon", {"s": -1},
         "Sobolev index must be finite and >= 0, got -1.0"),
        ("sweep-kappa", {"s": -1},
         "Sobolev index must be finite and >= 0, got -1.0"),
        ("sweep-epsilon", {"band_factor": -1},
         "band_factor must be finite and positive, got -1"),
        ("sweep-epsilon", {"band_factor": 0},
         "band_factor must be finite and positive, got 0"),
        ("sweep-epsilon", {"band_factor": float("inf")},
         "band_factor must be finite and positive, got inf")])
    def test_norm_and_band_are_checked_before_any_run(
            self, tmp_path, capsys, monkeypatch, command, payload, error):
        # "s": -1 once cost refine its reference and refined runs and
        # each sweep two marches; "band_factor": -1 ran all six marches
        # of sweep-epsilon and passed
        marches = []
        for module, name in ((bilayer, "integrate"),
                             (stratified, "integrate"),
                             (harness.refined, "solve_refined")):
            run = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, run=run, **k: (
                marches.append(1) or run(*a, **k)))
        cfg = write_config(tmp_path, "c.json", {"n_x": 32, **payload})
        out = tmp_path / "o"
        code = cli.main([command, "--config", cfg, "--out", str(out)])
        assert (code, marches) == (cli.CONFIG_ERROR, [])
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert not any(out.iterdir())

    def test_check_all_checks_kappa_before_any_suite(self, tmp_path, capsys,
                                                     monkeypatch):
        # kappa = 2 once ran the classification and symmetrizer suites and
        # only then failed in the conservation suite's two-layer params
        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(harness, "_suite_classification", no_suite)
        cfg = write_config(tmp_path, "c.json", {"kappa": 2})
        out = tmp_path / "o"
        code = cli.main(["check-all", "--config", cfg, "--out", str(out)])
        assert code == cli.CONFIG_ERROR
        assert capsys.readouterr().err == (
            "config error: kappa must lie in [0, 1], got 2.0\n")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("value", [True, "x", None, 10 ** 400])
    def test_classify_point_values_must_be_numbers(self, tmp_path, capsys,
                                                   value):
        # true once classified a depth of 1; a string or null printed
        # numpy's "ufunc 'isfinite' not supported"; a 400-digit integer
        # overflows math.isfinite
        row = {"rho_s": 0.5, "rho_b": 1.0, "H_s": 0.4, "H_b": 0.6,
               "U_s": 0.0, "U_b": 0.0}
        cfg = write_config(tmp_path, "c.json", {"points": [
            row, {**row, "H_s": value}]})
        out = tmp_path / "o"
        code = cli.main(["classify", "--config", cfg, "--out", str(out)])
        assert code == cli.CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: points[1]: state point H_s "
                              "must be a finite number")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("rho_s, message", [
        (1e-12, "points[1]: elliptic window not resolved at (h_ratio, "
                "rho_ratio) = (0.0001, 1e-12)"),
        (2.0, "stable stratification rho_s < rho_b required, got "
              "2.0 >= 1.0")])
    def test_classify_point_without_thresholds(self, tmp_path, capsys,
                                               rho_s, message):
        # rho_s/rho_b = 1e-12 closes the elliptic window below what floats
        # resolve; it once ended in a RuntimeError traceback (exit 1). An
        # unstable point has no thresholds and keeps its own message
        row = {"rho_s": rho_s, "rho_b": 1.0, "H_s": 0.0001, "H_b": 1.0,
               "U_s": 0, "U_b": 0.3}
        cfg = write_config(tmp_path, "c.json", {"points": [
            {**row, "rho_s": 0.5}, row]})
        out = tmp_path / "o"
        code = cli.main(["classify", "--config", cfg, "--out", str(out)])
        assert code == cli.CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (out / "classify.csv").exists()

    @pytest.mark.parametrize("command, key", [
        ("simulate-bilayer", "cfl"), ("simulate-bilayer", "dt"),
        ("simulate-stratified", "cfl"), ("simulate-stratified", "dt"),
        ("refine", "dt"), ("sweep-kappa", "cfl"), ("sweep-epsilon", "cfl")])
    @pytest.mark.parametrize("value", [0, -1.0, float("inf"), float("nan"),
                                       "0.1"])
    def test_step_sizes_must_be_finite_and_positive(
            self, tmp_path, capsys, command, key, value):
        # a zero once died dividing by it, and an infinite or negative
        # value ran one step of length T
        cfg = write_config(tmp_path, "c.json", {
            key: value, "n_x": 32, "T": 0.05})
        out = tmp_path / "o"
        code = cli.main([command, "--config", cfg, "--out", str(out)])
        assert code == cli.CONFIG_ERROR
        assert f"{key} must be finite and positive" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", [
        "simulate-bilayer", "simulate-stratified", "refine", "sweep-kappa",
        "sweep-epsilon"])
    @pytest.mark.parametrize("T", [float("inf"), float("nan")])
    def test_horizon_must_be_finite_and_positive(self, tmp_path, capsys,
                                                 command, T):
        # Infinity once overflowed computing the step count (exit 1) and
        # NaN failed converting it to an integer
        cfg = write_config(tmp_path, "c.json", {"T": T, "n_x": 32})
        out = tmp_path / "o"
        code = cli.main([command, "--config", cfg, "--out", str(out)])
        assert code == cli.CONFIG_ERROR
        assert "horizon T must be finite and positive" in \
            capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("n_samples", [1, 2])
    def test_atlas_needs_three_samples(self, tmp_path, n_samples):
        cfg = write_config(tmp_path, "c.json", {"n_samples": n_samples})
        out = tmp_path / "o"
        code = cli.main(["atlas", "--config", cfg, "--out", str(out)])
        assert code == cli.CONFIG_ERROR
        assert not out.exists() or not any(out.iterdir())

    def test_amplitudes_must_be_a_mapping(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"initial": {"amplitudes": ["H_s"]}})
        for command in ("simulate-bilayer", "sweep-kappa", "sweep-epsilon"):
            code = cli.main([command, "--config", cfg,
                             "--out", str(tmp_path / "o")])
            assert code == cli.CONFIG_ERROR, command


class TestSweepCommands:
    @pytest.mark.parametrize("command", ["sweep-kappa", "sweep-epsilon"])
    def test_sweeps_are_looked_up_when_called(self, tmp_path, monkeypatch,
                                              capsys, command):
        # a wrapped harness sweep, such as a tracer's, is the one that
        # runs; a binding made at import once bypassed it
        calls = []

        def sweep(cfg):
            calls.append(cfg)
            return harness.SweepResult(
                command, np.array([1.0, 10.0, 100.0, 1000.0]),
                {"d": np.zeros(4)}, "d", None, 1.0, 0.1, passed=True,
                detail="all distances vanish", meta={"n_x": 8})

        monkeypatch.setattr(harness, command.replace("-", "_"), sweep)
        code = cli.main([command, "--out", str(tmp_path / "o")])
        assert code == cli.PASS and calls == [{}]
        assert capsys.readouterr().out == (
            f"{command}: all distances vanish\n")

    def test_sweep_kappa_passes_and_reruns_identically(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "n_x": 64, "T": 0.3,
            "kappas": [1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2]})
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = cli.main(["sweep-kappa", "--config", cfg, "--seed", "4",
                             "--threads", "2", "--out", str(out)])
            assert code == cli.PASS
            outs.append((out / "sweep_kappa.csv").read_bytes())
        assert outs[0] == outs[1], "rerun changed the CSV bytes"
        summary = read_summary(tmp_path / "a", "sweep-kappa")
        assert summary["pass"] is True and summary["seed"] == 4
        assert abs(summary["slope"] - 1.0) <= 0.1
        assert "sweep_kappa.csv" in summary["files"]
        assert b"seed=4" in outs[0].splitlines()[-1]

    def test_sweep_kappa_blowup_exit(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "n_x": 64, "T": 1.0,
            "kappas": [1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2],
            "initial": {"amplitudes": {"H_s": -0.31, "U_s": 0.9}}})
        code = cli.main(["sweep-kappa", "--config", cfg,
                         "--out", str(tmp_path / "o")])
        assert code == cli.INCONCLUSIVE
        summary = read_summary(tmp_path / "o", "sweep-kappa")
        assert summary["pass"] is False

    def test_sweep_epsilon_passes_and_reruns_identically(self, tmp_path):
        # CLI defaults: five 64 x 256 column marches
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = cli.main(["sweep-epsilon", "--seed", "4",
                             "--out", str(out)])
            assert code == cli.PASS
            outs.append((out / "sweep_epsilon.csv").read_bytes())
        assert outs[0] == outs[1], "rerun changed the CSV bytes"
        summary = read_summary(tmp_path / "a", "sweep-epsilon")
        assert summary["pass"] is True and summary["seed"] == 4
        assert abs(summary["slope"] - 1.0) <= 0.2
        assert b"seed=4" in outs[0].splitlines()[-1]

    def test_sweep_epsilon_with_plots(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "n_x": 64, "n_r": 24, "T": 0.2,
            "epsilons": [8e-4, 2.53e-3, 8e-3, 2.53e-2, 8e-2]})
        out = tmp_path / "o"
        code = cli.main(["sweep-epsilon", "--config", cfg, "--plots",
                         "--out", str(out)])
        assert code == cli.PASS
        summary = read_summary(out, "sweep-epsilon")
        assert summary["pass"] is True
        assert "sweep_epsilon.svg" in summary["files"]
        header = (out / "sweep_epsilon.csv").read_text().splitlines()[0]
        assert header == "abscissa,all_levels,exterior,exterior_sup"

    def test_sweep_epsilon_honours_cfl(self, tmp_path):
        # the configured cfl sets dt and the limit every run re-checks;
        # checking against the default 0.4 rejected the first step
        cfg = write_config(tmp_path, "c.json", {
            "n_x": 64, "n_r": 16, "T": 0.1, "cfl": 0.8,
            "epsilons": [0.001, 0.004, 0.016, 0.064, 0.1]})
        code = cli.main(["sweep-epsilon", "--config", cfg,
                         "--out", str(tmp_path / "o")])
        assert code == cli.PASS


# each sweep at a small scale on its three paths: a fitted slope, values
# that all vanish (no initial deviation), and an inconclusive member (a
# run that hits the depth floor; a band that swallows every level)
SWEEP_PATHS = {
    "sweep-kappa": ({"n_x": 64, "T": 0.05}, {
        "fitted": {},
        "vanishing": {"initial": {"amplitudes": {}}},
        "inconclusive": {"params": {"Hbar_s": 0.5, "Hbar_b": 0.5},
                         "initial": {"amplitudes": {"H_s": 0.49}},
                         "T": 2.0}}),
    "sweep-epsilon": ({"n_x": 64, "n_r": 16, "T": 0.05}, {
        "fitted": {},
        "vanishing": {"initial": {"amplitudes": {}}},
        "inconclusive": {"band_factor": 1000}}),
}


def run_sweep_path(tmp_path, command, path):
    base, paths = SWEEP_PATHS[command]
    cfg = write_config(tmp_path, f"{path}.json", {**base, **paths[path]})
    out = tmp_path / path
    code = cli.main([command, "--config", cfg, "--out", str(out)])
    name = command.replace("-", "_")
    footer = (out / f"{name}.csv").read_text().splitlines()[-1]
    return code, read_summary(out, command), footer


@pytest.mark.parametrize("command", sorted(SWEEP_PATHS))
def test_sweep_footer_keys_match_on_every_path(tmp_path, command):
    # the all-zero and inconclusive footers once dropped keys the fitted
    # footer writes
    keys = {}
    for path, want in (("fitted", cli.PASS), ("vanishing", cli.PASS),
                       ("inconclusive", cli.INCONCLUSIVE)):
        code, _, footer = run_sweep_path(tmp_path, command, path)
        assert code == want, path
        prefix = f"# {command} "
        assert footer.startswith(prefix)
        # the epsilons list holds commas too: keep only key=value cells
        keys[path] = {cell.split("=", 1)[0] for cell in
                      footer[len(prefix):].split(",") if "=" in cell}
    assert keys["vanishing"] == keys["fitted"]
    assert keys["inconclusive"] == keys["fitted"]
    assert {"T", "dt", "n_x", "seed"} <= keys["fitted"]


@pytest.mark.parametrize("command", sorted(SWEEP_PATHS))
def test_vanishing_sweep_passes_without_a_fit(tmp_path, capsys, command):
    code, summary, _ = run_sweep_path(tmp_path, command, "vanishing")
    assert code == cli.PASS
    assert summary["pass"] is True
    assert summary["slope"] is None and summary["interval"] is None
    assert capsys.readouterr().out == (
        f"{command}: all distances vanish; runs are identical\n")
    fn = {"sweep-kappa": harness.sweep_kappa,
          "sweep-epsilon": harness.sweep_epsilon}[command]
    base, paths = SWEEP_PATHS[command]
    result = fn({**base, **paths["vanishing"]})
    assert result.passed and not result.inconclusive
    assert result.fit is None
    assert all(np.all(v == 0.0) for v in result.series.values())


class TestRunCommands:
    def test_check_all(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"n_points": 25})
        out = tmp_path / "o"
        code = cli.main(["check-all", "--config", cfg, "--seed", "2",
                         "--out", str(out)])
        assert code == cli.PASS
        report = json.loads((out / "check_all.json").read_text())
        assert report["passed"] and report["seed"] == 2
        table = (out / "check_all.csv").read_text().splitlines()
        assert table[0] == "suite,status,detail"
        assert table[-1] == "# seed=2"
        assert len(table) == 2 + 8

    def test_atlas_counts_match(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"n_samples": 801})
        out = tmp_path / "o"
        code = cli.main(["atlas", "--config", cfg, "--out", str(out)])
        assert code == cli.PASS
        rows = (out / "atlas_counts.csv").read_text().splitlines()[1:-1]
        assert len(rows) == 9
        assert all(row.endswith(",true") for row in rows)

    @pytest.mark.parametrize("h_ratio", [-0.5, 0.0])
    def test_atlas_rejects_non_positive_depth_ratio(self, tmp_path, capsys,
                                                    recwarn, h_ratio):
        # rejected before any curve is sampled or written
        cfg = write_config(tmp_path, "c.json", {"h_ratio": h_ratio})
        out = tmp_path / "o"
        code = cli.main(["atlas", "--config", cfg, "--out", str(out)])
        assert code == cli.CONFIG_ERROR
        assert not out.exists() or not any(out.iterdir())
        assert "h_ratio must be positive" in capsys.readouterr().err
        assert not recwarn.list

    @pytest.mark.parametrize("rho_ratios", [[1e-12], [0.5, 1e-12]])
    def test_atlas_rejects_an_unresolved_window_before_writing(
            self, tmp_path, capsys, rho_ratios):
        # its curves were once written before the thresholds failed with
        # an UnresolvedWindowError traceback (exit 1)
        cfg = write_config(tmp_path, "c.json", {"h_ratio": 0.0001,
                                                "rho_ratios": rho_ratios})
        out = tmp_path / "o"
        code = cli.main(["atlas", "--config", cfg, "--out", str(out)])
        assert code == cli.CONFIG_ERROR
        assert not out.exists() or not any(out.iterdir())
        assert capsys.readouterr().err == (
            "config error: elliptic window not resolved at (h_ratio, "
            "rho_ratio) = (0.0001, 1e-12)\n")

    def test_atlas_solves_each_density_ratio_once(self, tmp_path,
                                                  monkeypatch):
        calls, solves = [], []
        solve = hyperbolicity.critical_froude

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        def counted_solve(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(hyperbolicity, "critical_froude", counted)
        monkeypatch.setattr(cli, "critical_froude", counted_solve)
        code = cli.main(["atlas", "--out", str(tmp_path / "o")])
        assert code == cli.PASS
        # three density ratios, three intercepts each: three solves
        assert calls == []
        assert solves == [(0.5, 0.1), (0.5, 0.5), (0.5, 0.9)]

    def test_classify_with_explicit_points(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"points": [
            {"rho_s": 0.5, "rho_b": 1.0, "H_s": 0.4, "H_b": 0.6,
             "U_s": 0.0, "U_b": 0.0},
            {"rho_s": 0.5, "rho_b": 1.0, "H_s": 0.4, "H_b": 0.6,
             "U_s": 0.0, "U_b": 1.0}]})
        out = tmp_path / "o"
        code = cli.main(["classify", "--config", cfg, "--out", str(out)])
        assert code == cli.PASS
        lines = (out / "classify.csv").read_text().splitlines()
        assert len(lines) == 2 + 2
        assert "Hyperbolic" in lines[1]

    def test_classify_writes_integer_points_as_floats(self, tmp_path):
        # every numeric cell is repr(float): an integer 1 is written 1.0,
        # while the root count is the integer it is
        cfg = write_config(tmp_path, "c.json", {"points": [
            {"rho_s": 1, "rho_b": 2, "H_s": 1, "H_b": 1, "U_s": 0,
             "U_b": 1}]})
        out = tmp_path / "o"
        code = cli.main(["classify", "--config", cfg, "--out", str(out)])
        assert code == cli.PASS
        header, row, footer = (out / "classify.csv").read_text().splitlines()
        cells = row.split(",")
        assert cells[:8] == ["1.0", "2.0", "1.0", "1.0", "0.0", "1.0",
                             "Hyperbolic", "4"]
        assert cells[-1] == "false"
        assert footer == "# seed=0"

    def test_simulate_bilayer_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"n_x": 64, "T": 0.2})
        out = tmp_path / "o"
        code = cli.main(["simulate-bilayer", "--config", cfg, "--plots",
                         "--out", str(out)])
        assert code == cli.PASS
        for name in ("snapshots.csv", "diagnostics.csv", "diagnostics.svg"):
            assert (out / name).exists(), name
        summary = read_summary(out, "simulate-bilayer")
        assert summary["slope"] is None

    @pytest.mark.parametrize("command, payload", [
        ("simulate-bilayer", {"n_x": 64, "T": 0.2}),
        ("simulate-stratified", {"n_x": 64, "n_r": 16, "T": 0.2})])
    def test_default_step_is_the_shared_headroom(self, tmp_path, command,
                                                 payload):
        # with no dt, each command's run takes STEP_HEADROOM times its
        # initial limit itself: the artifacts are those of that dt given
        if command == "simulate-bilayer":
            grid = harness.grid_from_config(payload)
            limit = bilayer.cfl_limit(harness.initial_from_config(
                payload, grid), harness.params_from_config(payload))
        else:
            _, _, _, profile, state = harness.column_setup(payload)
            limit = stratified.cfl_limit(state, profile, 0.1)
        outs = []
        for extra in ({}, {"dt": STEP_HEADROOM * limit}):
            cfg = write_config(tmp_path, "c.json", {**payload, **extra})
            outs.append(tmp_path / f"o{len(outs)}")
            code = cli.main([command, "--config", cfg, "--out",
                             str(outs[-1])])
            assert code == cli.PASS
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1])) and len(names) >= 3
        for name in names:
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes()), name

    def test_simulate_bilayer_blowup_exit(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "n_x": 64, "T": 1.0,
            "initial": {"amplitudes": {"H_s": -0.31, "U_s": 0.9}}})
        code = cli.main(["simulate-bilayer", "--config", cfg,
                         "--out", str(tmp_path / "o")])
        assert code == cli.INCONCLUSIVE

    def test_simulate_stratified_smoothed_column(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "n_x": 64, "n_r": 16, "T": 0.2, "epsilon": 0.03})
        out = tmp_path / "o"
        code = cli.main(["simulate-stratified", "--config", cfg,
                         "--out", str(out)])
        assert code == cli.PASS
        profile = np.genfromtxt(out / "profile.csv", delimiter=",",
                                names=True)
        assert profile["rho"].min() > 0.0
        # densities decrease upward through the pycnocline
        assert np.all(np.diff(profile["rho"]) <= 1e-12)
        diag = np.genfromtxt(out / "diagnostics.csv", delimiter=",",
                             names=True)
        assert float(np.max(diag["mass_drift"])) < 1e-12

    def test_mid_run_cfl_breach_is_flagged(self, tmp_path, capsys):
        # a step just inside the initial limit that the state's own
        # steepening overtakes is a flagged run, not a config error
        grid = SpatialGrid(256)
        params = bilayer.BilayerParams(0.5, 1.0, 1.0 / 3.0, 2.0 / 3.0)
        levels = LevelGrid.with_interface(16, -params.Hbar_s, cluster=0.0)
        profile, state = stratified.embed_bilayer(
            bilayer.make_initial(grid, amplitudes={"H_s": 0.05,
                                                   "U_s": 0.02}),
            params, levels)
        limit = stratified.cfl_limit(state, profile, 0.0)
        payload = {"n_r": 16, "cluster": 0, "kappa": 0, "T": 1}
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "c.json", dict(payload, dt=0.999 * limit))
        code = cli.main(["simulate-stratified", "--config", cfg,
                         "--out", str(out)])
        assert code == cli.INCONCLUSIVE
        assert "cfl-breach" in capsys.readouterr().err
        assert read_summary(out, "simulate-stratified")["pass"] is False
        # a step beyond the initial limit is still a config error
        cfg = write_config(tmp_path, "c.json", dict(payload, dt=1.5 * limit))
        code = cli.main(["simulate-stratified", "--config", cfg,
                         "--out", str(tmp_path / "p")])
        assert code == cli.CONFIG_ERROR

    def test_motionless_column_without_depth_is_flagged(self, tmp_path,
                                                        capsys):
        # no speed at all: the initial limit is finite, not a division by
        # zero, and the depth floor flags the run on its first step
        cfg = write_config(tmp_path, "c.json", {
            "n_x": 32, "T": 0.1, "kappa": 0.0,
            "initial": {"kind": "gaussian", "width": 1e6,
                        "amplitudes": {"H_s": -0.5, "H_b": -0.7}}})
        out = tmp_path / "o"
        code = cli.main(["simulate-stratified", "--config", cfg,
                         "--out", str(out)])
        assert code == cli.INCONCLUSIVE
        assert "cell thickness fell to" in capsys.readouterr().err
        assert read_summary(out, "simulate-stratified")["pass"] is False

    @pytest.mark.parametrize("command", ["simulate-stratified",
                                         "simulate-bilayer"])
    @pytest.mark.parametrize("dt", [None, 0.01])
    def test_zero_depth_with_diffusion_is_flagged(self, tmp_path, capsys,
                                                  command, dt):
        # both layers at exactly zero depth somewhere: d_x h / (1 + h) is
        # infinite there, which once gave an initial limit of 0 (a
        # ZeroDivisionError) or failed a given dt against it (exit 2)
        payload = {"n_x": 32, "T": 0.1, "kappa": 0.1,
                   "initial": {"kind": "gaussian", "width": 1e6,
                               "amplitudes": {"H_s": -1.0 / 3.0,
                                              "H_b": -2.0 / 3.0}}}
        if dt is not None:
            payload["dt"] = dt
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        code = cli.main([command, "--config", cfg, "--out", str(out)])
        assert code == cli.INCONCLUSIVE
        assert "cell thickness fell to 0.000e+00" in capsys.readouterr().err
        assert read_summary(out, command)["pass"] is False

    def test_refine_blowup_warns_and_exits_inconclusive(self, tmp_path,
                                                        capsys):
        cfg = write_config(tmp_path, "c.json", {
            "n_x": 64, "n_r": 16, "T": 3.0,
            "initial": {"amplitudes": {"H_s": -0.32, "U_s": 1.5}}})
        out = tmp_path / "o"
        code = cli.main(["refine", "--config", cfg, "--out", str(out)])
        assert code == cli.INCONCLUSIVE
        assert "warning: " in capsys.readouterr().err
        assert read_summary(out, "refine")["pass"] is False

    def test_refine_consistency(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "n_x": 64, "n_r": 24, "T": 0.2, "epsilon": 0.03})
        out = tmp_path / "o"
        code = cli.main(["refine", "--config", cfg, "--out", str(out)])
        assert code == cli.PASS
        data = np.genfromtxt(out / "residuals.csv", delimiter=",",
                             names=True)
        assert float(np.max(data["ratio"])) <= 1.0 + 1e-9
