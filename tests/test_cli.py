"""End-to-end tests of the command-line front end and its exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pycnolab import bilayer, cli, stratified
from pycnolab.core import LevelGrid, SpatialGrid


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
    # the runtime is numpy only; scipy serves the tests alone
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, pycnolab.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


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


class TestSweepCommands:
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

    def test_refine_consistency(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "n_x": 64, "n_r": 24, "T": 0.2, "epsilon": 0.03})
        out = tmp_path / "o"
        code = cli.main(["refine", "--config", cfg, "--out", str(out)])
        assert code == cli.PASS
        data = np.genfromtxt(out / "residuals.csv", delimiter=",",
                             names=True)
        assert float(np.max(data["ratio"])) <= 1.0 + 1e-9
