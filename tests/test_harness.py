"""Tests for the sweep/fit/suite orchestration layer."""

import io

import numpy as np
import pytest

import pycnolab.stratified
from pycnolab import harness, hyperbolicity


class TestFitSlope:
    def test_exact_first_order(self):
        xs = np.array([1e-4, 1e-3, 1e-2, 1e-1])
        fit = harness.fit_slope(xs, 3.7 * xs)
        assert abs(fit.slope - 1.0) < 1e-12
        assert fit.interval < 1e-10
        assert fit.n_points == 4

    def test_exact_second_order(self):
        xs = np.array([1e-3, 1e-2, 1e-1, 1.0, 10.0])
        fit = harness.fit_slope(xs, 0.2 * xs ** 2)
        assert abs(fit.slope - 2.0) < 1e-12

    def test_noisy_points_recover_slope(self):
        rng = np.random.default_rng(11)
        xs = np.geomspace(1e-4, 1e-2, 5)
        ys = 2.5 * xs * np.exp(rng.uniform(-0.01, 0.01, 5))
        fit = harness.fit_slope(xs, ys)
        assert 0.9 <= fit.slope <= 1.1, f"slope {fit.slope} off target"
        assert fit.interval > 0.0

    def test_interval_covers_exact_slope_on_mild_noise(self):
        rng = np.random.default_rng(3)
        xs = np.geomspace(1e-4, 1e-1, 8)
        ys = xs ** 1.5 * np.exp(rng.normal(0.0, 0.005, 8))
        fit = harness.fit_slope(xs, ys)
        assert abs(fit.slope - 1.5) <= fit.interval + 0.05

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            harness.fit_slope([1.0, 2.0, 4.0], [1.0, 2.0, 4.0])

    def test_nonpositive_values(self):
        with pytest.raises(ValueError):
            harness.fit_slope([1.0, 2.0, 4.0, 8.0], [1.0, 0.0, 4.0, 8.0])
        with pytest.raises(ValueError):
            harness.fit_slope([1.0, -2.0, 4.0, 8.0], [1.0, 2.0, 4.0, 8.0])

    def test_equal_abscissae(self):
        with pytest.raises(ValueError):
            harness.fit_slope([2.0] * 4, [1.0, 2.0, 3.0, 4.0])

    def test_t_quantile_matches_scipy(self):
        # scipy is a test dependency only: an independent route
        from scipy import stats
        for dof in range(1, 201):
            want = float(stats.t.ppf(0.975, dof))
            got = harness.t_quantile(0.975, dof)
            assert abs(got - want) <= 1e-13 * want, f"dof {dof}: {got!r}"

    def test_t_quantile_rejects_bad_arguments(self):
        for p, dof in ((0.5, 3), (1.0, 3), (0.975, 0), (0.975, 2.5)):
            with pytest.raises(ValueError):
                harness.t_quantile(p, dof)


SMALL_KAPPA_CFG = {
    "n_x": 64, "T": 0.3,
    "kappas": [1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2],
    "initial": {"amplitudes": {"H_s": 0.05, "U_s": 0.02}},
    "expected_slope": 1.0, "slope_tolerance": 0.1,
}


class TestSweepKappa:
    def test_first_order_in_kappa(self):
        res = harness.sweep_kappa(SMALL_KAPPA_CFG)
        assert res.passed and not res.inconclusive
        assert abs(res.fit.slope - 1.0) <= 0.1, f"slope {res.fit.slope}"
        assert res.series["difference"].shape == (5,)
        # larger kappa, larger departure
        assert np.all(np.diff(res.series["difference"]) > 0.0)

    def test_blowup_is_inconclusive(self):
        cfg = dict(SMALL_KAPPA_CFG)
        cfg["initial"] = {"amplitudes": {"H_s": -0.31, "U_s": 0.9}}
        cfg["T"] = 1.0
        res = harness.sweep_kappa(cfg)
        assert res.inconclusive and not res.passed
        assert "blew up" in res.detail

    def test_narrow_span_rejected(self):
        cfg = dict(SMALL_KAPPA_CFG)
        cfg["kappas"] = [1e-3, 2e-3, 4e-3, 8e-3]
        with pytest.raises(ValueError, match="decades"):
            harness.sweep_kappa(cfg)

    def test_nonpositive_kappa_rejected(self):
        cfg = dict(SMALL_KAPPA_CFG)
        cfg["kappas"] = [0.0, 1e-3, 1e-2, 1e-1]
        with pytest.raises(ValueError):
            harness.sweep_kappa(cfg)


SMALL_EPS_CFG = {
    "n_x": 96, "n_r": 32, "T": 0.25, "kappa": 0.1, "cluster": 6.0,
    "epsilons": [8e-4, 2.53e-3, 8e-3, 2.53e-2, 8e-2],
    "initial": {"amplitudes": {"H_s": 0.05, "U_s": 0.02}},
    "expected_slope": 1.0, "slope_tolerance": 0.2,
}


class TestSweepEpsilon:
    def test_first_order_in_profile_distance(self):
        res = harness.sweep_epsilon(SMALL_EPS_CFG)
        assert res.passed and not res.inconclusive
        assert abs(res.fit.slope - 1.0) <= 0.2, f"slope {res.fit.slope}"
        for name in ("exterior", "exterior_sup", "all_levels"):
            assert np.all(np.diff(res.series[name]) > 0.0), name
        # the abscissa is the profile distance, not epsilon itself
        assert np.all(res.abscissa < np.array(SMALL_EPS_CFG["epsilons"]))

    def test_exterior_excludes_band(self):
        res = harness.sweep_epsilon(SMALL_EPS_CFG)
        assert np.all(res.series["exterior"] <= res.series["all_levels"])

    def test_band_swallowing_all_levels_is_inconclusive(self):
        cfg = dict(SMALL_EPS_CFG)
        cfg["band_factor"] = 9.0
        res = harness.sweep_epsilon(cfg)
        assert res.inconclusive
        assert "band" in res.detail


class TestStatePoints:
    def test_thresholds_are_solved_once(self, monkeypatch):
        calls = []
        solve = hyperbolicity.critical_froude

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(hyperbolicity, "critical_froude", counted)
        rng = np.random.default_rng(4)
        for frac in (0.3, 0.7):
            point = harness.random_state_point(rng, frac)
            hyperbolicity.classify(point)
            hyperbolicity.in_hyperbolic_set(point, 0.05)
            hyperbolicity.symmetrizer(point)
            assert calls == []
            # the pair solved to place the shear is handed over as is
            assert point.thresholds == solve(point.H_s / point.H_b,
                                             point.rho_ratio)

        fresh = hyperbolicity.StatePoint(0.5, 1.0, 0.8, 1.1, 0.0, 0.1)
        hyperbolicity.classify(fresh)
        hyperbolicity.in_hyperbolic_set(fresh, 0.05)
        hyperbolicity.symmetrizer(fresh)
        assert len(calls) == 1


class TestCheckAll:
    def test_all_suites_pass(self):
        report = harness.check_all({"seed": 5, "n_points": 40})
        assert report["passed"], report
        names = [row["name"] for row in report["suites"]]
        assert names == ["classification", "symmetrizer", "conservation",
                         "bd-residual", "embedding", "lipschitz",
                         "refined-consistency", "richardson"]
        for row in report["suites"]:
            assert row["status"] == "pass", row
        assert report["seed"] == 5

    def test_kappa_zero_skips_residual_suite(self):
        report = harness.check_all({"seed": 1, "n_points": 10, "kappa": 0.0})
        by_name = {row["name"]: row for row in report["suites"]}
        assert by_name["bd-residual"]["status"] == "skip"
        assert report["passed"]

    def test_corrupted_pressure_fails_embedding_suite(self, monkeypatch):
        orig = pycnolab.stratified.pressure_matrix
        monkeypatch.setattr(pycnolab.stratified, "pressure_matrix",
                            lambda profile: -orig(profile))
        report = harness.check_all({"seed": 5, "n_points": 10})
        by_name = {row["name"]: row for row in report["suites"]}
        assert by_name["embedding"]["status"] == "fail"
        assert not report["passed"]


class TestArtifacts:
    def test_sweep_csv_is_deterministic(self):
        res = harness.sweep_kappa(SMALL_KAPPA_CFG)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            harness.write_sweep_csv(res, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        lines = bufs[0].splitlines()
        assert lines[0] == "abscissa,difference"
        assert lines[-1].startswith("# sweep-kappa")
        assert len(lines) == 2 + 5

    def test_summary_shape(self):
        res = harness.sweep_kappa(SMALL_KAPPA_CFG)
        summary = harness.summary_dict("sweep-kappa", 9, res.passed,
                                       res.fit, ["sweep_kappa.csv"])
        assert set(summary) == {"id", "seed", "pass", "slope", "interval",
                                "files"}
        assert summary["seed"] == 9 and summary["pass"] is True
        assert isinstance(summary["slope"], float)

    def test_svg_loglog_contains_points_and_fit(self):
        res = harness.sweep_kappa(SMALL_KAPPA_CFG)
        svg = harness.svg_loglog(res, "sweep-kappa")
        assert svg.startswith("<svg")
        assert "polyline" in svg and "slope" in svg

    def test_svg_polylines_basic(self):
        xs = np.linspace(0.0, 1.0, 5)
        svg = harness.svg_polylines([("a", xs, xs ** 2)], "demo")
        assert svg.startswith("<svg") and "polyline" in svg
