"""Tests for the sweep/fit/suite orchestration layer."""

import io
import json
import math
import types

import numpy as np
import pytest

import oracles
import pycnolab.stratified
from pycnolab import bilayer, cli, harness, hyperbolicity
from pycnolab.core import LevelGrid, SpatialGrid


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


def test_config_count_reads_whole_numbers_only():
    cfg = {"a": 7, "b": 2.0, "c": 2.7, "d": "3", "e": None, "f": True}
    assert harness.config_count(cfg, "a", 1) == 7
    assert harness.config_count(cfg, "b", 1) == 2
    assert harness.config_count(cfg, "missing", 5) == 5
    for key in "cdef":
        with pytest.raises(harness.ConfigError, match=f"{key} must be"):
            harness.config_count(cfg, key, 1)


def test_config_real_rejects_non_numbers():
    cfg = {"a": 0.5, "b": 2, "c": True, "d": "3", "e": None,
           "f": 10 ** 400, "params": {"rho_b": False, "rho_s": 0.25}}
    assert harness.config_real(cfg, "a", 1.0) == 0.5
    assert harness.config_real(cfg, "b", 1.0) == 2.0
    assert type(harness.config_real(cfg, "b", 1.0)) is float
    assert harness.config_real(cfg, "missing", 1.5) == 1.5
    assert harness.config_real(cfg, "params.rho_s", 1.0) == 0.25
    # null stays null only where the key is optional
    assert harness.config_real(cfg, "e", None) is None
    assert harness.config_real(cfg, "missing", None) is None
    for key in ("c", "d", "e", "f", "params.rho_b"):
        with pytest.raises(harness.ConfigError, match=f"{key} must be a "
                                                      f"number"):
            harness.config_real(cfg, key, 1.0)


def test_config_reals_reads_each_item():
    cfg = {"a": [1, 0.5], "b": [0.1, True], "c": 0.5, "d": "0.5"}
    assert harness.config_reals(cfg, "a", ()) == [1.0, 0.5]
    assert harness.config_reals(cfg, "missing", (2.0,)) == [2.0]
    with pytest.raises(harness.ConfigError, match=r"b\[1\] must be a number"):
        harness.config_reals(cfg, "b", ())
    for key in "cd":
        with pytest.raises(harness.ConfigError, match=f"{key} must be a list"):
            harness.config_reals(cfg, key, ())


def test_config_positive_rejects_booleans():
    cfg = {"a": 0.5, "b": 2, "c": True, "d": False}
    assert harness.config_positive(cfg, "a", 1.0) == 0.5
    assert harness.config_positive(cfg, "b", 1.0) == 2.0
    assert harness.config_positive(cfg, "missing", None) is None
    for key in "cd":
        with pytest.raises(harness.ConfigError, match=f"{key} must be"):
            harness.config_positive(cfg, key, 1.0)


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

    @pytest.mark.parametrize("sweep, key", [
        (harness.sweep_kappa, "kappas"), (harness.sweep_epsilon, "epsilons")])
    def test_narrow_span_rejected_before_any_run(self, monkeypatch, sweep,
                                                 key):
        # zero amplitudes would make every distance vanish and pass without
        # a fit: the abscissa alone decides, before any member runs
        def run(*args, **kwargs):
            raise AssertionError("a sweep member ran")

        monkeypatch.setattr(bilayer, "integrate", run)
        monkeypatch.setattr(pycnolab.stratified, "integrate", run)
        cfg = {key: [1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2],
               "initial": {"amplitudes": {}}}
        with pytest.raises(ValueError, match="decades"):
            sweep(cfg)

    @pytest.mark.parametrize("sweep", [harness.sweep_kappa,
                                       harness.sweep_epsilon])
    @pytest.mark.parametrize("key, value", [
        ("expected_slope", math.nan), ("expected_slope", math.inf),
        ("slope_tolerance", math.nan), ("slope_tolerance", math.inf),
        ("slope_tolerance", -0.1)])
    def test_slope_gate_checked_before_any_run(self, monkeypatch, sweep,
                                               key, value):
        # a NaN slope or a NaN or negative tolerance failed every sweep
        # after all its runs, an infinite tolerance passed every sweep
        def run(*args, **kwargs):
            raise AssertionError("a sweep member ran")

        monkeypatch.setattr(bilayer, "integrate", run)
        monkeypatch.setattr(pycnolab.stratified, "integrate", run)
        with pytest.raises(harness.ConfigError, match="finite expected_slope"):
            sweep({"n_x": 32, "T": 0.05, key: value})

    def test_nonpositive_kappa_rejected(self):
        cfg = dict(SMALL_KAPPA_CFG)
        cfg["kappas"] = [0.0, 1e-3, 1e-2, 1e-1]
        with pytest.raises(ValueError):
            harness.sweep_kappa(cfg)

    def test_difference_norm_is_the_combined_norm(self, monkeypatch):
        # the norm of the stacked difference, bit for bit, with no state
        # built for it
        grid = SpatialGrid(64)
        a = bilayer.make_initial(grid, "sine", {"H_s": 0.05, "U_b": 0.02})
        b = bilayer.make_initial(grid, "gaussian", {"H_b": 0.03})
        diff = bilayer.BilayerState(0.0, grid, a.stacked - b.stacked)
        want = [bilayer.combined_norm(diff, s) for s in (0.0, 2.0)]
        monkeypatch.setattr(bilayer.BilayerState, "__init__", None)
        got = [bilayer.stacked_norm(grid, a.stacked - b.stacked, s)
               for s in (0.0, 2.0)]
        assert got == want


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


def scalar_state_point(rng, frac_high):
    """One random state the point-by-point way, seven scalar draws: the
    StatePoint and the (Fr_-, Fr_+) pair solved to place its shear."""
    frac = rng.uniform(0.0, frac_high)
    rho_b = rng.uniform(0.5, 2.0)
    rho_s = rho_b * rng.uniform(0.05, 0.95)
    H_s = rng.uniform(0.1, 2.0)
    H_b = rng.uniform(0.1, 2.0)
    U_s = rng.uniform(-1.0, 1.0)
    fr_minus, fr_plus = hyperbolicity.critical_froude(H_s / H_b,
                                                      rho_s / rho_b)
    if frac <= 1.0:
        shear = frac * fr_minus
    else:
        shear = fr_minus + (frac - 1.0) * (fr_plus - fr_minus)
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    U_b = U_s + sign * shear * math.sqrt(H_b)
    return (hyperbolicity.StatePoint(rho_s, rho_b, H_s, H_b, U_s, U_b),
            (fr_minus, fr_plus))


class TestStatePoints:
    def test_block_draw_matches_scalar_draws(self):
        for n, frac_high in ((1, 0.8), (70, 2.4), (130, 2.4)):
            rng = np.random.default_rng(8)
            ref = np.random.default_rng(8)
            states = harness.random_states(rng, n, frac_high)
            assert states.shape == (n, 8)
            for i, state in enumerate(states):
                want, thresholds = scalar_state_point(ref, frac_high)
                assert state.tolist() == [
                    want.rho_s, want.rho_b, want.H_s, want.H_b, want.U_s,
                    want.U_b, *thresholds], f"point {i} of {n}"
                # the suites' messages name a row by this point's repr,
                # which also pins plain floats
                point = hyperbolicity.StatePoint(*state[:6].tolist())
                assert repr(point) == repr(want), f"point {i} of {n}"
            assert rng.uniform() == ref.uniform(), "generator left elsewhere"

    def test_symmetrizer_suite_stops_drawing_where_scalar_loop_does(self):
        # the Lipschitz suite reads the same generator next
        for n in (3, 70):
            rng = np.random.default_rng(9)
            ok, detail = harness._suite_symmetrizer(rng, n)
            assert ok and detail.startswith(f"{n} points certified"), detail
            ref = np.random.default_rng(9)
            done = 0
            while done < n:
                point, (fr_minus, _) = scalar_state_point(ref, 0.8)
                ratio = point.H_s / point.H_b
                done += hyperbolicity.in_sigma_set(
                    0.1, point.rho_ratio, ratio, ratio, point.H_s + point.H_b,
                    lambda: fr_minus
                    - abs(point.U_b - point.U_s) / np.sqrt(point.H_b))
            assert rng.uniform() == ref.uniform(), f"n_points = {n}"

    def test_classification_suite_names_first_mismatch(self, monkeypatch):
        def miscounted(*arrays):
            report = hyperbolicity.classify_arrays(*arrays)
            report.real_count = np.full_like(report.real_count, 3)
            return report

        monkeypatch.setattr(harness, "classify_arrays", miscounted)
        ok, detail = harness._suite_classification(
            np.random.default_rng(2), 10)
        ref = np.random.default_rng(2)
        point, _ = scalar_state_point(ref, 2.4)
        while hyperbolicity.classify(point).degenerate:
            point, _ = scalar_state_point(ref, 2.4)
        assert not ok
        assert detail.startswith(f"root-count mismatch at {point}: "
                                 f"classifier 3, direct eigenvalues ")

    def test_classification_suite_solves_thresholds_once(self, monkeypatch):
        calls, blocks = [], []
        classify_block = hyperbolicity.classify_arrays

        def counted(*args, **kwargs):
            calls.append(np.size(args[0]))
            return hyperbolicity.critical_froude(*args, **kwargs)

        def counted_classify(*arrays):
            blocks.append(np.size(arrays[0]))
            return classify_block(*arrays)

        monkeypatch.setattr(harness, "critical_froude", counted)
        monkeypatch.setattr(harness, "classify_arrays", counted_classify)
        ok, detail = harness._suite_classification(
            np.random.default_rng(0), 1000)
        assert ok, detail
        assert calls == [1000]
        assert blocks == [1000]
        # smaller blocks split the same points and reach the same verdict
        monkeypatch.setattr(harness, "_BLOCK", 64)
        calls.clear(), blocks.clear()
        assert harness._suite_classification(
            np.random.default_rng(0), 1000) == (ok, detail)
        assert calls == [1000]
        assert blocks == [64] * 15 + [40]

    def test_symmetrizer_suite_certifies_each_block_once(self, monkeypatch):
        blocks, certified, eigensolves = [], [], []
        draw = harness.random_states
        certify = harness.certify_arrays
        eigvalsh = np.linalg.eigvalsh

        def counted_draw(rng, n, frac_high):
            blocks.append(n)
            return draw(rng, n, frac_high)

        def counted_certify(*arrays):
            certified.append(np.size(arrays[0]))
            return certify(*arrays)

        def counted_eigvalsh(a, *args, **kwargs):
            eigensolves.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(harness, "random_states", counted_draw)
        monkeypatch.setattr(harness, "certify_arrays", counted_certify)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        ok, detail = harness._suite_symmetrizer(np.random.default_rng(0), 400)
        assert ok and detail.startswith("400 points certified"), detail
        # the first draw is every point still needed; the points it
        # leaves outside the margin set are drawn again
        assert blocks[0] == 400 and len(blocks) > 1
        assert len(certified) == len(blocks) and sum(certified) == 400
        # one stacked eigensolve per block, none per point
        assert eigensolves == [(n, 4, 4) for n in certified]

    def test_thresholds_are_solved_once(self, monkeypatch):
        calls = []
        solve = hyperbolicity.critical_froude

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(hyperbolicity, "critical_froude", counted)
        rng = np.random.default_rng(4)
        states = harness.random_states(rng, 2, 0.8)
        # the pair solved to place the shear is handed to the cores as is
        arrays = harness.state_arrays(states)
        hyperbolicity.classify_arrays(*arrays)
        hyperbolicity.certify_arrays(*arrays)
        assert calls == []

        # a point solves its own pair once, on first read
        fresh = hyperbolicity.StatePoint(0.5, 1.0, 0.8, 1.1, 0.0, 0.1)
        hyperbolicity.classify(fresh)
        hyperbolicity.classify(fresh)
        hyperbolicity.certify_arrays(*oracles.point_arrays([fresh]))
        assert len(calls) == 1


def lipschitz_triples(rng, n):
    """The Lipschitz suite's draws, one (rho1, rho2, h) triple at a time."""
    for _ in range(n):
        n_r = int(rng.integers(4, 48))
        rho1 = rng.uniform(0.2, 4.0, n_r)
        rho2 = np.abs(rho1 + rng.uniform(-0.5, 0.5, n_r)) + 0.05
        yield rho1, rho2, rng.standard_normal((n_r, 16))


class TestLipschitzSuite:
    def test_blocks_match_triple_loop(self, monkeypatch):
        batched = pycnolab.stratified.montgomery_lipschitz_ratios
        rows = []

        def recorded(levels, rho1, rho2, h):
            assert levels == LevelGrid.uniform(rho1.shape[1])
            ratios = batched(levels, rho1, rho2, h)
            rows.extend(zip(rho1, rho2, h, ratios.tolist()))
            return ratios

        monkeypatch.setattr(pycnolab.stratified,
                            "montgomery_lipschitz_ratios", recorded)
        for seed in (0, 1, 7):
            rows.clear()
            rng = np.random.default_rng(seed)
            ok, detail = harness._suite_lipschitz(rng, 60)
            ref = np.random.default_rng(seed)
            want = [(rho1, rho2, h, oracles.montgomery_lipschitz_ratio(
                rho1, rho2, LevelGrid.uniform(rho1.size).w, h))
                for rho1, rho2, h in lipschitz_triples(ref, 60)]
            # each block holds one level count's triples in draw order
            sizes = [w[0].size for w in want]
            assert min(sizes.count(n) for n in sizes) == 1
            got = sorted(rows, key=lambda row: row[0].size)
            assert len(got) == len(want)
            for g, w in zip(got, sorted(want, key=lambda row: row[0].size)):
                for a, b in zip(g[:3], w[:3]):
                    assert np.array_equal(a, b)
                assert g[3] == w[3], f"seed {seed}: {g[3]!r} != {w[3]!r}"
            worst = max(w[3] for w in want)
            assert ok and detail == f"worst ratio {worst:.12f} over 60 triples"
            assert rng.uniform() == ref.uniform(), f"seed {seed}"


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

    def test_random_suites_build_no_state_points(self, monkeypatch):
        built = []
        check = hyperbolicity.StatePoint.__post_init__

        def counted(self, *args):
            built.append(self)
            check(self, *args)

        monkeypatch.setattr(hyperbolicity.StatePoint, "__post_init__",
                            counted)
        report = harness.check_all({"seed": 7})
        assert report["passed"], report
        assert built == []
        # the count sees a point built to name a failure
        hyperbolicity.StatePoint(0.5, 1.0, 0.4, 0.6, 0.0, 0.1)
        assert len(built) == 1

    def test_kappa_zero_skips_residual_suite(self):
        report = harness.check_all({"seed": 1, "n_points": 10, "kappa": 0.0})
        by_name = {row["name"]: row for row in report["suites"]}
        assert by_name["bd-residual"]["status"] == "skip"
        assert report["passed"]

    def test_fractional_seed_is_rejected(self):
        # a seed of 2.7 is a config error, not a run stamped seed=2
        with pytest.raises(harness.ConfigError):
            harness.check_all({"seed": 2.7, "n_points": 3})

    def test_check_all_cost(self, monkeypatch):
        # Richardson marches base, base/2, base/4 and base/8 with no
        # base/32 reference run (467 two-layer steps per call with it).
        # The conservation runs step at the default headroom below their
        # initial limit (232 steps per call at the limit itself), where
        # the closed-form bound certifies every step: the quartic is
        # solved only for the initial limits and where the pointwise
        # bound leaves room (965 matrices per call at the limit, 6,848
        # when every grid point was solved). The nine two-layer runs read
        # one shared margin table, and the 1,000 classification points
        # are one block
        steps, matrices, tables, blocks = [], [], [], []
        step, roots = bilayer.step, hyperbolicity.quartic_roots_batch
        table, classify = bilayer.froude_table, harness.classify_arrays
        monkeypatch.setattr(bilayer, "step",
                            lambda *a, **k: steps.append(1) or step(*a, **k))
        monkeypatch.setattr(hyperbolicity, "quartic_roots_batch",
                            lambda *c: matrices.append(np.size(c[0]))
                            or roots(*c))
        monkeypatch.setattr(bilayer, "froude_table", lambda *a, **k: (
            tables.append(a) or table(*a, **k)))
        monkeypatch.setattr(harness, "classify_arrays", lambda *a: (
            blocks.append(np.size(a[0])) or classify(*a)))
        bilayer._margin_nodes.cache_clear()
        for built in (1, 0):
            steps.clear(), matrices.clear(), tables.clear(), blocks.clear()
            report = harness.check_all({"seed": 7})
            assert report["passed"], report
            assert len(steps) == 238
            assert sum(matrices) < 100, (sum(matrices), len(matrices))
            assert len(tables) == built
            assert blocks == [1000]

    def test_richardson_suite_fails_first_order_finals(self, monkeypatch):
        # finals carrying an error c dt halve their differences per
        # halving: ratios near 2, outside the [8, 32] band
        integrate = bilayer.integrate

        def first_order(initial, params, T, dt, **kwargs):
            final = integrate(initial, params, T, dt=dt, **kwargs).final
            return types.SimpleNamespace(final=bilayer.BilayerState(
                final.t, final.grid, final.stacked + 0.1 * dt))

        monkeypatch.setattr(bilayer, "integrate", first_order)
        assert harness._suite_richardson() == (
            False, "halving ratios ['2.0', '2.0']")

    def test_corrupted_pressure_fails_embedding_suite(self, monkeypatch):
        orig = pycnolab.stratified.pressure_matrix
        monkeypatch.setattr(pycnolab.stratified, "pressure_matrix",
                            lambda profile: -orig(profile))
        report = harness.check_all({"seed": 5, "n_points": 10})
        by_name = {row["name"]: row for row in report["suites"]}
        assert by_name["embedding"]["status"] == "fail"
        assert not report["passed"]


class TestRefinedCheck:
    def test_suite_flags_a_blown_up_reference(self, monkeypatch):
        # the suite once handed a truncated reference to ReferenceRun,
        # whose "need at least 4 reference snapshots" ended check-all
        # with a config error; the recipe stops at the blown-up run
        zero_depth = {"kind": "gaussian", "width": 1e6,
                      "amplitudes": {"H_s": -1.0 / 3.0, "H_b": -2.0 / 3.0}}
        recipe = harness.refined_check
        monkeypatch.setattr(harness, "refined_check", lambda cfg: recipe(
            {**cfg, "initial": zero_depth}))
        assert harness._suite_refined(0.1) == (False,
                                               "reference run blew up")
        check = recipe({"n_x": 32, "n_r": 8, "initial": zero_depth})
        assert check.failed == "reference run" and check.series is None
        assert check.run.blown_up and not check.passed

    def test_refine_and_the_suite_run_one_recipe(self, tmp_path,
                                                 monkeypatch):
        configs = []
        recipe = harness.refined_check
        monkeypatch.setattr(harness, "refined_check", lambda cfg: (
            configs.append(dict(cfg)) or recipe(cfg)))
        ok, detail = harness._suite_refined(0.0)
        assert ok, detail
        code = cli.main(["refine", "--out", str(tmp_path / "o")])
        assert code == cli.PASS
        assert configs == [
            {"n_x": 64, "n_r": 32, "cluster": 4.0, "kappa": 0.1},
            {"n_x": 128}]


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

    def test_summary_shape(self, tmp_path):
        res = harness.sweep_kappa(SMALL_KAPPA_CFG)
        art = cli.Artifacts(str(tmp_path), 9)
        art.write("sweep_kappa.csv",
                  lambda f: harness.write_sweep_csv(res, f), comment=False)
        summary = art.summary("sweep-kappa", res.passed, res.fit)
        assert set(summary) == {"id", "seed", "pass", "slope", "interval",
                                "files"}
        assert summary["seed"] == 9 and summary["pass"] is True
        assert isinstance(summary["slope"], float)
        assert summary["files"] == ["sweep_kappa.csv"]
        with open(tmp_path / "sweep_kappa_summary.json",
                  encoding="utf-8") as f:
            assert json.load(f) == summary

    def test_svg_loglog_contains_points_and_fit(self):
        res = harness.sweep_kappa(SMALL_KAPPA_CFG)
        svg = harness.svg_loglog(res, "sweep-kappa")
        assert svg.startswith("<svg")
        assert "polyline" in svg and "slope" in svg

    def test_svg_polylines_basic(self):
        xs = np.linspace(0.0, 1.0, 5)
        svg = harness.svg_polylines([("a", xs, xs ** 2)], "demo")
        assert svg.startswith("<svg") and "polyline" in svg
