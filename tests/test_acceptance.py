"""Acceptance gate: the ten headline checks, one pass/fail line each.

Each test prints `criterion NN <name>: PASS/FAIL (<measurements>)` so a
verbose run reads as a checklist. Tolerances and wall-clock budgets sit
in the criteria themselves; scales are chosen to leave wide margins.
"""

import math
import time

import numpy as np

import oracles
from pycnolab import bilayer, harness, refined, stratified
from pycnolab.core import LevelGrid, SpatialGrid
from pycnolab.hyperbolicity import (
    StatePoint,
    atlas,
    certify_arrays,
    classify,
    count_line_intersections,
    critical_froude,
    in_sigma_set,
)

PARAMS = bilayer.BilayerParams(0.5, 1.0, 1.0 / 3.0, 2.0 / 3.0)


def report(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def state_with_shear(rng, frac):
    """Random stable state with shear placed relative to the thresholds.

    frac <= 1 puts the shear at frac * Fr_minus; 1 < frac < 2 walks the
    elliptic window; frac >= 2 scales past Fr_plus.
    """
    rr = rng.uniform(0.05, 0.95)
    H_s = rng.uniform(0.2, 2.0)
    H_b = rng.uniform(0.2, 2.0)
    fr_minus, fr_plus = critical_froude(H_s / H_b, rr)
    if frac <= 1.0:
        shear = frac * fr_minus
    elif frac < 2.0:
        shear = fr_minus + (frac - 1.0) * (fr_plus - fr_minus)
    else:
        shear = (frac / 2.0) * fr_plus
    U_s = rng.uniform(-1.0, 1.0)
    U_b = U_s + rng.choice([-1.0, 1.0]) * shear * np.sqrt(H_b)
    return StatePoint(rho_s=rr, rho_b=1.0, H_s=H_s, H_b=H_b,
                      U_s=U_s, U_b=U_b)


class TestAcceptance:
    def test_c01_classification_against_brute_force(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(101)
        mismatches = 0
        counts = {"Hyperbolic": 0, "Elliptic": 0, "FastHyperbolic": 0}
        fracs = {"Hyperbolic": (0.0, 0.9), "Elliptic": (1.1, 1.9),
                 "FastHyperbolic": (2.1, 2.8)}
        for regime, (lo, hi) in fracs.items():
            for _ in range(1000):
                p = state_with_shear(rng, rng.uniform(lo, hi))
                rep = classify(p)
                brute = oracles.real_root_count_bruteforce(
                    p.rho_ratio, p.H_s, p.H_b, p.U_s, p.U_b)
                if rep.real_count != brute:
                    mismatches += 1
                counts[rep.regime] = counts.get(rep.regime, 0) + 1
        # the closed-form thresholds agree with a fine bisection
        worst_shift = 0.0
        for _ in range(40):
            h = rng.uniform(0.1, 10.0)
            rr = rng.uniform(0.05, 0.95)
            coarse = critical_froude(h, rr)
            fine = oracles.critical_froude_bisection(h, rr, tol=1e-13,
                                                     scan_points=1024)
            worst_shift = max(worst_shift,
                              abs(coarse[0] - fine[0]),
                              abs(coarse[1] - fine[1]))
        elapsed = time.monotonic() - t0
        ok = mismatches == 0 and worst_shift <= 1e-8 and elapsed < 10.0
        report(1, "classification vs brute force", ok,
               f"{mismatches} mismatches in 3000 points, threshold shift "
               f"{worst_shift:.2e}, {elapsed:.1f}s")

    def test_c02_atlas_counts_match_classifier(self):
        t0 = time.monotonic()
        h_ratio = PARAMS.Hbar_s / PARAMS.Hbar_b
        bad = 0
        total = 0
        for rr in (0.1, 0.5, 0.9):
            curves = atlas(h_ratio, rr, [0.5, 1.5, 2.5])
            for c in (0.5, 1.5, 2.5):
                crossings = count_line_intersections(curves, c)
                rep = classify(StatePoint(rho_s=rr, rho_b=1.0, H_s=h_ratio,
                                          H_b=1.0, U_s=0.0, U_b=c))
                total += 1
                if crossings != rep.real_count:
                    bad += 1
        elapsed = time.monotonic() - t0
        ok = bad == 0 and elapsed < 5.0
        report(2, "atlas intersection counts", ok,
               f"{total - bad}/{total} lines agree, {elapsed:.1f}s")

    def test_c03_symmetrizer_certificates(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(103)
        done = 0
        worst_asym = 0.0
        worst_minor_rel = 0.0
        failures = 0
        while done < 1000:
            p = state_with_shear(rng, rng.uniform(0.0, 0.8))
            arrays = oracles.point_arrays([p])
            rr, H_s, H_b, U_s, U_b, fr_minus, _ = arrays
            if not in_sigma_set(0.1, rr, H_s / H_b, H_s / H_b, H_s + H_b,
                                lambda: fr_minus
                                - np.abs(U_b - U_s) / np.sqrt(H_b)):
                continue
            sym = certify_arrays(*arrays)
            eigs = np.linalg.eigvalsh(sym.S[0])
            if not (sym.certified[0] and np.all(sym.minors[0] > 0.0)
                    and np.all(eigs > 0.0)):
                failures += 1
            worst_asym = max(worst_asym, sym.asymmetry[0])
            want = p.rho_ratio ** 2 * np.polyval(
                oracles.characteristic_polynomial(p), sym.lam[0])
            rel = abs(sym.minors[0, 3] - want) / (abs(want) + 1e-30)
            worst_minor_rel = max(worst_minor_rel, rel)
            done += 1
        elapsed = time.monotonic() - t0
        ok = (failures == 0 and worst_asym <= 1e-12
              and worst_minor_rel <= 1e-9 and elapsed < 10.0)
        report(3, "symmetrizer positivity", ok,
               f"{failures} failures in 1000, asymmetry {worst_asym:.1e}, "
               f"minor identity {worst_minor_rel:.1e}, {elapsed:.1f}s")

    def test_c04_conservation(self):
        t0 = time.monotonic()
        grid = SpatialGrid(128)
        initial = bilayer.make_initial(grid, amplitudes={"H_s": 0.05,
                                                         "U_s": 0.02})
        T = 1.0
        worst_mass = 0.0
        worst_mom = 0.0
        for kappa in (0.0, 0.01, 0.1):
            params = bilayer.BilayerParams(0.5, 1.0, 1.0 / 3.0, 2.0 / 3.0,
                                           kappa=kappa)
            dt = 0.9 * bilayer.cfl_limit(initial, params)
            traj = bilayer.integrate(initial, params, T, dt=dt,
                                     snapshot_every=10 ** 9)
            assert not traj.blown_up, f"kappa {kappa} run blew up"
            for name in ("H_s", "H_b"):
                drift = abs(getattr(traj.final, name).mean()
                            - getattr(initial, name).mean()) / T
                worst_mass = max(worst_mass, drift)
            if kappa == 0.0:
                for name in ("U_s", "U_b"):
                    drift = abs(getattr(traj.final, name).mean()
                                - getattr(initial, name).mean()) / T
                    worst_mom = max(worst_mom, drift)
        elapsed = time.monotonic() - t0
        ok = worst_mass <= 1e-12 and worst_mom <= 1e-12 and elapsed < 30.0
        report(4, "mass and momentum conservation", ok,
               f"mass drift {worst_mass:.1e}, plain momentum drift "
               f"{worst_mom:.1e} per unit time, {elapsed:.1f}s")

    def test_c05_total_velocity_residual_order(self):
        t0 = time.monotonic()
        grid = SpatialGrid(64)
        params = bilayer.BilayerParams(0.5, 1.0, 1.0 / 3.0, 2.0 / 3.0,
                                       kappa=0.1)
        initial = bilayer.make_initial(grid, amplitudes={"H_s": 0.05})
        T = 0.2
        base = bilayer.cfl_limit(initial, params)
        peaks = []
        for divisor in (2.0, 4.0, 8.0):
            traj = bilayer.integrate(initial, params, T, dt=base / divisor)
            _, res = bilayer.bd_residual(traj, params)
            peaks.append(float(np.max(res)))
        orders = [math.log2(peaks[i] / peaks[i + 1]) for i in range(2)]
        order = 0.5 * (orders[0] + orders[1])
        elapsed = time.monotonic() - t0
        ok = abs(order - 4.0) <= 0.3 and elapsed < 60.0
        report(5, "closed-system residual order", ok,
               f"three-point order {order:.2f} "
               f"(steps {orders[0]:.2f}, {orders[1]:.2f}), {elapsed:.1f}s")

    def test_c06_kappa_convergence_rate(self):
        t0 = time.monotonic()
        cfg = {"n_x": 256, "T": 0.5,
               "kappas": [1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2],
               "initial": {"amplitudes": {"H_s": 0.05, "U_s": 0.02}},
               "expected_slope": 1.0, "slope_tolerance": 0.1}
        res = harness.sweep_kappa(cfg)
        elapsed = time.monotonic() - t0
        ok = (not res.inconclusive and res.passed
              and abs(res.fit.slope - 1.0) <= 0.1 and elapsed < 300.0)
        report(6, "first-order rate in kappa", ok,
               f"slope {res.fit.slope:.4f} +- {res.fit.interval:.4f}, "
               f"{elapsed:.1f}s")

    def test_c07_exact_two_layer_embedding(self):
        t0 = time.monotonic()
        grid = SpatialGrid(128)
        levels = LevelGrid.with_interface(32, -PARAMS.Hbar_s)
        bistate = bilayer.make_initial(grid, amplitudes={"H_s": 0.05,
                                                         "U_b": 0.02})
        worst_rhs = 0.0
        for kappa in (0.0, 0.1):
            params = bilayer.BilayerParams(0.5, 1.0, 1.0 / 3.0, 2.0 / 3.0,
                                           kappa=kappa)
            profile, state = stratified.embed_bilayer(bistate, params,
                                                      levels)
            dH_s, dH_b, dU_s, dU_b = oracles.two_layer_rhs(
                bistate.stacked, params.rho_ratio, params.Hbar_s,
                params.Hbar_b, params.Ubar_s, params.Ubar_b, kappa,
                grid.length)
            dh, du = stratified.rhs(state, profile, kappa)
            want_h = oracles.embedded_rows(levels.r, -params.Hbar_s,
                                           dH_s / params.Hbar_s,
                                           dH_b / params.Hbar_b)
            want_u = oracles.embedded_rows(levels.r, -params.Hbar_s,
                                           dU_s, dU_b)
            worst_rhs = max(worst_rhs,
                            float(np.max(np.abs(dh - want_h))),
                            float(np.max(np.abs(du - want_u))))

        params = bilayer.BilayerParams(0.5, 1.0, 1.0 / 3.0, 2.0 / 3.0,
                                       kappa=0.1)
        profile, state = stratified.embed_bilayer(bistate, params, levels)
        T = 0.5
        dt = 0.9 * min(bilayer.cfl_limit(bistate, params),
                       stratified.cfl_limit(state, profile, params.kappa))
        strat = stratified.integrate(state, profile, params.kappa, T, dt=dt,
                                     snapshot_every=10 ** 9)
        assert not strat.blown_up
        H_s, H_b, U_s, U_b = oracles.two_layer_run(
            bistate.stacked, strat.dt, strat.n_steps, params.rho_ratio,
            params.Hbar_s, params.Hbar_b, params.Ubar_s, params.Ubar_b,
            params.kappa, grid.length)
        want_h = oracles.embedded_rows(levels.r, -params.Hbar_s,
                                       H_s / params.Hbar_s,
                                       H_b / params.Hbar_b)
        want_u = oracles.embedded_rows(levels.r, -params.Hbar_s, U_s, U_b)
        drift = max(float(np.max(np.abs(strat.final.h - want_h))),
                    float(np.max(np.abs(strat.final.u - want_u))))
        elapsed = time.monotonic() - t0
        ok = worst_rhs <= 1e-12 and drift <= 1e-8 and elapsed < 120.0
        report(7, "exact two-layer embedding", ok,
               f"time-derivative gap {worst_rhs:.1e}, trajectory gap "
               f"{drift:.1e} at T = {T}, {elapsed:.1f}s")

    def test_c08_montgomery_lipschitz_bound(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(108)
        grid = SpatialGrid(16)
        worst = 0.0
        for _ in range(1000):
            levels = LevelGrid.uniform(int(rng.integers(4, 48)))
            rho1 = rng.uniform(0.2, 4.0, levels.n_r)
            rho2 = np.abs(rho1 + rng.uniform(-0.5, 0.5, levels.n_r)) + 0.05
            h = rng.standard_normal((levels.n_r, grid.n_x))
            worst = max(worst, float(stratified.montgomery_lipschitz_ratios(
                levels, rho1[None], rho2[None], h[None])[0]))
        elapsed = time.monotonic() - t0
        ok = worst <= 1.0 + 1e-9 and elapsed < 10.0
        report(8, "pressure-gradient Lipschitz bound", ok,
               f"worst ratio {worst:.12f} over 1000 triples, {elapsed:.1f}s")

    def test_c09_refined_system_consistency(self):
        t0 = time.monotonic()
        grid = SpatialGrid(128)
        levels = LevelGrid.with_interface(32, -PARAMS.Hbar_s, cluster=4.0)
        kappa = 0.1
        bistate = bilayer.make_initial(grid, amplitudes={"H_s": 0.05,
                                                         "U_s": 0.02})
        sharp, state = stratified.embed_bilayer(bistate, PARAMS, levels)
        dt = stratified.cfl_limit(state, sharp, kappa) / 2.0
        reference = stratified.integrate(state, sharp, kappa, 0.3, dt=dt,
                                         snapshot_every=1)
        assert not reference.blown_up
        target, _ = stratified.smooth_pycnocline(
            stratified.PycnoclineSpec(PARAMS, 0.02, "tanh"), levels)
        forcing = refined.ReferenceRun(reference, target)
        run = refined.solve_refined(state, forcing, kappa, 0.3, dt=dt)
        assert not run.blown_up
        series = refined.consistency_residual(run, s=2.0)
        agreement = float(np.max(series.agreement))
        ratio = float(np.max(series.ratio))
        elapsed = time.monotonic() - t0
        ok = (agreement <= 1e-10 and ratio <= 1.0 + 1e-9
              and float(np.max(series.residual_hs)) > 0.0
              and elapsed < 120.0)
        report(9, "refined-system remainder", ok,
               f"path agreement {agreement:.1e}, bound ratio {ratio:.3f}, "
               f"{elapsed:.1f}s")

    def test_c10_epsilon_convergence_rate(self):
        t0 = time.monotonic()
        cfg = {"n_x": 256, "n_r": 64, "cluster": 6.0, "T": 0.5,
               "kappa": 0.1, "shape": "tanh",
               "epsilons": [8e-4, 2.53e-3, 8e-3, 2.53e-2, 8e-2],
               "initial": {"amplitudes": {"H_s": 0.05, "U_s": 0.02}},
               "expected_slope": 1.0, "slope_tolerance": 0.2}
        res = harness.sweep_epsilon(cfg)
        elapsed = time.monotonic() - t0
        span = float(res.abscissa.max() / res.abscissa.min())
        ok = (not res.inconclusive and res.passed
              and abs(res.fit.slope - 1.0) <= 0.2 and span >= 99.0
              and elapsed < 600.0)
        report(10, "first-order rate in profile distance", ok,
               f"slope {res.fit.slope:.4f} +- {res.fit.interval:.4f} over "
               f"{math.log10(span):.1f} decades, {elapsed:.1f}s")
