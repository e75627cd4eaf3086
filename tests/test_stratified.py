"""Stratified column tests: Montgomery operator, embedding, pycnoclines."""

import io

import numpy as np
import pytest

import oracles
from pycnolab.core import Field2D, LevelGrid, SpatialGrid
from pycnolab import bilayer, stratified
from pycnolab.stratified import (
    PycnoclineSpec,
    StratifiedProfile,
    StratifiedState,
    cfl_limit,
    column_rhs,
    embed_bilayer,
    integrate,
    layer_average,
    montgomery,
    montgomery_kernel,
    montgomery_lipschitz_check,
    pressure_matrix,
    profile_l1_distance,
    read_profile,
    read_state,
    rhs,
    rk4,
    self_pressure,
    smooth_pycnocline,
    step,
    wave_speed_estimate,
    write_profile,
    write_state,
)

PARAMS = bilayer.BilayerParams(0.5, 1.0, 1.0 / 3.0, 2.0 / 3.0)


def interface_levels(n_r=24):
    return LevelGrid.with_interface(n_r, -PARAMS.Hbar_s)


def random_profile(rng, levels, shear=0.0):
    rho = rng.uniform(0.5, 2.0, levels.n_r)
    ubar = shear * rng.standard_normal(levels.n_r)
    return StratifiedProfile(levels, rho, ubar)


def random_field(rng, grid, levels):
    return Field2D(rng.standard_normal((levels.n_r, grid.n_x)), grid, levels)


def embedded_pair(n_x=64, n_r=24, amplitudes=None):
    grid = SpatialGrid(n_x)
    if amplitudes is None:
        amplitudes = {"H_s": 0.05, "H_b": -0.02, "U_s": 0.03, "U_b": 0.01}
    bistate = bilayer.make_initial(grid, amplitudes=amplitudes)
    profile, state = embed_bilayer(bistate, PARAMS, interface_levels(n_r))
    return bistate, profile, state


def embed_rows(levels, upper_values, lower_values):
    """Stack per-layer rows the way embed_bilayer lays them out."""
    edge = levels.interface_edge_index(-PARAMS.Hbar_s)
    out = np.empty((levels.n_r, upper_values.size))
    out[:edge] = lower_values
    out[edge:] = upper_values
    return out


class TestProfile:

    def test_rejects_bad_values(self):
        levels = LevelGrid.uniform(8)
        with pytest.raises(ValueError):
            StratifiedProfile(levels, np.zeros(8), np.zeros(8))
        with pytest.raises(ValueError):
            StratifiedProfile(levels, -np.ones(8), np.zeros(8))
        with pytest.raises(ValueError):
            StratifiedProfile(levels, np.ones(7), np.zeros(7))
        bad = np.ones(8)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            StratifiedProfile(levels, bad, np.zeros(8))

    def test_lipschitz_bound_constant(self):
        levels = LevelGrid.uniform(4)
        rho = np.array([2.0, 1.0, 0.5, 0.25])
        prof = StratifiedProfile(levels, rho, np.zeros(4))
        want = max(float(np.sum(levels.w * rho)), 4.0)
        assert prof.M_bound == want


class TestMontgomery:

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(11)
        levels = interface_levels(17)
        grid = SpatialGrid(16)
        prof = random_profile(rng, levels)
        h = random_field(rng, grid, levels)
        psi = montgomery(prof, h)
        for j in range(grid.n_x):
            want = oracles.montgomery_by_loops(prof.rho, levels.w,
                                               h.values[:, j])
            err = np.max(np.abs(psi.values[:, j] - want))
            assert err <= 1e-13, f"column {j}: montgomery off by {err:.3e}"

    def test_zero_and_uniform_column(self):
        levels = LevelGrid.uniform(12)
        grid = SpatialGrid(16)
        prof = StratifiedProfile(levels, np.full(12, 1.3), np.zeros(12))
        zero = montgomery(prof, Field2D.zeros(grid, levels))
        assert np.all(zero.values == 0.0)
        # constant density, r-independent h: Psi = rho * h at every level
        h_x = np.cos(grid.x)
        h = Field2D(np.tile(h_x, (12, 1)), grid, levels)
        psi = montgomery(prof, h)
        assert np.max(np.abs(psi.values - 1.3 * h_x[None, :])) <= 1e-14

    def test_linear_and_commutes_with_x_derivative(self):
        rng = np.random.default_rng(12)
        levels = LevelGrid.uniform(10)
        grid = SpatialGrid(32)
        prof = random_profile(rng, levels)
        f = random_field(rng, grid, levels)
        g = random_field(rng, grid, levels)
        combo = Field2D(2.0 * f.values - 0.5 * g.values, grid, levels)
        lhs = montgomery(prof, combo).values
        rhs_ = 2.0 * montgomery(prof, f).values - 0.5 * montgomery(prof, g).values
        assert np.max(np.abs(lhs - rhs_)) <= 1e-12
        d_psi = grid.derivative(montgomery(prof, f).values)
        psi_d = montgomery(prof, Field2D(grid.derivative(f.values),
                                         grid, levels)).values
        assert np.max(np.abs(d_psi - psi_d)) <= 1e-12

    def test_two_layer_pressure_closed_form(self):
        bistate, profile, state = embedded_pair()
        pr = pressure_matrix(profile) @ state.h.values
        H_s, H_b = bistate.H_s.values, bistate.H_b.values
        want = embed_rows(state.levels, H_s + H_b,
                          PARAMS.rho_ratio * H_s + H_b)
        err = np.max(np.abs(pr - want))
        assert err <= 1e-14, f"embedded pressure off by {err:.3e}"

    def test_kernel_structure(self):
        rng = np.random.default_rng(13)
        levels = LevelGrid.uniform(6)
        prof = random_profile(rng, levels)
        W = montgomery_kernel(prof)
        for i in range(6):
            for j in range(6):
                assert W[i, j] == levels.w[j] * prof.rho[max(i, j)]

    def test_level_mismatch_rejected(self):
        rng = np.random.default_rng(14)
        grid = SpatialGrid(16)
        prof = random_profile(rng, LevelGrid.uniform(8))
        h = random_field(rng, grid, LevelGrid.uniform(9))
        with pytest.raises(ValueError):
            montgomery(prof, h)


class TestDynamics:

    def test_rest_state_rhs_zero(self):
        rng = np.random.default_rng(21)
        levels = LevelGrid.uniform(12)
        grid = SpatialGrid(32)
        prof = StratifiedProfile(levels, rng.uniform(0.5, 2.0, 12),
                                 np.zeros(12))
        state = StratifiedState.zeros(grid, levels)
        for kappa in (0.0, 0.1):
            dh, du = rhs(state, prof, kappa)
            assert np.all(dh.values == 0.0)
            assert np.all(du.values == 0.0)

    def test_embedded_rhs_matches_two_layer(self):
        # both the embedded column and the two-level column of the bilayer
        # module against the two-layer equations spelled out in oracles
        for kappa in (0.0, 0.1):
            bistate, profile, state = embedded_pair()
            params = bilayer.BilayerParams(PARAMS.rho_s, PARAMS.rho_b,
                                           PARAMS.Hbar_s, PARAMS.Hbar_b,
                                           kappa=kappa)
            want = oracles.two_layer_rhs(
                bistate.stacked(), params.rho_ratio, params.Hbar_s,
                params.Hbar_b, params.Ubar_s, params.Ubar_b, kappa,
                bistate.grid.length)
            dh, du = rhs(state, profile, kappa)
            want_h = embed_rows(state.levels, want[0] / PARAMS.Hbar_s,
                                want[1] / PARAMS.Hbar_b)
            want_u = embed_rows(state.levels, want[2], want[3])
            err_h = np.max(np.abs(dh.values - want_h))
            err_u = np.max(np.abs(du.values - want_u))
            assert err_h <= 1e-12, f"kappa {kappa}: dh off by {err_h:.3e}"
            assert err_u <= 1e-12, f"kappa {kappa}: du off by {err_u:.3e}"
            rhs_fn = (bilayer.rhs_diffusive if kappa > 0.0
                      else bilayer.rhs_nondiffusive)
            got = np.array([f.values for f in rhs_fn(bistate, params)])
            err = np.max(np.abs(got - want))
            assert err <= 1e-12, f"kappa {kappa}: two-level rhs off {err:.3e}"

    def test_constant_density_column_is_shallow_water(self):
        # r-independent data over a uniform background reduces every level
        # to the same one-layer system with unit gravity
        levels = LevelGrid.uniform(9)
        grid = SpatialGrid(64)
        prof = StratifiedProfile(levels, np.full(9, 1.7), np.full(9, 0.2))
        h_x = 0.04 * np.sin(grid.x)
        u_x = 0.02 * np.cos(2.0 * grid.x)
        state = StratifiedState.from_arrays(
            0.0, grid, levels, np.tile(h_x, (9, 1)), np.tile(u_x, (9, 1)))
        kappa = 0.05
        dh, du = rhs(state, prof, kappa)
        spread_h = np.max(dh.values.max(axis=0) - dh.values.min(axis=0))
        spread_u = np.max(du.values.max(axis=0) - du.values.min(axis=0))
        assert spread_h <= 1e-15, f"levels decoupled: {spread_h:.3e}"
        assert spread_u <= 1e-15, f"levels decoupled: {spread_u:.3e}"
        d = grid.derivative
        u_tot = 0.2 + u_x
        want_h = -d(grid.dealias((1.0 + h_x) * u_tot)) + kappa * d(h_x, order=2)
        adv = u_tot - kappa * d(h_x) / (1.0 + h_x)
        want_u = -grid.dealias(adv * d(u_x)) - d(h_x)
        assert np.max(np.abs(dh.values[4] - want_h)) <= 1e-13
        assert np.max(np.abs(du.values[4] - want_u)) <= 1e-13

    def test_fused_rhs_matches_derivative_composition(self):
        # white noise fills every mode, the Nyquist one and those at the
        # 2/3 cutoff included, which smooth data leaves empty
        rng = np.random.default_rng(23)
        levels = LevelGrid.uniform(16)
        grid = SpatialGrid(64)
        prof = random_profile(rng, levels, shear=0.3)
        h = 0.1 * rng.standard_normal((16, 64))
        u = 0.1 * rng.standard_normal((16, 64))
        state = StratifiedState.from_arrays(0.0, grid, levels, h, u)
        d, P = grid.derivative, pressure_matrix(prof)
        h_tot = 1.0 + h
        u_tot = prof.ubar[:, None] + u
        for kappa in (0.0, 0.1):
            want_h = -d(grid.dealias(h_tot * u_tot))
            adv = u_tot
            if kappa > 0.0:
                want_h = want_h + kappa * d(h, order=2)
                adv = u_tot - kappa * d(h) / h_tot
            want_u = -grid.dealias(adv * d(u)) - P @ d(h)
            dh, du = rhs(state, prof, kappa)
            for got, want in ((dh.values, want_h), (du.values, want_u)):
                err = np.max(np.abs(got - want)) / np.max(np.abs(want))
                assert err <= 1e-12, f"kappa {kappa}: relative gap {err:.3e}"

    def test_depth_floor_aborts(self):
        levels = LevelGrid.uniform(6)
        grid = SpatialGrid(16)
        prof = StratifiedProfile(levels, np.ones(6), np.zeros(6))
        h = np.zeros((6, 16))
        h[2, 5] = -1.0 + 5e-7
        state = StratifiedState.from_arrays(0.0, grid, levels, h,
                                            np.zeros((6, 16)))
        with pytest.raises(bilayer.BlowUpError):
            rhs(state, prof, 0.0)

    def test_negative_kappa_rejected(self):
        grid = SpatialGrid(16)
        levels = LevelGrid.uniform(4)
        prof = StratifiedProfile(levels, np.ones(4), np.zeros(4))
        with pytest.raises(ValueError):
            rhs(StratifiedState.zeros(grid, levels), prof, -0.1)


class TestStepIntegrate:

    def test_rest_state_is_fixed(self):
        levels = LevelGrid.uniform(8)
        grid = SpatialGrid(16)
        prof = StratifiedProfile(levels, np.linspace(2.0, 1.0, 8),
                                 np.zeros(8))
        traj = integrate(StratifiedState.zeros(grid, levels), prof, 0.05,
                         T=0.5)
        assert np.all(traj.final.h.values == 0.0)
        assert np.all(traj.final.u.values == 0.0)
        assert not traj.blown_up

    def test_cfl_rejection(self):
        _, profile, state = embedded_pair()
        limit = cfl_limit(state, profile, 0.0)
        with pytest.raises(ValueError):
            step(state, profile, 0.0, 2.0 * limit)

    def test_embedded_trajectory_matches_two_layer(self):
        kappa = 0.1
        bistate, profile, state = embedded_pair()
        params = bilayer.BilayerParams(PARAMS.rho_s, PARAMS.rho_b,
                                       PARAMS.Hbar_s, PARAMS.Hbar_b,
                                       kappa=kappa)
        dt = min(bilayer.cfl_limit(bistate, params),
                 cfl_limit(state, profile, kappa))
        T = 0.25
        btr = bilayer.integrate(bistate, params, T, dt=dt,
                                snapshot_every=10 ** 9)
        strj = integrate(state, profile, kappa, T, dt=dt,
                         snapshot_every=10 ** 9)
        assert btr.n_steps == strj.n_steps
        bf, sf = btr.final, strj.final
        want_h = embed_rows(state.levels, bf.H_s.values / PARAMS.Hbar_s,
                            bf.H_b.values / PARAMS.Hbar_b)
        want_u = embed_rows(state.levels, bf.U_s.values, bf.U_b.values)
        err = max(np.max(np.abs(sf.h.values - want_h)),
                  np.max(np.abs(sf.u.values - want_u)))
        assert err <= 1e-10, f"embedded run drifted from two-layer: {err:.3e}"

    def test_per_level_mass_conserved(self):
        rng = np.random.default_rng(31)
        levels = LevelGrid.uniform(10)
        grid = SpatialGrid(64)
        prof = StratifiedProfile(levels, np.linspace(1.8, 1.0, 10),
                                 0.1 * rng.standard_normal(10))
        h = 0.03 * np.sin(grid.x)[None, :] * np.cos(np.pi * levels.r)[:, None]
        u = 0.02 * np.cos(grid.x)[None, :] * (1.0 + levels.r)[:, None]
        state = StratifiedState.from_arrays(0.0, grid, levels, h, u)
        traj = integrate(state, prof, 0.05, T=0.5, snapshot_every=10 ** 9)
        drift = np.max(np.abs(traj.diagnostics["mass"][-1]
                              - traj.diagnostics["mass"][0]))
        assert drift <= 1e-12, f"per-level mass drifted by {drift:.3e}"

    def test_r_independence_preserved(self):
        levels = LevelGrid.uniform(7)
        grid = SpatialGrid(32)
        prof = StratifiedProfile(levels, np.full(7, 1.2), np.full(7, -0.1))
        h_x = 0.05 * np.sin(grid.x)
        state = StratifiedState.from_arrays(
            0.0, grid, levels, np.tile(h_x, (7, 1)), np.zeros((7, 32)))
        traj = integrate(state, prof, 0.02, T=0.4, snapshot_every=10 ** 9)
        fh = traj.final.h.values
        fu = traj.final.u.values
        assert np.max(fh.max(axis=0) - fh.min(axis=0)) <= 1e-14
        assert np.max(fu.max(axis=0) - fu.min(axis=0)) <= 1e-14

    def test_fourth_order_in_dt(self):
        _, profile, state = embedded_pair(n_x=32, n_r=12)
        kappa = 0.05
        T = 0.2
        base = cfl_limit(state, profile, kappa) / 2.0
        mults = (2, 4, 8, 16)
        finest = integrate(state, profile, kappa, T, dt=base / 32.0,
                           snapshot_every=10 ** 9).final
        errs = []
        for m in mults:
            run = integrate(state, profile, kappa, T, dt=base / m,
                            snapshot_every=10 ** 9).final
            errs.append(max(np.max(np.abs(run.h.values - finest.h.values)),
                            np.max(np.abs(run.u.values - finest.u.values))))
        for coarse, fine in zip(errs, errs[1:]):
            ratio = coarse / fine
            assert 8.0 <= ratio <= 32.0, (
                f"dt halving gave ratio {ratio:.1f}, errors {errs}")

    def test_kappa_zero_step_is_classical_rk4(self):
        # without diffusion the integrating factor is the identity: the
        # step is the textbook RK4 composition of column_rhs, bit for bit
        rng = np.random.default_rng(37)
        levels = LevelGrid.uniform(8)
        grid = SpatialGrid(32)
        prof = random_profile(rng, levels, shear=0.2)
        h = 0.05 * rng.standard_normal((8, 32))
        u = 0.05 * rng.standard_normal((8, 32))
        column = (grid, prof, 0.0, self_pressure(prof))
        t, dt = 0.3, 0.01
        k1 = column_rhs(h, u, t, *column)
        k2 = column_rhs(h + 0.5 * dt * k1[0], u + 0.5 * dt * k1[1],
                        t + 0.5 * dt, *column)
        k3 = column_rhs(h + 0.5 * dt * k2[0], u + 0.5 * dt * k2[1],
                        t + 0.5 * dt, *column)
        k4 = column_rhs(h + dt * k3[0], u + dt * k3[1], t + dt, *column)
        got = rk4(h, u, t, dt, *column)
        for i, y in enumerate((h, u)):
            want = y + (dt / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i]
                                     + k4[i])
            assert np.array_equal(got[i], want)

    def test_norm_ceiling_halts(self):
        _, profile, state = embedded_pair(n_x=32, n_r=12)
        traj = integrate(state, profile, 0.0, T=0.5, blowup_factor=0.9,
                         snapshot_every=1)
        assert traj.blown_up
        assert any("ceiling" in w for w in traj.warnings)
        assert traj.blowup_time is not None

    def test_speed_estimate_dominates_two_layer(self):
        bistate, profile, state = embedded_pair()
        fast = bilayer.grid_max_speed(bistate, PARAMS)
        est = wave_speed_estimate(state, profile)
        assert est >= 0.99 * fast, (
            f"estimate {est:.4f} fell below the two-layer speed {fast:.4f}")

    def test_speed_estimate_matches_dense_eigenproblem(self):
        # the symmetric form against max|eigvals(diag(depth)(1/rho)W)|,
        # including non-monotone densities with negative eigenvalues
        rng = np.random.default_rng(29)
        grid = SpatialGrid(32)
        negative = 0
        for trial in range(12):
            n_r = int(rng.integers(2, 40))
            levels = LevelGrid.with_interface(
                n_r, -rng.uniform(0.2, 0.8), cluster=rng.uniform(0.0, 6.0))
            rho = rng.uniform(0.5, 2.0, n_r)
            if trial % 2 == 0:
                rho = np.sort(rho)[::-1]
            prof = StratifiedProfile(levels, rho, 0.3 * rng.standard_normal(n_r))
            state = StratifiedState.from_arrays(
                0.0, grid, levels, 0.2 * rng.standard_normal((n_r, 32)),
                0.2 * rng.standard_normal((n_r, 32)))
            depth = np.max(1.0 + state.h.values, axis=1)
            c2 = oracles.dense_wave_speed_squared(rho, levels.w, depth)
            want = (np.max(np.abs(prof.ubar[:, None] + state.u.values))
                    + np.sqrt(c2))
            got = wave_speed_estimate(state, prof)
            assert abs(got - want) <= 1e-12 * want, (
                f"trial {trial}: {got!r} against {want!r}")
            K = depth[:, None] * pressure_matrix(prof)
            negative += bool(np.min(np.linalg.eigvals(K).real) < 0.0)
        assert negative >= 3, "no non-monotone profile was exercised"

    def test_level_without_depth_is_flagged(self):
        # a whole level below zero depth still gets a finite CFL step,
        # and the thickness floor then flags the run on its first step
        levels = LevelGrid.uniform(4)
        grid = SpatialGrid(16)
        prof = StratifiedProfile(levels, np.array([2.0, 1.5, 1.2, 1.0]),
                                 np.zeros(4))
        h = np.zeros((4, 16))
        h[1] = -1.5
        state = StratifiedState.from_arrays(0.0, grid, levels, h,
                                            np.zeros((4, 16)))
        assert np.isfinite(wave_speed_estimate(state, prof))
        traj = integrate(state, prof, 0.0, T=0.1)
        assert traj.blown_up
        assert "cell thickness" in traj.warnings[0]


class TestEmbedding:

    def test_field_transcription(self):
        grid = SpatialGrid(32)
        bistate = bilayer.make_initial(grid, amplitudes={"H_s": 0.04})
        levels = interface_levels(18)
        profile, state = embed_bilayer(bistate, PARAMS, levels)
        edge = levels.interface_edge_index(-PARAMS.Hbar_s)
        assert np.all(profile.rho[:edge] == PARAMS.rho_b)
        assert np.all(profile.rho[edge:] == PARAMS.rho_s)
        want_top = bistate.H_s.values / PARAMS.Hbar_s
        assert np.max(np.abs(state.h.values[edge:] - want_top[None, :])) == 0.0
        assert np.all(state.h.values[:edge] == 0.0)
        assert np.all(state.u.values == 0.0)

    def test_requires_interface_edge(self):
        grid = SpatialGrid(16)
        bistate = bilayer.make_initial(grid)
        with pytest.raises(ValueError):
            embed_bilayer(bistate, PARAMS, LevelGrid.uniform(10))

    def test_layer_average_roundtrip(self):
        bistate, _, state = embedded_pair()
        h_up, h_low, u_up, u_low = layer_average(state, PARAMS)
        assert np.max(np.abs(h_up - bistate.H_s.values / PARAMS.Hbar_s)) <= 1e-13
        assert np.max(np.abs(h_low - bistate.H_b.values / PARAMS.Hbar_b)) <= 1e-13
        assert np.max(np.abs(u_up - bistate.U_s.values)) <= 1e-13
        assert np.max(np.abs(u_low - bistate.U_b.values)) <= 1e-13


class TestPycnocline:

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PycnoclineSpec(PARAMS, 0.2, "tanh")   # wider than half a layer
        with pytest.raises(ValueError):
            PycnoclineSpec(PARAMS, 0.0, "tanh")
        with pytest.raises(ValueError):
            PycnoclineSpec(PARAMS, 0.05, "cosine")

    def test_distances_match_reference(self):
        refs = {"tanh": oracles.tanh_l1_distance,
                "erf": oracles.erf_l1_distance,
                "piecewise-linear": oracles.pwl_l1_distance}
        sheared = bilayer.BilayerParams(0.5, 1.0, 1.0 / 3.0, 2.0 / 3.0,
                                        Ubar_s=0.1, Ubar_b=-0.1)
        for shape, ref in refs.items():
            for eps in (0.003, 0.03, 0.15):
                spec = PycnoclineSpec(sheared, eps, shape)
                d_rho, d_ubar = profile_l1_distance(spec)
                want_rho = ref(eps, sheared.rho_b - sheared.rho_s,
                               sheared.Hbar_s, sheared.Hbar_b)
                want_u = ref(eps, sheared.Ubar_b - sheared.Ubar_s,
                             sheared.Hbar_s, sheared.Hbar_b)
                assert abs(d_rho - want_rho) <= 1e-12 * max(want_rho, 1.0)
                assert abs(d_ubar - want_u) <= 1e-12 * max(want_u, 1.0)

    def test_erf_ramp_matches_scipy(self):
        # the package uses math.erf; scipy is a test-only second route
        from scipy.special import erf
        X = np.linspace(-6.0, 6.0, 241)
        got = stratified._ramp(X, "erf")
        assert np.max(np.abs(got - 0.5 * (1.0 + erf(X)))) <= 1e-15
        for A in (1e-3, 0.3, 1.0, 2.5, 8.0, 50.0):
            want = 0.5 * (A * (1.0 - erf(A))
                          + (1.0 - np.exp(-A * A)) / np.sqrt(np.pi))
            assert abs(stratified._ramp_l1_tail(A, "erf") - want) <= 1e-15

    def test_distance_matches_quadrature(self):
        levels = LevelGrid.uniform(4096)
        spec = PycnoclineSpec(PARAMS, 0.02, "tanh")
        prof, dist = smooth_pycnocline(spec, levels)
        rho_bl = np.where(levels.r > -PARAMS.Hbar_s, PARAMS.rho_s,
                          PARAMS.rho_b)
        disc = float(np.sum(levels.w * np.abs(prof.rho - rho_bl)))
        assert abs(disc - dist["rho"]) <= 1e-6, (
            f"quadrature {disc:.9f} vs closed form {dist['rho']:.9f}")

    def test_profile_shape(self):
        levels = LevelGrid.uniform(64)
        prof, _ = smooth_pycnocline(PycnoclineSpec(PARAMS, 0.01, "erf"),
                                    levels)
        assert np.all(np.diff(prof.rho) <= 1e-15)  # lighter water above
        assert abs(prof.rho[0] - PARAMS.rho_b) <= 1e-9
        assert abs(prof.rho[-1] - PARAMS.rho_s) <= 1e-9

    def test_distance_scales_linearly_in_eps(self):
        levels = LevelGrid.uniform(32)
        prev = None
        for eps in (0.04, 0.02, 0.01, 0.005):
            _, dist = smooth_pycnocline(PycnoclineSpec(PARAMS, eps, "tanh"),
                                        levels)
            if prev is not None:
                ratio = dist["rho"] / prev
                assert abs(ratio - 0.5) <= 0.01, (
                    f"eps halving scaled the distance by {ratio:.4f}")
            prev = dist["rho"]


class TestLipschitz:

    def test_zero_cases(self):
        rng = np.random.default_rng(41)
        levels = LevelGrid.uniform(12)
        grid = SpatialGrid(16)
        prof = random_profile(rng, levels)
        h = random_field(rng, grid, levels)
        assert montgomery_lipschitz_check(prof, prof, h) == 0.0
        other = random_profile(rng, levels)
        zero = Field2D.zeros(grid, levels)
        assert montgomery_lipschitz_check(prof, other, zero) == 0.0

    def test_randomized_bound(self):
        rng = np.random.default_rng(42)
        grid = SpatialGrid(16)
        worst = 0.0
        for trial in range(200):
            levels = LevelGrid.uniform(int(rng.integers(4, 40)))
            rho1 = rng.uniform(0.2, 4.0, levels.n_r)
            rho2 = np.abs(rho1 + rng.uniform(-0.5, 0.5, levels.n_r)) + 0.05
            p1 = StratifiedProfile(levels, rho1, np.zeros(levels.n_r))
            p2 = StratifiedProfile(levels, rho2, np.zeros(levels.n_r))
            h = random_field(rng, grid, levels)
            ratio = montgomery_lipschitz_check(p1, p2, h)
            worst = max(worst, ratio)
        assert worst <= 1.0 + 1e-9, f"bound violated: worst ratio {worst}"

    def test_mismatched_levels_rejected(self):
        rng = np.random.default_rng(43)
        grid = SpatialGrid(16)
        p1 = random_profile(rng, LevelGrid.uniform(8))
        p2 = random_profile(rng, LevelGrid.uniform(10))
        with pytest.raises(ValueError):
            montgomery_lipschitz_check(p1, p2,
                                       random_field(rng, grid, p1.levels))


class TestCsvIO:

    def test_profile_roundtrip(self):
        rng = np.random.default_rng(51)
        levels = LevelGrid.with_interface(9, -0.25)
        prof = random_profile(rng, levels, shear=0.3)
        buf = io.StringIO()
        write_profile(prof, buf)
        buf.seek(0)
        back = read_profile(buf, levels)
        assert np.array_equal(back.rho, prof.rho)
        assert np.array_equal(back.ubar, prof.ubar)

    def test_profile_level_mismatch_rejected(self):
        rng = np.random.default_rng(52)
        prof = random_profile(rng, LevelGrid.uniform(6))
        buf = io.StringIO()
        write_profile(prof, buf)
        buf.seek(0)
        with pytest.raises(ValueError):
            read_profile(buf, LevelGrid.uniform(7))
        with pytest.raises(ValueError):
            read_profile(io.StringIO("r,density\n0.5,1.0\n"),
                         LevelGrid.uniform(6))

    def test_state_roundtrip(self):
        rng = np.random.default_rng(53)
        grid = SpatialGrid(16)
        levels = LevelGrid.uniform(5)
        state = StratifiedState.from_arrays(
            0.75, grid, levels, rng.standard_normal((5, 16)),
            rng.standard_normal((5, 16)))
        buf = io.StringIO()
        write_state(state, buf)
        buf.seek(0)
        back = read_state(buf, grid, levels, t=0.75)
        assert back.t == state.t
        assert np.array_equal(back.h.values, state.h.values)
        assert np.array_equal(back.u.values, state.u.values)

    def test_state_grid_mismatch_rejected(self):
        rng = np.random.default_rng(54)
        grid = SpatialGrid(16)
        levels = LevelGrid.uniform(5)
        state = StratifiedState.from_arrays(
            0.0, grid, levels, rng.standard_normal((5, 16)),
            rng.standard_normal((5, 16)))
        buf = io.StringIO()
        write_state(state, buf)
        buf.seek(0)
        with pytest.raises(ValueError):
            read_state(buf, SpatialGrid(16, length=5.0), levels)
