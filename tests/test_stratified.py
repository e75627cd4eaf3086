"""Stratified column tests: Montgomery operator, embedding, pycnoclines."""

import io

import numpy as np
import pytest

import oracles
from pycnolab.core import BlowUpError, Field1D, Field2D, LevelGrid, SpatialGrid
from pycnolab import bilayer, core, refined, stratified
from pycnolab.stratified import (
    PycnoclineSpec,
    StratifiedProfile,
    StratifiedState,
    cfl_limit,
    column_rhs,
    embed_bilayer,
    integrate,
    layer_average,
    montgomery_lipschitz_ratios,
    pressure_matrix,
    profile_l1_distance,
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


def arrays(state):
    """The (h, u) arrays a column step takes."""
    return state.h.values, state.u.values


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
    """Per-layer rows on levels with their interface at r = -Hbar_s."""
    return oracles.embedded_rows(levels.r, -PARAMS.Hbar_s, upper_values,
                                 lower_values)


def lipschitz_ratio(profile1, profile2, h):
    """`montgomery_lipschitz_ratios` of one triple, as a one-row stack."""
    return float(montgomery_lipschitz_ratios(
        profile1.levels, profile1.rho[None], profile2.rho[None],
        h.values[None])[0])


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
        # M = max(L1 of each density, sup of each 1/density): at scale 1
        # the sup of 1/rho1 = 4 wins, at scale 8 the L1 of rho2
        levels = LevelGrid.uniform(4)
        for scale in (1.0, 8.0):
            rho1 = scale * np.array([2.0, 1.0, 0.5, 0.25])
            rho2 = rho1.copy()
            rho2[0] += 0.5
            want = max(float(np.sum(levels.w * rho1)), 4.0 / scale,
                       float(np.sum(levels.w * rho2)))
            # only the bottom row of (1/rho) W moves, by w (rho1[1] +
            # rho1[2] + rho1[3]) (1/rho1[0] - 1/rho2[0]); with h = 1 the
            # bottom level carries the worst ratio
            gap = 0.25 * np.sum(rho1[1:]) * (1.0 / rho1[0] - 1.0 / rho2[0])
            bound = want ** 3 * 0.5 + want * 0.25 * 0.5
            ratio = montgomery_lipschitz_ratios(levels, [rho1], [rho2],
                                                np.ones((1, 4, 3)))
            assert ratio[0] == pytest.approx(gap / bound, rel=1e-12), scale


def loop_pressure(profile, h):
    """(1/rho) Psi of each column of h, from the loop reference."""
    return np.array([oracles.montgomery_by_loops(
        profile.rho, profile.levels.w, column) / profile.rho
        for column in h.T]).T


class TestMontgomery:
    """The production pressure (1/rho) W against the loop reference."""

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(11)
        levels = interface_levels(17)
        grid = SpatialGrid(16)
        prof = random_profile(rng, levels)
        h = random_field(rng, grid, levels).values
        err = np.max(np.abs(pressure_matrix(prof) @ h
                            - loop_pressure(prof, h)))
        assert err <= 1e-13, f"pressure off by {err:.3e}"

    def test_zero_and_uniform_column(self):
        levels = LevelGrid.uniform(12)
        grid = SpatialGrid(16)
        prof = StratifiedProfile(levels, np.full(12, 1.3), np.zeros(12))
        P = pressure_matrix(prof)
        zero = np.zeros((12, grid.n_x))
        assert np.all(P @ zero == 0.0)
        assert np.all(loop_pressure(prof, zero) == 0.0)
        # constant density, r-independent h: Psi = rho * h at every level,
        # so the pressure is h itself
        h_x = np.cos(grid.x)
        h = np.tile(h_x, (12, 1))
        assert np.max(np.abs(P @ h - h_x[None, :])) <= 1e-14
        assert np.max(np.abs(P @ h - loop_pressure(prof, h))) <= 1e-14

    def test_linear_and_commutes_with_x_derivative(self):
        rng = np.random.default_rng(12)
        levels = LevelGrid.uniform(10)
        grid = SpatialGrid(32)
        prof = random_profile(rng, levels)
        P = pressure_matrix(prof)
        f = random_field(rng, grid, levels).values
        g = random_field(rng, grid, levels).values
        combo = 2.0 * f - 0.5 * g
        assert np.max(np.abs(P @ combo - (2.0 * P @ f - 0.5 * P @ g))) <= 1e-12
        assert np.max(np.abs(P @ combo - loop_pressure(prof, combo))) <= 1e-12
        d_press = grid.derivative(P @ f)
        press_d = P @ grid.derivative(f)
        assert np.max(np.abs(d_press - press_d)) <= 1e-12
        assert np.max(np.abs(
            press_d - loop_pressure(prof, grid.derivative(f)))) <= 1e-12

    def test_two_layer_pressure_closed_form(self):
        bistate, profile, state = embedded_pair()
        pr = pressure_matrix(profile) @ state.h.values
        H_s, H_b = bistate.H_s.values, bistate.H_b.values
        want = embed_rows(state.levels, H_s + H_b,
                          PARAMS.rho_ratio * H_s + H_b)
        err = np.max(np.abs(pr - want))
        assert err <= 1e-14, f"embedded pressure off by {err:.3e}"

    @pytest.mark.parametrize("n_r", [2, 12, 64])
    def test_self_pressure_is_the_negated_product(self, n_r):
        # the bits of -((1/rho) W d_x h), signs of zero included: a
        # matmul with a negated kernel agrees on every nonzero entry but
        # gives +0 where the product is exactly zero (a rest state), and
        # a rest state's CSVs then read 0.0 where they read -0.0. n_r = 12
        # takes a random, non-monotone density
        rng = np.random.default_rng(n_r)
        levels = LevelGrid.uniform(n_r)
        rho = (rng.uniform(0.5, 2.0, n_r) if n_r == 12
               else np.linspace(2.0, 1.0, n_r))
        prof = StratifiedProfile(levels, rho, np.zeros(n_r))
        assert np.any(np.diff(rho) > 0.0) == (n_r == 12)
        dxh = rng.standard_normal((n_r, 64))
        dxh[:, :3] = 0.0
        out = np.empty_like(dxh)
        assert self_pressure(prof)(dxh, 0.0, out) is out
        want = -(pressure_matrix(prof) @ dxh)
        assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
        assert np.signbit(out[:, :3]).all()

    def test_kernel_structure(self):
        rng = np.random.default_rng(13)
        levels = LevelGrid.uniform(6)
        prof = random_profile(rng, levels)
        P = pressure_matrix(prof)
        w, rho = levels.w, prof.rho
        for i in range(6):
            for j in range(6):
                assert P[i, j] == w[j] * rho[max(i, j)] / rho[i]


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
            got = np.array([f.values for f in bilayer.rhs(bistate, params)])
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
        with pytest.raises(BlowUpError):
            rhs(state, prof, 0.0)

    def test_negative_kappa_rejected(self):
        grid = SpatialGrid(16)
        levels = LevelGrid.uniform(4)
        prof = StratifiedProfile(levels, np.ones(4), np.zeros(4))
        with pytest.raises(ValueError):
            rhs(StratifiedState.zeros(grid, levels), prof, -0.1)

    @pytest.mark.parametrize("kappa", [-0.1, float("nan"), float("inf")])
    def test_bad_kappa_rejected_by_rhs_and_integrate(self, kappa):
        # integrate once ran a negative kappa unflagged, NaN slipped past
        # rhs's sign check and inf died dividing by zero
        grid = SpatialGrid(16)
        levels = LevelGrid.uniform(4)
        prof = StratifiedProfile(levels, np.ones(4), np.zeros(4))
        state = StratifiedState.zeros(grid, levels)
        with pytest.raises(ValueError, match="kappa must be finite and "
                           "non-negative"):
            rhs(state, prof, kappa)
        with pytest.raises(ValueError, match="kappa must be finite and "
                           "non-negative"):
            integrate(state, prof, kappa, T=0.1)


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
            step(0.0, arrays(state), 2.0 * limit, state.grid, profile, 0.0)

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

    def test_steps_match_allocating_reference(self):
        # consecutive steps through one workspace equal the allocating
        # formula bit for bit (the spectral IF-RK4 at kappa > 0, the
        # physical one, i.e. classical RK4, at kappa = 0), on a column and
        # on the two-level column; each step returns fresh arrays, so a
        # result kept from step n is left alone by step n + 1
        rng = np.random.default_rng(43)
        grid = SpatialGrid(32)
        two_level = bilayer.BilayerParams(0.5, 1.0, 0.4, 0.6, Ubar_s=0.1,
                                          Ubar_b=-0.1).column
        dt = 0.01
        for kappa, reference in ((0.1, oracles.allocating_spectral_if_rk4),
                                 (0.0, oracles.allocating_if_rk4)):
            for prof in (random_profile(rng, LevelGrid.uniform(8), shear=0.2),
                         two_level):
                n_r = prof.levels.n_r
                column = (grid, prof, kappa, self_pressure(prof))
                work = stratified.ColumnWork(grid, n_r)
                h = 0.05 * rng.standard_normal((n_r, 32))
                u = 0.05 * rng.standard_normal((n_r, 32))
                want = (h, u)
                kept = []
                for i in range(4):
                    h, u = rk4(h, u, 0.3 + i * dt, dt, *column, work=work)
                    want = reference(
                        *want, dt, grid, prof, pressure_matrix(prof), kappa)
                    assert np.array_equal(h, want[0])
                    assert np.array_equal(u, want[1])
                    kept.append((h, u, want))
                for h, u, want in kept:
                    assert np.array_equal(h, want[0])
                    assert np.array_equal(u, want[1])

    def test_work_buffers_start_on_64_byte_boundaries(self):
        # a step transforms stacked blocks of two arrays; every block
        # starts on a 64-byte boundary, also where a block is not a
        # multiple of 64 bytes long (a complex (2, 17) block is 544 B)
        grid = SpatialGrid(32)
        for n_r in (2, 7):
            work = stratified.ColumnWork(grid, n_r)
            stacks = ((work.real, 6, (n_r, 32), float),
                      (work.spectra, 5, (n_r, 17), complex))
            for stack, k, shape, dtype in stacks:
                assert stack.shape == (k, *shape) and stack.dtype == dtype
                assert stack.flags.writeable
                for block in stack:
                    assert block.ctypes.data % 64 == 0
                    assert block.flags.c_contiguous
            named = [v for v in vars(work).values()
                     if isinstance(v, np.ndarray) and v.ndim == 2]
            assert len(named) == 8
            assert all(np.shares_memory(v, work.real)
                       or np.shares_memory(v, work.spectra) for v in named)

    def test_spectral_steps_track_physical_reference(self):
        # the spectral h side only reorders rounding: 20 kappa > 0 steps
        # of a 64 x 256 pycnocline column stay within 1e-13 (relative) of
        # the physical-space allocating IF-RK4 march
        levels = interface_levels(64)
        grid = SpatialGrid(256)
        prof, _ = smooth_pycnocline(PycnoclineSpec(PARAMS, 0.05), levels)
        _, start = embed_bilayer(bilayer.make_initial(grid), PARAMS, levels)
        kappa = 0.1
        dt = cfl_limit(start, prof, kappa)
        column = (grid, prof, kappa, self_pressure(prof))
        work = stratified.ColumnWork(grid, levels.n_r)
        got = want = (start.h.values, start.u.values)
        for i in range(20):
            got = rk4(*got, i * dt, dt, *column, work=work)
            want = oracles.allocating_if_rk4(
                *want, dt, grid, prof, pressure_matrix(prof), kappa)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))

    def test_step_transform_counts(self, monkeypatch):
        # fields transformed at the same point share one call. At
        # kappa > 0: k1 takes h and u in two rffts (the rfft of h also
        # feeds the step limit's drift and the spectral h side), one
        # irfft for (d_x h, d_x u), one rfft for (flux, adv d_x u) and
        # one irfft for the advection; a later stage's h, d_x h and d_x u
        # come from one irfft after the rfft of u; h1 takes one irfft:
        # 29 blocks (2 + 5 + 3 x 7 + 1) in 5 + 3 x 4 + 1 = 18 calls. At
        # kappa = 0 a stage input's (h, u) share one rfft and (dh, the
        # advection) one irfft: 32 blocks in 5 + 3 x 4 = 17 calls. Every
        # transform goes through core's pair; none through np.fft
        _, profile, state = embedded_pair(n_x=32, n_r=12)
        calls, numpy_calls = [], []
        for name in ("rfft", "irfft"):
            pair, real = getattr(core, name), getattr(np.fft, name)
            assert getattr(stratified, name) is pair

            def counted(a, out, _pair=pair):
                calls.append(a.shape[0] if a.ndim == 3 else 1)
                return _pair(a, out)

            def spied(*args, _real=real, _name=name, **kwargs):
                numpy_calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(stratified, name, counted)
            monkeypatch.setattr(np.fft, name, spied)
        for kappa, blocks, most_calls in ((0.05, 29, 18), (0.0, 32, 17)):
            dt = cfl_limit(state, profile, kappa)
            calls.clear()
            step(0.0, arrays(state), dt, state.grid, profile, kappa)
            assert sum(calls) == blocks, kappa
            assert len(calls) <= most_calls, kappa
        assert numpy_calls == []

    @staticmethod
    def spy_step(monkeypatch, module, exact_route):
        """Record the limits check_step sees (and still checks) and the
        calls to a step's exact speed route, `module.exact_route`."""
        seen, solves = [], []
        exact, check = getattr(module, exact_route), stratified.check_step

        def solve(*args):
            solves.append(args)
            return exact(*args)

        monkeypatch.setattr(stratified, "check_step", lambda dt, limit, t: (
            seen.append(limit), check(dt, limit, t)))
        monkeypatch.setattr(module, exact_route, solve)
        return seen, solves

    def test_step_certifies_a_dt_with_margin(self, monkeypatch):
        # the closed-form wave-speed bound certifies the step: no
        # eigenproblem is solved and the limit checked lies between dt and
        # cfl_limit
        _, profile, state = embedded_pair(n_x=32, n_r=12)
        exact = {kappa: cfl_limit(state, profile, kappa, 0.3)
                 for kappa in (0.05, 0.0)}
        seen, solves = self.spy_step(monkeypatch, stratified,
                                     "wave_speed_estimate")
        for kappa in (0.05, 0.0):
            seen.clear()
            step(0.0, arrays(state), 1e-3, state.grid, profile, kappa,
                 cfl=0.3)
            assert solves == []
            assert len(seen) == 1 and 1e-3 <= seen[0] <= exact[kappa]

    def test_step_at_the_limit_checks_it_exactly(self, monkeypatch):
        # step takes the drift from its first stage; past the bound the
        # limit it checks is cfl_limit's to the bit, from which the sweeps
        # take dt, and a step at that limit runs
        _, profile, state = embedded_pair(n_x=32, n_r=12)
        exact = {kappa: cfl_limit(state, profile, kappa, 0.3)
                 for kappa in (0.05, 0.0)}
        seen, solves = self.spy_step(monkeypatch, stratified,
                                     "wave_speed_estimate")
        for kappa in (0.05, 0.0):
            seen.clear()
            solves.clear()
            step(0.0, arrays(state), exact[kappa], state.grid, profile,
                 kappa, cfl=0.3)
            assert len(solves) == 1
            assert seen == [exact[kappa]]

    def test_step_bound_dominates_the_speed_estimate(self, monkeypatch):
        # the limit a step certifies never exceeds cfl_limit's: on random
        # fields over monotone and non-monotone profiles, at depths near
        # the floor, at h = 0, at uniform depths (where rounding alone
        # would put the bound under the eigensolve's estimate) and with
        # levels, or the whole column, at non-positive depth
        rng = np.random.default_rng(53)
        grid = SpatialGrid(16)
        cases = []
        for trial in range(16):
            n_r = int(rng.integers(2, 40))
            levels = LevelGrid.with_interface(
                n_r, -rng.uniform(0.2, 0.8), cluster=rng.uniform(0.0, 6.0))
            rho = rng.uniform(0.5, 2.0, n_r)
            if trial % 2 == 0:
                rho = np.sort(rho)[::-1]
            prof = StratifiedProfile(levels, rho,
                                     0.3 * rng.standard_normal(n_r))
            u = 0.2 * rng.standard_normal((n_r, 16))
            near_floor = 1e-3 * rng.uniform(1.0, 2.0, (n_r, 16)) - 1.0
            below = 0.2 * rng.standard_normal((n_r, 16))
            below[int(rng.integers(n_r))] = -1.5
            fields = [0.2 * rng.standard_normal((n_r, 16)), near_floor,
                      np.zeros((n_r, 16)), below, np.full((n_r, 16), -1.5)]
            fields += [np.full((n_r, 16), c)
                       for c in rng.uniform(-0.9, 2.0, 4)]
            kappa = 0.05 * (trial % 3)
            cases += [(prof, h, u, kappa) for h in fields]
        exact = [cfl_limit(StratifiedState.from_arrays(0.0, grid, p.levels,
                                                       h, u), p, kappa, 0.3)
                 for p, h, u, kappa in cases]
        seen, _ = self.spy_step(monkeypatch, stratified, "wave_speed_estimate")
        for (prof, h, u, kappa), want in zip(cases, exact):
            seen.clear()
            try:
                step(0.0, (h, u), 1e-9, grid, prof, kappa, cfl=0.3)
            except BlowUpError:
                pass
            assert len(seen) == 1 and seen[0] <= want, (
                f"certified {seen[0]!r} past the exact limit {want!r}")

    def test_heat_propagator_follows_kappa_and_dt(self):
        # one workspace through steps of changing (kappa, dt) gives the
        # bits of a fresh workspace per step
        rng = np.random.default_rng(59)
        grid = SpatialGrid(32)
        prof = random_profile(rng, LevelGrid.uniform(6), shear=0.2)
        h = 0.05 * rng.standard_normal((6, 32))
        u = 0.05 * rng.standard_normal((6, 32))
        work = stratified.ColumnWork(grid, 6)
        for kappa, dt in ((0.1, 0.01), (0.1, 0.01), (0.1, 0.005),
                          (0.0, 0.005), (0.2, 0.005), (0.1, 0.01)):
            column = (grid, prof, kappa, self_pressure(prof))
            got = rk4(h, u, 0.0, dt, *column, work=work)
            want = rk4(h, u, 0.0, dt, *column)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_two_layer_step_certifies_a_dt_with_margin(self, monkeypatch):
        # the closed-form speed bound certifies the step: no quartic is
        # solved and the limit checked lies between dt and cfl_limit
        bistate = bilayer.make_initial(
            SpatialGrid(32), amplitudes={"H_s": 0.05, "U_b": 0.02})
        params = bilayer.BilayerParams(0.5, 1.0, 1.0 / 3.0, 2.0 / 3.0,
                                       kappa=0.05)
        exact = bilayer.cfl_limit(bistate, params, 0.3)
        seen, solves = self.spy_step(monkeypatch, bilayer,
                                     "max_characteristic_speed")
        bilayer.step(0.0, bistate.stacked(), 1e-3, bistate.grid, params,
                     cfl=0.3)
        assert solves == []
        assert len(seen) == 1 and 1e-3 <= seen[0] <= exact

    def test_two_layer_step_at_the_limit_checks_it_exactly(self, monkeypatch):
        bistate = bilayer.make_initial(
            SpatialGrid(32), amplitudes={"H_s": 0.05, "U_b": 0.02})
        params = bilayer.BilayerParams(0.5, 1.0, 1.0 / 3.0, 2.0 / 3.0,
                                       kappa=0.05)
        exact = bilayer.cfl_limit(bistate, params, 0.3)
        seen, solves = self.spy_step(monkeypatch, bilayer,
                                     "max_characteristic_speed")
        bilayer.step(0.0, bistate.stacked(), exact, bistate.grid, params,
                     cfl=0.3)
        assert len(solves) == 1
        assert seen == [exact]

    def test_two_layer_step_at_nonpositive_depth_takes_exact_route(
            self, monkeypatch):
        # the bound is inf at a depth <= 0, so even dt = limit/4 is checked
        # against cfl_limit; the kernel's thickness floor then ends the step
        bistate = bilayer.make_initial(
            SpatialGrid(32), amplitudes={"H_b": -0.7, "U_s": 0.1})
        params = bilayer.BilayerParams(0.5, 1.0, 1.0 / 3.0, 2.0 / 3.0,
                                       kappa=0.05)
        exact = bilayer.cfl_limit(bistate, params, 0.3)
        seen, solves = self.spy_step(monkeypatch, bilayer,
                                     "max_characteristic_speed")
        with pytest.raises(BlowUpError, match=r"cell thickness fell to "
                           r"-3\.333e-02 \(floor 1e-06\) at t = 0"):
            bilayer.step(0.0, bistate.stacked(), exact / 4.0, bistate.grid,
                         params, cfl=0.3)
        assert len(solves) == 1
        assert seen == [exact]

    @pytest.mark.parametrize("T", [float("inf"), float("nan"), 0.0, -1.0])
    def test_horizon_must_be_finite_and_positive(self, T):
        _, profile, state = embedded_pair(n_x=32, n_r=12)
        with pytest.raises(ValueError, match="horizon T must be finite and "
                           "positive"):
            integrate(state, profile, 0.0, T)

    def test_only_snapshots_build_states(self, monkeypatch):
        # a 40-step run that stores no snapshot between its ends builds
        # one state object, the final one, in each of the three loops;
        # the two-layer run steps within 3% of its exact limit, past what
        # the speed bound certifies, so every step takes the exact route
        bistate, profile, state = embedded_pair(n_x=32, n_r=12)
        params = bilayer.BilayerParams(PARAMS.rho_s, PARAMS.rho_b,
                                       PARAMS.Hbar_s, PARAMS.Hbar_b,
                                       kappa=0.05)
        dt = 0.5 * cfl_limit(state, profile, 0.05)
        dt_b = 0.97 * bilayer.cfl_limit(bistate, params)
        reference = refined.ReferenceRun(
            integrate(state, profile, 0.05, 40 * dt, dt=dt), profile)
        built, solves = {}, []
        for cls in (StratifiedState, bilayer.BilayerState, Field1D, Field2D):
            def counted(self, *args, _cls=cls, _init=cls.__init__, **kw):
                built[_cls.__name__] = built.get(_cls.__name__, 0) + 1
                _init(self, *args, **kw)

            monkeypatch.setattr(cls, "__init__", counted)
        exact = bilayer.max_characteristic_speed
        monkeypatch.setattr(bilayer, "max_characteristic_speed",
                            lambda *a: solves.append(1) or exact(*a))
        runs = (
            (lambda: integrate(state, profile, 0.05, 40 * dt, dt=dt,
                               snapshot_every=10 ** 9),
             {"StratifiedState": 1, "Field2D": 2}),
            (lambda: bilayer.integrate(bistate, params, 40 * dt_b, dt=dt_b,
                                       snapshot_every=10 ** 9),
             {"BilayerState": 1, "Field1D": 4}),
            (lambda: refined.solve_refined(state, profile, reference, 0.05,
                                           40 * dt, dt=dt,
                                           snapshot_every=10 ** 9),
             {"StratifiedState": 1, "Field2D": 2}))
        for run, want in runs:
            built.clear()
            traj = run()
            assert traj.n_steps == 40 and not traj.blown_up
            assert len(traj.states) == 2
            assert built == want
        assert len(solves) == 40

    def test_norm_ceiling_halts(self, monkeypatch):
        # march reads the core constant through this module's binding
        monkeypatch.setattr(stratified, "BLOWUP_FACTOR", 0.9)
        _, profile, state = embedded_pair(n_x=32, n_r=12)
        traj = integrate(state, profile, 0.0, T=0.5, snapshot_every=1)
        assert traj.blown_up
        assert any("ceiling" in w for w in traj.warnings)
        assert traj.blowup_time is not None

    def test_speed_estimate_dominates_two_layer(self):
        bistate, profile, state = embedded_pair()
        fast = bilayer.grid_max_speed(bistate, PARAMS)
        est = wave_speed_estimate(*arrays(state), profile)
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
            prof = StratifiedProfile(levels, rho,
                                     0.3 * rng.standard_normal(n_r))
            state = StratifiedState.from_arrays(
                0.0, grid, levels, 0.2 * rng.standard_normal((n_r, 32)),
                0.2 * rng.standard_normal((n_r, 32)))
            depth = np.max(1.0 + state.h.values, axis=1)
            c2 = oracles.dense_wave_speed_squared(rho, levels.w, depth)
            want = (np.max(np.abs(prof.ubar[:, None] + state.u.values))
                    + np.sqrt(c2))
            got = wave_speed_estimate(*arrays(state), prof)
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
        assert np.isfinite(wave_speed_estimate(*arrays(state), prof))
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

    @pytest.mark.parametrize("levels", [
        LevelGrid.uniform(24), LevelGrid.with_interface(32, -1.0 / 3.0, 6.0)])
    def test_rows_match_the_oracle_embedding(self, levels):
        # embed_bilayer finds the interface by its edge index; the oracle
        # places each level by its midpoint; the two agree bit for bit
        grid = SpatialGrid(32)
        bistate = bilayer.make_initial(grid, amplitudes={
            "H_s": 0.05, "H_b": -0.02, "U_s": 0.03, "U_b": 0.01})
        profile, state = embed_bilayer(bistate, PARAMS, levels)
        H_s, H_b, U_s, U_b = bistate.stacked()
        r, interface = levels.r, -PARAMS.Hbar_s
        assert np.array_equal(state.h.values, oracles.embedded_rows(
            r, interface, H_s / PARAMS.Hbar_s, H_b / PARAMS.Hbar_b))
        assert np.array_equal(state.u.values,
                              oracles.embedded_rows(r, interface, U_s, U_b))
        assert np.array_equal(profile.rho, oracles.embedded_rows(
            r, interface, PARAMS.rho_s, PARAMS.rho_b))

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
        assert lipschitz_ratio(prof, prof, h) == 0.0
        other = random_profile(rng, levels)
        zero = Field2D.zeros(grid, levels)
        assert lipschitz_ratio(prof, other, zero) == 0.0

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
            ratio = lipschitz_ratio(p1, p2, h)
            worst = max(worst, ratio)
        assert worst <= 1.0 + 1e-9, f"bound violated: worst ratio {worst}"

    def test_block_rows_equal_single_calls(self):
        rng = np.random.default_rng(44)
        levels = LevelGrid.uniform(12)
        grid = SpatialGrid(16)
        profs = [random_profile(rng, levels) for _ in range(4)]
        triples = [(profs[0], profs[1], random_field(rng, grid, levels)),
                   (profs[2], profs[2], random_field(rng, grid, levels)),
                   (profs[3], profs[0], Field2D.zeros(grid, levels)),
                   (profs[1], profs[3], random_field(rng, grid, levels))]
        ratios = montgomery_lipschitz_ratios(
            levels, [p.rho for p, _, _ in triples],
            [p.rho for _, p, _ in triples], [h.values for _, _, h in triples])
        assert ratios.shape == (4,)
        assert ratios[1] == 0.0 and ratios[2] == 0.0
        assert 0.0 < min(ratios[0], ratios[3]) and max(ratios) <= 1.0
        for ratio, (p1, p2, h) in zip(ratios.tolist(), triples):
            assert ratio == lipschitz_ratio(p1, p2, h)
            assert ratio == oracles.montgomery_lipschitz_ratio(
                p1.rho, p2.rho, levels.w, h.values)

    def test_batched_check_rejects_bad_input(self):
        levels = LevelGrid.uniform(6)
        rho = np.ones((2, 6))
        h = np.zeros((2, 6, 16))
        for args in ((rho[:, :5], rho[:, :5], h[:, :5]), (rho, rho[:1], h),
                     (rho, rho, h[:1]), (rho, rho, h[:, :, 0]),
                     (rho[0], rho[0], h[0])):
            with pytest.raises(ValueError, match="need"):
                montgomery_lipschitz_ratios(levels, *args)
        # the messages of the StratifiedProfile constructor
        for value, message in ((0.0, "positive"), (-1.0, "positive"),
                               (np.nan, "non-finite"), (np.inf, "non-finite")):
            bad = rho.copy()
            bad[1, 3] = value
            for args in ((bad, rho, h), (rho, bad, h)):
                with pytest.raises(ValueError, match=message):
                    montgomery_lipschitz_ratios(levels, *args)


class TestCsvIO:

    def test_profile_roundtrip(self):
        rng = np.random.default_rng(51)
        levels = LevelGrid.with_interface(9, -0.25)
        prof = random_profile(rng, levels, shear=0.3)
        buf = io.StringIO()
        write_profile(prof, buf)
        buf.seek(0)
        back = np.genfromtxt(buf, delimiter=",", names=True)
        assert back.dtype.names == ("r", "rho", "ubar")
        assert np.array_equal(back["r"], levels.r)
        assert np.array_equal(back["rho"], prof.rho)
        assert np.array_equal(back["ubar"], prof.ubar)

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
        back = np.genfromtxt(buf, delimiter=",", names=True)
        assert back.dtype.names == ("x", "r", "h", "u")
        back = back.reshape(levels.n_r, grid.n_x)
        assert np.array_equal(back["x"], np.tile(grid.x, (levels.n_r, 1)))
        assert np.array_equal(back["r"],
                              np.repeat(levels.r[:, None], grid.n_x, axis=1))
        assert np.array_equal(back["h"], state.h.values)
        assert np.array_equal(back["u"], state.u.values)
