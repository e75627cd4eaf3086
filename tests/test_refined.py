"""Forced-system tests: forcing interpolation, decoupling, residual paths."""

import io
import types

import numpy as np
import pytest

import oracles
from pycnolab.core import LevelGrid, SpatialGrid, StepLimitError
from pycnolab import bilayer
from pycnolab import stratified
from pycnolab.refined import (
    ReferenceRun,
    consistency_residual,
    solve_refined,
    write_residuals,
)

PARAMS = bilayer.BilayerParams(0.5, 1.0, 1.0 / 3.0, 2.0 / 3.0)


def rest_state(grid, levels):
    z = np.zeros((levels.n_r, grid.n_x))
    return stratified.StratifiedState(0.0, grid, levels, z, z)


def reference_setup(n_x=64, n_r=16, kappa=0.1, T=0.3, cluster=0.0):
    grid = SpatialGrid(n_x)
    levels = LevelGrid.with_interface(n_r, -PARAMS.Hbar_s, cluster=cluster)
    bistate = bilayer.make_initial(grid,
                                   amplitudes={"H_s": 0.05, "U_s": 0.02})
    profile, state = stratified.embed_bilayer(bistate, PARAMS, levels)
    dt = stratified.cfl_limit(state, profile, kappa) / 2.0
    traj = stratified.integrate(state, profile, kappa, T, dt=dt,
                                snapshot_every=1)
    return grid, levels, profile, state, traj


def fabricated_trajectory(grid, levels, coeffs, times):
    """Snapshots whose h is a polynomial in t times a fixed x-profile."""
    shape_x = np.sin(grid.x)
    rows = np.linspace(0.5, 1.5, levels.n_r)[:, None] * shape_x[None, :]
    states = []
    for t in times:
        amp = sum(c * t ** k for k, c in enumerate(coeffs))
        states.append(stratified.StratifiedState(
            t, grid, levels, 0.01 * amp * rows, np.zeros_like(rows)))
    return types.SimpleNamespace(states=states)


class TestForcing:

    def test_needs_four_snapshots(self):
        grid = SpatialGrid(16)
        levels = LevelGrid.uniform(4)
        prof = stratified.StratifiedProfile(levels, np.ones(4), np.zeros(4))
        traj = fabricated_trajectory(grid, levels, (1.0,), (0.0, 0.1, 0.2))
        with pytest.raises(ValueError):
            ReferenceRun(traj, prof)

    def test_level_grid_mismatch(self):
        grid = SpatialGrid(16)
        levels = LevelGrid.uniform(4)
        other = LevelGrid.uniform(5)
        prof = stratified.StratifiedProfile(other, np.ones(5), np.zeros(5))
        traj = fabricated_trajectory(grid, levels, (1.0,),
                                     (0.0, 0.1, 0.2, 0.3))
        with pytest.raises(ValueError):
            ReferenceRun(traj, prof)

    def test_node_exact(self):
        grid, levels, profile, _, traj = reference_setup(T=0.2)
        ref = ReferenceRun(traj, profile)
        P = stratified.pressure_matrix(profile)
        for i in (0, len(traj.states) // 2, len(traj.states) - 1):
            t = traj.states[i].t
            want = -(P @ grid.derivative(traj.states[i].h))
            got = ref.forcing(t)
            assert np.max(np.abs(got - want)) <= 1e-15
            assert np.array_equal(ref.h_ref(t), traj.states[i].h)

    def test_cubic_in_time_is_exact(self):
        grid = SpatialGrid(32)
        levels = LevelGrid.uniform(6)
        prof = stratified.StratifiedProfile(levels,
                                            np.linspace(2.0, 1.0, 6),
                                            np.zeros(6))
        coeffs = (1.0, 2.0, -1.0, 0.5)
        times = np.linspace(0.0, 1.0, 6)
        traj = fabricated_trajectory(grid, levels, coeffs, times)
        ref = ReferenceRun(traj, prof)
        P = stratified.pressure_matrix(prof)
        for t in (0.13, 0.37, 0.52, 0.81, 0.97):
            amp = sum(c * t ** k for k, c in enumerate(coeffs))
            h_t = amp * traj.states[0].h  # coeffs[0] = 1 at t = 0
            want = -(P @ grid.derivative(h_t))
            err = np.max(np.abs(ref.forcing(t) - want))
            assert err <= 1e-13, f"t = {t}: cubic interpolation off {err:.3e}"

    def test_zero_reference_gives_zero_forcing(self):
        grid = SpatialGrid(16)
        levels = LevelGrid.uniform(4)
        prof = stratified.StratifiedProfile(levels, np.ones(4), np.zeros(4))
        traj = fabricated_trajectory(grid, levels, (0.0,),
                                     (0.0, 0.1, 0.2, 0.3))
        ref = ReferenceRun(traj, prof)
        assert np.all(ref.forcing_snapshots == 0.0)
        assert np.all(ref.forcing(0.15) == 0.0)

    def test_crossed_forcing_obeys_lipschitz_bound(self):
        grid, levels, profile, _, traj = reference_setup(T=0.2, n_r=24)
        target, _ = stratified.smooth_pycnocline(
            stratified.PycnoclineSpec(PARAMS, 0.03, "tanh"), levels)
        worst = 0.0
        for state in traj.states[:: max(1, len(traj.states) // 5)]:
            dxh = grid.derivative(state.h)
            worst = max(worst, float(stratified.montgomery_lipschitz_ratios(
                levels, profile.rho[None], target.rho[None], dxh[None])[0]))
        assert worst <= 1.0 + 1e-9, f"crossed forcing ratio {worst}"

    def test_extrapolation_rejected(self):
        grid, levels, profile, _, traj = reference_setup(T=0.2)
        ref = ReferenceRun(traj, profile)
        with pytest.raises(ValueError):
            ref.forcing(ref.horizon * 1.5)
        with pytest.raises(ValueError):
            ref.forcing(-0.1)


class TestSolveRefined:

    def test_self_consistency(self):
        # feeding a run its own pressure back reproduces it to stepper error
        grid, levels, profile, state, traj = reference_setup()
        kappa, T, dt = 0.1, 0.3, traj.dt
        ref = ReferenceRun(traj, profile)
        run = solve_refined(state, ref, kappa, T, dt=dt)
        half = stratified.integrate(state, profile, kappa, T, dt=dt / 2.0,
                                    snapshot_every=10 ** 9)
        tol = max(np.max(np.abs(half.final.h - traj.final.h)),
                  np.max(np.abs(half.final.u - traj.final.u)))
        diff = max(np.max(np.abs(run.final.h - traj.final.h)),
                   np.max(np.abs(run.final.u - traj.final.u)))
        assert diff <= 10.0 * tol, (
            f"self-consistency diff {diff:.3e} vs stepper error {tol:.3e}")

    def test_heat_mode_decay(self):
        # no forcing, no background: h diffuses mode by mode
        grid = SpatialGrid(64)
        levels = LevelGrid.uniform(6)
        prof = stratified.StratifiedProfile(levels, np.ones(6), np.zeros(6))
        rest = stratified.integrate(
            rest_state(grid, levels), prof, 0.0,
            T=0.3, snapshot_every=1)
        ref = ReferenceRun(rest, prof)
        amp, wavenumber, kappa = 0.01, 3, 0.1
        h0 = np.tile(amp * np.sin(wavenumber * grid.x), (6, 1))
        init = stratified.StratifiedState(
            0.0, grid, levels, h0, np.zeros((6, grid.n_x)))
        run = solve_refined(init, ref, kappa, 0.3, dt=0.002)
        want = oracles.heat_mode_decay(amp, kappa, wavenumber, 0.3)
        err = np.max(np.abs(run.final.h[2]
                            - want * np.sin(wavenumber * grid.x)))
        assert err <= 1e-12, f"heat decay off oracle by {err:.3e}"
        assert np.all(run.final.u == 0.0)

    def test_levels_decouple_bitwise(self):
        grid, levels, profile, state, traj = reference_setup(n_r=12)
        ref_a = ReferenceRun(traj, profile)
        ref_b = ReferenceRun(traj, profile)
        ref_b.forcing_snapshots = ref_b.forcing_snapshots.copy()
        ref_b.forcing_snapshots[:, 5, :] = 0.0
        run_a = solve_refined(state, ref_a, 0.1, 0.3, dt=traj.dt)
        run_b = solve_refined(state, ref_b, 0.1, 0.3, dt=traj.dt)
        for i in range(levels.n_r):
            same_h = np.array_equal(run_a.final.h[i],
                                    run_b.final.h[i])
            same_u = np.array_equal(run_a.final.u[i],
                                    run_b.final.u[i])
            if i == 5:
                assert not same_u, "zeroed forcing left its level unchanged"
            else:
                assert same_h and same_u, f"level {i} felt a foreign forcing"

    def test_steps_at_its_own_advective_limit(self):
        # the transport limit cfl dx / (max|ubar + u| + kappa max|d_x h /
        # (1 + h)|), below the reference spacing here, is the initial dt:
        # one step spans a horizon of one limit, and a horizon 1e-9 longer
        # takes two; a step at the limit runs and one of twice the limit
        # is refused
        grid, levels, profile, state, traj = reference_setup()
        ref = ReferenceRun(traj, profile)
        h, u = state.h, state.u + 3.0
        init = stratified.StratifiedState(0.0, grid, levels, h, u)
        drift = 0.1 * np.max(np.abs(grid.derivative(h) / (1.0 + h)))
        limit = 0.4 * grid.dx / (
            np.max(np.abs(profile.ubar[:, None] + u)) + drift)
        assert limit < np.min(np.diff(ref.times))
        for T, n_steps in ((limit, 1), (limit * (1.0 + 1e-9), 2)):
            run = solve_refined(init, ref, 0.1, T)
            assert run.n_steps == n_steps and len(run.states) >= 2
        run = solve_refined(init, ref, 0.1, limit, dt=limit)
        assert not run.blown_up and len(run.states) == 2
        with pytest.raises(StepLimitError, match="exceeds the stability "
                           "limit"):
            solve_refined(init, ref, 0.1, 2.0 * limit,
                          dt=2.0 * limit)

    def test_profile_comes_from_the_forcing(self):
        # the run's transport uses the forcing's own target: the same
        # steps as the forced column written out with that target, bit
        # for bit, snapshot by snapshot
        grid, levels, _, state, traj = reference_setup(n_r=12, cluster=2.0)
        target, _ = stratified.smooth_pycnocline(
            stratified.PycnoclineSpec(PARAMS, 0.03, "tanh"), levels)
        ref = ReferenceRun(traj, target)
        run = solve_refined(state, ref, 0.1, 0.3, dt=traj.dt)
        assert run.reference is ref and not run.blown_up
        column = (grid, target, 0.1, lambda dxh, t, out: ref.forcing(t))
        work = stratified.ColumnWork(grid, levels.n_r)

        def advance(t, y, dt):
            def speed():
                return float(np.max(np.abs(target.ubar[:, None] + y[1])))

            return stratified.rk4(*y, t, dt, *column, work=work,
                                  speeds=(speed, speed))

        want = stratified.march_column(state, advance, 0.3, traj.dt, 1)
        assert run.n_steps == want["n_steps"] > 1
        assert len(run.states) == len(want["states"])
        for got, exp in zip(run.states, want["states"]):
            assert got.t == exp.t
            assert np.array_equal(got.h, exp.h)
            assert np.array_equal(got.u, exp.u)

    def test_horizon_and_grid_guards(self):
        grid, levels, profile, state, traj = reference_setup(T=0.2)
        ref = ReferenceRun(traj, profile)
        with pytest.raises(ValueError):
            solve_refined(state, ref, 0.1, 0.5)
        other = rest_state(SpatialGrid(32), levels)
        with pytest.raises(ValueError):
            solve_refined(other, ref, 0.1, 0.2)

    @pytest.mark.parametrize("kappa", [-0.1, float("nan"), float("inf")])
    def test_bad_kappa_rejected(self, kappa):
        grid, levels, profile, state, traj = reference_setup(T=0.2)
        ref = ReferenceRun(traj, profile)
        with pytest.raises(ValueError, match="kappa must be finite and "
                           "non-negative"):
            solve_refined(state, ref, kappa, 0.2)

    def test_depth_collapse_flags_run(self):
        grid = SpatialGrid(16)
        levels = LevelGrid.uniform(4)
        prof = stratified.StratifiedProfile(levels, np.ones(4), np.zeros(4))
        rest = stratified.integrate(
            rest_state(grid, levels), prof, 0.0,
            T=0.2, dt=0.02, snapshot_every=1)
        ref = ReferenceRun(rest, prof)
        h0 = np.zeros((4, 16))
        h0[1, 3] = -1.0 + 5e-7
        init = stratified.StratifiedState(0.0, grid, levels, h0,
                                          np.zeros((4, 16)))
        run = solve_refined(init, ref, 0.0, 0.2, dt=0.01)
        assert run.blown_up
        assert run.blowup_time is not None
        assert len(run.states) == 1


class TestConsistencyResidual:

    def crossed_run(self, n_x=64, eps=0.02):
        grid, levels, profile, state, traj = reference_setup(
            n_x=n_x, n_r=32, cluster=4.0)
        target, _ = stratified.smooth_pycnocline(
            stratified.PycnoclineSpec(PARAMS, eps, "tanh"), levels)
        ref = ReferenceRun(traj, target)
        run = solve_refined(state, ref, 0.1, 0.3, dt=traj.dt)
        return run

    def test_identity_crossing_leaves_no_residual(self):
        grid, levels, profile, state, traj = reference_setup()
        ref = ReferenceRun(traj, profile)
        run = solve_refined(state, ref, 0.1, 0.3, dt=traj.dt)
        series = consistency_residual(run)
        peak = float(np.max(series.residual_hs))
        assert peak <= 1e-8, f"identity crossing left residual {peak:.3e}"

    def test_two_paths_agree(self):
        series = consistency_residual(self.crossed_run())
        worst = float(np.max(series.agreement))
        assert worst <= 1e-10, f"residual paths disagree at {worst:.3e}"

    def test_inequality_holds_at_all_times(self):
        series = consistency_residual(self.crossed_run())
        worst = float(np.max(series.ratio))
        assert worst <= 1.0 + 1e-9, f"mixed-norm bound violated: {worst}"
        assert np.max(series.residual_hs) > 0.0

    def test_residual_csv(self):
        run = self.crossed_run(n_x=32)
        series = consistency_residual(run)
        buf = io.StringIO()
        write_residuals(series, run.states[0].levels, buf)
        buf.seek(0)
        data = np.genfromtxt(buf, delimiter=",", names=True)
        assert data.dtype.names == ("t", "r", "residual_hs", "bound", "ratio")
        n_r = run.states[0].levels.n_r
        assert data["t"].size == series.times.size * n_r
        block = data["ratio"][:n_r]
        bound = series.bound[0]
        if bound > 0.0:
            want = series.residual_hs[0] / bound
            assert np.max(np.abs(block - want)) <= 1e-12
