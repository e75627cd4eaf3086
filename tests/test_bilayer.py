"""Tests for the two-layer solver: RHS algebra, stepping, diagnostics."""

import io
import types

import numpy as np
import pytest

import oracles
from pycnolab import bilayer, hyperbolicity, stratified
from pycnolab.core import STEP_HEADROOM, BlowUpError, SpatialGrid
from pycnolab.hyperbolicity import max_characteristic_speed
from pycnolab.stratified import StratifiedProfile
from pycnolab.bilayer import (
    BilayerParams,
    BilayerState,
    MarginTable,
    bd_residual,
    cfl_limit,
    combined_norm,
    integrate,
    make_initial,
    pointwise_margin,
    rhs,
    step,
    total_velocity,
    write_diagnostics,
    write_snapshots,
)

PARAMS0 = BilayerParams(rho_s=0.5, rho_b=1.0, Hbar_s=1.0 / 3.0, Hbar_b=2.0 / 3.0)


def state_of(grid, H_s=0.0, H_b=0.0, U_s=0.0, U_b=0.0):
    """A BilayerState at t = 0; a number stands for a constant field."""
    return BilayerState(0.0, grid, [np.broadcast_to(f, grid.n_x)
                                    for f in (H_s, H_b, U_s, U_b)])


@pytest.fixture
def fresh_margin_nodes():
    """No margin-table nodes solved yet in this process, nor left behind."""
    bilayer._margin_nodes.cache_clear()
    yield
    bilayer._margin_nodes.cache_clear()


def params_with(**kw):
    base = dict(rho_s=0.5, rho_b=1.0, Hbar_s=1.0 / 3.0, Hbar_b=2.0 / 3.0)
    base.update(kw)
    return BilayerParams(**base)


class TestParams:
    def test_depth_sum_enforced(self):
        with pytest.raises(ValueError):
            BilayerParams(0.5, 1.0, 0.4, 0.7)

    def test_velocity_sum_enforced(self):
        with pytest.raises(ValueError):
            BilayerParams(0.5, 1.0, 0.5, 0.5, Ubar_s=0.1, Ubar_b=0.1)

    def test_kappa_range(self):
        with pytest.raises(ValueError):
            params_with(kappa=-0.1)
        with pytest.raises(ValueError):
            params_with(kappa=1.5)

    def test_ratio(self):
        assert params_with(rho_s=0.3).rho_ratio == 0.3

    def test_immutable(self):
        with pytest.raises(AttributeError):
            PARAMS0.kappa = 0.1


class TestRhs:
    def test_rest_state_is_equilibrium(self):
        grid = SpatialGrid(64)
        state = state_of(grid)
        for out in rhs(state, PARAMS0):
            assert np.max(np.abs(out)) == 0.0

    def test_single_mode_pressure_response(self):
        # H_s = a sin x at rest: only the velocity equations respond,
        # dU_s/dt = -a cos x and dU_b/dt = -(rho_s/rho_b) a cos x
        grid = SpatialGrid(128)
        a = 0.01
        state = make_initial(grid, "sine", {"H_s": a}, wavenumber=1)
        dHs, dHb, dUs, dUb = rhs(state, PARAMS0)
        cos = np.cos(grid.x)
        assert np.max(np.abs(dHs)) <= 1e-13
        assert np.max(np.abs(dHb)) <= 1e-13
        assert np.max(np.abs(dUs + a * cos)) <= 1e-12
        assert np.max(np.abs(dUb + 0.5 * a * cos)) <= 1e-12

    def test_spectral_diffusion_term(self):
        grid = SpatialGrid(128)
        k = 3
        a = 0.02
        kappa = 0.2
        state = make_initial(grid, "sine", {"H_s": a}, wavenumber=k)
        p = params_with(kappa=kappa)
        dHs_d, _, dUs_d, dUb_d = rhs(state, p)
        dHs_0, _, dUs_0, dUb_0 = rhs(state, PARAMS0)
        added = dHs_d - dHs_0
        want = -kappa * k * k * state.H_s
        assert np.max(np.abs(added - want)) <= 1e-12, (
            f"diffusion term off by {np.max(np.abs(added - want)):.2e}")
        # velocity equations unchanged here: the bolus correction
        # multiplies d_x U, which vanishes for this data
        assert np.max(np.abs(dUs_d - dUs_0)) <= 1e-13
        assert np.max(np.abs(dUb_d - dUb_0)) <= 1e-13

    def test_kappa_continuity(self):
        grid = SpatialGrid(64)
        rng = np.random.default_rng(7)
        fields = {}
        for name in BilayerState.FIELDS:
            coef = rng.normal(size=3) * 0.01
            fields[name] = sum(c * np.sin((i + 1) * grid.x + i)
                               for i, c in enumerate(coef))
        state = state_of(grid, **fields)
        base = rhs(state, PARAMS0)
        kappa = 1e-6
        near = rhs(state, params_with(kappa=kappa))
        assert np.max(np.abs(near - base)) <= kappa * 10.0

    def test_depth_floor_aborts(self):
        grid = SpatialGrid(32)
        state = state_of(grid, H_s=-PARAMS0.Hbar_s + 1e-8)
        with pytest.raises(BlowUpError):
            rhs(state, PARAMS0)

    def test_total_velocity_formula(self):
        grid = SpatialGrid(128)
        a = 0.05
        kappa = 0.3
        u0 = 0.1
        state = state_of(grid, H_s=a * np.sin(grid.x), U_s=u0)
        p = params_with(kappa=kappa)
        depth, dHx, V = total_velocity(state.stacked[None], [state.t], grid, p)
        assert np.array_equal(depth[0, 0], p.Hbar_s + state.H_s)
        assert np.max(np.abs(dHx[0, 0] - a * np.cos(grid.x))) <= 1e-12
        Vs, Vb = V[0]
        want = u0 - kappa * a * np.cos(grid.x) / (p.Hbar_s + a * np.sin(grid.x))
        assert np.max(np.abs(Vs - want)) <= 1e-12
        assert np.max(np.abs(Vb)) <= 1e-14  # flat layer: V_b = U_b

    def test_total_velocity_trivial_cases(self):
        grid = SpatialGrid(64)
        state = make_initial(grid, "sine", {"H_s": 0.03, "U_s": 0.02})
        _, _, V = total_velocity(state.stacked[None], [state.t], grid,
                                 PARAMS0)  # kappa = 0
        Vs = V[0, 0]
        assert np.array_equal(Vs, state.U_s)


class TestStep:
    def test_rest_state_fixed(self):
        grid = SpatialGrid(64)
        state = state_of(grid)
        out = step(0.0, state.stacked, 0.005, grid, PARAMS0)
        assert out.shape == (4, 64)
        assert np.max(np.abs(out)) == 0.0
        traj = integrate(state, PARAMS0, 0.005, dt=0.005)
        assert traj.n_steps == 1 and traj.final.t == 0.005
        assert np.max(np.abs(traj.final.stacked)) == 0.0

    def test_cfl_rejection(self):
        grid = SpatialGrid(64)
        state = make_initial(grid, "sine", {"H_s": 0.05})
        limit = cfl_limit(state, PARAMS0)
        with pytest.raises(ValueError):
            step(0.0, state.stacked, 2.0 * limit, grid, PARAMS0)

    def test_limit_without_depth_or_motion_is_finite(self):
        # zero depths and velocities have no speed; the limit floors the
        # speed at 1e-8 instead of dividing by zero
        grid = SpatialGrid(16)
        state = state_of(grid, H_s=-PARAMS0.Hbar_s, H_b=-PARAMS0.Hbar_b)
        assert cfl_limit(state, PARAMS0) == 0.4 * grid.dx / 1e-8

    def test_mass_mean_per_step(self):
        grid = SpatialGrid(128)
        state = make_initial(grid, "gaussian",
                             {"H_s": 0.05, "U_b": -0.02}, width=0.7)
        p = params_with(kappa=0.05)
        out = step(0.0, state.stacked, 0.5 * cfl_limit(state, p), grid, p)
        for before, after in ((state.H_s, out[0]), (state.H_b, out[1])):
            drift = abs(after.mean() - before.mean())
            assert drift <= 1e-13, f"mass mean drifted by {drift:.2e}"

    def test_richardson_fourth_order(self):
        grid = SpatialGrid(64)
        init = make_initial(grid, "gaussian",
                            {"H_s": 0.04, "U_s": 0.03, "H_b": -0.02}, width=0.8)
        p = params_with(kappa=0.05)
        T = 0.1
        n0 = int(np.ceil(T / cfl_limit(init, p)))
        finals = []
        for mult in (2, 4, 8, 16):
            traj = integrate(init, p, T, dt=T / (n0 * mult), snapshot_every=10 ** 9)
            finals.append(traj.final.stacked)
        e1 = np.max(np.abs(finals[0] - finals[1]))
        e2 = np.max(np.abs(finals[1] - finals[2]))
        e3 = np.max(np.abs(finals[2] - finals[3]))
        for hi, lo in ((e1, e2), (e2, e3)):
            ratio = hi / lo
            assert 8.0 <= ratio <= 32.0, (
                f"halving dt changed the error by {ratio:.1f}x, expected ~16x")

    def test_blowup_on_depth_crossing(self):
        grid = SpatialGrid(64)
        eps = 1.0001e-6
        state = state_of(grid, H_s=eps - PARAMS0.Hbar_s,
                         H_b=eps - PARAMS0.Hbar_b, U_s=0.3 * np.sin(grid.x))
        with pytest.raises(BlowUpError):
            step(0.0, state.stacked, cfl_limit(state, PARAMS0), grid,
                 PARAMS0)


class TestIntegrate:
    def test_rest_trajectory_constant(self):
        grid = SpatialGrid(32)
        traj = integrate(state_of(grid), PARAMS0, 0.3)
        assert not traj.blown_up
        assert np.max(np.abs(traj.final.stacked)) == 0.0

    def test_run_builds_one_column(self, monkeypatch):
        built = []
        init_profile = StratifiedProfile.__init__

        def counted(self, *args):
            built.append(args)
            init_profile(self, *args)

        monkeypatch.setattr(StratifiedProfile, "__init__", counted)
        p = params_with(kappa=0.1)
        init = make_initial(SpatialGrid(32), "sine", {"H_s": 0.05})
        traj = integrate(init, p, 1.0)
        assert traj.n_steps > 5 and not traj.blown_up
        assert len(built) == 1 and p.column is p.column

    def test_linearized_single_mode(self):
        # small data evolves by the matrix exponential of the mode system
        grid = SpatialGrid(64)
        a = 1e-6
        wav = 2
        T = 0.2
        for kappa in (0.0, 0.1):
            p = params_with(kappa=kappa)
            init = make_initial(grid, "sine", {"H_s": a, "U_b": 0.5 * a},
                                wavenumber=wav)
            traj = integrate(init, p, T, snapshot_every=10 ** 9)
            w0 = np.array([-1j * a, 0.0, 0.0, -0.5j * a])
            wT = oracles.linearized_mode_evolution(
                p.rho_ratio, p.Hbar_s, p.Hbar_b, p.Ubar_s, p.Ubar_b,
                kappa, wav, w0, T)
            phase = np.exp(1j * wav * grid.x)
            want = np.real(wT[:, None] * phase[None, :])
            got = traj.final.stacked
            err = np.max(np.abs(got - want))
            assert err <= 1e-3 * a, (
                f"kappa={kappa}: linearized evolution off by {err:.2e}")

    def test_step_past_explicit_diffusion_limit(self):
        # the diffusion is stepped exactly, so dt may pass the explicit
        # bound 0.4 dx^2 / (2 kappa) many times over inside the wave limit
        grid = SpatialGrid(64)
        a = 1e-6
        wav = 2
        T = 0.2
        dt = 0.02
        p = params_with(kappa=0.5)
        init = make_initial(grid, "sine", {"H_s": a, "U_b": 0.5 * a},
                            wavenumber=wav)
        assert dt >= 5.0 * 0.4 * grid.dx ** 2 / (2.0 * p.kappa)
        assert dt <= 0.4 * grid.dx / max_characteristic_speed(
            p.rho_ratio, *bilayer._totals(init.stacked, p))
        traj = integrate(init, p, T, dt=dt)
        assert not traj.blown_up and traj.n_steps == 10
        w0 = np.array([-1j * a, 0.0, 0.0, -0.5j * a])
        wT = oracles.linearized_mode_evolution(
            p.rho_ratio, p.Hbar_s, p.Hbar_b, p.Ubar_s, p.Ubar_b,
            p.kappa, wav, w0, T)
        want = np.real(wT[:, None] * np.exp(1j * wav * grid.x)[None, :])
        err = np.max(np.abs(traj.final.stacked - want))
        assert err <= 1e-3 * a, f"linearized evolution off by {err:.2e}"
        d = traj.diagnostics
        for key in ("mass_s", "mass_b"):
            drift = np.max(np.abs(d[key] - d[key][0]))
            assert drift <= 1e-12, f"{key} drift {drift:.2e}"

    def test_conservation_over_run(self):
        grid = SpatialGrid(128)
        init = make_initial(grid, "sine",
                            {"H_s": 0.04, "H_b": -0.03, "U_s": 0.02}, wavenumber=1)
        for kappa in (0.0, 0.1):
            p = params_with(kappa=kappa)
            traj = integrate(init, p, 1.0)
            d = traj.diagnostics
            for key in ("mass_s", "mass_b"):
                drift = np.max(np.abs(d[key] - d[key][0]))
                assert drift <= 1e-12, f"{key} drift {drift:.2e} at kappa={kappa}"
            if kappa == 0.0:
                for U0, UT in ((init.U_s, traj.final.U_s),
                               (init.U_b, traj.final.U_b)):
                    drift = abs(UT.mean() - U0.mean())
                    assert drift <= 1e-12, f"velocity mean drift {drift:.2e}"

    def test_blowup_ceiling_halts(self, monkeypatch):
        # march reads the core constant through its own module's binding
        monkeypatch.setattr(stratified, "BLOWUP_FACTOR", 0.9)
        grid = SpatialGrid(64)
        init = make_initial(grid, "sine", {"H_s": 0.05})
        traj = integrate(init, PARAMS0, 1.0)
        assert traj.blown_up
        assert traj.blowup_time is not None
        assert traj.final.t < 1.0
        assert any("ceiling" in w for w in traj.warnings)

    def test_sigma_gate_and_margin_diagnostic(self):
        grid = SpatialGrid(64)
        init = make_initial(grid, "sine", {"H_s": 0.02})
        traj = integrate(init, PARAMS0, 0.1, sigma=0.1)
        assert np.all(traj.diagnostics["margin"] > 0.1)
        # a strongly sheared state is rejected at the gate
        fast = make_initial(grid, "sine", {"H_s": 0.02})
        fast = state_of(grid, fast.H_s, fast.H_b, 0.9, -0.9)
        with pytest.raises(ValueError):
            integrate(fast, PARAMS0, 0.1, sigma=0.3)

    def test_sigma_gated_run_builds_one_margin_table(self, monkeypatch,
                                                     fresh_margin_nodes):
        # the gate reads the run's own table; it once built a second one
        calls = []
        solve = bilayer.froude_table

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(bilayer, "froude_table", counted)
        grid = SpatialGrid(32)
        init = make_initial(grid, "sine", {"H_s": 0.02})
        integrate(init, PARAMS0, 0.1, sigma=0.1)
        assert len(calls) == 1
        # a depth ratio outside the set is rejected before any table
        thin = state_of(grid, -0.95 * PARAMS0.Hbar_s)
        with pytest.raises(ValueError, match="leaves the sigma = 0.1"):
            integrate(thin, PARAMS0, 0.1, sigma=0.1)
        assert len(calls) == 1
        # without a gate, a state at the floor fails before any table
        floor = state_of(grid, -PARAMS0.Hbar_s)
        with pytest.raises(BlowUpError):
            integrate(floor, PARAMS0, 0.1)
        assert len(calls) == 1

    @pytest.mark.parametrize("sigma", [0.0, 1.0, -0.5, float("nan")])
    def test_sigma_outside_the_unit_interval_rejected(self, sigma):
        # sigma = 0 once divided by zero in the depth-ratio clause
        init = make_initial(SpatialGrid(32), "sine", {"H_s": 0.02})
        with pytest.raises(ValueError, match=r"sigma must lie in \(0, 1\)"):
            bilayer.in_margin_set(init, PARAMS0, sigma)

    def test_margin_set_is_the_point_set_at_every_grid_point(self):
        # a state constant in x is one state point: the table's Fr_- and
        # the exact one give the same verdict away from the set's edge
        grid = SpatialGrid(16)
        verdicts = []
        for H_s, U_s, sigma in ((0.0, 0.0, 0.1), (0.0, 0.0, 0.6),
                                (0.3, 0.0, 0.3), (0.0, 0.6, 0.1),
                                (0.0, 0.7, 0.2)):
            state = state_of(grid, H_s, 0.0, U_s, 0.0)
            point = hyperbolicity.StatePoint(
                PARAMS0.rho_s, PARAMS0.rho_b, PARAMS0.Hbar_s + H_s,
                PARAMS0.Hbar_b, U_s, 0.0)
            verdicts.append(bilayer.in_margin_set(state, PARAMS0, sigma))
            ratio = point.H_s / point.H_b
            assert verdicts[-1] == hyperbolicity.in_sigma_set(
                sigma, point.rho_ratio, ratio, ratio, point.H_s + point.H_b,
                lambda: point.thresholds[0]
                - abs(point.U_b - point.U_s) / np.sqrt(point.H_b))
        assert verdicts == [True, False, True, True, False]

    def test_margin_matches_exact_thresholds(self):
        grid = SpatialGrid(32)
        init = make_initial(grid, "sine", {"H_s": 0.05, "U_s": 0.1})
        margin = pointwise_margin(init, PARAMS0)
        from pycnolab.hyperbolicity import critical_froude
        hs = PARAMS0.Hbar_s + init.H_s
        hb = PARAMS0.Hbar_b + init.H_b
        shear = np.abs((PARAMS0.Ubar_b + init.U_b)
                       - (PARAMS0.Ubar_s + init.U_s)) / np.sqrt(hb)
        for j in (0, 7, 19):
            fm, _ = critical_froude(hs[j] / hb[j], PARAMS0.rho_ratio)
            assert abs(margin[j] - (fm - shear[j])) <= 5e-6, (
                f"table margin off at node {j}")

    def test_margin_nodes_are_solved_once_and_read_only(
            self, monkeypatch, fresh_margin_nodes):
        calls = []
        solve = bilayer.froude_table
        monkeypatch.setattr(bilayer, "froude_table", lambda *a, **k: (
            calls.append(a) or solve(*a, **k)))
        first, second = MarginTable(0.5, 0.4, 0.6), MarginTable(0.5, 0.4, 0.6)
        assert len(calls) == 1
        assert second.nodes is first.nodes
        assert second.fr_minus is first.fr_minus
        nodes, fr_minus, _ = solve(0.5, 0.4, 0.6, n_nodes=first.nodes.size)
        assert np.array_equal(first.nodes, nodes)
        assert np.array_equal(first.fr_minus, fr_minus)
        for shared in (first.nodes, first.fr_minus):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 0.0
        # a two-layer run reads the same nodes: no second solve
        integrate(make_initial(SpatialGrid(32), "sine", {"H_s": 0.02}),
                  PARAMS0, 0.05)
        integrate(make_initial(SpatialGrid(32), "sine", {"H_s": 0.02}),
                  params_with(kappa=0.1), 0.05)
        assert len(calls) == 2

    def test_default_step_leaves_headroom(self):
        # at the exact initial limit the default two-layer state steepens
        # past it: a cfl-breach at t = 0.388
        init = make_initial(SpatialGrid(256), "sine",
                            {"H_s": 0.05, "U_s": 0.02})
        limit = cfl_limit(init, PARAMS0)
        run = integrate(init, PARAMS0, 0.5, snapshot_every=10 ** 9)
        assert not run.blown_up and run.warnings == ()
        given = integrate(init, PARAMS0, 0.5, dt=STEP_HEADROOM * limit,
                          snapshot_every=10 ** 9)
        assert run.dt == given.dt
        assert np.array_equal(run.final.stacked, given.final.stacked)
        exact = integrate(init, PARAMS0, 0.5, dt=limit,
                          snapshot_every=10 ** 9)
        assert exact.blown_up
        assert exact.warnings[0].startswith("cfl-breach")

    def test_extended_table_matches_fresh_one(self):
        table = MarginTable(0.5, 0.4, 0.6)
        ratios = np.geomspace(0.1, 3.0, 50)
        got = table(ratios)
        assert (table.lo, table.hi) == (0.05, 6.0)
        fresh = MarginTable(0.5, 0.05, 6.0)
        assert np.array_equal(fresh.nodes, table.nodes)
        assert np.array_equal(fresh.fr_minus, table.fr_minus)
        assert np.array_equal(fresh(ratios), got)

    def test_galilean_covariance(self):
        grid = SpatialGrid(64)
        c = 0.5
        T = 0.2
        base = make_initial(grid, "sine", {"H_s": 0.03, "U_s": 0.02},
                            wavenumber=1)
        boosted = BilayerState(0.0, grid,
                               base.stacked + [[0.0], [0.0], [c], [c]])
        p = params_with(kappa=0.05)
        dt = 0.5 * min(cfl_limit(base, p), cfl_limit(boosted, p))
        n = int(np.ceil(T / dt))
        ref = integrate(base, p, T, dt=T / n, snapshot_every=10 ** 9).final
        mov = integrate(boosted, p, T, dt=T / n, snapshot_every=10 ** 9).final

        def translate(values, shift):
            fhat = np.fft.fft(values) * np.exp(-1j * grid.xi * shift)
            return np.fft.ifft(fhat).real

        for name in BilayerState.FIELDS:
            expect = translate(getattr(ref, name), c * T)
            if name.startswith("U"):
                expect = expect + c
            got = getattr(mov, name)
            err = np.max(np.abs(got - expect))
            assert err <= 1e-9, f"Galilean mismatch on {name}: {err:.2e}"

    def test_reflection_symmetry(self):
        grid = SpatialGrid(64)
        T = 0.2
        init = make_initial(grid, "gaussian", {"H_s": 0.04, "U_b": 0.03},
                            center=2.0, width=0.5)

        def reflect(state, t=0.0):
            idx = (-np.arange(grid.n_x)) % grid.n_x
            return BilayerState(t, grid, state.stacked[:, idx]
                                * [[1.0], [1.0], [-1.0], [-1.0]])

        p = params_with(kappa=0.02)
        dt = 0.5 * cfl_limit(init, p)
        n = int(np.ceil(T / dt))
        fwd = integrate(init, p, T, dt=T / n, snapshot_every=10 ** 9).final
        back = integrate(reflect(init), p, T, dt=T / n,
                         snapshot_every=10 ** 9).final
        mirrored = reflect(fwd, t=T)
        for name in BilayerState.FIELDS:
            err = np.max(np.abs(getattr(back, name)
                                - getattr(mirrored, name)))
            assert err <= 1e-10, f"reflection mismatch on {name}: {err:.2e}"


class TestBDResidual:
    def run_traj(self, dt_div):
        grid = SpatialGrid(64)
        p = params_with(kappa=0.1)
        init = make_initial(grid, "sine", {"H_s": 0.05, "U_s": 0.03},
                            wavenumber=1)
        T = 0.2
        n0 = int(np.ceil(T / cfl_limit(init, p)))
        return integrate(init, p, T, dt=T / (n0 * dt_div)), p

    def test_residual_small(self):
        traj, p = self.run_traj(1)
        _, res = bd_residual(traj, p)
        assert np.max(res) <= 1e-6, (
            f"total-velocity system residual {np.max(res):.2e}")

    def test_residual_fourth_order_in_dt(self):
        maxima = []
        for div in (1, 2, 4):
            traj, p = self.run_traj(div)
            _, res = bd_residual(traj, p)
            maxima.append(np.max(res))
        r1 = maxima[0] / maxima[1]
        r2 = maxima[1] / maxima[2]
        assert 9.0 <= r1 <= 30.0, f"first halving ratio {r1:.1f}"
        assert 9.0 <= r2 <= 30.0, f"second halving ratio {r2:.1f}"

    @pytest.mark.parametrize("kappa, div", [(0.1, 2.0), (0.1, 4.0),
                                            (0.0, 2.0)])
    def test_stacked_residual_is_the_snapshot_loop(self, kappa, div):
        # the check-all suite's runs: one pass over the stacked snapshots
        # gives each snapshot's bits
        grid = SpatialGrid(64)
        p = params_with(kappa=kappa)
        init = make_initial(grid, "sine", {"H_s": 0.05, "U_s": 0.03})
        traj = integrate(init, p, 0.2, dt=cfl_limit(init, p) / div)
        times, res = bd_residual(traj, p)
        want_times, want = oracles.bd_residual_by_snapshots(traj, p)
        assert res.shape == (len(traj.states) - 4,)
        assert np.array_equal(times, want_times)
        assert np.array_equal(res, want)

    def test_thin_snapshot_is_a_blowup_at_its_time(self):
        # the first snapshot at the depth floor is named, as the
        # per-snapshot total velocity named it
        grid = SpatialGrid(16)
        thin = [state_of(grid), state_of(grid, -PARAMS0.Hbar_s)]
        states = [BilayerState(0.1 * i, grid, thin[i in (2, 3)].stacked)
                  for i in range(6)]
        with pytest.raises(BlowUpError, match="at t = 0.2$"):
            bd_residual(types.SimpleNamespace(states=states), PARAMS0)

    def test_needs_uniform_snapshots(self):
        traj, p = self.run_traj(1)
        traj.states.pop(3)
        with pytest.raises(ValueError):
            bd_residual(traj, p)


class TestEnergy:
    def test_nearby_runs_stay_close_in_energy(self):
        # qualitative Gronwall shape: the L2 size of the difference of two
        # nearby runs grows by at most a modest factor on a short horizon
        grid = SpatialGrid(64)
        p = params_with(kappa=0.1)
        a = make_initial(grid, "sine", {"H_s": 0.03, "U_s": 0.02})
        shift = np.zeros((4, grid.n_x))
        shift[0] = 1e-5 * np.sin(2.0 * grid.x)
        b = BilayerState(0.0, grid, a.stacked + shift)
        T = 0.2
        dt = 0.5 * cfl_limit(a, p)
        n = int(np.ceil(T / dt))
        ta = integrate(a, p, T, dt=T / n)
        tb = integrate(b, p, T, dt=T / n)
        sizes = [bilayer.stacked_norm(grid, sb.stacked - sa.stacked, 0.0)
                 for sa, sb in zip(ta.states, tb.states)]
        assert len(sizes) > 2 and sizes[0] > 0.0
        assert max(sizes) <= 10.0 * sizes[0], (
            f"difference grew {max(sizes) / sizes[0]:.1f}x")


class TestInitialData:
    def test_shapes(self):
        grid = SpatialGrid(64)
        s = make_initial(grid, "sine", {"U_b": 0.1}, wavenumber=3)
        want = 0.1 * np.sin(3.0 * grid.x)
        assert np.max(np.abs(s.U_b - want)) <= 1e-13
        assert np.max(np.abs(s.H_s)) == 0.0
        g = make_initial(grid, "gaussian", {"H_s": 1.0},
                         center=float(grid.x[10]), width=0.3)
        assert abs(g.H_s[10] - 1.0) <= 1e-12
        z = make_initial(grid, "zero")
        assert np.max(np.abs(z.stacked)) == 0.0

    @pytest.mark.parametrize("width", [0.0, -0.5, np.inf, np.nan])
    def test_bad_width_rejected(self, width):
        # 0 once failed as a non-finite field, and -0.5 ran as 0.5
        with pytest.raises(ValueError, match="width must be finite and "
                           "positive"):
            make_initial(SpatialGrid(16), "gaussian", width=width)

    def test_bad_names_rejected(self):
        grid = SpatialGrid(32)
        with pytest.raises(ValueError):
            make_initial(grid, "sine", {"H_x": 0.1})
        with pytest.raises(ValueError):
            make_initial(grid, "sawtooth")

    def test_csv_roundtrip(self):
        # the snapshot writer's cells parse back to the exact field values
        grid = SpatialGrid(32)
        state = make_initial(grid, "gaussian", {"H_s": 0.05, "U_s": -0.02})
        traj = integrate(state, PARAMS0, 0.05, snapshot_every=2)
        buf = io.StringIO()
        write_snapshots(traj, buf)
        buf.seek(0)
        data = np.genfromtxt(buf, delimiter=",", names=True)
        rows = data.reshape(len(traj.states), grid.n_x)
        for st, got in zip(traj.states, rows):
            assert np.all(got["t"] == st.t)
            assert np.array_equal(got["x"], grid.x)
            for name in BilayerState.FIELDS:
                assert np.array_equal(got[name], getattr(st, name))


class TestWriters:
    def test_snapshot_csv_parses(self):
        grid = SpatialGrid(16)
        init = make_initial(grid, "sine", {"H_s": 0.05})
        traj = integrate(init, PARAMS0, 0.05)
        buf = io.StringIO()
        write_snapshots(traj, buf)
        buf.seek(0)
        data = np.genfromtxt(buf, delimiter=",", names=True)
        assert data.dtype.names == ("t", "x", "H_s", "H_b", "U_s", "U_b")
        assert data.shape[0] == len(traj.states) * grid.n_x

    def test_diagnostics_csv_parses(self):
        grid = SpatialGrid(16)
        init = make_initial(grid, "sine", {"H_s": 0.05})
        traj = integrate(init, PARAMS0, 0.05)
        buf = io.StringIO()
        write_diagnostics(traj, buf)
        buf.seek(0)
        data = np.genfromtxt(buf, delimiter=",", names=True)
        assert data.dtype.names == ("t", "mass_s", "mass_b", "hs_norm", "margin")
        assert data["t"].size == traj.diagnostics["t"].size
        speed = max_characteristic_speed(
            PARAMS0.rho_ratio, *bilayer._totals(init.stacked, PARAMS0))
        assert speed > 0.0
        assert combined_norm(init) > 0.0
