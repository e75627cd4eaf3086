"""Two-layer shallow-water dynamics with thickness diffusivity.

State fields are deviations (H_s, H_b, U_s, U_b) from reference constants
(Hbar_s, Hbar_b, Ubar_s, Ubar_b). With total depths h_l = Hbar_l + H_l and
total velocities u_l = Ubar_l + U_l the evolution is

    d/dt H_l = -d_x(h_l u_l) + kappa d_x^2 H_l
    d/dt U_s = -(u_s - kappa d_x H_s / h_s) d_x U_s - d_x H_s - d_x H_b
    d/dt U_b = -(u_b - kappa d_x H_b / h_b) d_x U_b
               - (rho_s/rho_b) d_x H_s - d_x H_b

(kappa = 0 recovers the plain system). The combination
V_l = U_l - kappa d_x H_l / h_l closes on its own: the mass equations with
u replaced by Ubar + V reproduce the diffusive mass equations exactly, and

    d/dt V_l + (Ubar_l + V_l - kappa d_x H_l / h_l) d_x V_l + press_l
        = kappa d_x^2 V_l

with the same pressure gradients, so diffusion acts as a plain viscosity
on V. `bd_residual` checks that identity along stored trajectories.

Numerically this system is the two-level case of the isopycnal column of
`stratified`: level edges (-1, -Hbar_s, 0), densities (rho_b, rho_s),
shear (Ubar_b, Ubar_s), h = (H_b/Hbar_b, H_s/Hbar_s) and u = (U_b, U_s);
the cell thicknesses w_i (1 + h_i) are then the layer depths, and the
column pressure (1/rho) W d_x h is exactly the pair of gradients above.
`step` and `integrate` march that column with the shared RK4, time
loop and step limit. What stays here is specific to two layers: the
speeds that limit takes (the largest root magnitude lambda_max of the
characteristic quartic over the grid, solved only at the points whose
closed-form bound can reach it, and that bound),
hyperbolicity margins and the sigma gate, the total-velocity residual
and the CSV writers.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from .core import (
    CFL_DEFAULT,
    STEP_HEADROOM,
    LevelGrid,
    SobolevIndex,
    check_thickness,
    frozen_array,
    write_table,
)
from .hyperbolicity import (
    characteristic_speed_bound,
    froude_table,
    in_sigma_set,
    max_characteristic_speed,
)
from .stratified import (
    ColumnWork,
    Run,
    StratifiedProfile,
    column_derivative,
    march,
    rk4,
    self_pressure,
    state_limit,
)

BLOWUP_NORM_INDEX = SobolevIndex(2.0)
MARGIN_NODES_PER_DECADE = 192


@dataclass(frozen=True)
class BilayerParams:
    """Reference constants and diffusivity for a bilayer run (immutable)."""
    rho_s: float
    rho_b: float
    Hbar_s: float
    Hbar_b: float
    Ubar_s: float = 0.0
    Ubar_b: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        if self.rho_s <= 0.0 or self.rho_b <= 0.0:
            raise ValueError("densities must be positive")
        if self.Hbar_s <= 0.0 or self.Hbar_b <= 0.0:
            raise ValueError("reference depths must be positive")
        if abs(self.Hbar_s + self.Hbar_b - 1.0) > 1e-14:
            raise ValueError(
                f"reference depths must sum to 1, got {self.Hbar_s + self.Hbar_b}")
        if abs(self.Ubar_s + self.Ubar_b) > 1e-14:
            raise ValueError(
                f"reference velocities must sum to 0, got {self.Ubar_s + self.Ubar_b}")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError(f"kappa must lie in [0, 1], got {self.kappa}")

    @property
    def rho_ratio(self):
        return self.rho_s / self.rho_b

    @cached_property
    def column(self):
        """The two-level column profile: edges (-1, -Hbar_s, 0).

        Built once per params, so every step of a run shares one profile
        and its step matrices.
        """
        return StratifiedProfile(LevelGrid((-1.0, -self.Hbar_s, 0.0)),
                                 (self.rho_b, self.rho_s),
                                 (self.Ubar_b, self.Ubar_s))


class BilayerState:
    """Deviation fields at one instant: `stacked` is one read-only
    (4, n_x) copy, whose rows are H_s, H_b, U_s and U_b."""

    FIELDS = ("H_s", "H_b", "U_s", "U_b")

    def __init__(self, t, grid, stacked):
        self.t = float(t)
        self.grid = grid
        self.stacked = frozen_array(stacked, (4, grid.n_x), "BilayerState")
        self.H_s, self.H_b, self.U_s, self.U_b = self.stacked


def _totals(stacked, params):
    """Totals (h_s, h_b, u_s, u_b) of deviations stacked on axis -2."""
    return (params.Hbar_s + stacked[..., 0, :],
            params.Hbar_b + stacked[..., 1, :],
            params.Ubar_s + stacked[..., 2, :],
            params.Ubar_b + stacked[..., 3, :])


def _to_column(stacked, grid, params):
    """Column arrays (h, u), lower level first, and the `rk4` column."""
    h = np.array([stacked[1] / params.Hbar_b, stacked[0] / params.Hbar_s])
    profile = params.column
    return h, stacked[[3, 2]], (grid, profile, params.kappa,
                                self_pressure(profile))


def _from_column(h, u, params):
    """Stacked deviations (H_s, H_b, U_s, U_b) of column arrays."""
    return np.array([params.Hbar_s * h[1], params.Hbar_b * h[0], u[1], u[0]])


def rhs(state, params):
    """Time derivatives, rows (dH_s, dH_b, dU_s, dU_b), diffusion included."""
    h, u, column = _to_column(state.stacked, state.grid, params)
    return _from_column(*column_derivative(h, u, state.t, *column), params)


def total_velocity(stacked, times, grid, params):
    """Total velocities of stacked states, with the depths and slopes used.

    `stacked` is (m, 4, n_x), one (H_s, H_b, U_s, U_b) state per entry of
    `times`; each state's depths are checked against the floor at its own
    time. Returns (depth, dHx, V), each (m, 2, n_x) with rows (s, b): the
    depths h_l = Hbar_l + H_l, d_x H_l and V_l = U_l - kappa d_x H_l / h_l.
    """
    hs, hb, _, _ = _totals(stacked, params)
    depth = np.stack([hs, hb], axis=1)
    for dep, t in zip(depth, times):
        check_thickness(dep, t)
    dHx = grid.derivative(stacked[:, :2])
    return depth, dHx, stacked[:, 2:] - params.kappa * dHx / depth


def cfl_limit(state, params, cfl=CFL_DEFAULT):
    """Largest admissible dt at this state: `state_limit` at lambda_max,
    the quartic's largest root magnitude over the grid."""
    speed = max_characteristic_speed(params.rho_ratio,
                                     *_totals(state.stacked, params))
    return state_limit(_to_column(state.stacked, state.grid, params)[0],
                       state.grid, params.kappa, speed, cfl)


def step(t, y, dt, grid, params, cfl=CFL_DEFAULT, work=None):
    """One IF-RK4 step of the two-level column from y at time t.

    y stacks the rows (H_s, H_b, U_s, U_b); fresh ones at t + dt come
    back. `rk4` certifies dt with `characteristic_speed_bound` (infinite
    at a depth <= 0) and solves the quartic only past it. `work` is the
    run's two-level ColumnWork.
    """
    rr, totals = params.rho_ratio, _totals(y, params)
    h, u, column = _to_column(y, grid, params)
    h, u = rk4(h, u, t, dt, *column, work=work, cfl=cfl, speeds=(
        lambda: characteristic_speed_bound(rr, *totals),
        lambda: max_characteristic_speed(rr, *totals)))
    return _from_column(h, u, params)


# ----------------------------------------------------------------------
# margins along a run
# ----------------------------------------------------------------------

class MarginTable:
    """Interpolation table for Fr_-(depth ratio) at fixed density ratio.

    Exact thresholds at every grid point and step would cost more than
    the table; the threshold is smooth in the depth ratio, so
    diagnostics read a geometric table instead and extend it on demand.
    Each run keeps its own table and range; the nodes of a (density
    ratio, range, node count) are solved once per process and shared,
    read-only, by every table that reads them.
    """

    def __init__(self, rho_ratio, lo, hi):
        self.rho_ratio = rho_ratio
        self.lo = lo
        self.hi = hi
        self._build()

    @classmethod
    def spanning(cls, rho_ratio, ratios):
        """A table over [min/2, 2 max] of the depth ratios it first reads."""
        return cls(rho_ratio, 0.5 * float(ratios.min()),
                   2.0 * float(ratios.max()))

    def _build(self):
        decades = math.log10(self.hi / self.lo)
        n = max(17, int(decades * MARGIN_NODES_PER_DECADE) + 1)
        self.nodes, self.fr_minus = _margin_nodes(self.rho_ratio, self.lo,
                                                  self.hi, n)

    def __call__(self, ratios):
        rmin, rmax = float(np.min(ratios)), float(np.max(ratios))
        if rmin < self.lo or rmax > self.hi:
            self.lo = min(self.lo, 0.5 * rmin)
            self.hi = max(self.hi, 2.0 * rmax)
            self._build()
        return np.interp(ratios, self.nodes, self.fr_minus)


@lru_cache(maxsize=32)
def _margin_nodes(rho_ratio, lo, hi, n):
    """Read-only (nodes, Fr_-) of an n-node `froude_table` over [lo, hi]."""
    nodes, fr_minus, _ = froude_table(rho_ratio, lo, hi, n_nodes=n)
    nodes.flags.writeable = False
    fr_minus.flags.writeable = False
    return nodes, fr_minus


def pointwise_margin(state, params, table=None):
    """Fr_-(H_s/H_b) - |u_b - u_s|/sqrt(h_b) at every grid point."""
    hs, hb, us, ub = _totals(state.stacked, params)
    check_thickness((hs, hb), state.t)
    ratios = hs / hb
    if table is None:
        table = MarginTable.spanning(params.rho_ratio, ratios)
    shear = np.abs(ub - us) / np.sqrt(hb)
    return table(ratios) - shear


def in_margin_set(state, params, sigma, table=None):
    """`in_sigma_set` at every grid point, with Fr_- from the margin table
    `table()` makes, or a new one, once the first three conditions hold."""
    hs, hb, _, _ = _totals(state.stacked, params)
    ratios = hs / hb
    return in_sigma_set(sigma, params.rho_ratio, float(ratios.min()),
                        float(ratios.max()), float((hs + hb).min()),
                        lambda: pointwise_margin(
                            state, params, table and table()).min())


# ----------------------------------------------------------------------
# trajectories
# ----------------------------------------------------------------------

def combined_norm(state, s=BLOWUP_NORM_INDEX):
    """H^s size of the four deviation fields together."""
    return stacked_norm(state.grid, state.stacked, s)


def stacked_norm(grid, stacked, s=BLOWUP_NORM_INDEX):
    """H^s size of the rows of `stacked` together."""
    norms = grid.sobolev_norms_rows(stacked, s)
    return float(np.sqrt(np.sum(norms * norms)))


def integrate(initial, params, T, dt=None, cfl=CFL_DEFAULT, snapshot_every=1,
              sigma=None):
    """March the state to time T with a fixed step.

    The step is the `dt` request or, by default, STEP_HEADROOM times the
    CFL limit of the initial state, shrunk to divide T evenly; every step
    re-checks the limit against the current state. Snapshots and
    diagnostics (masses, H^2 norm, worst margin) are stored every
    `snapshot_every` steps. If `sigma` is given (in (0, 1)) the initial
    state must lie in the sigma-margin set; dropping below sigma/2 along
    the run is recorded as a warning, not an error. Blow-ups are flagged
    as `stratified.march` flags them; an initial state at the floor
    raises BlowUpError.
    """
    hs, hb, _, _ = _totals(initial.stacked, params)
    # the run's one margin table; the sigma gate may build it first
    run_table = cache(lambda: MarginTable.spanning(params.rho_ratio, hs / hb))
    if sigma is not None and not in_margin_set(initial, params, sigma,
                                               run_table):
        raise ValueError(
            f"initial state leaves the sigma = {sigma} margin set")
    check_thickness((hs, hb), initial.t)
    table = run_table()

    def record(st, norm):
        margin = pointwise_margin(st, params, table)
        return {"t": st.t, "mass_s": float(st.H_s.mean()),
                "mass_b": float(st.H_b.mean()), "hs_norm": norm,
                "margin": float(margin.min())}

    if dt is None:
        dt = STEP_HEADROOM * cfl_limit(initial, params, cfl)
    grid = initial.grid
    work = ColumnWork(grid, 2)
    run = march(initial, initial.stacked,
                lambda t, y, dt: step(t, y, dt, grid, params, cfl, work),
                lambda t, y: BilayerState(t, grid, y),
                T, dt, combined_norm, record, snapshot_every)
    if sigma is not None:
        low = run["diagnostics"]["margin"] < 0.5 * sigma
        if low.any():
            t_low = run["diagnostics"]["t"][np.argmax(low)]
            run["warnings"] = (f"margin fell below sigma/2 = {0.5 * sigma} "
                               f"at t = {t_low:.6g}",) + run["warnings"]
    return Run(**run)


# ----------------------------------------------------------------------
# total-velocity consistency along a run
# ----------------------------------------------------------------------

def bd_residual(trajectory, params):
    """Residual of the closed (H, V) system along a stored run.

    Snapshots must be every step (uniform spacing dt). Time derivatives
    use the five-point fourth-order centered stencil, so only interior
    times appear in the output. Returns (times, residual) with residual
    the root-sum-square of the four equation residuals in discrete L2.
    The snapshots are stacked as one (m, 4, n_x) array and every spatial
    derivative and dealias acts on all of them in one call; the
    transforms work row by row, so each snapshot's residual has the bits
    it would have alone.
    """
    states = trajectory.states
    if len(states) < 5:
        raise ValueError("need at least five snapshots for the time stencil")
    times = np.array([s.t for s in states])
    dts = np.diff(times)
    if np.max(np.abs(dts - dts[0])) > 1e-12 * max(dts[0], 1e-30):
        raise ValueError("bd_residual needs uniformly spaced snapshots")
    dt = dts[0]
    grid = states[0].grid
    kappa = params.kappa
    d = grid.derivative

    stacked = np.array([s.stacked for s in states])        # (m, 4, n_x)
    depth, dHx, V = total_velocity(stacked, times, grid, params)
    H = stacked[:, :2]
    _, _, us, ub = _totals(np.concatenate([H, V], axis=1), params)
    u = np.stack([us, ub], axis=1)                         # Ubar_l + V_l

    # five-point centered d/dt
    dH = (-H[4:] + 8.0 * H[3:-1] - 8.0 * H[1:-3] + H[:-4]) / (12.0 * dt)
    dV = (-V[4:] + 8.0 * V[3:-1] - 8.0 * V[1:-3] + V[:-4]) / (12.0 * dt)

    inner = slice(2, -2)
    depth, dHx, v, u = depth[inner], dHx[inner], V[inner], u[inner]
    dHs, dHb = dHx[:, :1], dHx[:, 1:]
    mass = dH + d(grid.dealias(depth * u))
    adv = u - kappa * dHx / depth
    press = np.concatenate([dHs, params.rho_ratio * dHs], axis=1)
    momentum = (dV + grid.dealias(adv * d(v)) + press + dHb
                - kappa * d(v, order=2))
    eq = np.concatenate([mass, momentum], axis=1)          # (m - 4, 4, n_x)
    res = np.sqrt(grid.length) * np.sqrt(
        np.sum(np.mean(eq * eq, axis=-1), axis=-1))
    return times[inner], res


# ----------------------------------------------------------------------
# initial data and CSV writers
# ----------------------------------------------------------------------

def make_initial(grid, kind="sine", amplitudes=None, wavenumber=1,
                 center=None, width=None, t=0.0):
    """Closed-form initial deviations.

    kind "sine": a * sin(2 pi k x / L); "gaussian": a * exp(-(x-c)^2 /
    (2 w^2)) with the offset wrapped periodically; "zero". `amplitudes`
    maps field names (H_s, H_b, U_s, U_b) to a; omitted fields stay 0.
    A width that is not finite and positive is a ValueError.
    """
    if amplitudes is None:
        amplitudes = {"H_s": 0.05}
    if not isinstance(amplitudes, Mapping):
        raise ValueError(f"amplitudes must map field names to numbers, "
                         f"got {type(amplitudes).__name__}")
    unknown = set(amplitudes) - set(BilayerState.FIELDS)
    if unknown:
        raise ValueError(f"unknown field names: {sorted(unknown)}")
    L = grid.length
    if center is None:
        center = 0.5 * L
    if width is None:
        width = L / 12.0
    if not 0.0 < width < np.inf:
        raise ValueError(f"width must be finite and positive, got {width}")

    def shape(a):
        if kind == "sine":
            return a * np.sin(2.0 * np.pi * wavenumber * grid.x / L)
        if kind == "gaussian":
            off = (grid.x - center + 0.5 * L) % L - 0.5 * L
            return a * np.exp(-0.5 * (off / width) ** 2)
        if kind == "zero":
            return np.zeros(grid.n_x)
        raise ValueError(f"unknown initial-data kind {kind!r}")

    return BilayerState(t, grid, [shape(amplitudes.get(name, 0.0))
                                  for name in BilayerState.FIELDS])


def write_snapshots(run, f):
    """Rows (t, x, H_s, H_b, U_s, U_b) for every stored snapshot."""
    write_table(f, "t,x,H_s,H_b,U_s,U_b", (
        (st.t, x, *fields) for st in run.states
        for x, fields in zip(st.grid.x, st.stacked.T)))


def write_diagnostics(run, f):
    """Rows (t, mass_s, mass_b, hs_norm, margin)."""
    names = ("t", "mass_s", "mass_b", "hs_norm", "margin")
    write_table(f, ",".join(names), zip(*(run.diagnostics[k] for k in names)))
