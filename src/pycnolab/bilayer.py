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
`step` and `integrate` march that column with the shared
integrating-factor RK4 and time loop, which integrates the diffusion
kappa d_x^2 H_l exactly. What stays here is specific to two layers: the
exact CFL bound dt <= cfl * dx / (lambda_max + kappa max|d_x H_l / h_l|)
with lambda_max the largest root of the characteristic quartic over the
grid (the diffusion sets no bound; a closed-form bound on lambda_max
certifies most steps), hyperbolicity margins and the sigma gate, the
total-velocity residual, the symmetrizer energy and the CSV writers.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import (
    CFL_DEFAULT,
    Field1D,
    LevelGrid,
    SobolevIndex,
    check_thickness,
    csv_cell,
)
from .hyperbolicity import (
    characteristic_speed_bound,
    coefficient_arrays,
    froude_table,
    max_characteristic_speed,
    quartic_roots_batch,
    symmetrizer_fields,
)
from .stratified import (
    ColumnWork,
    Run,
    StratifiedProfile,
    column_derivative,
    diffusive_drift,
    march,
    rk4,
    self_pressure,
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
    """Deviation fields at one instant, all on a shared grid."""

    FIELDS = ("H_s", "H_b", "U_s", "U_b")

    def __init__(self, t, H_s, H_b, U_s, U_b):
        self.t = float(t)
        grid = H_s.grid
        for f in (H_b, U_s, U_b):
            if f.grid is not grid:
                raise ValueError("all four fields must share one grid")
        self.H_s, self.H_b, self.U_s, self.U_b = H_s, H_b, U_s, U_b
        self.grid = grid

    @classmethod
    def zeros(cls, grid, t=0.0):
        z = Field1D.zeros(grid)
        return cls(t, z, z, z, z)

    @classmethod
    def from_arrays(cls, t, grid, stacked):
        return cls(t, *(Field1D(row, grid) for row in stacked))

    def stacked(self):
        return np.array([self.H_s.values, self.H_b.values,
                         self.U_s.values, self.U_b.values])


@dataclass
class EnergySample:
    """Symmetrizer quadratic form and plain L2 size of a perturbation."""
    t: float
    E: float
    l2: float
    coercivity: float = 0.0


def _totals(stacked, params):
    return (params.Hbar_s + stacked[0], params.Hbar_b + stacked[1],
            params.Ubar_s + stacked[2], params.Ubar_b + stacked[3])


def _to_column(stacked, grid, params):
    """Column arrays (h, u), lower level first, and the column_rhs arguments."""
    h = np.array([stacked[1] / params.Hbar_b, stacked[0] / params.Hbar_s])
    profile = params.column
    return h, stacked[[3, 2]], (grid, profile, params.kappa,
                                self_pressure(profile))


def _from_column(h, u, params):
    """Stacked deviations (H_s, H_b, U_s, U_b) of column arrays."""
    return np.array([params.Hbar_s * h[1], params.Hbar_b * h[0], u[1], u[0]])


def rhs(state, params):
    """Time derivatives (dH_s, dH_b, dU_s, dU_b), diffusion included."""
    h, u, column = _to_column(state.stacked(), state.grid, params)
    dh, du = column_derivative(h, u, state.t, *column)
    return tuple(Field1D(row, state.grid)
                 for row in _from_column(dh, du, params))


def total_velocity(state, params):
    """The fields V_l = U_l - kappa d_x H_l / (Hbar_l + H_l)."""
    stacked = state.stacked()
    hs, hb, _, _ = _totals(stacked, params)
    check_thickness((hs, hb), state.t)
    g = state.grid
    Vs = stacked[2] - params.kappa * g.derivative(stacked[0]) / hs
    Vb = stacked[3] - params.kappa * g.derivative(stacked[1]) / hb
    return Field1D(Vs, g), Field1D(Vb, g)


def grid_max_speed(state, params):
    """Largest characteristic root magnitude over the grid."""
    return max_characteristic_speed(params.rho_ratio,
                                    *_totals(state.stacked(), params))


def cfl_limit(state, params, cfl=CFL_DEFAULT):
    """Largest admissible dt at this state, by the exact route.

    cfl dx over the largest characteristic speed, solved at every grid
    point, plus the diffusive drift kappa max|d_x H_l / h_l| (the
    diffusion sets no bound). Initial dts come from here; `step` checks
    the same limit, with the drift of rk4's first stage, whenever the
    speed bound cannot certify its dt.
    """
    # d_x H_l / h_l = d_x h / (1 + h) with h = H_l / Hbar_l
    h = _to_column(state.stacked(), state.grid, params)[0]
    speed = (grid_max_speed(state, params)
             + diffusive_drift(state.grid, h, params.kappa))
    return cfl * state.grid.dx / speed


def step(t, y, dt, grid, params, cfl=CFL_DEFAULT, work=None):
    """One IF-RK4 step of the two-level column from y at time t.

    y stacks the rows (H_s, H_b, U_s, U_b); fresh ones at t + dt come
    back. A dt within cfl dx / (bound + drift), with the closed-form
    `characteristic_speed_bound` for the quartic's roots, is certified
    without solving the quartic; any other dt (a depth <= 0 included) is
    checked against `cfl_limit`'s exact limit, which also words a breach.
    `work` is the run's two-level ColumnWork.
    """
    totals = _totals(y, params)

    def limit(drift):
        bound = characteristic_speed_bound(params.rho_ratio, *totals)
        certified = cfl * grid.dx / (bound * (1.0 + 1e-12) + drift)
        if dt <= certified:
            return certified
        speed = max_characteristic_speed(params.rho_ratio, *totals) + drift
        return cfl * grid.dx / speed

    h, u, column = _to_column(y, grid, params)
    h, u = rk4(h, u, t, dt, *column, work=work, limit=limit)
    return _from_column(h, u, params)


# ----------------------------------------------------------------------
# margins along a run
# ----------------------------------------------------------------------

@lru_cache(maxsize=16)
def _margin_nodes(rho_ratio, lo, hi, n_nodes):
    """`froude_table`'s nodes and Fr_- values, read-only, solved once per
    process for each (density ratio, range, node count)."""
    nodes, fr_minus, _ = froude_table(rho_ratio, lo, hi, n_nodes=n_nodes)
    nodes.flags.writeable = False
    fr_minus.flags.writeable = False
    return nodes, fr_minus


class MarginTable:
    """Interpolation table for Fr_-(depth ratio) at fixed density ratio.

    Exact bisection at every grid point and step would dominate runtime;
    the threshold is smooth in the depth ratio, so diagnostics read a
    geometric table instead and extend it on demand. Each run keeps its
    own table and range, but a table's nodes are shared per (density
    ratio, range, node count) within a process: the runs of one call
    mostly start from the same state, and solve its thresholds once.
    """

    def __init__(self, rho_ratio, lo, hi):
        self.rho_ratio = rho_ratio
        self.lo = lo
        self.hi = hi
        self._build()

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


def pointwise_margin(state, params, table=None):
    """Fr_-(H_s/H_b) - |u_b - u_s|/sqrt(h_b) at every grid point."""
    hs, hb, us, ub = _totals(state.stacked(), params)
    check_thickness((hs, hb), state.t)
    ratios = hs / hb
    if table is None:
        table = MarginTable(params.rho_ratio,
                            0.5 * float(ratios.min()), 2.0 * float(ratios.max()))
    shear = np.abs(ub - us) / np.sqrt(hb)
    return table(ratios) - shear, table


def in_margin_set(state, params, sigma, table=None):
    """Pointwise membership in the sigma-margin hyperbolicity set."""
    rr = params.rho_ratio
    if not sigma / 2.0 <= rr <= 1.0 - sigma / 2.0:
        return False, table
    hs, hb, _, _ = _totals(state.stacked(), params)
    ratios = hs / hb
    if float(ratios.min()) < sigma or float(ratios.max()) > 1.0 / sigma:
        return False, table
    if float((hs + hb).min()) < sigma:
        return False, table
    margin, table = pointwise_margin(state, params, table)
    return bool(margin.min() >= sigma), table


# ----------------------------------------------------------------------
# trajectories
# ----------------------------------------------------------------------

@dataclass(eq=False, kw_only=True)
class Trajectory(Run):
    params: BilayerParams


def combined_norm(state, s=BLOWUP_NORM_INDEX):
    """H^s size of the four deviation fields together."""
    return stacked_norm(state.grid, state.stacked(), s)


def stacked_norm(grid, stacked, s=BLOWUP_NORM_INDEX):
    """H^s size of the rows of `stacked` together."""
    norms = grid.sobolev_norms_rows(stacked, s)
    return float(np.sqrt(np.sum(norms * norms)))


def integrate(initial, params, T, dt=None, cfl=CFL_DEFAULT, snapshot_every=1,
              sigma=None):
    """March the state to time T with a fixed step.

    The step is chosen once from the CFL limit of the initial state (or
    from the `dt` request, shrunk to divide T evenly); every step
    re-checks the limit against the current state. Snapshots and
    diagnostics (masses, H^2 norm, worst margin) are stored every
    `snapshot_every` steps. If `sigma` is given the initial state must
    lie in the sigma-margin set; dropping below sigma/2 along the run is
    recorded as a warning, not an error. The run halts with a blow-up
    flag when the H^2 norm passes BLOWUP_FACTOR times its initial value,
    depths hit the positivity floor or the CFL limit tightens below the
    step (see `stratified.march`).
    """
    table = None
    if sigma is not None:
        ok, table = in_margin_set(initial, params, sigma, table)
        if not ok:
            raise ValueError(
                f"initial state leaves the sigma = {sigma} margin set")

    def record(st, norm):
        nonlocal table
        margin, table = pointwise_margin(st, params, table)
        return {"t": st.t, "mass_s": float(st.H_s.values.mean()),
                "mass_b": float(st.H_b.values.mean()), "hs_norm": norm,
                "margin": float(margin.min())}

    if dt is None:
        dt = cfl_limit(initial, params, cfl)
    grid = initial.grid
    work = ColumnWork(grid, 2)
    run = march(initial, initial.stacked(),
                lambda t, y, dt: step(t, y, dt, grid, params, cfl, work),
                lambda t, y: BilayerState.from_arrays(t, grid, y),
                T, dt, combined_norm, record, snapshot_every)
    if sigma is not None:
        low = run["diagnostics"]["margin"] < 0.5 * sigma
        if low.any():
            t_low = run["diagnostics"]["t"][np.argmax(low)]
            run["warnings"] = (f"margin fell below sigma/2 = {0.5 * sigma} "
                               f"at t = {t_low:.6g}",) + run["warnings"]
    return Trajectory(params=params, **run)


# ----------------------------------------------------------------------
# total-velocity consistency along a run
# ----------------------------------------------------------------------

def bd_residual(trajectory, params):
    """Residual of the closed (H, V) system along a stored run.

    Snapshots must be every step (uniform spacing dt). Time derivatives
    use the five-point fourth-order centered stencil, so only interior
    times appear in the output. Returns (times, residual) with residual
    the root-sum-square of the four equation residuals in discrete L2.
    """
    states = trajectory.states
    if len(states) < 5:
        raise ValueError("need at least five snapshots for the time stencil")
    dts = np.diff([s.t for s in states])
    if np.max(np.abs(dts - dts[0])) > 1e-12 * max(dts[0], 1e-30):
        raise ValueError("bd_residual needs uniformly spaced snapshots")
    dt = dts[0]
    grid = states[0].grid
    kappa = params.kappa

    H = np.array([s.stacked()[:2] for s in states])        # (m, 2, n_x)
    V = np.zeros_like(H)
    for i, s in enumerate(states):
        Vs, Vb = total_velocity(s, params)
        V[i, 0] = Vs.values
        V[i, 1] = Vb.values

    # five-point centered d/dt
    dH = (-H[4:] + 8.0 * H[3:-1] - 8.0 * H[1:-3] + H[:-4]) / (12.0 * dt)
    dV = (-V[4:] + 8.0 * V[3:-1] - 8.0 * V[1:-3] + V[:-4]) / (12.0 * dt)

    times = np.array([s.t for s in states[2:-2]])
    res = np.zeros(times.size)
    rr = params.rho_ratio
    d = grid.derivative
    scale = np.sqrt(grid.length)

    for j, i in enumerate(range(2, len(states) - 2)):
        st = states[i]
        hs, hb, _, _ = _totals(st.stacked(), params)
        dHs, dHb = d(st.H_s.values), d(st.H_b.values)
        vs, vb = V[i]
        eq = np.zeros((4, grid.n_x))
        eq[0] = dH[j, 0] + d(grid.dealias(hs * (params.Ubar_s + vs)))
        eq[1] = dH[j, 1] + d(grid.dealias(hb * (params.Ubar_b + vb)))
        adv_s = params.Ubar_s + vs - kappa * dHs / hs
        adv_b = params.Ubar_b + vb - kappa * dHb / hb
        eq[2] = (dV[j, 0] + grid.dealias(adv_s * d(vs)) + dHs + dHb
                 - kappa * d(vs, order=2))
        eq[3] = (dV[j, 1] + grid.dealias(adv_b * d(vb)) + rr * dHs + dHb
                 - kappa * d(vb, order=2))
        res[j] = scale * np.sqrt(float(np.sum(np.mean(eq * eq, axis=1))))
    return times, res


# ----------------------------------------------------------------------
# symmetrizer energy
# ----------------------------------------------------------------------

def _middle_root_shift(hs, hb, us, ub, rho_ratio):
    """Per-point shift lambda: midpoint of the middle real roots, clipped."""
    roots = quartic_roots_batch(*coefficient_arrays(rho_ratio, hs, hb, us, ub))
    scale = 1.0 + np.max(np.abs(roots), axis=-1)
    n_real = np.sum(np.abs(roots.imag) <= 1e-9 * scale[..., None], axis=-1)
    if np.any(n_real < 4):
        raise ValueError("base state leaves the hyperbolic regime")
    lams = np.sort(roots.real, axis=-1)
    lam = 0.5 * (lams[..., 1] + lams[..., 2])
    return np.clip(lam, np.minimum(us, ub), np.maximum(us, ub))


def energy_functional(base, perturbation, params):
    """The symmetrizer energy of a perturbation pair along a base pair.

    `base` and `perturbation` are (state_U, state_V) pairs; the
    symmetrizer is assembled pointwise at the base U state with the
    middle-root shift, and E sums its quadratic form over both
    perturbation members with trapezoidal (here: exact periodic)
    quadrature. The sample records the empirical coercivity constant
    c^2 = min over the grid of the smallest symmetrizer eigenvalue, so
    E >= c^2 * l2^2 holds by construction.
    """
    base_u, _ = base
    pert_u, pert_v = perturbation
    grid = base_u.grid
    hs, hb, us, ub = _totals(base_u.stacked(), params)
    check_thickness((hs, hb), base_u.t)
    lam = _middle_root_shift(hs, hb, us, ub, params.rho_ratio)
    S = symmetrizer_fields(params.rho_ratio, hs, hb, us, ub, lam)

    eigs = np.linalg.eigvalsh(S)
    c2 = float(eigs[..., 0].min())
    if c2 <= 0.0:
        raise ValueError(
            f"symmetrizer lost definiteness (min eigenvalue {c2:.3e})")

    du = pert_u.stacked().T    # (n_x, 4)
    dv = pert_v.stacked().T
    quad = grid.length / grid.n_x
    E = float(np.einsum("xi,xij,xj->", du, S, du)
              + np.einsum("xi,xij,xj->", dv, S, dv)) * quad
    l2 = float(np.sqrt((np.sum(du * du) + np.sum(dv * dv)) * quad))
    return EnergySample(t=base_u.t, E=E, l2=l2, coercivity=c2)


# ----------------------------------------------------------------------
# initial data and CSV writers
# ----------------------------------------------------------------------

def make_initial(grid, kind="sine", amplitudes=None, wavenumber=1,
                 center=None, width=None, t=0.0):
    """Closed-form initial deviations.

    kind "sine": a * sin(2 pi k x / L); "gaussian": a * exp(-(x-c)^2 /
    (2 w^2)) with the offset wrapped periodically; "zero". `amplitudes`
    maps field names (H_s, H_b, U_s, U_b) to a; omitted fields stay 0.
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

    def shape(a):
        if kind == "sine":
            return a * np.sin(2.0 * np.pi * wavenumber * grid.x / L)
        if kind == "gaussian":
            off = (grid.x - center + 0.5 * L) % L - 0.5 * L
            return a * np.exp(-0.5 * (off / width) ** 2)
        if kind == "zero":
            return np.zeros(grid.n_x)
        raise ValueError(f"unknown initial-data kind {kind!r}")

    fields = [Field1D(shape(amplitudes.get(name, 0.0)), grid)
              for name in BilayerState.FIELDS]
    return BilayerState(t, *fields)


def write_snapshots(trajectory, f):
    """Rows (t, x, H_s, H_b, U_s, U_b) for every stored snapshot."""
    f.write("t,x,H_s,H_b,U_s,U_b\n")
    for st in trajectory.states:
        rows = st.stacked()
        t = csv_cell(st.t)
        for j, x in enumerate(st.grid.x):
            cells = ",".join(csv_cell(rows[i, j]) for i in range(4))
            f.write(f"{t},{csv_cell(x)},{cells}\n")


def write_diagnostics(trajectory, f):
    """Rows (t, mass_s, mass_b, hs_norm, margin)."""
    d = trajectory.diagnostics
    f.write("t,mass_s,mass_b,hs_norm,margin\n")
    for i in range(d["t"].size):
        cells = ",".join(csv_cell(d[k][i]) for k in
                         ("t", "mass_s", "mass_b", "hs_norm", "margin"))
        f.write(cells + "\n")
