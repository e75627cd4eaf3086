"""Continuously stratified hydrostatic dynamics in isopycnal coordinates.

The vertical coordinate r in (-1, 0) labels density surfaces; unknowns
h(t, x, r) and u(t, x, r) are deviations of the infinitesimal isopycnal
depth (from 1) and of the horizontal velocity (from a background shear
ubar(r)). With a background density rho(r) the motion obeys

    d/dt h + d_x((1 + h)(ubar + u)) = kappa d_x^2 h
    d/dt u + (ubar + u - kappa d_x h / (1 + h)) d_x u
          + (1/rho) d_x Psi = 0

where Psi is the Montgomery potential

    Psi(x, r) = rho(r) * integral_{-1}^{r} h dr'
              + integral_{r}^{0} rho(r') h dr'.

Discretely the r-integrals use the midpoint rule with the cell at r
split half below / half above its midpoint, which makes the kernel
W[i, j] = w_j * rho[max(i, j)] (levels indexed bottom to top) and keeps
the operator exact on piecewise-constant data aligned to cell edges.
That exactness is what turns two-layer states into exact solutions of
this system: `embed_bilayer` maps a bilayer state onto an
interface-aligned level grid and the level-wise dynamics reproduces the
bilayer dynamics to rounding.

This module hosts the only dynamics of the package. `column_rhs` is the
column right-hand side less the diffusion kappa d_x^2 h, with a
pluggable pressure tendency: the self-consistent -(1/rho) W d_x h here,
at two levels for `bilayer`, or a prescribed forcing for `refined`; it
makes eight real FFTs per call. `rk4` is the one time step, Lawson's
integrating-factor RK4: the diffusion, linear and diagonal in Fourier
space, is integrated exactly by the propagator exp(-kappa xi^2 dt/2)
(`heat_propagator`, built per step), so only the waves and the
advection bound the step. `march` is the one fixed-step time loop,
which turns blow-ups and mid-run CFL breaches into flagged, truncated
trajectories. The CFL estimate takes the gravity-wave speeds from the
symmetric form a R a, R[i, j] = rho[max(i, j)] and
a = sqrt(depth w / rho), which is similar to diag(depth) (1/rho) W, and
adds the diffusive drift kappa max|d_x h / (1 + h)| to the advection;
the profile-only matrices are built once per (immutable)
StratifiedProfile.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    CFL_DEFAULT,
    BlowUpError,
    Field2D,
    StepLimitError,
    check_step,
    check_thickness,
    csv_cell,
)


class StratifiedProfile:
    """Background density and shear sampled at level midpoints."""

    def __init__(self, levels, rho, ubar):
        rho = np.asarray(rho, dtype=float).copy()
        ubar = np.asarray(ubar, dtype=float).copy()
        if rho.shape != (levels.n_r,) or ubar.shape != (levels.n_r,):
            raise ValueError(
                f"profile needs {levels.n_r} per-level values, got "
                f"{rho.shape} and {ubar.shape}")
        if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(ubar))):
            raise ValueError("profile contains non-finite entries")
        if np.any(rho <= 0.0):
            raise ValueError("background density must be positive")
        rho.flags.writeable = False
        ubar.flags.writeable = False
        self.levels = levels
        self.rho = rho
        self.ubar = ubar

    def _density_matrix(self):
        """R[i, j] = rho[max(i, j)], the density of the upper level."""
        idx = np.arange(self.levels.n_r)
        return self.rho[np.maximum(idx[:, None], idx[None, :])]

    @cached_property
    def _step_matrices(self):
        """(1/rho) W and the symmetric b R b, built once, read-only.

        b = sqrt(w / rho); with a = sqrt(depth) b, a R a = q (b R b) q,
        q = diag(sqrt(depth)), is similar to diag(depth) (1/rho) W.
        """
        R = self._density_matrix()
        b = np.sqrt(self.levels.w / self.rho)
        out = (self.levels.w[None, :] * R / self.rho[:, None],
               b[:, None] * R * b[None, :])
        for m in out:
            m.flags.writeable = False
        return out

    @property
    def M_bound(self):
        """max(discrete L1 of rho, sup of 1/rho); the Lipschitz constant."""
        l1 = float(np.sum(self.levels.w * self.rho))
        return max(l1, float(np.max(1.0 / self.rho)))


class StratifiedState:
    """Deviation fields (h, u) at one instant."""

    def __init__(self, t, h, u):
        if h.grid != u.grid or h.levels != u.levels:
            raise ValueError("h and u must share grid and levels")
        self.t = float(t)
        self.h = h
        self.u = u
        self.grid = h.grid
        self.levels = h.levels

    @classmethod
    def zeros(cls, grid, levels, t=0.0):
        z = Field2D.zeros(grid, levels)
        return cls(t, z, z)

    @classmethod
    def from_arrays(cls, t, grid, levels, h_values, u_values):
        return cls(t, Field2D(h_values, grid, levels),
                   Field2D(u_values, grid, levels))


@dataclass
class PycnoclineSpec:
    """Mollified two-layer profile: half-width epsilon, transition shape."""
    params: object
    epsilon: float
    shape: str = "tanh"

    SHAPES = ("tanh", "erf", "piecewise-linear")

    def __post_init__(self):
        limit = 0.5 * min(self.params.Hbar_s, self.params.Hbar_b)
        if not 0.0 < self.epsilon < limit:
            raise ValueError(
                f"epsilon must lie in (0, {limit:g}) so the transition stays "
                f"interior, got {self.epsilon}")
        if self.shape not in self.SHAPES:
            raise ValueError(f"shape must be one of {self.SHAPES}")


# ----------------------------------------------------------------------
# Montgomery operator
# ----------------------------------------------------------------------

def montgomery_kernel(profile):
    """The (n_r, n_r) matrix W with Psi = W @ h columns."""
    return profile.levels.w[None, :] * profile._density_matrix()


def pressure_matrix(profile):
    """(1/rho) W: rows give the pressure-gradient coupling per level.

    Built once per profile and read-only.
    """
    return profile._step_matrices[0]


def montgomery(profile, h):
    """Apply M[rho] to a Field2D, returning Psi as a Field2D."""
    if h.levels != profile.levels:
        raise ValueError("field and profile live on different level grids")
    return Field2D(montgomery_kernel(profile) @ h.values, h.grid, h.levels)


def montgomery_lipschitz_check(profile1, profile2, h):
    """Worst ratio of |(1/rho1)M1 h - (1/rho2)M2 h| to its stated bound.

    The bound is (M^3 |rho1 - rho2|(r) + M ||rho1 - rho2||_L1) ||h||_sup_r
    with M at least the L1 norm of each density and the sup of each
    1/density. Exact arithmetic keeps the ratio at or below 1; rounding
    can push it a hair over.
    """
    if profile1.levels != profile2.levels:
        raise ValueError("profiles live on different level grids")
    left = np.abs((pressure_matrix(profile1) - pressure_matrix(profile2))
                  @ h.values)
    M = max(profile1.M_bound, profile2.M_bound)
    drho = np.abs(profile1.rho - profile2.rho)
    l1 = float(np.sum(profile1.levels.w * drho))
    hsup = np.max(np.abs(h.values), axis=0)
    right = (M ** 3 * drho[:, None] + M * l1) * hsup[None, :]
    ratio = np.where(right > 0.0, left / np.where(right > 0.0, right, 1.0), 0.0)
    if np.any((right == 0.0) & (left > 0.0)):
        return float("inf")
    return float(np.max(ratio)) if ratio.size else 0.0


# ----------------------------------------------------------------------
# dynamics
# ----------------------------------------------------------------------

def self_pressure(profile):
    """Pressure tendency -(1/rho) W d_x h of the self-consistent column."""
    P = pressure_matrix(profile)
    return lambda dxh, t: -(P @ dxh)


def column_rhs(h, u, t, grid, profile, kappa, pressure):
    """Stacked time derivatives for raw (n_r, n_x) arrays, less diffusion.

    The thickness diffusion kappa d_x^2 h is left out: `rk4` steps it
    exactly, and `column_derivative` adds it back. `pressure(dxh, t)`
    returns the pressure tendency added to du; a cell thickness
    w_i (1 + h_i) at or below the floor raises BlowUpError. One fused
    real-FFT pass computes what `grid.derivative` and `grid.dealias`
    compose to: h and u are transformed once, and each output is
    inverted once (eight real transforms).
    """
    h_tot = 1.0 + h
    check_thickness(profile.levels.w[:, None] * h_tot, t)
    u_tot = profile.ubar[:, None] + u
    rfft, irfft, n = np.fft.rfft, np.fft.irfft, grid.n_x
    ixi, keep = grid.ixi, grid.dealias_mask
    dxh = irfft(ixi * rfft(h), n)
    dxu = irfft(ixi * rfft(u), n)

    dh = irfft(-(ixi * keep) * rfft(h_tot * u_tot), n)
    adv = u_tot
    if kappa > 0.0:
        adv = u_tot - kappa * dxh / h_tot
    du = pressure(dxh, t) - irfft(keep * rfft(adv * dxu), n)
    return dh, du


def column_derivative(h, u, t, grid, profile, kappa, pressure):
    """The whole time derivative: column_rhs plus kappa d_x^2 h."""
    dh, du = column_rhs(h, u, t, grid, profile, kappa, pressure)
    if kappa > 0.0:
        dh = dh + kappa * grid.derivative(h, order=2)
    return dh, du


def heat_propagator(grid, kappa, dt):
    """Half-step heat propagator E = exp(kappa dt/2 d_x^2) as f, m -> E^m f.

    Exact over the rfft half-spectrum (the multiplier is
    exp(-kappa xi^2 dt/2), 1 on the mean), and the identity at kappa = 0,
    where no transform is made. Building it is one exp over the
    half-spectrum, so each step builds its own and no cache outlives a
    run.
    """
    if kappa == 0.0:
        return lambda f, m=1: f
    half = np.exp(-0.5 * kappa * dt * grid.ixi.imag ** 2)
    powers = {1: half, 2: half * half}
    n = grid.n_x
    return lambda f, m=1: np.fft.irfft(powers[m] * np.fft.rfft(f), n)


def rk4(h, u, t, dt, *column):
    """One integrating-factor RK4 step of the column (Lawson's IF-RK4).

    `column` = (grid, profile, kappa, pressure) as for column_rhs, whose
    stages k1..k4 give the u update of classical RK4. The h update
    carries the exact heat propagator E over each half step:

        h2 = E(h + dt/2 k1),  h3 = E h + dt/2 k2,  h4 = E^2 h + dt E k3,
        h1 = E^2 h + dt/6 (E^2 k1 + 2 E (k2 + k3) + k4),

    so the diffusion sets no step limit. At kappa = 0, E is the identity
    and the step is classical RK4, bit for bit.
    """
    grid, _, kappa, _ = column
    E = heat_propagator(grid, kappa, dt)
    Eh = E(h)
    k1h, k1u = column_rhs(h, u, t, *column)
    k2h, k2u = column_rhs(E(h + 0.5 * dt * k1h), u + 0.5 * dt * k1u,
                          t + 0.5 * dt, *column)
    k3h, k3u = column_rhs(Eh + 0.5 * dt * k2h, u + 0.5 * dt * k2u,
                          t + 0.5 * dt, *column)
    k4h, k4u = column_rhs(E(Eh + dt * k3h), u + dt * k3u, t + dt, *column)
    h1 = E(h, 2) + (dt / 6.0) * (E(E(k1h) + 2.0 * k2h + 2.0 * k3h) + k4h)
    u1 = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    if not (np.all(np.isfinite(h1)) and np.all(np.isfinite(u1))):
        raise BlowUpError("non-finite fields after step", t + dt)
    return h1, u1


def rhs(state, profile, kappa):
    """Time derivatives (dh, du) as Field2D pairs, diffusion included."""
    if state.levels != profile.levels:
        raise ValueError("state and profile live on different level grids")
    if kappa < 0.0:
        raise ValueError(f"kappa must be non-negative, got {kappa}")
    dh, du = column_derivative(state.h.values, state.u.values, state.t,
                               state.grid, profile, kappa,
                               self_pressure(profile))
    return (Field2D(dh, state.grid, state.levels),
            Field2D(du, state.grid, state.levels))


def diffusive_drift(grid, h, kappa):
    """kappa max|d_x h / (1 + h)|, the largest speed the diffusion adds.

    It is the only kappa term still stepped explicitly: the correction
    to the advecting velocity in the u equations.
    """
    if kappa == 0.0:
        return 0.0
    return kappa * float(np.max(np.abs(grid.derivative(h) / (1.0 + h))))


def wave_speed_estimate(state, profile):
    """Upper estimate of the fastest characteristic speed.

    Advection bound max|ubar + u| plus the fastest internal gravity wave
    of the frozen-coefficient linearization, whose squared speeds are the
    eigenvalues of diag(depth) (1/rho) W with depth the per-level maximum
    of 1 + h (a safe bound). That matrix is similar to the symmetric
    a R a (see StratifiedProfile), so `eigvalsh` gives the same real
    spectrum; a non-monotone rho makes some of it negative, hence the
    largest magnitude. A level with no positive depth left counts as
    depth 0; the thickness floor rejects such a state on its first step.
    """
    u_tot = profile.ubar[:, None] + state.u.values
    q = np.sqrt(np.maximum(np.max(1.0 + state.h.values, axis=1), 0.0))
    bRb = profile._step_matrices[1]
    lam = np.linalg.eigvalsh(q[:, None] * bRb * q[None, :])
    c2 = float(np.max(np.abs(lam)))
    return float(np.max(np.abs(u_tot))) + math.sqrt(c2)


def cfl_limit(state, profile, kappa, cfl=CFL_DEFAULT):
    """cfl dx over the wave speed estimate plus the diffusive drift.

    The diffusion itself is stepped exactly by `rk4` and sets no bound.
    """
    speed = (wave_speed_estimate(state, profile)
             + diffusive_drift(state.grid, state.h.values, kappa))
    return cfl * state.grid.dx / speed


def step(state, profile, kappa, dt, cfl=CFL_DEFAULT):
    """One IF-RK4 step of the level-coupled system."""
    check_step(dt, cfl_limit(state, profile, kappa, cfl), state.t)
    h, u = rk4(state.h.values, state.u.values, state.t, dt, state.grid,
               profile, kappa, self_pressure(profile))
    return StratifiedState.from_arrays(state.t + dt, state.grid, state.levels,
                                       h, u)


# ----------------------------------------------------------------------
# the time loop
# ----------------------------------------------------------------------

@dataclass(eq=False, kw_only=True)
class Run:
    """Fields every trajectory shares; `march` fills them."""
    dt: float
    n_steps: int
    states: list
    diagnostics: dict
    blown_up: bool = False
    blowup_time: float = None
    warnings: tuple = ()

    @property
    def final(self):
        return self.states[-1]


@dataclass(eq=False, kw_only=True)
class StratifiedTrajectory(Run):
    profile: StratifiedProfile
    kappa: float


def march(initial, advance, T, dt, norm, record, snapshot_every=1,
          blowup_factor=1e3):
    """Fixed-step trajectory to time T under one failure policy.

    The step is the largest one not above `dt` that divides T evenly;
    `advance(state, dt)` takes one step. Snapshots are stored every
    `snapshot_every` steps and at the end, each with the diagnostics row
    `record(state, norm(state))`. A step that raises BlowUpError (depth
    floor, non-finite fields), a state whose stability limit has
    tightened below dt (StepLimitError after the first step: a
    "cfl-breach"), or a snapshot norm above blowup_factor times the
    initial one ends the run with the trajectory truncated and flagged.
    A dt beyond the limit of the initial state stays a ValueError.
    Returns the keyword fields of `Run`.
    """
    T = float(T)
    if T <= 0.0:
        raise ValueError(f"horizon must be positive, got {T}")
    n_steps = max(1, math.ceil(T / float(dt) - 1e-12))
    dt = T / n_steps

    size = norm(initial)
    ceiling = blowup_factor * max(size, 1e-8)
    rows = [record(initial, size)]
    states = [initial]
    state = initial
    failure = None
    for i in range(1, n_steps + 1):
        try:
            state = advance(state, dt)
        except StepLimitError as err:
            if i == 1:
                raise
            failure = (f"cfl-breach: {err}", state.t)
            break
        except BlowUpError as err:
            failure = (str(err), err.t)
            break
        if i % snapshot_every == 0 or i == n_steps:
            states.append(state)
            size = norm(state)
            rows.append(record(state, size))
            if size > ceiling:
                failure = (f"H^2 norm {size:.3e} passed the ceiling "
                           f"{ceiling:.3e} at t = {state.t:.6g}", state.t)
                break

    return dict(
        dt=dt, n_steps=n_steps, states=states,
        diagnostics={k: np.array([row[k] for row in rows]) for k in rows[0]},
        blown_up=failure is not None,
        blowup_time=None if failure is None else failure[1],
        warnings=() if failure is None else (failure[0],))


def state_norm(state, s=2.0):
    """Worst-level H^s size of (h, u) together."""
    g = state.grid
    hn = g.sobolev_norms_rows(state.h.values, s)
    un = g.sobolev_norms_rows(state.u.values, s)
    return float(np.max(np.sqrt(hn * hn + un * un)))


def column_record(state, norm):
    """Diagnostics row of a column snapshot: min depth, norm, level masses."""
    return {"t": state.t, "min_depth": float((1.0 + state.h.values).min()),
            "norm": norm, "mass": state.h.values.mean(axis=1)}


def integrate(initial, profile, kappa, T, dt=None, cfl=CFL_DEFAULT,
              snapshot_every=1, blowup_factor=1e3):
    """Fixed-step IF-RK4 trajectory of the stratified system to time T.

    The step comes from the CFL limit of the initial state unless `dt` is
    given; `march` stores snapshots and diagnostics (per-level masses,
    worst-level H^2 norm, min depth) every `snapshot_every` steps and
    flags the run when it blows up.
    """
    if dt is None:
        dt = cfl_limit(initial, profile, kappa, cfl)
    run = march(initial, lambda st, dt: step(st, profile, kappa, dt, cfl),
                T, dt, state_norm, column_record, snapshot_every,
                blowup_factor)
    return StratifiedTrajectory(profile=profile, kappa=kappa, **run)


# ----------------------------------------------------------------------
# two-layer embedding
# ----------------------------------------------------------------------

def _layer_slices(levels, Hbar_s):
    edge = levels.interface_edge_index(-Hbar_s)
    if edge is None or edge == 0 or edge == levels.n_r:
        raise ValueError(
            f"level grid has no interior cell edge at r = {-Hbar_s}; build "
            f"it with LevelGrid.with_interface")
    return slice(0, edge), slice(edge, levels.n_r)


def embed_bilayer(bistate, params, levels):
    """Map a bilayer state onto levels with an edge at r = -Hbar_s.

    Upper-layer cells carry (rho_s, Ubar_s, H_s/Hbar_s, U_s), lower cells
    (rho_b, Ubar_b, H_b/Hbar_b, U_b); no averaging touches the interface,
    so the embedded state is an exact solution of the level dynamics.
    """
    lower, upper = _layer_slices(levels, params.Hbar_s)
    n_r = levels.n_r
    rho = np.empty(n_r)
    ubar = np.empty(n_r)
    rho[lower], rho[upper] = params.rho_b, params.rho_s
    ubar[lower], ubar[upper] = params.Ubar_b, params.Ubar_s
    profile = StratifiedProfile(levels, rho, ubar)

    n_x = bistate.grid.n_x
    h = np.empty((n_r, n_x))
    u = np.empty((n_r, n_x))
    h[lower] = bistate.H_b.values / params.Hbar_b
    h[upper] = bistate.H_s.values / params.Hbar_s
    u[lower] = bistate.U_b.values
    u[upper] = bistate.U_s.values
    state = StratifiedState.from_arrays(bistate.t, bistate.grid, levels, h, u)
    return profile, state


def layer_average(state, params):
    """Weighted per-layer means of (h, u); inverts an exact embedding."""
    lower, upper = _layer_slices(state.levels, params.Hbar_s)
    w = state.levels.w

    def avg(rows, sl):
        return (w[sl, None] * rows[sl]).sum(axis=0) / w[sl].sum()

    return (avg(state.h.values, upper), avg(state.h.values, lower),
            avg(state.u.values, upper), avg(state.u.values, lower))


# ----------------------------------------------------------------------
# smoothed pycnoclines
# ----------------------------------------------------------------------

def _ramp(X, shape):
    """Transition from 0 (X << 0) to 1 (X >> 0) of unit width."""
    if shape == "tanh":
        return 0.5 * (1.0 + np.tanh(X))
    if shape == "erf":
        return 0.5 * (1.0 + np.vectorize(math.erf, otypes=[float])(X))
    # piecewise-linear: linear on |X| <= 1
    return np.clip(0.5 * (X + 1.0), 0.0, 1.0)


def _ramp_l1_tail(A, shape):
    """integral_0^A of (1 - ramp(X)) dX, exactly."""
    if shape == "tanh":
        return 0.5 * (math.log(2.0) - math.log1p(math.exp(-2.0 * A)))
    if shape == "erf":
        return 0.5 * (A * (1.0 - math.erf(A))
                      + (1.0 - math.exp(-A * A)) / math.sqrt(math.pi))
    return 0.25 if A >= 1.0 else 0.5 * A - 0.25 * A * A


def profile_l1_distance(spec):
    """Continuum L1(-1, 0) distances of the mollified profile to two-layer.

    Per unit jump the distance is epsilon times the two one-sided ramp
    tails, cut off at the surface and the bed. Returns (rho part, ubar
    part).
    """
    p = spec.params
    eps = spec.epsilon
    tails = (_ramp_l1_tail(p.Hbar_s / eps, spec.shape)
             + _ramp_l1_tail(p.Hbar_b / eps, spec.shape))
    return (eps * abs(p.rho_b - p.rho_s) * tails,
            eps * abs(p.Ubar_b - p.Ubar_s) * tails)


def smooth_pycnocline(spec, levels):
    """Sampled mollified profile plus its exact L1 distances.

    The ramp is evaluated at level midpoints (values are never averaged
    over cells), and the reported distances are the closed-form continuum
    integrals, so sweeps can place runs on an exact abscissa.
    """
    p = spec.params
    X = (levels.r + p.Hbar_s) / spec.epsilon
    frac = _ramp(X, spec.shape)
    rho = p.rho_b + (p.rho_s - p.rho_b) * frac
    ubar = p.Ubar_b + (p.Ubar_s - p.Ubar_b) * frac
    profile = StratifiedProfile(levels, rho, ubar)
    d_rho, d_ubar = profile_l1_distance(spec)
    return profile, {"rho": d_rho, "ubar": d_ubar}


# ----------------------------------------------------------------------
# CSV interfaces
# ----------------------------------------------------------------------

def write_profile(profile, f):
    f.write("r,rho,ubar\n")
    for i, r in enumerate(profile.levels.r):
        f.write(f"{csv_cell(r)},{csv_cell(profile.rho[i])},"
                f"{csv_cell(profile.ubar[i])}\n")


def read_profile(path, levels):
    data = np.genfromtxt(path, delimiter=",", names=True)
    if data.dtype.names != ("r", "rho", "ubar"):
        raise ValueError(f"profile CSV needs columns (r, rho, ubar), "
                         f"got {data.dtype.names}")
    r = np.atleast_1d(np.asarray(data["r"], dtype=float))
    if (r.size != levels.n_r or not np.all(np.isfinite(r))
            or np.max(np.abs(r - levels.r)) > 1e-9):
        raise ValueError("profile CSV levels do not match the level grid")
    return StratifiedProfile(levels, np.atleast_1d(data["rho"]),
                             np.atleast_1d(data["ubar"]))


def write_state(state, f):
    f.write("x,r,h,u\n")
    for i, r in enumerate(state.levels.r):
        rc = csv_cell(r)
        for j, x in enumerate(state.grid.x):
            f.write(f"{csv_cell(x)},{rc},{csv_cell(state.h.values[i, j])},"
                    f"{csv_cell(state.u.values[i, j])}\n")


def read_state(path, grid, levels, t=0.0):
    data = np.genfromtxt(path, delimiter=",", names=True)
    if data.dtype.names != ("x", "r", "h", "u"):
        raise ValueError(f"state CSV needs columns (x, r, h, u), "
                         f"got {data.dtype.names}")
    n = levels.n_r * grid.n_x
    if data["x"].size != n:
        raise ValueError(f"state CSV has {data['x'].size} rows, expected {n}")
    shape = (levels.n_r, grid.n_x)
    x = np.asarray(data["x"], dtype=float).reshape(shape)
    r = np.asarray(data["r"], dtype=float).reshape(shape)
    if (not np.all(np.isfinite(x)) or not np.all(np.isfinite(r))
            or np.max(np.abs(x - grid.x[None, :])) > 1e-9
            or np.max(np.abs(r - levels.r[:, None])) > 1e-9):
        raise ValueError("state CSV coordinates do not match the grids")
    return StratifiedState.from_arrays(
        t, grid, levels,
        np.asarray(data["h"], dtype=float).reshape(shape),
        np.asarray(data["u"], dtype=float).reshape(shape))
