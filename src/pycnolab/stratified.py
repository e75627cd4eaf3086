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

This module hosts the only dynamics of the package: one kernel, the
column right-hand side less the diffusion kappa d_x^2 h with a pluggable
pressure tendency (the self-consistent -(1/rho) W d_x h here, at two
levels for `bilayer`, a prescribed forcing for `refined`), and one time
step, `rk4`, Lawson's integrating-factor RK4, which integrates the
diffusion exactly, so only the waves and the advection bound the step.
`column_derivative` is the kernel plus the diffusion, for callers
outside a step. Each run steps in the reused buffers of one `ColumnWork`.

`march` is the one fixed-step time loop, which turns blow-ups and
mid-run CFL breaches into flagged, truncated trajectories; it carries
each run's arrays and builds state objects only at snapshots. The step
limit of every system is `stability_limit`, cfl dx over a speed plus the
diffusive drift kappa max|d_x h / (1 + h)|: `rk4` certifies each step
against a system's closed-form speed bound and solves its exact speed
only past it. The column's exact speed takes the gravity waves from the
symmetric form a R a, R[i, j] = rho[max(i, j)] and
a = sqrt(depth w / rho), which is similar to diag(depth) (1/rho) W; the
profile-only matrices are built once per (immutable) StratifiedProfile.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    BLOWUP_FACTOR,
    CFL_DEFAULT,
    DEPTH_FLOOR,
    STEP_HEADROOM,
    BlowUpError,
    StepLimitError,
    check_kappa,
    check_step,
    check_thickness,
    frozen_array,
    irfft,
    rfft,
    write_table,
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
        self._w_col, self._ubar_col = levels.w[:, None], ubar[:, None]

    @cached_property
    def _step_matrices(self):
        """(1/rho) W and the symmetric b R b, built once, read-only.

        b = sqrt(w / rho); with a = sqrt(depth) b, a R a = q (b R b) q,
        q = diag(sqrt(depth)), is similar to diag(depth) (1/rho) W.
        """
        R = _density_matrix(self.rho)
        b = np.sqrt(self.levels.w / self.rho)
        out = (_pressure_kernel(self.levels.w, self.rho),
               b[:, None] * R * b[None, :])
        for m in out:
            m.flags.writeable = False
        return out

    @cached_property
    def _wave_norm(self):
        """||b R b||_2, its largest eigenvalue magnitude: `step`'s bound."""
        return float(np.abs(np.linalg.eigvalsh(self._step_matrices[1])).max())


class StratifiedState:
    """Deviation fields at one instant: read-only (n_r, n_x) copies of h
    and u, levels bottom to top."""

    def __init__(self, t, grid, levels, h, u):
        self.t = float(t)
        self.grid = grid
        self.levels = levels
        shape = (levels.n_r, grid.n_x)
        self.h = frozen_array(h, shape, "h")
        self.u = frozen_array(u, shape, "u")


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

def _density_matrix(rho):
    """R[..., i, j] = rho[..., max(i, j)], the density of the upper level."""
    idx = np.arange(rho.shape[-1])
    return np.take(rho, np.maximum(idx[:, None], idx[None, :]), axis=-1)


def _pressure_kernel(w, rho):
    """(1/rho) W, W[..., i, j] = w_j rho[..., max(i, j)], over any leading
    axes; one new array, scaled in place."""
    P = _density_matrix(rho)
    P *= w
    P /= rho[..., :, None]
    return P


def pressure_matrix(profile):
    """(1/rho) W: rows give the pressure-gradient coupling per level.

    Built once per profile and read-only.
    """
    return profile._step_matrices[0]


def montgomery_lipschitz_ratios(levels, rho1, rho2, h):
    """Worst ratio of |(1/rho1)M1 h - (1/rho2)M2 h| to its bound, per triple.

    rho1 and rho2 are (k, n_r) densities on `levels` and h is
    (k, n_r, n_x); row t of each is triple t, and the result holds the k
    ratios. The bound is
    (M^3 |rho1 - rho2|(r) + M ||rho1 - rho2||_L1) ||h||_sup_r with
    M = max(L1 norm of each density, sup of each 1/density), taken row
    by row. Exact arithmetic keeps each ratio at or below 1; rounding
    can push it a hair over. A triple whose bound vanishes where the gap
    does not reads inf. The k triples share one stacked matmul and
    row-wise reductions. M^3 is taken by `np.float_power`, which rounds as
    Python's float power does (numpy's `**` and `np.power` do not always),
    so each row is the same float whether its triple is checked alone or
    in a block.
    """
    rho1 = np.asarray(rho1, dtype=float)
    rho2 = np.asarray(rho2, dtype=float)
    h = np.asarray(h, dtype=float)
    if (rho1.ndim != 2 or rho1.shape[1] != levels.n_r
            or rho2.shape != rho1.shape or h.ndim != 3
            or h.shape[:2] != rho1.shape):
        raise ValueError(
            f"need (k, {levels.n_r}) densities and a (k, {levels.n_r}, n_x) "
            f"field, got {rho1.shape}, {rho2.shape} and {h.shape}")
    rho = np.stack([rho1, rho2])
    if not np.all(np.isfinite(rho)):
        raise ValueError("profile contains non-finite entries")
    if np.any(rho <= 0.0):
        raise ValueError("background density must be positive")
    w = levels.w
    gap, other = _pressure_kernel(w, rho)
    gap -= other
    left = np.abs(gap @ h)
    M = np.max(np.maximum(np.sum(w * rho, axis=2), np.max(1.0 / rho, axis=2)),
               axis=0)
    drho = np.abs(rho1 - rho2)
    l1 = np.sum(w * drho, axis=1)
    hsup = np.max(np.abs(h), axis=1)
    per_level = np.float_power(M, 3)[:, None] * drho + (M * l1)[:, None]
    right = per_level[:, :, None] * hsup[:, None, :]
    bounded = right > 0.0
    ratio = np.divide(left, right, out=np.zeros_like(left), where=bounded)
    worst = np.max(ratio, axis=(1, 2), initial=0.0)
    worst[np.any(~bounded & (left > 0.0), axis=(1, 2))] = np.inf
    return worst


# ----------------------------------------------------------------------
# dynamics
# ----------------------------------------------------------------------

def self_pressure(profile):
    """Pressure tendency -(1/rho) W d_x h of the self-consistent column.

    Written into `out`, the storage the kernel offers for it.
    """
    P = pressure_matrix(profile)
    return lambda dxh, t, out: np.negative(np.matmul(P, dxh, out=out),
                                           out=out)


def _aligned_blocks(k, shape, dtype):
    """k blocks of np.empty(shape, dtype), as one (k, *shape) array.

    Each block starts on a 64-byte boundary, its size padded to a
    multiple of 64 bytes: malloc aligns to 16 bytes only, and a step's
    ufuncs ran up to 4% slower at some offsets than at others.
    """
    size = math.prod(shape) * np.dtype(dtype).itemsize
    stride = -(-size // 64) * 64
    raw = np.empty(k * stride + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    rows = raw[start:start + k * stride].reshape(k, stride)[:, :size]
    return rows.view(dtype).reshape((k, *shape))


class ColumnWork:
    """Scratch arrays of one march, reused by every `rk4` step.

    A stack `real` of six (n_r, n_x) blocks (d_x h, d_x u, the stage
    inputs h and u, u's stage derivative and running sum) and a stack
    `spectra` of five half-spectra (three stage spectra, y = E rfft(h)
    and h's running sum; at kappa = 0 real views of the last three hold
    the physical h side). Fields transformed at the same point sit side
    by side, so one call of core's rfft or irfft takes them all;
    pocketfft transforms rows independently, so the bits are those of
    separate calls. The kernel reuses the stage-input blocks for 1 + h,
    the flux, ubar + u and the advecting velocity. Every transform and
    ufunc of a step writes into them through `out`, so a step allocates
    only the two arrays it returns; `heat` caches the heat propagator.
    Build one per run; never share one between runs that may interleave.
    """

    def __init__(self, grid, n_r):
        self.grid = grid
        self.real = _aligned_blocks(6, (n_r, grid.n_x), float)
        self.spectra = _aligned_blocks(5, (n_r, grid.n_x // 2 + 1), complex)
        (self.dxh, self.dxu, self.h_in, self.u_in, self.ku,
         self.sum_u) = self.real
        self.h_hat, self.sum_h = self.spectra[3:]
        # the stacks' slices that one transform reads or writes
        self.derivs, self.loaded, self.products, self.inputs = (
            self.real[:2], self.real[:3], self.real[1:3], self.real[2:4])
        self.pair, self.triple = self.spectra[:2], self.spectra[:3]
        self.physical = self.spectra.view(float)[..., :grid.n_x]
        self.flux_factor = -(grid.ixi * grid.dealias_mask)
        self.heat = (None, None)

    def derive(self, h, u):
        """rfft(h) into h_hat; d_x h and d_x u into dxh and dxu.

        In `rk4`'s first stage the derivatives also feed the step limit's
        diffusive drift and rfft(h), at kappa > 0, the spectral h side.
        h and u come from the caller, so they take two rffts.
        """
        ixi, (h_x, u_x) = self.grid.ixi, self.pair
        np.multiply(ixi, rfft(h, self.h_hat), out=h_x)
        np.multiply(ixi, rfft(u, u_x), out=u_x)
        irfft(self.pair, self.derivs)


def _drift(kappa, dxh, h, out):
    """kappa max|d_x h / (1 + h)|, with `out` as scratch."""
    if kappa == 0.0:
        return 0.0
    ratio = np.divide(dxh, np.add(1.0, h, out=out), out=out)
    return kappa * float(np.abs(ratio, out=ratio).max())


def stability_limit(speed, drift, grid, cfl):
    """cfl dx / (speed + drift), the step limit of every system.

    The sum is floored at 1e-8, so a motionless column with no depth left
    gets a finite step, which the thickness floor then flags; a NaN speed
    gives a NaN limit.
    """
    return cfl * grid.dx / max(speed + drift, 1e-8)


def state_limit(h, grid, kappa, speed, cfl):
    """`stability_limit` at `speed` with the drift of h as `rk4` takes
    it; every initial dt comes from here. A point with 1 + h at or below
    DEPTH_FLOOR, which the first step flags, adds no drift."""
    live = 1.0 + h > DEPTH_FLOOR
    dxh = np.where(live, grid.derivative(h), 0.0)
    drift = _drift(kappa, dxh, np.where(live, h, 0.0), np.empty_like(h))
    return stability_limit(speed, drift, grid, cfl)


def _column_rhs_into(w, h, u, t, column, dh, du):
    """The column kernel: (dh, du) of (h, u) less the diffusion, into
    (dh, du), with d_x h and d_x u read from w.

    `column` = (grid, profile, kappa, pressure); `pressure(dxh, t, buf)`
    returns the pressure tendency added to du, with the (n_r, n_x) `buf`
    as storage. A cell thickness w_i (1 + h_i) at or below the floor
    raises BlowUpError. `dh` is either a half-spectrum, which receives
    dh's, or a real (2, n_r, n_x) pair, which receives the dealiased
    advection and dh from one irfft. The flux and adv d_x u go through
    one rfft.
    """
    grid, profile, kappa, pressure = column
    dxh, dxu, h_tot, u_tot = w.dxh, w.dxu, w.h_in, w.u_in
    np.add(1.0, h, out=h_tot)
    check_thickness(np.multiply(profile._w_col, h_tot, out=du), t)
    np.add(profile._ubar_col, u, out=u_tot)
    if kappa > 0.0:
        # kappa dxh / h_tot, with du as scratch
        np.divide(np.multiply(kappa, dxh, out=du), h_tot, out=du)
    np.multiply(h_tot, u_tot, out=h_tot)
    if kappa > 0.0:
        np.subtract(u_tot, du, out=u_tot)
    np.multiply(u_tot, dxu, out=dxu)
    prod_hat, flux_hat = rfft(w.products, w.pair)
    np.multiply(grid.dealias_mask, prod_hat, out=prod_hat)
    if dh.ndim == 2:
        np.multiply(w.flux_factor, flux_hat, out=dh)
        adv = irfft(prod_hat, dxu)
    else:
        np.multiply(w.flux_factor, flux_hat, out=flux_hat)
        adv = irfft(w.pair, dh)[0]
    np.subtract(pressure(dxh, t, du), adv, out=du)


def column_derivative(h, u, t, grid, profile, kappa, pressure):
    """The whole time derivative (dh, du) of raw (n_r, n_x) arrays.

    The column kernel, run in a throwaway ColumnWork, plus the diffusion
    kappa d_x^2 h that `rk4` steps exactly; fresh arrays come back.
    """
    w = ColumnWork(grid, h.shape[0])
    w.derive(h, u)
    pair, du = np.empty((2, *h.shape)), np.empty_like(u)
    _column_rhs_into(w, h, u, t, (grid, profile, kappa, pressure), pair, du)
    if kappa > 0.0:
        return pair[1] + kappa * grid.derivative(h, order=2), du
    return pair[1], du


def rk4(h, u, t, dt, *column, work=None, speeds=None, cfl=CFL_DEFAULT):
    """One integrating-factor RK4 step of the column (Lawson's IF-RK4).

    `column` = (grid, profile, kappa, pressure) as for the kernel, whose
    stages k1..k4 give the u update of classical RK4. The h update
    carries the exact heat propagator E = exp(kappa dt/2 d_x^2), the
    multiplier exp(-kappa xi^2 dt/2) over the rfft half-spectrum, over
    each half step. At kappa > 0 the h side stays in half-spectra, with
    y = E rfft(h) and K the spectra of the stage derivatives:

        y2 = y + dt/2 E K1,  y3 = y + dt/2 K2,  y4 = E(y + dt K3),
        rfft(h1) = E y + dt/6 (E(E K1 + 2 K2 + 2 K3) + K4),

    so E is a plain multiply and the diffusion sets no step limit; the
    kernel hands back dh's spectrum, and a stage input's h, d_x h and
    d_x u come from one irfft. At kappa = 0, E is the identity, the
    stage inputs are physical and the step is classical RK4, bit for
    bit; a stage input's h and u then go through one rfft, and dh comes
    back with the dealiased advection. `speeds`, if given, is a pair
    (bound, exact) of zero-argument callables giving a cheap upper bound
    on the fastest speed of (h, u) and that speed itself. dt is checked
    after k1, whose thickness check flags a state at the floor first,
    with the drift from k1's d_x h: a dt within the `stability_limit`
    of bound (1 + 1e-12) is certified, and only past it is exact called,
    whose limit dt must then meet. `work` is the run's ColumnWork (a
    throwaway one when omitted); the two returned arrays are fresh.
    A kappa > 0 step transforms 29 (n_r, n_x) blocks in 18 calls (k1 5,
    each later stage 4, h1 1), a kappa = 0 step 32 blocks in 17 calls.
    """
    grid, _, kappa, _ = column
    w = ColumnWork(grid, h.shape[0]) if work is None else work
    w.derive(h, u)
    us, ku, su = w.u_in, w.ku, w.sum_u
    if kappa > 0.0:
        if w.heat[0] != (kappa, dt):
            w.heat = ((kappa, dt), np.exp(-0.5 * kappa * dt * grid.ixi.imag ** 2))
        half = w.heat[1]
        h_x, kh, hs = w.triple
        y, sh = w.h_hat, w.sum_h
        k1_dh, stage_dh = sh, kh

        def load():
            """d_x h, d_x u and h of the stage input (hs, us); d_x u's
            spectrum passes through kh's block, refilled by the kernel."""
            np.multiply(grid.ixi, hs, out=h_x)
            np.multiply(grid.ixi, rfft(us, kh), out=kh)
            irfft(w.triple, w.loaded)

        def E(f):
            """f <- E f in place."""
            return np.multiply(half, f, out=f)
    else:
        # the h side stays physical, in real views of the spectra; each
        # kernel call's dh lands beside a free block for the advection
        y, hs, kh, sh = h, w.h_in, w.physical[3], w.physical[4]
        k1_dh, stage_dh = w.physical[3:], w.physical[2:4]

        def load():
            """d_x h and d_x u of the stage input (hs, us)."""
            np.multiply(grid.ixi, rfft(w.inputs, w.pair), out=w.pair)
            irfft(w.pair, w.derivs)

        def E(f):
            return f

    def stage(ts):
        """k of the stage input (hs, us) into (kh, ku)."""
        load()
        _column_rhs_into(w, w.h_in, us, ts, column, stage_dh, ku)

    def add_2k():
        """The running sums gain 2 k (k is doubled in place)."""
        np.add(sh, np.multiply(2.0, kh, out=kh), out=sh)
        np.add(su, np.multiply(2.0, ku, out=ku), out=su)

    # k1 goes straight into the running sums; then y = E h and sh = E k1
    _column_rhs_into(w, h, u, t, column, k1_dh, su)
    if speeds is not None:
        bound, exact = speeds
        drift = _drift(kappa, w.dxh, h, w.h_in)
        limit = stability_limit(bound() * (1.0 + 1e-12), drift, grid, cfl)
        if not dt <= limit:  # a NaN bound takes the exact route
            limit = stability_limit(exact(), drift, grid, cfl)
        check_step(dt, limit, t)
    E(y)
    E(sh)
    np.add(y, np.multiply(0.5 * dt, sh, out=hs), out=hs)
    np.add(u, np.multiply(0.5 * dt, su, out=us), out=us)
    stage(t + 0.5 * dt)
    np.add(y, np.multiply(0.5 * dt, kh, out=hs), out=hs)
    np.add(u, np.multiply(0.5 * dt, ku, out=us), out=us)
    add_2k()
    stage(t + 0.5 * dt)
    E(np.add(y, np.multiply(dt, kh, out=hs), out=hs))
    np.add(u, np.multiply(dt, ku, out=us), out=us)
    add_2k()
    stage(t + dt)
    np.add(E(sh), kh, out=sh)
    np.add(E(y), np.multiply(dt / 6.0, sh, out=sh), out=sh)
    h1 = irfft(sh, np.empty(h.shape)) if kappa > 0.0 else sh.copy()
    u1 = np.add(u, np.multiply(dt / 6.0, np.add(su, ku, out=su), out=su))
    if not (np.isfinite(h1).all() and np.isfinite(u1).all()):
        raise BlowUpError("non-finite fields after step", t + dt)
    return h1, u1


def _check_levels(state, profile):
    if state.levels != profile.levels:
        raise ValueError("state and profile live on different level grids")


def rhs(state, profile, kappa):
    """Time derivatives (dh, du) as (n_r, n_x) arrays, diffusion included."""
    _check_levels(state, profile)
    check_kappa(kappa)
    return column_derivative(state.h, state.u, state.t, state.grid, profile,
                             kappa, self_pressure(profile))


def wave_speed_estimate(h, u, profile):
    """Upper estimate of the fastest characteristic speed.

    Advection bound max|ubar + u| plus the fastest internal gravity wave
    of the frozen-coefficient linearization, whose squared speeds are the
    eigenvalues of diag(depth) (1/rho) W with depth the per-level maximum
    of 1 + h (a safe bound). That matrix is similar to the symmetric
    a R a (see StratifiedProfile), so `eigvalsh` gives the same real
    spectrum; a non-monotone rho makes some of it negative, hence the
    largest magnitude. A level with no positive depth left counts as
    depth 0; the thickness floor rejects such a state on its first step.
    `cfl_limit` solves it; `step` only where its closed-form bound, which
    dominates it, cannot certify dt.
    """
    q = np.sqrt(np.maximum(np.max(1.0 + h, axis=1), 0.0))
    bRb = profile._step_matrices[1]
    lam = np.linalg.eigvalsh(q[:, None] * bRb * q[None, :])
    c2 = float(np.max(np.abs(lam)))
    return float(np.max(np.abs(profile.ubar[:, None] + u))) + math.sqrt(c2)


def cfl_limit(state, profile, kappa, cfl=CFL_DEFAULT):
    """Largest admissible dt at this state: `state_limit` at the
    `wave_speed_estimate` of the column."""
    _check_levels(state, profile)
    return state_limit(state.h, state.grid, kappa,
                       wave_speed_estimate(state.h, state.u, profile), cfl)


def step(t, y, dt, grid, profile, kappa, cfl=CFL_DEFAULT, work=None):
    """One IF-RK4 step of the level-coupled system from y = (h, u) at t.

    Returns fresh (h, u) at t + dt. `rk4` certifies dt with the
    closed-form bound max|ubar + u| + sqrt(max(max(1 + h), 0) ||b R b||_2)
    on `wave_speed_estimate`, which ||q A q||_2 <= max q^2 ||A||_2 gives
    for any rho, and solves the eigenproblem only past it. `work` is the
    run's ColumnWork.
    """
    h, u = y

    def bound():
        wave = math.sqrt(max(float(h.max()) + 1.0, 0.0) * profile._wave_norm)
        return float(np.abs(profile._ubar_col + u).max()) + wave

    return rk4(h, u, t, dt, grid, profile, kappa, self_pressure(profile),
               work=work, cfl=cfl,
               speeds=(bound, lambda: wave_speed_estimate(h, u, profile)))


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


def march(initial, y, advance, to_state, T, dt, norm, record,
          snapshot_every=1):
    """Fixed-step trajectory to time T under one failure policy.

    The loop carries arrays: `y` holds the `initial` state's, the step
    `advance(t, y, dt)` returns fresh ones, and only snapshots, stored
    every `snapshot_every` steps and at the end, become state objects
    `to_state(t, y)`, each with the diagnostics row `record(state,
    norm(state))`. The step is the largest one not above `dt` that
    divides T evenly. A BlowUpError (depth floor, non-finite fields), a
    StepLimitError after the first step (a "cfl-breach") or a snapshot
    norm above BLOWUP_FACTOR times the initial one ends the run with the
    trajectory truncated and flagged. A T that is not finite and
    positive, a dt beyond the initial limit and a `snapshot_every` below
    1 are ValueErrors. Returns the keyword fields of `Run`.
    """
    T = float(T)
    if not 0.0 < T < math.inf:
        raise ValueError(f"horizon T must be finite and positive, got {T}")
    if snapshot_every < 1:
        raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
    n_steps = max(1, math.ceil(T / float(dt) - 1e-12))
    dt = T / n_steps

    size = norm(initial)
    ceiling = BLOWUP_FACTOR * max(size, 1e-8)
    rows = [record(initial, size)]
    states = [initial]
    t = initial.t
    failure = None
    for i in range(1, n_steps + 1):
        try:
            y = advance(t, y, dt)
        except StepLimitError as err:
            if i == 1:
                raise
            failure = (f"cfl-breach: {err}", t)
            break
        except BlowUpError as err:
            failure = (str(err), err.t)
            break
        t += dt
        if i % snapshot_every == 0 or i == n_steps:
            state = to_state(t, y)
            states.append(state)
            size = norm(state)
            rows.append(record(state, size))
            if size > ceiling:
                failure = (f"H^2 norm {size:.3e} passed the ceiling "
                           f"{ceiling:.3e} at t = {t:.6g}", t)
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
    hn = g.sobolev_norms_rows(state.h, s)
    un = g.sobolev_norms_rows(state.u, s)
    return float(np.max(np.sqrt(hn * hn + un * un)))


def column_record(state, norm):
    """Diagnostics row of a column snapshot: min depth, norm, level masses."""
    return {"t": state.t, "min_depth": float((1.0 + state.h).min()),
            "norm": norm, "mass": state.h.mean(axis=1)}


def integrate(initial, profile, kappa, T, dt=None, cfl=CFL_DEFAULT,
              snapshot_every=1):
    """Fixed-step IF-RK4 trajectory of the stratified system to time T.

    The step is the `dt` request or, by default, STEP_HEADROOM times the
    CFL limit of the initial state; `march` stores snapshots and
    diagnostics (per-level masses, worst-level H^2 norm, min depth) every
    `snapshot_every` steps and flags the run when it blows up.
    """
    _check_levels(initial, profile)
    check_kappa(kappa)
    if dt is None:
        dt = STEP_HEADROOM * cfl_limit(initial, profile, kappa, cfl)
    grid = initial.grid
    work = ColumnWork(grid, initial.levels.n_r)
    run = march_column(initial, lambda t, y, dt: step(
        t, y, dt, grid, profile, kappa, cfl, work), T, dt, snapshot_every)
    return Run(**run)


def march_column(initial, advance, T, dt, snapshot_every):
    """`march` over a column's arrays y = (h, u), with column snapshots."""
    grid, levels = initial.grid, initial.levels
    return march(initial, (initial.h, initial.u), advance,
                 lambda t, y: StratifiedState(t, grid, levels, *y),
                 T, dt, state_norm, column_record, snapshot_every)


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
    h[lower] = bistate.H_b / params.Hbar_b
    h[upper] = bistate.H_s / params.Hbar_s
    u[lower] = bistate.U_b
    u[upper] = bistate.U_s
    state = StratifiedState(bistate.t, bistate.grid, levels, h, u)
    return profile, state


def layer_average(state, params):
    """Weighted per-layer means of (h, u); inverts an exact embedding."""
    lower, upper = _layer_slices(state.levels, params.Hbar_s)
    w = state.levels.w

    def avg(rows, sl):
        return (w[sl, None] * rows[sl]).sum(axis=0) / w[sl].sum()

    return (avg(state.h, upper), avg(state.h, lower),
            avg(state.u, upper), avg(state.u, lower))


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
# CSV writers
# ----------------------------------------------------------------------

def write_profile(profile, f):
    write_table(f, "r,rho,ubar",
                zip(profile.levels.r, profile.rho, profile.ubar))


def write_state(state, f):
    write_table(f, "x,r,h,u", (
        (x, r, h, u)
        for r, hs, us in zip(state.levels.r, state.h, state.u)
        for x, h, u in zip(state.grid.x, hs, us)))
