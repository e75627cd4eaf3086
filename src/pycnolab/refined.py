"""Forced column dynamics driven by a reference run's pressure field.

Given a reference stratified run (rho_ref, ubar_ref, h_ref, u_ref) and a
target background (rho, ubar), the refined approximation keeps the
target's transport but replaces the self-consistent pressure with the
reference one evaluated through the target's Montgomery operator:

    d/dt h + d_x((1 + h)(ubar + u)) = kappa d_x^2 h
    d/dt u + (ubar + u - kappa d_x h / (1 + h)) d_x u
          = -(1/rho) M[rho] d_x h_ref(t).

Crossing the target density with the reference interface motion is the
point of the construction: the forcing is prescribed, so the levels
decouple and each isopycnal evolves as an independently forced line.
Substituting the result back into the self-consistent system leaves the
remainder (1/rho) M[rho] d_x (h - h_ref), which `consistency_residual`
evaluates along two separate float paths together with its mixed-norm
bound.

A `ReferenceRun` holds the target profile, which `solve_refined` and
`consistency_residual` read from it, and the forcing and h_ref at the
reference snapshot times, interpolated by a four-point Lagrange cubic in
t: exact at the nodes, it does not cap the stepper's fourth order.

The forced system is the column kernel of `stratified` with the
interpolated forcing as its pressure tendency, stepped by the same RK4,
time loop, failure policy and step limit; no wave couples the levels,
so the speed that limit takes is the advection max|ubar + u|.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .core import CFL_DEFAULT, check_kappa, write_table
from .stratified import (
    ColumnWork,
    Run,
    march_column,
    pressure_matrix,
    rk4,
    state_limit,
)


def _lagrange_stencil(times, t):
    """Start index and weights of the cubic stencil covering t."""
    n = times.size
    j = int(np.searchsorted(times, t, side="right")) - 1
    j = min(max(j, 0), n - 2)
    k = min(max(j - 1, 0), n - 4)
    ts = times[k:k + 4]
    w = np.ones(4)
    for a in range(4):
        for b in range(4):
            if a != b:
                w[a] *= (t - ts[b]) / (ts[a] - ts[b])
    return k, w


class ReferenceRun:
    """Reference snapshots plus their pressure forcing on a target profile.

    The stored forcing is -(1/rho) M[rho] d_x h_ref with rho taken from
    `target_profile`, sampled at every reference snapshot; queries between
    snapshots go through the cubic interpolant.
    """

    def __init__(self, trajectory, target_profile):
        states = trajectory.states
        if len(states) < 4:
            raise ValueError(
                f"need at least 4 reference snapshots for cubic "
                f"interpolation, got {len(states)}")
        if states[0].levels != target_profile.levels:
            raise ValueError("reference and target level grids differ")
        times = np.array([s.t for s in states])
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("reference snapshot times must increase")
        self.times = times
        self.grid = states[0].grid
        self.profile = target_profile
        self.h_snapshots = np.stack([s.h for s in states])
        P = pressure_matrix(target_profile)
        dxh = self.grid.derivative(self.h_snapshots)
        self.forcing_snapshots = -np.einsum("ij,tjx->tix", P, dxh)
        self._tol = 1e-9 * max(1.0, abs(float(times[-1])))

    @property
    def horizon(self):
        return float(self.times[-1])

    def _interpolate(self, snapshots, t):
        """The cubic interpolant of `snapshots` at time t, (n_r, n_x)."""
        if t < self.times[0] - self._tol or t > self.times[-1] + self._tol:
            raise ValueError(
                f"t = {t:.6g} is outside the reference horizon "
                f"[{self.times[0]:.6g}, {self.horizon:.6g}]")
        k, w = _lagrange_stencil(self.times, t)
        return np.einsum("a,aix->ix", w, snapshots[k:k + 4])

    def forcing(self, t):
        """Forcing field at time t as an (n_r, n_x) array."""
        return self._interpolate(self.forcing_snapshots, t)

    def h_ref(self, t):
        """Reference interface deviation at time t, same interpolant."""
        return self._interpolate(self.h_snapshots, t)


# ----------------------------------------------------------------------
# the forced system
# ----------------------------------------------------------------------

@dataclass(eq=False, kw_only=True)
class RefinedRun(Run):
    kappa: float
    reference: ReferenceRun


def solve_refined(initial, forcing, kappa, T, dt=None, cfl=CFL_DEFAULT,
                  snapshot_every=1):
    """Integrate the forced system to horizon T with fixed-step IF-RK4.

    `forcing` is a ReferenceRun whose horizon must reach T; its target
    profile is the run's background. When dt is omitted the step is the
    smaller of the reference snapshot spacing and the transport
    stability limit, which every step re-checks.
    """
    T = float(T)
    check_kappa(kappa)
    grid, levels, profile = initial.grid, initial.levels, forcing.profile
    if levels != profile.levels or grid != forcing.grid:
        raise ValueError("initial data and forcing live on different grids")
    if T > forcing.horizon + 1e-9 * max(1.0, T):
        raise ValueError(
            f"horizon T = {T:.6g} exceeds the reference horizon "
            f"{forcing.horizon:.6g}")

    def advection(u):
        """max|ubar + u|, the transport's fastest speed, as a callable."""
        return lambda: float(np.max(np.abs(profile.ubar[:, None] + u)))

    if dt is None:
        dt = min(float(np.min(np.diff(forcing.times))),
                 state_limit(initial.h, grid, kappa, advection(initial.u)(),
                             cfl))
    # RK4 stages 2 and 3, and the end of one step and the start of the
    # next, query the same time
    at = functools.lru_cache(maxsize=1)(forcing.forcing)
    column = (grid, profile, kappa, lambda dxh, t, out: at(t))
    work = ColumnWork(grid, levels.n_r)

    def advance(t, y, dt):
        h, u = y
        speed = advection(u)
        return rk4(h, u, t, dt, *column, work=work, speeds=(speed, speed),
                   cfl=cfl)

    run = march_column(initial, advance, T, dt, snapshot_every)
    return RefinedRun(kappa=kappa, reference=forcing, **run)


# ----------------------------------------------------------------------
# consistency residual
# ----------------------------------------------------------------------

@dataclass(eq=False)
class ResidualSeries:
    """Remainder left by the forced run inside the self-consistent system.

    residual_hs[i, j] is the H^s size on level j at sample time i of the
    closed-form remainder (1/rho) M[rho] d_x (h - h_ref); agreement[i] is
    the sup gap between that and the substitution evaluation, relative to
    the largest residual amplitude seen along the run (sup norm, so float
    noise in unexcited high modes cannot swamp the comparison); bound[i]
    is sup(rho) sup(1/rho) times the L1-in-r, H^{s+1}-in-x size of
    h - h_ref; ratio[i] compares the worst level against the bound.
    """
    times: np.ndarray
    residual_hs: np.ndarray
    agreement: np.ndarray
    bound: np.ndarray
    ratio: np.ndarray


def consistency_residual(run, s=2.0):
    """Evaluate the remainder along a RefinedRun by two separate routes.

    Substitution route: the forced time derivative of u minus the
    self-consistent one (the transport terms cancel in floats, leaving
    forcing plus pressure). Closed-form route: the target pressure applied
    to d_x of (h - h_ref). Exact arithmetic makes them identical.
    """
    ref = run.reference
    profile = ref.profile
    grid = run.states[0].grid
    w = profile.levels.w
    P = pressure_matrix(profile)
    sup_product = float(np.max(profile.rho)) * float(np.max(1.0 / profile.rho))

    times = []
    res_hs = []
    gaps = []
    closed_sup = 0.0
    bounds = []
    ratios = []
    for state in run.states:
        t, h, u = state.t, state.h, state.u
        h_ref = ref.h_ref(t)
        diff = h - h_ref
        closed = P @ grid.derivative(diff)

        # substitution: forced RHS minus self-consistent RHS, term by term
        u_tot = profile.ubar[:, None] + u
        adv = u_tot
        if run.kappa > 0.0:
            adv = u_tot - run.kappa * grid.derivative(h) / (1.0 + h)
        transport = -grid.dealias(adv * grid.derivative(u))
        du_forced = transport + ref.forcing(t)
        du_self = transport - P @ grid.derivative(h)
        substitution = du_forced - du_self

        rn = grid.sobolev_norms_rows(closed, s)
        bound = sup_product * float(np.sum(
            w * grid.sobolev_norms_rows(diff, s + 1.0)))

        times.append(t)
        res_hs.append(rn)
        gaps.append(float(np.max(np.abs(substitution - closed))))
        closed_sup = max(closed_sup, float(np.max(np.abs(closed))))
        bounds.append(bound)
        ratios.append(float(np.max(rn)) / bound if bound > 0.0 else 0.0)

    scale = max(closed_sup, 1e-30)
    return ResidualSeries(
        times=np.array(times), residual_hs=np.array(res_hs),
        agreement=np.array(gaps) / scale, bound=np.array(bounds),
        ratio=np.array(ratios))


def write_residuals(series, levels, f):
    """CSV rows (t, r, residual_hs, bound, ratio) per sample and level."""
    write_table(f, "t,r,residual_hs,bound,ratio", (
        (t, r, rn, b, rn / b if b > 0.0 else 0.0)
        for t, b, res in zip(series.times, series.bound, series.residual_hs)
        for r, rn in zip(levels.r, res)))
