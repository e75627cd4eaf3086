"""Experiment orchestration: sweeps, slope fits, invariant suites, artifacts.

Two rate experiments anchor the package. The kappa sweep measures how
fast diffusive two-layer runs approach the kappa = 0 run (terminal H^s
difference, expected first order in kappa). The epsilon sweep mollifies
the two-layer density jump over widths epsilon, evolves the continuously
stratified column from embedded two-layer data, and measures the
terminal distance to the embedded two-layer run away from the pycnocline
band, expected first order in the profile distance delta_0. Each slope
comes with a 95% interval from the Student-t quantile, computed by
`t_quantile` from the closed-form t distribution function of integer
degrees of freedom (no special-function library). Both sweeps, and every
column experiment, take their grid, constants, levels and embedded
initial column from one config reader (`grid_from_config`,
`column_setup`), and one judge turns each sweep's measured series into
its result: inconclusive, all zero, or fitted, with one metadata set.

check_all re-runs the cross-module identity suites (classification vs
direct eigenvalues, symmetrizer certificates, conservation, the
total-velocity residual, embedding exactness, the Montgomery Lipschitz
bound, refined-system consistency, Richardson self-convergence) with a
seeded generator and returns machine-readable pass/fail records.

Artifacts are deterministic: every CSV table goes through
`core.write_table` (floats as repr(float)), JSON uses the default float
repr, and SVG coordinates are rounded to fixed precision, so re-running
a config with the same seed reproduces files byte for byte.

Config values are read by `config_count`, `config_real`, `config_reals`
and `config_positive`; a dotted key reads inside a section
("params.rho_s"), and a JSON boolean, string or null is never a number.
"""

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import bilayer
from . import refined
from . import stratified
from .core import CFL_DEFAULT, LevelGrid, SpatialGrid, write_table
from .hyperbolicity import (
    StatePoint,
    classify_many,
    critical_froude_pairs,
    in_hyperbolic_set,
    state_matrix,
    symmetrizers,
)

SCHEMA_VERSION = 1

# abscissae of the two rate sweeps when the config gives none
KAPPAS_DEFAULT = (1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2)
EPSILONS_DEFAULT = (8e-4, 2.53e-3, 8e-3, 2.53e-2, 8e-2)


# ----------------------------------------------------------------------
# slope fitting
# ----------------------------------------------------------------------

@dataclass
class FitResult:
    slope: float
    intercept: float
    interval: float
    n_points: int


def _t_central_mass(t, dof):
    """P(|T| < t) for Student's t with integer dof, in closed form.

    Abramowitz & Stegun 26.7.3-26.7.4 in theta = atan(t / sqrt(dof)):
    the cosine series sin(theta) sum_k c_k cos^(2k)(theta) for even dof,
    (2/pi)(theta + sin(theta) sum_k c_k cos^(2k+1)(theta)) for odd dof.
    """
    theta = math.atan2(t, math.sqrt(dof))
    sin, cos2 = math.sin(theta), math.cos(theta) ** 2
    if dof % 2 == 0:
        term = total = 1.0
        for k in range(1, dof // 2):
            term *= cos2 * (2 * k - 1) / (2 * k)
            total += term
        return sin * total
    total = 0.0
    if dof > 1:
        term = total = math.cos(theta)
        for k in range(2, (dof + 1) // 2):
            term *= cos2 * (2 * k - 2) / (2 * k - 1)
            total += term
    return 2.0 / math.pi * (theta + sin * total)


def t_quantile(p, dof):
    """Quantile of Student's t with integer dof >= 1, for 0.5 < p < 1.

    Bisects the closed-form CDF 1/2 + P(|T| < t)/2 on floats until the
    bracket holds two adjacent doubles and returns its upper end.
    """
    if not 0.5 < p < 1.0 or int(dof) != dof or dof < 1:
        raise ValueError(f"need 0.5 < p < 1 and an integer dof >= 1, "
                         f"got p = {p}, dof = {dof}")
    dof = int(dof)
    mass = 2.0 * p - 1.0
    lo, hi = 0.0, 1.0
    while _t_central_mass(hi, dof) < mass:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if _t_central_mass(mid, dof) < mass:
            lo = mid
        else:
            hi = mid


def fit_slope(xs, ys):
    """Least-squares slope of log y against log x with a 95% interval.

    The interval is the Student-t quantile t_quantile(0.975, n - 2)
    times the slope's standard error.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 4:
        raise ValueError(f"need at least 4 paired points, got {xs.size}")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("slope fit needs strictly positive values")
    lx = np.log(xs)
    ly = np.log(ys)
    n = lx.size
    mx = lx.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    if sxx == 0.0:
        raise ValueError("abscissa values are all equal")
    slope = float(np.sum((lx - mx) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * mx)
    resid = ly - (slope * lx + intercept)
    dof = n - 2
    se = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx) if dof > 0 else 0.0
    interval = t_quantile(0.975, dof) * se if dof > 0 else 0.0
    return FitResult(slope=slope, intercept=intercept, interval=interval,
                     n_points=n)


@dataclass(eq=False)
class SweepResult:
    """One rate experiment: raw per-point table plus the fitted slope."""
    experiment: str
    abscissa: np.ndarray
    series: dict
    headline: str
    fit: FitResult
    expected_slope: float
    slope_tolerance: float
    passed: bool
    inconclusive: bool = False
    detail: str = ""
    meta: dict = field(default_factory=dict)


class _Inconclusive(Exception):
    """A sweep member that cannot be measured; the message says why."""


def _final(run, name):
    """The state a run reached at T; a blown-up run ends the sweep."""
    if run.blown_up:
        raise _Inconclusive(f"{name} blew up")
    return run.final


def _judge(experiment, abscissa, headline, tolerance, cfg, meta, measure):
    """The one verdict of a sweep on the series `measure()` returns.

    `measure` maps series names to values over `abscissa`, or raises
    `_Inconclusive`. The headline series is fitted against the config's
    expected_slope (default 1) +- slope_tolerance (default `tolerance`);
    a headline that vanishes everywhere passes without a fit. Before
    `measure` runs, the abscissa must hold 4 points over two decades,
    expected_slope be finite and slope_tolerance finite and >= 0. Every
    outcome carries the same `meta`, so every CSV footer has one key set.
    """
    abscissa = np.asarray(abscissa, dtype=float)
    if abscissa.size < 4:
        raise ValueError("sweeps need at least 4 points for a slope")
    span = float(abscissa.max() / abscissa.min())
    if span < 99.0:
        raise ValueError(
            f"sweep abscissa spans a factor {span:.3g}; need two decades")
    expected = config_real(cfg, "expected_slope", 1.0)
    tolerance = config_real(cfg, "slope_tolerance", tolerance)
    if not (math.isfinite(expected) and 0.0 <= tolerance < math.inf):
        raise ConfigError(f"need a finite expected_slope and slope_tolerance "
                          f">= 0, got {expected} and {tolerance}")
    result = SweepResult(experiment, abscissa, {}, headline, None, expected,
                         tolerance, passed=False, meta=meta)
    try:
        result.series = measure()
    except _Inconclusive as err:
        result.inconclusive, result.detail = True, str(err)
        return result
    values = result.series[headline]
    if np.all(values == 0.0):
        result.passed = True
        result.detail = "all distances vanish; runs are identical"
    else:
        result.fit = fit_slope(abscissa, values)
        result.passed = abs(result.fit.slope - expected) <= tolerance
    return result


# ----------------------------------------------------------------------
# configs
# ----------------------------------------------------------------------

class ConfigError(ValueError):
    """An invalid experiment configuration."""


def _is_number(value):
    """A real number that is not a bool: JSON's true must not read as 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _lookup(cfg, key, default):
    """cfg[key], or `default`; a dotted key reads a section, "params.rho_s"."""
    *sections, name = key.split(".")
    for section in sections:
        cfg = cfg.get(section, {})
    return cfg.get(name, default)


def _real(value, key):
    """`value` as a float; a bool, a string, a null or an int too large
    for a float is a ConfigError naming `key`."""
    if _is_number(value):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"{key} must be a number, got {value!r}")


def config_count(cfg, key, default):
    """cfg[key], or `default`, as an int; 2.7, "3" or true is a ConfigError."""
    value = _lookup(cfg, key, default)
    if not _is_number(value) or value % 1 != 0:
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def config_real(cfg, key, default):
    """cfg[key], or `default`, as a float; true, "3" or null is a ConfigError.

    Where `default` is None the key is optional and a null stays None.
    Range checks belong to the reader of the value.
    """
    value = _lookup(cfg, key, default)
    if value is None and default is None:
        return None
    return _real(value, key)


def config_reals(cfg, key, default):
    """cfg[key], or `default`, as a list of floats, each read as by
    `config_real`; anything but a JSON array is a ConfigError."""
    values = _lookup(cfg, key, default)
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers, got {values!r}")
    return [_real(v, f"{key}[{i}]") for i, v in enumerate(values)]


def config_positive(cfg, key, default):
    """cfg[key], or `default`, as a finite float > 0; None stays None."""
    value = _lookup(cfg, key, default)
    if value is not None and (not _is_number(value)
                              or not 0.0 < value < math.inf):
        raise ConfigError(f"{key} must be finite and positive, got {value!r}")
    return None if value is None else float(value)


def params_from_config(cfg):
    """Two-layer constants of a config; a top-level kappa wins over params."""
    defaults = {"rho_s": 0.5, "rho_b": 1.0, "Hbar_s": 1.0 / 3.0,
                "Hbar_b": 2.0 / 3.0, "Ubar_s": 0.0, "Ubar_b": 0.0}
    return bilayer.BilayerParams(
        **{k: config_real(cfg, "params." + k, v) for k, v in defaults.items()},
        kappa=config_real(cfg, "kappa",
                          config_real(cfg, "params.kappa", 0.0)))


def grid_from_config(cfg):
    """The periodic grid of a config: n_x points (256) over `length` (2 pi)."""
    return SpatialGrid(config_count(cfg, "n_x", 256),
                       config_real(cfg, "length", 2.0 * np.pi))


def initial_from_config(cfg, grid):
    """Two-layer initial deviations of a config's "initial" section."""
    amplitudes = _lookup(cfg, "initial.amplitudes",
                         {"H_s": 0.05, "U_s": 0.02})
    if isinstance(amplitudes, dict):
        amplitudes = {k: _real(v, f"initial.amplitudes.{k}")
                      for k, v in amplitudes.items()}
    return bilayer.make_initial(
        grid, kind=_lookup(cfg, "initial.kind", "sine"),
        amplitudes=amplitudes,
        wavenumber=config_count(cfg, "initial.wavenumber", 1),
        center=config_real(cfg, "initial.center", None),
        width=config_real(cfg, "initial.width", None))


def column_setup(cfg):
    """(params, levels, two-layer initial state, sharp profile, column).

    The levels are n_r (64) cells with an edge at the interface, clustered
    by `cluster` (6); the column is the two-layer state embedded on them.
    """
    params = params_from_config(cfg)
    levels = LevelGrid.with_interface(config_count(cfg, "n_r", 64),
                                      -params.Hbar_s,
                                      cluster=config_real(cfg, "cluster", 6.0))
    initial = initial_from_config(cfg, grid_from_config(cfg))
    sharp, column = stratified.embed_bilayer(initial, params, levels)
    return params, levels, initial, sharp, column


# ----------------------------------------------------------------------
# kappa sweep
# ----------------------------------------------------------------------

def _bilayer_difference_norm(a, b, s):
    """Combined H^s size of the four field differences between states."""
    return bilayer.stacked_norm(a.grid, a.stacked() - b.stacked(), s)


def sweep_kappa(config):
    """Terminal distance between diffusive runs and the plain run.

    All runs share one dt (the smallest stability step of the members,
    the plain run included) so the measured differences isolate the
    kappa terms.
    """
    cfg = dict(config)
    kappas = sorted(config_reals(cfg, "kappas", KAPPAS_DEFAULT))
    if not kappas:
        raise ValueError("kappa sweep needs a non-empty kappas list")
    if kappas[0] <= 0.0:
        raise ValueError("kappa sweep values must be positive")
    T = config_real(cfg, "T", 0.5)
    s = config_real(cfg, "s", 2.0)
    cfl = config_positive(cfg, "cfl", CFL_DEFAULT)
    grid = grid_from_config(cfg)
    base = params_from_config(cfg)
    initial = initial_from_config(cfg, grid)

    # shared step for every member, with headroom for the limit to
    # tighten as the state steepens
    dt = 0.9 * min(bilayer.cfl_limit(initial, replace(base, kappa=k), cfl)
                   for k in [0.0] + kappas)

    def final(k, name):
        return _final(bilayer.integrate(
            initial, replace(base, kappa=k), T, dt=dt, cfl=cfl,
            snapshot_every=10 ** 9), name)

    def measure():
        plain = final(0.0, "kappa = 0 run")
        return {"difference": np.array([_bilayer_difference_norm(
            final(k, f"run at kappa = {k:g}"), plain, s) for k in kappas])}

    return _judge("sweep-kappa", kappas, "difference", 0.1, cfg,
                  {"dt": dt, "T": T, "s": s, "n_x": grid.n_x}, measure)


# ----------------------------------------------------------------------
# epsilon sweep
# ----------------------------------------------------------------------

def sweep_epsilon(config):
    """Distance of smoothed-pycnocline runs to the sharp two-layer run.

    All runs start from the same embedded two-layer data and share one
    dt; distances are sampled at t = T per level, aggregated over the
    levels outside the pycnocline band |r + Hbar_s| > band_factor * eps
    with the cell weights (an integral norm in r), and fitted against
    the closed-form profile distance delta_0.
    """
    cfg = dict(config)
    epsilons = sorted(config_reals(cfg, "epsilons", EPSILONS_DEFAULT))
    if not epsilons:
        raise ValueError("epsilon sweep needs a non-empty epsilons list")
    T = config_real(cfg, "T", 0.5)
    s = config_real(cfg, "s", 2.0)
    cfl = config_positive(cfg, "cfl", CFL_DEFAULT)
    kappa = config_real(cfg, "kappa", 0.1)
    shape = cfg.get("shape", "tanh")
    band_factor = config_real(cfg, "band_factor", 3.0)
    params, levels, bi_initial, _, strat_initial = column_setup(cfg)
    bi_params = replace(params, kappa=kappa)
    grid = bi_initial.grid

    targets = []
    deltas = []
    for eps in epsilons:
        spec = stratified.PycnoclineSpec(params, eps, shape)
        profile, dist = stratified.smooth_pycnocline(spec, levels)
        targets.append(profile)
        deltas.append(dist["rho"] + dist["ubar"])

    dt = bilayer.cfl_limit(bi_initial, bi_params, cfl)
    for profile in targets:
        dt = min(dt, stratified.cfl_limit(strat_initial, profile, kappa, cfl))
    dt *= 0.9

    def measure():
        bi_final = _final(bilayer.integrate(
            bi_initial, bi_params, T, dt=dt, cfl=cfl, snapshot_every=10 ** 9),
            "two-layer run")
        want = stratified.embed_bilayer(bi_final, params, levels)[1]
        exterior, exterior_sup, everywhere = [], [], []
        for eps, profile in zip(epsilons, targets):
            final = _final(stratified.integrate(
                strat_initial, profile, kappa, T, dt=dt, cfl=cfl,
                snapshot_every=10 ** 9), f"stratified run at eps = {eps:g}")
            hn = grid.sobolev_norms_rows(final.h.values - want.h.values, s)
            un = grid.sobolev_norms_rows(final.u.values - want.u.values, s)
            per_level = np.sqrt(hn * hn + un * un)
            mask = np.abs(levels.r + params.Hbar_s) > band_factor * eps
            if not np.any(mask):
                raise _Inconclusive(
                    f"eps = {eps:g} leaves no levels outside the band")
            exterior.append(float(np.sum(levels.w[mask] * per_level[mask])))
            exterior_sup.append(float(np.max(per_level[mask])))
            everywhere.append(float(np.sum(levels.w * per_level)))
        return {"exterior": np.array(exterior),
                "exterior_sup": np.array(exterior_sup),
                "all_levels": np.array(everywhere)}

    return _judge("sweep-epsilon", deltas, "exterior", 0.2, cfg,
                  {"dt": dt, "T": T, "kappa": kappa, "shape": shape,
                   "epsilons": epsilons, "band_factor": band_factor,
                   "n_x": grid.n_x, "n_r": levels.n_r}, measure)


# ----------------------------------------------------------------------
# invariant suites
# ----------------------------------------------------------------------

# the suites check their random state points this many at a time, which
# bounds the stacked eigenproblems; the symmetrizer suite also draws and
# certifies them in blocks of this size
_BLOCK = 64


def random_state_points(rng, n, frac_high):
    """n random states, each with its shear at a fraction of the thresholds.

    The fraction frac ~ U(0, frac_high) places the shear at frac Fr_- when
    frac <= 1, else at Fr_- + (frac - 1)(Fr_+ - Fr_-). One (n, 7) uniform
    draw takes each point's seven numbers in the order a point-by-point
    loop of scalar draws would, so the points and the generator's next
    draw are the same as there. The thresholds of all n points come from
    one `critical_froude_pairs` call and are handed to each point.
    """
    # shear fraction, rho_b, rho_s/rho_b, H_s, H_b, U_s, the shear's sign
    frac, rho_b, ratio, H_s, H_b, U_s, flip = rng.uniform(
        (0.0, 0.5, 0.05, 0.1, 0.1, -1.0, 0.0),
        (frac_high, 2.0, 0.95, 2.0, 2.0, 1.0, 1.0), size=(n, 7)).T
    rho_s = rho_b * ratio
    fr_minus, fr_plus = critical_froude_pairs(H_s / H_b, rho_s / rho_b)
    shear = np.where(frac <= 1.0, frac * fr_minus,
                     fr_minus + (frac - 1.0) * (fr_plus - fr_minus))
    sign = np.where(flip < 0.5, 1.0, -1.0)
    U_b = U_s + sign * shear * np.sqrt(H_b)
    rows = np.stack([rho_s, rho_b, H_s, H_b, U_s, U_b, fr_minus, fr_plus],
                    axis=1).tolist()
    return [StatePoint(*row[:6], solved_thresholds=row[6:]) for row in rows]


def _suite_classification(rng, n_points):
    # one draw and one threshold solve for every point; one stacked
    # classification and eigenvalue check per block
    drawn = random_state_points(rng, n_points, 2.4)
    checked = 0
    for start in range(0, n_points, _BLOCK):
        points = drawn[start:start + _BLOCK]
        pairs = [(p, r) for p, r in zip(points, classify_many(points))
                 if not r.degenerate]
        eigs = np.linalg.eigvals(np.reshape(
            [state_matrix(p) for p, _ in pairs], (-1, 4, 4)))
        scale = 1.0 + np.max(np.abs(eigs), axis=1)
        direct = np.sum(np.abs(eigs.imag) <= 1e-9 * scale[:, None], axis=1)
        for (point, report), n_direct in zip(pairs, direct.tolist()):
            if n_direct != report.real_count:
                return False, (
                    f"root-count mismatch at {point}: classifier "
                    f"{report.real_count}, direct eigenvalues {n_direct}")
        checked += len(pairs)
    return True, f"{checked} non-degenerate points agree with eigenvalues"


def _suite_symmetrizer(rng, n_points):
    done = 0
    while done < n_points:
        # never more points than remain: a point-by-point loop would stop
        # drawing there, and the Lipschitz suite reads the generator next
        points = [p for p in random_state_points(
            rng, min(_BLOCK, n_points - done), 0.8)
            if in_hyperbolic_set(p, 0.1)]
        for point, cert in zip(points, symmetrizers(points)):
            if not (cert.certified and np.all(cert.minors > 0.0)
                    and cert.min_eigenvalue > 0.0 and cert.asymmetry <= 1e-12):
                return False, f"certification failed at {point}"
            done += 1
    return True, f"{done} points certified by minors and eigenvalues"


def _suite_conservation(kappa):
    grid = SpatialGrid(128)
    initial = bilayer.make_initial(grid, amplitudes={"H_s": 0.05,
                                                     "U_s": 0.02})
    T = 0.5
    worst_mass = 0.0
    worst_mom = 0.0
    for k in (0.0, kappa):
        params = bilayer.BilayerParams(0.5, 1.0, 1.0 / 3.0, 2.0 / 3.0,
                                       kappa=k)
        traj = bilayer.integrate(initial, params, T, snapshot_every=10 ** 9)
        if traj.blown_up:
            return False, f"conservation run blew up at kappa = {k:g}"
        for name in ("H_s", "H_b"):
            drift = abs(getattr(traj.final, name).values.mean()
                        - getattr(initial, name).values.mean()) / T
            worst_mass = max(worst_mass, drift)
        if k == 0.0:
            for name in ("U_s", "U_b"):
                drift = abs(getattr(traj.final, name).values.mean()
                            - getattr(initial, name).values.mean()) / T
                worst_mom = max(worst_mom, drift)
    if worst_mass > 1e-12 or worst_mom > 1e-12:
        return False, (f"mass drift {worst_mass:.3e}, momentum drift "
                       f"{worst_mom:.3e} exceed 1e-12 per unit time")
    return True, (f"mass drift {worst_mass:.3e}, momentum drift "
                  f"{worst_mom:.3e} per unit time")


def _bd_residual_peak(dt, params, initial, T):
    traj = bilayer.integrate(initial, params, T, dt=dt)
    return float(np.max(bilayer.bd_residual(traj, params)[1]))


def _suite_bd_residual(kappa):
    if kappa <= 0.0:
        return None, "kappa = 0 makes the total velocity equal the velocity"
    grid = SpatialGrid(64)
    params = bilayer.BilayerParams(0.5, 1.0, 1.0 / 3.0, 2.0 / 3.0,
                                   kappa=kappa)
    initial = bilayer.make_initial(grid, amplitudes={"H_s": 0.05})
    T = 0.2
    limit = bilayer.cfl_limit(initial, params)
    coarse = _bd_residual_peak(limit / 2.0, params, initial, T)
    fine = _bd_residual_peak(limit / 4.0, params, initial, T)
    ratio = coarse / fine
    if not 8.0 <= ratio <= 32.0:
        return False, f"residual halving ratio {ratio:.2f} not fourth order"
    return True, f"residual halving ratio {ratio:.2f}"


def _suite_embedding():
    params, levels, bistate, profile, state = column_setup({
        "n_x": 64, "n_r": 24, "cluster": 0.0, "kappa": 0.1,
        "initial": {"amplitudes": {"H_s": 0.05, "U_b": 0.02}}})
    # the two-layer system runs as the two-level column, so its pressure
    # is checked against the closed-form layer gradients first
    H_s, H_b = bistate.H_s.values, bistate.H_b.values
    d = bistate.grid.derivative
    P = stratified.pressure_matrix(params.column)
    press = P @ d(np.array([H_b / params.Hbar_b, H_s / params.Hbar_s]))
    closed = np.array([d(params.rho_ratio * H_s + H_b), d(H_s + H_b)])
    gap = float(np.max(np.abs(press - closed)))
    if gap > 1e-12:
        return False, (f"two-level pressure differs from the layer "
                       f"gradients by {gap:.3e}")
    dh, du = stratified.rhs(state, profile, params.kappa)
    want = stratified.embed_bilayer(bilayer.BilayerState(
        bistate.t, *bilayer.rhs(bistate, params)), params, levels)[1]
    err = max(float(np.max(np.abs(dh.values - want.h.values))),
              float(np.max(np.abs(du.values - want.u.values))))
    if err > 1e-12:
        return False, f"embedded time derivatives differ by {err:.3e}"
    dt = min(bilayer.cfl_limit(bistate, params),
             stratified.cfl_limit(state, profile, params.kappa))
    T = 0.1
    bi = bilayer.integrate(bistate, params, T, dt=dt, snapshot_every=10 ** 9)
    strat = stratified.integrate(state, profile, params.kappa, T, dt=dt,
                                 snapshot_every=10 ** 9)
    want = stratified.embed_bilayer(bi.final, params, levels)[1]
    drift = max(float(np.max(np.abs(strat.final.h.values - want.h.values))),
                float(np.max(np.abs(strat.final.u.values - want.u.values))))
    if drift > 1e-10:
        return False, f"embedded trajectory drifted by {drift:.3e}"
    return True, (f"pressure matches to {gap:.1e}, derivatives to "
                  f"{err:.1e}, runs to {drift:.1e}")


def _suite_lipschitz(rng, n_triples):
    """The Montgomery Lipschitz bound on n random (rho1, rho2, h) triples.

    Each triple draws its level count, rho1, the perturbation that makes
    rho2, and h on 16 columns, in that order, so the generator reads the
    numbers a triple-by-triple loop would. The triples are then grouped
    by level count, and each group is checked by one
    `montgomery_lipschitz_ratios` call.
    """
    groups = {}
    for _ in range(n_triples):
        n_r = int(rng.integers(4, 48))
        rho1 = rng.uniform(0.2, 4.0, n_r)
        rho2 = np.abs(rho1 + rng.uniform(-0.5, 0.5, n_r)) + 0.05
        groups.setdefault(n_r, []).append(
            (rho1, rho2, rng.standard_normal((n_r, 16))))
    worst = 0.0
    for n_r, triples in groups.items():
        ratios = stratified.montgomery_lipschitz_ratios(
            LevelGrid.uniform(n_r), *(np.array(a) for a in zip(*triples)))
        worst = max(worst, float(np.max(ratios)))
    if worst > 1.0 + 1e-9:
        return False, f"bound ratio reached {worst}"
    return True, f"worst ratio {worst:.12f} over {n_triples} triples"


def _suite_refined(kappa):
    k = kappa if kappa > 0.0 else 0.1
    params, levels, _, profile, state = column_setup(
        {"n_x": 64, "n_r": 32, "cluster": 4.0})
    dt = stratified.cfl_limit(state, profile, k) / 2.0
    ref_traj = stratified.integrate(state, profile, k, 0.3, dt=dt,
                                    snapshot_every=1)
    target, _ = stratified.smooth_pycnocline(
        stratified.PycnoclineSpec(params, 0.02, "tanh"), levels)
    forcing = refined.ReferenceRun(ref_traj, target)
    run = refined.solve_refined(state, target, forcing, k, 0.3, dt=dt)
    if run.blown_up:
        return False, "refined run blew up"
    series = refined.consistency_residual(run)
    agreement = float(np.max(series.agreement))
    ratio = float(np.max(series.ratio))
    if agreement > 1e-10:
        return False, f"residual paths disagree at {agreement:.3e}"
    if ratio > 1.0 + 1e-9:
        return False, f"consistency bound violated: ratio {ratio}"
    return True, f"paths agree to {agreement:.1e}, bound ratio {ratio:.3f}"


def _suite_richardson():
    grid = SpatialGrid(64)
    params = bilayer.BilayerParams(0.5, 1.0, 1.0 / 3.0, 2.0 / 3.0,
                                   kappa=0.05)
    initial = bilayer.make_initial(grid, amplitudes={"H_s": 0.05})
    T = 0.2
    base = bilayer.cfl_limit(initial, params) / 2.0
    finest = bilayer.integrate(initial, params, T, dt=base / 32.0,
                               snapshot_every=10 ** 9).final
    # the diffusion is stepped exactly, so the error at base/8 already
    # sits near the rounding floor; the halvings are taken above it
    errs = []
    for m in (1, 2, 4):
        run = bilayer.integrate(initial, params, T, dt=base / m,
                                snapshot_every=10 ** 9).final
        errs.append(_bilayer_difference_norm(run, finest, 0.0))
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    if not all(8.0 <= r <= 32.0 for r in ratios):
        return False, f"halving ratios {[f'{r:.1f}' for r in ratios]}"
    return True, f"halving ratios {[f'{r:.1f}' for r in ratios]}"


def check_all(config=None):
    """Run every cross-module invariant suite and report pass/fail rows."""
    cfg = dict(config or {})
    seed = config_count(cfg, "seed", 0)
    kappa = config_real(cfg, "kappa", 0.1)
    n_points = config_count(cfg, "n_points", 1000)
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    rng = np.random.default_rng(seed)

    suites = []

    def record(name, outcome):
        ok, detail = outcome
        status = "skip" if ok is None else ("pass" if ok else "fail")
        suites.append({"name": name, "status": status, "detail": detail})

    record("classification", _suite_classification(rng, n_points))
    record("symmetrizer", _suite_symmetrizer(rng, min(n_points, 400)))
    record("conservation", _suite_conservation(kappa))
    record("bd-residual", _suite_bd_residual(kappa))
    record("embedding", _suite_embedding())
    record("lipschitz", _suite_lipschitz(rng, n_points))
    record("refined-consistency", _suite_refined(kappa))
    record("richardson", _suite_richardson())

    passed = all(row["status"] != "fail" for row in suites)
    return {"seed": seed, "kappa": kappa, "n_points": n_points,
            "passed": passed, "suites": suites}


# ----------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------

def write_sweep_csv(result, f):
    """Raw per-point sweep table; a trailing comment records the metadata.

    The comment goes last because np.genfromtxt(names=True) reads field
    names from the first line even when it is commented out.
    """
    names = sorted(result.series)
    write_table(f, ",".join(["abscissa"] + names),
                zip(result.abscissa, *(result.series[n] for n in names)))
    meta = ",".join(f"{k}={v}" for k, v in sorted(result.meta.items()))
    f.write(f"# {result.experiment} {meta}\n")


SVG_FRAME = (480, 360, 48)    # width, height and padding in pixels
SVG_PALETTE = ("#1f3d7a", "#a03c3c", "#3c7a46", "#7a5e3c", "#5e3c7a",
               "#3c6e7a")


def _svg_frame(xs, ys, title):
    """Header lines, (px, py) maps and x range of a plot of xs and ys;
    a range of one value is widened to one unit."""
    width, height, pad = SVG_FRAME
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0

    def px(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def py(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{pad}" y="24" font-size="14">{title}</text>']
    return parts, px, py, (x0, x1)


def svg_polylines(named_xy, title):
    """Linear-axes polyline plot; named_xy is a list of (name, xs, ys)."""
    parts, px, py, _ = _svg_frame(
        np.concatenate([np.asarray(x, dtype=float) for _, x, _ in named_xy]),
        np.concatenate([np.asarray(y, dtype=float) for _, _, y in named_xy]),
        title)
    for ci, (name, xs, ys) in enumerate(named_xy):
        color = SVG_PALETTE[ci % len(SVG_PALETTE)]
        pts = " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}"
                       for x, y in zip(np.asarray(xs, dtype=float),
                                       np.asarray(ys, dtype=float)))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_loglog(result, title):
    """Small hand-rolled log-log scatter of the sweep plus its fit line."""
    width, height, pad = SVG_FRAME

    def note(text):
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                f'height="{height}"><text x="20" y="40">{title}: {text}'
                f'</text></svg>\n')

    xs = np.log10(result.abscissa)
    names = sorted(result.series)
    if not names:
        return note("no data")
    all_vals = np.concatenate([result.series[n] for n in names])
    positive = all_vals[all_vals > 0.0]
    if positive.size == 0:
        return note("all values zero")
    parts, px, py, (x0, x1) = _svg_frame(xs, np.log10(positive), title)
    parts.append(
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>')
    parts.append(
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="black"/>')
    for ci, name in enumerate(names):
        vals = result.series[name]
        color = SVG_PALETTE[ci % len(SVG_PALETTE)]
        pts = []
        for x, v in zip(xs, vals):
            if v > 0.0:
                pts.append(f"{px(x):.2f},{py(math.log10(v)):.2f}")
        if pts:
            parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                         f'stroke="{color}" stroke-width="1"/>')
            for p in pts:
                cx, cy = p.split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="3" '
                             f'fill="{color}"/>')
        parts.append(f'<text x="{width - pad - 110}" '
                     f'y="{pad + 16 * (ci + 1)}" font-size="11" '
                     f'fill="{color}">{name}</text>')
    if result.fit is not None:
        ln10 = math.log(10.0)
        fy0 = (result.fit.slope * (x0 * ln10) + result.fit.intercept) / ln10
        fy1 = (result.fit.slope * (x1 * ln10) + result.fit.intercept) / ln10
        parts.append(
            f'<line x1="{px(x0):.2f}" y1="{py(fy0):.2f}" '
            f'x2="{px(x1):.2f}" y2="{py(fy1):.2f}" stroke="gray" '
            f'stroke-dasharray="5,4"/>')
        parts.append(
            f'<text x="{pad}" y="{height - 16}" font-size="12">slope '
            f'{result.fit.slope:.3f} +- {result.fit.interval:.3f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
