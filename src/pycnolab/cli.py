"""Command-line front end: configured experiments with JSON summaries.

    pycnolab <subcommand> --config cfg.json [--out dir] [--seed n]
                          [--threads n] [--plots]

Configs are JSON objects carrying a "schema" version field; every value
has a default, so --config may be omitted for a desk-scale run. Each
subcommand accepts only the keys it reads (CONFIG_KEYS); any other key,
top-level or inside "params"/"initial", is a configuration error. Each
experiment writes its CSV artifacts plus one <id>_summary.json with
{id, seed, pass, slope, interval, files}; --plots adds small SVG plots.
The seed appears in the summary and as a trailing comment line in every
CSV, and reruns reproduce the CSV bytes exactly. --threads is accepted
and validated so existing scripts keep running, but has no effect: every
experiment runs serially.

Exit codes: 0 the experiment passed, 1 an invariant or slope expectation
failed, 2 the configuration is invalid, 3 a run blew up (depth floor,
non-finite fields, norm ceiling, or a CFL limit that tightened below the
step mid-run) or the sweep was inconclusive.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import bilayer
from . import harness
from . import refined
from . import stratified
from .core import CFL_DEFAULT, BlowUpError, write_table
from .harness import ConfigError, config_count, config_positive, \
    config_real, config_reals
from .hyperbolicity import StatePoint, UnresolvedWindowError, atlas, \
    classify_arrays, count_line_intersections, critical_froude

PASS = 0
FAIL = 1
CONFIG_ERROR = 2
INCONCLUSIVE = 3


_PARAMS = {"params." + k for k in
           ("rho_s", "rho_b", "Hbar_s", "Hbar_b", "Ubar_s", "Ubar_b")}
_INITIAL = {"initial." + k for k in
            ("kind", "amplitudes", "wavenumber", "center", "width")}
# grid, two-layer constants and initial data, shared by runs and sweeps
_SETUP = {"n_x", "length"} | _PARAMS | _INITIAL
_COLUMN = _SETUP | {"n_r", "cluster", "epsilon", "shape", "kappa", "T", "dt"}
_SWEEP = _SETUP | {"T", "s", "cfl", "expected_slope", "slope_tolerance"}

# the keys each subcommand reads, besides schema, id, experiment and seed;
# only simulate-bilayer takes its diffusivity from "params.kappa", the
# others read a top-level "kappa" or none
CONFIG_KEYS = {
    "atlas": {"h_ratio", "rho_ratios", "intercepts", "n_samples"},
    "classify": {"points", "samples"},
    "simulate-bilayer": _SETUP | {"params.kappa", "kappa", "cfl", "dt", "T",
                                 "snapshot_every", "sigma"},
    "simulate-stratified": _COLUMN | {"cfl", "snapshot_every"},
    "refine": _COLUMN | {"s", "agreement_tol", "ratio_slack"},
    "sweep-kappa": _SWEEP | {"kappas"},
    "sweep-epsilon": _SWEEP | {"epsilons", "kappa", "shape", "band_factor",
                               "n_r", "cluster"},
    "check-all": {"kappa", "n_points"},
}


def _check_keys(cfg, experiment):
    keys = set()
    for key, value in cfg.items():
        if key in ("params", "initial"):
            if not isinstance(value, dict):
                raise ConfigError(f"config {key!r} must be a JSON object")
            keys.update(f"{key}.{k}" for k in value)
        else:
            keys.add(key)
    allowed = CONFIG_KEYS[experiment] | {"schema", "id", "experiment", "seed"}
    unknown = sorted(keys - allowed)
    if unknown:
        raise ConfigError(
            f"unknown config keys for {experiment}: {', '.join(unknown)}")


def _load_config(path, experiment):
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    schema = cfg.get("schema")
    if schema != harness.SCHEMA_VERSION:
        raise ConfigError(
            f"config needs \"schema\": {harness.SCHEMA_VERSION}, "
            f"got {schema!r}")
    declared = cfg.get("id", cfg.get("experiment"))
    if declared is not None and declared != experiment:
        raise ConfigError(
            f"config declares id {declared!r}, running {experiment!r}")
    _check_keys(cfg, experiment)
    return cfg


class Artifacts:
    """Collects files for one experiment and stamps the seed into each."""

    def __init__(self, out_dir, seed):
        self.out_dir = out_dir
        self.seed = seed
        self.files = []
        os.makedirs(out_dir, exist_ok=True)

    def write(self, name, body, comment=True):
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            if callable(body):
                body(f)
            else:
                f.write(body)
            if comment:
                # trailing so np.genfromtxt(names=True) still sees the
                # real header on the first line
                f.write(f"# seed={self.seed}\n")
        self.files.append(name)
        return path

    def summary(self, experiment, passed, fit=None):
        """Write <experiment>_summary.json over the files so far; return it."""
        data = {"id": experiment, "seed": self.seed, "pass": bool(passed),
                "slope": None if fit is None else fit.slope,
                "interval": None if fit is None else fit.interval,
                "files": list(self.files)}
        name = experiment.replace("-", "_") + "_summary.json"
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            json.dump(data, f, indent=2, sort_keys=True)
            f.write("\n")
        return data


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_atlas(cfg, art, plots):
    h_ratio = config_real(cfg, "h_ratio", 0.5)
    rho_ratios = config_reals(cfg, "rho_ratios", [0.1, 0.5, 0.9])
    intercepts = config_reals(cfg, "intercepts", [0.5, 1.5, 2.5])
    n_samples = config_count(cfg, "n_samples", 2001)
    if n_samples < 3:
        raise ConfigError(f"n_samples must be >= 3, got {n_samples}")

    # every density ratio's thresholds are solved before any curve is
    # written, so an unresolved window leaves no file behind
    try:
        solved = [critical_froude(h_ratio, rr) for rr in rho_ratios]
    except UnresolvedWindowError as err:
        raise ConfigError(str(err)) from None
    rows = []
    all_match = True
    for rr, thresholds in zip(rho_ratios, solved):
        curves = atlas(h_ratio, rr, intercepts, n_samples=n_samples)
        art.write(f"atlas_curves_rr{rr:g}.csv",
                  lambda f, curves=curves: write_table(f, "branch,p_s,p_b", (
                      (name, a, b)
                      for name, ps, pb in curves.branches + curves.lines
                      for a, b in zip(ps, pb))))
        if plots:
            art.write(f"atlas_rr{rr:g}.svg", harness.svg_polylines(
                [(n, ps, pb) for n, ps, pb in curves.branches + curves.lines],
                f"slowness curves, rho ratio {rr:g}"), comment=False)
        counts = classify_arrays(rr, h_ratio, 1.0, 0.0, np.array(intercepts),
                                 *thresholds).real_count.tolist()
        for c, count in zip(intercepts, counts):
            crossings = count_line_intersections(curves, c)
            match = crossings == count
            all_match = all_match and match
            rows.append((rr, c, str(crossings), str(count), match))

    art.write("atlas_counts.csv", lambda f: write_table(
        f, "rho_ratio,intercept,crossings,classifier,match", rows))
    art.summary("atlas", all_match)
    return PASS if all_match else FAIL


def cmd_classify(cfg, art, plots):
    points = []
    if "points" in cfg:
        rows = cfg["points"]
        if not isinstance(rows, list) or not rows:
            raise ConfigError(
                f"points must list at least one state point, got {rows!r}")
        keys = ("rho_s", "rho_b", "H_s", "H_b", "U_s", "U_b")
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                raise ConfigError(
                    f"points[{i}] must be a JSON object, got {row!r}")
            missing = [k for k in keys if k not in row]
            if missing:
                raise ConfigError(f"points[{i}] lacks {', '.join(missing)}")
            unknown = sorted(set(row) - set(keys))
            if unknown:
                raise ConfigError(
                    f"points[{i}] has unknown keys: {', '.join(unknown)}")
            try:
                point = StatePoint(**{k: row[k] for k in keys})
                if point.rho_s < point.rho_b:
                    # solved here so an unresolved window names its row
                    point.thresholds
            except (ValueError, UnresolvedWindowError) as err:
                raise ConfigError(f"points[{i}]: {err}") from None
            points.append(point)
        for point in points:
            point.require_stable()
        states = np.array([(p.rho_s, p.rho_b, p.H_s, p.H_b, p.U_s, p.U_b,
                            *p.thresholds) for p in points], dtype=float)
    else:
        samples = config_count(cfg, "samples", 200)
        if samples < 1:
            raise ConfigError(f"samples must be >= 1, got {samples}")
        states = harness.random_states(
            np.random.default_rng(art.seed), samples, 2.4)
    report = classify_arrays(*harness.state_arrays(states))
    art.write("classify.csv", lambda f: write_table(
        f, "rho_s,rho_b,H_s,H_b,U_s,U_b,regime,real_count,"
        "fr_minus,fr_plus,margin,degenerate", zip(
            *states[:, :6].T, report.regime, report.real_count.astype(str),
            report.fr_minus, report.fr_plus, report.margin,
            report.degenerate)))
    art.summary("classify", True)
    return PASS


def _run_outcome(experiment, traj, art):
    """Warnings to stderr, the summary, and the exit code of one run."""
    for w in traj.warnings:
        print(f"warning: {w}", file=sys.stderr)
    art.summary(experiment, not traj.blown_up)
    return INCONCLUSIVE if traj.blown_up else PASS


def cmd_simulate_bilayer(cfg, art, plots):
    grid = harness.grid_from_config(cfg)
    params = harness.params_from_config(cfg)
    initial = harness.initial_from_config(cfg, grid)
    cfl = config_positive(cfg, "cfl", CFL_DEFAULT)
    dt = config_positive(cfg, "dt", None)
    traj = bilayer.integrate(
        initial, params, config_real(cfg, "T", 1.0), dt=dt, cfl=cfl,
        snapshot_every=config_count(cfg, "snapshot_every", 8),
        sigma=config_real(cfg, "sigma", None))
    art.write("snapshots.csv", lambda f: bilayer.write_snapshots(traj, f))
    art.write("diagnostics.csv", lambda f: bilayer.write_diagnostics(traj, f))
    if plots:
        d = traj.diagnostics
        art.write("diagnostics.svg", harness.svg_polylines(
            [("hs_norm", d["t"], d["hs_norm"]),
             ("margin", d["t"], d["margin"])],
            "two-layer run diagnostics"), comment=False)
    return _run_outcome("simulate-bilayer", traj, art)


def cmd_simulate_stratified(cfg, art, plots):
    params, levels, _, profile, state = harness.column_setup(cfg)
    epsilon = config_real(cfg, "epsilon", None)
    if epsilon is not None:
        spec = stratified.PycnoclineSpec(params, epsilon,
                                         cfg.get("shape", "tanh"))
        profile, _ = stratified.smooth_pycnocline(spec, levels)
    kappa = config_real(cfg, "kappa", 0.1)
    cfl = config_positive(cfg, "cfl", CFL_DEFAULT)
    dt = config_positive(cfg, "dt", None)
    traj = stratified.integrate(
        state, profile, kappa, config_real(cfg, "T", 1.0), dt=dt, cfl=cfl,
        snapshot_every=config_count(cfg, "snapshot_every", 8))
    art.write("profile.csv",
              lambda f: stratified.write_profile(profile, f))
    art.write("state_final.csv",
              lambda f: stratified.write_state(traj.final, f))

    d = traj.diagnostics
    mass = np.asarray(d["mass"])
    drift = np.max(np.abs(mass - mass[0]), axis=1)
    art.write("diagnostics.csv", lambda f: write_table(
        f, "t,min_depth,norm,mass_drift",
        zip(d["t"], d["min_depth"], d["norm"], drift)))
    if plots:
        art.write("diagnostics.svg", harness.svg_polylines(
            [("norm", d["t"], d["norm"]),
             ("min_depth", d["t"], d["min_depth"])],
            "stratified run diagnostics"), comment=False)
    return _run_outcome("simulate-stratified", traj, art)


def cmd_refine(cfg, art, plots):
    # n_x stays modest by default: the substitution path differentiates
    # the large fields separately, so its rounding floor grows with the
    # top wavenumber while the closed form stays quiet
    check = harness.refined_check({"n_x": 128, **cfg})
    if check.series is None:
        return _run_outcome("refine", check.run, art)
    series = check.series
    art.write("residuals.csv",
              lambda f: refined.write_residuals(series, check.levels, f))
    if plots:
        art.write("residuals.svg", harness.svg_polylines(
            [("max_residual", series.times, series.residual_hs.max(axis=1)),
             ("bound", series.times, series.bound)],
            "refined-system residual vs bound"), comment=False)
    print(f"residual paths agree to {check.agreement:.3e} "
          f"(tolerance {check.agreement_tol:g}); bound ratio "
          f"{check.ratio:.6f}")
    art.summary("refine", check.passed)
    return PASS if check.passed else FAIL


def _run_sweep(fn, cfg, art, plots):
    result = fn(cfg)
    result.meta["seed"] = art.seed
    experiment = result.experiment
    name = experiment.replace("-", "_")
    art.write(f"{name}.csv", lambda f: harness.write_sweep_csv(result, f),
              comment=False)
    if plots:
        art.write(f"{name}.svg", harness.svg_loglog(result, experiment),
                  comment=False)
    if result.inconclusive:
        print(f"{experiment}: inconclusive ({result.detail})")
        art.summary(experiment, False, result.fit)
        return INCONCLUSIVE
    if result.fit is None:
        print(f"{experiment}: {result.detail}")
        art.summary(experiment, result.passed)
        return PASS if result.passed else FAIL
    print(f"{experiment}: slope {result.fit.slope:.4f} "
          f"+- {result.fit.interval:.4f} against "
          f"{result.expected_slope:g} +- {result.slope_tolerance:g} "
          f"-> {'pass' if result.passed else 'fail'}")
    art.summary(experiment, result.passed, result.fit)
    return PASS if result.passed else FAIL


def cmd_check_all(cfg, art, plots):
    merged = dict(cfg)
    merged["seed"] = art.seed
    report = harness.check_all(merged)

    art.write("check_all.csv", lambda f: write_table(
        f, "suite,status,detail",
        ((row["name"], row["status"], row["detail"].replace(",", ";"))
         for row in report["suites"])))
    art.write("check_all.json",
              lambda f: json.dump(report, f, indent=2, sort_keys=True),
              comment=False)
    for row in report["suites"]:
        print(f"{row['status']:5s} {row['name']:20s} {row['detail']}")
    art.summary("check-all", report["passed"])
    return PASS if report["passed"] else FAIL


COMMANDS = {
    "atlas": cmd_atlas,
    "classify": cmd_classify,
    "simulate-bilayer": cmd_simulate_bilayer,
    "simulate-stratified": cmd_simulate_stratified,
    "refine": cmd_refine,
    # the sweeps are looked up when called, so a wrapped or patched
    # harness function is the one that runs
    "sweep-kappa": lambda *args: _run_sweep(harness.sweep_kappa, *args),
    "sweep-epsilon": lambda *args: _run_sweep(harness.sweep_epsilon, *args),
    "check-all": cmd_check_all,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pycnolab",
        description="numerical experiments for layered and continuously "
                    "stratified shallow-water flows")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="JSON config file (defaults used when omitted)")
        p.add_argument("--out", default="out",
                       help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--plots", action="store_true",
                       help="also write SVG plots")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.command)
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        seed = config_count(cfg, "seed", 0) if args.seed is None else args.seed
        art = Artifacts(args.out, seed)
        return COMMANDS[args.command](cfg, art, args.plots)
    except BlowUpError as err:
        print(f"blow-up: {err}", file=sys.stderr)
        art.summary(args.command, False)
        return INCONCLUSIVE
    except (ConfigError, KeyError, TypeError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
