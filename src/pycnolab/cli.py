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
from .core import BlowUpError, LevelGrid, SpatialGrid, csv_cell
from .hyperbolicity import StatePoint, atlas, classify, \
    count_line_intersections

PASS = 0
FAIL = 1
CONFIG_ERROR = 2
INCONCLUSIVE = 3


class ConfigError(ValueError):
    pass


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
        data = harness.summary_dict(experiment, self.seed, passed, fit,
                                    self.files)
        name = experiment.replace("-", "_") + "_summary.json"
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            harness.write_summary(data, f)
        return data


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_atlas(cfg, art, plots):
    h_ratio = float(cfg.get("h_ratio", 0.5))
    rho_ratios = [float(r) for r in cfg.get("rho_ratios", [0.1, 0.5, 0.9])]
    intercepts = [float(c) for c in cfg.get("intercepts", [0.5, 1.5, 2.5])]
    n_samples = int(cfg.get("n_samples", 2001))

    rows = []
    all_match = True
    for rr in rho_ratios:
        curves = atlas(h_ratio, rr, intercepts, n_samples=n_samples)

        def curve_csv(f, curves=curves):
            f.write("branch,p_s,p_b\n")
            for name, ps, pb in curves.branches + curves.lines:
                for a, b in zip(ps, pb):
                    f.write(f"{name},{csv_cell(a)},{csv_cell(b)}\n")

        art.write(f"atlas_curves_rr{rr:g}.csv", curve_csv)
        if plots:
            art.write(f"atlas_rr{rr:g}.svg", harness.svg_polylines(
                [(n, ps, pb) for n, ps, pb in curves.branches + curves.lines],
                f"slowness curves, rho ratio {rr:g}"), comment=False)
        for c in intercepts:
            crossings = count_line_intersections(curves, c)
            point = StatePoint(rho_s=rr, rho_b=1.0, H_s=h_ratio, H_b=1.0,
                               U_s=0.0, U_b=c)
            report = classify(point)
            match = crossings == report.real_count
            all_match = all_match and match
            rows.append((rr, c, crossings, report.real_count, match))

    def counts_csv(f):
        f.write("rho_ratio,intercept,crossings,classifier,match\n")
        for rr, c, n_geo, n_alg, match in rows:
            f.write(f"{csv_cell(rr)},{csv_cell(c)},{n_geo},{n_alg},"
                    f"{str(match).lower()}\n")

    art.write("atlas_counts.csv", counts_csv)
    art.summary("atlas", all_match)
    return PASS if all_match else FAIL


def cmd_classify(cfg, art, plots):
    rng = np.random.default_rng(art.seed)
    points = []
    if "points" in cfg:
        for row in cfg["points"]:
            points.append(StatePoint(
                rho_s=row["rho_s"], rho_b=row["rho_b"], H_s=row["H_s"],
                H_b=row["H_b"], U_s=row["U_s"], U_b=row["U_b"]))
    else:
        for _ in range(int(cfg.get("samples", 200))):
            points.append(harness.random_state_point(rng, rng.uniform(0.0, 2.4)))

    def table_csv(f):
        f.write("rho_s,rho_b,H_s,H_b,U_s,U_b,regime,real_count,"
                "fr_minus,fr_plus,margin,degenerate\n")
        for p in points:
            rep = classify(p)
            cells = [csv_cell(v) for v in
                     (p.rho_s, p.rho_b, p.H_s, p.H_b, p.U_s, p.U_b)]
            cells += [rep.regime, str(rep.real_count), csv_cell(rep.fr_minus),
                      csv_cell(rep.fr_plus), csv_cell(rep.margin),
                      str(rep.degenerate).lower()]
            f.write(",".join(cells) + "\n")

    art.write("classify.csv", table_csv)
    art.summary("classify", True)
    return PASS


def cmd_simulate_bilayer(cfg, art, plots):
    grid = SpatialGrid(int(cfg.get("n_x", 256)),
                       float(cfg.get("length", 2.0 * np.pi)))
    params = harness.params_from_config(cfg)
    initial = harness.initial_from_config(cfg, grid)
    cfl = float(cfg.get("cfl", 0.4))
    dt = cfg.get("dt")
    if dt is None:
        # headroom: the limit tightens when the state steepens
        dt = 0.9 * bilayer.cfl_limit(initial, params, cfl)
    traj = bilayer.integrate(
        initial, params, float(cfg.get("T", 1.0)), dt=dt, cfl=cfl,
        snapshot_every=int(cfg.get("snapshot_every", 8)),
        sigma=cfg.get("sigma"))
    art.write("snapshots.csv", lambda f: bilayer.write_snapshots(traj, f))
    art.write("diagnostics.csv", lambda f: bilayer.write_diagnostics(traj, f))
    if plots:
        d = traj.diagnostics
        art.write("diagnostics.svg", harness.svg_polylines(
            [("hs_norm", d["t"], d["hs_norm"]),
             ("margin", d["t"], d["margin"])],
            "two-layer run diagnostics"), comment=False)
    for w in traj.warnings:
        print(f"warning: {w}", file=sys.stderr)
    art.summary("simulate-bilayer", not traj.blown_up)
    return INCONCLUSIVE if traj.blown_up else PASS


def _stratified_setup(cfg):
    grid = SpatialGrid(int(cfg.get("n_x", 256)),
                       float(cfg.get("length", 2.0 * np.pi)))
    params = harness.params_from_config(cfg)
    levels = LevelGrid.with_interface(
        int(cfg.get("n_r", 64)), -params.Hbar_s,
        cluster=float(cfg.get("cluster", 6.0)))
    bi_initial = harness.initial_from_config(cfg, grid)
    _, state = stratified.embed_bilayer(bi_initial, params, levels)
    return grid, params, levels, bi_initial, state


def _target_profile(cfg, params, levels):
    epsilon = cfg.get("epsilon")
    if epsilon is None:
        # sharp two-layer column
        profile, _ = stratified.embed_bilayer(
            bilayer.make_initial(SpatialGrid(8), kind="zero"), params,
            levels)
        return profile, {"rho": 0.0, "ubar": 0.0}
    spec = stratified.PycnoclineSpec(params, float(epsilon),
                                     cfg.get("shape", "tanh"))
    return stratified.smooth_pycnocline(spec, levels)


def cmd_simulate_stratified(cfg, art, plots):
    grid, params, levels, _, state = _stratified_setup(cfg)
    profile, _ = _target_profile(cfg, params, levels)
    kappa = float(cfg.get("kappa", 0.1))
    cfl = float(cfg.get("cfl", 0.4))
    dt = cfg.get("dt")
    if dt is None:
        dt = 0.9 * stratified.cfl_limit(state, profile, kappa, cfl)
    traj = stratified.integrate(
        state, profile, kappa, float(cfg.get("T", 1.0)), dt=dt, cfl=cfl,
        snapshot_every=int(cfg.get("snapshot_every", 8)))
    art.write("profile.csv",
              lambda f: stratified.write_profile(profile, f))
    art.write("state_final.csv",
              lambda f: stratified.write_state(traj.final, f))

    d = traj.diagnostics
    mass = np.asarray(d["mass"])
    drift = np.max(np.abs(mass - mass[0]), axis=1)

    def diag_csv(f):
        f.write("t,min_depth,norm,mass_drift\n")
        for i in range(len(d["t"])):
            f.write(f"{csv_cell(d['t'][i])},{csv_cell(d['min_depth'][i])},"
                    f"{csv_cell(d['norm'][i])},{csv_cell(drift[i])}\n")

    art.write("diagnostics.csv", diag_csv)
    if plots:
        art.write("diagnostics.svg", harness.svg_polylines(
            [("norm", d["t"], d["norm"]),
             ("min_depth", d["t"], d["min_depth"])],
            "stratified run diagnostics"), comment=False)
    for w in traj.warnings:
        print(f"warning: {w}", file=sys.stderr)
    art.summary("simulate-stratified", not traj.blown_up)
    return INCONCLUSIVE if traj.blown_up else PASS


def cmd_refine(cfg, art, plots):
    # n_x stays modest by default: the substitution path differentiates
    # the large fields separately, so its rounding floor grows with the
    # top wavenumber while the closed form stays quiet
    cfg = dict(cfg)
    cfg.setdefault("n_x", 128)
    grid, params, levels, _, state = _stratified_setup(cfg)
    kappa = float(cfg.get("kappa", 0.1))
    T = float(cfg.get("T", 0.3))
    spec = stratified.PycnoclineSpec(params, float(cfg.get("epsilon", 0.02)),
                                     cfg.get("shape", "tanh"))
    target, _ = stratified.smooth_pycnocline(spec, levels)

    sharp, _ = stratified.embed_bilayer(
        harness.initial_from_config(cfg, grid), params, levels)
    dt = cfg.get("dt")
    if dt is None:
        dt = stratified.cfl_limit(state, sharp, kappa) / 2.0
    reference = stratified.integrate(state, sharp, kappa, T, dt=dt,
                                     snapshot_every=1)
    if reference.blown_up:
        art.summary("refine", False)
        return INCONCLUSIVE
    forcing = refined.build_forcing(reference, target)
    run = refined.solve_refined(state, target, forcing, kappa, T, dt=dt)
    if run.blown_up:
        art.summary("refine", False)
        return INCONCLUSIVE

    series = refined.consistency_residual(run, s=float(cfg.get("s", 2.0)))
    agreement = float(np.max(series.agreement))
    ratio = float(np.max(series.ratio))
    agree_tol = float(cfg.get("agreement_tol", 1e-10))
    ratio_tol = 1.0 + float(cfg.get("ratio_slack", 1e-9))
    passed = agreement <= agree_tol and ratio <= ratio_tol

    art.write("residuals.csv",
              lambda f: refined.write_residuals(series, levels, f))
    if plots:
        art.write("residuals.svg", harness.svg_polylines(
            [("max_residual", series.times, series.residual_hs.max(axis=1)),
             ("bound", series.times, series.bound)],
            "refined-system residual vs bound"), comment=False)
    print(f"residual paths agree to {agreement:.3e} "
          f"(tolerance {agree_tol:g}); bound ratio {ratio:.6f}")
    art.summary("refine", passed)
    return PASS if passed else FAIL


def _run_sweep(experiment, fn, cfg, art, plots):
    defaults = {
        "sweep-kappa": {
            "kappas": [1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2],
            "T": 0.5, "expected_slope": 1.0, "slope_tolerance": 0.1},
        "sweep-epsilon": {
            "epsilons": [8e-4, 2.53e-3, 8e-3, 2.53e-2, 8e-2],
            "T": 0.5, "kappa": 0.1, "expected_slope": 1.0,
            "slope_tolerance": 0.2},
    }[experiment]
    merged = dict(defaults)
    merged.update(cfg)
    result = fn(merged)
    result.meta["seed"] = art.seed
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


def cmd_sweep_kappa(cfg, art, plots):
    return _run_sweep("sweep-kappa", harness.sweep_kappa, cfg, art, plots)


def cmd_sweep_epsilon(cfg, art, plots):
    return _run_sweep("sweep-epsilon", harness.sweep_epsilon, cfg, art,
                      plots)


def cmd_check_all(cfg, art, plots):
    merged = dict(cfg)
    merged["seed"] = art.seed
    report = harness.check_all(merged)

    def table_csv(f):
        f.write("suite,status,detail\n")
        for row in report["suites"]:
            detail = row["detail"].replace(",", ";")
            f.write(f"{row['name']},{row['status']},{detail}\n")

    art.write("check_all.csv", table_csv)
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
    "sweep-kappa": cmd_sweep_kappa,
    "sweep-epsilon": cmd_sweep_epsilon,
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
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        art = Artifacts(args.out, seed)
        return COMMANDS[args.command](cfg, art, args.plots)
    except BlowUpError as err:
        print(f"blow-up: {err}", file=sys.stderr)
        return INCONCLUSIVE
    except (ConfigError, KeyError, TypeError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
