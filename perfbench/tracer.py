"""Per-module spans for one traced cli.main call, recorded from outside.

TARGETS names each traced public function as (label, module, attribute
path). `Tracer.install` replaces every binding of each target inside the
loaded pycnolab modules (re-exports such as `bilayer.critical_froude`, or
the names `refined` imports from `stratified`, included) with a timing
wrapper, and `Tracer.remove` puts the originals back. A target that no
longer exists is reported as absent instead of stopping the run.

Each call becomes one span (label, parent span, start, duration) held in
flat in-memory arrays until `write_spans`. A span's self time is its
duration minus the time covered by its direct child spans.
"""

import functools
import importlib
import os
import sys
from array import array
from time import perf_counter

TARGETS = (
    ("core.derivative", "core", "SpatialGrid.derivative"),
    ("core.dealias", "core", "SpatialGrid.dealias"),
    ("core.sobolev_norms", "core", "SpatialGrid.sobolev_norms_rows"),
    ("core.sobolev_norm", "core", "SpatialGrid.sobolev_norm_values"),
    ("hyperbolicity.critical_froude", "hyperbolicity", "critical_froude"),
    ("hyperbolicity.classify", "hyperbolicity", "classify"),
    ("hyperbolicity.symmetrizer", "hyperbolicity", "symmetrizer"),
    ("hyperbolicity.in_hyperbolic_set", "hyperbolicity", "in_hyperbolic_set"),
    ("bilayer.integrate", "bilayer", "integrate"),
    ("bilayer.step", "bilayer", "step"),
    ("bilayer.cfl_limit", "bilayer", "cfl_limit"),
    ("bilayer.pointwise_margin", "bilayer", "pointwise_margin"),
    ("bilayer.combined_norm", "bilayer", "combined_norm"),
    ("bilayer.bd_residual", "bilayer", "bd_residual"),
    ("stratified.integrate", "stratified", "integrate"),
    ("stratified.step", "stratified", "step"),
    ("stratified.cfl_limit", "stratified", "cfl_limit"),
    ("stratified.pressure_matrix", "stratified", "pressure_matrix"),
    ("stratified.state_norm", "stratified", "state_norm"),
    ("refined.solve_refined", "refined", "solve_refined"),
    ("refined.ReferenceRun.forcing", "refined", "ReferenceRun.forcing"),
    ("refined.consistency_residual", "refined", "consistency_residual"),
    ("harness.sweep_epsilon", "harness", "sweep_epsilon"),
    ("harness.sweep_kappa", "harness", "sweep_kappa"),
    ("harness.check_all", "harness", "check_all"),
    ("cli.main", "cli", "main"),
    ("cli.Artifacts.write", "cli", "Artifacts.write"),
)

# complex FFTs each call makes along the last axis of its array argument
FFTS_PER_CALL = {
    "core.derivative": 2,
    "core.dealias": 2,
    "core.sobolev_norms": 1,
    "core.sobolev_norm": 1,
}

# the time-stepping loops whose trajectories report n_steps
STEP_COUNTERS = {
    "bilayer.integrate": "bilayer.step",
    "stratified.integrate": "stratified.step",
}

PACKAGE = "pycnolab"


def _resolve(module, path):
    """(owner, name, original) for a target, or None when it is gone."""
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(name) if isinstance(owner, type) \
        else getattr(owner, name, None)
    if not callable(original):
        return None
    return owner, name, original


class Tracer:
    """Wraps the targets, counts calls and keeps every span in memory."""

    def __init__(self):
        self.labels = [label for label, _, _ in TARGETS]
        n = len(self.labels)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.absent = []
        self.fft_rows = 0
        self.fft_bytes = 0
        self.bytes_written = 0
        self.n_steps = {label: 0 for label in STEP_COUNTERS}
        self.span_label = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_duration = array("d")
        self._stack = []
        self._patches = []
        self._origin = perf_counter()

    # -- wrappers ------------------------------------------------------

    def _after(self, label, args, result):
        if label in FFTS_PER_CALL:
            shape = getattr(args[1], "shape", None) or (len(args[1]),)
            rows = FFTS_PER_CALL[label]
            for extent in shape[:-1]:
                rows *= extent
            self.fft_rows += rows
            self.fft_bytes += 16 * rows * shape[-1]
        elif label == "cli.Artifacts.write":
            self.bytes_written += os.path.getsize(result)
        elif label in STEP_COUNTERS:
            self.n_steps[label] += result.n_steps

    def _wrap(self, idx, fn):
        label = self.labels[idx]
        hooked = label in FFTS_PER_CALL or label in STEP_COUNTERS \
            or label == "cli.Artifacts.write"
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.span_label)
            tracer.span_label.append(idx)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_start.append(0.0)
            tracer.span_duration.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                tracer.span_start[sid] = t0 - tracer._origin
                tracer.span_duration[sid] = duration
                tracer.self_s[idx] += duration - frame[1]
                tracer.calls[idx] += 1
            if hooked:
                tracer._after(label, args, result)
            return result

        return traced

    # -- patching ------------------------------------------------------

    def install(self):
        """Patch every binding of every target; record the absent ones."""
        importlib.import_module(f"{PACKAGE}.cli")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for idx, (label, module, path) in enumerate(TARGETS):
            found = _resolve(module, path)
            if found is None:
                self.absent.append(label)
                continue
            owner, name, original = found
            wrapper = self._wrap(idx, original)
            if isinstance(owner, type):
                self._patch(owner, name, original, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def step_check(self):
        """Compare traced step calls with the trajectories' own n_steps.

        Returns a list of (step label, traced calls, summed n_steps) and a
        list of mismatch messages; a pair with an absent side is skipped.
        """
        rows, mismatches = [], []
        for counter, step in STEP_COUNTERS.items():
            if counter in self.absent or step in self.absent:
                continue
            calls = self.calls[self.labels.index(step)]
            want = self.n_steps[counter]
            rows.append((step, calls, want))
            if calls != want:
                mismatches.append(
                    f"{step} ran {calls} times but the trajectories of "
                    f"{counter} report {want} steps")
        return rows, mismatches

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}; absent ones read 0."""
        out = {}
        for idx, label in enumerate(self.labels):
            out[f"{label}.calls"] = (self.calls[idx], "count")
            out[f"{label}.self_s"] = (self.self_s[idx], "s")
        out["core.fft_rows"] = (self.fft_rows, "count")
        out["core.fft_bytes"] = (self.fft_bytes, "B")
        out["cli.Artifacts.write.bytes"] = (self.bytes_written, "B")
        for counter, total in self.n_steps.items():
            out[f"{counter}.n_steps"] = (total, "count")
        return out

    def write_spans(self, path):
        """One CSV row per span: id, parent id, label, start and duration."""
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("span,parent,label,start_s,duration_s\n")
            for sid in range(len(self.span_label)):
                f.write(f"{sid},{self.span_parent[sid]},"
                        f"{self.labels[self.span_label[sid]]},"
                        f"{self.span_start[sid]:.9f},"
                        f"{self.span_duration[sid]:.9f}\n")
