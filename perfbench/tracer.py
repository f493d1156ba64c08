"""Span tracer for the traced benchmark run.

The tracer wraps public functions and methods of ``gcp_hydro`` where their
callers look them up: module globals (replaced in every ``gcp_hydro`` module
that holds the same object, so ``experiments.integrate`` and
``hydro.integrate`` record alike) and class attributes.  Nothing inside
the package changes.  Each call records a span ``[name, start, end,
parent]`` kept in memory until the run ends; a span's self time is its
duration minus its children's, and a layer's self time is the sum over its
spans.  Counts come from public attributes of the objects the calls take or
return.

A target that no longer exists is reported as absent and the metrics that
read it as absent too; the traced run goes on without it.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute path, span name); the span's layer is its first word
TARGETS = (
    ("gcp_hydro.experiments", "run", "experiments.run"),
    ("gcp_hydro.lattice", "discretize", "lattice.discretize"),
    ("gcp_hydro.lattice", "DiscreteKernel.conv", "lattice.conv"),
    ("gcp_hydro.lattice", "DiscreteKernel.conv_adjoint", "lattice.conv_adjoint"),
    ("gcp_hydro.lattice", "DiscreteKernel.col", "lattice.col"),
    ("gcp_hydro.hydro", "integrate", "hydro.integrate"),
    ("gcp_hydro.hydro", "backward_fp", "hydro.backward"),
    ("gcp_hydro.hydro", "convergence_study", "hydro.convergence_study"),
    ("gcp_hydro.gcp", "replica_rng", "gcp.replica_rng"),
    ("gcp_hydro.gcp", "sample_initial", "gcp.sample_initial"),
    ("gcp_hydro.gcp", "Simulation.__init__", "gcp.sim_init"),
    ("gcp_hydro.gcp", "Simulation.simulate_until", "gcp.simulate"),
    ("gcp_hydro.fields", "TestFunction.values_on", "fields.values_on"),
    ("gcp_hydro.fields", "centered_field", "fields.centered_field"),
    ("gcp_hydro.fields", "lln_error", "fields.lln_error"),
    ("gcp_hydro.fields", "fluctuation", "fields.fluctuation"),
    ("gcp_hydro.stats", "predicted_variance_mild", "stats.predicted_variance"),
    ("gcp_hydro.stats", "normality_diagnostics", "stats.normality_diagnostics"),
    ("gcp_hydro.stats", "rate_fit", "stats.rate_fit"),
    ("gcp_hydro.entropy", "entropy_production_check", "entropy.production_check"),
    ("gcp_hydro.entropy", "StateSpace.__init__", "entropy.state_space"),
    ("gcp_hydro.entropy", "master_evolve", "entropy.master_evolve"),
    ("gcp_hydro.entropy", "MasterOperator.apply", "entropy.master_apply"),
    ("gcp_hydro.entropy", "F_closed_all", "entropy.production"),
    ("gcp_hydro.entropy", "relative_entropy", "entropy.relative_entropy"),
    ("gcp_hydro.io_utils", "write_csv", "io.write_csv"),
    ("gcp_hydro.io_utils", "write_json", "io.write_json"),
)

LAYERS = ("lattice", "hydro", "gcp", "fields", "stats", "entropy", "io", "experiments")


def _stored_bytes(obj):
    """Bytes of the arrays an object keeps as attributes (computed, not measured)."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


# Count hooks: span name -> (before(args), after(tracer, args, result, before)).
# They run outside the span, so their cost lands in the caller's self time.
_HOOKS = {
    "lattice.discretize": (None, lambda t, a, r, b: t.count("kernel_bytes", _stored_bytes(r))),
    "hydro.integrate": (None, lambda t, a, r, b: (
        t.count("rk4_steps", len(r.times) - 1),
        t.count("renormalizations", r.renormalizations))),
    "hydro.backward": (None, lambda t, a, r, b: t.count("backward_steps", len(r.times) - 1)),
    "gcp.simulate": (lambda a: a[0].events, lambda t, a, r, b: (
        t.count("events", a[0].events - b),
        t.count("absorbed", int(bool(a[0].absorbed))))),
    "entropy.state_space": (None, lambda t, a, r, b: t.count("states", a[0].size)),
}


class Tracer:
    """Records spans around the TARGETS while installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.absent = []         # targets that could not be found
        self._stack = []
        self._restore = []

    def count(self, key, value):
        self.counts[key] += value

    def _wrap(self, name, fn):
        before, after = _HOOKS.get(name, (None, None))
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(args) if before is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, result, pre)
            return result

        return traced

    def install(self):
        for module_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if outer:
                holders = [owner]
            else:
                holders = [m for key, m in list(sys.modules.items())
                           if key.split(".")[0] == "gcp_hydro"
                           and vars(m).get(attr) is original]
            for holder in holders:
                self._restore.append((holder, attr, vars(holder)[attr]))
                setattr(holder, attr, wrapper)
        return self

    def uninstall(self):
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    def self_times(self):
        """(self seconds per span, largest amount by which children overran a parent)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own = [end - start - c for (_, start, end, _), c in zip(self.spans, child)]
        overrun = max([0.0] + [-x for x in own])
        return own, overrun

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("index", "name", "start_s", "end_s", "parent"))
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.writerow((i, name, repr(start - t0), repr(end - t0), parent))

    def summary(self):
        """Calls and total seconds per span name, self seconds per layer."""
        own, overrun = self.self_times()
        calls, total, layer_self = Counter(), Counter(), Counter()
        for (name, start, end, _), s in zip(self.spans, own):
            calls[name] += 1
            total[name] += end - start
            layer_self[name.split(".")[0]] += s
        return {"calls": calls, "total": total,
                "layer_self": layer_self, "overrun_s": overrun,
                "root_s": sum(end - start for _, start, end, p in self.spans if p < 0)}


def _per(num, den, scale=1.0):
    return num / den * scale if den else 0.0


# metric -> (span names it reads, value from the summary s and counts c)
LAYER_METRICS = {
    "lattice.discretize_s": (("lattice.discretize",), lambda s, c: s["total"]["lattice.discretize"]),
    "lattice.kernel_bytes": (("lattice.discretize",), lambda s, c: c["kernel_bytes"]),
    "lattice.conv_calls": (("lattice.conv", "lattice.conv_adjoint"), lambda s, c: (
        s["calls"]["lattice.conv"] + s["calls"]["lattice.conv_adjoint"])),
    "lattice.conv_us": (("lattice.conv", "lattice.conv_adjoint"), lambda s, c: _per(
        s["total"]["lattice.conv"] + s["total"]["lattice.conv_adjoint"],
        s["calls"]["lattice.conv"] + s["calls"]["lattice.conv_adjoint"], 1e6)),
    "lattice.col_calls": (("lattice.col",), lambda s, c: s["calls"]["lattice.col"]),
    "lattice.col_us": (("lattice.col",), lambda s, c: _per(
        s["total"]["lattice.col"], s["calls"]["lattice.col"], 1e6)),
    "hydro.integrate_s": (("hydro.integrate",), lambda s, c: s["total"]["hydro.integrate"]),
    "hydro.rk4_steps": (("hydro.integrate",), lambda s, c: c["rk4_steps"]),
    "hydro.rk4_step_ms": (("hydro.integrate",), lambda s, c: _per(
        s["total"]["hydro.integrate"], c["rk4_steps"], 1e3)),
    "hydro.backward_s": (("hydro.backward",), lambda s, c: s["total"]["hydro.backward"]),
    "hydro.backward_steps": (("hydro.backward",), lambda s, c: c["backward_steps"]),
    "hydro.backward_step_ms": (("hydro.backward",), lambda s, c: _per(
        s["total"]["hydro.backward"], c["backward_steps"], 1e3)),
    "hydro.renormalizations": (("hydro.integrate",), lambda s, c: c["renormalizations"]),
    "gcp.replicas": (("gcp.simulate",), lambda s, c: s["calls"]["gcp.simulate"]),
    "gcp.replica_rng_us": (("gcp.replica_rng",), lambda s, c: _per(
        s["total"]["gcp.replica_rng"], s["calls"]["gcp.replica_rng"], 1e6)),
    "gcp.sample_initial_us": (("gcp.sample_initial",), lambda s, c: _per(
        s["total"]["gcp.sample_initial"], s["calls"]["gcp.sample_initial"], 1e6)),
    "gcp.sim_init_us": (("gcp.sim_init",), lambda s, c: _per(
        s["total"]["gcp.sim_init"], s["calls"]["gcp.sim_init"], 1e6)),
    "gcp.simulate_s": (("gcp.simulate",), lambda s, c: s["total"]["gcp.simulate"]),
    "gcp.events": (("gcp.simulate",), lambda s, c: c["events"]),
    "gcp.events_per_replica": (("gcp.simulate",), lambda s, c: _per(
        c["events"], s["calls"]["gcp.simulate"])),
    "gcp.event_us": (("gcp.simulate",), lambda s, c: _per(
        s["total"]["gcp.simulate"], c["events"], 1e6)),
    "gcp.toggle_share": (("gcp.simulate", "lattice.col"), lambda s, c: _per(
        s["calls"]["lattice.col"], c["events"])),
    "gcp.absorbed_share": (("gcp.simulate",), lambda s, c: _per(
        c["absorbed"], s["calls"]["gcp.simulate"])),
    "fields.values_on_calls": (("fields.values_on",), lambda s, c: s["calls"]["fields.values_on"]),
    "fields.values_on_us": (("fields.values_on",), lambda s, c: _per(
        s["total"]["fields.values_on"], s["calls"]["fields.values_on"], 1e6)),
    "fields.pairing_us": (("fields.centered_field", "fields.lln_error", "fields.fluctuation",
                           "gcp.simulate"), lambda s, c: _per(
        s["total"]["fields.centered_field"] + s["total"]["fields.lln_error"]
        + s["total"]["fields.fluctuation"], s["calls"]["gcp.simulate"], 1e6)),
    "stats.predicted_variance_s": (("stats.predicted_variance",),
                                   lambda s, c: s["total"]["stats.predicted_variance"]),
    "entropy.states": (("entropy.state_space",), lambda s, c: c["states"]),
    "entropy.master_apply_calls": (("entropy.master_apply",),
                                   lambda s, c: s["calls"]["entropy.master_apply"]),
    "entropy.master_apply_us": (("entropy.master_apply",), lambda s, c: _per(
        s["total"]["entropy.master_apply"], s["calls"]["entropy.master_apply"], 1e6)),
    "entropy.master_evolve_s": (("entropy.master_evolve",),
                                lambda s, c: s["total"]["entropy.master_evolve"]),
    "entropy.production_s": (("entropy.production",), lambda s, c: s["total"]["entropy.production"]),
    "entropy.relative_entropy_s": (("entropy.relative_entropy",),
                                   lambda s, c: s["total"]["entropy.relative_entropy"]),
    "io.write_s": (("io.write_csv", "io.write_json"), lambda s, c: (
        s["total"]["io.write_csv"] + s["total"]["io.write_json"])),
}
# A layer's self time is defined whichever of its targets exist: the time of
# an absent one lands in its caller's layer.  io spans have no children, so
# io.write_s is already the io layer's self time.
for _layer in (layer for layer in LAYERS if layer != "io"):
    LAYER_METRICS[f"{_layer}.self_s"] = ((), lambda s, c, _layer=_layer: s["layer_self"][_layer])


def layer_metrics(tracer):
    """(metric values, names of metrics that read an absent target)."""
    s = tracer.summary()
    values = {name: float(fn(s, tracer.counts)) for name, (_, fn) in LAYER_METRICS.items()}
    absent = sorted(name for name, (reads, _) in LAYER_METRICS.items()
                    if any(r in tracer.absent for r in reads))
    return values, absent, s
