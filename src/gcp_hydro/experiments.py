"""Named experiments: config handling, deterministic replica scheduling, and
CSV/JSON emission for the verification harness.

Each experiment validates its config, runs the owning modules, writes its
CSV payload plus a JSON sidecar atomically, and reports pass/fail against
its declared thresholds.  Replica randomness is a pure function of
(master seed, replica key), so scheduling order and worker count never
change the aggregated output.
"""

from __future__ import annotations

import copy
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import __version__
from .concentration import (centered_indicator, check_hanson_wright,
                            check_hoeffding, check_psi2_additivity, check_quad,
                            rademacher)
from .entropy import (STATE_CAP, StateSpace, entropy_production_check,
                      profile_law)
from .fields import TestFunction, carre_du_champ, centered_field, fluctuation, lln_error
from .gcp import SpinConfig, Simulation, replica_rng, sample_initial
from .hydro import ModelParams, convergence_study, integrate, profile_field
from .io_utils import config_hash, write_csv, write_json
from .lattice import KernelSpec, TorusLattice, discretize
from .profiles import InitialProfile
from .stats import (gamma_field, normality_diagnostics, predicted_initial_cov,
                    predicted_variance_mild, rate_fit)

SCHEMA_VERSION = 1

HEADERS = {
    "convergence": ("n", "sup_error"),
    "lln": ("n", "f", "state", "replicas", "mean_sq_error", "se"),
    "clt_detail": ("replica", "t", "state", "f", "lln_error", "fluctuation"),
    "qv": ("t", "f", "i", "j", "enumerated_mean", "gamma_weighted_sum", "abs_diff"),
    "init_cov": ("f", "g", "i", "j", "empirical", "predicted", "se", "within_4se"),
    "entropy": ("t", "entropy", "production_rhs", "envelope"),
    "concentration": ("check", "parameter", "empirical", "bound", "slack", "passed"),
}

DEFAULTS = {
    "hydro-converge": {
        "d": 1, "k": 2, "a": 1.0,
        "kernel": {"name": "cosine", "beta": 0.5},
        "profile": {"name": "cosine-simplex", "base": [0.4, 0.35, 0.25],
                    "delta": [0.1, -0.04, -0.06], "mode": 1},
        "n_list": [16, 32, 64, 128], "n_ref": 512,
        "times": [1.0], "h": 0.01, "replicas": 1, "seed": 20260810,
        "slope_tol": 0.3,
    },
    "lln-rate": {
        "d": 1, "k": 2, "a": 1.0,
        "kernel": {"name": "cosine", "beta": 0.5},
        "profile": {"name": "cosine-simplex", "base": [0.4, 0.35, 0.25],
                    "delta": [0.1, -0.04, -0.06], "mode": 1},
        "n_list": [64, 128, 256, 512], "times": [1.0], "replicas": 200,
        "functions": [{"name": "constant"}, {"name": "cos", "mode": 1}],
        "state": 2, "h": 0.01, "seed": 20260810,
        "slope_tol": 0.25,
    },
    "clt-check": {
        "d": 1, "k": 1, "a": 1.0,
        "kernel": {"name": "cosine", "beta": 0.5},
        "profile": {"name": "cosine-simplex", "base": [0.55, 0.45],
                    "delta": [-0.1, 0.1], "mode": 1},
        "n_list": [256], "times": [0.5], "replicas": 2000,
        "functions": [{"name": "constant"}], "state": 1, "h": 0.01,
        "seed": 20260810, "skew_limit": 0.2, "kurt_limit": 0.3,
    },
    "qv-check": {
        "d": 1, "k": 1, "a": 1.5,
        "kernel": {"name": "constant", "c": 1.0},
        "profile": {"name": "cosine-simplex", "base": [0.4, 0.6],
                    "delta": [0.1, -0.1], "mode": 1},
        "n_list": [4], "times": [0.0, 0.5], "replicas": 1, "h": 0.01,
        "functions": [{"name": "constant"}, {"name": "cos", "mode": 1}],
        "seed": 20260810, "tolerance": 1e-10,
    },
    "init-cov": {
        "d": 1, "k": 2, "a": 1.0,
        "kernel": {"name": "constant", "c": 1.0},
        "profile": {"name": "cosine-simplex", "base": [0.4, 0.35, 0.25],
                    "delta": [0.1, -0.04, -0.06], "mode": 1},
        "n_list": [256], "times": [0.0], "replicas": 5000,
        "functions": [{"name": "constant"}, {"name": "cos", "mode": 1},
                      {"name": "sin", "mode": 1}],
        "seed": 20260810,
    },
    "entropy-exact": {
        "d": 1, "k": 1, "a": 1.0,
        "kernel": {"name": "constant", "c": 1.0},
        "profile": {"name": "constant", "values": [0.5, 0.5]},
        "n_list": [4], "times": [1.0], "replicas": 1, "h": 0.01,
        "seed": 20260810,
    },
    "concentration": {
        "d": 1, "k": 1, "a": 1.0,
        "kernel": {"name": "constant", "c": 1.0},
        "profile": {"name": "constant", "values": [0.5, 0.5]},
        "n_list": [8], "times": [0.0], "replicas": 20000, "seed": 20260810,
        "matrix_size": 8,
    },
}

MC_EXPERIMENTS = ("lln-rate", "clt-check", "init-cov", "concentration")


class ConfigError(Exception):
    """Invalid experiment configuration; carries the list of violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class RunResult:
    experiment: str
    passed: object            # bool, or None for experiments without thresholds
    csv_paths: list
    sidecar_path: str
    summary: dict = field(default_factory=dict)


def _deep_update(base, extra):
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], val)
        else:
            base[key] = val
    return base


def load_config(experiment, path=None, overrides=()):
    """Merge experiment defaults, an optional YAML file, and key=value overrides."""
    if experiment not in DEFAULTS:
        raise ConfigError([f"experiment: unknown experiment {experiment!r}"])
    cfg = copy.deepcopy(DEFAULTS[experiment])
    cfg["experiment"] = experiment
    if path is not None:
        with open(path) as fh:
            loaded = yaml.safe_load(fh) or {}
        if not isinstance(loaded, dict):
            raise ConfigError(["config: file must hold a mapping"])
        loaded.pop("experiment", None)
        _deep_update(cfg, loaded)
    for item in overrides:
        if "=" not in item:
            raise ConfigError([f"set: override {item!r} is not key=value"])
        key, _, raw = item.partition("=")
        node = cfg
        parts = key.strip().split(".")
        for part in parts[:-1]:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = yaml.safe_load(raw)
    if os.environ.get("GCP_HYDRO_SEED"):
        cfg["seed"] = int(os.environ["GCP_HYDRO_SEED"])
    return cfg


def validate(cfg) -> list:
    """All config violations at once, each naming the offending field."""
    v = []
    name = cfg.get("experiment")
    if name not in DEFAULTS:
        return [f"experiment: unknown experiment {name!r}"]
    if not isinstance(cfg.get("d"), int) or cfg["d"] < 1:
        v.append("d: spatial dimension must be a positive integer")
    if not isinstance(cfg.get("k"), int) or cfg["k"] < 1:
        v.append("k: threshold state must be an integer >= 1")
    if not isinstance(cfg.get("a"), (int, float)) or cfg["a"] <= 0:
        v.append("a: recovery rate must be > 0")
    spec = None
    try:
        spec = KernelSpec.from_config(cfg.get("kernel", {}), d=cfg.get("d", 1))
    except Exception as exc:
        v.append(f"kernel: {exc}")
    profile = None
    try:
        profile = InitialProfile.from_config(cfg.get("profile", {}))
    except Exception as exc:
        v.append(f"profile: {exc}")
    if profile is not None:
        if profile.k != cfg.get("k"):
            v.append(f"profile: profile has k={profile.k}, config has k={cfg.get('k')}")
        if profile.interior_margin <= 0:
            v.append("profile: initial profile must stay strictly inside the "
                     "simplex (interior margin is 0)")
    times = cfg.get("times", [])
    if not times:
        v.append("times: at least one observation time is required")
    elif not all(isinstance(t, (int, float)) for t in times):
        v.append("times: observation times must be numbers")
    elif any(t < 0 for t in times):
        v.append("times: observation times must be nonnegative")
    elif any(b <= a for a, b in zip(times, times[1:])):
        v.append("times: observation times must be strictly increasing")
    n_list = cfg.get("n_list", [])
    if not n_list or any((not isinstance(n, int)) or n < 2 for n in n_list):
        v.append("n_list: lattice sides must be integers >= 2")
    replicas = cfg.get("replicas", 0)
    if name in MC_EXPERIMENTS and (not isinstance(replicas, int) or replicas < 1):
        v.append("replicas: Monte Carlo experiments need replicas >= 1")
    if not isinstance(cfg.get("seed"), int) or cfg["seed"] < 0:
        v.append("seed: master seed must be a nonnegative integer")
    if cfg.get("h") is not None and cfg["h"] <= 0:
        v.append("h: integrator step must be > 0")
    if name == "hydro-converge":
        if len(n_list) < 3:
            v.append("n_list: convergence study needs at least 3 sizes")
        n_ref = cfg.get("n_ref", 0)
        if n_list and (not isinstance(n_ref, int) or any(n_ref % n for n in n_list)):
            v.append("n_ref: every study size must divide the reference size")
    # a table fits one lattice only; concentration builds none
    if (spec is not None and spec.table is not None and name != "concentration"
            and isinstance(cfg.get("d"), int)):
        sides = list(n_list) + ([cfg.get("n_ref")] if name == "hydro-converge" else [])
        sizes = sorted({n ** cfg["d"] for n in sides if isinstance(n, int)})
        if sizes and sizes != [spec.params["n_sites"]]:
            v.append(f"kernel: tabulated kernel has {spec.params['n_sites']} sites, "
                     f"the lattices have {sizes}")
    if name in ("qv-check", "entropy-exact") and n_list:
        states = (cfg.get("k", 1) + 1) ** (n_list[0] ** cfg.get("d", 1))
        if states > STATE_CAP:
            v.append(f"n_list: enumeration of {states} states exceeds the cap {STATE_CAP}")
    return v


# -- shared builders ----------------------------------------------------------

def _system(cfg, n):
    lattice = TorusLattice(cfg["d"], n)
    spec = KernelSpec.from_config(cfg["kernel"], d=cfg["d"])
    params = ModelParams(cfg["a"], cfg["k"], discretize(spec, lattice))
    u0 = profile_field(InitialProfile.from_config(cfg["profile"]), lattice)
    return lattice, params, u0


def _functions(cfg):
    return [TestFunction.from_config(f) for f in cfg.get("functions", [{"name": "constant"}])]


def _workers(cfg):
    env = os.environ.get("GCP_HYDRO_WORKERS")
    return max(int(env) if env else int(cfg.get("workers", 1)), 1)


def _pmap(fn, args_list, workers):
    if workers <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list))


def _chunks(n_replicas, workers):
    per = -(-n_replicas // max(workers, 1))
    return [(lo, min(lo + per, n_replicas)) for lo in range(0, n_replicas, per)]


# -- replica batch tasks (top level for pickling) -----------------------------

def _lln_batch(args):
    cfg, n, t, lo, hi = args
    _, params, u0 = _system(cfg, n)
    u_t = integrate(u0, params, t, h=cfg.get("h")).final()
    fns = _functions(cfg)
    state = int(cfg.get("state", cfg["k"]))
    out = np.empty((hi - lo, len(fns)))
    for r in range(lo, hi):
        rng = replica_rng(cfg["seed"], n, r)
        sim = Simulation(sample_initial(u0, rng), params)
        snap = sim.simulate_until([t], rng)[0]
        w = centered_field(snap.config, u_t)
        out[r - lo] = [lln_error(w, f, state) ** 2 for f in fns]
    return out


def _clt_batch(args):
    cfg, n, t, lo, hi = args
    _, params, u0 = _system(cfg, n)
    u_t = integrate(u0, params, t, h=cfg.get("h")).final()
    f = _functions(cfg)[0]
    state = int(cfg.get("state", cfg["k"]))
    dump = bool(cfg.get("dump_configs", False))
    rows, configs = [], []
    for r in range(lo, hi):
        rng = replica_rng(cfg["seed"], n, r)
        sim = Simulation(sample_initial(u0, rng), params)
        snap = sim.simulate_until([t], rng)[0]
        w = centered_field(snap.config, u_t)
        counts = snap.config.state_counts()
        rows.append((r, lln_error(w, f, state), fluctuation(w, f, state), counts))
        if dump:
            configs.append((r, snap.config.sigma.copy()))
    return rows, configs


# -- experiment runners --------------------------------------------------------

def _run_hydro_converge(cfg):
    spec = KernelSpec.from_config(cfg["kernel"], d=cfg["d"])
    profile = InitialProfile.from_config(cfg["profile"])
    table = convergence_study(cfg["n_list"], spec, profile, cfg["a"], cfg["k"],
                              cfg["times"][-1], n_ref=cfg.get("n_ref"),
                              d=cfg["d"], h=cfg.get("h"))
    # the zero-diagonal lattice equation is biased by O(n^-d), so the
    # expected log-log slope is -d unless the config names its own target
    target, tol = cfg.get("slope_target", -float(cfg["d"])), cfg["slope_tol"]
    slope = table.fit.slope if table.fit else None
    passed = slope is not None and abs(slope - target) <= tol
    summary = {"slope": slope,
               "slope_se": table.fit.slope_se if table.fit else None,
               "slope_target": target, "slope_tol": tol}
    return passed, {"convergence": ("convergence", table.rows())}, summary


def _run_lln_rate(cfg):
    t = cfg["times"][-1]
    workers = _workers(cfg)
    fns = _functions(cfg)
    state = int(cfg.get("state", cfg["k"]))
    rows, slopes = [], {}
    per_f_means = {f.name: [] for f in fns}
    for n in cfg["n_list"]:
        tasks = [(cfg, n, t, lo, hi) for lo, hi in _chunks(cfg["replicas"], workers)]
        sq = np.concatenate(_pmap(_lln_batch, tasks, workers), axis=0)
        for idx, f in enumerate(fns):
            mean = float(np.mean(sq[:, idx]))
            se = float(np.std(sq[:, idx], ddof=1) / np.sqrt(len(sq)))
            rows.append((n, f.name, state, len(sq), mean, se))
            per_f_means[f.name].append((n, mean))
    # the L2 rate n^(-d/2) makes the mean squared error decay as n^-d
    target, tol = cfg.get("slope_target", -float(cfg["d"])), cfg["slope_tol"]
    passed = True
    for fname, pairs in per_f_means.items():
        fit = rate_fit(pairs)
        slopes[fname] = {"slope": fit.slope, "se": fit.slope_se}
        passed = passed and abs(fit.slope - target) <= tol
    summary = {"slopes": slopes, "slope_target": target, "slope_tol": tol}
    return passed, {"lln": ("lln", rows)}, summary


def _run_clt_check(cfg):
    n = cfg["n_list"][0]
    t = cfg["times"][-1]
    workers = _workers(cfg)
    _, params, u0 = _system(cfg, n)
    traj = integrate(u0, params, t, h=cfg.get("h"))
    f = _functions(cfg)[0]
    state = int(cfg.get("state", cfg["k"]))
    predicted = predicted_variance_mild(f, state, t, traj, params)
    tasks = [(cfg, n, t, lo, hi) for lo, hi in _chunks(cfg["replicas"], workers)]
    batches = _pmap(_clt_batch, tasks, workers)
    triples = [row for rows, _ in batches for row in rows]
    x = np.array([row[2] for row in triples])
    det_rows = [(r, t, state, f.name, e, xv) for r, e, xv, _ in triples]
    count_rows = [(r, t) + tuple(int(c) for c in counts)
                  for r, e, xv, counts in triples]
    emp_var = float(np.var(x, ddof=1))
    centered = x - x.mean()
    m2 = float(np.mean(centered ** 2))
    m4 = float(np.mean(centered ** 4))
    var_se = float(np.sqrt(max(m4 - m2 ** 2, 0.0) / len(x)))
    mom = normality_diagnostics(x)
    var_ok = abs(emp_var - predicted) <= 4.0 * var_se
    shape_ok = (abs(mom.skewness) < cfg["skew_limit"]
                and abs(mom.excess_kurtosis) < cfg["kurt_limit"])
    summary = {"predicted_variance": predicted, "empirical_variance": emp_var,
               "variance_se": var_se, "skewness": mom.skewness,
               "skewness_se": mom.skewness_se, "excess_kurtosis": mom.excess_kurtosis,
               "kurtosis_se": mom.kurtosis_se, "variance_ok": var_ok,
               "shape_ok": shape_ok}
    payloads = {"clt": ("clt_detail", det_rows),
                "clt_counts": (("replica", "t") + tuple(f"count_{i}" for i in range(cfg["k"] + 1)),
                               count_rows)}
    if cfg.get("dump_configs"):
        cfg_rows = [(r, t, x, int(s)) for rows, dumps in batches
                    for r, sigma in dumps for x, s in enumerate(sigma)]
        payloads["clt_configs"] = (("replica", "t", "site", "state"), cfg_rows)
    return bool(var_ok and shape_ok), payloads, summary


def _run_qv_check(cfg):
    n = cfg["n_list"][0]
    _, params, u0 = _system(cfg, n)
    space = StateSpace(params.lattice, params.k)
    fns = _functions(cfg)
    t_end = cfg["times"][-1]
    traj = integrate(u0, params, t_end, h=cfg.get("h")) if t_end > 0 else None
    rows, worst = [], 0.0
    for t in cfg["times"]:
        u_t = traj.field_at(t) if traj is not None else u0
        mu = profile_law(u_t, space)
        gam = gamma_field(u_t, params)
        for f in fns:
            fv = f.values_on(params.lattice)
            for i in range(params.k + 1):
                for j in range(params.k + 1):
                    enum = sum(mu[s] * carre_du_champ(
                        SpinConfig(params.lattice, params.k, space.config_of(s)),
                        params, f, i, j) for s in range(space.size))
                    ref = float(np.mean(gam[:, i, j] * fv ** 2))
                    diff = abs(enum - ref)
                    worst = max(worst, diff)
                    rows.append((t, f.name, i, j, enum, ref, diff))
    passed = worst <= cfg["tolerance"]
    return passed, {"qv": ("qv", rows)}, {"max_abs_diff": worst,
                                          "tolerance": cfg["tolerance"]}


def _run_init_cov(cfg):
    n = cfg["n_list"][0]
    _, params, u0 = _system(cfg, n)
    fns = _functions(cfg)
    replicas = cfg["replicas"]
    k = cfg["k"]
    x = np.empty((replicas, len(fns), k + 1))
    for r in range(replicas):
        rng = replica_rng(cfg["seed"], n, r)
        w = centered_field(sample_initial(u0, rng), u0)
        for fi, f in enumerate(fns):
            for i in range(k + 1):
                x[r, fi, i] = fluctuation(w, f, i)
    rows, all_ok = [], True
    for fi, f in enumerate(fns):
        for gi, g in enumerate(fns):
            if gi < fi:
                continue
            for i in range(k + 1):
                for j in range(i, k + 1):
                    a = x[:, fi, i] - x[:, fi, i].mean()
                    b = x[:, gi, j] - x[:, gi, j].mean()
                    emp = float(np.mean(a * b) * replicas / (replicas - 1))
                    se = float(np.std(a * b, ddof=1) / np.sqrt(replicas))
                    pred = predicted_initial_cov(u0, f, g, i, j)
                    ok = abs(emp - pred) <= 4.0 * se
                    all_ok = all_ok and ok
                    rows.append((f.name, g.name, i, j, emp, pred, se, ok))
    return all_ok, {"init_cov": ("init_cov", rows)}, {"pairs": len(rows)}


def _run_entropy_exact(cfg):
    n = cfg["n_list"][0]
    _, params, u0 = _system(cfg, n)
    report = entropy_production_check(params, u0, cfg["times"][-1], cfg.get("h", 0.01))
    passed = (abs(report.entropy[0]) <= 1e-12
              and float(np.min(report.entropy)) >= -1e-12
              and report.inequality_holds()
              and report.under_envelope())
    summary = {"entropy_final": float(report.entropy[-1]),
               "envelope_constant": report.envelope_constant,
               "min_inequality_margin": float(np.min(report.inequality_margin())),
               "inequality_holds": report.inequality_holds(),
               "under_envelope": report.under_envelope()}
    return passed, {"entropy": ("entropy", report.rows())}, summary


def _run_concentration(cfg):
    replicas = cfg["replicas"]
    size = int(cfg.get("matrix_size", 8))
    rng = replica_rng(cfg["seed"], 0)
    g = rng.integers(0, 2, (size, size)) * 2.0 - 1.0
    np.fill_diagonal(g, 0.0)
    results = []
    results += check_hoeffding(centered_indicator(0.5), replicas=replicas,
                               rng=replica_rng(cfg["seed"], 1))
    results += check_hoeffding(rademacher(), replicas=replicas,
                               rng=replica_rng(cfg["seed"], 2))
    results.append(check_quad(centered_indicator(0.5), replicas=replicas,
                              rng=replica_rng(cfg["seed"], 3)))
    results.append(check_quad(rademacher(), replicas=replicas,
                              rng=replica_rng(cfg["seed"], 4)))
    results.append(check_hanson_wright(size, g, replicas=replicas,
                                       rng=replica_rng(cfg["seed"], 5)))
    results += check_psi2_additivity(centered_indicator(0.5), rademacher(),
                                     replicas=replicas, rng=replica_rng(cfg["seed"], 6))
    rows = [r.row() for r in results]
    passed = all(r.passed for r in results)
    return passed, {"concentration": ("concentration", rows)}, {"checks": len(rows)}


_RUNNERS = {
    "hydro-converge": _run_hydro_converge,
    "lln-rate": _run_lln_rate,
    "clt-check": _run_clt_check,
    "qv-check": _run_qv_check,
    "init-cov": _run_init_cov,
    "entropy-exact": _run_entropy_exact,
    "concentration": _run_concentration,
}


def run(cfg, out_dir) -> RunResult:
    """Validate, dispatch, and emit results atomically under out_dir."""
    violations = validate(cfg)
    if violations:
        raise ConfigError(violations)
    started = time.time()
    passed, payloads, summary = _RUNNERS[cfg["experiment"]](cfg)
    passed = None if passed is None else bool(passed)
    csv_paths = []
    for stem, (header, rows) in payloads.items():
        path = os.path.join(out_dir, f"{stem}.csv")
        write_csv(path, HEADERS[header] if isinstance(header, str) else header, rows)
        csv_paths.append(path)
    sidecar = os.path.join(out_dir, "run.json")
    meta = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg["experiment"],
        "config": cfg,
        "config_sha256": config_hash(cfg),
        "provenance": f"gcp-hydro/{__version__}+{config_hash(cfg)[:12]}",
        "seed": cfg["seed"],
        "status": "pass" if passed else "fail" if passed is not None else "done",
        "summary": summary,
        "wall_time_s": round(time.time() - started, 3),
        "versions": {"gcp_hydro": __version__, "numpy": np.__version__},
    }
    write_json(sidecar, meta)
    return RunResult(cfg["experiment"], passed, csv_paths, sidecar, summary)
