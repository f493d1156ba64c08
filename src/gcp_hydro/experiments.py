"""Named experiments: config handling, deterministic replica scheduling, and
CSV/JSON emission for the verification harness.

Each experiment validates its config, runs the owning modules, writes its
CSV payload plus a JSON sidecar atomically, and reports pass/fail against
its declared thresholds.  Replica randomness is a pure function of
(master seed, replica key), so scheduling order and worker count never
change the aggregated output.  The simulating experiments (lln-rate,
clt-check, init-cov) run ``_replica_block`` over tasks of whole blocks of
replicas, which pairs each replica's centered field once with every marginal
(f, i); each runner scales the pairings itself: by n^-d for the L2 error, by
n^-d/2 for the fluctuation.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import __version__
from .concentration import (MGF_MIN_REPLICAS, centered_indicator,
                            check_hanson_wright, check_hoeffding,
                            check_psi2_additivity, check_quad, rademacher)
from .fields import TestFunction, carre_du_champ, centered_field, pairing
from .gcp import SpinConfig, Simulation, block_lanes, lane_bytes, replica_rng
from .hydro import (ModelParams, _grid, combined_ode, convergence_study, final_density,
                    grid_index, integrate, profile_field)
from .io_utils import config_hash, write_csv, write_json
from .lattice import KernelSpec, TorusLattice, discretize
from .profiles import InitialProfile
from .stats import (NORMALITY_MIN_SAMPLES, RATE_FIT_MIN_POINTS, gamma_field,
                    normality_diagnostics, predicted_cov_mild, rate_fit,
                    terminal_datum)

SCHEMA_VERSION = 2
# Nominal lane state (gcp.lane_bytes) one replica task may step at once: eight
# blocks up to N = 13 081 sites, up to eleven above while a block holds more
# than one lane.  Fewer blocks to a task mean more fixed-cost vectorized
# steps for the same rounds.
TASK_BYTES = 8 << 20

HEADERS = {
    "convergence": ("n", "sup_error"),
    "lln": ("n", "f", "state", "replicas", "mean_sq_error", "se"),
    "clt_detail": ("replica", "t", "state", "f", "lln_error", "fluctuation"),
    "qv": ("t", "f", "i", "j", "enumerated_mean", "gamma_weighted_sum", "abs_diff"),
    "cov": ("f", "g", "i", "j", "empirical", "predicted", "se", "within_4se"),
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
        "times": [1.0], "h": 0.01, "seed": 20260810, "slope_tol": 0.3,
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
        "n_list": [4], "times": [0.0, 0.5], "h": 0.01,
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
        "h": 0.01, "seed": 20260810, "skew_limit": 0.2, "kurt_limit": 0.3,
    },
    "entropy-exact": {
        "d": 1, "k": 1, "a": 1.0,
        "kernel": {"name": "constant", "c": 1.0},
        "profile": {"name": "constant", "values": [0.5, 0.5]},
        "n_list": [4], "times": [1.0], "h": 0.01, "seed": 20260810,
    },
    "concentration": {"replicas": 20000, "seed": 20260810, "matrix_size": 8},
}

# per runner: the most observation times, the fewest and most lattice sides,
# the fewest replicas where it takes them, whether it enumerates its states,
# and the keys it reads only where a config holds them.  Every experiment
# takes `workers` too; any other key is a config error: the run never reads it.
TAKES = {
    "hydro-converge": (1, (RATE_FIT_MIN_POINTS, math.inf), 1, False, ("slope_target",)),
    "lln-rate": (1, (RATE_FIT_MIN_POINTS, math.inf), 1, False, ("slope_target",)),
    "clt-check": (1, (1, 1), NORMALITY_MIN_SAMPLES, False, ("dump_configs",)),
    "qv-check": (math.inf, (1, 1), 1, True, ()),
    "init-cov": (1, (1, 1), NORMALITY_MIN_SAMPLES, False, ("dump_configs", "state")),
    "entropy-exact": (1, (1, 1), 1, True, ()),
    "concentration": (1, (1, 1), MGF_MIN_REPLICAS, False, ()),
}

# step, thresholds and sizes that must be positive where a config has them:
# (key, whether it must be an integer)
POSITIVE_KEYS = (("h", False), ("slope_tol", False), ("skew_limit", False),
                 ("kurt_limit", False), ("tolerance", False), ("matrix_size", True),
                 ("workers", True))


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

    @property
    def status(self) -> str:
        """``pass`` or ``fail``, or ``done`` for an experiment without thresholds."""
        return "pass" if self.passed else "fail" if self.passed is not None else "done"


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
    seed = _env_int("GCP_HYDRO_SEED")
    if seed is not None:
        cfg["seed"] = seed
    return cfg


def _env_int(name):
    """An environment variable as an int, or as its text when it is not one,
    for validation to reject; None when it is unset or empty."""
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        return raw


def _is_int(x):
    """An int that is not a bool: bool subclasses int, and YAML reads yes and true as True."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _built(v, key, build, where=""):
    """build(), or None once its error is appended to v as a violation of key."""
    try:
        return build()
    except Exception as exc:
        v.append(f"{key}: {exc}{where}")


def validate(cfg) -> list:
    """All config violations at once, each naming the offending field.

    Checked here: what no builder can state (JSON, booleans as integers,
    unread keys, the environment, ``times`` order, ``state``, ``n_ref``
    divisibility, the profile's k and margin) and the ``TAKES`` counts and
    floors.  Every other rule is raised by its builder in a dry build of the
    time grid and of what the runner builds at each lattice side; nothing is
    solved or simulated.
    """
    v = []
    name = cfg.get("experiment")
    if name not in DEFAULTS:
        return [f"experiment: unknown experiment {name!r}"]
    most_times, (fewest, most), floor, enumerates, optional = TAKES[name]
    try:  # run.json echoes the config, so it must be plain JSON
        json.dumps(cfg, sort_keys=True)
    except (TypeError, ValueError) as exc:
        v.append(f"config: run.json cannot hold the config: {exc}")
    # a key's rule applies where the experiment declares the key, and every
    # experiment takes workers; any other key is reported as unread only
    declared = set(DEFAULTS[name]) | set(optional) | {"workers"}
    for key in sorted(set(cfg) - declared - {"experiment"}, key=str):
        v.append(f"{key}: {name} reads no such key")
    given = declared & set(cfg)
    if not _is_int(cfg.get("seed")) or cfg["seed"] < 0:
        v.append(f"seed: master seed must be a nonnegative integer, got {cfg.get('seed')!r}")
    workers = _env_int("GCP_HYDRO_WORKERS")
    if workers is not None and not (_is_int(workers) and workers > 0):
        v.append(f"workers: GCP_HYDRO_WORKERS must be a positive integer, got {workers!r}")
    for key, integral in POSITIVE_KEYS:
        if key in given and not ((_is_int if integral else _is_number)(cfg[key]) and cfg[key] > 0):
            v.append(f"{key}: must be a positive {'integer' if integral else 'number'}, "
                     f"got {cfg[key]!r}")
    if "slope_target" in given and not _is_number(cfg["slope_target"]):
        v.append(f"slope_target: must be a number, got {cfg['slope_target']!r}")
    replicas = cfg.get("replicas")
    if "replicas" in declared and not (_is_int(replicas) and replicas >= floor):
        v.append(f"replicas: {name} needs an integer >= {floor}, got {replicas!r}")
    if "d" not in declared:  # the remaining keys describe a lattice run
        return v
    d, k = cfg.get("d"), cfg.get("k")
    d_ok, k_ok = _is_int(d) and d >= 1, _is_int(k) and k >= 1
    if not d_ok:
        v.append("d: spatial dimension must be a positive integer")
    if not k_ok:
        v.append("k: threshold state must be an integer >= 1")
    if not _is_number(cfg.get("a")) or not cfg["a"] > 0:
        v.append("a: recovery rate must be > 0")
    spec = _built(v, "kernel", lambda: KernelSpec.from_config(cfg.get("kernel", {})))
    profile = _built(v, "profile", lambda: InitialProfile.from_config(cfg.get("profile", {})))
    if profile is not None:
        if profile.k != k:
            v.append(f"profile: profile has k={profile.k}, config has k={k}")
        if profile.interior_margin <= 0:
            v.append("profile: initial profile must stay strictly inside the "
                     "simplex (interior margin is 0)")
    times = cfg.get("times")
    if not isinstance(times, (list, tuple)) or not times:
        v.append("times: at least one observation time is required, as a list")
    elif not all(_is_number(t) and t >= 0 for t in times):
        v.append("times: observation times must be nonnegative numbers")
    elif any(b <= a for a, b in zip(times, times[1:])):
        v.append("times: observation times must be strictly increasing")
    elif len(times) > most_times:
        v.append(f"times: {name} observes {most_times} time(s), the config lists {len(times)}")
    elif _is_number(cfg.get("h")) and cfg["h"] > 0:  # each time is a point of the grid
        grid = _grid(times[-1], cfg["h"])[0]
        _built(v, "times", lambda: [grid_index(grid, t) for t in times], f" (h={cfg['h']})")
    n_list = cfg.get("n_list")
    sides_ok = (isinstance(n_list, (list, tuple)) and bool(n_list)
                and all(_is_int(n) and n >= 2 for n in n_list))
    if not sides_ok:
        v.append("n_list: lattice sides must be a list of integers >= 2")
    elif not fewest <= len(n_list) <= most:
        want = fewest if fewest == most else f"at least {fewest}"
        v.append(f"n_list: {name} runs {want} lattice size(s), the config lists {len(n_list)}")
    state = cfg.get("state")
    if "state" in given and k_ok and (type(state) is not int or not 0 <= state <= k):
        v.append(f"state: {name} takes one state in [0, {k}], got {state!r}")
    functions = cfg.get("functions", [])
    if "functions" in cfg and (not isinstance(functions, list) or not functions):
        v.append("functions: at least one test function is required, as a list")
        functions = []
    fns = [_built(v, "functions", lambda: TestFunction.from_config(f)) for f in functions]
    sides = list(n_list) if sides_ok else []
    if "n_ref" in declared:
        n_ref = cfg.get("n_ref")
        if not _is_int(n_ref) or n_ref < 2:
            v.append(f"n_ref: reference lattice side must be an integer >= 2, got {n_ref!r}")
        else:
            sides.append(n_ref)
            if sides_ok and any(n_ref % n for n in n_list):
                v.append("n_ref: every study size must divide the reference size")
    # the dry build: at each side, what the runner builds there
    if enumerates:  # only the runs that enumerate states import the entropy engine
        from .entropy import StateSpace
    builds = [("kernel", spec and (lambda lattice: discretize(spec, lattice))),
              ("profile", profile and (lambda lattice: profile_field(profile, lattice))),
              ("n_list", enumerates and k_ok and (lambda lattice: StateSpace(lattice, k)))]
    for key, build in builds + [("functions", fn and fn.values_on) for fn in fns]:
        for n in sides if build and d_ok else ():
            if _built(v, key, lambda: build(TorusLattice(d, n)), f" (d={d}, n={n})") is None:
                break
    return v


# -- shared builders ----------------------------------------------------------

def _system(cfg, n):
    """(params, u0): the dynamics and the initial density on the lattice of side n."""
    lattice = TorusLattice(cfg["d"], n)
    spec = KernelSpec.from_config(cfg["kernel"])
    params = ModelParams(cfg["a"], cfg["k"], discretize(spec, lattice))
    return params, profile_field(InitialProfile.from_config(cfg["profile"]), lattice)


def _functions(cfg):
    return [TestFunction.from_config(f) for f in cfg["functions"]]


def _workers(cfg):
    """GCP_HYDRO_WORKERS, else the config's workers; validation checked both."""
    env = _env_int("GCP_HYDRO_WORKERS")
    return cfg.get("workers", 1) if env is None else env


def _pmap(fn, args_list, workers):
    if workers <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list))


def _sum_counters(counters):
    return {key: sum(c[key] for c in counters) for key in counters[0]}


def _concat(parts):
    """Join tuples of per-block arrays field by field; a None field stays None."""
    return tuple(None if field[0] is None else np.concatenate(field) for field in zip(*parts))


# -- the replica task (top level for pickling) --------------------------------

def _marginals(cfg):
    """(f, i) over functions x states, function-major; no state key means every state."""
    states = [cfg["state"]] if "state" in cfg else range(cfg["k"] + 1)
    return [(f, i) for f in _functions(cfg) for i in states]


def _replica_block(args):
    """Replicas [lo, hi) of side n, whole blocks from lo on, stepped as one
    Simulation to time t and centered on the density u_t at t.

    Returns the (R, M) pairings sum_x w_x^i f(x/n), one column per marginal
    (f, i) of ``_marginals``, the state counts, the configurations when
    ``dump_configs`` is set (else None) and the simulator counters.  The
    Simulation is freed before the pairing, which takes one block of rows at
    a time; rows sum independently, so the chunks change no value.
    """
    cfg, n, t, lo, hi, u_t = args
    params, u0 = _system(cfg, n)
    sim = Simulation(u0, params, cfg["seed"], range(lo, hi))
    config = sim.simulate_until([t])[0].config
    counters = sim.counters()
    del sim
    lanes, marginals = block_lanes(params.lattice.n_sites), _marginals(cfg)
    pairs = np.empty((hi - lo, len(marginals)))
    for row in range(0, hi - lo, lanes):
        w = centered_field(SpinConfig(config.lattice, config.k, config.sigma[row:row + lanes]),
                           u_t)
        for col, (f, i) in enumerate(marginals):
            pairs[row:row + lanes, col] = pairing(w, f, i)
    sigmas = config.sigma if cfg.get("dump_configs", False) else None
    return pairs, config.state_counts(), sigmas, counters


def _replica_tasks(cfg, n, t, u_t):
    """``_replica_block`` over tasks of whole blocks of replicas, centered on
    the density u_t at t: the joined pairings, counts and configurations, and
    the summed counters.

    The blocks are split evenly into at least min(workers, blocks) tasks of
    at most TASK_BYTES of nominal lane state each.  A replica's path does not
    depend on the blocks stepped with it, so neither does any output.
    """
    replicas, n_sites, workers = cfg["replicas"], n ** cfg["d"], _workers(cfg)
    lanes = block_lanes(n_sites)
    blocks = -(-replicas // lanes)
    per_task = max(1, TASK_BYTES // (lanes * lane_bytes(n_sites)))
    n_tasks = max(-(-blocks // per_task), min(workers, blocks))
    # task j holds blocks [j * blocks // n_tasks, (j + 1) * blocks // n_tasks)
    edges = [min(j * blocks // n_tasks * lanes, replicas) for j in range(n_tasks + 1)]
    tasks = [(cfg, n, t, lo, hi, u_t) for lo, hi in zip(edges, edges[1:])]
    results = _pmap(_replica_block, tasks, workers)
    return _concat([r[:3] for r in results]), _sum_counters([r[3] for r in results])


# -- experiment runners --------------------------------------------------------

def _run_hydro_converge(cfg):
    table = convergence_study(cfg["n_list"], lambda n: _system(cfg, n), cfg["times"][-1],
                              n_ref=cfg["n_ref"], h=cfg["h"])
    # the zero-diagonal lattice equation is biased by O(n^-d), so the
    # expected log-log slope is -d unless the config names its own target
    target, tol = cfg.get("slope_target", -float(cfg["d"])), cfg["slope_tol"]
    slope = table.fit.slope if table.fit else None
    passed = slope is not None and abs(slope - target) <= tol
    summary = {"slope": slope,
               "slope_se": table.fit.slope_se if table.fit else None,
               "slope_target": target, "slope_tol": tol}
    return passed, {"convergence": ("convergence", table.rows())}, summary, {"ode": table.ode}


def _run_lln_rate(cfg):
    t = cfg["times"][-1]
    fns = _functions(cfg)
    state = cfg["state"]
    rows, slopes, counters, solves = [], {}, [], []
    per_f_means = {f.name: [] for f in fns}
    for n in cfg["n_list"]:
        params, u0 = _system(cfg, n)
        u_t, ode = final_density(u0, params, t, cfg["h"])
        (pairs, _, _), totals = _replica_tasks(cfg, n, t, u_t)
        sq = (pairs / n ** cfg["d"]) ** 2  # lln_error squared, one column per function
        counters.append(totals)
        solves.append(ode)
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
    metrics = {"ode": combined_ode(solves), "simulator": _sum_counters(counters)}
    return passed, {"lln": ("lln", rows)}, summary, metrics


def _run_fluctuations(cfg):
    """clt-check and init-cov: at one time, the covariance of every pair of
    marginals (f, i) over functions x states lies within 4 SE of the mild
    solution's, and every marginal's shape within the skewness and kurtosis
    limits."""
    n = cfg["n_list"][0]
    t = cfg["times"][-1]
    marginals = _marginals(cfg)
    predicted, u_t, ode = _predicted_cov(cfg, n, t, marginals)
    (pairs, counts, sigmas), counters = _replica_tasks(cfg, n, t, u_t)
    n_sites = n ** cfg["d"]
    errors, x = pairs / n_sites, pairs / math.sqrt(n_sites)  # lln_error, fluctuation
    replicas = len(x)
    centered = [col - col.mean() for col in x.T]
    cov_rows = []
    for a, b in itertools.combinations_with_replacement(range(len(marginals)), 2):
        (f, i), (g, j) = marginals[a], marginals[b]
        prod = centered[a] * centered[b]
        emp = float(prod.sum() / (replicas - 1))
        se = float(np.sqrt(max(np.mean(prod ** 2) - np.mean(prod) ** 2, 0.0) / replicas))
        pred = float(predicted[a, b])
        cov_rows.append((f.name, g.name, i, j, emp, pred, se, abs(emp - pred) <= 4.0 * se))
    moments = [normality_diagnostics(col) for col in x.T]
    shape_ok = all(abs(m.skewness) < cfg["skew_limit"]
                   and abs(m.excess_kurtosis) < cfg["kurt_limit"] for m in moments)
    variance_ok = all(row[-1] for row in cov_rows)
    first, mom = cov_rows[0], moments[0]
    summary = {"predicted_variance": first[5], "empirical_variance": first[4],
               "variance_se": first[6], "skewness": mom.skewness,
               "skewness_se": mom.skewness_se, "excess_kurtosis": mom.excess_kurtosis,
               "kurtosis_se": mom.kurtosis_se, "variance_ok": variance_ok,
               "shape_ok": shape_ok, "pairs": len(cov_rows)}
    det_rows = [(r, t, i, f.name, e, v)
                for r, (es, vs) in enumerate(zip(errors.tolist(), x.tolist()))
                for (f, i), e, v in zip(marginals, es, vs)]
    count_rows = [(r, t) + tuple(c) for r, c in enumerate(counts.tolist())]
    payloads = {"clt": ("clt_detail", det_rows),
                "clt_counts": (("replica", "t") + tuple(f"count_{i}" for i in range(cfg["k"] + 1)),
                               count_rows),
                "cov": ("cov", cov_rows)}
    if sigmas is not None:
        cfg_rows = [(r, t, site, s) for r, sigma in enumerate(sigmas.tolist())
                    for site, s in enumerate(sigma)]
        payloads["clt_configs"] = (("replica", "t", "site", "state"), cfg_rows)
    return variance_ok and shape_ok, payloads, summary, {"ode": ode, "simulator": counters}


def _predicted_cov(cfg, n, t, marginals):
    """The mild covariance of the marginals at t, the density at t and the
    solve's counts; the system and its trajectory are freed on return."""
    params, u0 = _system(cfg, n)
    traj = integrate(u0, params, t, cfg["h"])
    cov = predicted_cov_mild([terminal_datum(f, i, params.lattice, params.k)
                              for f, i in marginals], t, traj, params)
    return cov, traj.final(), traj.ode


def _run_qv_check(cfg):
    from .entropy import StateSpace, profile_law
    params, u0 = _system(cfg, cfg["n_list"][0])
    lattice, k = params.lattice, params.k
    space = StateSpace(lattice, k)
    configs = SpinConfig(lattice, k, space.digits)  # every state, one row each
    fns = _functions(cfg)
    traj = integrate(u0, params, cfg["times"][-1], cfg["h"])
    rows, worst = [], 0.0
    for t in cfg["times"]:
        u_t = traj.field_at(t)
        mu = profile_law(u_t, space)
        gam = gamma_field(u_t, params)
        for f in fns:
            fv = f.values_on(lattice)
            for i in range(k + 1):
                for j in range(k + 1):
                    enum = float(mu @ carre_du_champ(configs, params, f, i, j))
                    ref = float(np.mean(gam[:, i, j] * fv ** 2))
                    diff = abs(enum - ref)
                    worst = max(worst, diff)
                    rows.append((t, f.name, i, j, enum, ref, diff))
    passed = worst <= cfg["tolerance"]
    summary = {"max_abs_diff": worst, "tolerance": cfg["tolerance"]}
    return passed, {"qv": ("qv", rows)}, summary, {"ode": traj.ode}


def _run_entropy_exact(cfg):
    from .entropy import entropy_production_check
    params, u0 = _system(cfg, cfg["n_list"][0])
    report = entropy_production_check(params, u0, cfg["times"][-1], cfg["h"])
    passed = (abs(report.entropy[0]) <= 1e-12
              and float(np.min(report.entropy)) >= -1e-12
              and report.inequality_holds()
              and report.under_envelope())
    summary = {"entropy_final": float(report.entropy[-1]),
               "envelope_constant": report.envelope_constant,
               "min_inequality_margin": float(np.min(report.inequality_margin())),
               "inequality_holds": report.inequality_holds(),
               "under_envelope": report.under_envelope()}
    return passed, {"entropy": ("entropy", report.rows())}, summary, report.metrics


def _run_concentration(cfg):
    replicas = cfg["replicas"]
    size = cfg["matrix_size"]
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
    results.append(check_hanson_wright(g, replicas=replicas,
                                       rng=replica_rng(cfg["seed"], 5)))
    results += check_psi2_additivity(centered_indicator(0.5), rademacher(),
                                     replicas=replicas, rng=replica_rng(cfg["seed"], 6))
    rows = [r.row() for r in results]
    passed = all(r.passed for r in results)
    return passed, {"concentration": ("concentration", rows)}, {"checks": len(rows)}, {}


_RUNNERS = {
    "hydro-converge": _run_hydro_converge,
    "lln-rate": _run_lln_rate,
    "clt-check": _run_fluctuations,
    "qv-check": _run_qv_check,
    "init-cov": _run_fluctuations,
    "entropy-exact": _run_entropy_exact,
    "concentration": _run_concentration,
}


def run(cfg, out_dir) -> RunResult:
    """Validate, dispatch, and emit results atomically under out_dir.

    A run whose config has a kernel reports ``metrics.kernel.engine``, the
    spec's engine at each lattice side it builds.
    """
    violations = validate(cfg)
    if violations:
        raise ConfigError(violations)
    started = time.perf_counter()
    passed, payloads, summary, metrics = _RUNNERS[cfg["experiment"]](cfg)
    if "kernel" in cfg:
        engine = KernelSpec.from_config(cfg["kernel"]).engine
        sides = list(cfg["n_list"]) + ([cfg["n_ref"]] if "n_ref" in cfg else [])
        metrics["kernel"] = {"engine": {str(n): engine for n in sides}}
    csv_paths = []
    for stem, (header, rows) in payloads.items():
        path = os.path.join(out_dir, f"{stem}.csv")
        write_csv(path, HEADERS[header] if isinstance(header, str) else header, rows)
        csv_paths.append(path)
    sidecar = os.path.join(out_dir, "run.json")
    result = RunResult(cfg["experiment"], None if passed is None else bool(passed),
                       csv_paths, sidecar, summary)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg["experiment"],
        "config": cfg,
        "config_sha256": config_hash(cfg),
        "provenance": f"gcp-hydro/{__version__}+{config_hash(cfg)[:12]}",
        "seed": cfg["seed"],
        "status": result.status,
        "summary": summary,
        "metrics": metrics,
        "wall_time_s": round(time.perf_counter() - started, 3),
        "versions": {"gcp_hydro": __version__, "numpy": np.__version__},
    }
    write_json(sidecar, meta)
    return result
