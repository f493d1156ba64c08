"""The four benchmark workloads: experiment configs and output verification.

Each workload is one ``gcp_hydro.experiments.run`` call with a fixed config
and ``workers=1``.  The benchmark seed becomes the experiment's master seed,
so two seeds give two different replica ensembles; ``hydro-2d`` and
``entropy-ring`` are deterministic and ignore it.

Verification must hold for every seed and for any change of random streams:
deterministic outputs are compared with ``reference.json`` at tight
tolerance, Monte Carlo outputs get statistical checks.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# deterministic outputs: |x - ref| <= ATOL + RTOL * |ref|
RTOL = 1e-8
ATOL = 1e-12
# Monte Carlo means: |mean - ref| <= LLN_Z * combined standard error
LLN_Z = 5.0

_COSINE = {"name": "cosine", "beta": 0.5}
_PROFILE_K1 = {"name": "cosine-simplex", "base": [0.55, 0.45],
               "delta": [-0.1, 0.1], "mode": 1}
_PROFILE_K2 = {"name": "cosine-simplex", "base": [0.4, 0.35, 0.25],
               "delta": [0.1, -0.04, -0.06], "mode": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    config: dict          # full-size settings, applied as --set overrides
    smoke: dict           # what the harness smoke check changes to shrink it

    def overrides(self, size, seed):
        """``key=value`` strings as the CLI's ``--set`` takes them."""
        cfg = dict(self.config, seed=int(seed), workers=1)
        if size == "smoke":
            cfg.update(self.smoke)
        return [f"{key}={json.dumps(val)}" for key, val in cfg.items()]

    def replicas(self, cfg):
        """Replicas the run simulates; the deterministic experiments run one solve."""
        if self.experiment == "lln-rate":
            return cfg["replicas"] * len(cfg["n_list"])
        if self.experiment == "clt-check":
            return cfg["replicas"]
        return 1


WORKLOADS = {w.name: w for w in (
    # event-bound: every event toggles activity, so each one refreshes a
    # kernel column and rebuilds the rate tree
    Workload("clt-ring", "clt-check",
             {"d": 1, "k": 1, "a": 1.0, "kernel": _COSINE, "profile": _PROFILE_K1,
              "n_list": [256], "times": [0.5], "replicas": 2000,
              "functions": [{"name": "constant"}], "state": 1, "h": 0.01},
             {"n_list": [32]}),
    # per-replica overhead: ~3 events per replica, so setup and pairing dominate
    Workload("lln-tiny", "lln-rate",
             {"d": 1, "k": 2, "a": 1.0, "kernel": _COSINE, "profile": _PROFILE_K2,
              "n_list": [4, 8, 16], "times": [1.0], "replicas": 5000,
              "functions": [{"name": "constant"}, {"name": "cos", "mode": 1}],
              "state": 2, "h": 0.01},
             {"replicas": 500}),
    # kernel build and dense convolution at N = 4096 dominate
    Workload("hydro-2d", "hydro-converge",
             {"d": 2, "k": 2, "a": 1.0, "kernel": _COSINE, "profile": _PROFILE_K2,
              "n_list": [8, 16, 32], "n_ref": 64, "times": [1.0], "h": 0.01},
             {"n_list": [4, 8, 16], "n_ref": 32, "h": 0.05}),
    # master-equation operator over 2^16 states
    Workload("entropy-ring", "entropy-exact",
             {"d": 1, "k": 1, "a": 1.0, "kernel": _COSINE,
              "profile": {"name": "constant", "values": [0.5, 0.5]},
              "n_list": [16], "times": [1.0], "h": 0.01},
             {"n_list": [8], "times": [0.2]}),
)}


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(x, ref):
    return math.isfinite(x) and abs(x - ref) <= ATOL + RTOL * abs(ref)


def _compare(label, values, refs):
    if len(values) != len(refs):
        return [f"{label}: {len(values)} values, reference has {len(refs)}"]
    return [f"{label}[{i}]: {x!r} differs from reference {r!r}"
            for i, (x, r) in enumerate(zip(values, refs)) if not _close(x, r)]


def _verify_clt(result, cfg, out_dir, ref):
    s = result.summary
    problems = _compare("predicted_variance", [s["predicted_variance"]],
                        [ref["predicted_variance"]])
    if not s["variance_ok"]:
        problems.append(f"variance check failed: empirical {s['empirical_variance']!r}, "
                        f"predicted {s['predicted_variance']!r}, se {s['variance_se']!r}")
    if not s["shape_ok"]:
        problems.append(f"shape check failed: skewness {s['skewness']!r}, "
                        f"excess kurtosis {s['excess_kurtosis']!r}")
    rows = read_csv(out_dir / "clt.csv")
    if len(rows) != cfg["replicas"]:
        problems.append(f"clt.csv has {len(rows)} rows for {cfg['replicas']} replicas")
    return problems


def _verify_lln(result, cfg, out_dir, ref):
    rows = read_csv(out_dir / "lln.csv")
    problems = []
    if len(rows) != len(ref["rows"]):
        problems.append(f"lln.csv has {len(rows)} rows, reference has {len(ref['rows'])}")
    for row, r in zip(rows, ref["rows"]):
        key = (int(row["n"]), row["f"])
        if key != (r["n"], r["f"]):
            problems.append(f"lln.csv row {key} where reference has {(r['n'], r['f'])}")
            continue
        mean, se = float(row["mean_sq_error"]), float(row["se"])
        tol = LLN_Z * math.hypot(se, r["se"])
        if not abs(mean - r["mean_sq_error"]) <= tol:
            problems.append(f"mean_sq_error n={key[0]} f={key[1]}: {mean!r} is more than "
                            f"{LLN_Z} SE from reference {r['mean_sq_error']!r}")
    return problems


def _verify_hydro(result, cfg, out_dir, ref):
    rows = read_csv(out_dir / "convergence.csv")
    problems = _compare("n", [float(r["n"]) for r in rows], [float(n) for n in ref["n"]])
    return problems + _compare("sup_error", [float(r["sup_error"]) for r in rows],
                               ref["sup_error"])


def _verify_entropy(result, cfg, out_dir, ref):
    rows = read_csv(out_dir / "entropy.csv")
    problems = _compare("entropy", [float(r["entropy"]) for r in rows], ref["entropy"])
    if not result.passed:
        problems.append(f"entropy-exact reported failure: {result.summary}")
    return problems


_VERIFIERS = {"clt-check": _verify_clt, "lln-rate": _verify_lln,
              "hydro-converge": _verify_hydro, "entropy-exact": _verify_entropy}


def verify(workload, size, result, cfg, out_dir, reference):
    """Problems found in one run's outputs; an empty list means verified."""
    ref = reference[workload.name][size]
    return _VERIFIERS[workload.experiment](result, cfg, Path(out_dir), ref)
