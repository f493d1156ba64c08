"""Regenerate ``reference.json``, the values the benchmark verifies against.

    python3 perfbench/make_reference.py

Deterministic outputs (the hydro-2d error table, the clt-ring predicted
variance, the entropy-ring entropy column) are taken from one run of each
workload config.  The lln-tiny reference means come from one run with
LLN_REPLICAS replicas per size at REFERENCE_SEED; a mean squared error does
not depend on the replica count, so the full and smoke sizes share them.
Takes a few minutes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gcp_hydro import experiments  # noqa: E402

import workloads  # noqa: E402

REFERENCE_SEED = 20260810
LLN_REPLICAS = 100_000


def run(workload, size, extra=()):
    cfg = experiments.load_config(
        workload.experiment,
        overrides=workload.overrides(size, REFERENCE_SEED) + list(extra))
    with tempfile.TemporaryDirectory(dir=ROOT) as out:
        result = experiments.run(cfg, out)
        name = {"clt-check": "clt.csv", "lln-rate": "lln.csv",
                "hydro-converge": "convergence.csv", "entropy-exact": "entropy.csv"}
        rows = workloads.read_csv(Path(out) / name[workload.experiment])
    return result, rows


def reference_for(workload, size):
    if workload.experiment == "clt-check":
        result, _ = run(workload, size)
        return {"predicted_variance": result.summary["predicted_variance"]}
    if workload.experiment == "hydro-converge":
        _, rows = run(workload, size)
        return {"n": [int(r["n"]) for r in rows],
                "sup_error": [float(r["sup_error"]) for r in rows]}
    if workload.experiment == "entropy-exact":
        _, rows = run(workload, size)
        return {"entropy": [float(r["entropy"]) for r in rows]}
    _, rows = run(workload, "full", [f"replicas={LLN_REPLICAS}"])
    return {"seed": REFERENCE_SEED,
            "rows": [{"n": int(r["n"]), "f": r["f"], "replicas": int(r["replicas"]),
                      "mean_sq_error": float(r["mean_sq_error"]), "se": float(r["se"])}
                     for r in rows]}


def main():
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        reference[name] = {}
        for size in ("full", "smoke"):
            if workload.experiment == "lln-rate" and size == "smoke":
                reference[name][size] = reference[name]["full"]
                continue
            print(f"{name} ({size})", flush=True)
            reference[name][size] = reference_for(workload, size)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
