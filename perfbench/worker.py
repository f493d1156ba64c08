"""One benchmark sample in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --mode untraced|traced|setup
                                --out DIR [--size full|smoke]

Loads and validates the workload's config through the public experiment
interface, prints ``ready`` (the parent times set-up up to that line), then
times one ``gcp_hydro.experiments.run`` call, verifies its outputs and prints
one JSON line with the measurements.  ``--mode setup`` stops after ``ready``.
A run that raises exits non-zero with its traceback on stderr.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from gcp_hydro import experiments  # noqa: E402

import workloads  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("untraced", "traced", "setup"))
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    cfg = experiments.load_config(workload.experiment,
                                  overrides=workload.overrides(args.size, args.seed))
    violations = experiments.validate(cfg)
    if violations:
        raise SystemExit(f"invalid workload config: {violations}")
    print("ready", flush=True)
    if args.mode == "setup":
        return

    out_dir = Path(args.out)
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer, layer_metrics
        tracer = Tracer().install()
    started = perf_counter()
    result = experiments.run(cfg, str(out_dir))
    wall_s = perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sample = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "replicas": workload.replicas(cfg), "numpy": np.__version__}
    if tracer is not None:
        tracer.uninstall()
        values, absent, summary = layer_metrics(tracer)
        tracer.write_spans(out_dir / "spans.csv")
        sample.update(layers=values, absent_targets=tracer.absent, absent_metrics=absent,
                      self_sum_s=sum(summary["layer_self"].values()),
                      root_span_s=summary["root_s"], span_overrun_s=summary["overrun_s"])
    sample["problems"] = workloads.verify(workload, args.size, result, cfg, out_dir,
                                          workloads.load_reference())
    print(json.dumps(sample), flush=True)


if __name__ == "__main__":
    main()
