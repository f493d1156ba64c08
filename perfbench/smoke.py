"""Self-check of the benchmark harness at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload shrunk to its smoke size, untraced and traced, through
``run.py`` and asserts that every metric BENCHMARK.json names is reported,
that outputs verify, and that no span's children outlast it, so the layer
self times sum to no more than the run span.  Then it removes
``gcp_hydro.gcp.Simulation`` from its module, as a later change might, and
checks that the traced run still completes and reports the metrics that
read it as absent.  Exits non-zero on the first failure.  Takes about a
minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

SLOP_S = 1e-9  # float rounding when span durations are summed


def check(cond, message):
    if not cond:
        raise SystemExit(f"smoke: FAIL: {message}")


def check_run(workload, trace, spec):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: "
                                f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0,
          f"{workload} trace={trace}: verification failed: {proc.stderr[-2000:]}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == wanted, f"{workload} trace={trace}: metrics {sorted(got)} != {sorted(wanted)}")
    if trace:
        detail = json.loads((ROOT / ".bench_out" / workload / "result.json").read_text())
        for sample in detail["samples"]["traced"]:
            check(sample["span_overrun_s"] <= SLOP_S,
                  f"{workload}: children outlast a parent span by {sample['span_overrun_s']} s")
            check(sample["self_sum_s"] <= sample["root_span_s"] + SLOP_S,
                  f"{workload}: self times {sample['self_sum_s']} s exceed the run span "
                  f"{sample['root_span_s']} s")
            check(sample["root_span_s"] <= sample["wall_s"],
                  f"{workload}: run span {sample['root_span_s']} s exceeds wall_s")
            check(not sample["absent_targets"],
                  f"{workload}: absent targets {sample['absent_targets']}")
    print(f"smoke: {workload} trace={trace}: ok")


def check_absent_target():
    """A deleted class must not crash the traced run; its metrics read absent."""
    from gcp_hydro import experiments, gcp

    workload = workloads.WORKLOADS["lln-tiny"]
    cfg = experiments.load_config(workload.experiment,
                                  overrides=workload.overrides("smoke", 1))
    saved = gcp.Simulation
    del gcp.Simulation
    tracer = Tracer()
    try:
        tracer.install()
        with tempfile.TemporaryDirectory(dir=ROOT) as out:
            experiments.run(cfg, out)
    finally:
        tracer.uninstall()
        gcp.Simulation = saved
    values, absent, _ = layer_metrics(tracer)
    check({"gcp.sim_init", "gcp.simulate"} <= set(tracer.absent),
          f"absent targets {tracer.absent}")
    check("gcp.events" in absent and "gcp.sim_init_us" in absent,
          f"absent metrics {absent}")
    check("gcp.replica_rng_us" not in absent and values["gcp.replica_rng_us"] > 0,
          "a present target was reported absent")
    print("smoke: absent target tolerated: ok")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, spec)
    check_absent_target()
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
