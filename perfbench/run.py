"""Benchmark of the gcp-hydro experiment driver.

    python3 perfbench/run.py --workload clt-ring|lln-tiny|hydro-2d|entropy-ring
                             --seed N --seconds S --trace 0|1 [--size full|smoke]

Closed loop, one client: each sample is a fresh single process
(``worker.py``) that loads and validates the workload's config, times one
``gcp_hydro.experiments.run`` call with ``workers=1`` and verifies its
outputs; the next sample starts when it has ended.  Samples repeat until
``--seconds`` is used up and the medians are reported.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced samples and reports the per-layer metrics
of the traced ones plus ``trace.overhead``, the traced over the untraced
median wall time.  Human-readable lines come first; the last line of stdout
is the JSON result.  The samples, the environment and the trace summary are
also written to ``.bench_out/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "gcp_hydro"

MIN_SAMPLES = 3       # timed samples per run, whatever --seconds says;
                      # a traced run takes two of each kind at least
SETUPS_PER_SAMPLE = 2  # set-up-only processes after each timed sample, for setup_s
HARD_LIMIT_S = 160.0  # no new sample starts after this; the run must end by 180 s


class SampleFailed(Exception):
    """A worker exited non-zero or timed out after it reported ready."""


class SetupFailed(Exception):
    """A worker did not get as far as a validated config."""


def environment(seed):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": None, "git_commit": commit,
            "src_sha256": digest.hexdigest(), "workers": 1, "seed": seed}


def worker_env():
    env = dict(os.environ)
    env["GCP_HYDRO_WORKERS"] = "1"
    env.pop("GCP_HYDRO_SEED", None)
    return env


def spawn(args, mode, deadline):
    """Run one worker; returns (setup_s, sample dict or None for set-up only)."""
    out = ROOT / ".bench_out" / args.workload / mode
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--size", args.size, "--out", str(out)]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.perf_counter(), 0))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - started
        if line.strip() != "ready":
            proc.kill()
            proc.wait()
            raise SetupFailed(f"{mode} worker did not reach a validated config "
                              f"(exit code {proc.returncode})")
        try:
            rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SampleFailed(f"{mode} worker overran the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise SampleFailed(f"{mode} worker exited with code {proc.returncode}")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def collect(args):
    """Run the samples; returns (setup times, samples by mode, failures)."""
    modes = ("untraced", "traced") if args.trace else ("untraced",)
    extra_setups = 0 if args.trace else SETUPS_PER_SAMPLE
    started = time.perf_counter()
    deadline = started + 175.0
    setups, samples, failures, durations = [], {m: [] for m in modes}, [], []
    for i in itertools.count():
        mode = modes[i % len(modes)]
        t0 = time.perf_counter()
        try:
            setup_s, sample = spawn(args, mode, deadline)
        except SampleFailed as exc:
            failures.append(f"{mode}: {exc}")
            print(f"sample failed: {exc}", file=sys.stderr)
        else:
            setups.append(setup_s)
            samples[mode].append(sample)
            for problem in sample["problems"]:
                print(f"verification failed: {problem}", file=sys.stderr)
        for _ in range(extra_setups):
            setups.append(spawn(args, "setup", deadline)[0])
        now = time.perf_counter()
        durations.append(now - t0)
        typical = statistics.median(durations)
        enough = i + 1 >= max(MIN_SAMPLES, 2 * len(modes))
        done = enough and now + typical > started + args.seconds
        if done or now + typical > started + HARD_LIMIT_S:
            break
    return setups, samples, failures


def end_to_end(setups, untraced):
    return {
        "setup_s": setups,
        "wall_s": [s["wall_s"] for s in untraced],
        "replicas_per_s": [s["replicas"] / s["wall_s"] for s in untraced],
        "peak_rss_mb": [s["peak_rss_mb"] for s in untraced],
    }


def per_layer(untraced, traced):
    names = traced[0]["layers"]
    values = {name: [s["layers"][name] for s in traced] for name in names}
    values["trace.overhead"] = [statistics.median(s["wall_s"] for s in traced)
                                / statistics.median(s["wall_s"] for s in untraced)]
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every workload for the harness self-check")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"benchmark: package sources not found under {PACKAGE.relative_to(ROOT)}",
              file=sys.stderr)
        return 2
    # a terminated run still stops its worker: SystemExit unwinds through spawn()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(args.seed)
    try:
        setups, samples, failures = collect(args)
    except SetupFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    untraced, traced = samples["untraced"], samples.get("traced", [])
    if not untraced or (args.trace and not traced):
        print("benchmark: no sample completed", file=sys.stderr)
        return 1
    env["numpy"] = untraced[0]["numpy"]

    attempted = len(failures) + sum(len(v) for v in samples.values())
    failed = len(failures) + sum(bool(s["problems"]) for v in samples.values() for s in v)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    series = per_layer(untraced, traced) if args.trace else end_to_end(setups, untraced)
    metrics = {m["name"]: {"value": statistics.median(series[m["name"]]), "unit": m["unit"]}
               for m in wanted}

    print(f"workload {args.workload} ({args.size}): seed {args.seed}, "
          f"{len(untraced)} untraced and {len(traced)} traced samples, "
          f"{len(setups)} set-ups")
    print("env: " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    for m in wanted:
        vals = series[m["name"]]
        q1, q2, q3 = quartiles(vals)
        print(f"  {m['name']:<28} {q2:>14.6g} {m['unit']:<15} "
              f"median of {len(vals)} (q1 {q1:.6g}, q3 {q3:.6g})")
    print(f"  failed_share {failed}/{attempted} = {failed / attempted:.6g}")
    if args.trace:
        absent = sorted({a for s in traced for a in s["absent_targets"]})
        absent_metrics = sorted({a for s in traced for a in s["absent_metrics"]})
        if absent:
            print(f"  absent targets (their metrics read 0): {', '.join(absent)}")
            print(f"  absent metrics: {', '.join(absent_metrics)}")
        self_sum = statistics.median(s["self_sum_s"] for s in traced)
        wall = statistics.median(s["wall_s"] for s in untraced)
        print(f"  per-layer self times sum to {self_sum:.6g} s = "
              f"{self_sum / wall:.4f} x untraced wall_s {wall:.6g} s "
              f"(trace.overhead {metrics['trace.overhead']['value']:.4f})")

    detail = {"workload": args.workload, "size": args.size, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "setup_s": setups, "samples": samples, "failures": failures,
              "metrics": metrics}
    out = ROOT / ".bench_out" / args.workload / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(detail, indent=1) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
