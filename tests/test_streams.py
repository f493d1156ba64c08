"""The random streams, pinned: sha256 digests of two small runs' CSVs, and
the Philox rounds a replica task draws for the blocks it steps together.

A replica's path is a pure function of (seed, n, replica), so a refactor of
the simulator or of the replica driver must leave these bytes alone.  A
deliberate change of streams updates the digests and says so in CHANGES.md.
Each run spans several blocks of lanes at some size, the last one partial.
``clt_counts.csv`` holds each replica's state counts, which depend on the
streams alone; ``clt.csv`` and ``lln.csv`` also read the density solve, so a
change to the convolution arithmetic moves them and leaves the counts alone.
"""

import hashlib

import pytest

from gcp_hydro.experiments import _replica_tasks, _system, load_config, run
from gcp_hydro.gcp import Simulation, block_lanes
from gcp_hydro.hydro import final_density

PINNED = {
    # n = 256 runs 372 lanes per block: 500 replicas are one full and one partial block
    "clt-check": (["replicas=500", "n_list=[256]", "seed=1"], {
        "clt.csv": "f7047f5fe1bdd3e2be1e7fddd3dea734d2b489193b20c6d54ea5796cd8cbe10c",
        "clt_counts.csv": "2e34b064e6fc640ee93942e9d0b91647c3df4e720af131283305329fee0383c7"}),
    # 1, 2 and 3 blocks at n = 128, 256 and 512 (682, 372 and 195 lanes)
    "lln-rate": (["replicas=500", "n_list=[128, 256, 512]", "times=[0.5]", "seed=1"], {
        "lln.csv": "161ea21fb98229b97d13cef3a3f2f971ecb5fe405ed9e766529e4756ed3e7967"}),
}


@pytest.mark.parametrize("experiment", sorted(PINNED))
def test_stream_digest_pinned(experiment, tmp_path):
    overrides, digests = PINNED[experiment]
    run(load_config(experiment, None, overrides), str(tmp_path))
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in digests} == digests


def test_task_draws_each_blocks_rounds_once(monkeypatch):
    # a task steps whole blocks as one Simulation, and a vectorized step draws
    # one round per block it steps: the task draws exactly the rounds of its
    # blocks stepped alone, in as many steps as the longest of them takes
    cfg = load_config("clt-check", None, ["replicas=1000", "n_list=[256]", "times=[0.1]"])
    n, t, replicas = 256, 0.1, cfg["replicas"]
    lanes = block_lanes(n)
    assert 2 * lanes < replicas < 3 * lanes  # three blocks, the last partial
    monkeypatch.delenv("GCP_HYDRO_WORKERS", raising=False)
    calls = {"_draws": 0, "_round_columns": 0}

    def counted(name):
        method = getattr(Simulation, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper
    for name in calls:
        monkeypatch.setattr(Simulation, name, counted(name))
    params, u0 = _system(cfg, n)
    alone = []
    for lo in range(0, replicas, lanes):
        calls.update(dict.fromkeys(calls, 0))
        sim = Simulation(u0, params, cfg["seed"], range(lo, min(lo + lanes, replicas)))
        sim.simulate_until([t])
        assert sim.rounds == calls["_round_columns"] == calls["_draws"] > 0
        alone.append(dict(calls))
    calls.update(dict.fromkeys(calls, 0))
    u_t, _ = final_density(u0, params, t, cfg["h"])
    _, counters = _replica_tasks(cfg, n, t, u_t)
    assert counters["replicas"] == replicas and counters["events"] > 0
    assert calls["_round_columns"] == counters["rounds"] == sum(
        c["_round_columns"] for c in alone)
    assert calls["_draws"] == max(c["_draws"] for c in alone)
