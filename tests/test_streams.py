"""The random streams, pinned: sha256 digests of two small runs' CSVs, and
replica results independent of how many blocks of lanes a pass steps.

A replica's path is a pure function of (seed, n, replica), so a refactor of
the simulator or of the replica driver must leave these bytes alone.  A
deliberate change of streams updates the digests and says so in CHANGES.md.
Each run spans several blocks of lanes at some size, the last one partial.
"""

import hashlib

import numpy as np
import pytest

from gcp_hydro import gcp
from gcp_hydro.experiments import (_density_at, _fluctuation_batch, _lln_batch, _system,
                                   load_config, run)
from gcp_hydro.gcp import block_lanes, pass_lanes

PINNED = {
    # n = 64 runs 256 lanes per block: 500 replicas are one full and one partial block
    "clt-check": (["replicas=500", "n_list=[64]", "seed=1"], "clt.csv",
                  "645480969ebf8c8b393744ccee080eb2a42b6a6f1765e840b4498db595b1beb0"),
    # 1, 2 and 4 blocks at n = 32, 64 and 128
    "lln-rate": (["replicas=500", "n_list=[32, 64, 128]", "times=[0.5]", "seed=1"],
                 "lln.csv", "fe34e13367bc532d3554c8bd3f04ad12fc62f744a0a5933f248ee4c9bc5d3698"),
}


@pytest.mark.parametrize("experiment", sorted(PINNED))
def test_stream_digest_pinned(experiment, tmp_path):
    overrides, csv_name, digest = PINNED[experiment]
    run(load_config(experiment, None, overrides), str(tmp_path))
    assert hashlib.sha256((tmp_path / csv_name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("batch, overrides, n", [
    # 512 lanes a block at n = 32: two full blocks and a partial one
    (_fluctuation_batch, ["replicas=1300", "n_list=[32]", "seed=3"], 32),
    # 1024 lanes a block at n = 16
    (_lln_batch, ["replicas=2600", "n_list=[8, 16, 32]", "times=[0.5]", "seed=3"], 16),
], ids=["fluctuation", "lln"])
def test_pass_width_leaves_results_and_counters_unchanged(batch, overrides, n, monkeypatch):
    # a pass steps whole blocks together; one block a pass, two (so the last
    # pass is one partial block) and all three (ending in a partial block)
    # must give the same arrays and simulator counters
    cfg = load_config("lln-rate" if batch is _lln_batch else "clt-check", None, overrides)
    t = cfg["times"][-1]
    params = _system(cfg, n)[1]
    u_t = _density_at(cfg, n, t)
    width = block_lanes(params.lattice.n_sites)
    runs = []
    for blocks in (1, 2, 3):
        lane_bytes = 10 * params.lattice.n_sites + 8 * params.kernel.rank + gcp.LANE_BYTES
        monkeypatch.setattr(gcp, "PASS_BYTES", blocks * width * lane_bytes)
        assert pass_lanes(params) == blocks * width
        runs.append(batch((cfg, n, t, 0, cfg["replicas"], u_t)))
    (first, counters), rest = runs[0], runs[1:]
    assert counters["replicas"] == cfg["replicas"] and counters["toggles"] > 0
    for arrays, other in rest:
        assert other == counters
        for a, b in zip(first, arrays):
            assert (a is None and b is None) or np.array_equal(a, b)
