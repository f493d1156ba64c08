import json

import pytest
import yaml

from gcp_hydro.cli import main
from gcp_hydro.experiments import (DEFAULTS, HEADERS, ConfigError, load_config,
                                   run, validate)

GOLDEN_HEADERS = {
    "convergence": "n,sup_error",
    "lln": "n,f,state,replicas,mean_sq_error,se",
    "clt_detail": "replica,t,state,f,lln_error,fluctuation",
    "qv": "t,f,i,j,enumerated_mean,gamma_weighted_sum,abs_diff",
    "init_cov": "f,g,i,j,empirical,predicted,se,within_4se",
    "entropy": "t,entropy,production_rhs,envelope",
    "concentration": "check,parameter,empirical,bound,slack,passed",
}


def test_headers_are_pinned():
    assert set(HEADERS) == set(GOLDEN_HEADERS)
    for key, header in HEADERS.items():
        assert ",".join(header) == GOLDEN_HEADERS[key]


def test_validate_default_configs_clean():
    for name in DEFAULTS:
        cfg = load_config(name)
        assert validate(cfg) == []


def test_validate_names_offending_fields():
    cfg = load_config("lln-rate")
    cfg["replicas"] = 0
    cfg["times"] = []
    cfg["profile"] = {"name": "constant", "values": [0.0, 0.5, 0.5]}
    violations = validate(cfg)
    joined = "\n".join(violations)
    assert "replicas:" in joined
    assert "times:" in joined
    assert "profile:" in joined


def test_validate_h1_interior_requirement():
    cfg = load_config("clt-check")
    cfg["profile"] = {"name": "cosine-simplex", "base": [0.5, 0.5],
                      "delta": [0.5, -0.5], "mode": 1}
    assert any(v.startswith("profile:") for v in validate(cfg))


def test_validate_unsorted_times_and_state_cap():
    cfg = load_config("qv-check")
    cfg["times"] = [0.5, 0.5]
    assert any("strictly increasing" in v for v in validate(cfg))
    cfg2 = load_config("entropy-exact")
    cfg2["n_list"] = [24]
    assert any("exceeds the cap" in v for v in validate(cfg2))


def test_load_config_merges_file_and_overrides(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"replicas": 7, "kernel": {"beta": 0.25}}))
    cfg = load_config("lln-rate", path, ["a=2.5", "kernel.name=cosine"])
    assert cfg["replicas"] == 7
    assert cfg["kernel"] == {"name": "cosine", "beta": 0.25}
    assert cfg["a"] == 2.5
    with pytest.raises(ConfigError, match="key=value"):
        load_config("lln-rate", None, ["oops"])
    with pytest.raises(ConfigError, match="unknown experiment"):
        load_config("nope")


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("GCP_HYDRO_SEED", "777")
    cfg = load_config("qv-check")
    assert cfg["seed"] == 777


def test_run_qv_check_end_to_end(tmp_path):
    cfg = load_config("qv-check")
    result = run(cfg, str(tmp_path))
    assert result.passed is True
    csv = (tmp_path / "qv.csv").read_text().splitlines()
    assert csv[0] == GOLDEN_HEADERS["qv"]
    assert len(csv) > 1
    # cells are plain round-trippable literals, never numpy scalar reprs
    assert all("(" not in line for line in csv[1:])
    for cell in csv[1].split(",")[2:]:
        float(cell)
    meta = json.loads((tmp_path / "run.json").read_text())
    assert meta["status"] == "pass"
    assert meta["schema_version"] == 1
    assert meta["seed"] == cfg["seed"]
    assert "config_sha256" in meta and len(meta["config_sha256"]) == 64


def test_run_rejects_invalid_config(tmp_path):
    cfg = load_config("lln-rate")
    cfg["replicas"] = 0
    with pytest.raises(ConfigError, match="replicas"):
        run(cfg, str(tmp_path))


def _small_lln_config():
    return ["replicas=6", "n_list=[8, 16, 32]", "times=[0.3]", "h=0.02"]


def test_run_determinism_bit_identical(tmp_path):
    outs = []
    for sub in ("a", "b"):
        cfg = load_config("lln-rate", None, _small_lln_config())
        out = tmp_path / sub
        run(cfg, str(out))
        outs.append((out / "lln.csv").read_bytes())
    assert outs[0] == outs[1]


def test_run_worker_count_invariance(tmp_path, monkeypatch):
    payloads = []
    for workers in ("1", "2"):
        monkeypatch.setenv("GCP_HYDRO_WORKERS", workers)
        cfg = load_config("lln-rate", None, _small_lln_config())
        out = tmp_path / f"w{workers}"
        run(cfg, str(out))
        payloads.append((out / "lln.csv").read_bytes())
    assert payloads[0] == payloads[1]


def test_cli_main_exit_codes(tmp_path):
    # invalid config -> 2
    rc = main(["lln-rate", "--set", "replicas=0", "--out", str(tmp_path / "x")])
    assert rc == 2
    # passing run -> 0
    rc = main(["qv-check", "--out", str(tmp_path / "q")])
    assert rc == 0
    # validate-only path
    rc = main(["entropy-exact", "--validate-only", "--out", str(tmp_path / "v")])
    assert rc == 0
    assert not (tmp_path / "v").exists()


def test_tabulated_kernel_size_mismatch_is_config_error(tmp_path, capsys):
    # a 2-site table cannot serve the study's lattices: exit 2 before any run
    table = tmp_path / "kernel.csv"
    table.write_text("0,1,1.0\n1,0,1.0\n")
    rc = main(["hydro-converge", "--set", "kernel.name=tabulated",
               "--set", f"kernel.path={table}", "--set", "kernel.n_sites=2",
               "--out", str(tmp_path / "h")])
    assert rc == 2
    assert "config error: kernel: tabulated kernel has 2 sites" in capsys.readouterr().err
    assert not (tmp_path / "h").exists()
    # a table that matches the one lattice passes validation
    cfg = load_config("entropy-exact", None, ["kernel.name=tabulated",
                                              f"kernel.path={table}", "kernel.n_sites=2",
                                              "n_list=[2]"])
    assert validate(cfg) == []


def test_cli_threshold_failure_exit_code(tmp_path):
    # a deliberately noisy slope target cannot be met: 2 replicas, tight band
    rc = main(["lln-rate", "--set", "replicas=4", "--set", "n_list=[8, 16, 32]",
               "--set", "times=[0.2]", "--set", "h=0.02",
               "--set", "slope_tol=0.000001", "--out", str(tmp_path / "f")])
    assert rc == 1
    meta = json.loads((tmp_path / "f" / "run.json").read_text())
    assert meta["status"] == "fail"


def test_lln_rate_d2_defaults_target_to_minus_d(tmp_path):
    # the squared error decays as n^-d, so with no slope_target set a d=2
    # run is held to -2, not to the d=1 slope
    rc = main(["lln-rate", "--set", "d=2", "--set", "n_list=[4, 8, 16]",
               "--set", "replicas=1000", "--out", str(tmp_path / "d2")])
    summary = json.loads((tmp_path / "d2" / "run.json").read_text())["summary"]
    assert summary["slope_target"] == -2.0
    slopes = [v["slope"] for v in summary["slopes"].values()]
    assert all(abs(s + 2.0) <= 0.25 for s in slopes), slopes
    assert rc == 0


def test_clt_check_emits_counts_and_optional_config_dump(tmp_path):
    small = ["replicas=500", "n_list=[16]", "times=[0.1]", "h=0.02"]
    cfg = load_config("clt-check", None, small + ["dump_configs=true"])
    run(cfg, str(tmp_path))
    counts = (tmp_path / "clt_counts.csv").read_text().splitlines()
    assert counts[0] == "replica,t,count_0,count_1"
    assert len(counts) == 501
    row = counts[1].split(",")
    assert int(row[2]) + int(row[3]) == 16
    dump = (tmp_path / "clt_configs.csv").read_text().splitlines()
    assert dump[0] == "replica,t,site,state"
    assert len(dump) == 1 + 500 * 16
    # the dump is off by default
    out2 = tmp_path / "nodump"
    run(load_config("clt-check", None, small), str(out2))
    assert not (out2 / "clt_configs.csv").exists()


def test_config_file_roundtrip_through_cli(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"times": [0.0, 0.25], "h": 0.05}))
    rc = main(["qv-check", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0
    meta = json.loads((tmp_path / "o" / "run.json").read_text())
    assert meta["config"]["times"] == [0.0, 0.25]
