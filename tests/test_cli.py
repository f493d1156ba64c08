import collections
import csv
import json

import numpy as np
import pytest
import yaml

from gcp_hydro import entropy, experiments, fields
from gcp_hydro.cli import main
from gcp_hydro.experiments import (_RUNNERS, DEFAULTS, HEADERS, TAKES, ConfigError,
                                   _system, load_config, run, validate)
from gcp_hydro.hydro import integrate
from gcp_hydro.io_utils import CSV_CHUNK_ROWS, write_csv, write_json

GOLDEN_HEADERS = {
    "convergence": "n,sup_error",
    "lln": "n,f,state,replicas,mean_sq_error,se",
    "clt_detail": "replica,t,state,f,lln_error,fluctuation",
    "qv": "t,f,i,j,enumerated_mean,gamma_weighted_sum,abs_diff",
    "cov": "f,g,i,j,empirical,predicted,se,within_4se",
    "entropy": "t,entropy,production_rhs,envelope",
    "concentration": "check,parameter,empirical,bound,slack,passed",
}


def _least_component(cfg, sides):
    """The least density component over the solves to times[-1] on each side,
    read from the trajectories themselves."""
    return min(float(integrate(u0, params, cfg["times"][-1], cfg["h"]).u.min())
               for params, u0 in (_system(cfg, n) for n in sides))


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
    assert meta["schema_version"] == 2
    # qv-check runs no simulator; its density solve is 50 steps (t = 0.5, h = 0.01),
    # and the constant kernel convolves through its factors
    assert meta["metrics"] == {
        "ode": {"steps": 50, "renormalizations": 0,
                "min_component": _least_component(cfg, [4])},
        "kernel": {"engine": {"4": "factors"}}}
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
    # replicas span at least 3 blocks of lanes at every size, the last one
    # partial (block_lanes gives 682, 372 and 195 lanes at n = 128, 256,
    # 512), so two workers really split the blocks between them
    runs = {"lln-rate": (["replicas=1400", "n_list=[128, 256, 512]", "times=[0.1]",
                          "h=0.02"], "lln.csv"),
            "clt-check": (["replicas=1400", "n_list=[128]", "times=[0.1]", "h=0.02"],
                          "clt.csv"),
            "init-cov": (["replicas=1400", "n_list=[128]", "times=[0.1]", "h=0.02"],
                         "cov.csv")}
    for experiment, (overrides, csv_name) in runs.items():
        payloads, counters, solves, kernels = [], [], [], []
        for workers in ("1", "2"):
            monkeypatch.setenv("GCP_HYDRO_WORKERS", workers)
            out = tmp_path / f"{experiment}-w{workers}"
            run(load_config(experiment, None, overrides), str(out))
            payloads.append((out / csv_name).read_bytes())
            metrics = json.loads((out / "run.json").read_text())["metrics"]
            counters.append(metrics["simulator"])
            solves.append(metrics["ode"])
            kernels.append(metrics["kernel"])
        assert payloads[0] == payloads[1]
        assert counters[0] == counters[1]
        assert solves[0] == solves[1]
        assert kernels[0] == kernels[1]
        # lln-rate sums its three solves of 5 steps (t = 0.1, h = 0.02) and
        # takes the least component over them, not the sum
        sides = [128, 256, 512] if experiment == "lln-rate" else [128]
        cfg = load_config(experiment, None, overrides)
        assert solves[0] == {"steps": 5 * len(sides), "renormalizations": 0,
                             "min_component": _least_component(cfg, sides)}
        assert kernels[0] == {"engine": {str(n): "factors" for n in sides}}
        assert counters[0]["events"] > 0
        assert counters[0]["proposals"] >= counters[0]["events"]
        assert counters[0]["passive_proposals"] >= counters[0]["passive_accepted"]


class _ReadRecorder(dict):
    """A config that records which of its top-level keys a runner reads."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


@pytest.mark.parametrize("experiment, overrides", [
    ("hydro-converge", ["n_list=[4, 8, 16]", "n_ref=32", "times=[0.1]", "h=0.05"]),
    ("lln-rate", ["replicas=4", "n_list=[4, 8, 16]", "times=[0.1]", "h=0.05"]),
    ("clt-check", ["replicas=500", "n_list=[8]", "times=[0.1]", "h=0.05"]),
    ("qv-check", ["times=[0.0, 0.1]"]),
    ("init-cov", ["replicas=500", "n_list=[8]"]),
    ("entropy-exact", ["times=[0.1]"]),
    ("concentration", ["replicas=10000", "matrix_size=4"]),
])
def test_every_default_key_is_read(monkeypatch, experiment, overrides):
    # a default key no runner reads looks as if it shaped the run; run()
    # echoes seed into run.json, so seed counts as read everywhere
    monkeypatch.delenv("GCP_HYDRO_WORKERS", raising=False)
    cfg = _ReadRecorder(load_config(experiment, None, overrides + ["workers=1"]))
    assert validate(cfg) == []
    cfg.read.clear()
    _RUNNERS[experiment](cfg)
    assert set(DEFAULTS[experiment]) - cfg.read - {"seed"} == set()


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


def test_validate_only_needs_no_out_and_a_run_does(capsys):
    assert main(["qv-check", "--validate-only"]) == 0
    assert capsys.readouterr().out == "config ok\n"
    with pytest.raises(SystemExit) as exc:
        main(["qv-check"])
    assert exc.value.code == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err


def test_a_time_off_the_step_grid_is_config_error(tmp_path, capsys):
    # qv-check looks every time up on the grid of step h; 0.003 is no point of
    # it, which validation passed and the run ended in a traceback from grid_index
    for flags in (["--out", str(tmp_path / "q")], ["--validate-only"]):
        assert main(["qv-check", "--set", "times=[0.003, 0.5]"] + flags) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: times: time 0.003 is not on the grid 0.0..0.5 (h=0.01)"]
    assert not (tmp_path / "q").exists()
    assert validate(load_config("qv-check", None, ["times=[0.0, 0.03, 0.5]"])) == []


def test_kernel_engine_is_reported_by_the_spec(tmp_path):
    # a tabulated kernel convolves through its factors (P the identity, Q
    # its transposed table); a run without a kernel reports none
    table = tmp_path / "kernel.csv"
    table.write_text("".join(f"{x},{y},1.0\n" for x in range(4) for y in range(4)))
    kernel = ["kernel.name=tabulated", f"kernel.path={table}", "kernel.n_sites=4"]
    assert main(["entropy-exact", *(arg for o in kernel + ["times=[0.1]"]
                                    for arg in ("--set", o)),
                 "--out", str(tmp_path / "e")]) == 0
    meta = json.loads((tmp_path / "e" / "run.json").read_text())
    assert meta["metrics"]["kernel"] == {"engine": {"4": "factors"}}
    assert main(["concentration", "--set", "replicas=10000", "--set", "matrix_size=4",
                 "--out", str(tmp_path / "c")]) == 0
    assert "kernel" not in json.loads((tmp_path / "c" / "run.json").read_text())["metrics"]


@pytest.mark.parametrize("experiment, override, field", [
    ("clt-check", "replicas=100", "replicas"),     # normality diagnostics need 500
    ("lln-rate", "n_list=[8, 16]", "n_list"),      # the rate fit needs 3 sizes
    ("init-cov", "replicas=1", "replicas"),        # normality diagnostics need 500
    ("concentration", "replicas=100", "replicas"), # exponential moments need 1e4
    ("clt-check", "state=5", "state"),             # k = 1: states are 0 and 1
    ("lln-rate", "state=-1", "state"),             # u[:, -1] would read state k
    ("clt-check", "note=2026-10-18", "config"),    # a date run.json cannot echo
    # YAML reads yes and true as booleans, and bool subclasses int
    ("clt-check", "seed=yes", "seed"),
    ("lln-rate", "replicas=true", "replicas"),
    ("clt-check", "d=true", "d"),
    ("clt-check", "times=[true]", "times"),
    # numeric keys that used to reach the run unchecked
    ("clt-check", "h=abc", "h"),
    ("clt-check", "workers=abc", "workers"),
    ("clt-check", "skew_limit=abc", "skew_limit"),
    ("init-cov", "kurt_limit=-1", "kurt_limit"),
    ("qv-check", "tolerance=abc", "tolerance"),
    ("concentration", "matrix_size=-3", "matrix_size"),
    ("hydro-converge", "slope_tol=abc", "slope_tol"),  # failed after the whole study
    ("lln-rate", "slope_target=abc", "slope_target"),
    # validate itself raised on these, or passed them to a run that raised
    ("hydro-converge", "n_list=[a, 8, 16]", "n_list"),
    ("hydro-converge", "n_list=[0, 8, 16]", "n_list"),
    ("lln-rate", "n_list=16", "n_list"),
    ("clt-check", "times=0.5", "times"),
    ("hydro-converge", "n_ref=0", "n_ref"),
    ("lln-rate", "functions=[{name: nope}]", "functions"),
    ("clt-check", "functions=[{name: cos, mode: a}]", "functions"),
    ("lln-rate", "functions=[]", "functions"),
    # functions that build but cannot be evaluated on the d = 1 lattice
    ("lln-rate", "functions=[{name: cos, mode: [1, 2]}]", "functions"),
    ("clt-check", "functions=[{name: bump, center: [0.5, 0.5]}]", "functions"),
    ("init-cov", "functions=[{name: tabulated, values: [1, 2, 3]}]", "functions"),
    # keys the experiment never reads: the run used to ignore them
    ("clt-check", "replica=600", "replica"),
    ("qv-check", "state=1", "state"),
    ("entropy-exact", "slope_target=-1.0", "slope_target"),
    ("hydro-converge", "dump_configs=true", "dump_configs"),
    ("concentration", "d=2", "d"),
    ("concentration", "kernel.name=cosine", "kernel"),
    ("hydro-converge", "replicas=1", "replicas"),
    ("qv-check", "replicas=1", "replicas"),
    ("entropy-exact", "replicas=1", "replicas"),
])
def test_unrunnable_sizes_are_config_errors(tmp_path, capsys, experiment, override, field):
    # each used to fail inside the run (traceback or nan rows) with exit 1,
    # the code of a failed threshold; the date left CSVs without a run.json
    rc = main([experiment, "--set", override, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment, var, value, field", [
    # a bare int() used to end these in a ValueError traceback and exit 1
    ("qv-check", "GCP_HYDRO_SEED", "abc", "seed"),
    ("lln-rate", "GCP_HYDRO_SEED", "-3", "seed"),
    ("lln-rate", "GCP_HYDRO_WORKERS", "abc", "workers"),
    ("clt-check", "GCP_HYDRO_WORKERS", "abc", "workers"),
    ("init-cov", "GCP_HYDRO_WORKERS", "abc", "workers"),
    # and these silently ran on one worker, where workers: 0 is rejected
    ("lln-rate", "GCP_HYDRO_WORKERS", "0", "workers"),
    ("lln-rate", "GCP_HYDRO_WORKERS", "-3", "workers"),
])
def test_bad_environment_values_are_config_errors(tmp_path, capsys, monkeypatch, experiment,
                                                  var, value, field):
    monkeypatch.setenv(var, value)
    rc = main([experiment, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment, override, field", [
    ("hydro-converge", "times=[0.5, 1.0]", "times"),
    ("lln-rate", "times=[0.5, 1.0]", "times"),
    ("clt-check", "times=[0.1, 0.5]", "times"),
    ("init-cov", "times=[0.0, 0.5]", "times"),
    ("entropy-exact", "times=[0.5, 1.0]", "times"),
    ("clt-check", "n_list=[64, 128]", "n_list"),
    ("init-cov", "n_list=[64, 128]", "n_list"),
    ("qv-check", "n_list=[2, 4]", "n_list"),
    ("entropy-exact", "n_list=[2, 4]", "n_list"),
    ("init-cov", "state=[0, 2]", "state"),
    ("lln-rate", "state=[1, 2]", "state"),
])
def test_entries_an_experiment_would_drop_are_config_errors(capsys, experiment, override,
                                                           field):
    # each experiment observes only the times, sizes and states it says it
    # does; a list entry it would silently skip is a config error
    assert main([experiment, "--set", override, "--validate-only", "--out", "unused"]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, override, field", [
    ("clt-check", "tolerance=abc", "tolerance"),
    ("entropy-exact", "slope_target=x", "slope_target"),
    ("hydro-converge", "state=9", "state"),
])
def test_a_key_the_experiment_does_not_take_is_reported_once(capsys, experiment, override,
                                                            field):
    # the value rules run only where the experiment declares the key, so an
    # unread key with a bad value gives one line, not an unread line and a
    # value line
    assert main([experiment, "--set", override, "--validate-only", "--out", "unused"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {field}: {experiment} reads no such key"]


def test_entries_an_experiment_observes_are_valid():
    assert validate(load_config("init-cov", None, ["state=1"])) == []
    assert "state" not in load_config("init-cov")  # no state key: every state
    assert validate(load_config("qv-check", None, ["times=[0.0, 0.5]"])) == []


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
    # a 4-site table with a negative or nan entry fits the lattice but is no
    # kernel: it used to pass validation and end the run in a traceback
    for entry in ("-1.0", "nan"):
        table.write_text(f"0,1,{entry}\n1,0,1.0\n2,3,1.0\n")
        kernel = ["--set", "kernel.name=tabulated", "--set", f"kernel.path={table}",
                  "--set", "kernel.n_sites=4"]
        for flags in (["--out", str(tmp_path / "e")],
                      ["--validate-only", "--out", str(tmp_path / "e")]):
            assert main(["entropy-exact"] + kernel + flags) == 2
            assert "config error: kernel:" in capsys.readouterr().err
            assert not (tmp_path / "e").exists()


def test_a_profile_that_does_not_evaluate_is_config_error(capsys):
    # a mode with more entries than d builds, then broke the run's first
    # profile_field with a broadcast ValueError traceback
    overrides = ["profile.name=cosine-simplex", "profile.base=[0.5, 0.5]",
                 "profile.delta=[0.1, -0.1]", "profile.mode=[1, 2]"]
    assert main(["entropy-exact", "--validate-only", "--out", "unused"]
                + [arg for o in overrides for arg in ("--set", o)]) == 2
    assert capsys.readouterr().err.startswith("config error: profile:")


def test_validate_builds_but_never_solves_or_simulates(monkeypatch):
    # the dry build stops short of the ODE and the replicas: each solver and
    # sampler the runners call raises here, and every default config validates
    def refuse(*args, **kwargs):
        raise AssertionError("validate solved or simulated")
    for name in ("integrate", "final_density", "convergence_study", "Simulation"):
        monkeypatch.setattr(experiments, name, refuse)
    # the entropy runner imports its engine when it runs
    for name in ("entropy_production_check", "MasterOperator"):
        monkeypatch.setattr(entropy, name, refuse)
    for name in DEFAULTS:
        assert validate(load_config(name)) == []


def test_takes_has_one_entry_per_experiment():
    assert set(TAKES) == set(DEFAULTS)


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


@pytest.mark.parametrize("experiment, overrides, blocks, marginals", [
    # 372 lanes per block at n = 256: 500 replicas are two blocks
    ("clt-check", ["functions=[{name: constant}, {name: cos, mode: 1}]"], 2, 2),
    ("init-cov", [], 2, 9),  # three functions x three states
])
def test_each_block_pairs_each_marginal_once(tmp_path, monkeypatch, experiment, overrides,
                                             blocks, marginals):
    monkeypatch.delenv("GCP_HYDRO_WORKERS", raising=False)
    calls, pairing = collections.Counter(), fields.pairing

    def counted(w, f, i):
        calls[f.name, i] += 1
        return pairing(w, f, i)
    # the scalings lln_error and fluctuation pair through fields.pairing:
    # counting both names catches a block that pairs a marginal twice
    monkeypatch.setattr(experiments, "pairing", counted)
    monkeypatch.setattr(fields, "pairing", counted)
    cfg = load_config(experiment, None, overrides + [
        "replicas=500", "n_list=[256]", "times=[0.1]", "h=0.02"])
    run(cfg, str(tmp_path))
    assert len(calls) == marginals
    assert set(calls.values()) == {blocks}


def test_lln_rate_and_clt_check_run_the_same_task(tmp_path):
    # one system, seed, time, state and functions: lln-rate's mean squared
    # error at n = 16 is the mean of clt-check's squared lln_error
    lln = DEFAULTS["lln-rate"]
    shared = ["seed=7", "replicas=500", "times=[0.5]", "k=2", "state=2",
              f"profile={json.dumps(lln['profile'])}",
              f"functions={json.dumps(lln['functions'])}"]
    run(load_config("lln-rate", None, shared + ["n_list=[16, 32, 64]"]), str(tmp_path / "lln"))
    run(load_config("clt-check", None, shared + ["n_list=[16]"]), str(tmp_path / "clt"))
    with open(tmp_path / "lln" / "lln.csv", newline="") as fh:
        means = {row["f"]: float(row["mean_sq_error"])
                 for row in csv.DictReader(fh) if row["n"] == "16"}
    with open(tmp_path / "clt" / "clt.csv", newline="") as fh:
        errors = collections.defaultdict(list)
        for row in csv.DictReader(fh):
            errors[row["f"]].append(float(row["lln_error"]))
    assert sorted(means) == sorted(errors) == ["constant", "cos"]
    for name, column in errors.items():
        assert len(column) == 500
        assert means[name] == float(np.mean(np.square(column)))


def test_config_file_roundtrip_through_cli(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"times": [0.0, 0.25], "h": 0.05}))
    rc = main(["qv-check", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0
    meta = json.loads((tmp_path / "o" / "run.json").read_text())
    assert meta["config"]["times"] == [0.0, 0.25]


def _entropy_exact_metrics(tmp_path, *overrides):
    """metrics.entropy and metrics.ode of a 10-step entropy-exact run at n = 4,
    checked for what every engine reports."""
    overrides = ("n_list=[4]", "times=[0.1]", "h=0.01") + overrides
    rc = main(["entropy-exact", *(arg for o in overrides for arg in ("--set", o)),
               "--out", str(tmp_path / "e")])
    assert rc == 0
    meta = json.loads((tmp_path / "e" / "run.json").read_text())
    assert meta["schema_version"] == 2
    entropy, ode = meta["metrics"]["entropy"], meta["metrics"]["ode"]
    assert entropy["states"] == 16
    assert entropy["rk4_steps"] == 10
    assert entropy["master_applies"] == 4 * entropy["rk4_steps"]
    assert entropy["operator_bytes"] > 0
    assert entropy["clamped_mass"] >= 0.0
    assert set(entropy["stage_s"]) == {"density_solve", "operator_build",
                                       "law_stepping", "functionals"}
    assert all(s >= 0.0 for s in entropy["stage_s"].values())
    cfg = load_config("entropy-exact", None, list(overrides))
    assert ode == {"steps": 10, "renormalizations": 0,
                   "min_component": _least_component(cfg, [4])}
    assert meta["metrics"]["kernel"] == {"engine": {"4": "factors"}}
    return entropy


def test_entropy_exact_reports_engine_and_ode_counts(tmp_path):
    # the default config has a constant kernel and profile: 6 orbits of 16 states
    entropy = _entropy_exact_metrics(tmp_path)
    assert entropy["engine"] == "orbits" and entropy["orbits"] == 6


def test_entropy_exact_at_a_varying_profile_steps_every_state(tmp_path):
    entropy = _entropy_exact_metrics(tmp_path, 'profile={"name": "cosine-simplex", '
                                     '"base": [0.5, 0.5], "delta": [0.2, -0.2]}')
    assert entropy["engine"] == "states" and "orbits" not in entropy


@pytest.mark.parametrize("kernel, sides, engines", [
    ("cosine", [8, 16, 32, 64], ["factors"] * 4),
    ("gaussian", [4, 8, 12, 24], ["fft"] * 4),
])
def test_hydro_converge_reports_engines_and_ode_counts(kernel, sides, engines, tmp_path):
    # at every side the cosine kernel convolves through its factors and a
    # gaussian one by FFT; the steps are summed over the reference and the
    # three study lattices
    *n_list, n_ref = sides
    overrides = ["d=2", f"kernel={{name: {kernel}}}", f"n_list={n_list}", f"n_ref={n_ref}",
                 "times=[0.2]", "h=0.05"]
    main(["hydro-converge", *(arg for o in overrides for arg in ("--set", o)),
          "--out", str(tmp_path / "h")])
    meta = json.loads((tmp_path / "h" / "run.json").read_text())
    assert meta["metrics"]["kernel"]["engine"] == {str(n): e for n, e in zip(sides, engines)}
    cfg = load_config("hydro-converge", None, overrides)
    assert meta["metrics"]["ode"] == {"steps": 4 * 4, "renormalizations": 0,
                                      "min_component": _least_component(cfg, sides)}


def test_write_json_encodes_numpy_scalars_and_rejects_the_rest(tmp_path):
    # a NumPy bool used to be written as the string "False", which any JSON
    # reader takes as true
    path = tmp_path / "side.json"
    write_json(path, {"ok": np.bool_(False), "x": np.float64(0.25), "n": np.int64(3)})
    assert json.loads(path.read_text()) == {"ok": False, "x": 0.25, "n": 3}
    assert '"ok": false' in path.read_text()
    with pytest.raises(TypeError, match="set"):
        write_json(tmp_path / "bad.json", {"s": {1, 2}})


def test_write_csv_formats_each_type_and_rejects_ragged_rows(tmp_path):
    # a column is formatted with one formatter for its type; a column of
    # mixed types falls back to a formatter per cell, with the same text
    rows = [(0.1, np.float64(1 / 3), True, np.bool_(False), np.int64(7), 3, "cos", 2.0)
            for _ in range(CSV_CHUNK_ROWS + 1)]
    rows[-1] = (np.float64(0.1), 1 / 3, np.bool_(True), False, 7, np.int32(3), "cos", 2)
    path = tmp_path / "t.csv"
    write_csv(path, list("abcdefgh"), rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c,d,e,f,g,h"
    assert set(lines[1:-1]) == {"0.1,0.3333333333333333,1,0,7,3,cos,2.0"}
    assert lines[-1] == "0.1,0.3333333333333333,1,0,7,3,cos,2"
    assert len(lines) == CSV_CHUNK_ROWS + 2
    write_csv(path, ["a"], iter([]))
    assert path.read_text() == "a\n"
    with pytest.raises(ValueError, match="header"):
        write_csv(path, ["a", "b"], [(1, 2), (3,)])
