"""Acceptance criteria, one test per criterion.

Each test pins the full parameter set and tolerance inline, prints one
pass/fail line, and asserts.  Monte Carlo criteria use fixed master seeds,
so outcomes are reproducible bit for bit.
"""

import time

import numpy as np

from gcp_hydro.entropy import (StateSpace, F_closed_all, F_direct_all,
                               master_evolve, profile_law,
                               site_state_marginals)
from gcp_hydro.experiments import load_config, run
from gcp_hydro.gcp import Simulation
from gcp_hydro.hydro import DensityField, ModelParams, drift, profile_field
from gcp_hydro.lattice import KernelSpec, TorusLattice, discretize
from gcp_hydro.profiles import InitialProfile

SEED = 20260810


def _report(num, name, ok, detail):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_discretization_rate(tmp_path):
    t0 = time.time()
    # the zero-diagonal lattice equation omits J(x,x) u^k(x) / n^d per site,
    # so it converges at rate n^-d: slope -1 in d=1 (see test_hydro's oracle)
    cfg = load_config("hydro-converge", overrides=[
        "d=1", "k=2", "a=1.0", "kernel.name=cosine", "kernel.beta=0.5",
        "n_list=[16, 32, 64, 128]", "n_ref=512", "times=[1.0]", "h=0.01",
        "slope_target=-1.0", "slope_tol=0.3", f"seed={SEED}",
    ])
    result = run(cfg, str(tmp_path))
    elapsed = time.time() - t0
    slope = result.summary["slope"]
    target, tol = result.summary["slope_target"], result.summary["slope_tol"]
    ok = result.passed and elapsed <= 60.0
    _report(1, "discretization rate", ok,
            f"slope={slope:.4f} target={target}+-{tol}, {elapsed:.1f}s")
    assert elapsed <= 60.0
    assert result.passed, (
        f"log-log slope {slope:.4f} outside {target} +- {tol}")


def test_criterion_2_lln_rate(tmp_path):
    t0 = time.time()
    cfg = load_config("lln-rate", overrides=[
        "d=1", "k=2", "a=1.0", "times=[1.0]", "n_list=[64, 128, 256, 512]",
        "replicas=200", "state=2", "h=0.01", f"seed={SEED}",
    ])
    assert [f["name"] for f in cfg["functions"]] == ["constant", "cos"]
    result = run(cfg, str(tmp_path))
    elapsed = time.time() - t0
    slopes = {k: v["slope"] for k, v in result.summary["slopes"].items()}
    target, tol = result.summary["slope_target"], result.summary["slope_tol"]
    ok = result.passed and elapsed <= 1200.0
    _report(2, "squared-error decay rate", ok,
            f"slopes={ {k: round(v, 3) for k, v in slopes.items()} } "
            f"target={target}+-{tol}, {elapsed:.1f}s")
    assert elapsed <= 1200.0
    assert result.passed, f"slopes {slopes} outside {target} +- {tol}"


def test_criterion_3_initial_covariance(tmp_path):
    t0 = time.time()
    cfg = load_config("init-cov", overrides=[
        "d=1", "k=2", "n_list=[256]", "replicas=5000", f"seed={SEED}",
    ])
    assert [f["name"] for f in cfg["functions"]] == ["constant", "cos", "sin"]
    result = run(cfg, str(tmp_path))
    elapsed = time.time() - t0
    ok = result.passed and elapsed <= 60.0
    _report(3, "initial covariance", ok,
            f"{result.summary['pairs']} (f,g,i,j) combinations within 4 SE, "
            f"{elapsed:.1f}s")
    assert elapsed <= 60.0
    assert result.passed


def test_criterion_4_quadratic_covariation_identity(tmp_path):
    t0 = time.time()
    cfg = load_config("qv-check", overrides=[
        "d=1", "k=1", "n_list=[4]", "times=[0.0, 0.5]", f"seed={SEED}",
    ])
    result = run(cfg, str(tmp_path))
    elapsed = time.time() - t0
    ok = result.passed and elapsed <= 60.0
    _report(4, "quadratic covariation mean identity", ok,
            f"max |enumeration - table| = {result.summary['max_abs_diff']:.3e} "
            f"<= 1e-10, {elapsed:.1f}s")
    assert result.summary["max_abs_diff"] <= 1e-10
    assert result.passed


def test_criterion_5_clt_variance_and_normality(tmp_path):
    t0 = time.time()
    cfg = load_config("clt-check", overrides=[
        "d=1", "k=1", "n_list=[256]", "times=[0.5]", "replicas=2000",
        "state=1", "skew_limit=0.2", "kurt_limit=0.3", f"seed={SEED}",
    ])
    assert cfg["functions"] == [{"name": "constant"}]
    result = run(cfg, str(tmp_path))
    elapsed = time.time() - t0
    s = result.summary
    ok = result.passed and elapsed <= 1800.0
    _report(5, "fluctuation variance and normality", ok,
            f"var emp={s['empirical_variance']:.4f} pred={s['predicted_variance']:.4f} "
            f"(4SE={4 * s['variance_se']:.4f}), skew={s['skewness']:.3f} "
            f"(SE {s['skewness_se']:.3f}), exkurt={s['excess_kurtosis']:.3f} "
            f"(SE {s['kurtosis_se']:.3f}), {elapsed:.1f}s")
    assert elapsed <= 1800.0
    assert abs(s["empirical_variance"] - s["predicted_variance"]) <= 4 * s["variance_se"]
    assert abs(s["skewness"]) < 0.2 and abs(s["excess_kurtosis"]) < 0.3


def test_criterion_6_production_formula_oracle():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    cases = 0
    for n in (2, 3, 4):
        for k in (1, 2):
            lat = TorusLattice(1, n)
            params = ModelParams(1.2, k, discretize(KernelSpec.cosine(0.7), lat))
            space = StateSpace(lat, k)
            for _ in range(100):
                u = rng.uniform(0.05, 1.0, (n, k + 1))
                u /= u.sum(axis=1, keepdims=True)
                uf = DensityField(lat, k, u)
                fc = F_closed_all(space, uf, params)
                fd = F_direct_all(space, uf, drift(uf, params), params)
                worst = max(worst, float(np.max(np.abs(fc - fd))))
                cases += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-10
    _report(6, "production formula oracle", ok,
            f"max deviation {worst:.3e} over {cases} profiles x full state "
            f"spaces, {elapsed:.1f}s")
    assert ok


def test_criterion_7_entropy_production(tmp_path):
    t0 = time.time()
    cfg = load_config("entropy-exact", overrides=[
        "d=1", "k=1", "a=1.0", "kernel.name=constant", "kernel.c=1.0",
        "n_list=[4]", "times=[1.0]", "h=0.01", f"seed={SEED}",
    ])
    result = run(cfg, str(tmp_path))
    elapsed = time.time() - t0
    s = result.summary
    ok = result.passed and elapsed <= 60.0
    _report(7, "entropy production", ok,
            f"H(1)={s['entropy_final']:.4e}, min inequality margin "
            f"{s['min_inequality_margin']:.3e} >= 0, envelope C="
            f"{s['envelope_constant']:.3f}, {elapsed:.1f}s")
    assert s["inequality_holds"]
    assert s["under_envelope"]
    assert result.passed


def test_criterion_8_concentration_suite(tmp_path):
    t0 = time.time()
    cfg = load_config("concentration", overrides=[
        "replicas=20000", "matrix_size=8", f"seed={SEED}",
    ])
    result = run(cfg, str(tmp_path))
    elapsed = time.time() - t0
    ok = result.passed and elapsed <= 60.0
    _report(8, "concentration suite", ok,
            f"{result.summary['checks']} checks at the stated thresholds with "
            f"4 SE slack, {elapsed:.1f}s")
    assert elapsed <= 60.0
    assert result.passed


def test_criterion_9_simulator_vs_master_equation():
    t0 = time.time()
    n, k, a, t_grid, replicas = 3, 1, 1.0, [0.25, 0.5, 1.0], 100_000
    lat = TorusLattice(1, n)
    params = ModelParams(a, k, discretize(KernelSpec.cosine(0.5), lat))
    profile = InitialProfile.cosine_simplex([0.5, 0.5], [-0.2, 0.2], 1)
    u0 = profile_field(profile, lat)
    space = StateSpace(lat, k)
    law = master_evolve(profile_law(u0, space), params, space, t_grid[-1], 0.005)
    exact = {t: site_state_marginals(law.law_at(t), space) for t in t_grid}
    counts = {}
    for snap in Simulation(u0, params, SEED, replicas).simulate_until(t_grid):
        sigma = snap.config.sigma  # (replicas, n)
        counts[snap.time] = np.stack([np.count_nonzero(sigma == s, axis=0)
                                      for s in range(k + 1)], axis=1)
    worst_z = 0.0
    for t in t_grid:
        emp = counts[t] / replicas
        se = np.sqrt(np.maximum(exact[t] * (1.0 - exact[t]), 1e-12) / replicas)
        worst_z = max(worst_z, float(np.max(np.abs(emp - exact[t]) / se)))
    elapsed = time.time() - t0
    ok = worst_z <= 4.0 and elapsed <= 120.0
    _report(9, "simulator vs master equation", ok,
            f"worst marginal z-score {worst_z:.2f} <= 4 over "
            f"{len(t_grid)} times x {n} sites x {k + 1} states, {elapsed:.1f}s")
    assert elapsed <= 120.0
    assert worst_z <= 4.0
