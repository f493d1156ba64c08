import csv
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcp_hydro.entropy import (MasterOperator, OrbitOperator, StateSpace,
                               F_closed, F_closed_all, F_direct, F_direct_all,
                               entropy_production_check, fit_envelope_constant,
                               law_steps, master_evolve, production_expectation, profile_law,
                               profile_prob, relative_entropy, site_state_marginals,
                               double_exp_envelope, translation_orbits, validate_law)
from gcp_hydro.experiments import _system, load_config, run
from gcp_hydro.hydro import DensityField, ModelParams, drift, integrate
from gcp_hydro.lattice import DiscreteKernel, KernelSpec, TorusLattice, discretize


def _params(n=3, k=1, a=1.0, kernel=None, d=1):
    lat = TorusLattice(d, n)
    if n == 1:
        kern = DiscreteKernel(lat, kernel or KernelSpec.constant(0.0))
    else:
        kern = discretize(kernel or KernelSpec.constant(1.0), lat)
    return ModelParams(a, k, kern)


def _random_field(params, rng, lo=0.1):
    n = params.lattice.n_sites
    u = rng.uniform(lo, 1.0, (n, params.k + 1))
    u /= u.sum(axis=1, keepdims=True)
    return DensityField(params.lattice, params.k, u)


def test_state_space_codec_bijection():
    space = StateSpace(TorusLattice(1, 4), 2)
    assert space.size == 81
    for idx in range(81):
        assert space.index_of(space.config_of(idx)) == idx
    np.testing.assert_array_equal(space.config_of(0), [0, 0, 0, 0])
    np.testing.assert_array_equal(space.config_of(80), [2, 2, 2, 2])


def test_state_space_cap():
    with pytest.raises(ValueError, match="exceeds the cap"):
        StateSpace(TorusLattice(1, 21), 1)


def test_law_stepping_and_functionals_never_build_the_digit_table():
    # the (S, N) table is built on first read; entropy-exact never reads it
    params = _params(n=8, k=2, kernel=KernelSpec.cosine(0.5))
    space = StateSpace(params.lattice, params.k)
    u0 = _random_field(params, np.random.default_rng(3))
    op = MasterOperator(space, params)
    for law, _ in law_steps(profile_law(u0, space), op, 0.05, 0.01):
        relative_entropy(law, u0, space)
        production_expectation(law, u0, op)
        site_state_marginals(law, space)
    assert "digits" not in vars(space)
    assert space.digits.shape == (3 ** 8, 8) and "digits" in vars(space)


def test_validate_law_clamps_and_checks():
    law = validate_law(np.array([0.5, 0.5, -1e-13]))
    assert law[2] == 0.0
    with pytest.raises(ValueError, match="negative mass"):
        validate_law(np.array([1.1, -0.1]))
    with pytest.raises(ValueError, match="deviates from 1"):
        validate_law(np.array([0.6, 0.6]))


def test_profile_prob_examples():
    p = _params(n=3, k=1)
    point = DensityField(p.lattice, 1, np.tile([0.0, 1.0], (3, 1)))
    assert profile_prob([1, 1, 1], point) == 1.0
    with pytest.raises(ValueError, match="zero marginal"):
        profile_prob([0, 1, 1], point)
    uniform = DensityField(p.lattice, 1, np.tile([0.5, 0.5], (3, 1)))
    assert profile_prob([0, 1, 0], uniform) == pytest.approx(0.125)


def test_profile_law_sums_to_one():
    rng = np.random.default_rng(0)
    p = _params(n=4, k=2)
    space = StateSpace(p.lattice, 2)
    mu = profile_law(_random_field(p, rng), space)
    assert abs(mu.sum() - 1.0) < 1e-10
    np.testing.assert_allclose(
        mu[5], profile_prob(space.config_of(5), _random_field(_params(n=4, k=2), np.random.default_rng(0))), atol=1e-15)


def test_relative_entropy_examples():
    # two-point system: law (0.9, 0.1) against the fair profile
    lat = TorusLattice(1, 1)
    p = ModelParams(1.0, 1, DiscreteKernel(lat, KernelSpec.constant(0.0)))
    space = StateSpace(lat, 1)
    u = DensityField(lat, 1, np.array([[0.5, 0.5]]))
    expected = 0.9 * math.log(1.8) + 0.1 * math.log(0.2)
    assert relative_entropy(np.array([0.9, 0.1]), u, space) == pytest.approx(
        expected, abs=1e-12)
    mu = profile_law(u, space)
    assert relative_entropy(mu, u, space) == pytest.approx(0.0, abs=1e-14)


def test_relative_entropy_gibbs_nonnegative():
    rng = np.random.default_rng(1)
    p = _params(n=3, k=1)
    space = StateSpace(p.lattice, 1)
    u = _random_field(p, rng)
    for _ in range(20):
        law = rng.dirichlet(np.ones(space.size))
        assert relative_entropy(law, u, space) >= -1e-12


@pytest.mark.parametrize("n, k", [(10, 1), (6, 2)])
def test_relative_entropy_is_the_expression_bit_for_bit(n, k):
    # the divide, log and product run in place in the product measure's
    # array; the value must be that of the plain expression, zero-mass
    # states dropped
    rng = np.random.default_rng(11)
    p = _params(n=n, k=k, kernel=KernelSpec.cosine(0.5))
    space = StateSpace(p.lattice, k)
    for zeros in (0.0, 0.1, 0.9):
        for _ in range(5):
            u = _random_field(p, rng)
            law = rng.dirichlet(np.full(space.size, 0.5))
            law[rng.random(space.size) < zeros] = 0.0
            law /= law.sum()
            support = law > 0.0
            mu = profile_law(u, space)[support]
            expected = float(np.sum(law[support] * np.log(law[support] / mu)))
            assert relative_entropy(law, u, space) == expected


def test_master_evolve_time_zero_and_conservation():
    rng = np.random.default_rng(2)
    p = _params(n=3, k=1, kernel=KernelSpec.cosine(0.5))
    space = StateSpace(p.lattice, 1)
    law0 = rng.dirichlet(np.ones(space.size))
    traj = master_evolve(law0, p, space, 0.0, 0.01)
    np.testing.assert_array_equal(traj.laws[0], law0)
    traj = master_evolve(law0, p, space, 0.8, 0.005)
    assert np.max(np.abs(traj.laws.sum(axis=1) - 1.0)) < 1e-9


def test_master_evolve_single_site_pure_death():
    # one site, k=1, a=1, started active: P(still active at t) = e^{-t}
    p = _params(n=1, k=1, a=1.0)
    space = StateSpace(p.lattice, 1)
    law0 = np.array([0.0, 1.0])
    traj = master_evolve(law0, p, space, 1.0, 1e-3)
    assert traj.laws[-1][1] == pytest.approx(math.exp(-1.0), abs=1e-9)
    marg = site_state_marginals(traj.laws[-1], space)
    assert marg[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_master_evolve_commutes_with_translation():
    rng = np.random.default_rng(3)
    p = _params(n=4, k=1, kernel=KernelSpec.cosine(0.5))
    space = StateSpace(p.lattice, 1)
    u = rng.uniform(0.2, 0.8, (4, 2))
    u /= u.sum(axis=1, keepdims=True)
    law0 = profile_law(DensityField(p.lattice, 1, u), space)
    perm = space.shift_permutation(1)
    shifted_first = np.empty_like(law0)
    shifted_first[perm] = law0
    a = master_evolve(shifted_first, p, space, 0.5, 0.01).laws[-1]
    b = master_evolve(law0, p, space, 0.5, 0.01).laws[-1]
    b_shifted = np.empty_like(b)
    b_shifted[perm] = b
    np.testing.assert_allclose(a, b_shifted, atol=1e-12)


def test_centered_monomials_mean_zero_under_profile():
    # E_mu[w_x^i w_y^k] = 0 for x != y by independence and centering
    rng = np.random.default_rng(4)
    p = _params(n=3, k=2)
    space = StateSpace(p.lattice, 2)
    u = _random_field(p, rng)
    mu = profile_law(u, space)
    for x in range(3):
        for y in range(3):
            if x == y:
                continue
            for i in range(3):
                wx = (space.digits[:, x] == i) - u.u[x, i]
                wy = (space.digits[:, y] == 2) - u.u[y, 2]
                assert abs(np.sum(mu * wx * wy)) < 1e-14


def test_F_closed_zero_kernel():
    rng = np.random.default_rng(5)
    p = _params(n=4, k=2, kernel=KernelSpec.constant(0.0))
    u = _random_field(p, rng)
    for _ in range(10):
        sigma = rng.integers(0, 3, 4)
        assert F_closed(sigma, u, p) == 0.0


def test_F_direct_equals_F_closed_small_systems():
    rng = np.random.default_rng(6)
    for n, k in [(3, 1), (4, 1), (3, 2), (4, 2)]:
        p = _params(n=n, k=k, a=1.3, kernel=KernelSpec.cosine(0.6))
        space = StateSpace(p.lattice, k)
        for _ in range(10):
            u = _random_field(p, rng)
            du = drift(u, p)
            fc = F_closed_all(space, u, p)
            fd = F_direct_all(space, u, du, p)
            assert np.max(np.abs(fc - fd)) < 1e-10
            idx = rng.integers(space.size)
            sigma = space.config_of(idx)
            assert F_closed(sigma, u, p) == pytest.approx(fc[idx], abs=1e-12)
            assert F_direct(sigma, u, du, p) == pytest.approx(fd[idx], abs=1e-12)


def test_F_identity_larger_enumeration():
    # twelve sites at k=1 (4096 configurations) and eight at k=2 (6561)
    rng = np.random.default_rng(7)
    for n, k in ((12, 1), (8, 2)):
        p = _params(n=n, k=k, a=0.9, kernel=KernelSpec.cosine(0.8))
        space = StateSpace(p.lattice, k)
        u = _random_field(p, rng)
        fc = F_closed_all(space, u, p)
        fd = F_direct_all(space, u, drift(u, p), p)
        assert np.max(np.abs(fc - fd)) < 1e-10


def test_F_expectation_under_profile_is_finite_and_tiny():
    # under the product measure the centered monomials have mean zero,
    # so the production functional integrates to zero
    rng = np.random.default_rng(8)
    p = _params(n=4, k=1, a=1.0)
    space = StateSpace(p.lattice, 1)
    u = _random_field(p, rng)
    mu = profile_law(u, space)
    val = float(np.dot(mu, F_closed_all(space, u, p)))
    assert abs(val) < 1e-12


def test_entropy_production_report():
    p = _params(n=4, k=1, a=1.0, kernel=KernelSpec.constant(1.0))
    u0 = DensityField(p.lattice, 1, np.tile([0.5, 0.5], (4, 1)))
    rep = entropy_production_check(p, u0, 0.4, 0.01)
    assert rep.entropy[0] == pytest.approx(0.0, abs=1e-13)
    assert np.min(rep.entropy) >= -1e-12
    assert rep.production_rhs[0] == pytest.approx(0.0, abs=1e-12)
    assert rep.inequality_holds()
    assert rep.under_envelope()
    rows = rep.rows()
    assert len(rows) == len(rep.times) and len(rows[0]) == 4


def test_envelope_fit_passes_through_anchor():
    times = np.array([0.0, 0.5, 1.0])
    values = np.array([0.0, 0.01, 0.05])
    c = fit_envelope_constant(times, values)
    assert double_exp_envelope(c, 1.0) == pytest.approx(0.05, rel=1e-9)
    assert fit_envelope_constant(times, np.zeros(3)) == 0.0


def test_entropy_report_streams_what_master_evolve_collects():
    # the report evaluates each grid time as the law is stepped; the same
    # numbers must come from the collected trajectory and the per-state forms
    p = _params(n=4, k=2, a=1.1, kernel=KernelSpec.cosine(0.6))
    rng = np.random.default_rng(9)
    u0 = _random_field(p, rng, lo=0.3)
    rep = entropy_production_check(p, u0, 0.2, 0.02)
    space = StateSpace(p.lattice, 2)
    laws = master_evolve(profile_law(u0, space), p, space, 0.2, 0.02).laws
    traj = integrate(u0, p, 0.2, h=0.02)
    for i, law in enumerate(laws):
        u_i = DensityField(p.lattice, 2, traj.u[i])
        assert rep.entropy[i] == relative_entropy(law, u_i, space)
        assert rep.production_rhs[i] == pytest.approx(
            float(np.dot(law, F_closed_all(space, u_i, p))), abs=1e-12)
    assert rep.metrics["entropy"]["master_applies"] == 4 * (len(laws) - 1)


@pytest.mark.parametrize("n, k", [(1, 1), (7, 1), (4, 2), (3, 3)])
def test_operator_bytes_counts_table_exit_rates_and_workspace(n, k):
    # the report runs this operator at a profile that varies over the sites;
    # one site has no such profile, so there a tabulated kernel keeps it on
    # every state
    p = _params(n=n, k=k, kernel=KernelSpec.cosine(0.5) if n > 1
                else KernelSpec.tabulated(np.zeros((1, 1))))
    op = MasterOperator(StateSpace(p.lattice, k), p)
    arrays = (op.low, op.high, op.exit_rate) + op.workspace
    assert op.operator_bytes == sum(a.nbytes for a in arrays)
    # two half-lattice tables, the exit rates, four law-sized buffers and a
    # flux buffer for the sigma_x < k part of a law
    size, low = (k + 1) ** n, (k + 1) ** (n // 2)
    assert op.low.shape == (n, low) and op.high.shape == (n, size // low)
    assert op.operator_bytes == 8 * (n * (low + size // low) + 5 * size + size // (k + 1) * k)
    rep = entropy_production_check(p, _random_field(p, np.random.default_rng(n), lo=0.3),
                                   0.02, 0.01)
    assert rep.metrics["entropy"]["engine"] == "states"
    assert rep.metrics["entropy"]["operator_bytes"] == op.operator_bytes


@pytest.mark.parametrize("d, n, k", [(1, 1, 1), (1, 7, 1), (1, 4, 2), (2, 3, 1)])
def test_orbit_operator_bytes_count_its_tables_generator_and_workspace(d, n, k):
    p = _params(n=n, k=k, d=d, kernel=KernelSpec.cosine(0.5))
    op = OrbitOperator(StateSpace(p.lattice, k), p)
    arrays = (op.reps, op.sizes, op.site_counts, op.moments, op.J0, op.exit_rate,
              op._source, op._rate, op._starts) + op.workspace
    assert op.operator_bytes == sum(a.nbytes for a in arrays)
    # per orbit its rep, size, exit rate, run start and exit buffer, two
    # (k+1)-tables, and N generator entries (source, rate, flux buffer);
    # site 0's kernel row
    m, n_sites = op.size, n ** d
    assert op.operator_bytes == 8 * (5 * m + 2 * m * (k + 1) + 3 * m * n_sites + n_sites)
    u0 = DensityField(p.lattice, k, np.full((n_sites, k + 1), 1 / (k + 1)))
    rep = entropy_production_check(p, u0, 0.02, 0.01)
    assert rep.metrics["entropy"]["engine"] == "orbits"
    assert rep.metrics["entropy"]["orbits"] == m
    assert rep.metrics["entropy"]["operator_bytes"] == op.operator_bytes


def test_operator_at_the_state_cap_stores_no_law_sized_table():
    # at n = 20 an (N, S/2) intensity table would take 80 MB alone; the
    # operator is its exit rates and workspace (44 MB) plus two 20 x 1024 tables
    p = _params(n=20, k=1, kernel=KernelSpec.cosine(0.5))
    op = MasterOperator(StateSpace(p.lattice, 1), p)
    assert op.operator_bytes < 48e6


def _cosine_field(params, base, delta):
    """base + delta cos(2 pi x / n) at every site: a profile that varies over
    the sites, so the report steps the law on every state."""
    x = np.arange(params.lattice.n_sites) / params.lattice.n_sites
    return DensityField(params.lattice, params.k,
                        np.asarray(base) + np.outer(np.cos(2 * np.pi * x), delta))


def test_entropy_report_peak_memory_in_laws():
    # the report keeps the operator (exit rates, four workspace laws and a
    # half-law flux buffer), the march's four laws (two states, the RK4 stage
    # and one stage's rate) and what one functional needs at a time, which
    # builds the product measure in a workspace buffer: 10.03 laws measured,
    # bounded here with one law to spare.  A march whose rate returned a
    # fresh law, with the measure built anew at each grid time, peaked at
    # 10.8; an RK4 step that kept every stage, with an (N, S/2) intensity
    # table, at 21.6
    p = _params(n=14, k=1, kernel=KernelSpec.cosine(0.5))
    u0 = _cosine_field(p, [0.6, 0.4], [0.1, -0.1])
    law_bytes = 8 * 2 ** 14
    tracemalloc.start()
    try:
        rep = entropy_production_check(p, u0, 0.05, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.metrics["entropy"]["engine"] == "states"
    assert peak <= 11 * law_bytes, peak / law_bytes


def test_orbit_report_peak_memory_in_laws():
    # at a constant profile the peak is the orbit build: three S-sized index
    # arrays for the orbit numbers, then about N entries per orbit (the
    # reps' digits, their rates and jump targets, the sort order).  5.7 laws
    # of S doubles measured, bounded with one to spare; the operator keeps
    # 3.7 (three N-entry arrays per orbit), and the law march is on orbits
    p = _params(n=14, k=1, kernel=KernelSpec.cosine(0.5))
    u0 = DensityField(p.lattice, 1, np.tile([0.6, 0.4], (14, 1)))
    law_bytes = 8 * 2 ** 14
    tracemalloc.start()
    try:
        rep = entropy_production_check(p, u0, 0.05, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.metrics["entropy"]["engine"] == "orbits"
    assert rep.metrics["entropy"]["operator_bytes"] < 4 * law_bytes
    assert peak <= 7 * law_bytes, peak / law_bytes


def test_law_steps_allocate_no_law_after_the_first_step():
    # the first step allocates the march's buffers; every later one steps in
    # them and in the operator's workspace
    p = _params(n=14, k=1, kernel=KernelSpec.cosine(0.5))
    space = StateSpace(p.lattice, 1)
    u0 = DensityField(p.lattice, 1, np.tile([0.6, 0.4], (14, 1)))
    op = MasterOperator(space, p)
    steps = law_steps(profile_law(u0, space), op, 0.1, 0.01)
    next(steps), next(steps)
    tracemalloc.start()
    try:
        assert sum(1 for _ in steps) == 9
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * space.size, peak
    assert op.applies == 4 * 10


# sha256 of apply's result on a fixed law, as apply gave it when it returned a
# new array; the kernel and the law hold exact binary fractions, so the bytes
# depend on the operator's arithmetic only
APPLY_PINNED = {
    (9, 1): "7d75f4bedfffec4e95c9630987c0ae6d2f6c9a7944cba537cd721bfa83415d02",
    (5, 2): "018e596eef37a4905862cb5bc8623e27aac1ef369029e0cdfad258b7e63526b0",
}


@pytest.mark.parametrize("n, k", sorted(APPLY_PINNED))
def test_apply_writes_the_pinned_bytes_into_out(n, k):
    lat = TorusLattice(1, n)
    table = (np.arange(n * n).reshape(n, n) * 7 % 5) / 4.0
    p = ModelParams(0.75, k, DiscreteKernel(lat, KernelSpec.tabulated(table)))
    space = StateSpace(lat, k)
    weights = np.arange(space.size) * 7919 % 1013 + 1.0
    law = weights / weights.sum()
    out = np.full(space.size, np.nan)   # apply reads nothing of out
    assert MasterOperator(space, p).apply(law, out) is out
    assert hashlib.sha256(out.tobytes()).hexdigest() == APPLY_PINNED[(n, k)]


# The exact law, pinned: sha256 of the entropy column of two small runs, and
# of the last law alone.  A change to the operator, the law stepping or the
# relative entropy that is meant to keep the arithmetic must leave these bytes
# alone.  The law reads the kernel through its matrix only, so a change to how
# the density solve convolves moves the entropy column and not the law.
_COSINE = 'kernel={"name": "cosine", "beta": 0.5}'
ENTROPY_PINNED = {
    # ten sites: five of them are read through the rotated layout
    "k1": (["k=1", "n_list=[10]", "times=[0.3]", "h=0.01", _COSINE,
            'profile={"name": "cosine-simplex", "base": [0.5, 0.5], '
            '"delta": [0.2, -0.2], "mode": 1}'],
           "a8dae5e40e52fb6beb9e137ab71555727709f824d9bb4c364a1f8ff1c0a32f21"),
    "k2": (["k=2", "n_list=[6]", "times=[0.3]", "h=0.01", _COSINE,
            'profile={"name": "cosine-simplex", "base": [0.3, 0.3, 0.4], '
            '"delta": [0.1, 0.0, -0.1], "mode": 1}'],
           "a4fb1a2acbf2989f1329f0e811df96df557f47cbfe21ea77fd9122fcbc153e94"),
}


LAW_PINNED = {
    "k1": "b09e20c0dd071b09e7abb06844323c8e73336403e1f4a0c3765e01292c29fc6e",
    "k2": "a61a8c878731838fa2ad91cbce6ad312be6e7c4322dc3b690b2f2eefc46c0f5e",
}


@pytest.mark.parametrize("case", sorted(LAW_PINNED))
def test_last_law_digest_pinned(case):
    cfg = load_config("entropy-exact", None, ENTROPY_PINNED[case][0])
    params, u0 = _system(cfg, cfg["n_list"][0])
    space = StateSpace(params.lattice, params.k)
    for law, _ in law_steps(profile_law(u0, space), MasterOperator(space, params),
                            cfg["times"][-1], cfg["h"]):
        pass
    assert hashlib.sha256(law.tobytes()).hexdigest() == LAW_PINNED[case]


@pytest.mark.parametrize("case", sorted(ENTROPY_PINNED))
def test_entropy_column_digest_pinned(case, tmp_path):
    overrides, digest = ENTROPY_PINNED[case]
    run(load_config("entropy-exact", None, overrides), str(tmp_path))
    with open(tmp_path / "entropy.csv") as fh:
        column = [row["entropy"] for row in csv.DictReader(fh)]
    assert len(column) == 31
    assert hashlib.sha256("\n".join(column).encode()).hexdigest() == digest


# -- differential tests against per-state oracles ------------------------------

@st.composite
def _systems(draw, max_states=4096):
    """(params, space, rng): d in {1, 2}, k in {1, 2, 3}, a random
    non-symmetric tabulated kernel and at most max_states configurations."""
    d = draw(st.sampled_from((1, 2)))
    k = draw(st.integers(1, 3))
    n = draw(st.sampled_from([n for n in range(2, 13) if (k + 1) ** (n ** d) <= max_states]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lat = TorusLattice(d, n)
    table = rng.uniform(0.0, 2.0, (lat.n_sites, lat.n_sites))
    a = draw(st.floats(0.2, 2.0))
    params = ModelParams(a, k, DiscreteKernel(lat, KernelSpec.tabulated(table)))
    return params, StateSpace(lat, k), rng


def _generator_matrix(space, params):
    """Explicit (S, S) forward generator, built state by state through the codec."""
    n_sites, k = space.lattice.n_sites, space.k
    J = params.kernel.matrix
    G = np.zeros((space.size, space.size))
    for s in range(space.size):
        sigma = space.config_of(s).astype(np.int64)
        active = (sigma == k).astype(float)
        for x in range(n_sites):
            rate = params.a if sigma[x] == k else float(J[x] @ active) / n_sites
            target = sigma.copy()
            target[x] = (sigma[x] + 1) % (k + 1)
            G[space.index_of(target), s] += rate
            G[s, s] -= rate
    return G


@settings(deadline=None, max_examples=15)
@given(_systems(max_states=1024))
def test_master_apply_matches_explicit_generator(system):
    params, space, rng = system
    G = _generator_matrix(space, params)
    op = MasterOperator(space, params)
    for law in (rng.dirichlet(np.ones(space.size)), rng.standard_normal(space.size)):
        np.testing.assert_allclose(op.apply(law, np.empty(space.size)), G @ law,
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (9, 1), (5, 2)])
def test_apply_does_not_depend_on_earlier_calls(n, k):
    # apply reuses its workspace, so its bytes must not depend on what an
    # earlier call left there; the ufunc buffer size is lowered for the site
    # loop only
    p = _params(n=n, k=k, a=0.7, kernel=KernelSpec.cosine(0.6) if n > 1 else None)
    space = StateSpace(p.lattice, k)
    op = MasterOperator(space, p)
    rng = np.random.default_rng(10)
    laws = [rng.dirichlet(np.ones(space.size)), rng.standard_normal(space.size)]
    with np.errstate():
        np.setbufsize(4096)   # the caller's size; no operator within the state cap picks it
        first = [MasterOperator(space, p).apply(law, np.empty(space.size)) for law in laws]
        for law, expected in zip(laws * 3, first * 3):
            assert op.apply(law, np.empty(space.size)).tobytes() == expected.tobytes()
            assert np.getbufsize() == 4096
    assert op.applies == 6


@settings(deadline=None, max_examples=15)
@given(_systems())
def test_production_expectation_matches_per_state_functionals(system):
    params, space, rng = system
    op = MasterOperator(space, params)
    law = rng.dirichlet(np.ones(space.size))
    u = _random_field(params, rng)
    got = production_expectation(law, u, op)
    assert got == pytest.approx(float(np.dot(law, F_closed_all(space, u, params))),
                                abs=1e-12)
    assert got == pytest.approx(
        float(np.dot(law, F_direct_all(space, u, drift(u, params), params))), abs=1e-12)


def _production_long_double(law, u, params, space):
    """E_law of the closed form, per state and summed in long double."""
    ld, k, n_sites = np.longdouble, space.k, space.lattice.n_sites
    uu = u.u.astype(ld)
    g = np.empty_like(uu)
    g[:, 0] = -1.0
    for i in range(1, k):
        g[:, i] = (uu[:, i - 1] - uu[:, i]) / uu[:, i]
    g[:, k] = uu[:, k - 1] / uu[:, k]
    h = g - np.sum(g * uu, axis=1)[:, None]
    conv = ((space.digits == k) - uu[:, k]) @ (params.kernel.matrix.astype(ld).T / n_sites)
    per_state = sum(h[x, space.digits[:, x]] * conv[:, x] for x in range(n_sites))
    return np.sum(law.astype(ld) * per_state)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double has no more precision than double here")
@pytest.mark.parametrize("d, n, k", [(1, 9, 1), (1, 7, 2), (2, 3, 1), (2, 3, 2)])
def test_production_expectation_matches_a_long_double_sum(d, n, k):
    # sites on both sides of the split; a random law and one a step from the
    # product measure, where the production is small.  The pairwise sums
    # this replaced missed a long-double reference by 7e-15 at n = 20
    rng = np.random.default_rng(100 * d + 10 * n + k)
    lat = TorusLattice(d, n)
    table = rng.uniform(0.0, 2.0, (lat.n_sites, lat.n_sites))
    params = ModelParams(rng.uniform(0.2, 2.0), k, DiscreteKernel(lat, KernelSpec.tabulated(table)))
    space = StateSpace(lat, k)
    assert 0 < space.split < lat.n_sites
    op = MasterOperator(space, params)
    u = _random_field(params, rng)
    steps = law_steps(profile_law(u, space), op, 0.01, 0.01)
    next(steps)
    for law in (rng.dirichlet(np.ones(space.size)), next(steps)[0]):
        err = abs(np.longdouble(production_expectation(law, u, op))
                  - _production_long_double(law, u, params, space))
        assert err < 2e-15, float(err)


@settings(deadline=None, max_examples=15)
@given(_systems())
def test_relative_entropy_and_marginals_match_per_state_loops(system):
    params, space, rng = system
    law = rng.dirichlet(np.full(space.size, 0.5))
    law[rng.random(space.size) < 0.1] = 0.0
    law /= law.sum()
    u = _random_field(params, rng)
    entropy, marginals = 0.0, np.zeros((space.lattice.n_sites, space.k + 1))
    for s in range(space.size):
        sigma = space.config_of(s)
        if law[s] > 0.0:
            entropy += law[s] * math.log(law[s] / profile_prob(sigma, u))
        marginals[np.arange(len(sigma)), sigma] += law[s]
    assert relative_entropy(law, u, space) == pytest.approx(entropy, rel=1e-12, abs=1e-14)
    np.testing.assert_allclose(site_state_marginals(law, space), marginals,
                               rtol=0, atol=1e-14)


# -- the orbit engine against the full one ---------------------------------------

def _orbit_numbers(space, op):
    """The orbit of every state from the digit table: its least index over all
    translations (``shift_permutation``), numbered as in op.reps."""
    least = np.arange(space.size)
    for offset in itertools.product(range(space.lattice.n), repeat=space.lattice.d):
        least = np.minimum(least, space.shift_permutation(offset))
    number = np.searchsorted(op.reps, least)
    np.testing.assert_array_equal(op.reps[number], least)
    return number


def _burnside(d, n, k):
    """Orbits of (k+1)^(n^d) configurations under the n^d torus translations:
    the mean over translations of (k+1)^(cycles), a translation of order m
    splitting the sites into n^d / m cycles."""
    total = 0
    for offset in itertools.product(range(n), repeat=d):
        order = math.lcm(*(n // math.gcd(j, n) for j in offset))
        total += (k + 1) ** (n ** d // order)
    return total // n ** d


_ORBIT_SYSTEMS = [   # d, n, k, kernel: factors and FFT engines
    (1, 8, 1, KernelSpec.cosine(0.5)),
    (1, 7, 2, KernelSpec.gaussian(1.0, 0.2)),
    (2, 4, 1, KernelSpec.cosine(0.5)),
    (2, 3, 2, KernelSpec.gaussian(1.0, 0.2)),
]


@pytest.mark.parametrize("d, n, k, count", [(1, 16, 1, 4116), (2, 4, 1, 4156),
                                            (1, 9, 2, None), (2, 3, 2, None), (1, 1, 1, None)])
def test_orbit_count_is_burnsides(d, n, k, count):
    space = StateSpace(TorusLattice(d, n), k)
    number, reps, sizes = translation_orbits(space)
    assert len(reps) == _burnside(d, n, k)
    assert count is None or len(reps) == count
    assert sizes.sum() == space.size and np.all(n ** d % sizes == 0)
    np.testing.assert_array_equal(reps[number[reps]], reps)
    np.testing.assert_array_equal(np.bincount(number), sizes)


@pytest.mark.parametrize("d, n, k, kernel", _ORBIT_SYSTEMS)
def test_orbit_apply_is_the_lumped_full_apply(d, n, k, kernel):
    # on an invariant law (orbit masses spread evenly), and linear beyond it
    p = _params(n=n, k=k, a=0.7, d=d, kernel=kernel)
    space = StateSpace(p.lattice, k)
    op, full = OrbitOperator(space, p), MasterOperator(space, p)
    number = _orbit_numbers(space, op)
    np.testing.assert_array_equal(np.bincount(number), op.sizes)
    rng = np.random.default_rng(d * 100 + n * 10 + k)
    for q in (rng.dirichlet(np.ones(op.size)), rng.standard_normal(op.size)):
        lumped = np.bincount(number, full.apply(q[number] / op.sizes[number],
                                                np.empty(space.size)))
        out = np.full(op.size, np.nan)
        assert op.apply(q, out) is out
        np.testing.assert_allclose(out, lumped, rtol=0, atol=1e-13)
    assert op.applies == 2


@pytest.mark.parametrize("d, n, k, kernel", _ORBIT_SYSTEMS)
def test_orbit_report_matches_the_full_engine(d, n, k, kernel):
    # the report takes the orbit engine at a constant profile; marching the
    # full law beside it gives the same law lumped, entropy and production
    p = _params(n=n, k=k, d=d, kernel=kernel)
    base = [0.6, 0.4] if k == 1 else [0.3, 0.3, 0.4]
    u0 = DensityField(p.lattice, k, np.tile(base, (n ** d, 1)))
    rep = entropy_production_check(p, u0, 0.3, 0.01)
    assert rep.metrics["entropy"]["engine"] == "orbits"
    space = StateSpace(p.lattice, k)
    full, op = MasterOperator(space, p), OrbitOperator(space, p)
    number = _orbit_numbers(space, op)
    traj = integrate(u0, p, 0.3, h=0.01)
    for i, ((law, _), (q, _)) in enumerate(zip(law_steps(full.profile_law(u0), full, 0.3, 0.01),
                                               law_steps(op.profile_law(u0), op, 0.3, 0.01))):
        u_i = DensityField(p.lattice, k, traj.u[i])
        np.testing.assert_allclose(q, np.bincount(number, law), rtol=0, atol=1e-15)
        assert rep.entropy[i] == pytest.approx(full.relative_entropy(law, u_i), rel=0, abs=1e-13)
        assert rep.production_rhs[i] == pytest.approx(full.production_expectation(law, u_i),
                                                      rel=0, abs=1e-13)
    assert i == 30 and rep.inequality_holds()


@pytest.mark.parametrize("kernel, varies, engine", [
    (KernelSpec.cosine(0.5), False, "orbits"),
    (KernelSpec.tabulated(np.ones((6, 6))), False, "states"),
    (KernelSpec.cosine(0.5), True, "states"),
])
def test_report_takes_the_orbit_engine_for_circulant_kernels_and_constant_profiles(
        kernel, varies, engine):
    lat = TorusLattice(1, 6)
    p = ModelParams(1.0, 1, DiscreteKernel(lat, kernel))
    u0 = (_cosine_field(p, [0.5, 0.5], [0.2, -0.2]) if varies
          else DensityField(lat, 1, np.tile([0.5, 0.5], (6, 1))))
    metrics = entropy_production_check(p, u0, 0.05, 0.01).metrics["entropy"]
    assert metrics["engine"] == engine and metrics["states"] == 64
    assert metrics.get("orbits") == (14 if engine == "orbits" else None)
    assert metrics["master_applies"] == 4 * 5


def test_orbit_build_and_functionals_never_read_the_digit_table():
    p = _params(n=3, k=2, d=2, kernel=KernelSpec.cosine(0.5))
    space = StateSpace(p.lattice, p.k)
    u0 = DensityField(p.lattice, 2, np.tile([0.3, 0.3, 0.4], (9, 1)))
    op = OrbitOperator(space, p)
    for law, _ in law_steps(op.profile_law(u0), op, 0.05, 0.01):
        op.relative_entropy(law, u0)
        op.production_expectation(law, u0)
    assert "digits" not in vars(space)


def test_orbit_operator_refuses_a_tabulated_kernel():
    lat = TorusLattice(1, 4)
    p = ModelParams(1.0, 1, DiscreteKernel(lat, KernelSpec.tabulated(np.ones((4, 4)))))
    with pytest.raises(ValueError, match="circulant"):
        OrbitOperator(StateSpace(lat, 1), p)
