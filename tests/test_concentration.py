import math

import numpy as np
import pytest

from gcp_hydro.concentration import (MGF_MIN_REPLICAS, SubGaussianSample,
                                     centered_indicator, check_hanson_wright,
                                     check_hoeffding,
                                     check_psi2_additivity, check_quad, rademacher)
from gcp_hydro.gcp import replica_rng


def zero_sample() -> SubGaussianSample:
    """The degenerate sampler: always 0, inside the range [-0.5, 0.5]."""
    return SubGaussianSample("zero", 1.0, 0.5, lambda rng, size: np.zeros(size))


def test_zero_sample_trivial_bounds():
    res = check_hoeffding(zero_sample(), replicas=10_000, rng=replica_rng(1, 0))
    for r in res:
        assert r.empirical == pytest.approx(0.0, abs=1e-12)
        assert r.passed
    quad = check_quad(zero_sample(), replicas=10_000, rng=replica_rng(1, 1))
    assert quad.empirical == pytest.approx(1.0)
    assert quad.passed


def test_hoeffding_centered_indicator_quarter_index():
    # range length 1, so the claimed bound is theta^2 / 8 (psi2^2 <= 1/4)
    res = check_hoeffding(centered_indicator(0.5), replicas=50_000,
                          rng=replica_rng(2, 0))
    assert all(r.passed for r in res)
    for r in res:
        assert r.bound == pytest.approx(r.parameter ** 2 / 8.0)


def test_hoeffding_rademacher_log_cosh():
    res = check_hoeffding(rademacher(), replicas=50_000, rng=replica_rng(3, 0))
    assert all(r.passed for r in res)
    for r in res:
        # classical identity: log cosh(theta) <= theta^2 / 2
        assert math.log(math.cosh(r.parameter)) <= r.parameter ** 2 / 2.0
        assert r.bound == pytest.approx(r.parameter ** 2 / 2.0)


def test_quad_indicator_and_rademacher():
    q1 = check_quad(centered_indicator(0.5), replicas=50_000, rng=replica_rng(4, 0))
    assert q1.passed and q1.empirical < 3.0
    q2 = check_quad(rademacher(), replicas=10_000, rng=replica_rng(4, 1))
    # X^2 = 1 so the empirical value is exactly e^{1/4}
    assert q2.parameter == pytest.approx(0.25)
    assert q2.empirical == pytest.approx(math.exp(0.25), abs=1e-12)
    assert q2.passed


def test_hanson_wright_zero_and_random_matrix():
    zero = check_hanson_wright(np.zeros((4, 4)), replicas=10_000, rng=replica_rng(5, 0))
    assert zero.empirical == pytest.approx(1.0)
    rng = replica_rng(5, 1)
    g = rng.integers(0, 2, (8, 8)) * 2.0 - 1.0
    np.fill_diagonal(g, 0.0)
    res = check_hanson_wright(g, replicas=50_000, rng=replica_rng(5, 2))
    assert res.passed
    expected_gamma = 1.0 / math.sqrt(1024.0 * float(np.sum(g ** 2)))
    assert res.parameter == pytest.approx(expected_gamma)


def test_hanson_wright_rejects_nonzero_diagonal():
    with pytest.raises(ValueError, match="zero diagonal"):
        check_hanson_wright(np.eye(3), replicas=10_000, rng=replica_rng(5, 3))


def test_replica_minimums_enforced():
    few = MGF_MIN_REPLICAS - 1
    with pytest.raises(ValueError, match="10000 replicas"):
        check_hoeffding(rademacher(), replicas=few, rng=replica_rng(8, 0))
    with pytest.raises(ValueError, match="10000 replicas"):
        check_quad(rademacher(), replicas=few, rng=replica_rng(8, 0))
    with pytest.raises(ValueError, match="10000 replicas"):
        check_hanson_wright(np.zeros((4, 4)), replicas=few, rng=replica_rng(8, 0))
    with pytest.raises(ValueError, match="10000 replicas"):
        check_psi2_additivity(centered_indicator(0.5), rademacher(), replicas=few,
                              rng=replica_rng(8, 0))


def test_psi2_additivity():
    res = check_psi2_additivity(centered_indicator(0.5), rademacher(),
                                replicas=50_000, rng=replica_rng(6, 0))
    assert all(r.passed for r in res)
    for r in res:
        assert r.bound == pytest.approx(r.parameter ** 2 * (0.25 + 1.0) / 2.0)


def test_sampler_range_enforced():
    bad = SubGaussianSample("bad", 1.0, 0.5,
                            lambda rng, size: np.full(size, 2.0))
    with pytest.raises(ValueError, match="declared range"):
        bad.sample(replica_rng(7, 0), 10)
