"""Monte Carlo soundness checks for the moment-generating-function bounds the
statistical analysis leans on.

Every check is one-sided: an empirical exponential moment is compared against
its claimed bound with a four-standard-error slack.  These are sanity tests of
the constants (the 1/4 index of centered bounded variables, the value 3 for
quadratic exponentials, the 1024 in the bilinear bound), not proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# beyond theta ~ 4 the exponential-moment estimator variance explodes
THETAS = tuple(np.geomspace(0.1, 4.0, 9))
MGF_MIN_REPLICAS = 10_000   # exponential moments have heavy tails; fewer is noise


@dataclass
class SubGaussianSample:
    """Sampler for a centered bounded variable with range [-b, a-b]."""

    name: str
    range_length: float          # a; the claimed psi2 bound is a/2
    offset: float                # b
    draw: object                 # callable (rng, size) -> samples

    @property
    def psi2_bound(self) -> float:
        return 0.5 * self.range_length

    def sample(self, rng, size) -> np.ndarray:
        x = np.asarray(self.draw(rng, size), dtype=float)
        lo, hi = -self.offset, self.range_length - self.offset
        if np.min(x) < lo - 1e-12 or np.max(x) > hi + 1e-12:
            raise ValueError(f"sampler {self.name!r} left its declared range "
                             f"[{lo}, {hi}]")
        return x


def centered_indicator(u=0.5) -> SubGaussianSample:
    u = float(u)
    if not 0.0 < u < 1.0:
        raise ValueError("indicator parameter must lie in (0, 1)")
    return SubGaussianSample(f"indicator({u})", 1.0, u,
                             lambda rng, size: (rng.random(size) < u) - u)


def rademacher() -> SubGaussianSample:
    return SubGaussianSample("rademacher", 2.0, 1.0,
                             lambda rng, size: rng.integers(0, 2, size) * 2.0 - 1.0)


@dataclass
class CheckResult:
    name: str
    parameter: float       # the theta or gamma the bound was tested at
    empirical: float
    bound: float
    slack: float           # 4 * SE of the empirical value
    passed: bool

    def row(self):
        return (self.name, self.parameter, self.empirical, self.bound,
                self.slack, int(self.passed))


def _require_replicas(check, replicas):
    if replicas < MGF_MIN_REPLICAS:
        raise ValueError(f"{check} check needs at least {MGF_MIN_REPLICAS} replicas")


def _log_mean_exp(values):
    """log mean(e^v) with its delta-method standard error."""
    m = np.mean(np.exp(values))
    se = np.std(np.exp(values), ddof=1) / math.sqrt(len(values))
    return math.log(m), se / m


def check_hoeffding(sample: SubGaussianSample, replicas, rng) -> list:
    """log E[e^{theta X}] <= theta^2 a^2 / 8 for centered X with range a."""
    _require_replicas("hoeffding", replicas)
    x = sample.sample(rng, replicas)
    out = []
    for theta in THETAS:
        emp, se = _log_mean_exp(theta * x)
        bound = theta ** 2 * sample.range_length ** 2 / 8.0
        out.append(CheckResult(f"hoeffding[{sample.name}]", float(theta),
                               emp, bound, 4.0 * se, emp <= bound + 4.0 * se))
    return out


def check_quad(sample: SubGaussianSample, replicas, rng) -> CheckResult:
    """E[e^{gamma X^2}] <= 3 at gamma = 1 / (4 psi2^2) with psi2 = a/2."""
    _require_replicas("quadratic", replicas)
    gamma = 1.0 / (4.0 * sample.psi2_bound ** 2)
    x = sample.sample(rng, replicas)
    vals = np.exp(gamma * x ** 2)
    emp = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(replicas))
    return CheckResult(f"quad[{sample.name}]", gamma, emp, 3.0, 4.0 * se,
                       emp <= 3.0 + 4.0 * se)


def check_hanson_wright(g, replicas, rng) -> CheckResult:
    """E[exp(gamma sum_{i != j} g_ij X_i Y_j)] <= 3 for Rademacher X, Y at the
    bilinear threshold gamma = (1024 sum sigma_i^2 sigma_j^2 g_ij^2)^{-1/2}."""
    _require_replicas("bilinear", replicas)
    sample = rademacher()
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got shape {g.shape}")
    size = len(g)
    if np.any(np.diag(g) != 0.0):
        raise ValueError("coefficient matrix must have zero diagonal")
    s2 = sample.psi2_bound ** 2
    denom = 1024.0 * s2 * s2 * float(np.sum(g ** 2))
    gamma = 1.0 / math.sqrt(denom) if denom > 0 else 1.0
    x = sample.sample(rng, (replicas, size))
    y = sample.sample(rng, (replicas, size))
    quad = np.einsum("ri,ij,rj->r", x, g, y)
    vals = np.exp(gamma * quad)
    emp = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(replicas))
    return CheckResult("hanson-wright", gamma, emp, 3.0, 4.0 * se,
                       emp <= 3.0 + 4.0 * se)


def check_psi2_additivity(s1: SubGaussianSample, s2: SubGaussianSample,
                          replicas, rng) -> list:
    """For independent X, Y: log E[e^{theta (X+Y)}] <= theta^2 (psi_X^2 + psi_Y^2)/2."""
    _require_replicas("psi2-additivity", replicas)
    x = s1.sample(rng, replicas)
    y = s2.sample(rng, replicas)
    cap = (s1.psi2_bound ** 2 + s2.psi2_bound ** 2) / 2.0
    out = []
    for theta in THETAS:
        emp, se = _log_mean_exp(theta * (x + y))
        bound = theta ** 2 * cap
        out.append(CheckResult(f"psi2-sum[{s1.name}+{s2.name}]", float(theta),
                               emp, bound, 4.0 * se, emp <= bound + 4.0 * se))
    return out

