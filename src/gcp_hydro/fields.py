"""Test functions, centered occupation fields, and the pairings built from them.

The centered field w_x^i = 1(sigma_x = i) - u_x^i compares one configuration
against a density field.  ``pairing`` sums it against a test function, one
value per replica when the configurations carry a leading replica axis;
scaled by n^-d it is the density-scale error functional (``lln_error``), by
n^-d/2 the fluctuation functional (``fluctuation``).  The quadratic form of
the generator is evaluated on configurations directly, one value per row of
a stack too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gcp import SpinConfig, rates_from_scratch
from .hydro import DensityField, ModelParams
from .lattice import TorusLattice


class TestFunction:
    """Named smooth function on the unit torus, or a table of site values."""

    __test__ = False  # keep pytest from collecting the math term as a suite

    def __init__(self, name, params, evaluate, values=None):
        self.name = name
        self.params = dict(params)
        self._evaluate = evaluate
        self._values = values

    def __repr__(self):
        return f"TestFunction({self.name!r}, {self.params!r})"

    def values_on(self, lattice: TorusLattice) -> np.ndarray:
        if self._values is not None:
            if len(self._values) != lattice.n_sites:
                raise ValueError(f"tabulated test function has {len(self._values)} values and "
                                 f"does not match lattice of {lattice.n_sites} sites")
            return self._values
        try:
            return np.asarray(self._evaluate(lattice.positions()), dtype=float)
        except ValueError as exc:  # a mode or center with more entries than d
            raise ValueError(f"{self!r} does not evaluate: {exc}") from exc

    def norm_l2n(self, lattice: TorusLattice) -> float:
        """Discrete L2 norm: sqrt(n^-d sum_x f(x/n)^2)."""
        v = self.values_on(lattice)
        return float(np.sqrt(np.mean(v ** 2)))

    @classmethod
    def constant(cls, c=1.0):
        c = float(c)
        return cls("constant", {"c": c}, lambda pts: np.full(pts.shape[0], c))

    @classmethod
    def cos_mode(cls, mode=1):
        mode = np.atleast_1d(np.asarray(mode, dtype=float))
        return cls("cos", {"mode": mode.tolist()},
                   lambda pts: np.cos(2.0 * np.pi * (pts @ np.broadcast_to(mode, (pts.shape[1],)))))

    @classmethod
    def sin_mode(cls, mode=1):
        mode = np.atleast_1d(np.asarray(mode, dtype=float))
        return cls("sin", {"mode": mode.tolist()},
                   lambda pts: np.sin(2.0 * np.pi * (pts @ np.broadcast_to(mode, (pts.shape[1],)))))

    @classmethod
    def bump(cls, center=0.0, width=0.25):
        """Smooth periodic bump exp((cos(2 pi (x - c)) - 1) / w^2), peak value 1."""
        width = float(width)
        if width <= 0:
            raise ValueError("bump width must be > 0")
        center = np.atleast_1d(np.asarray(center, dtype=float))

        def ev(pts):
            c = np.broadcast_to(center, (pts.shape[1],))
            return np.exp((np.cos(2.0 * np.pi * (pts - c)) - 1.0).sum(axis=1) / width ** 2)

        return cls("bump", {"center": center.tolist(), "width": width}, ev)

    @classmethod
    def tabulated(cls, values):
        values = np.asarray(values, dtype=float)
        return cls("tabulated", {"n_sites": len(values)}, None, values)

    @classmethod
    def from_config(cls, cfg):
        cfg = dict(cfg)
        name = cfg.pop("name", None)
        table = {"constant": cls.constant, "cos": cls.cos_mode, "sin": cls.sin_mode,
                 "bump": cls.bump, "tabulated": cls.tabulated}
        if name not in table:
            raise ValueError(f"unknown test function {name!r}")
        return table[name](**cfg)


@dataclass
class CenteredField:
    """w_x^i = 1(sigma_x = i) - u_x^i for one configuration or a stack of them.

    Kept as the states and the density, so pairing a stack of R replicas
    never builds an (R, N, k+1) array; ``w`` materializes the field.
    """

    lattice: TorusLattice
    k: int
    sigma: np.ndarray  # (N,) or (R, N)
    u: np.ndarray      # (N, k+1)

    @property
    def w(self) -> np.ndarray:
        """(..., N, k+1) field; per-site rows sum to zero."""
        return (self.sigma[..., None] == np.arange(self.k + 1)) - self.u


def centered_field(config: SpinConfig, u: DensityField) -> CenteredField:
    if config.lattice != u.lattice or config.k != u.k:
        raise ValueError("configuration and density field live on different systems")
    return CenteredField(config.lattice, config.k, config.sigma, u.u)


def pairing(w: CenteredField, f: TestFunction, i):
    """sum_x w_x^i f(x/n): a float, or one per replica of a stack."""
    fv = f.values_on(w.lattice)
    total = np.where(w.sigma == i, fv, 0.0).sum(axis=-1) - np.sum(w.u[:, i] * fv)
    return float(total) if np.ndim(total) == 0 else total


def lln_error(w: CenteredField, f: TestFunction, i):
    """Density-scale pairing n^-d sum_x w_x^i f(x/n); one per replica of a stack."""
    return pairing(w, f, i) / w.lattice.n_sites


def fluctuation(w: CenteredField, f: TestFunction, i):
    """Fluctuation-scale pairing n^-d/2 sum_x w_x^i f(x/n); one per replica of a stack."""
    return pairing(w, f, i) / math.sqrt(w.lattice.n_sites)


def carre_du_champ(config: SpinConfig, params: ModelParams, f: TestFunction, i, j):
    """Quadratic form of the generator on a pair of fluctuation observables:
    a float, or one per configuration of a stack.

    Each jump at site x raises sigma_x by one (mod k+1), so the state-i
    indicator changes by 1(sigma_x = i-1) - 1(sigma_x = i); the form weights
    the product of those changes by the jump rate and f(x/n)^2.
    """
    kp1 = params.k + 1
    _, rate = rates_from_scratch(config, params)
    sigma = config.sigma
    di = (sigma == (i - 1) % kp1).astype(float) - (sigma == i % kp1)
    dj = (sigma == (j - 1) % kp1).astype(float) - (sigma == j % kp1)
    fv = f.values_on(config.lattice)
    form = np.mean(rate * di * dj * fv ** 2, axis=-1)
    return float(form) if np.ndim(form) == 0 else form
