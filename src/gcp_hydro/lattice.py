"""Torus geometry, interaction kernels, and the discrete convolutions built on them.

Sites of the d-dimensional discrete torus of side n are indexed row-major
(last coordinate fastest) and embedded into the unit torus at x/n.  A kernel
is sampled onto site pairs with an explicitly zero diagonal; the resulting
matrix backs the normalized convolutions used by every other module.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

# Above this many sites the O(N^2) kernel matrix is not stored; rows are
# evaluated on demand instead.
DENSE_SITE_LIMIT = 4096


@dataclass(frozen=True)
class TorusLattice:
    """Discrete torus Z^d / nZ^d with row-major site indexing."""

    d: int
    n: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("lattice dimension d must be >= 1")
        if self.n < 1:
            raise ValueError("lattice side n must be >= 1")

    @property
    def n_sites(self) -> int:
        return self.n ** self.d

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    def coords(self, index):
        """Site index -> integer coordinates in [0, n)^d."""
        return np.stack(np.unravel_index(np.asarray(index), self.shape), axis=-1)

    def index(self, coords):
        """Integer coordinates -> site index, wrapping periodically."""
        coords = np.asarray(coords)
        return np.ravel_multi_index(tuple(coords[..., i] for i in range(self.d)),
                                    self.shape, mode="wrap")

    def positions(self) -> np.ndarray:
        """(N, d) array of the embedded points x/n in the unit torus."""
        idx = np.arange(self.n_sites)
        return self.coords(idx) / float(self.n)

    def shift_permutation(self, offset) -> np.ndarray:
        """Index permutation realizing translation by an integer offset vector."""
        offset = np.broadcast_to(np.asarray(offset, dtype=int), (self.d,))
        return self.index(self.coords(np.arange(self.n_sites)) + offset)


def _wrap_displacement(r):
    """Map coordinate differences to the fundamental domain [-1/2, 1/2)."""
    return r - np.round(r)


class KernelSpec:
    """Named nonnegative kernel on the unit torus with closed-form norm bounds.

    ``norm_l1`` is sup_x of the y-integral of J(x, .) and ``norm_inf`` the
    pointwise sup; both are exact for the catalog entries.
    """

    def __init__(self, name, params, evaluate, norm_inf, norm_l1, table=None):
        self.name = name
        self.params = dict(params)
        self._evaluate = evaluate
        self.norm_inf = float(norm_inf)
        self.norm_l1 = float(norm_l1)
        self.table = table

    def __repr__(self):
        return f"KernelSpec({self.name!r}, {self.params!r})"

    def evaluate(self, x, y):
        """Pointwise values J(x, y); x and y are (..., d) arrays."""
        if self._evaluate is None:
            raise ValueError(f"kernel {self.name!r} is tabulated and has no "
                             "continuum evaluator")
        return self._evaluate(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    @classmethod
    def constant(cls, c=1.0):
        c = float(c)
        if c < 0:
            raise ValueError("constant kernel needs c >= 0")
        return cls("constant", {"c": c},
                   lambda x, y: np.full(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]), c),
                   norm_inf=c, norm_l1=c)

    @classmethod
    def cosine(cls, beta=0.5, d=1):
        """Product over coordinates of 1 + beta*cos(2 pi (x_i - y_i))."""
        beta = float(beta)
        if abs(beta) > 1:
            raise ValueError("cosine kernel needs |beta| <= 1 for nonnegativity")

        def ev(x, y):
            r = _wrap_displacement(x - y)
            return np.prod(1.0 + beta * np.cos(2.0 * np.pi * r), axis=-1)

        # each factor integrates to 1 in y; sup of each factor is 1 + |beta|
        return cls("cosine", {"beta": beta}, ev,
                   norm_inf=(1.0 + abs(beta)) ** d, norm_l1=1.0)

    @classmethod
    def gaussian(cls, c=1.0, width=0.1, d=1):
        """Periodized Gaussian bump, normalized so the y-integral equals c."""
        c, width = float(c), float(width)
        if c < 0:
            raise ValueError("gaussian kernel needs c >= 0")
        if not 0 < width <= 0.2:
            raise ValueError("gaussian kernel needs 0 < width <= 0.2")
        images = np.arange(-3, 4, dtype=float)
        z = math.sqrt(2.0 * math.pi) * width

        def phi(r):
            # r in [-1/2, 1/2); +-3 periodic images are exact to double precision
            return np.exp(-(r[..., None] + images) ** 2 / (2.0 * width ** 2)).sum(axis=-1) / z

        def ev(x, y):
            r = _wrap_displacement(x - y)
            return c * np.prod(phi(r), axis=-1)

        peak = float(phi(np.zeros(1))[0])
        return cls("gaussian", {"c": c, "width": width}, ev,
                   norm_inf=c * peak ** d, norm_l1=c)

    @classmethod
    def tabulated(cls, table):
        """Kernel given directly as a site-pair matrix for one specific lattice."""
        table = np.asarray(table, dtype=float)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("tabulated kernel must be a square matrix")
        return cls("tabulated", {"n_sites": table.shape[0]}, None,
                   norm_inf=float(np.max(table)) if table.size else 0.0,
                   norm_l1=float(np.max(table.sum(axis=1))) / max(table.shape[0], 1),
                   table=table)

    @classmethod
    def from_table_csv(cls, path, n_sites):
        """Load a tabulated kernel from CSV rows (x-index, y-index, value)."""
        table = np.zeros((n_sites, n_sites))
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].strip().startswith("#"):
                    continue
                x, y, v = int(row[0]), int(row[1]), float(row[2])
                table[x, y] = v
        return cls.tabulated(table)

    @classmethod
    def from_config(cls, cfg, d=1):
        cfg = dict(cfg)
        name = cfg.pop("name", None)
        if name == "constant":
            return cls.constant(**cfg)
        if name == "cosine":
            return cls.cosine(d=d, **cfg)
        if name == "gaussian":
            return cls.gaussian(d=d, **cfg)
        if name == "tabulated":
            if "path" in cfg:
                return cls.from_table_csv(cfg["path"], int(cfg["n_sites"]))
            return cls.tabulated(cfg["table"])
        raise ValueError(f"unknown kernel name {name!r}")


class DiscreteKernel:
    """Kernel sampled on site pairs of one lattice, with zero diagonal.

    Stores the dense (N, N) matrix when N <= DENSE_SITE_LIMIT, otherwise
    evaluates rows on the fly.  Immutable after construction.
    """

    def __init__(self, lattice: TorusLattice, spec: KernelSpec, dense=None):
        self.lattice = lattice
        self.spec = spec
        n_sites = lattice.n_sites
        if dense is None:
            dense = n_sites <= DENSE_SITE_LIMIT
        self._positions = lattice.positions()
        self._matrix = None
        if spec.table is not None:
            if spec.table.shape != (n_sites, n_sites):
                raise ValueError("tabulated kernel shape does not match lattice "
                                 f"({spec.table.shape} vs {n_sites} sites)")
            m = spec.table.copy()
            np.fill_diagonal(m, 0.0)
            self._check_entries(m)
            self._matrix = m
        elif dense:
            m = spec.evaluate(self._positions[:, None, :], self._positions[None, :, :])
            m = np.asarray(m, dtype=float)
            np.fill_diagonal(m, 0.0)
            self._check_entries(m)
            self._matrix = m
        if self._matrix is not None:
            self.norm_1n = float(np.max(self._matrix.sum(axis=1))) / n_sites
            self.norm_inf = float(np.max(self._matrix)) if n_sites > 1 else 0.0
        else:
            self.norm_1n = self._scan_norm_1n()
            self.norm_inf = spec.norm_inf

    @staticmethod
    def _check_entries(m):
        if not np.all(np.isfinite(m)):
            raise ValueError("kernel evaluation produced non-finite values")
        if np.any(m < 0):
            raise ValueError("kernel evaluation produced negative values")

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            raise ValueError("kernel is in on-the-fly mode; no dense matrix stored")
        return self._matrix

    @property
    def is_dense(self) -> bool:
        return self._matrix is not None

    def row(self, x) -> np.ndarray:
        """Row J[x, :] with the diagonal entry zeroed."""
        if self._matrix is not None:
            return self._matrix[x]
        r = self.spec.evaluate(self._positions[x], self._positions)
        r = np.asarray(r, dtype=float)
        self._check_entries(r)
        r[x] = 0.0
        return r

    def col(self, x) -> np.ndarray:
        """Column J[:, x] with the diagonal entry zeroed."""
        if self._matrix is not None:
            return self._matrix[:, x]
        c = self.spec.evaluate(self._positions, self._positions[x])
        c = np.asarray(c, dtype=float)
        self._check_entries(c)
        c[x] = 0.0
        return c

    def _scan_norm_1n(self, block=256):
        n_sites = self.lattice.n_sites
        best = 0.0
        for start in range(0, n_sites, block):
            stop = min(start + block, n_sites)
            rows = self.spec.evaluate(self._positions[start:stop, None, :],
                                      self._positions[None, :, :])
            rows = np.asarray(rows, dtype=float)
            rows[np.arange(start, stop) - start, np.arange(start, stop)] = 0.0
            best = max(best, float(np.max(rows.sum(axis=1))))
        return best / n_sites

    def _apply(self, g, transpose):
        g = np.asarray(g, dtype=float)
        n_sites = self.lattice.n_sites
        if g.shape[0] != n_sites:
            raise ValueError(f"field has {g.shape[0]} entries, lattice has {n_sites} sites")
        if self._matrix is not None:
            m = self._matrix.T if transpose else self._matrix
            return m @ g / n_sites
        out = np.zeros_like(g, dtype=float)
        for start in range(0, n_sites, 256):
            stop = min(start + 256, n_sites)
            rows = self.spec.evaluate(self._positions[start:stop, None, :],
                                      self._positions[None, :, :])
            rows = np.asarray(rows, dtype=float)
            rows[np.arange(stop - start), np.arange(start, stop)] = 0.0
            if transpose:
                out += rows.T @ g[start:stop]
            else:
                out[start:stop] = rows @ g
        return out / n_sites

    def conv(self, g) -> np.ndarray:
        """Normalized convolution: result_x = n^-d sum_y J[x, y] g_y."""
        return self._apply(g, transpose=False)

    def conv_adjoint(self, g) -> np.ndarray:
        """Adjoint convolution: result_x = n^-d sum_y J[y, x] g_y."""
        return self._apply(g, transpose=True)


def discretize(spec: KernelSpec, lattice: TorusLattice, dense=None) -> DiscreteKernel:
    """Sample a kernel onto a lattice (zero diagonal, exact norm over sites)."""
    if lattice.n < 2:
        raise ValueError("discretize needs lattice side n >= 2")
    return DiscreteKernel(lattice, spec, dense=dense)
