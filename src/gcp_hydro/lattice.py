"""Torus geometry, interaction kernels, and the discrete convolutions built on them.

Sites of the d-dimensional discrete torus of side n are indexed row-major
(last coordinate fastest) and embedded into the unit torus at x/n.  A
catalog kernel is a function of x - y, so it is sampled once on the N
displacements of the lattice, with an explicitly zero diagonal.  Small
lattices gather the dense circulant matrix from that sample; large ones
convolve by FFT.  Tabulated kernels are always dense.  Either way the
normalized convolutions serve every other module.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

# Up to this many sites a kernel is stored as the dense (N, N) matrix and
# applied by matvec; above it by FFT.  Measured on a 2-vCPU Intel Xeon VM with
# NumPy 2.4, one `conv` costs 17 us dense against 37-45 us FFT at N=256,
# 82-92 us against 48-52 us at N=512 (d=1), and 240-290 us against 43-107 us
# at N=1024; building the N=4096 kernel takes 2.3 s dense against 1.2 ms FFT.
DENSE_SITE_LIMIT = 512


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

    ``evaluate(x, y)`` must be a function of x - y alone: a lattice samples
    it once on its displacements.  A kernel of arbitrary site pairs is what
    ``tabulated`` is for.  ``norm_l1`` is sup_x of the y-integral of J(x, .)
    and ``norm_inf`` the pointwise sup; both are exact for the catalog
    entries.
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
            reader = csv.reader(fh)
            for row in reader:
                if not row or row[0].strip().startswith("#"):
                    continue
                x, y, v = int(row[0]), int(row[1]), float(row[2])
                if not (0 <= x < n_sites and 0 <= y < n_sites):
                    raise ValueError(f"{path}, line {reader.line_num}: site index "
                                     f"({x}, {y}) outside [0, {n_sites})")
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
    """Kernel sampled on the site pairs of one lattice, with zero diagonal.

    A catalog kernel is sampled once as phi(r) = J(r/n, 0) on the N
    displacements r, with phi(0) = 0.  At N <= DENSE_SITE_LIMIT, and for
    tabulated kernels, the (N, N) matrix J[x, y] = phi(x - y) is stored and
    applied by matvec; above the limit the convolutions are FFTs of phi.
    Immutable after construction.
    """

    def __init__(self, lattice: TorusLattice, spec: KernelSpec):
        self.lattice = lattice
        self.spec = spec
        n_sites = lattice.n_sites
        self._axes = tuple(range(lattice.d))
        self._matrix = self._phi = self._phi_hat = None
        if spec.table is not None:
            if spec.table.shape != (n_sites, n_sites):
                raise ValueError("tabulated kernel shape does not match lattice "
                                 f"({spec.table.shape} vs {n_sites} sites)")
            m = spec.table.copy()
            np.fill_diagonal(m, 0.0)
            self._check_entries(m)
            self._matrix = m
            self.norm_1n = float(np.max(m.sum(axis=1))) / n_sites
            self.norm_inf = float(np.max(m))
            return
        phi = spec.evaluate(lattice.positions(), np.zeros(lattice.d))
        phi = np.array(phi, dtype=float).reshape(lattice.shape)
        phi[(0,) * lattice.d] = 0.0
        self._check_entries(phi)
        # every row of a circulant kernel sums to phi.sum(), so both norms are
        # exact over sites
        self.norm_1n = float(phi.sum()) / n_sites
        self.norm_inf = float(phi.max())
        if n_sites <= DENSE_SITE_LIMIT:
            c = lattice.coords(np.arange(n_sites))
            self._matrix = phi.ravel()[lattice.index(c[:, None, :] - c[None, :, :])]
        else:
            self._phi = phi
            self._phi_hat = np.fft.rfftn(phi, axes=self._axes)

    @staticmethod
    def _check_entries(m):
        if not np.all(np.isfinite(m)):
            raise ValueError("kernel evaluation produced non-finite values")
        if np.any(m < 0):
            raise ValueError("kernel evaluation produced negative values")

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            raise ValueError(f"kernel on more than {DENSE_SITE_LIMIT} sites is applied "
                             "by FFT; no dense matrix stored")
        return self._matrix

    def col(self, x) -> np.ndarray:
        """Column J[:, x] = phi(. - x), with the diagonal entry zero."""
        if self._matrix is not None:
            return self._matrix[:, x]
        return np.roll(self._phi, self.lattice.coords(x), axis=self._axes).ravel()

    def _apply(self, g, adjoint):
        g = np.asarray(g, dtype=float)
        n_sites = self.lattice.n_sites
        if g.shape[0] != n_sites:
            raise ValueError(f"field has {g.shape[0]} entries, lattice has {n_sites} sites")
        if self._matrix is not None:
            m = self._matrix.T if adjoint else self._matrix
            return m @ g / n_sites
        # circular convolution with phi; the adjoint correlates with it instead
        phi_hat = np.conj(self._phi_hat) if adjoint else self._phi_hat
        shape = self.lattice.shape
        g_hat = np.fft.rfftn(g.reshape(shape), axes=self._axes)
        return np.fft.irfftn(phi_hat * g_hat, s=shape, axes=self._axes).ravel() / n_sites

    def conv(self, g) -> np.ndarray:
        """Normalized convolution: result_x = n^-d sum_y J[x, y] g_y."""
        return self._apply(g, adjoint=False)

    def conv_adjoint(self, g) -> np.ndarray:
        """Adjoint convolution: result_x = n^-d sum_y J[y, x] g_y."""
        return self._apply(g, adjoint=True)


def discretize(spec: KernelSpec, lattice: TorusLattice) -> DiscreteKernel:
    """Sample a kernel onto a lattice (zero diagonal, exact norms over sites)."""
    if lattice.n < 2:
        raise ValueError("discretize needs lattice side n >= 2")
    return DiscreteKernel(lattice, spec)
