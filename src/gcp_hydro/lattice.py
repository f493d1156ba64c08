"""Torus geometry, interaction kernels, and the discrete convolutions built on them.

Sites of the d-dimensional discrete torus of side n are indexed row-major
(last coordinate fastest) and embedded into the unit torus at x/n.  A
catalog kernel is a function of x - y, so it is sampled once on the N
displacements of the lattice, with an explicitly zero diagonal; its columns
and its (N, N) matrix are windows of that one sample.  A spec carries no
norms: the sup norm the simulator reads is the sampled kernel's.  The spec
alone picks one of two convolution engines (``KernelSpec.engine``): a
factorization J[x, y] = sum_j P[x, j] Q[y, j], valid off the diagonal, of
rank r = 1 for the constant kernel, r = 3^d for the cosine kernel and r = N
for a tabulated kernel (P the identity, Q[y] the column J[:, y]), or FFT for
any other catalog kernel.  The normalized convolutions serve every other
module; the simulator reads every kernel as a factorization, an FFT
kernel's being the rank-N one gathered by ``col``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided


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
    """Named nonnegative kernel on the unit torus.

    ``evaluate(x, y)`` must be a function of x - y alone: a lattice samples
    it once on its displacements.  A kernel of arbitrary site pairs is what
    ``tabulated`` is for.  ``features(points)``, when given, returns (P, Q),
    each (len(points), r), with J(x, y) = sum_j P[x, j] Q[y, j].
    """

    def __init__(self, name, params, evaluate, table=None, features=None):
        self.name = name
        self.params = dict(params)
        self._evaluate = evaluate
        self.table = table
        self.features = features

    def __repr__(self):
        return f"KernelSpec({self.name!r}, {self.params!r})"

    @property
    def engine(self) -> str:
        """How the kernel convolves on every lattice: ``"factors"`` through its
        features or its table, ``"fft"`` for any other kernel."""
        return "fft" if self.table is None and self.features is None else "factors"

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
                   features=lambda pts: (np.full((len(pts), 1), c), np.ones((len(pts), 1))))

    @classmethod
    def cosine(cls, beta=0.5):
        """Product over coordinates of 1 + beta*cos(2 pi (x_i - y_i))."""
        beta = float(beta)
        if abs(beta) > 1:
            raise ValueError("cosine kernel needs |beta| <= 1 for nonnegativity")

        def ev(x, y):
            r = _wrap_displacement(x - y)
            return np.prod(1.0 + beta * np.cos(2.0 * np.pi * r), axis=-1)

        def features(pts):
            # per axis 1 + beta cos(tx - ty) = 1 + beta cos tx cos ty + beta sin tx sin ty;
            # the product over axes pairs every choice of one term per axis
            p = q = np.ones((len(pts), 1))
            for theta in 2.0 * np.pi * pts.T:
                q_axis = np.stack([np.ones_like(theta), np.cos(theta), np.sin(theta)], axis=1)
                p = (p[:, :, None] * (q_axis * [1.0, beta, beta])[:, None, :]).reshape(len(pts), -1)
                q = (q[:, :, None] * q_axis[:, None, :]).reshape(len(pts), -1)
            return p, q

        return cls("cosine", {"beta": beta}, ev, features=features)

    @classmethod
    def gaussian(cls, c=1.0, width=0.1):
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

        return cls("gaussian", {"c": c, "width": width}, ev)

    @classmethod
    def tabulated(cls, table):
        """Kernel given directly as a site-pair matrix for one specific lattice."""
        table = np.asarray(table, dtype=float)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("tabulated kernel must be a square matrix")
        return cls("tabulated", {"n_sites": table.shape[0]}, None, table=table)

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
    def from_config(cls, cfg):
        cfg = dict(cfg)
        name = cfg.pop("name", None)
        if name == "constant":
            return cls.constant(**cfg)
        if name == "cosine":
            return cls.cosine(**cfg)
        if name == "gaussian":
            return cls.gaussian(**cfg)
        if name == "tabulated":
            if "path" in cfg:
                return cls.from_table_csv(cfg["path"], int(cfg["n_sites"]))
            return cls.tabulated(cfg["table"])
        raise ValueError(f"unknown kernel name {name!r}")


class DiscreteKernel:
    """Kernel sampled on the site pairs of one lattice, with zero diagonal.

    A catalog kernel is sampled once as phi(r) = J(r/n, 0) on the N
    displacements r, with phi(0) = 0, and stored doubled along every axis:
    the column J[:, x] = phi(. - x) is the window of that array starting at
    n - x, which ``col`` and ``matrix`` both gather.  A spec with
    ``features`` also stores its (N, r) factors P and Q, sampled at the
    sites.  A tabulated kernel is stored as the rank-N factorization alone:
    P the identity (``None``) and Q = J^T with a zero diagonal, so its
    columns are rows of Q and no diagonal is subtracted.  ``engine`` is the
    spec's (``KernelSpec.engine``): ``"factors"`` convolves by P Q^T less
    its diagonal, ``"fft"`` by FFTs of phi.  Immutable after construction.
    """

    def __init__(self, lattice: TorusLattice, spec: KernelSpec):
        self.lattice = lattice
        self.spec = spec
        self.engine = spec.engine
        n_sites = lattice.n_sites
        self._axes = tuple(range(lattice.d))
        self._phi2 = self._phi_hat = self._p = self._q = self._diag = None
        self.rank = n_sites
        if spec.table is not None:
            if spec.table.shape != (n_sites, n_sites):
                raise ValueError(f"tabulated kernel has {spec.table.shape[0]} sites and "
                                 f"does not match lattice of {n_sites} sites")
            q = spec.table.T.copy()   # C-contiguous: row y is the column J[:, y]
            np.fill_diagonal(q, 0.0)
            self._check_entries(q)
            self._q, self.norm_inf = q, float(np.max(q))
            return
        phi = spec.evaluate(lattice.positions(), np.zeros(lattice.d))
        phi = np.array(phi, dtype=float).reshape(lattice.shape)
        phi[(0,) * lattice.d] = 0.0
        self._check_entries(phi)
        self.norm_inf = float(phi.max())
        self._phi2 = np.tile(phi, (2,) * lattice.d)
        if self.engine == "factors":
            self._p, self._q = (np.ascontiguousarray(f, dtype=float)
                                for f in spec.features(lattice.positions()))
            self.rank = self._q.shape[1]
            # P Q^T holds J's diagonal too, which the convolution leaves out
            self._diag = np.einsum("xj,xj->x", self._p, self._q)
        else:
            self._phi_hat = np.fft.rfftn(phi, axes=self._axes)

    @staticmethod
    def _check_entries(m):
        if not np.all(np.isfinite(m)):
            raise ValueError("kernel has non-finite values on the lattice")
        if np.any(m < 0):
            raise ValueError("kernel has negative values on the lattice")

    @property
    def matrix(self) -> np.ndarray:
        """The (N, N) matrix J[x, y], gathered by ``col`` as a new C-contiguous
        array on each call."""
        return np.ascontiguousarray(self.col(np.arange(self.lattice.n_sites)).T)

    def col(self, xs) -> np.ndarray:
        """Columns J[:, x] for an index array xs, as (len(xs), N) rows: rows of
        a tabulated kernel's Q, else windows phi(. - x)."""
        xs = np.asarray(xs)
        if self._phi2 is None:
            return self._q[xs]
        # every window of side n of the doubled phi, (n + 1)^d of them; the
        # view allocates nothing, and the one at n - x is phi(. - x)
        n, d = self.lattice.n, self.lattice.d
        windows = as_strided(self._phi2, (n + 1,) * d + (n,) * d, self._phi2.strides * 2,
                             writeable=False)
        return windows[tuple((n - self.lattice.coords(xs)).T)].reshape(len(xs), -1)

    def features_at(self, xs) -> np.ndarray:
        """Rows Q[xs], (len(xs), rank): what activating site x adds to a lane's sums, times N."""
        return self.col(xs) if self._q is None else self._q[xs]

    def feature_sums(self, active) -> np.ndarray:
        """Feature sums n^-d sum_{y active} Q[y] of an activity field (N,), or of
        each row of a stack (m, N)."""
        if self._q is None:
            return self.conv(active)
        return np.asarray(active, dtype=float) @ self._q / self.lattice.n_sites

    def contract(self, sums, rows, xs) -> np.ndarray:
        """sum_j P[xs[i], j] sums[rows[i], j]: the intensity at site xs[i] of the
        configuration whose feature sums are row rows[i], exact where xs[i] is passive."""
        if self._p is None:
            return sums[rows, xs]
        return np.einsum("ij,ij->i", self._p[xs], sums[rows])

    def _apply(self, g, adjoint):
        # contiguous, so the result's bytes are a function of g's values: a
        # BLAS product sums in an order that depends on its operand's strides
        g = np.ascontiguousarray(g, dtype=float)
        n_sites = self.lattice.n_sites
        if g.shape[-1] != n_sites:
            raise ValueError(f"field has {g.shape[-1]} entries, lattice has {n_sites} sites")
        if self.engine == "factors":
            # sum_{y != x} J[x, y] g_y = (P Q^T g)_x - diag(P Q^T)_x g_x; the
            # adjoint swaps P and Q, and the diagonal is the same.  A factor
            # stored as None is the identity; a tabulated Q has no diagonal
            p, q = (self._q, self._p) if adjoint else (self._p, self._q)
            out = g if q is None else g @ q
            out = out if p is None else out @ p.T
            if self._diag is not None:
                out -= self._diag * g
        else:
            # circular convolution with phi; the adjoint correlates with it instead
            phi_hat = np.conj(self._phi_hat) if adjoint else self._phi_hat
            shape = g.shape[:-1] + self.lattice.shape
            axes = tuple(range(g.ndim - 1, len(shape)))
            g_hat = np.fft.rfftn(g.reshape(shape), axes=axes)
            out = np.fft.irfftn(phi_hat * g_hat, s=self.lattice.shape, axes=axes).reshape(g.shape)
        out /= n_sites
        return out

    def conv(self, g) -> np.ndarray:
        """Normalized convolution: result_x = n^-d sum_y J[x, y] g_y.

        ``g`` is a field (N,) or a stack of fields (m, N), convolved row by row.
        """
        return self._apply(g, adjoint=False)

    def conv_adjoint(self, g) -> np.ndarray:
        """Adjoint convolution: result_x = n^-d sum_y J[y, x] g_y; shapes as in ``conv``."""
        return self._apply(g, adjoint=True)


def discretize(spec: KernelSpec, lattice: TorusLattice) -> DiscreteKernel:
    """Sample a kernel onto a lattice (zero diagonal, sup norm exact over sites)."""
    if lattice.n < 2:
        raise ValueError("discretize needs lattice side n >= 2")
    return DiscreteKernel(lattice, spec)
