import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcp_hydro.lattice import KernelSpec, TorusLattice, discretize


def test_zero_kernel_all_entries_zero():
    lat = TorusLattice(1, 6)
    kern = discretize(KernelSpec.constant(0.0), lat)
    assert np.all(kern.matrix == 0.0)
    assert np.all(kern.conv(np.ones(6)) == 0.0)


def test_constant_kernel_entries_and_norm():
    # J = 1, d=1, n=4: off-diagonal ones, zero diagonal, norm (n-1)/n
    lat = TorusLattice(1, 4)
    kern = discretize(KernelSpec.constant(1.0), lat)
    expected = np.ones((4, 4)) - np.eye(4)
    np.testing.assert_array_equal(kern.matrix, expected)


def test_cosine_kernel_symmetric_circulant_zero_diagonal():
    lat = TorusLattice(1, 8)
    kern = discretize(KernelSpec.cosine(0.5), lat)
    m = kern.matrix
    assert np.all(np.diag(m) == 0.0)
    np.testing.assert_allclose(m, m.T, atol=1e-14)
    base = KernelSpec.cosine(0.5).evaluate(lat.positions()[:, None, :],
                                           lat.positions()[None, :, :])
    off = ~np.eye(8, dtype=bool)
    np.testing.assert_allclose(m[off], np.asarray(base)[off], atol=1e-14)


def test_discretize_rejects_negative_and_nonfinite():
    lat = TorusLattice(1, 4)
    bad_neg = KernelSpec("bad", {}, lambda x, y: np.full(np.broadcast_shapes(
        x.shape[:-1], y.shape[:-1]), -1.0))
    with pytest.raises(ValueError, match="negative"):
        discretize(bad_neg, lat)
    bad_nan = KernelSpec("bad", {}, lambda x, y: np.full(np.broadcast_shapes(
        x.shape[:-1], y.shape[:-1]), np.nan))
    with pytest.raises(ValueError, match="non-finite"):
        discretize(bad_nan, lat)


def test_discretize_requires_two_sites():
    with pytest.raises(ValueError, match="n >= 2"):
        discretize(KernelSpec.constant(1.0), TorusLattice(1, 1))


def test_conv_constant_kernel_on_ones():
    lat = TorusLattice(1, 4)
    kern = discretize(KernelSpec.constant(2.0), lat)
    np.testing.assert_allclose(kern.conv(np.ones(4)), 2.0 * 3 / 4, atol=1e-15)


def test_conv_dimension_mismatch():
    kern = discretize(KernelSpec.constant(1.0), TorusLattice(1, 4))
    with pytest.raises(ValueError, match="sites"):
        kern.conv(np.ones(5))


def _asymmetric_kernel():
    def ev(x, y):
        r = x - y - np.round(x - y)
        return np.prod(1.0 + 0.5 * np.cos(2 * np.pi * r) + 0.3 * np.sin(2 * np.pi * r),
                       axis=-1)
    return KernelSpec("skew", {}, ev)


# lattices of at most 64 sites and of more than 512, so the window gather
# of columns and matrix is checked at large N too
_SIDES = {1: st.one_of(st.integers(5, 40), st.integers(513, 900)),
          2: st.sampled_from([6, 24]),
          3: st.sampled_from([4, 9])}


@st.composite
def _kernel_case(draw):
    d = draw(st.integers(1, 3))
    n = draw(_SIDES[d])
    name = draw(st.sampled_from(["cosine", "gaussian", "constant", "skew"]))
    if name == "cosine":
        spec = KernelSpec.cosine(draw(st.floats(-1.0, 1.0)))
    elif name == "gaussian":
        spec = KernelSpec.gaussian(c=draw(st.floats(0.1, 3.0)),
                                   width=draw(st.floats(0.02, 0.2)))
    elif name == "constant":
        spec = KernelSpec.constant(draw(st.one_of(st.just(0.0), st.floats(0.01, 3.0))))
    else:
        spec = _asymmetric_kernel()
    return TorusLattice(d, n), spec, draw(st.integers(0, 2 ** 31 - 1))


@settings(deadline=None, max_examples=40)
@given(_kernel_case())
def test_kernel_engines_match_explicit_matrix(case):
    # oracle: J evaluated on every site pair, diagonal zeroed
    lat, spec, seed = case
    pos = lat.positions()
    m = np.asarray(spec.evaluate(pos[:, None, :], pos[None, :, :]), dtype=float)
    np.fill_diagonal(m, 0.0)
    kern = discretize(spec, lat)
    n_sites = lat.n_sites
    rng = np.random.default_rng(seed)
    g = rng.normal(size=n_sites)
    xs = rng.integers(n_sites, size=3)
    peak = float(m.max())
    tol = 1e-12 * peak * np.max(np.abs(g))
    assert np.max(np.abs(kern.conv(g) - m @ g / n_sites)) <= tol
    assert np.max(np.abs(kern.conv_adjoint(g) - m.T @ g / n_sites)) <= tol
    # a stack of fields is convolved row by row, columns of J gathered as rows
    gs = np.stack([g, -2.0 * g])
    assert np.max(np.abs(kern.conv(gs) - gs @ m.T / n_sites)) <= 2.0 * tol
    assert np.max(np.abs(kern.conv_adjoint(gs) - gs @ m / n_sites)) <= 2.0 * tol
    assert np.max(np.abs(kern.col(xs) - m[:, xs].T)) <= 1e-12 * peak
    assert abs(kern.norm_inf - peak) <= 1e-12 * peak
    matrix = kern.matrix
    assert matrix.flags.c_contiguous and np.max(np.abs(matrix - m)) <= 1e-12 * peak
    # the kind of kernel alone picks the engine, at every size
    assert kern.engine == ("factors" if spec.name in ("cosine", "constant") else "fft")


@pytest.mark.parametrize("d, n", [(1, 7), (2, 4)])
def test_tabulated_kernel_matches_its_table(d, n):
    # oracle: the table itself, diagonal zeroed; a non-symmetric table, so
    # conv and conv_adjoint tell J from its transpose
    n_sites = n ** d
    rng = np.random.default_rng(d * 100 + n)
    table = rng.uniform(0.0, 2.0, (n_sites, n_sites))
    m = table.copy()
    np.fill_diagonal(m, 0.0)
    assert np.max(np.abs(m - m.T)) > 0.1
    kern = discretize(KernelSpec.tabulated(table), TorusLattice(d, n))
    g = rng.normal(size=n_sites)
    gs = np.stack([g, rng.normal(size=n_sites)])
    tol = 1e-12 * float(m.max()) * np.max(np.abs(gs))
    assert np.max(np.abs(kern.conv(g) - m @ g / n_sites)) <= tol
    assert np.max(np.abs(kern.conv_adjoint(g) - m.T @ g / n_sites)) <= tol
    assert np.max(np.abs(kern.conv(gs) - gs @ m.T / n_sites)) <= tol
    assert np.max(np.abs(kern.conv_adjoint(gs) - gs @ m / n_sites)) <= tol
    xs = np.array([0, n_sites - 1, 2])
    np.testing.assert_array_equal(kern.col(xs), m[:, xs].T)
    np.testing.assert_array_equal(kern.features_at(xs), m[:, xs].T)
    matrix = kern.matrix
    assert matrix.flags.c_contiguous
    np.testing.assert_array_equal(matrix, m)
    assert kern.norm_inf == float(m.max())
    # the simulator's feature sums: n^-d sum_{y active} J[:, y], per row
    active = rng.integers(0, 2, (2, n_sites)).astype(bool)
    assert np.max(np.abs(kern.feature_sums(active) - active @ m.T / n_sites)) <= 1e-12 * m.max()


def _tabulated(d, n):
    rng = np.random.default_rng(n)
    return KernelSpec.tabulated(rng.uniform(size=(n ** d, n ** d)))


@pytest.mark.parametrize("make", [lambda d, n: KernelSpec.cosine(0.5),
                                  lambda d, n: KernelSpec.constant(1.5),
                                  lambda d, n: KernelSpec.gaussian(width=0.1),
                                  _tabulated],
                         ids=["cosine", "constant", "gaussian", "tabulated"])
@pytest.mark.parametrize("d, n", [(1, 16), (1, 256), (2, 8), (2, 16)])
def test_convolutions_read_values_not_strides(make, d, n):
    # a column of an (N, 3) density and its contiguous copy hold the same
    # values, so every engine gives the same bytes for both, one field or a
    # stack; a BLAS product reading the strided column summed in another order
    kern = discretize(make(d, n), TorusLattice(d, n))
    assert kern.engine in ("factors", "fft")
    u = np.random.default_rng(d * n).uniform(size=(n ** d, 3))
    for strided in (u[:, 2], u.T):
        contiguous = strided.copy()
        assert not strided.flags.c_contiguous and contiguous.flags.c_contiguous
        for apply in (kern.conv, kern.conv_adjoint):
            assert apply(strided).tobytes() == apply(contiguous).tobytes()


def test_adjoint_identity_weighted_inner_product():
    lat = TorusLattice(1, 16)
    kern = discretize(_asymmetric_kernel(), lat)
    rng = np.random.default_rng(11)
    w = 1.0 / lat.n_sites
    for _ in range(100):
        g, h = rng.normal(size=16), rng.normal(size=16)
        lhs = w * np.dot(kern.conv(g), h)
        rhs = w * np.dot(g, kern.conv_adjoint(h))
        assert abs(lhs - rhs) < 1e-12


def test_symmetric_kernel_adjoint_equals_conv():
    lat = TorusLattice(1, 12)
    kern = discretize(KernelSpec.cosine(0.4), lat)
    g = np.random.default_rng(5).normal(size=12)
    np.testing.assert_allclose(kern.conv(g), kern.conv_adjoint(g), atol=1e-14)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2 ** 31 - 1))
def test_conv_linearity_and_sup_bound(seed):
    lat = TorusLattice(1, 10)
    kern = discretize(KernelSpec.cosine(0.6), lat)
    rng = np.random.default_rng(seed)
    g, h = rng.normal(size=10), rng.normal(size=10)
    a, b = rng.normal(), rng.normal()
    np.testing.assert_allclose(kern.conv(a * g + b * h),
                               a * kern.conv(g) + b * kern.conv(h), atol=1e-12)
    norm_1n = kern.matrix.sum(axis=1).max() / lat.n_sites  # ||J||_{1,n}
    assert np.max(np.abs(kern.conv(g))) <= norm_1n * np.max(np.abs(g)) + 1e-12


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3), st.integers(2, 6), st.integers(0, 10 ** 6))
def test_index_coord_bijection(d, n, salt):
    lat = TorusLattice(d, n)
    idx = np.arange(lat.n_sites)
    assert np.array_equal(lat.index(lat.coords(idx)), idx)
    # periodic wrap: shifting by n in any coordinate is the identity
    shifted = lat.coords(idx) + n
    assert np.array_equal(lat.index(shifted), idx)


def test_tabulated_kernel_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    table = rng.uniform(0.0, 2.0, (5, 5))
    path = tmp_path / "kernel.csv"
    lines = [f"{x},{y},{float(table[x, y])!r}" for x in range(5) for y in range(5)]
    path.write_text("\n".join(lines) + "\n")
    spec = KernelSpec.from_table_csv(path, 5)
    kern = discretize(spec, TorusLattice(1, 5))
    off = ~np.eye(5, dtype=bool)
    np.testing.assert_allclose(kern.matrix[off], table[off], atol=1e-15)
    assert np.all(np.diag(kern.matrix) == 0.0)


@pytest.mark.parametrize("line", ["-1,0,2.0", "0,3,2.0"])
def test_tabulated_csv_rejects_index_outside_lattice(tmp_path, line):
    path = tmp_path / "kernel.csv"
    path.write_text("# x,y,value\n0,1,1.0\n" + line + "\n")
    with pytest.raises(ValueError, match="line 3: site index"):
        KernelSpec.from_table_csv(path, 3)


def test_tabulated_kernel_must_match_lattice():
    spec = KernelSpec.tabulated(np.ones((4, 4)))
    with pytest.raises(ValueError, match="does not match lattice"):
        discretize(spec, TorusLattice(1, 8))


def test_gaussian_kernel_mass_and_positivity():
    lat = TorusLattice(1, 64)
    spec = KernelSpec.gaussian(c=1.5, width=0.08)
    kern = discretize(spec, lat)
    assert np.all(kern.matrix >= 0.0)
    # lattice row means approximate the continuum mass c up to the diagonal hole
    row_means = kern.matrix.sum(axis=1) / lat.n_sites
    assert np.max(np.abs(row_means - 1.5)) < 0.12
    assert row_means.max() <= 1.5 + 1e-12


def test_shift_permutation_translation():
    lat = TorusLattice(2, 4)
    perm = lat.shift_permutation([1, 0])
    coords = lat.coords(np.arange(lat.n_sites))
    moved = lat.coords(perm)
    assert np.array_equal(moved[:, 0], (coords[:, 0] + 1) % 4)
    assert np.array_equal(moved[:, 1], coords[:, 1])
