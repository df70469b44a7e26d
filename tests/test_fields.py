import io

import numpy as np
import pytest
from scipy.integrate import quad

from blowlab.fields import (
    BOUNDARIES,
    BOUNDARY_NEUMANN,
    SEPARATORS,
    GridGeometry,
    NonFiniteFieldError,
    RadialField,
    RadialGrid,
    field_to_csv,
    _gradient_values,
    _laplacian_bands,
    _nonlocal_prefix_values,
)
from blowlab.profiles import f_profile, grad_f_profile
from blowlab.solver import _block, _sups
from conftest import ref_laplacian_matrix


def grid1(M=64, R=1.0, dim=1):
    return RadialGrid(R=R, M=M, dim=dim)


def lap_of(g, values, boundary="dirichlet-zero"):
    """L, as the bands of ``_laplacian_bands``, applied to ``values``."""
    lower, diagonal, upper = _laplacian_bands(g, boundary)
    out = diagonal * values
    out[:-1] += upper * values[1:]
    out[1:] += lower * values[:-1]
    return out


def banded(lower, diagonal, upper):
    return np.diag(diagonal) + np.diag(lower, -1) + np.diag(upper, 1)


def grad_of(g, values):
    return _gradient_values(values, g.h, "dirichlet-zero")


def prefix_of(g, values, params):
    return _nonlocal_prefix_values(np.abs(values) ** (params.q - 1.0), GridGeometry.of(g))


def test_grid_nodes():
    g = grid1(M=10, R=2.5)
    assert g.h == pytest.approx(0.25)
    assert np.allclose(g.r, np.arange(11) * 0.25)
    assert g.h * g.M == pytest.approx(g.R, rel=1e-15)
    with pytest.raises(ValueError):
        RadialGrid(R=1.0, M=4)


def test_nan_field_is_hard_error():
    g = grid1()
    vals = np.zeros(g.M + 1)
    vals[3] = np.nan
    with pytest.raises(NonFiniteFieldError):
        RadialField(g, vals)
    vals[3] = np.inf
    with pytest.raises(NonFiniteFieldError):
        RadialField(g, vals)


@pytest.mark.parametrize("dim,expected", [(1, 2.0), (3, 6.0)])
def test_laplacian_exact_on_r_squared(dim, expected):
    g = grid1(M=32, dim=dim)
    lap = lap_of(g, g.r ** 2)
    assert np.allclose(lap[:-1], expected, atol=1e-10)  # interior + origin


def test_laplacian_of_constant_is_zero():
    """Zero up to the rounding of the band products, a few ulps of the
    diagonal's 2/h^2 * 3.7 (one ulp, 1.8e-12, measured)."""
    g = grid1(dim=2)
    lap = lap_of(g, np.full(g.M + 1, 3.7), boundary="neumann-zero")
    assert np.allclose(lap, 0.0, atol=4.0 * np.finfo(float).eps * 2.0 / g.h ** 2 * 3.7)


def test_laplacian_second_order_convergence():
    """Halving h cuts the max error on cos(r) by a factor in [3.5, 4.5]."""
    def err(M):
        g = grid1(M=M, dim=3)
        r = g.r
        lap = lap_of(g, np.cos(r), boundary="neumann-zero")
        with np.errstate(invalid="ignore", divide="ignore"):
            exact = -np.cos(r) - 2.0 * np.sin(r) / r
        exact[0] = -3.0
        return np.max(np.abs(lap[:-1] - exact[:-1]))

    ratio = err(64) / err(128)
    assert 3.5 <= ratio <= 4.5


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_laplacian_bands_are_the_stencil_matrix(dim, boundary):
    """The tridiagonal bands the implicit step solves with equal, entry for
    entry, the tests' own reference stencil (``conftest.ref_laplacian``)
    applied to each unit vector."""
    grid = grid1(M=16, dim=dim)
    bands = _laplacian_bands(grid, boundary)
    assert np.array_equal(banded(*bands), ref_laplacian_matrix(grid, boundary))


def test_laplacian_bands_are_the_stencil_matrix_on_verify_grid():
    """``verify``'s heat-semigroup check symmetrizes and diagonalizes the
    bands: on its grid (R=4, M=256, dim 1, neumann) they equal the
    reference stencil too."""
    grid = grid1(M=256, R=4.0)
    bands = _laplacian_bands(grid, BOUNDARY_NEUMANN)
    assert np.array_equal(banded(*bands), ref_laplacian_matrix(grid, BOUNDARY_NEUMANN))


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_padded_block_kernels_are_the_1d_kernels_row_by_row(dim, boundary):
    """Each node of a padded block comes out of the gradient and the
    ball-integral prefix bit for bit as from the kernel on its 1-D field;
    NaN in the separator cells reaches no node."""
    grid = grid1(M=24, dim=dim)
    geom = GridGeometry.of(grid)
    rng = np.random.default_rng(dim)
    fields = rng.uniform(-1.0, 2.0, (3, grid.M + 1))
    fields[1, 5] = -0.0
    block = np.full((3, grid.M + 1 + SEPARATORS), np.nan)
    block[:, :-SEPARATORS] = fields
    with np.errstate(invalid="ignore"):
        outputs = [
            (_gradient_values(block, grid.h, boundary),
             [_gradient_values(f, grid.h, boundary) for f in fields]),
            (_nonlocal_prefix_values(np.abs(block) ** 2.0, geom.stacked(3)),
             [_nonlocal_prefix_values(np.abs(f) ** 2.0, geom) for f in fields]),
        ]
    for padded, alone in outputs:
        for row, single in zip(padded[:, :-SEPARATORS], alone):
            assert row.tobytes() == single.tobytes()


def test_gradient_exact_on_r_squared():
    g = grid1(M=32)
    grad = grad_of(g, g.r ** 2)
    assert np.allclose(grad, 2.0 * g.r, atol=1e-10)  # incl. one-sided boundary
    assert grad[0] == 0.0
    const = grad_of(g, np.full(g.M + 1, 2.0))
    assert np.allclose(const, 0.0, atol=1e-12)


def test_gradient_converges_to_profile_derivative(default_params):
    def err(M):
        g = grid1(M=M, R=5.0)
        grad = grad_of(g, f_profile(g.r, default_params))
        return np.max(np.abs(grad[1:-1] - grad_f_profile(g.r[1:-1], default_params)))

    e1, e2 = err(128), err(256)
    assert e1 / e2 == pytest.approx(4.0, abs=0.5)


def test_prefix_constant_field_n1(default_params):
    # u == 2, q = 3: J(0.5) = integral of 4 over [-0.5, 0.5] = 4
    g = grid1(M=64, R=1.0)
    J = prefix_of(g, np.full(g.M + 1, 2.0), default_params)
    assert J[0] == 0.0
    assert J[32] == pytest.approx(4.0, rel=1e-12)
    assert np.all(np.diff(J) >= 0.0)


def test_prefix_unit_field_n2_gives_ball_area():
    from blowlab.params import validate
    params2 = validate(p=4.0, q=4.5, mu=0.1, dim=2)
    g = grid1(M=128, R=2.0, dim=2)
    J = prefix_of(g, np.ones(g.M + 1), params2)
    assert np.allclose(J, np.pi * g.r ** 2, rtol=1e-12, atol=1e-12)


def test_prefix_homogeneous_of_degree_q_minus_one(default_params):
    g = grid1(M=96, R=2.0)
    rng = np.random.default_rng(3)
    u = rng.uniform(-1.0, 2.0, g.M + 1)
    lam = 3.7
    J1 = prefix_of(g, u, default_params)
    J2 = prefix_of(g, lam * u, default_params)
    assert np.allclose(J2, lam ** (default_params.q - 1.0) * J1, rtol=1e-12)


def test_prefix_against_quadrature_oracle(default_params):
    """Intermediate-profile field at T-t = 1e-3: grid prefix at r=R agrees
    with adaptive quadrature of the same integrand to O(h^2)."""
    p = default_params
    s = 1e-3
    ell = np.sqrt(s * abs(np.log(s)))
    amp = s ** (-1.0 / 3.0)

    def integrand(r):
        return (amp * f_profile(r / ell, p)) ** (p.q - 1.0)

    oracle = 2.0 * quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
    g = grid1(M=4096, R=1.0)
    J = prefix_of(g, amp * f_profile(g.r / ell, p), p)
    assert J[-1] == pytest.approx(oracle, rel=5e-6)


def test_sup_norm_locations(default_params):
    g = grid1(M=64, R=4.0)
    [value], [where] = _sups(f_profile(g.r, default_params), g.h)
    assert where == 0.0
    assert value == pytest.approx(default_params.kappa, rel=1e-14)
    u = np.zeros(g.M + 1)
    u[40] = 2.0
    assert _sups(u[:17], g.h) == ([0.0], [0.0])  # ties break to the smallest radius
    [value], [where] = _sups(u, g.h)
    assert (value, where) == (2.0, pytest.approx(2.5))
    # in a padded block the separators hold +0 and never win: a zero row's
    # sup stands at r = 0
    rows = [u, np.zeros(g.M + 1), -u[::-1]]
    assert _sups(_block(rows), g.h) == ([2.0, 0.0, 2.0], [40 * g.h, 0.0, 24 * g.h])


def test_field_csv_shape(default_params):
    g = grid1(M=8)
    fh = io.StringIO()
    field_to_csv(fh, RadialField(g, np.ones(9), time=0.25), default_params, "dirichlet-zero")
    lines = fh.getvalue().strip().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    assert any("time: 0.25" in ln for ln in header)
    assert any("mu: 0.1" in ln for ln in header)
    assert lines[len(header)] == "r,u,du_dr,J"
    assert len(lines) == len(header) + 1 + 9
