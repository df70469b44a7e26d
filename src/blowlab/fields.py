"""Radial grid, discrete operators, norms, and the ball-integral evaluator.

Scalar fields are radially symmetric and live on the uniform grid
r_i = i*h, i = 0..M.  The even extension across r = 0 fixes the origin
closure of every operator; the closure at r = R is selected by the solver's
boundary mode ("dirichlet-zero" or "neumann-zero").
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ModelParams

BOUNDARY_DIRICHLET = "dirichlet-zero"
BOUNDARY_NEUMANN = "neumann-zero"
BOUNDARIES = (BOUNDARY_DIRICHLET, BOUNDARY_NEUMANN)


class NonFiniteFieldError(FloatingPointError):
    """A field picked up NaN/Inf values (blow-up overflow, never silent)."""


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid on [0, R] with M intervals in `dim` dimensions."""

    R: float
    M: int
    dim: int = 1

    def __post_init__(self):
        if not self.R > 0:
            raise ValueError(f"R must be positive, got {self.R}")
        if self.M < 8:
            raise ValueError(f"M must be >= 8, got {self.M}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    @property
    def h(self) -> float:
        return self.R / self.M

    @property
    def r(self) -> np.ndarray:
        return np.linspace(0.0, self.R, self.M + 1)

    def to_dict(self) -> dict:
        return {"R": self.R, "M": self.M, "dim": self.dim}

    @classmethod
    def from_dict(cls, data: dict) -> "RadialGrid":
        return cls(R=float(data["R"]), M=int(data["M"]), dim=int(data["dim"]))


@dataclass(frozen=True)
class GridGeometry:
    """The fixed arrays and constants of the discrete operators on one grid.

    Built once per run (or per public operator call) and passed to the
    kernels, so the step loop never recomputes them.  Each entry is the
    exact expression the kernels would otherwise evaluate per call, which
    keeps the kernels' output bit-identical.
    """

    h: float
    dim: int
    dr: np.ndarray               # np.diff(r): the trapezoid panel widths
    r_pow: np.ndarray | None     # r^(dim-1), ball-integral weight; None when dim == 1
    lap_coef: np.ndarray | None  # (dim-1)/r at the interior nodes; None when dim == 1
    area: float                  # sphere_area(dim)
    inv_h2: float                # 1/h^2

    @classmethod
    def of(cls, grid: RadialGrid) -> "GridGeometry":
        h = grid.h
        r = grid.r
        r_pow = lap_coef = None
        if grid.dim > 1:
            r_pow = r ** (grid.dim - 1.0)
            lap_coef = (grid.dim - 1.0) / (np.arange(1, grid.M, dtype=float) * h)
        return cls(h=h, dim=grid.dim, dr=np.diff(r), r_pow=r_pow, lap_coef=lap_coef,
                   area=sphere_area(grid.dim), inv_h2=1.0 / (h * h))


@dataclass
class RadialField:
    """Values of an even radial scalar at the grid nodes at one time."""

    grid: RadialGrid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.M + 1,):
            raise ValueError(
                f"values shape {self.values.shape} != (M+1,) = ({self.grid.M + 1},)"
            )
        ensure_finite(self.values)

    def copy(self) -> "RadialField":
        return RadialField(self.grid, self.values.copy(), self.time)


def ensure_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NonFiniteFieldError(f"non-finite field value at node {bad}")


def sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere: 2 pi^(N/2) / Gamma(N/2); 2 for N=1."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def _laplacian_values(u: np.ndarray, geom: GridGeometry, boundary: str,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Radial Laplacian u'' + (dim-1)/r u' on the node values.

    Origin: the removable singularity gives dim * u''(0), discretized with
    the even-symmetry ghost node.  r = R: per the boundary closure.  Writes
    into ``out`` when given.
    """
    if out is None:
        out = np.empty_like(u)
    inv_h2 = geom.inv_h2
    # interior second derivative + first-derivative term
    out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) * inv_h2
    if geom.lap_coef is not None:
        out[1:-1] += geom.lap_coef * (u[2:] - u[:-2]) / (2.0 * geom.h)
    # origin: ghost u(-h) = u(h)
    out[0] = 2.0 * geom.dim * (u[1] - u[0]) * inv_h2
    if boundary == BOUNDARY_DIRICHLET:
        # boundary node is pinned; its time derivative is forced to zero
        out[-1] = 0.0
    elif boundary == BOUNDARY_NEUMANN:
        # ghost u(R+h) = u(R-h); the (dim-1)/r u' term vanishes with u'(R)=0
        out[-1] = 2.0 * (u[-2] - u[-1]) * inv_h2
    else:
        raise ValueError(f"unknown boundary {boundary!r}")
    return out


def _gradient_values(u: np.ndarray, h: float, boundary: str) -> np.ndarray:
    """Radial derivative: central interior, 0 at the origin by symmetry,
    second-order one-sided at r = R (0 under the neumann closure)."""
    out = np.empty_like(u)
    out[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    out[0] = 0.0
    if boundary == BOUNDARY_NEUMANN:
        out[-1] = 0.0
    else:
        out[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    return out


def laplacian(field: RadialField, boundary: str = BOUNDARY_DIRICHLET) -> RadialField:
    """Discrete radial Laplacian of the field (exact on quadratics inside)."""
    vals = _laplacian_values(field.values, GridGeometry.of(field.grid), boundary)
    return RadialField(field.grid, vals, field.time)


def gradient(field: RadialField, boundary: str = BOUNDARY_DIRICHLET) -> RadialField:
    """Discrete radial derivative of the field."""
    vals = _gradient_values(field.values, field.grid.h, boundary)
    return RadialField(field.grid, vals, field.time)


def _nonlocal_prefix_values(abs_u: np.ndarray, geom: GridGeometry, q: float) -> np.ndarray:
    """Trapezoid prefix integral of sigma_{N-1} |u|^(q-1) r^(N-1) dr.

    Takes |u| (the right-hand side computes it once for both of its terms).
    The prefix sum is the cumulative trapezoid rule written out, with the
    same operations in the same order as scipy's ``cumulative_trapezoid``.
    """
    integrand = abs_u ** (q - 1.0)
    if geom.r_pow is not None:
        integrand *= geom.r_pow
    panels = integrand[1:] + integrand[:-1]
    panels *= geom.dr
    panels /= 2.0
    J = np.empty_like(integrand)
    J[0] = 0.0
    np.cumsum(panels, out=J[1:])
    J *= geom.area
    return J


def nonlocal_prefix(field: RadialField, params: ModelParams) -> np.ndarray:
    """Single-pass J_i = integral of |u|^(q-1) over the ball of radius r_i.

    Nondecreasing in i, J_0 = 0, homogeneous of degree q-1 in the field.
    """
    return _nonlocal_prefix_values(np.abs(field.values), GridGeometry.of(field.grid), params.q)


def _sup_values(values: np.ndarray, h: float) -> tuple[float, float]:
    """(max |values|, its radius i*h); ties break to the smallest index."""
    a = np.abs(values)
    i = int(np.argmax(a))
    return float(a[i]), i * h


def sup_norm(field: RadialField, radius: float | None = None) -> tuple[float, float]:
    """Max of |u| over nodes with r_i <= radius (whole grid when absent).

    Returns (value, attaining radius); ties break to the smallest radius.
    """
    values = field.values
    if radius is not None:
        if radius > field.grid.R:
            raise ValueError(f"radius {radius} exceeds grid radius {field.grid.R}")
        values = values[:int(np.floor(radius / field.grid.h + 1e-12)) + 1]
    return _sup_values(values, field.grid.h)


def csv_text(header, rows, comments=()) -> str:
    """CSV text: one ``# `` line per comment, the header, then one line per
    row of Python scalars, each written as its ``repr`` (``""`` for None)."""
    lines = [f"# {comment}" for comment in comments]
    lines.append(",".join(header))
    lines.extend(",".join("" if v is None else repr(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def field_to_csv(field: RadialField, params: ModelParams,
                 boundary: str = BOUNDARY_DIRICHLET) -> str:
    """Snapshot CSV body: r,u,du_dr,J with a comment header carrying time
    and the full parameter set."""
    du = _gradient_values(field.values, field.grid.h, boundary)
    J = _nonlocal_prefix_values(np.abs(field.values), GridGeometry.of(field.grid), params.q)
    comments = [f"time: {field.time!r}"]
    comments += [f"{key}: {val!r}" for key, val in params.to_dict().items()]
    rows = zip(field.grid.r.tolist(), field.values.tolist(), du.tolist(), J.tolist())
    return csv_text(("r", "u", "du_dr", "J"), rows, comments)
