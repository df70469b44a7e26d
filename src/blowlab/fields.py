"""Radial grid and fields, the kernels of the discrete operators and the
ball-integral prefix, and the CSV writer.

Scalar fields are radially symmetric and live on the uniform grid
r_i = i*h, i = 0..M.  The even extension across r = 0 fixes the origin
closure of every operator; the closure at r = R is selected by the solver's
boundary mode ("dirichlet-zero" or "neumann-zero").

The discrete Laplacian L has one definition, the tridiagonal bands of
:func:`_laplacian_bands`: the implicit solve factors them and ``verify``'s
heat-semigroup check diagonalizes them.  No kernel applies L to a field;
the step recovers its L term from its first stage (see ``solver``).

The kernels (``_gradient_values``, ``_nonlocal_prefix_values``) take node
values, not a :class:`RadialField`: the field u, or for the prefix its
integrand |u|^(q-1), of one field as a 1-D array of its M+1 nodes or of k
fields as one contiguous padded (k, M+3) block.  Each row of a block
holds a field's nodes and then ``SEPARATORS`` cells, the layout of the
solver's block-diagonal system.  :func:`_block` builds the layout, for
the solver and the analyses alike, and :func:`_fields` reads it.  A
kernel runs its stencil on the flattened buffer, with the per-node arrays
of :meth:`GridGeometry.stacked` laid out along it, and sets the cells at
r = 0 and r = R of every row through column views.  What it leaves in
the separator cells means nothing; every node gets exactly the
arithmetic it gets in a 1-D field.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .params import ModelParams

BOUNDARY_DIRICHLET = "dirichlet-zero"
BOUNDARY_NEUMANN = "neumann-zero"
BOUNDARIES = (BOUNDARY_DIRICHLET, BOUNDARY_NEUMANN)
SEPARATORS = 2  # cells after each row of a padded block (see the module docstring)


class NonFiniteFieldError(FloatingPointError):
    """A field picked up NaN/Inf values (blow-up overflow, never silent)."""


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid on [0, R] with M intervals in `dim` dimensions."""

    R: float
    M: int
    dim: int = 1

    def __post_init__(self):
        if self.M < 8:
            raise ValueError(f"M must be >= 8, got {self.M}")
        # the Laplacian's bands take 1/h^2, which a tiny R turns into 1/0 or an overflow
        if not (0.0 < self.R < math.inf and self.h * self.h > 0.0
                and math.isfinite(1.0 / (self.h * self.h))):
            raise ValueError(f"R must be finite and positive with a finite 1/h^2 "
                             f"(h = R/M), got R={self.R}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    @property
    def h(self) -> float:
        return self.R / self.M

    @property
    def r(self) -> np.ndarray:
        return np.linspace(0.0, self.R, self.M + 1)


@dataclass(frozen=True)
class GridGeometry:
    """The per-node arrays of the ball-integral prefix on one grid: the
    trapezoid panel weights, each scaled as its caller asks, and the
    weight r^(N-1).

    Built once per batch or analysis and passed to the kernel, so the step
    loop never recomputes them.
    """

    weights: np.ndarray          # panel i, between nodes i and i+1: dr_i * sigma_N/2 * scale
    r_pow: np.ndarray | None     # r^(dim-1), ball-integral weight; None when dim == 1

    @classmethod
    def of(cls, grid: RadialGrid, scale: float = 1.0) -> "GridGeometry":
        """The geometry of one field, its panel weights times ``scale``: at
        1.0 the prefix is the ball integral itself."""
        r = grid.r
        r_pow = r ** (grid.dim - 1.0) if grid.dim > 1 else None
        return cls(weights=np.diff(r) * (sphere_area(grid.dim) / 2.0 * scale), r_pow=r_pow)

    @classmethod
    def stacked(cls, rows: list["GridGeometry"]) -> "GridGeometry":
        """The geometry of ``len(rows)`` fields held as one padded block,
        row k's from ``rows[k]``: the arrays laid out along the flattened
        block, as the kernel's flat stencil reads them, with zeros where no
        node is."""
        width = len(rows[0].weights) + 1 + SEPARATORS
        r_pow = None if rows[0].r_pow is None else _tiled([row.r_pow for row in rows], width)
        return cls(weights=_tiled([row.weights for row in rows], width)[:-1], r_pow=r_pow)


def _tiled(rows: list[np.ndarray], width: int) -> np.ndarray:
    """The arrays ``rows``, each the entries of a row's first cells, as the
    rows of a flattened padded block of ``width`` cells; 0 elsewhere."""
    block = np.zeros((len(rows), width))
    for row, values in zip(block, rows):
        row[:len(values)] = values
    return block.reshape(-1)


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

    @classmethod
    def of_finite(cls, grid: RadialGrid, values: np.ndarray, time: float) -> "RadialField":
        """The field of ``values``, a float64 array of shape (M+1,) that the
        caller has just found finite (with :func:`ensure_finite`, or by a
        finite max |u|), held as it is, without a second pass over it."""
        field = cls.__new__(cls)
        field.grid, field.values, field.time = grid, values, time
        return field

    def copy(self) -> "RadialField":
        return RadialField(self.grid, self.values.copy(), self.time)


def ensure_finite(values: np.ndarray) -> None:
    """Raise :class:`NonFiniteFieldError` naming the first non-finite node
    of ``values``, one field or the rows of several (the node within its
    row)."""
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0]) % values.shape[-1]
        raise NonFiniteFieldError(f"non-finite field value at node {bad}")


def sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere: 2 pi^(N/2) / Gamma(N/2); 2 for N=1."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def _flat(u: np.ndarray) -> np.ndarray:
    """The buffer of a 1-D field or of a contiguous padded block, as 1-D."""
    return u if u.ndim == 1 else u.reshape(-1)


def _block(fields: list[np.ndarray]) -> np.ndarray:
    """The fields in the kernels' layout: the rows of a padded block with
    +0 separators, or a single field as a 1-D copy, whose cells at r = 0
    and r = R the kernels set as numpy scalars, cheaper than columns."""
    if len(fields) == 1:
        return fields[0].copy()
    block = np.zeros((len(fields), len(fields[0]) + SEPARATORS))
    block[:, :-SEPARATORS] = fields
    return block


def _fields(values: np.ndarray) -> np.ndarray:
    """The rows' fields in what :func:`_block` returns, as views."""
    return values[None] if values.ndim == 1 else values[:, :-SEPARATORS]


def _last_node(u: np.ndarray) -> int:
    """The index, from the end of a row, of the node at r = R in ``u``, a
    1-D field or a padded block."""
    return -1 if u.ndim == 1 else -1 - SEPARATORS


def _laplacian_bands(grid: RadialGrid, boundary: str) -> tuple[np.ndarray, ...]:
    """(lower, diagonal, upper) bands of L, the discrete radial Laplacian
    u'' + (dim-1)/r u': central differences inside; at the origin dim * u''(0)
    with the even ghost u(-h) = u(h); at r = R a zero row (dirichlet, the
    node is pinned) or the ghost u(R+h) = u(R-h), where u'(R) = 0 drops the
    (dim-1)/r u' term (neumann).  Tridiagonal for every ``dim``."""
    h = grid.h
    c = 1.0 / (h * h)
    n = grid.M + 1
    lower = np.full(n - 1, c)
    diagonal = np.full(n, -2.0 * c)
    upper = np.full(n - 1, c)
    if grid.dim > 1:
        drift = (grid.dim - 1.0) / (np.arange(1, grid.M, dtype=float) * h) / (2.0 * h)
        lower[:-1] -= drift  # rows 1..M-1
        upper[1:] += drift
    diagonal[0] = -2.0 * grid.dim * c
    upper[0] = 2.0 * grid.dim * c
    if boundary == BOUNDARY_DIRICHLET:
        lower[-1] = diagonal[-1] = 0.0
    elif boundary == BOUNDARY_NEUMANN:
        lower[-1] = 2.0 * c
    else:
        raise ValueError(f"unknown boundary {boundary!r}")
    return lower, diagonal, upper


def _gradient_values(u: np.ndarray, h: float, boundary: str) -> np.ndarray:
    """Radial derivative of one field or of a padded block (see the module
    docstring): central interior, 0 at the origin by symmetry, second-order
    one-sided at r = R (0 under the neumann closure)."""
    out = np.empty_like(u)
    flat = _flat(u)
    inner = _flat(out)[1:-1]
    np.subtract(flat[2:], flat[:-2], out=inner)
    inner /= 2.0 * h
    node, out_node = u.T, out.T
    last = _last_node(u)
    out_node[0] = 0.0
    if boundary == BOUNDARY_NEUMANN:
        out_node[last] = 0.0
    else:
        out_node[last] = (3.0 * node[last] - 4.0 * node[last - 1] + node[last - 2]) / (2.0 * h)
    return out


def _nonlocal_prefix_values(integrand: np.ndarray, geom: GridGeometry) -> np.ndarray:
    """Trapezoid prefix sums, J_i = sum_{k<i} w_k (f_k + f_{k+1}), of one
    field or of a padded block (as :func:`_gradient_values`), with f the
    integrand |u|^(q-1) r^(N-1) and w the panel weights of ``geom``.

    Takes |u|^(q-1), raised by the caller, and scales it by r^(N-1) in
    place.  With the weights of ``GridGeometry.of(grid)``, dr * sigma_N/2,
    J is the ball integral of sigma_{N-1} |u|^(q-1) r^(N-1) dr, scipy's
    ``cumulative_trapezoid`` times sigma_N with the constants folded into
    the weights; the step passes weights that also carry its mu/(2h).  The
    panels are formed on the flattened buffer and accumulated in place
    along each row.
    """
    flat = _flat(integrand)
    if geom.r_pow is not None:
        flat *= geom.r_pow
    # panel i of a row, between its nodes i and i+1, is formed in cell i+1
    # of J, and each row is then accumulated from its cell 0, set to 0
    J = np.empty_like(integrand)
    panels = _flat(J)[1:]
    np.add(flat[1:], flat[:-1], out=panels)
    panels *= geom.weights
    J.T[0] = 0.0
    np.add.accumulate(J, axis=-1, out=J)
    return J


def write_csv(fh, header, rows, comments=()) -> None:
    """Write CSV to the text stream ``fh``: one ``# `` line per comment, the
    header, then one line per row, written as it comes, so a generator
    never holds the whole table.

    A number is written as its ``repr`` (the shortest round-trip form), None
    as an empty cell and a string as :func:`_csv_text` quotes it, so
    ``csv.reader`` reads every cell back.  ``csv.writer`` would take ~1.4x
    as long on the float tables."""
    for comment in comments:
        fh.write(f"# {comment}\n")
    for row in itertools.chain([header], rows):
        fh.write(",".join(["" if v is None else _csv_text(v) if v.__class__ is str
                           else repr(v) for v in row]) + "\n")


def _csv_text(text: str) -> str:
    """A text cell, quoted with its quotes doubled when it holds a comma, a
    quote or a line break (``csv.QUOTE_MINIMAL``)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def field_to_csv(fh, field: RadialField, params: ModelParams, boundary: str,
                 comments=()) -> None:
    """Snapshot CSV (r, u, du_dr, J) after ``comments``, a comment carrying
    the time and one per parameter."""
    du = _gradient_values(field.values, field.grid.h, boundary)
    J = _nonlocal_prefix_values(np.abs(field.values) ** (params.q - 1.0),
                                GridGeometry.of(field.grid))
    comments = [*comments, f"time: {field.time!r}"]
    comments += [f"{key}: {val!r}" for key, val in asdict(params).items()]
    rows = zip(field.grid.r.tolist(), field.values.tolist(), du.tolist(), J.tolist())
    write_csv(fh, ("r", "u", "du_dr", "J"), rows, comments)
