"""Time integration toward blow-up, detection, and bookkeeping.

The right-hand side is

    du/dt = Lap(u) + |u|^(p-1) u + mu * |du/dr| * J(r),

with J the running ball integral of |u|^(q-1).  Stepping is the IMEX
scheme ARS(3,4,3) (Ascher, Ruuth & Spiteri, Appl. Numer. Math. 25, 1997,
sec. 2.7): the Laplacian is implicit, as the tridiagonal matrix L whose
bands ``fields._laplacian_bands`` builds, the one definition of L, and the
rest, N(u) = |u|^(p-1) u + mu * |du/dr| * J, is explicit.  With
gamma = 0.4358665215, beta1 = -3 gamma^2/2 + 4 gamma - 1/4 and
beta2 = 3 gamma^2/2 - 5 gamma + 5/4, the tableaus are

    explicit   a^21 = gamma
               a^31 = 0.3212788860     a^32 = 0.3966543747
               a^41 = -0.105858296     a^42 = a^43 = 0.5529291479
               weights (0, beta1, beta2, gamma)
    implicit   stage 2: (gamma), stage 3: ((1-gamma)/2, gamma),
               stage 4: (beta1, beta2, gamma), on stages 2..4

and one step from u = U_1 takes, for i = 2, 3, 4,

    (I - gamma*dt*L) U_i = b_i = u + dt * sum_j<i a^ij N(U_j) + sum_1<j<i a_ij dt*L U_j.

L is never applied to a stage: each solve gives U_i - b_i = gamma*dt*L U_i,
so the later right-hand sides take dt*L U_i as (U_i - b_i)/gamma, which
needs no stencil.  The implicit weights are the last implicit row (the
scheme is stiffly accurate in its implicit part), so

    u_new = U_4 + dt * (-a^41 N(U_1) + (beta1 - a^42) N(U_2) + (beta2 - a^43) N(U_3)
                        + gamma N(U_4)).

A step costs one LU factorization of I - gamma*dt*L (``dgttrf``), three
solves with it (``dgttrs``) and four evaluations of N.  The scheme is third
order and L-stable.  Diffusion puts no bound on the step, so the step-size
law has one branch, the local reaction time scale,

    dt = dt_safety / (1 + p * supnorm^(p-1)),

and the step count does not grow with the grid size M.

Runs that share one grid and one boundary closure step in lockstep
(:func:`run_together`): their fields stay, from step to step, the rows of
one contiguous padded (k, M+3) block, which is the block-diagonal system
of all rows that the three solves of a step take in one LAPACK call each,
and every kernel works on that memory (see ``fields``).  Each row keeps
its own parameters and its own scalars as Python floats (step size,
Kahan-summed time, cap, budget, snapshot schedule) and leaves the batch
when it stops.  A single run is a batch of one (:func:`run_until_blowup`,
:func:`continue_run`), held as a 1-D field.  The step and its solves are
one code path for both layouts, apart from the step size, a Python float
for one run and a column of the rows' step sizes for a block; the single
row's own path lives in the kernels (``fields``, :func:`_explicit_values`,
:func:`_sups`), where numpy scalars at r = 0 and r = R cost less per call
than the one-element columns of a block.  Every row is bit-identical to
its run stepped alone: ``_Batch`` says what that takes.  ``_Batch`` decides
the explicit term's coefficients and builds the grid's fixed geometry, the
Laplacian bands and reused buffers once per batch, and ``_advance`` holds
one ``np.errstate`` scope around the step loop.  Runs are deterministic:
identical config and initial data give bit-identical trajectories, alone
or in any batch.

Near the cap the physical time increments drop below the floating-point
resolution of absolute time (dt < eps * t), so the recorded times collapse
while the field keeps evolving.  Every history row therefore carries its
own dt; time-to-end quantities are reconstructed by summing dt backwards,
which stays exact where absolute time cannot.

The history is one (n, 4) float64 array that ``_advance`` builds from
blocks of ``HISTORY_BLOCK`` rows.  A run stops at the cap, on a field that
is exactly zero (``decayed``: zero is a fixed point of the equation), at
``t_max`` or at its step budget (``budget-exhausted``, resumable), checked
in that order, or as ``overflowed`` when its step size collapses or a step
leaves its field non-finite (that step is rejected).  Every stop is found
before the next step, and the run leaves the batch there.

A run is stored as one archive (:func:`save_snapshots`/:func:`load_snapshots`):
snapshots, dense history, status, config, the time accumulator's Kahan
compensation and the field of a run stopped between snapshots, so
post-processing and resume read one file.  The snapshots are stored
node-major (each node's history contiguous) and deflated at level 1.

The step's LAPACK routines ``dgttrf``/``dgttrs`` and ``lemmas``' ``dstemr``
come from scipy's extension module ``scipy.linalg._flapack``, loaded by itself
(:func:`_load_flapack`): importing the ``scipy.linalg`` package for them
would pull in scipy's array-API layer and ``numpy.f2py``, about 24 MB of
peak memory and half the start-up time of every process.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import math
import os
import sys
import zipfile
import zlib
from dataclasses import asdict, dataclass, field as dc_field, fields

import numpy as np

from .fields import (
    BOUNDARIES,
    BOUNDARY_DIRICHLET,
    SEPARATORS,
    GridGeometry,
    NonFiniteFieldError,
    RadialField,
    RadialGrid,
    _gradient_values,
    _laplacian_bands,
    _last_node,
    _nonlocal_prefix_values,
    ensure_finite,
    write_csv,
)
from .params import ModelParams
from .profiles import f_profile


def _load_flapack():
    """scipy's LAPACK extension ``scipy.linalg._flapack``, loaded by itself.

    The module is registered under its own name, so a process that imports
    ``scipy.linalg`` before or after shares this one object.  When blowlab
    comes first, the ``scipy.linalg`` package gets no ``_flapack``
    attribute: the import system finds the module in ``sys.modules`` and
    does not bind it on its parent.  ``from scipy.linalg import _flapack``
    and ``scipy.linalg.lapack.dgttrf`` still give this module and its
    routine; binding the attribute would mean importing ``scipy.linalg``."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    spec = None if scipy is None else importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(root, "linalg") for root in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError("blowlab needs scipy>=1.10 for LAPACK (scipy.linalg._flapack), "
                          "which was not found", name="scipy")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgttrf, dgttrs = _flapack.dgttrf, _flapack.dgttrs

ARCHIVE_VERSION = 5  # 1 was the JSON checkpoint that held the history apart;
                     # 2 stored a config with the reaction switch; 3 held
                     # runs of the explicit Heun stepper and no stop field;
                     # 4 held runs of the ARS(2,2,2) step

# ARS(3,4,3) coefficients (see the module docstring): gamma, the implicit
# diagonal; the rows of stages 2-4 left of it, explicit on N(U_1..U_i-1) and
# implicit on dt*L U_2..U_i-1; and the weights of N(U_1..U_4) in u_new - U_4,
# the explicit weights (0, beta1, beta2, gamma) less the last explicit row
_ARS_GAMMA = 0.4358665215
_ARS_BETA = (-1.5 * _ARS_GAMMA ** 2 + 4.0 * _ARS_GAMMA - 0.25,
             1.5 * _ARS_GAMMA ** 2 - 5.0 * _ARS_GAMMA + 1.25)
_ARS_EXPLICIT = ((_ARS_GAMMA,), (0.3212788860, 0.3966543747),
                 (-0.105858296, 0.5529291479, 0.5529291479))
_ARS_IMPLICIT = ((), ((1.0 - _ARS_GAMMA) / 2.0,), _ARS_BETA)
_ARS_FINAL = tuple(w - a for w, a in zip((0.0, *_ARS_BETA, _ARS_GAMMA),
                                         (*_ARS_EXPLICIT[2], 0.0)))

STATUS_RUNNING = "running"
STATUS_BLOWN_UP = "blown-up"
STATUS_COMPLETED = "completed"
STATUS_OVERFLOWED = "overflowed"
STATUS_BUDGET = "budget-exhausted"
STATUS_DECAYED = "decayed"
STATUSES = (STATUS_RUNNING, STATUS_BLOWN_UP, STATUS_COMPLETED, STATUS_OVERFLOWED,
            STATUS_BUDGET, STATUS_DECAYED)

HISTORY_BLOCK = 4096  # history rows buffered as tuples before a flush to floats


class CheckpointError(ValueError):
    """Unreadable, incomplete, or version-mismatched run archive."""


class InsufficientGrowthError(ValueError):
    """The max-norm history is too short to support a blow-up fit."""


@dataclass(frozen=True)
class SolverConfig:
    grid: RadialGrid
    params: ModelParams
    # the largest of 0.1, 0.125, ..., 0.2 at which blowlab run's T_est and
    # kappa_est err by at most half what ARS(2,2,2) at 0.05 did (README)
    dt_safety: float = 0.15
    blowup_cap: float = 1e8
    boundary: str = BOUNDARY_DIRICHLET
    record_stride: int = 2000
    snapshot_growth: float = 1.15  # extra snapshot whenever supnorm grows by this factor
    max_steps: int = 5_000_000     # per-call step budget
    t_max: float | None = None

    def __post_init__(self):
        if not 0.0 < self.dt_safety <= 1.0:
            raise ValueError(f"dt_safety must be in (0, 1], got {self.dt_safety}")
        if not 0.0 < self.blowup_cap < math.inf:
            raise ValueError(f"blowup_cap must be finite and positive, got {self.blowup_cap}")
        if self.t_max is not None and not self.t_max > 0.0:
            raise ValueError(f"t_max must be none or positive, got {self.t_max}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride}")
        if not self.snapshot_growth > 1.0:
            raise ValueError("snapshot_growth must exceed 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.grid.dim != self.params.dim:
            raise ValueError(f"grid dim {self.grid.dim} differs from params dim {self.params.dim}")

    @classmethod
    def from_dict(cls, data: dict) -> "SolverConfig":
        """Inverse of ``dataclasses.asdict``; the parameters are validated again."""
        data = _exact_keys(cls, data)
        return cls(**{**data, "grid": RadialGrid(**_exact_keys(RadialGrid, data["grid"])),
                      "params": ModelParams.from_dict(_exact_keys(ModelParams, data["params"]))})


def _exact_keys(record, data: dict) -> dict:
    """``data``, once it is known to carry exactly the fields of ``record``."""
    names = {f.name for f in fields(record)}
    if set(data) != names:
        raise ValueError(f"{record.__name__} keys: missing {sorted(names - set(data))}, "
                         f"unexpected {sorted(set(data) - names)}")
    return data


@dataclass
class Trajectory:
    """Time-ordered record of a run: snapshots, dense max-norm history, status.

    History rows are (t, supnorm, argmax_radius, dt_of_the_step) in one (n, 4)
    float array; the initial row has dt = 0.  Snapshot times are strictly
    increasing (a deep-tail snapshot whose time ties the last one replaces it).
    The snapshots are the initial field, the scheduled ones and, once the run
    ends, the final field.  A run stopped by its budget between two scheduled
    snapshots holds its field in ``_stop_field`` instead, so a resumed run
    takes exactly the snapshots of an uninterrupted one.
    """

    config: SolverConfig
    snapshots: list[RadialField]
    status: str = STATUS_RUNNING
    maxnorm_history: np.ndarray = dc_field(default_factory=lambda: np.empty((0, 4)))
    _time_comp: float = 0.0  # Kahan compensation for the time accumulator
    _stop_field: RadialField | None = None

    @classmethod
    def start(cls, u0: RadialField, config: SolverConfig) -> "Trajectory":
        if u0.grid != config.grid:
            raise ValueError("initial field grid differs from config grid")
        field = u0.copy()
        if config.boundary == BOUNDARY_DIRICHLET:
            field.values[-1] = 0.0
        [m], [rarg] = _sups(field.values, config.grid.h)
        return cls(config=config, snapshots=[field],
                   maxnorm_history=np.array([[field.time, m, rarg, 0.0]]))

    @property
    def last_field(self) -> RadialField:
        """The field where the run stands."""
        return self.snapshots[-1] if self._stop_field is None else self._stop_field

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.snapshots])


@dataclass(frozen=True)
class BlowupEstimate:
    T_est: float
    kappa_est: float
    fit_window_to_T: tuple[float, float]  # T_est - t at the window's first and
                                          # last rows, from backward dt sums
    residual: float


def profile_seeded_field(grid: RadialGrid, params: ModelParams,
                         t_star: float = 0.01) -> RadialField:
    """Initial data matching the intermediate prediction at time-to-blow-up
    t_star, smoothly tapered to zero on [0.85 R, R].

    The profile tail decays only algebraically, so on a finite grid the raw
    profile is O(1) at r = R; the taper makes the seed compatible with the
    dirichlet-zero closure instead of leaving an artificial boundary layer.
    """
    check_seed(t_star)
    r = grid.r
    ell = np.sqrt(t_star * abs(np.log(t_star)))
    u = t_star ** (-1.0 / (params.p - 1.0)) * f_profile(r / ell, params)
    a = 0.85 * grid.R
    x = np.clip((r - a) / (grid.R - a), 0.0, 1.0)
    u *= 1.0 - x ** 3 * (x * (6.0 * x - 15.0) + 10.0)  # quintic smoothstep, C^2
    return RadialField(grid, u, time=0.0)


def check_seed(t_star: float) -> None:
    """Reject a seed's t_star outside the open interval (0, 1)."""
    if not 0.0 < t_star < 1.0:
        raise ValueError(f"t_star must be in (0, 1), got {t_star}")


def _runs(values: list[float]) -> list[tuple[slice, float]]:
    """(rows, value) for each maximal run of equal values."""
    runs, start = [], 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] != values[start]:
            runs.append((slice(start, i), values[start]))
            start = i
    return runs


def _powers(abs_u: np.ndarray, exponent: list[tuple[slice, float]],
            out: np.ndarray | None = None) -> np.ndarray:
    """``abs_u`` raised to a batch exponent, runs of rows as ``_runs``
    gives them, into ``out`` or a new array.  One run is the whole array, a
    1-D field too; into a new array it is ``**``, whose fast path for an
    exponent of 2 or 0.5 gives the bits of ``np.power`` in half the time."""
    if len(exponent) == 1:
        e = exponent[0][1]
        return abs_u ** e if out is None else np.power(abs_u, e, out=out)
    out = np.empty_like(abs_u) if out is None else out
    for rows, e in exponent:
        np.power(abs_u[rows], e, out=out[rows])
    return out


def _explicit_values(u: np.ndarray, batch: _Batch, out: np.ndarray) -> np.ndarray:
    """The explicit part of the right-hand side, |u|^(p-1) u + mu |du/dr| J,
    of a 1-D field or of each row of a padded block, written into ``out``.

    Callers hold ``np.errstate(over="ignore", invalid="ignore")``: overflow
    here is an expected condition, detected by the caller's finiteness test.
    """
    abs_u = np.abs(u)
    _powers(abs_u, batch.p_minus_1, out)
    out *= u
    if batch.mu is not None:
        rows = batch.nonlocal_rows
        if rows is not None:
            u, abs_u = u[rows], abs_u[rows]
        g = _gradient_values(u, batch.geom.h, batch.boundary)
        J = _nonlocal_prefix_values(_powers(abs_u, batch.q_minus_1), batch.geom)
        np.abs(g, out=g)
        g *= batch.mu
        g *= J
        if rows is None:
            out += g
        else:
            out[rows] += g
    if batch.boundary == BOUNDARY_DIRICHLET:
        out.T[_last_node(out)] = 0.0
    return out


def _dt_of(config: SolverConfig, supnorm: float) -> float:
    p = config.params.p
    try:
        dt = config.dt_safety / (1.0 + p * supnorm ** (p - 1.0))
    except OverflowError:  # float power raises instead of returning inf
        dt = 0.0
    if not dt > 0.0 or not math.isfinite(dt):
        raise NonFiniteFieldError(f"step size collapsed (supnorm={supnorm})")
    return dt


class _Batch:
    """What stepping k rows on one grid together reuses from step to step.

    The rows' fields are held from step to step in the layout :func:`_block`
    gives them, and so are the Laplacian bands, the LU buffers and the
    right-hand sides: one padded (k, M+3) block, which is also the layout of
    the block-diagonal system whose solves, one LAPACK call each, are the
    three implicit stages of a step.  The two cells after each row are
    separator unknowns, an identity row with right-hand side +0 and zero
    coupling, so the products with the coupling zeros that the tridiagonal
    elimination forms are +0 * +0 and every block's arithmetic is exactly
    its own system's.  The kernels leave other values in the separator
    cells, so each solve first resets them, and so does the step in its
    result, where a nonzero separator would win ``_sups``'s argmax.  A
    non-finite row still crosses over (0 * NaN), which the caller detects.
    A single row has no separators and is held as a 1-D (M+1,) field: the
    kernels then set the cells at r = 0 and r = R as numpy scalars, which
    costs less per call than the one-element columns of a block.  Each band
    is padded to a row's length and LAPACK takes the flattened buffers, the
    off-diagonals without their last entry, so the step itself is the same
    for both layouts.

    The batch also holds the coefficients of the explicit term N(u) for
    :func:`_explicit_values`.  The rows come sorted by (mu == 0, p, q), so
    the rows that share an exponent p-1 or q-1 are contiguous, and each run
    of them (:func:`_runs`) is raised to its scalar exponent by
    :func:`_powers`.  A scalar exponent gives the same bits on a 1-D field,
    on a block and on a run of its rows, which keeps each row bit-identical
    to its run stepped alone; a (k, 1) column of the rows' exponents does
    not (with numpy 2.4 on AVX-512, at 2.0 and 0.5 it changed 26 and 55 of
    1,027 wide-range values per row).  mu is one float when the rows share
    it and a column otherwise.  The rows with mu == 0 come last and skip
    the nonlocal term, as a single run does: adding +0 would turn -0 cells
    into +0.  ``nonlocal_rows`` is None when every row has the term, so a
    single run takes no views, and ``geom`` is those rows' geometry.
    """

    def __init__(self, params: list[ModelParams], grid: RadialGrid, boundary: str):
        k = len(params)
        n_nl = sum(pr.mu != 0.0 for pr in params)
        if any(pr.mu == 0.0 for pr in params[:n_nl]):
            raise ValueError("rows with mu == 0 must come last")
        self.boundary = boundary
        self.p_minus_1 = _runs([pr.p - 1.0 for pr in params])
        self.q_minus_1 = _runs([pr.q - 1.0 for pr in params[:n_nl]])
        mu = [pr.mu for pr in params[:n_nl]]
        self.mu = None if not mu else mu[0] if len(set(mu)) == 1 else np.array(mu)[:, None]
        self.nonlocal_rows = None if n_nl == k else slice(0, n_nl)
        geom = GridGeometry.of(grid)
        self.geom = geom if k == 1 or n_nl == 0 else geom.stacked(n_nl)
        # -L's off-diagonals and L's diagonal, with +0 coupling and a 0
        # diagonal in the separators' rows: scaled by gamma*dt >= 0, they
        # give those rows' identity and +0 coupling
        lower, diagonal, upper = _laplacian_bands(grid, boundary)
        self.bands = (-_block([np.append(lower, 0.0)] * k), _block([diagonal] * k),
                      -_block([np.append(upper, 0.0)] * k))
        self.lu = tuple(np.empty_like(band) for band in self.bands)  # factored in place
        dl, d, du = (band.reshape(-1) for band in self.lu)
        self.lu_flat = (dl[:-1], d, du[:-1])
        self.shape = self.bands[1].shape
        self.padding = (..., slice(grid.M + 1, None))  # the separators; none for one row
        sides = np.empty((3, *self.shape))  # the right-hand sides of the three solves
        self.sides, self.sides_flat = sides, sides.reshape(3, -1)
        self.work = np.empty((4, *self.shape))  # the four explicit stages

    def solve(self, lu, stage: int) -> np.ndarray:
        """The rows' fields, as a new block, that solve the system with
        right-hand side ``sides[stage]``, given the factors ``lu``; that
        side is kept."""
        self.sides[stage][self.padding] = 0.0
        return dgttrs(*lu, self.sides_flat[stage])[0].reshape(self.shape)


def _ars343(u: np.ndarray, dts: list[float], batch: _Batch) -> np.ndarray:
    """One ARS(3,4,3) step (see the module docstring) of the batch's 1-D
    field ``u`` or of every row of its padded block ``u``, row i by
    ``dts[i]``."""
    n, sides = batch.work, batch.sides
    # a single row multiplies by a Python float, as a scalar step does, and
    # a block by the column of its rows' step sizes
    dt = dts[0] if u.ndim == 1 else np.array(dts)[:, None]
    gdt = _ARS_GAMMA * dt
    # LU of I - gamma*dt*L, shared by the three solves; band entry i couples
    # cells i and i+1 and takes cell i's step size
    neg_lower, diagonal, neg_upper = batch.bands
    dl, d, du = batch.lu
    np.multiply(neg_lower, gdt, out=dl)
    np.multiply(gdt, diagonal, out=d)
    np.subtract(1.0, d, out=d)
    np.multiply(neg_upper, gdt, out=du)
    *lu, info = dgttrf(*batch.lu_flat, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info != 0:
        raise NonFiniteFieldError(f"implicit matrix is singular (dt={dts})")
    tmp = n[3]  # free until the last stage's explicit term
    stage = u
    for i, (explicit, implicit) in enumerate(zip(_ARS_EXPLICIT, _ARS_IMPLICIT)):
        _explicit_values(stage, batch, out=n[i])
        # b = u + dt * sum_j a^_ij N_j + sum_j a_ij dt*L U_j, the sides
        # before this one holding their stages' dt*L U_j
        b = sides[i]
        np.multiply(n[0], explicit[0], out=b)
        for n_j, a in zip(n[1:], explicit[1:]):
            np.multiply(n_j, a, out=tmp)
            b += tmp
        b *= dt
        b += u
        for lu_j, a in zip(sides, implicit):
            np.multiply(lu_j, a, out=tmp)
            b += tmp
        stage = batch.solve(lu, i)
        if i < 2:  # this stage's dt*L U, recovered from its solve
            np.subtract(stage, b, out=b)
            b /= _ARS_GAMMA
    _explicit_values(stage, batch, out=n[3])
    # u_new = U4 + dt * sum_j w_j N_j, accumulated in N4's buffer
    n[3] *= _ARS_FINAL[3]
    for n_j, w in zip(n[:3], _ARS_FINAL):
        n_j *= w
        n[3] += n_j
    n[3] *= dt
    stage += n[3]
    stage[batch.padding] = 0.0
    return stage


def run_until_blowup(u0: RadialField, config: SolverConfig) -> Trajectory:
    """Step until the sup-norm reaches the cap, overflow, or the budget.

    The max-norm history is recorded at every accepted step.  Snapshots are
    kept every ``record_stride`` steps and additionally whenever the
    sup-norm has grown by ``snapshot_growth`` since the last snapshot, so
    coverage stays dense (logarithmically) on approach to blow-up.
    """
    trajectory = Trajectory.start(u0, config)
    _advance([trajectory])
    return trajectory


def continue_run(trajectory: Trajectory) -> Trajectory:
    """Resume a run in place, typically a ``budget-exhausted`` one.

    Stepping depends only on the current field and the snapshot schedule
    only on the run's step count and last snapshot, so a resumed run
    reproduces the uninterrupted history and snapshots exactly.
    """
    return run_together([trajectory])[0]


def run_together(trajectories: list[Trajectory]) -> list[Trajectory]:
    """Step runs that share one grid and one boundary closure in lockstep,
    in place: fresh ones from :meth:`Trajectory.start` or resumed ones, as
    :func:`continue_run` takes them.  Each run comes out bit-identical to
    the same run stepped alone; one that has blown up, decayed or
    overflowed is left as it is."""
    live = [traj for traj in trajectories
            if traj.status not in (STATUS_BLOWN_UP, STATUS_DECAYED, STATUS_OVERFLOWED)]
    for traj in live:
        traj.status = STATUS_RUNNING
    _advance(live)
    return trajectories


class _Row:
    """One run's place in a batch: its config's scalars as Python floats,
    its Kahan-summed time, sup-norm, step count, history rows and snapshot
    schedule, each handled exactly as a run stepped alone handles them."""

    def __init__(self, position: int, traj: Trajectory):
        if not len(traj.maxnorm_history):
            raise ValueError("a run to step needs its initial history row: "
                             "start it with Trajectory.start")
        config = traj.config
        self.position, self.traj, self.config, self.params = position, traj, config, config.params
        self.values = traj.last_field.values
        self.t = traj.last_field.time
        self.on_schedule = traj._stop_field is None  # the field is the last snapshot
        traj._stop_field = None
        self.comp = traj._time_comp
        [self.m], _ = _sups(self.values, config.grid.h)  # the field decides, not its history
        self.cap, self.t_max = config.blowup_cap, config.t_max
        self.t_end = None if config.t_max is None else config.t_max * (1.0 - 1e-15)
        self.stride, self.growth = config.record_stride, config.snapshot_growth
        # the schedule reads the last snapshot and the run's step count, so a
        # resumed run continues it where the uninterrupted run would be
        [snap_m], _ = _sups(traj.snapshots[-1].values, config.grid.h)
        self.next_snap_m = self.growth * max(snap_m, _TINY)
        self.step = len(traj.maxnorm_history) - 1
        self.last_step = self.step + config.max_steps  # the budget
        self.blocks, self.rows = [traj.maxnorm_history], []
        self.status = STATUS_RUNNING

    def next_dt(self) -> float | None:
        """The size of the run's next step, or None when it stops before
        it, with the status in ``self.status``."""
        if self.status == STATUS_OVERFLOWED:  # its last step was rejected
            return None
        if self.m >= self.cap:
            self.status = STATUS_BLOWN_UP
        elif self.m == 0.0:
            self.status = STATUS_DECAYED
        elif self.t_end is not None and self.t >= self.t_end:
            self.status = STATUS_COMPLETED
        elif self.step >= self.last_step:
            self.status = STATUS_BUDGET
        else:
            try:
                dt = _dt_of(self.config, self.m)
            except NonFiniteFieldError:
                self.status = STATUS_OVERFLOWED
                return None
            return dt if self.t_max is None else min(dt, self.t_max - self.t)
        return None

    def accept(self, values: np.ndarray, m: float, rarg: float, dt: float) -> None:
        # Kahan-compensated time accumulation
        y = dt - self.comp
        t = self.t + y
        self.comp = (t - self.t) - y
        self.t = t
        self.step += 1
        self.m = m
        rows = self.rows
        rows.append((t, m, rarg, dt))
        if len(rows) == HISTORY_BLOCK:
            self.blocks.append(np.array(rows))
            self.rows = []
        self.on_schedule = self.step % self.stride == 0 or m >= self.next_snap_m
        if self.on_schedule:
            self.snapshot(values)
            self.next_snap_m = self.growth * max(m, _TINY)

    def snapshot(self, values: np.ndarray) -> None:
        # a row is accepted or kept only with a finite sup-norm, so it is finite
        fld = RadialField.of_finite(self.config.grid, values.copy(), self.t)
        snapshots = self.traj.snapshots
        if snapshots and snapshots[-1].time == self.t:
            snapshots[-1] = fld  # deep tail: keep the latest state at a tied time
        else:
            snapshots.append(fld)

    def finish(self, values: np.ndarray) -> None:
        """End the run with ``self.status``, its field where it stands
        being ``values``."""
        traj, status = self.traj, self.status
        if status != STATUS_BUDGET:
            self.snapshot(values)
        elif not self.on_schedule:
            traj._stop_field = RadialField(self.config.grid, values.copy(), self.t)
        traj.maxnorm_history = np.concatenate(self.blocks + [np.array(self.rows).reshape(-1, 4)])
        traj.status = status
        traj._time_comp = self.comp


_TINY = np.finfo(float).tiny


def _block(fields: list[np.ndarray]) -> np.ndarray:
    """The fields as a batch holds them: a copy of a single field, or more
    as the rows of a padded block with +0 separators (see ``_Batch``)."""
    if len(fields) == 1:
        return fields[0].copy()
    block = np.zeros((len(fields), len(fields[0]) + SEPARATORS))
    block[:, :-SEPARATORS] = fields
    return block


def _fields(values: np.ndarray) -> np.ndarray:
    """The rows' fields in what :func:`_block` returns, as views."""
    return values[None] if values.ndim == 1 else values[:, :-SEPARATORS]


def _sups(values: np.ndarray, h: float) -> tuple[list[float], list[float]]:
    """(max |u|, its radius i*h) of a 1-D field or of each row of a padded
    block, as lists; ties break to the smallest index, so the separators,
    which hold +0, never win them."""
    a = np.abs(values)
    if values.ndim == 1:
        i = int(np.argmax(a))
        return [float(a[i])], [i * h]
    idx = a.argmax(axis=1)
    return a[np.arange(len(a)), idx].tolist(), [i * h for i in idx.tolist()]


def _advance(trajs, on_stop=None) -> None:
    """Step the runs in lockstep until each stops; see :func:`run_together`.

    Each step first lets every run that stops leave, then steps the rest as
    the rows of one block.  A run stops at the cap, at a zero field, at
    ``t_max``, at its budget, on a collapsed step size, or after a step
    that left its row non-finite: that step is rejected, the row keeps its
    last field in the new block and is ``overflowed``.  A step that leaves any row non-finite
    is taken again row by row, since a non-finite row reaches the others
    through the joint solve.  ``trajs`` may be any iterable;
    ``on_stop(i, trajectory)``, when given, is called as the i-th run
    leaves, and the run is not held here after that.
    """
    rows = sorted((_Row(i, traj) for i, traj in enumerate(trajs)),
                  key=lambda row: (row.params.mu == 0.0, row.params.p, row.params.q))
    if not rows:
        return
    grid, boundary = rows[0].config.grid, rows[0].config.boundary
    if any(row.config.grid != grid or row.config.boundary != boundary for row in rows):
        raise ValueError("runs stepped together must share one grid and boundary closure")
    h = grid.h
    values = _block([row.values for row in rows])
    batch = None
    # one error-state scope for the whole loop: overflow is detected explicitly
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            dts = [row.next_dt() for row in rows]
            if None in dts:
                fields, keep = _fields(values), []
                for i, row in enumerate(rows):
                    if dts[i] is None:
                        row.finish(fields[i])
                        if on_stop is not None:
                            on_stop(row.position, row.traj)
                    else:
                        keep.append(i)
                if not keep:
                    return
                rows, dts, batch = [rows[i] for i in keep], [dts[i] for i in keep], None
                values = _block([fields[i] for i in keep])
            if batch is None:
                batch = _Batch([row.params for row in rows], grid, boundary)
            try:
                new_values = _ars343(values, dts, batch)
                m, rarg = _sups(new_values, h)
            except FloatingPointError:
                new_values, m, rarg = values, [math.nan] * len(rows), [0.0] * len(rows)
            # argmax of |u| finds the first nan or inf: a finite sup, a finite field
            if len(rows) > 1 and not all(map(math.isfinite, m)):
                new_values, m, rarg = _step_alone(values, dts, rows, grid, boundary)
            fields = _fields(new_values)
            for i, row in enumerate(rows):
                if math.isfinite(m[i]):
                    row.accept(fields[i], m[i], rarg[i], dts[i])
                else:  # the step is rejected: the row stays where it stood
                    row.status = STATUS_OVERFLOWED
                    fields[i][...] = _fields(values)[i]
            values = new_values


def _step_alone(values: np.ndarray, dts: list[float], rows: list[_Row], grid: RadialGrid,
                boundary: str) -> tuple[np.ndarray, list[float], list[float]]:
    """The step of each row of the padded block ``values`` taken by itself,
    as a new block; a row whose step fails gets a nan sup-norm."""
    new_values = np.zeros_like(values)
    m, rarg = [math.nan] * len(rows), [0.0] * len(rows)
    for i, (row, field, new) in enumerate(zip(rows, _fields(values), _fields(new_values))):
        try:
            new[:] = _ars343(field, dts[i:i + 1], _Batch([row.params], grid, boundary))
        except FloatingPointError:
            continue
        [m[i]], [rarg[i]] = _sups(new, grid.h)
    return new_values, m, rarg


def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Slope and intercept of the least-squares line y ~ slope * x + intercept,
    in closed form about the means of x and y.  ``np.linalg.lstsq`` on the
    two-column design matrix would page ~1.1 MB of numpy's bundled LAPACK
    into the process for a two-parameter fit.  x must not be constant."""
    x_mean, y_mean = float(np.mean(x)), float(np.mean(y))
    dx = x - x_mean
    slope = float(dx @ (y - y_mean)) / float(dx @ dx)
    return slope, y_mean - slope * x_mean


def estimate_T(trajectory: Trajectory) -> BlowupEstimate:
    """Fit supnorm ~ kappa_est (T_est - t)^(-1/(p-1)) on the last decade,
    with p the run's own.

    Works in z = supnorm^-(p-1), which is linear in time for reaction-driven
    growth: z = a (T - t).  Time differences inside the window come from
    backward dt sums, so the fit survives the collapse of absolute time
    resolution near blow-up: ``fit_window_to_T[1]``, the fitted T_est - t
    at the last row, is kept apart from T_est, since T_est - t underflows
    in float64 there.
    """
    if trajectory.status != STATUS_BLOWN_UP:
        raise InsufficientGrowthError(
            f"trajectory status is {trajectory.status!r}, need {STATUS_BLOWN_UP!r}"
        )
    hist = trajectory.maxnorm_history
    t, m, dt = hist[:, 0], hist[:, 1], hist[:, 3]
    m_max = float(np.max(m))
    if not m_max / max(float(np.min(m)), np.finfo(float).tiny) >= 100.0:
        raise InsufficientGrowthError(
            "insufficient growth: history spans fewer than 2 decades of sup-norm"
        )
    i0 = int(np.argmax(m >= 0.1 * m_max))
    # time from each window row to the last row, by exact backward summation
    s_rel = np.concatenate([np.cumsum(dt[i0 + 1:][::-1])[::-1], [0.0]])
    p = trajectory.config.params.p
    z = m[i0:] ** (-(p - 1.0))
    # near blow-up both columns live many orders below 1; scale them to 1 so
    # that the fit's sums of products stay far from underflow
    S = float(np.max(s_rel))
    Z = float(np.max(z))
    if not (S > 0.0 and Z > 0.0):
        raise InsufficientGrowthError("fit failed: degenerate window")
    a_s, c_s = _fit_line(s_rel / S, z / Z)
    a = a_s * Z / S
    c = c_s * Z
    if not a > 0.0:
        raise InsufficientGrowthError("fit failed: non-positive growth-rate slope")
    delta_end = max(c / a, 0.0)
    kappa_est = a ** (-1.0 / (p - 1.0))
    model = kappa_est * (delta_end + s_rel) ** (-1.0 / (p - 1.0))
    residual = float(np.max(np.abs(model - m[i0:]) / m[i0:]))
    return BlowupEstimate(
        T_est=float(t[-1] + delta_end), kappa_est=float(kappa_est),
        fit_window_to_T=(float(s_rel[0] + delta_end), float(delta_end)), residual=residual,
    )


def far_field_report(trajectory: Trajectory) -> dict | None:
    """The localization headline of a blown-up run, the ``far_field`` of
    ``run_summary.json``: over the snapshots whose sup-norm exceeds 1e6,
    the largest |u| and |du/dr| at r >= r_min = 0.1 R, each as a ratio to
    the initial field's, and how many snapshots that window holds.  A
    single-point blow-up keeps both ratios small while the core explodes.
    None when the run did not blow up, no snapshot passes 1e6 or the
    initial far field is zero.

    Near the cap the history's times tie, and a snapshot at a tied time
    replaces the one before it, so the window can hold only the final field.
    """
    if trajectory.status != STATUS_BLOWN_UP:
        return None
    snapshots = trajectory.snapshots
    window = [snap for snap in snapshots if np.max(np.abs(snap.values)) > 1e6]
    if not window:
        return None
    grid, boundary = trajectory.config.grid, trajectory.config.boundary
    r_min = 0.1 * grid.R
    i_min = int(np.ceil(r_min / grid.h - 1e-12))

    def levels(snap: RadialField) -> tuple[float, float]:
        g = _gradient_values(snap.values, grid.h, boundary)
        return float(np.max(np.abs(snap.values[i_min:]))), float(np.max(np.abs(g[i_min:])))

    (u0, g0), *far = [levels(snap) for snap in [snapshots[0], *window]]
    if not (u0 > 0.0 and g0 > 0.0):
        return None
    return {"r_min": r_min, "u_ratio_vs_initial": max(u for u, _ in far) / u0,
            "grad_ratio_vs_initial": max(g for _, g in far) / g0,
            "window_snapshots": len(window)}


def write_atomic(path, write, text: bool = False) -> None:
    """Call ``write(fh)`` on a temp file beside ``path`` (binary, or UTF-8
    text with untranslated line ends when ``text``), then rename it into
    place, so a reader never sees a partial file."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with (open(tmp, "w", encoding="utf-8", newline="") if text
              else open(tmp, "wb")) as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


_ARCHIVE_KEYS = ("history", "time_comp", "version", "config", "status", "times", "values",
                 "stop_field")


def save_snapshots(trajectory: Trajectory, path) -> None:
    """Write the run archive: one compressed ``.npz`` that holds everything
    needed to post-process or resume the run.

    Keys: ``times`` and ``values`` (every snapshot), ``history`` (the dense
    (n, 4) max-norm history), ``time_comp`` (the Kahan compensation of the
    time accumulator), ``stop_field`` (the field of a run stopped between
    snapshots, at the last history time; empty otherwise), ``status``,
    ``config`` (JSON) and ``version``.

    The archive holds, member for member, what ``np.savez_compressed``
    writes with ``values`` in Fortran order, deflated at level 1.  Node by
    node, a snapshot's neighbouring values are unrelated mantissas, while
    one node's history changes slowly, so node-major bytes deflate ~25%
    smaller at M=4096, and level 1 comes within 1% of level 6's size in
    ~60% of its time.  ``values`` is streamed in blocks of whole nodes of
    ~16 KB however many snapshots the run has, so no (snapshots, M+1)
    array, no copy of it and no compressed blob of it is ever held whole.
    """
    snapshots, stop = trajectory.snapshots, trajectory._stop_field
    members = {
        "version": np.array(ARCHIVE_VERSION),
        "config": np.array(json.dumps(asdict(trajectory.config))),
        "status": np.array(trajectory.status),
        "times": trajectory.times,
        "values": None,  # streamed below
        "history": trajectory.maxnorm_history,
        "time_comp": np.array(trajectory._time_comp),
        "stop_field": np.empty(0) if stop is None else stop.values,
    }
    nodes = trajectory.config.grid.M + 1
    values_header = {"descr": np.lib.format.dtype_to_descr(np.dtype(float)),
                     "fortran_order": True, "shape": (len(snapshots), nodes)}
    block = max(1, 2048 // len(snapshots))  # nodes per ~16 KB block

    def write(fh):
        with zipfile.ZipFile(fh, "w", zipfile.ZIP_DEFLATED, allowZip64=True,
                             compresslevel=1) as archive:
            for key, array in members.items():
                # zip64 headers as numpy forces them, so the bytes are savez's
                with archive.open(f"{key}.npy", "w", force_zip64=True) as member:
                    if array is not None:
                        np.lib.format.write_array(member, array)
                    else:  # the snapshots, node-major, a block of nodes at a time
                        np.lib.format.write_array_header_1_0(member, values_header)
                        for j in range(0, nodes, block):
                            member.write(np.stack([snap.values[j:j + block]
                                                   for snap in snapshots], axis=1))

    write_atomic(path, write)


def load_snapshots(path) -> Trajectory:
    """Inverse of :func:`save_snapshots`: the complete trajectory (snapshots,
    history, status, time compensation, stop field), ready for
    :func:`continue_run`.  It reads ``values`` in either order, node-major
    as :func:`save_snapshots` writes it or snapshot-major as earlier
    writers did, and each snapshot is a contiguous row of one array.

    Raises :class:`CheckpointError` when the file is not a readable archive,
    lacks a key (archives written before the history moved in, for one), has
    another version, does not hold one time per snapshot and at least one
    snapshot, holds snapshot times that are not strictly increasing, holds
    a status that is none of ``STATUSES``, or holds a non-finite snapshot
    time or value, history cell or time compensation.
    """
    try:
        with np.load(path) as data:
            arrays = {key: data[key] for key in _ARCHIVE_KEYS}
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise CheckpointError(f"unreadable run archive {path}: {exc}") from exc
    version = arrays["version"].tolist()
    if version != ARCHIVE_VERSION:
        raise CheckpointError(
            f"unsupported run archive version {version!r} (expected {ARCHIVE_VERSION})")
    try:
        config = SolverConfig.from_dict(json.loads(str(arrays["config"])))
        # one copy of a node-major archive's values, so each snapshot is a
        # contiguous row; an archive written snapshot by snapshot needs none
        times = arrays["times"]
        values = np.ascontiguousarray(arrays["values"], dtype=float)
        if not len(times) == len(values) > 0:
            raise ValueError(f"{len(times)} snapshot times for {len(values)} snapshots "
                             "(need one per snapshot, and at least one)")
        if not np.all(np.isfinite(times)):
            raise ValueError("a snapshot time is not finite")
        if not np.all(times[1:] > times[:-1]):
            raise ValueError("snapshot times are not strictly increasing")
        nodes = config.grid.M + 1
        if values.shape != (len(times), nodes):
            raise ValueError(f"values shape {values.shape} != (snapshots, M+1) = "
                             f"({len(times)}, {nodes})")
        ensure_finite(values)  # once for every snapshot
        snapshots = [RadialField.of_finite(config.grid, row, t)
                     for t, row in zip(times.tolist(), values)]
        hist = arrays["history"]
        if hist.dtype != np.float64 or hist.ndim != 2 or hist.shape[1] != 4 or not len(hist):
            raise ValueError(f"history is {hist.dtype} {hist.shape}, "
                             "need float64 (n, 4) with n >= 1")
        time_comp = float(arrays["time_comp"])
        if not (np.all(np.isfinite(hist)) and math.isfinite(time_comp)):
            raise ValueError("a history cell or the time compensation is not finite")
        status = str(arrays["status"])
        if status not in STATUSES:
            raise ValueError(f"unknown status {status!r}")
        stop = arrays["stop_field"]
        return Trajectory(config=config, snapshots=snapshots, status=status,
                          maxnorm_history=hist, _time_comp=time_comp,
                          _stop_field=RadialField(config.grid, stop, float(hist[-1, 0]))
                          if stop.size else None)
    except (FloatingPointError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupted run archive {path}: {exc}") from exc


def trajectory_to_csv(fh, trajectory: Trajectory, comments=()) -> None:
    """History CSV (t, supnorm, argmax_r, dt) after ``comments``, a status
    comment and one per parameter."""
    comments = [*comments, f"status: {trajectory.status}"]
    comments += [f"{key}: {val!r}" for key, val in asdict(trajectory.config.params).items()]
    hist = trajectory.maxnorm_history
    # one block at a time: a nested list of the whole history outweighs the run
    rows = (row for i in range(0, len(hist), HISTORY_BLOCK)
            for row in hist[i:i + HISTORY_BLOCK].tolist())
    write_csv(fh, ("t", "supnorm", "argmax_r", "dt"), rows, comments)
