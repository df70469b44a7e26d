"""Explicit time integration toward blow-up, detection, and bookkeeping.

The right-hand side is

    du/dt = Lap(u) + |u|^(p-1) u + mu * |du/dr| * J(r),

with J the running ball integral of |u|^(q-1).  Stepping is explicit
second-order (Heun) under the dual step-size law

    dt = dt_safety * min( h^2/(2*dim),  1/(1 + p * supnorm^(p-1)) ),

whose second branch resolves the local reaction time scale all the way to
the cap.  Runs are strictly sequential and deterministic: identical config
and initial data give bit-identical trajectories.

Near the cap the physical time increments drop below the floating-point
resolution of absolute time (dt < eps * t), so the recorded times collapse
while the field keeps evolving.  Every history row therefore carries its
own dt; time-to-end quantities are reconstructed by summing dt backwards,
which stays exact where absolute time cannot.

The history is one (n, 4) float64 array that ``_advance`` builds from
blocks of ``HISTORY_BLOCK`` rows.  A run stops at the cap, at ``t_max`` or
at its step budget (``budget-exhausted``, resumable), checked in that order.

A run is stored as one archive (:func:`save_snapshots`/:func:`load_snapshots`):
snapshots, dense history, status, config and the time accumulator's Kahan
compensation, so post-processing and resume read one file.

Bit-identity invariant: a change that is meant to leave the numerics alone
must leave every run bit-identical (history, snapshots, Kahan compensation).
The step kernels therefore keep each arithmetic operation and its order; a
speed-up may only move work out of the loop.  ``_advance`` builds the run's
fixed geometry (:class:`~blowlab.fields.GridGeometry`: panel widths, radial
weights, the Laplacian's 1/r coefficients, 1/h^2) and a reused stage buffer
once per call, and holds one ``np.errstate`` scope around the whole step
loop.  ``tests/test_solver.py`` checks the loop against a reference stepper
written with the original per-call formulas.
"""
from __future__ import annotations

import json
import os
import zipfile
import zlib
from dataclasses import asdict, dataclass, field as dc_field, fields

import numpy as np

from .fields import (
    BOUNDARIES,
    BOUNDARY_DIRICHLET,
    GridGeometry,
    NonFiniteFieldError,
    RadialField,
    RadialGrid,
    _gradient_values,
    _laplacian_values,
    _nonlocal_prefix_values,
    _sup_values,
    write_csv,
)
from .params import ModelParams
from .profiles import f_profile

ARCHIVE_VERSION = 3  # 1 was the JSON checkpoint that held the history apart;
                     # 2 stored a config with the reaction switch

STATUS_RUNNING = "running"
STATUS_BLOWN_UP = "blown-up"
STATUS_COMPLETED = "completed"
STATUS_OVERFLOWED = "overflowed"
STATUS_BUDGET = "budget-exhausted"

HISTORY_BLOCK = 4096  # history rows buffered as tuples before a flush to floats


class CheckpointError(ValueError):
    """Unreadable, incomplete, or version-mismatched run archive."""


class InsufficientGrowthError(ValueError):
    """The max-norm history is too short to support a blow-up fit."""


@dataclass(frozen=True)
class SolverConfig:
    grid: RadialGrid
    params: ModelParams
    dt_safety: float = 0.5
    blowup_cap: float = 1e8
    boundary: str = BOUNDARY_DIRICHLET
    record_stride: int = 2000
    snapshot_growth: float = 1.05  # extra snapshot whenever supnorm grows by this factor
    max_steps: int = 5_000_000     # per-call step budget
    t_max: float | None = None

    def __post_init__(self):
        if not 0.0 < self.dt_safety <= 1.0:
            raise ValueError(f"dt_safety must be in (0, 1], got {self.dt_safety}")
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
    """

    config: SolverConfig
    snapshots: list[RadialField]
    status: str = STATUS_RUNNING
    maxnorm_history: np.ndarray = dc_field(default_factory=lambda: np.empty((0, 4)))
    _time_comp: float = 0.0  # Kahan compensation for the time accumulator

    @classmethod
    def start(cls, u0: RadialField, config: SolverConfig) -> "Trajectory":
        if u0.grid != config.grid:
            raise ValueError("initial field grid differs from config grid")
        field = u0.copy()
        if config.boundary == BOUNDARY_DIRICHLET:
            field.values[-1] = 0.0
        m, rarg = _sup_values(field.values, config.grid.h)
        return cls(config=config, snapshots=[field],
                   maxnorm_history=np.array([[field.time, m, rarg, 0.0]]))

    @property
    def last_field(self) -> RadialField:
        return self.snapshots[-1]

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.snapshots])


@dataclass(frozen=True)
class BlowupEstimate:
    T_est: float
    kappa_est: float
    fit_window: tuple[float, float]
    residual: float
    t_last: float = 0.0      # last history time entering the fit
    delta_end: float = 0.0   # fitted T_est - t_last; kept separately because
                             # the subtraction underflows in float64 near blow-up


def profile_seeded_field(grid: RadialGrid, params: ModelParams,
                         t_star: float = 0.01, taper_start: float = 0.85) -> RadialField:
    """Initial data matching the intermediate prediction at time-to-blow-up
    t_star, smoothly tapered to zero on [taper_start*R, R].

    The profile tail decays only algebraically, so on a finite grid the raw
    profile is O(1) at r = R; the taper makes the seed compatible with the
    dirichlet-zero closure instead of leaving an artificial boundary layer.
    """
    check_seed(t_star, taper_start)
    r = grid.r
    ell = np.sqrt(t_star * abs(np.log(t_star)))
    u = t_star ** (-1.0 / (params.p - 1.0)) * f_profile(r / ell, params)
    a = taper_start * grid.R
    x = np.clip((r - a) / (grid.R - a), 0.0, 1.0)
    u *= 1.0 - x ** 3 * (x * (6.0 * x - 15.0) + 10.0)  # quintic smoothstep, C^2
    return RadialField(grid, u, time=0.0)


def check_seed(t_star: float, taper_start: float) -> None:
    """Reject seed settings outside the open interval (0, 1)."""
    for name, value in (("t_star", t_star), ("taper_start", taper_start)):
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {value}")


def _rhs_values(u: np.ndarray, geom: GridGeometry, params: ModelParams, boundary: str,
                out: np.ndarray | None = None) -> np.ndarray:
    """Right-hand side on the node values, written into ``out`` when given.

    Callers hold ``np.errstate(over="ignore", invalid="ignore")``: overflow
    here is an expected condition, detected by the caller's finiteness test.
    """
    out = _laplacian_values(u, geom, boundary, out)
    abs_u = np.abs(u)
    react = abs_u ** (params.p - 1.0)
    react *= u
    out += react
    if params.mu != 0.0:
        g = _gradient_values(u, geom.h, boundary)
        J = _nonlocal_prefix_values(abs_u, geom, params.q)
        np.abs(g, out=g)
        g *= params.mu
        g *= J
        out += g
    if boundary == BOUNDARY_DIRICHLET:
        out[-1] = 0.0
    return out


def rhs(field: RadialField, params: ModelParams,
        boundary: str = BOUNDARY_DIRICHLET) -> RadialField:
    """Full right-hand side, one ball-integral pass per evaluation."""
    if field.grid.dim != params.dim:
        raise ValueError(f"grid dim {field.grid.dim} differs from params dim {params.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _rhs_values(field.values, GridGeometry.of(field.grid), params, boundary)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteFieldError("right-hand side overflowed")
    return RadialField(field.grid, vals, field.time)


def _dt_of(config: SolverConfig, supnorm: float) -> float:
    h = config.grid.h
    p = config.params.p
    dt_diff = h * h / (2.0 * config.grid.dim)
    try:
        dt_stiff = 1.0 / (1.0 + p * supnorm ** (p - 1.0))
    except OverflowError:  # float power raises instead of returning inf
        dt_stiff = 0.0
    dt = config.dt_safety * min(dt_diff, dt_stiff)
    if not dt > 0.0 or not np.isfinite(dt):
        raise NonFiniteFieldError(f"step size collapsed (supnorm={supnorm})")
    return dt


def _heun(u: np.ndarray, dt: float, config: SolverConfig, geom: GridGeometry,
          work: np.ndarray) -> np.ndarray:
    """One Heun step.  ``work`` is a (3, M+1) work block that holds the
    stages and the predictor; it may be reused across steps."""
    p = config.params
    k1, predictor, k2 = work
    _rhs_values(u, geom, p, config.boundary, out=k1)
    np.multiply(k1, dt, out=predictor)
    predictor += u
    _rhs_values(predictor, geom, p, config.boundary, out=k2)
    k1 += k2
    k1 *= 0.5 * dt
    return u + k1


def run_until_blowup(u0: RadialField, config: SolverConfig) -> Trajectory:
    """Step until the sup-norm reaches the cap, overflow, or the budget.

    The max-norm history is recorded at every accepted step.  Snapshots are
    kept every ``record_stride`` steps and additionally whenever the
    sup-norm has grown by ``snapshot_growth`` since the last snapshot, so
    coverage stays dense (logarithmically) on approach to blow-up.
    """
    return _advance(Trajectory.start(u0, config))


def continue_run(trajectory: Trajectory) -> Trajectory:
    """Resume a run in place, typically a ``budget-exhausted`` one.

    Stepping depends only on the current field, so a resumed run reproduces
    the uninterrupted history exactly.
    """
    if trajectory.status in (STATUS_BLOWN_UP, STATUS_OVERFLOWED):
        return trajectory
    trajectory.status = STATUS_RUNNING
    return _advance(trajectory)


def _advance(traj: Trajectory) -> Trajectory:
    config = traj.config
    grid = config.grid
    geom = GridGeometry.of(grid)
    work = np.empty((3, grid.M + 1))
    h = grid.h
    cap = config.blowup_cap
    t_max = config.t_max
    stride = config.record_stride
    growth = config.snapshot_growth

    values = traj.last_field.values.copy()
    t = traj.last_field.time
    comp = traj._time_comp
    m, rarg = _sup_values(values, h)
    last_snap_m = max(m, np.finfo(float).tiny)
    steps = 0
    blocks, rows = [traj.maxnorm_history], []

    def snapshot():
        fld = RadialField(grid, values.copy(), t)
        if traj.snapshots and traj.snapshots[-1].time == t:
            traj.snapshots[-1] = fld  # deep tail: keep the latest state at a tied time
        else:
            traj.snapshots.append(fld)

    # one error-state scope for the whole loop: overflow is detected explicitly
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if m >= cap:
                status = STATUS_BLOWN_UP
                break
            if t_max is not None and t >= t_max * (1.0 - 1e-15):
                status = STATUS_COMPLETED
                break
            if steps >= config.max_steps:
                status = STATUS_BUDGET
                break
            try:
                dt = _dt_of(config, m)
                if t_max is not None:
                    dt = min(dt, t_max - t)
                new_values = _heun(values, dt, config, geom, work)
            except (NonFiniteFieldError, FloatingPointError):
                status = STATUS_OVERFLOWED
                break
            if not np.all(np.isfinite(new_values)):
                status = STATUS_OVERFLOWED
                break
            # Kahan-compensated time accumulation
            y = dt - comp
            t_new = t + y
            comp = (t_new - t) - y
            t = t_new
            values = new_values
            steps += 1
            m, rarg = _sup_values(values, h)
            rows.append((t, m, rarg, dt))
            if len(rows) == HISTORY_BLOCK:
                blocks.append(np.array(rows))
                rows = []
            if steps % stride == 0 or m >= growth * last_snap_m:
                snapshot()
                last_snap_m = max(m, np.finfo(float).tiny)

    snapshot()
    traj.maxnorm_history = np.concatenate(blocks + [np.array(rows).reshape(-1, 4)])
    traj.status = status
    traj._time_comp = comp
    return traj


def estimate_T(trajectory: Trajectory, params: ModelParams) -> BlowupEstimate:
    """Fit supnorm ~ kappa_est (T_est - t)^(-1/(p-1)) on the last decade.

    Works in z = supnorm^-(p-1), which is linear in time for reaction-driven
    growth: z = a (T - t).  Time differences inside the window come from
    backward dt sums, so the fit survives the collapse of absolute time
    resolution near blow-up.
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
    p = params.p
    z = m[i0:] ** (-(p - 1.0))
    # near blow-up both columns live many orders below 1; scale to keep the
    # least-squares problem conditioned
    S = float(np.max(s_rel))
    Z = float(np.max(z))
    if not (S > 0.0 and Z > 0.0):
        raise InsufficientGrowthError("fit failed: degenerate window")
    A = np.vstack([s_rel / S, np.ones_like(s_rel)]).T
    (a_s, c_s), *_ = np.linalg.lstsq(A, z / Z, rcond=None)
    a = a_s * Z / S
    c = c_s * Z
    if not a > 0.0:
        raise InsufficientGrowthError("fit failed: non-positive growth-rate slope")
    delta_end = max(c / a, 0.0)
    t_last = float(t[-1])
    T_est = float(t_last + delta_end)
    kappa_est = a ** (-1.0 / (p - 1.0))
    model = kappa_est * (delta_end + s_rel) ** (-1.0 / (p - 1.0))
    residual = float(np.max(np.abs(model - m[i0:]) / m[i0:]))
    return BlowupEstimate(
        T_est=T_est, kappa_est=float(kappa_est),
        fit_window=(float(t[i0]), t_last), residual=residual,
        t_last=t_last, delta_end=float(delta_end),
    )


def dt_branch_counts(trajectory: Trajectory) -> tuple[int, int]:
    """(diffusion-limited, reaction-limited) step counts, recomputed after
    the run from the history's dt and sup columns, so the step loop pays
    nothing.  A step clipped to ``t_max`` counts in neither."""
    config = trajectory.config
    hist = trajectory.maxnorm_history
    dt = hist[1:, 3]
    sup_before = hist[:-1, 1].copy()
    p = config.params.p
    # in place: this runs beside the whole trajectory, and fresh
    # temporaries here raised a run's peak memory
    with np.errstate(over="ignore"):
        dt_react = np.power(sup_before, p - 1.0, out=sup_before)
    dt_react *= p
    dt_react += 1.0
    np.divide(config.dt_safety, dt_react, out=dt_react)
    dt_diff = config.dt_safety * config.grid.h ** 2 / (2.0 * config.grid.dim)
    diffusion = dt >= dt_diff * (1.0 - 1e-12)
    reaction = ~diffusion & (np.abs(dt - dt_react) <= 1e-12 * dt_react)
    return int(np.sum(diffusion)), int(np.sum(reaction))


def far_field_report(trajectory: Trajectory, r_min: float) -> np.ndarray:
    """Per-snapshot far-field levels: (t, global supnorm, sup_{r>=r_min}|u|,
    sup_{r>=r_min}|du/dr|).  The localization diagnostic of a single-point
    blow-up: the far columns must stay flat while the global one explodes.
    """
    grid = trajectory.config.grid
    i_min = int(np.ceil(r_min / grid.h - 1e-12))
    rows = []
    for snap in trajectory.snapshots:
        g = _gradient_values(snap.values, grid.h, trajectory.config.boundary)
        rows.append((
            snap.time,
            float(np.max(np.abs(snap.values))),
            float(np.max(np.abs(snap.values[i_min:]))),
            float(np.max(np.abs(g[i_min:]))),
        ))
    return np.asarray(rows, dtype=float)


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


_ARCHIVE_KEYS = ("history", "time_comp", "version", "config", "status", "times", "values")


def save_snapshots(trajectory: Trajectory, path) -> None:
    """Write the run archive: one compressed ``.npz`` that holds everything
    needed to post-process or resume the run.

    Keys: ``times`` and ``values`` (every snapshot), ``history`` (the dense
    (n, 4) max-norm history), ``time_comp`` (the Kahan compensation of the
    time accumulator), ``status``, ``config`` (JSON) and ``version``.
    """
    values = np.stack([s.values for s in trajectory.snapshots])
    # a file handle, so numpy does not append ".npz" to the temp name
    write_atomic(path, lambda fh: np.savez_compressed(
        fh,
        version=np.array(ARCHIVE_VERSION),
        config=np.array(json.dumps(asdict(trajectory.config))),
        status=np.array(trajectory.status),
        times=trajectory.times,
        values=values,
        history=trajectory.maxnorm_history,
        time_comp=np.array(trajectory._time_comp),
    ))


def load_snapshots(path) -> Trajectory:
    """Inverse of :func:`save_snapshots`: the complete trajectory (snapshots,
    history, status, time compensation), ready for :func:`continue_run`.

    Raises :class:`CheckpointError` when the file is not a readable archive,
    lacks a key (archives written before the history moved in, for one), or
    has another version.
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
        snapshots = [RadialField(config.grid, row, t)
                     for t, row in zip(arrays["times"].tolist(), arrays["values"])]
        hist = arrays["history"]
        if hist.dtype != np.float64 or hist.ndim != 2 or hist.shape[1] != 4:
            raise ValueError(f"history is {hist.dtype} {hist.shape}, need float64 (n, 4)")
        return Trajectory(config=config, snapshots=snapshots, status=str(arrays["status"]),
                          maxnorm_history=hist, _time_comp=float(arrays["time_comp"]))
    except (KeyError, TypeError, ValueError) as exc:
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
