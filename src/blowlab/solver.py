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
from dataclasses import dataclass, field as dc_field

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
)
from .params import ModelParams
from .profiles import f_profile

CHECKPOINT_VERSION = 1

STATUS_RUNNING = "running"
STATUS_BLOWN_UP = "blown-up"
STATUS_COMPLETED = "completed"
STATUS_OVERFLOWED = "overflowed"


class CheckpointError(ValueError):
    """Unreadable, corrupted, or version-mismatched checkpoint payload."""


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
    T_hint: float | None = None
    reaction: bool = True          # test hook: False drops the |u|^(p-1) u term

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

    def to_dict(self) -> dict:
        return {
            "grid": self.grid.to_dict(),
            "params": self.params.to_dict(),
            "dt_safety": self.dt_safety,
            "blowup_cap": self.blowup_cap,
            "boundary": self.boundary,
            "record_stride": self.record_stride,
            "snapshot_growth": self.snapshot_growth,
            "max_steps": self.max_steps,
            "t_max": self.t_max,
            "T_hint": self.T_hint,
            "reaction": self.reaction,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SolverConfig":
        return cls(
            grid=RadialGrid.from_dict(data["grid"]),
            params=ModelParams.from_dict(data["params"]),
            dt_safety=float(data["dt_safety"]),
            blowup_cap=float(data["blowup_cap"]),
            boundary=str(data["boundary"]),
            record_stride=int(data["record_stride"]),
            snapshot_growth=float(data.get("snapshot_growth", 1.05)),
            max_steps=int(data["max_steps"]),
            t_max=None if data.get("t_max") is None else float(data["t_max"]),
            T_hint=None if data.get("T_hint") is None else float(data["T_hint"]),
            reaction=bool(data.get("reaction", True)),
        )


@dataclass
class Trajectory:
    """Time-ordered record of a run: snapshots, dense max-norm history, status.

    History rows are (t, supnorm, argmax_radius, dt_of_the_step); the initial
    row carries dt = 0.  Snapshot times are strictly increasing (deep-tail
    snapshots whose rounded time ties the previous one replace it).
    """

    config: SolverConfig
    snapshots: list[RadialField]
    status: str = STATUS_RUNNING
    _hist: list = dc_field(default_factory=list)
    _time_comp: float = 0.0  # Kahan compensation for the time accumulator

    @classmethod
    def start(cls, u0: RadialField, config: SolverConfig) -> "Trajectory":
        if u0.grid != config.grid:
            raise ValueError("initial field grid differs from config grid")
        field = u0.copy()
        if config.boundary == BOUNDARY_DIRICHLET:
            field.values[-1] = 0.0
        m, rarg = _sup(field.values, config.grid.h)
        traj = cls(config=config, snapshots=[field])
        traj._hist.append((field.time, m, rarg, 0.0))
        return traj

    @property
    def maxnorm_history(self) -> np.ndarray:
        """(n, 4) array with columns t, supnorm, argmax_r, dt."""
        return np.asarray(self._hist, dtype=float)

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

    def to_dict(self) -> dict:
        return {
            "T_est": self.T_est,
            "kappa_est": self.kappa_est,
            "fit_window": list(self.fit_window),
            "residual": self.residual,
            "t_last": self.t_last,
            "delta_end": self.delta_end,
        }


def profile_seeded_field(grid: RadialGrid, params: ModelParams,
                         t_star: float = 0.01, taper_start: float = 0.85) -> RadialField:
    """Initial data matching the intermediate prediction at time-to-blow-up
    t_star, smoothly tapered to zero on [taper_start*R, R].

    The profile tail decays only algebraically, so on a finite grid the raw
    profile is O(1) at r = R; the taper makes the seed compatible with the
    dirichlet-zero closure instead of leaving an artificial boundary layer.
    """
    if not 0.0 < t_star < 1.0:
        raise ValueError(f"t_star must be in (0, 1), got {t_star}")
    if not 0.0 < taper_start < 1.0:
        raise ValueError(f"taper_start must be in (0, 1), got {taper_start}")
    r = grid.r
    ell = np.sqrt(t_star * abs(np.log(t_star)))
    u = t_star ** (-1.0 / (params.p - 1.0)) * f_profile(r / ell, params)
    a = taper_start * grid.R
    x = np.clip((r - a) / (grid.R - a), 0.0, 1.0)
    u *= 1.0 - x ** 3 * (x * (6.0 * x - 15.0) + 10.0)  # quintic smoothstep, C^2
    return RadialField(grid, u, time=0.0)


def _sup(values: np.ndarray, h: float) -> tuple[float, float]:
    a = np.abs(values)
    i = int(np.argmax(a))
    return float(a[i]), i * h


def _rhs_values(u: np.ndarray, geom: GridGeometry, params: ModelParams, boundary: str,
                reaction: bool, out: np.ndarray | None = None) -> np.ndarray:
    """Right-hand side on the node values, written into ``out`` when given.

    Callers hold ``np.errstate(over="ignore", invalid="ignore")``: overflow
    here is an expected condition, detected by the caller's finiteness test.
    """
    out = _laplacian_values(u, geom, boundary, out)
    if reaction or params.mu != 0.0:
        abs_u = np.abs(u)
    if reaction:
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
        boundary: str = BOUNDARY_DIRICHLET, reaction: bool = True) -> RadialField:
    """Full right-hand side, one ball-integral pass per evaluation."""
    if field.grid.dim != params.dim:
        raise ValueError(f"grid dim {field.grid.dim} differs from params dim {params.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _rhs_values(field.values, GridGeometry.of(field.grid), params, boundary,
                           reaction)
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
    _rhs_values(u, geom, p, config.boundary, config.reaction, out=k1)
    np.multiply(k1, dt, out=predictor)
    predictor += u
    _rhs_values(predictor, geom, p, config.boundary, config.reaction, out=k2)
    k1 += k2
    k1 *= 0.5 * dt
    return u + k1


def _stage_buffer(grid: RadialGrid) -> np.ndarray:
    return np.empty((3, grid.M + 1))


def step(field: RadialField, config: SolverConfig) -> tuple[RadialField, float]:
    """One explicit second-order step under the dual dt law.

    Raises :class:`NonFiniteFieldError` on overflow; run_until_blowup turns
    that into the ``overflowed`` status.
    """
    m, _ = _sup(field.values, config.grid.h)
    with np.errstate(over="ignore", invalid="ignore"):
        dt = _dt_of(config, m)
        new = _heun(field.values, dt, config, GridGeometry.of(config.grid),
                    _stage_buffer(config.grid))
    if not np.all(np.isfinite(new)):
        raise NonFiniteFieldError("field overflowed during step")
    return RadialField(field.grid, new, field.time + dt), dt


def run_until_blowup(u0: RadialField, config: SolverConfig) -> Trajectory:
    """Step until the sup-norm reaches the cap, overflow, or the budget.

    The max-norm history is recorded at every accepted step.  Snapshots are
    kept every ``record_stride`` steps and additionally whenever the
    sup-norm has grown by ``snapshot_growth`` since the last snapshot, so
    coverage stays dense (logarithmically) on approach to blow-up.
    """
    return _advance(Trajectory.start(u0, config))


def continue_run(trajectory: Trajectory) -> Trajectory:
    """Resume a run (after a budget stop or a checkpoint load) in place.

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
    work = _stage_buffer(grid)
    h = grid.h
    cap = config.blowup_cap
    t_max = config.t_max
    stride = config.record_stride
    growth = config.snapshot_growth

    values = traj.last_field.values.copy()
    t = traj.last_field.time
    comp = traj._time_comp
    m, rarg = _sup(values, h)
    last_snap_m = max(m, np.finfo(float).tiny)
    steps = 0

    def snapshot():
        fld = RadialField(grid, values.copy(), t)
        if traj.snapshots and traj.snapshots[-1].time == t:
            traj.snapshots[-1] = fld  # deep tail: keep the latest state at a tied time
        else:
            traj.snapshots.append(fld)

    status = STATUS_COMPLETED
    # one error-state scope for the whole loop: overflow is detected explicitly
    with np.errstate(over="ignore", invalid="ignore"):
        while steps < config.max_steps:
            if m >= cap:
                status = STATUS_BLOWN_UP
                break
            if t_max is not None and t >= t_max * (1.0 - 1e-15):
                status = STATUS_COMPLETED
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
            m, rarg = _sup(values, h)
            traj._hist.append((t, m, rarg, dt))
            if steps % stride == 0 or m >= growth * last_snap_m:
                snapshot()
                last_snap_m = max(m, np.finfo(float).tiny)

    snapshot()
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
    hist = trajectory._hist
    n = len(hist)
    dt = np.fromiter((row[3] for row in hist), float, n)[1:]
    sup_before = np.fromiter((row[1] for row in hist), float, n)[:-1]
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


_ROWS_PER_WRITE = 1024  # history rows per encoded piece of a checkpoint


def _write_atomic(path, write) -> None:
    """Call ``write(fh)`` on a temp file beside ``path``, then rename it into
    place, so a reader never sees a partial file."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def save_checkpoint(trajectory: Trajectory, path) -> None:
    """Single-JSON checkpoint: config, latest field, dense history, status.

    The bytes are those of ``json.dumps(doc)``, written in pieces: the C
    encoder runs on blocks of history rows, so the write never holds the
    whole text (json.dump would stream, but through the slow Python encoder).
    """
    last = trajectory.last_field
    head = json.dumps({
        "version": CHECKPOINT_VERSION,
        "config": trajectory.config.to_dict(),
        "time": last.time,
        "time_comp": trajectory._time_comp,
        "status": trajectory.status,
        "values": last.values.tolist(),
        "maxnorm_history": [],
    })[:-2]  # reopen the empty history list: drop its closing "]}"
    hist = trajectory._hist

    def write(fh):
        fh.write(head.encode())
        for i in range(0, len(hist), _ROWS_PER_WRITE):
            rows = json.dumps(hist[i:i + _ROWS_PER_WRITE])[1:-1]  # rows encode as arrays
            fh.write(((", " if i else "") + rows).encode())
        fh.write(b"]}")

    _write_atomic(path, write)


def load_checkpoint(path) -> Trajectory:
    """Lossless inverse of :func:`save_checkpoint` (latest field only)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint: {exc}") from exc
    version = doc.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} (expected {CHECKPOINT_VERSION})"
        )
    try:
        config = SolverConfig.from_dict(doc["config"])
        field = RadialField(config.grid, np.array(doc["values"], dtype=float),
                            float(doc["time"]))
        hist = [tuple(float(x) for x in row) for row in doc["maxnorm_history"]]
        status = str(doc.get("status", STATUS_COMPLETED))
        comp = float(doc.get("time_comp", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupted checkpoint payload: {exc}") from exc
    return Trajectory(config=config, snapshots=[field], status=status,
                      _hist=hist, _time_comp=comp)


def save_snapshots(trajectory: Trajectory, path) -> None:
    """Compressed archive of every snapshot (times, field matrix, config)."""
    values = np.stack([s.values for s in trajectory.snapshots])
    # a file handle, so numpy does not append ".npz" to the temp name
    _write_atomic(path, lambda fh: np.savez_compressed(
        fh,
        times=trajectory.times,
        values=values,
        status=np.array(trajectory.status),
        config=np.array(json.dumps(trajectory.config.to_dict())),
    ))


def load_snapshots(path) -> Trajectory:
    """Inverse of :func:`save_snapshots`.  The returned trajectory has the
    full snapshot list but no dense max-norm history (that lives in the
    checkpoint); merge the two for fit-grade post-processing."""
    with np.load(path) as data:
        config = SolverConfig.from_dict(json.loads(str(data["config"])))
        times = data["times"]
        values = data["values"]
        status = str(data["status"])
    snapshots = [RadialField(config.grid, values[i].copy(), float(times[i]))
                 for i in range(len(times))]
    return Trajectory(config=config, snapshots=snapshots, status=status)


def trajectory_to_csv(trajectory: Trajectory) -> str:
    """CSV body (t, supnorm, argmax_r, dt) with a parameter comment header."""
    lines = [f"# status: {trajectory.status}"]
    for key, val in trajectory.config.params.to_dict().items():
        lines.append(f"# {key}: {val!r}")
    lines.append("t,supnorm,argmax_r,dt")
    for t, m, rarg, dt in trajectory._hist:
        lines.append(f"{t!r},{m!r},{rarg!r},{dt!r}")
    return "\n".join(lines) + "\n"
