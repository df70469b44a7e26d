from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from blowlab import solver
from blowlab.fields import RadialField, RadialGrid, sphere_area
from blowlab.params import validate
from blowlab.profiles import f_profile
from blowlab.solver import (
    STATUS_BLOWN_UP,
    STATUS_BUDGET,
    STATUS_COMPLETED,
    STATUS_OVERFLOWED,
    CheckpointError,
    InsufficientGrowthError,
    SolverConfig,
    Trajectory,
    continue_run,
    dt_branch_counts,
    estimate_T,
    load_snapshots,
    profile_seeded_field,
    rhs,
    run_until_blowup,
    save_snapshots,
    trajectory_to_csv,
)

KAPPA = 3.0 ** (-1.0 / 3.0)


def quiet_config(grid, params, **kw):
    kw.setdefault("record_stride", 10 ** 9)
    kw.setdefault("snapshot_growth", 1e300)
    kw.setdefault("blowup_cap", 1e300)
    kw.setdefault("max_steps", 10 ** 7)
    return SolverConfig(grid=grid, params=params, **kw)


def test_rhs_constant_field_is_pure_reaction(heat_params, default_params):
    g = RadialGrid(R=1.0, M=32, dim=1)
    c = 1.7
    u = RadialField(g, np.full(g.M + 1, c))
    out = rhs(u, heat_params, boundary="neumann-zero").values
    assert np.allclose(out, c ** 4, rtol=1e-13)
    # gradient term vanishes on constants even with mu != 0
    out_mu = rhs(u, default_params, boundary="neumann-zero").values
    assert np.allclose(out_mu, c ** 4, rtol=1e-13)


def test_rhs_matches_fine_grid_oracle():
    """Full rhs (mu=1) on the profile shape agrees with a 10x finer grid at
    the shared interior nodes to O(h^2)."""
    params = validate(p=4.0, q=3.0, mu=1.0, dim=1)

    def rhs_values(M):
        g = RadialGrid(R=1.0, M=M, dim=1)
        u = RadialField(g, f_profile(g.r, params))
        return rhs(u, params, boundary="neumann-zero").values

    coarse = rhs_values(128)
    fine = rhs_values(1280)[::10]
    assert np.max(np.abs(coarse[:-1] - fine[:-1])) < 1e-5  # ~8e-7 measured, h^2=6e-5


def test_step_dt_decreases_with_supnorm(default_params):
    g = RadialGrid(R=1.0, M=64, dim=1)
    config = quiet_config(g, default_params)
    one_step = replace(config, max_steps=1)
    dts = []
    for amp in (0.1, 1.0, 10.0, 100.0, 1e4):
        traj = run_until_blowup(RadialField(g, np.full(g.M + 1, amp)), one_step)
        dts.append(traj.maxnorm_history[1, 3])
    assert all(a >= b for a, b in zip(dts, dts[1:]))
    # diffusion bound caps small-amplitude steps, stiffness bound the rest
    assert dts[0] == pytest.approx(config.dt_safety * g.h ** 2 / 2.0, rel=1e-12)
    assert dts[-1] == pytest.approx(config.dt_safety / (1.0 + 4.0 * 1e12), rel=1e-12)


def test_pure_heat_matches_gaussian_kernel(heat_params):
    """Reaction disabled, mu=0: the spreading Gaussian is reproduced to 1e-4
    relative at t=0.1 (closed-form heat-kernel oracle)."""
    a0 = 0.04
    g = RadialGrid(R=4.0, M=1024, dim=1)
    u0 = RadialField(g, np.exp(-g.r ** 2 / (4.0 * a0)))
    config = quiet_config(g, heat_params, t_max=0.1, reaction=False)
    traj = run_until_blowup(u0, config)
    assert traj.status == STATUS_COMPLETED
    t = traj.last_field.time
    assert t == pytest.approx(0.1, abs=1e-12)
    exact = np.sqrt(a0 / (a0 + t)) * np.exp(-g.r ** 2 / (4.0 * (a0 + t)))
    err = np.max(np.abs(traj.last_field.values - exact)) / np.max(exact)
    assert err < 1e-4  # measured ~5e-6


def test_ode_limit_constant_field(heat_params):
    """Constants with mu=0 follow u(t) = kappa (T0 - t)^{-1/3} with
    T0 = c0^{-(p-1)}/(p-1).

    Near blow-up a pointwise comparison at fixed t is ill-posed (any
    integrator's O(dt^2) shift of the blow-up time dominates), so the law is
    checked pointwise while supnorm <= 10 and through the fitted constants
    across the whole trajectory up to the 1e3 cap."""
    g = RadialGrid(R=1.0, M=16, dim=1)
    u0 = RadialField(g, np.ones(g.M + 1))
    config = quiet_config(g, heat_params, dt_safety=0.01, boundary="neumann-zero",
                          blowup_cap=1e3)
    traj = run_until_blowup(u0, config)
    assert traj.status == STATUS_BLOWN_UP
    T0 = 1.0 / 3.0
    hist = traj.maxnorm_history
    mask = hist[:, 1] <= 10.0
    pred = KAPPA * (T0 - hist[mask, 0]) ** (-1.0 / 3.0)
    assert np.max(np.abs(hist[mask, 1] - pred) / pred) < 1e-3  # measured 5e-5
    est = estimate_T(traj, heat_params)
    assert abs(est.T_est - T0) / T0 < 1e-3       # measured 1.6e-7
    assert abs(est.kappa_est - KAPPA) / KAPPA < 1e-3  # measured 3.5e-6


def test_zero_initial_data_stays_zero(default_params):
    g = RadialGrid(R=1.0, M=32, dim=1)
    u0 = RadialField(g, np.zeros(g.M + 1))
    config = quiet_config(g, default_params, blowup_cap=10.0, max_steps=500)
    traj = run_until_blowup(u0, config)
    assert traj.status == STATUS_BUDGET
    assert np.all(traj.last_field.values == 0.0)


def test_small_data_does_not_blow_up(heat_params):
    """Compactly supported bump at sup-norm 1e-3, mu=0: diffusion wins."""
    g = RadialGrid(R=1.0, M=128, dim=1)
    bump = 1e-3 * np.clip(1.0 - (g.r / 0.25) ** 2, 0.0, None) ** 2
    config = quiet_config(g, heat_params, blowup_cap=1.0, max_steps=50_000)
    traj = run_until_blowup(RadialField(g, bump), config)
    assert traj.status == STATUS_BUDGET
    assert traj.maxnorm_history[-1, 1] < 1e-3  # decayed, not grown


def test_profile_seed_blows_up_at_origin(small_run):
    assert small_run.status == STATUS_BLOWN_UP
    hist = small_run.maxnorm_history
    assert hist[-1, 1] >= 1e4
    assert hist[-1, 2] == 0.0  # argmax radius at the origin
    # times strictly increasing on snapshots
    times = small_run.times
    assert np.all(np.diff(times) > 0.0)


def test_positivity_preserved(small_run):
    """Nonnegative seed, mu >= 0: discrete solution stays above -h^2."""
    h = small_run.config.grid.h
    worst = min(float(np.min(s.values)) for s in small_run.snapshots)
    assert worst >= -h * h


def test_overflow_is_flagged_not_silent(default_params):
    g = RadialGrid(R=1.0, M=16, dim=1)
    big = RadialField(g, np.full(g.M + 1, 1e80))
    config = quiet_config(g, default_params, blowup_cap=1e300, max_steps=50)
    traj = run_until_blowup(big, config)
    assert traj.status == STATUS_OVERFLOWED
    assert np.all(np.isfinite(traj.last_field.values))
    # the overflowing step itself is rejected: no history row, field unchanged
    one = run_until_blowup(big, replace(config, max_steps=1))
    assert one.status == STATUS_OVERFLOWED
    assert len(one.maxnorm_history) == 1
    assert np.array_equal(one.last_field.values[:-1], big.values[:-1])


def _synthetic_blowup_history(T, kappa, s_values, params, noise=None, seed=0):
    g = RadialGrid(R=1.0, M=8, dim=1)
    config = SolverConfig(grid=g, params=params)
    ts = T - np.asarray(s_values)
    m = kappa * np.asarray(s_values) ** (-1.0 / (params.p - 1.0))
    if noise:
        rng = np.random.default_rng(seed)
        m = m * (1.0 + rng.uniform(-noise, noise, size=len(m)))
    hist = [(ts[0], m[0], 0.0, 0.0)]
    for i in range(1, len(ts)):
        hist.append((ts[i], m[i], 0.0, ts[i] - ts[i - 1]))
    field = RadialField(g, np.zeros(9), time=float(ts[-1]))
    return Trajectory(config=config, snapshots=[field], status=STATUS_BLOWN_UP,
                      maxnorm_history=np.array(hist))


def test_estimate_T_exact_power_law(default_params):
    s = np.logspace(-1, -8, 400)
    traj = _synthetic_blowup_history(0.8, KAPPA, s, default_params)
    est = estimate_T(traj, default_params)
    assert est.T_est == pytest.approx(0.8, abs=1e-9)
    assert est.kappa_est == pytest.approx(KAPPA, abs=1e-9)
    assert est.residual < 1e-7  # limited by rounding of supnorm^{-(p-1)} itself
    assert est.fit_window[1] < est.T_est


def test_estimate_T_with_noise(default_params):
    s = np.logspace(-1, -8, 500)
    traj = _synthetic_blowup_history(0.8, KAPPA, s, default_params, noise=1e-3)
    est = estimate_T(traj, default_params)
    assert est.T_est == pytest.approx(0.8, abs=1e-4)


def test_estimate_T_insufficient_growth(default_params):
    s = np.linspace(0.1, 0.05, 50)  # barely a factor 1.26 of growth
    traj = _synthetic_blowup_history(0.8, KAPPA, s, default_params)
    with pytest.raises(InsufficientGrowthError, match="insufficient growth"):
        estimate_T(traj, default_params)
    traj.status = STATUS_COMPLETED
    with pytest.raises(InsufficientGrowthError):
        estimate_T(traj, default_params)


def _assert_same_run(loaded, run):
    assert np.array_equal(loaded.maxnorm_history, run.maxnorm_history)
    assert loaded._time_comp == run._time_comp
    assert loaded.status == run.status
    assert loaded.config == run.config
    assert len(loaded.snapshots) == len(run.snapshots)
    for a, b in zip(loaded.snapshots, run.snapshots):
        assert a.time == b.time
        assert np.array_equal(a.values, b.values)


def test_archive_round_trip(small_run, tmp_path):
    path = tmp_path / "snapshots.npz"
    save_snapshots(small_run, path)
    _assert_same_run(load_snapshots(path), small_run)


def _rewrite_archive(path, drop=(), **changes):
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files if key not in drop}
    np.savez_compressed(path, **{**arrays, **changes})


def test_archive_version_mismatch(small_run, tmp_path):
    path = tmp_path / "snapshots.npz"
    save_snapshots(small_run, path)
    _rewrite_archive(path, version=np.array(99))
    with pytest.raises(CheckpointError, match="version"):
        load_snapshots(path)


def test_archive_unreadable_or_incomplete(small_run, tmp_path):
    path = tmp_path / "snapshots.npz"
    save_snapshots(small_run, path)
    whole = path.read_bytes()
    path.write_bytes(whole[:len(whole) // 2])  # truncated zip
    with pytest.raises(CheckpointError, match="unreadable"):
        load_snapshots(path)
    path.write_text("not an archive")
    with pytest.raises(CheckpointError, match="unreadable"):
        load_snapshots(path)
    path.write_bytes(whole)
    _rewrite_archive(path, drop=("history",))  # the layout before the history moved in
    with pytest.raises(CheckpointError, match="history"):
        load_snapshots(path)
    path.write_bytes(whole)
    _rewrite_archive(path, config=np.array("{}"))
    with pytest.raises(CheckpointError, match="corrupted"):
        load_snapshots(path)


def test_resume_reproduces_uninterrupted_run(default_params, tmp_path):
    g = RadialGrid(R=1.0, M=256, dim=1)
    u0 = profile_seeded_field(g, default_params, t_star=0.01)
    full = run_until_blowup(u0, SolverConfig(grid=g, params=default_params,
                                             blowup_cap=1e4, max_steps=5000))
    half = run_until_blowup(u0, SolverConfig(grid=g, params=default_params,
                                             blowup_cap=1e4, max_steps=2825))
    assert half.status == STATUS_BUDGET
    assert half._time_comp != 0.0  # so the resume must carry the compensation
    path = tmp_path / "snapshots.npz"
    save_snapshots(half, path)
    resumed = continue_run(load_snapshots(path))
    assert resumed.status == full.status == STATUS_BLOWN_UP
    assert np.array_equal(resumed.maxnorm_history, full.maxnorm_history)
    assert np.array_equal(resumed.last_field.values, full.last_field.values)
    assert resumed._time_comp == full._time_comp


def test_cap_is_checked_before_the_budget(default_params):
    """This run reaches the cap on exactly its last budgeted step."""
    g = RadialGrid(R=1.0, M=256, dim=1)
    u0 = profile_seeded_field(g, default_params, t_star=0.01)
    traj = run_until_blowup(u0, SolverConfig(grid=g, params=default_params,
                                             blowup_cap=1e4, max_steps=2848))
    assert len(traj.maxnorm_history) - 1 == 2848
    assert traj.maxnorm_history[-1, 1] >= 1e4
    assert traj.status == STATUS_BLOWN_UP


def test_history_block_size_leaves_runs_unchanged(default_params, monkeypatch):
    """Flushing the history every 7 rows instead of every HISTORY_BLOCK gives
    the same arrays, for a fresh run and for a resume that crosses a flush."""
    g = RadialGrid(R=1.0, M=64, dim=1)
    u0 = profile_seeded_field(g, default_params, t_star=0.01)
    config = SolverConfig(grid=g, params=default_params, blowup_cap=1e4, max_steps=600)
    default = run_until_blowup(u0, config)
    monkeypatch.setattr(solver, "HISTORY_BLOCK", 7)
    half = run_until_blowup(u0, replace(config, max_steps=10))  # one flush, 3 rows left
    resumed = continue_run(replace(half, config=replace(config, max_steps=590)))
    for traj in (run_until_blowup(u0, config), resumed):
        assert np.array_equal(traj.maxnorm_history, default.maxnorm_history)
        assert traj._time_comp == default._time_comp
        assert traj.status == default.status


def test_trajectory_csv_layout(small_run):
    text = trajectory_to_csv(small_run)
    lines = text.strip().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "t,supnorm,argmax_r,dt"
    assert len(body) - 1 == len(small_run.maxnorm_history)
    # csv parses back to the same floats (shortest round-trip reprs)
    t, m, rarg, dt = (float(tok) for tok in body[2].split(","))
    assert (t, m, rarg, dt) == tuple(small_run.maxnorm_history[1])


# ------------------------------------------------- bit-identity reference
#
# A reference Heun stepper written with the original per-call formulas:
# scipy's cumulative_trapezoid, one np.errstate scope per kernel call and
# freshly allocated arrays everywhere.  The production loop hoists the grid
# geometry, the error-state scope and the stage buffers out of the step; it
# must reproduce this reference bit for bit.

def _ref_laplacian(u, h, dim, boundary):
    out = np.empty_like(u)
    inv_h2 = 1.0 / (h * h)
    out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) * inv_h2
    if dim > 1:
        r = np.arange(1, len(u) - 1, dtype=float) * h
        out[1:-1] += (dim - 1.0) / r * (u[2:] - u[:-2]) / (2.0 * h)
    out[0] = 2.0 * dim * (u[1] - u[0]) * inv_h2
    if boundary == "dirichlet-zero":
        out[-1] = 0.0
    else:
        out[-1] = 2.0 * (u[-2] - u[-1]) * inv_h2
    return out


def _ref_gradient(u, h, boundary):
    out = np.empty_like(u)
    out[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    out[0] = 0.0
    if boundary == "neumann-zero":
        out[-1] = 0.0
    else:
        out[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    return out


def _ref_prefix(u, r, q, dim):
    integrand = np.abs(u) ** (q - 1.0)
    if dim > 1:
        integrand = integrand * r ** (dim - 1.0)
    return sphere_area(dim) * cumulative_trapezoid(integrand, r, initial=0.0)


def _ref_rhs(u, r, h, params, boundary, reaction):
    with np.errstate(over="ignore", invalid="ignore"):
        out = _ref_laplacian(u, h, params.dim, boundary)
        if reaction:
            out += np.abs(u) ** (params.p - 1.0) * u
        if params.mu != 0.0:
            g = _ref_gradient(u, h, boundary)
            J = _ref_prefix(u, r, params.q, params.dim)
            out += params.mu * np.abs(g) * J
    if boundary == "dirichlet-zero":
        out[-1] = 0.0
    return out


def _ref_heun(u, r, dt, config):
    args = (r, config.grid.h, config.params, config.boundary, config.reaction)
    k1 = _ref_rhs(u, *args)
    with np.errstate(over="ignore", invalid="ignore"):
        predictor = u + dt * k1
    k2 = _ref_rhs(predictor, *args)
    with np.errstate(over="ignore", invalid="ignore"):
        return u + (0.5 * dt) * (k1 + k2)


def _ref_run(u0, config):
    """(history rows, final values, Kahan compensation) of a cap/budget run."""
    h, p = config.grid.h, config.params.p
    values = u0.values.copy()
    if config.boundary == "dirichlet-zero":
        values[-1] = 0.0

    def sup(v):
        a = np.abs(v)
        i = int(np.argmax(a))
        return float(a[i]), i * h

    t, comp = u0.time, 0.0
    m, rarg = sup(values)
    hist = [(t, m, rarg, 0.0)]
    while len(hist) - 1 < config.max_steps and m < config.blowup_cap:
        with np.errstate(over="ignore"):
            dt_stiff = 1.0 / (1.0 + p * m ** (p - 1.0))
        dt = config.dt_safety * min(h * h / (2.0 * config.grid.dim), dt_stiff)
        values = _ref_heun(values, config.grid.r, dt, config)
        assert np.all(np.isfinite(values))
        y = dt - comp
        t_new = t + y
        comp = (t_new - t) - y
        t = t_new
        m, rarg = sup(values)
        hist.append((t, m, rarg, dt))
    return np.asarray(hist, dtype=float), values, comp


@pytest.mark.parametrize("reaction", [True, False])
@pytest.mark.parametrize("mu", [0.0, 0.1])
@pytest.mark.parametrize("boundary", ["dirichlet-zero", "neumann-zero"])
@pytest.mark.parametrize("dim,q", [(1, 3.0), (2, 4.6)])
def test_run_is_bit_identical_to_reference_stepper(dim, q, boundary, mu, reaction):
    params = validate(p=4.0, q=q, mu=mu, dim=dim)
    g = RadialGrid(R=1.0, M=64, dim=dim)
    u0 = profile_seeded_field(g, params, t_star=0.01)
    config = SolverConfig(grid=g, params=params, boundary=boundary, reaction=reaction,
                          blowup_cap=1e6, max_steps=600, record_stride=100)
    traj = run_until_blowup(u0, config)
    hist, values, comp = _ref_run(u0, config)
    assert np.array_equal(traj.maxnorm_history, hist)
    assert np.array_equal(traj.last_field.values, values)
    assert traj._time_comp == comp


def test_dt_overflow_is_flagged_not_raised(default_params):
    """A sup-norm whose power overflows a Python float ends the run as
    overflowed instead of raising OverflowError."""
    g = RadialGrid(R=1.0, M=16, dim=1)
    config = quiet_config(g, default_params, max_steps=50)
    traj = run_until_blowup(RadialField(g, np.full(g.M + 1, 1e120)), config)
    assert traj.status == STATUS_OVERFLOWED
    assert len(traj.maxnorm_history) == 1  # the collapsed step is not taken


def test_dt_branch_counts(small_run, heat_params):
    diffusion, reaction = dt_branch_counts(small_run)
    assert diffusion > 0 and reaction > 0
    assert diffusion + reaction == len(small_run.maxnorm_history) - 1
    # the last step of a t_max run is clipped and belongs to neither branch
    g = RadialGrid(R=1.0, M=64, dim=1)
    config = quiet_config(g, heat_params, t_max=0.01, reaction=False)
    traj = run_until_blowup(RadialField(g, np.cos(0.5 * np.pi * g.r)), config)
    assert dt_branch_counts(traj) == (len(traj.maxnorm_history) - 2, 0)


def test_grid_params_dim_mismatch_is_rejected(default_params):
    grid = RadialGrid(R=1.0, M=16, dim=2)
    with pytest.raises(ValueError, match="dim"):
        SolverConfig(grid=grid, params=default_params)
    with pytest.raises(ValueError, match="dim"):
        rhs(RadialField(grid, np.ones(grid.M + 1)), default_params)


# ------------------------------------------------------ artifact writes

def test_artifact_writes_leave_no_temp_files(small_run, tmp_path, monkeypatch):
    save_snapshots(small_run, tmp_path / "snapshots.npz")
    assert [p.name for p in tmp_path.iterdir()] == ["snapshots.npz"]
    before = (tmp_path / "snapshots.npz").read_bytes()

    def failing_savez(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez_compressed", failing_savez)
    with pytest.raises(OSError, match="disk full"):
        save_snapshots(small_run, tmp_path / "snapshots.npz")
    # a failed write keeps the previous archive and cleans up after itself
    assert (tmp_path / "snapshots.npz").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["snapshots.npz"]
    _assert_same_run(load_snapshots(tmp_path / "snapshots.npz"), small_run)
