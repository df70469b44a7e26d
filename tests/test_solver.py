import io
import json
import tracemalloc
import weakref
import zipfile
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import cumulative_trapezoid
from scipy.linalg.lapack import dgttrf, dgttrs

from blowlab import lemmas, solver
from blowlab.fields import RadialField, RadialGrid, sphere_area
from blowlab.lemmas import nonlocal_decay_fit
from blowlab.params import validate
from blowlab.profiles import f_profile
from blowlab.solver import (
    STATUS_BLOWN_UP,
    STATUS_BUDGET,
    STATUS_COMPLETED,
    STATUS_DECAYED,
    STATUS_OVERFLOWED,
    CheckpointError,
    InsufficientGrowthError,
    SolverConfig,
    Trajectory,
    continue_run,
    estimate_T,
    far_field_report,
    load_snapshots,
    profile_seeded_field,
    run_until_blowup,
    save_snapshots,
    trajectory_to_csv,
)
from conftest import assert_same_steps, ref_laplacian, ref_laplacian_matrix, run_python

KAPPA = 3.0 ** (-1.0 / 3.0)


@pytest.fixture(scope="module")
def default_run(default_params):
    """``blowlab run``'s instance: M=1024, t_star 0.01, default config."""
    g = RadialGrid(R=1.0, M=1024, dim=1)
    return run_until_blowup(profile_seeded_field(g, default_params, t_star=0.01),
                            SolverConfig(grid=g, params=default_params))


def quiet_config(grid, params, **kw):
    kw.setdefault("record_stride", 10 ** 9)
    kw.setdefault("snapshot_growth", 1e300)
    kw.setdefault("blowup_cap", 1e300)
    kw.setdefault("max_steps", 10 ** 7)
    return SolverConfig(grid=grid, params=params, **kw)


def full_rhs(field, params, boundary):
    """The right-hand side the step integrates: the reference Laplacian plus
    the explicit term, from the kernel a step calls."""
    grid = field.grid
    out = np.empty(grid.M + 1)
    solver._explicit_values(field.values, solver._Batch([params], grid, boundary), out)
    return out + ref_laplacian(field.values, grid.h, grid.dim, boundary)


def test_rhs_constant_field_is_pure_reaction(heat_params, default_params):
    g = RadialGrid(R=1.0, M=32, dim=1)
    c = 1.7
    u = RadialField(g, np.full(g.M + 1, c))
    out = full_rhs(u, heat_params, boundary="neumann-zero")
    assert np.allclose(out, c ** 4, rtol=1e-13)
    # gradient term vanishes on constants even with mu != 0
    out_mu = full_rhs(u, default_params, boundary="neumann-zero")
    assert np.allclose(out_mu, c ** 4, rtol=1e-13)


def test_rhs_matches_fine_grid_oracle():
    """The full right-hand side (mu=1) on the profile shape agrees with a 10x finer grid at
    the shared interior nodes to O(h^2)."""
    params = validate(p=4.0, q=3.0, mu=1.0, dim=1)

    def rhs_values(M):
        g = RadialGrid(R=1.0, M=M, dim=1)
        u = RadialField(g, f_profile(g.r, params))
        return full_rhs(u, params, boundary="neumann-zero")

    coarse = rhs_values(128)
    fine = rhs_values(1280)[::10]
    assert np.max(np.abs(coarse[:-1] - fine[:-1])) < 1e-5  # ~8e-7 measured, h^2=6e-5


def test_step_dt_decreases_with_supnorm(default_params):
    g = RadialGrid(R=1.0, M=64, dim=1)
    config = quiet_config(g, default_params)
    one_step = replace(config, max_steps=1)
    amps = (1e-300, 0.1, 1.0, 10.0, 100.0, 1e4)  # a zero field takes no step (decayed)
    dts = []
    for amp in amps:
        traj = run_until_blowup(RadialField(g, np.full(g.M + 1, amp)), one_step)
        dts.append(traj.maxnorm_history[1, 3])
    assert all(a > b for a, b in zip(dts, dts[1:]))
    # one branch, the reaction time scale, at every amplitude: the implicit
    # Laplacian puts no h^2 bound on the step
    for amp, dt in zip(amps, dts):
        assert dt == pytest.approx(config.dt_safety / (1.0 + 4.0 * amp ** 3), rel=1e-12)


def test_pure_heat_matches_gaussian_kernel(heat_params):
    """mu=0 and amplitude 1e-3, so the reaction term is below 1e-9 of the
    field: the spreading Gaussian is reproduced to 1e-4 relative at t=0.1
    (closed-form heat-kernel oracle)."""
    a0 = 0.04
    amp = 1e-3
    g = RadialGrid(R=4.0, M=1024, dim=1)
    u0 = RadialField(g, amp * np.exp(-g.r ** 2 / (4.0 * a0)))
    config = quiet_config(g, heat_params, t_max=0.1, dt_safety=0.002)
    traj = run_until_blowup(u0, config)
    assert traj.status == STATUS_COMPLETED
    t = traj.last_field.time
    assert t == pytest.approx(0.1, abs=1e-12)
    exact = amp * np.sqrt(a0 / (a0 + t)) * np.exp(-g.r ** 2 / (4.0 * (a0 + t)))
    err = np.max(np.abs(traj.last_field.values - exact)) / np.max(exact)
    assert err < 1e-4  # measured ~6e-6


def test_ode_limit_constant_field(heat_params):
    """Constants with mu=0 follow u(t) = kappa (T0 - t)^{-1/3} with
    T0 = c0^{-(p-1)}/(p-1).

    Near blow-up a pointwise comparison at fixed t is ill-posed (any
    integrator's O(dt^2) shift of the blow-up time dominates), so the law is
    checked pointwise while supnorm <= 10 and through the fitted constants
    across the whole trajectory up to the 1e3 cap."""
    g = RadialGrid(R=1.0, M=16, dim=1)
    u0 = RadialField(g, np.ones(g.M + 1))
    config = quiet_config(g, heat_params, dt_safety=0.002, boundary="neumann-zero",
                          blowup_cap=1e3)
    traj = run_until_blowup(u0, config)
    assert traj.status == STATUS_BLOWN_UP
    T0 = 1.0 / 3.0
    hist = traj.maxnorm_history
    mask = hist[:, 1] <= 10.0
    pred = KAPPA * (T0 - hist[mask, 0]) ** (-1.0 / 3.0)
    assert np.max(np.abs(hist[mask, 1] - pred) / pred) < 1e-3  # measured 2.5e-4
    est = estimate_T(traj)
    assert abs(est.T_est - T0) / T0 < 1e-3       # measured 7.6e-7
    assert abs(est.kappa_est - KAPPA) / KAPPA < 1e-3  # measured 3.2e-7


def test_zero_initial_data_stays_zero(default_params):
    """Zero is a fixed point: the run stops as decayed before its first step."""
    g = RadialGrid(R=1.0, M=32, dim=1)
    u0 = RadialField(g, np.zeros(g.M + 1))
    config = quiet_config(g, default_params, blowup_cap=10.0, max_steps=500)
    traj = run_until_blowup(u0, config)
    assert traj.status == STATUS_DECAYED
    assert len(traj.maxnorm_history) == 1
    assert np.all(traj.last_field.values == 0.0)


def test_field_that_decays_to_zero_stops_there(default_params):
    """On R = 1e-3 diffusion takes the default seed to exactly zero (at step
    74); the run stops there as decayed instead of stepping the zero field
    until its budget, and a resume leaves it as it is."""
    g = RadialGrid(R=1e-3, M=64, dim=1)
    config = SolverConfig(grid=g, params=default_params, max_steps=3000)
    traj = run_until_blowup(profile_seeded_field(g, default_params), config)
    hist = traj.maxnorm_history
    assert traj.status == STATUS_DECAYED
    assert len(hist) - 1 < 100
    assert hist[-1, 1] == 0.0 and np.all(hist[:-1, 1] > 0.0)
    continue_run(traj)
    assert traj.status == STATUS_DECAYED
    assert traj.maxnorm_history is hist


def test_small_data_does_not_blow_up(heat_params):
    """Compactly supported bump at sup-norm 1e-3, mu=0: diffusion wins."""
    g = RadialGrid(R=1.0, M=128, dim=1)
    bump = 1e-3 * np.clip(1.0 - (g.r / 0.25) ** 2, 0.0, None) ** 2
    config = quiet_config(g, heat_params, blowup_cap=1.0, max_steps=667)  # t ~ 100
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
    est = estimate_T(traj)
    assert est.T_est == pytest.approx(0.8, abs=1e-9)
    assert est.kappa_est == pytest.approx(KAPPA, abs=1e-9)
    assert est.residual < 1e-7  # limited by rounding of supnorm^{-(p-1)} itself
    assert est.fit_window_to_T[0] > est.fit_window_to_T[1] > 0.0


def test_estimate_T_with_noise(default_params):
    s = np.logspace(-1, -8, 500)
    traj = _synthetic_blowup_history(0.8, KAPPA, s, default_params, noise=1e-3)
    est = estimate_T(traj)
    assert est.T_est == pytest.approx(0.8, abs=1e-4)


def test_estimate_T_insufficient_growth(default_params):
    s = np.linspace(0.1, 0.05, 50)  # barely a factor 1.26 of growth
    traj = _synthetic_blowup_history(0.8, KAPPA, s, default_params)
    with pytest.raises(InsufficientGrowthError, match="insufficient growth"):
        estimate_T(traj)
    traj.status = STATUS_COMPLETED
    with pytest.raises(InsufficientGrowthError):
        estimate_T(traj)


@given(n=st.integers(3, 60), width=st.floats(1e-3, 1e3), offset=st.floats(-10.0, 10.0),
       slope=st.floats(-1e3, 1e3), intercept=st.floats(-1e3, 1e3),
       noise=st.floats(0.0, 100.0), seed=st.integers(0, 2 ** 32 - 1))
def test_fit_line_matches_lstsq(n, width, offset, slope, intercept, noise, seed):
    """On well-conditioned data (x spread over its width, its offset at most
    10 widths) the closed-form fit is numpy's least-squares line up to
    rounding."""
    rng = np.random.default_rng(seed)
    x = width * (offset + (np.arange(n) + rng.uniform(0.0, 0.5, n)) / n)
    y = slope * x + intercept + noise * rng.uniform(-1.0, 1.0, n)
    (ref_slope, ref_intercept), *_ = np.linalg.lstsq(np.vstack([x, np.ones(n)]).T, y,
                                                     rcond=None)
    got_slope, got_intercept = solver._fit_line(x, y)
    scale = float(np.max(np.abs(y)))
    assert abs(got_slope - ref_slope) <= 1e-12 * scale / width
    assert abs(got_intercept - ref_intercept) <= 1e-11 * scale


def _lstsq_line(x, y):
    (slope, intercept), *_ = np.linalg.lstsq(np.vstack([x, np.ones_like(x)]).T, y, rcond=None)
    return slope, intercept


def test_fits_match_lstsq_on_the_default_run(default_run, default_params, monkeypatch):
    """On the window of ``blowlab run``'s instance, estimate_T and the decay
    fit give what the former ``np.linalg.lstsq`` line gave: T_est, kappa_est
    and the slope within 1e-13 relative (measured: T_est equal, kappa_est
    3.2e-16, slope 2.1e-15), the residual, a rounding-level number, within
    2e-13 absolute."""
    eta = default_params.gamma / 4.0
    new = estimate_T(default_run)
    new_slope = nonlocal_decay_fit(default_run, default_params, eta).slope
    monkeypatch.setattr(solver, "_fit_line", _lstsq_line)
    monkeypatch.setattr(lemmas, "_fit_line", _lstsq_line)
    old = estimate_T(default_run)
    old_slope = nonlocal_decay_fit(default_run, default_params, eta).slope
    assert new.T_est == pytest.approx(old.T_est, rel=1e-13, abs=0.0)
    assert new.kappa_est == pytest.approx(old.kappa_est, rel=1e-13, abs=0.0)
    assert new_slope == pytest.approx(old_slope, rel=1e-13, abs=0.0)
    assert abs(new.residual - old.residual) <= 2e-13


def test_fits_do_not_call_lstsq(small_run, default_params, monkeypatch):
    """Neither fit reaches numpy's bundled LAPACK through ``lstsq``."""
    def no_lstsq(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq was called")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    est = estimate_T(small_run)
    fit = nonlocal_decay_fit(small_run, default_params, default_params.gamma / 4.0)
    assert np.isfinite(est.T_est) and np.isfinite(fit.slope)


def _far_field_reference(trajectory):
    """The far field as ``blowlab run`` used to derive it: a table of every
    snapshot's (t, sup|u|, sup_{r>=r_min}|u|, sup_{r>=r_min}|du/dr|), then
    the ratios over the rows with sup > 1e6 to the first row's, with
    r_min = 0.1 R.  None where the run wrote no far field."""
    grid, boundary = trajectory.config.grid, trajectory.config.boundary
    r_min = 0.1 * grid.R
    i_min = int(np.ceil(r_min / grid.h - 1e-12))
    rows = []
    for snap in trajectory.snapshots:
        g = solver._gradient_values(snap.values, grid.h, boundary)
        rows.append((snap.time, float(np.max(np.abs(snap.values))),
                     float(np.max(np.abs(snap.values[i_min:]))),
                     float(np.max(np.abs(g[i_min:])))))
    rows = np.asarray(rows, dtype=float)
    window = rows[rows[:, 1] > 1e6]
    if not (trajectory.status == STATUS_BLOWN_UP and len(window)
            and rows[0, 2] > 0.0 and rows[0, 3] > 0.0):
        return None
    return {"r_min": r_min,
            "u_ratio_vs_initial": float(np.max(window[:, 2]) / rows[0, 2]),
            "grad_ratio_vs_initial": float(np.max(window[:, 3]) / rows[0, 3]),
            "window_snapshots": len(window)}


def _dim2_neumann_run(cap):
    params = validate(p=4.0, q=4.3, mu=0.1, dim=2)
    grid = RadialGrid(R=2.0, M=256, dim=2)
    return run_until_blowup(profile_seeded_field(grid, params, t_star=1e-4),
                            SolverConfig(grid=grid, params=params, boundary="neumann-zero",
                                         blowup_cap=cap))


def test_far_field_report_is_the_per_snapshot_table(small_run, default_run, monkeypatch):
    """The far field equals, to the bit, the per-snapshot table and the
    ratios ``blowlab run`` took of it, on a Dirichlet run that stops below
    sup 1e6 (none), ``blowlab run``'s instance and a dim=2 neumann run on
    R = 2; it takes the gradients of the initial and window snapshots only.
    The default run's window holds one snapshot: near the cap its snapshot
    times tie at t ~ 0.0107, and each tied snapshot replaces the one
    before.  At T ~ 1e-4 the times resolve finer steps, and 8 remain."""
    dim2 = _dim2_neumann_run(1e8)
    assert far_field_report(small_run) is _far_field_reference(small_run) is None
    calls = []
    gradient = solver._gradient_values
    monkeypatch.setattr(solver, "_gradient_values",
                        lambda *args: calls.append(1) or gradient(*args))
    for run, r_min, snapshots in [(default_run, 0.1, 1), (dim2, 0.2, 8)]:
        calls.clear()
        far = far_field_report(run)
        assert len(calls) == 1 + snapshots
        assert (far["r_min"], far["window_snapshots"]) == (r_min, snapshots)
        assert far == _far_field_reference(run)
        for key in ("u_ratio_vs_initial", "grad_ratio_vs_initial"):
            assert far[key].hex() == _far_field_reference(run)[key].hex()


def test_far_field_report_is_none_without_a_window(default_params):
    """A run that blows up at cap 1e2 never passes sup 1e6, and a run that
    stops at t_max did not blow up: neither has a far field."""
    capped = _dim2_neumann_run(1e2)
    assert capped.status == STATUS_BLOWN_UP
    assert far_field_report(capped) is None
    grid = RadialGrid(R=1.0, M=64, dim=1)
    early = run_until_blowup(profile_seeded_field(grid, default_params),
                             SolverConfig(grid=grid, params=default_params, t_max=1e-3))
    assert early.status == STATUS_COMPLETED
    assert far_field_report(early) is None


def _assert_same_run(loaded, run):
    assert_same_steps(loaded, run)
    assert loaded.config == run.config


def test_archive_round_trip(small_run, tmp_path):
    path = tmp_path / "snapshots.npz"
    save_snapshots(small_run, path)
    _assert_same_run(load_snapshots(path), small_run)
    # a run stopped between two snapshots keeps its field apart from them
    stopped = run_until_blowup(small_run.snapshots[0], replace(small_run.config, max_steps=7))
    assert stopped._stop_field is not None
    assert stopped.last_field.time == stopped.maxnorm_history[-1, 0]
    save_snapshots(stopped, path)
    _assert_same_run(load_snapshots(path), stopped)


def _rewrite_archive(path, drop=(), **changes):
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files if key not in drop}
    np.savez_compressed(path, **{**arrays, **changes})


def test_archive_version_mismatch(small_run, tmp_path):
    """Version 4 held runs of the ARS(2,2,2) step, which a resume would
    continue with another step: it is refused like any other version."""
    path = tmp_path / "snapshots.npz"
    save_snapshots(small_run, path)
    for version in (4, 99):
        _rewrite_archive(path, version=np.array(version))
        with pytest.raises(CheckpointError, match=rf"version {version} \(expected 5\)"):
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
    path.write_bytes(whole)
    _rewrite_archive(path, history=np.empty((0, 4)))
    with pytest.raises(CheckpointError, match=r"corrupted .*history .* n >= 1"):
        load_snapshots(path)
    path.write_bytes(whole)
    _rewrite_archive(path, status=np.array("bogus"))  # none of the six a run can have
    with pytest.raises(CheckpointError, match="corrupted .*: unknown status 'bogus'"):
        load_snapshots(path)
    # non-finite state: a resumed run would step on with nan times or take
    # a nan time for its stop field
    history, times = small_run.maxnorm_history.copy(), small_run.times.copy()
    history[3, 1], times[-1] = np.nan, np.inf
    values = np.array([snap.values for snap in small_run.snapshots])
    values[0, 5] = np.nan  # RadialField raises NonFiniteFieldError, not a ValueError
    for changes, message in (({"time_comp": np.array(np.nan)}, "time compensation is not finite"),
                             ({"history": history}, "history cell .* is not finite"),
                             ({"times": times}, "snapshot time is not finite"),
                             ({"values": values}, "non-finite field value at node 5")):
        path.write_bytes(whole)
        _rewrite_archive(path, **changes)
        with pytest.raises(CheckpointError, match=f"corrupted .*: .*{message}"):
            load_snapshots(path)
    n = len(small_run.snapshots)
    for changes, counts in (({"times": small_run.times[:-1]}, f"{n - 1} snapshot times for {n}"),
                            ({"times": np.empty(0), "values": np.empty((0, 257))},
                             "0 snapshot times for 0")):
        path.write_bytes(whole)
        _rewrite_archive(path, **changes)
        with pytest.raises(CheckpointError, match=f"corrupted .*: {counts} snapshots"):
            load_snapshots(path)


def test_archive_names_a_non_finite_value_by_its_node_in_its_snapshot(small_run, tmp_path):
    """The loader checks every snapshot's values in one pass, and names the
    node within its snapshot, not within the stacked values."""
    path = tmp_path / "snapshots.npz"
    save_snapshots(small_run, path)
    values = np.array([snap.values for snap in small_run.snapshots])
    values[3, 7] = np.inf
    _rewrite_archive(path, values=values)
    with pytest.raises(CheckpointError, match=r"non-finite field value at node 7$"):
        load_snapshots(path)
    _rewrite_archive(path, values=values[:, :-1])
    with pytest.raises(CheckpointError, match=r"values shape .* != \(snapshots, M\+1\)"):
        load_snapshots(path)


def test_archive_refuses_unordered_snapshot_times(small_run, tmp_path):
    """Frames look snapshots up by time, so an archive whose snapshot times
    do not increase strictly is corrupted, not a run."""
    path = tmp_path / "snapshots.npz"
    save_snapshots(small_run, path)
    whole = path.read_bytes()
    swapped, tied = small_run.times.copy(), small_run.times.copy()
    swapped[[1, 2]] = swapped[[2, 1]]
    tied[2] = tied[1]
    for times in (swapped, tied):
        path.write_bytes(whole)
        _rewrite_archive(path, times=times)
        with pytest.raises(CheckpointError, match="corrupted .*not strictly increasing"):
            load_snapshots(path)


def _savez_archive(trajectory, path, order):
    """The run archive as ``np.savez_compressed`` writes it from the stacked
    snapshots in ``order``: "F" is the reference for the streamed writer,
    "C" the snapshot-major layout that earlier writers stored."""
    stop = trajectory._stop_field
    np.savez_compressed(
        path, version=np.array(solver.ARCHIVE_VERSION),
        config=np.array(json.dumps(asdict(trajectory.config))),
        status=np.array(trajectory.status), times=trajectory.times,
        values=np.asarray(np.stack([s.values for s in trajectory.snapshots]), order=order),
        history=trajectory.maxnorm_history, time_comp=np.array(trajectory._time_comp),
        stop_field=np.empty(0) if stop is None else stop.values)


def test_archive_members_equal_savez_compressed(small_run, tmp_path):
    """The streamed archive holds, member for member and byte for byte once
    decompressed, what ``np.savez_compressed`` writes of the values in
    Fortran order: for a blown-up run, a budget-stopped run that keeps a
    stop field, and a dim=2 run."""
    stopped = run_until_blowup(small_run.snapshots[0], replace(small_run.config, max_steps=7))
    assert stopped.status == STATUS_BUDGET and stopped._stop_field is not None
    params2 = validate(p=4.0, q=4.6, mu=0.1, dim=2)
    g2 = RadialGrid(R=1.0, M=128, dim=2)
    dim2 = run_until_blowup(profile_seeded_field(g2, params2, t_star=0.01),
                            SolverConfig(grid=g2, params=params2, blowup_cap=1e4))
    assert dim2.status == STATUS_BLOWN_UP
    for trajectory in (small_run, stopped, dim2):
        save_snapshots(trajectory, tmp_path / "streamed.npz")
        _savez_archive(trajectory, tmp_path / "reference.npz", "F")
        with (zipfile.ZipFile(tmp_path / "streamed.npz") as streamed,
              zipfile.ZipFile(tmp_path / "reference.npz") as reference):
            assert streamed.namelist() == reference.namelist()
            for name in reference.namelist():
                assert streamed.read(name) == reference.read(name), name


def test_snapshot_major_archive_loads_and_resumes_as_the_node_major_one(small_run, tmp_path):
    """An archive whose values are stored snapshot by snapshot at deflate
    level 6, as earlier writers stored them, loads to the trajectory that
    the node-major archive of the same run gives, and a budget-stopped one
    resumes to the uninterrupted run bit for bit."""
    half = run_until_blowup(small_run.snapshots[0], replace(small_run.config, max_steps=105))
    assert half.status == STATUS_BUDGET and half._stop_field is not None
    old, new = tmp_path / "old.npz", tmp_path / "new.npz"
    for trajectory in (small_run, half):
        _savez_archive(trajectory, old, "C")
        save_snapshots(trajectory, new)
        with np.load(old) as snapshot_major, np.load(new) as node_major:
            assert snapshot_major["values"].flags.c_contiguous
            assert node_major["values"].flags.f_contiguous
        loaded = load_snapshots(new)
        _assert_same_run(load_snapshots(old), loaded)
        assert all(snap.values.flags.c_contiguous for snap in loaded.snapshots)
    assert_same_steps(continue_run(load_snapshots(old)), small_run)


def test_save_snapshots_tracemalloc_peak_under_half_mb(default_run, tmp_path):
    """The archive of ``blowlab run``'s instance (79 snapshots of 1025 nodes,
    0.65 MB of values) is written without holding the values whole: the
    stacked copy and its compressed blob peaked at ~3.5 MB."""
    save_snapshots(default_run, tmp_path / "snapshots.npz")
    tracemalloc.start()
    try:
        save_snapshots(default_run, tmp_path / "snapshots.npz")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 500_000


def test_resume_reproduces_uninterrupted_run(default_params, tmp_path):
    g = RadialGrid(R=1.0, M=256, dim=1)
    u0 = profile_seeded_field(g, default_params, t_star=0.01)
    full = run_until_blowup(u0, SolverConfig(grid=g, params=default_params,
                                             blowup_cap=1e4, max_steps=5000))
    half = run_until_blowup(u0, SolverConfig(grid=g, params=default_params,
                                             blowup_cap=1e4, max_steps=105))
    assert half.status == STATUS_BUDGET and half._stop_field is not None  # between snapshots
    assert half._time_comp != 0.0  # so the resume must carry the compensation
    path = tmp_path / "snapshots.npz"
    save_snapshots(half, path)
    resumed = continue_run(load_snapshots(path))
    assert resumed.status == full.status == STATUS_BLOWN_UP
    assert_same_steps(resumed, full)
    # the resumed steps take the sup from the field, not from the stored history
    damaged = load_snapshots(path)
    damaged.maxnorm_history[-1, 1] = np.inf
    resumed = continue_run(damaged)
    n = len(half.maxnorm_history)
    assert resumed.status == STATUS_BLOWN_UP
    assert resumed.maxnorm_history[n:].tobytes() == full.maxnorm_history[n:].tobytes()


def test_stepping_refuses_a_run_without_its_initial_row(default_params):
    """A ``Trajectory`` built from its fields alone has no history; stepped
    on, it recorded one row per step and no initial row."""
    g = RadialGrid(R=1.0, M=64, dim=1)
    u0 = profile_seeded_field(g, default_params, t_star=0.01)
    traj = Trajectory(config=SolverConfig(grid=g, params=default_params, max_steps=5),
                      snapshots=[u0])
    with pytest.raises(ValueError, match="initial history row: start it with Trajectory.start"):
        continue_run(traj)
    assert len(traj.maxnorm_history) == 0 and len(traj.snapshots) == 1


def test_cap_is_checked_before_the_budget(default_params):
    """This run reaches the cap on exactly its last budgeted step."""
    g = RadialGrid(R=1.0, M=256, dim=1)
    u0 = profile_seeded_field(g, default_params, t_star=0.01)
    traj = run_until_blowup(u0, SolverConfig(grid=g, params=default_params,
                                             blowup_cap=1e4, max_steps=207))
    assert len(traj.maxnorm_history) - 1 == 207
    assert traj.maxnorm_history[-1, 1] >= 1e4
    assert traj.status == STATUS_BLOWN_UP


def test_stop_hook_gets_each_run_as_it_stops_and_keeps_none(default_params):
    """``_advance`` hands each run to its stop hook once, with the run's
    place in the input, as the run leaves the batch, and holds it no longer:
    by the time a run stops, the runs before it are gone.  The third run's
    step 61 overflows while the others step on: it leaves through the same
    exit, with its last finite field and no history row for the rejected
    step, and each run is the same run stepped alone."""
    grid = RadialGrid(R=1.0, M=32, dim=1)
    u0 = profile_seeded_field(grid, default_params, t_star=0.01)
    runs = [(u0, SolverConfig(grid=grid, params=default_params, blowup_cap=cap))
            for cap in (1e4, 1e3)]
    runs.append((RadialField(grid, np.full(grid.M + 1, 1e76)),
                 SolverConfig(grid=grid, params=default_params, blowup_cap=1e300)))
    statuses = [STATUS_BLOWN_UP, STATUS_BLOWN_UP, STATUS_OVERFLOWED]
    stopped = []

    def on_stop(position, trajectory):
        assert all(ref() is None for _, ref in stopped)
        assert trajectory.status == statuses[position]
        assert_same_steps(trajectory, run_until_blowup(*runs[position]))
        hist, last = trajectory.maxnorm_history, trajectory.last_field
        assert np.all(np.isfinite(hist)) and np.all(np.isfinite(last.values))
        assert last.time == hist[-1, 0]
        assert np.max(np.abs(last.values)) == hist[-1, 1]
        assert position != 2 or len(hist) == 61
        stopped.append((position, weakref.ref(trajectory)))

    solver._advance((Trajectory.start(u0, config) for u0, config in runs), on_stop)
    assert [position for position, _ in stopped] == [2, 1, 0]


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
    fh = io.StringIO()
    trajectory_to_csv(fh, small_run)
    lines = fh.getvalue().strip().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "t,supnorm,argmax_r,dt"
    assert len(body) - 1 == len(small_run.maxnorm_history)
    # csv parses back to the same floats (shortest round-trip reprs)
    t, m, rarg, dt = (float(tok) for tok in body[2].split(","))
    assert (t, m, rarg, dt) == tuple(small_run.maxnorm_history[1])


# ------------------------------------------------------ Heun reference
#
# An explicit Heun stepper under the dual step law
# dt = dt_safety * min(h^2/(2N), 1/(1 + p sup^(p-1))), written with per-call
# formulas (scipy's cumulative_trapezoid, one np.errstate scope per kernel
# call, fresh arrays) and sharing no kernel with blowlab.  It is the oracle
# the IMEX runs converge to.

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


def _ref_rhs(u, r, h, params, boundary):
    with np.errstate(over="ignore", invalid="ignore"):
        out = ref_laplacian(u, h, params.dim, boundary)
        out += np.abs(u) ** (params.p - 1.0) * u
        if params.mu != 0.0:
            g = _ref_gradient(u, h, boundary)
            J = _ref_prefix(u, r, params.q, params.dim)
            out += params.mu * np.abs(g) * J
    if boundary == "dirichlet-zero":
        out[-1] = 0.0
    return out


def _ref_heun(u, r, dt, config):
    args = (r, config.grid.h, config.params, config.boundary)
    k1 = _ref_rhs(u, *args)
    with np.errstate(over="ignore", invalid="ignore"):
        predictor = u + dt * k1
    k2 = _ref_rhs(predictor, *args)
    with np.errstate(over="ignore", invalid="ignore"):
        return u + (0.5 * dt) * (k1 + k2)


def _ref_run(u0, config):
    """History rows (t, sup, argmax r, dt) of a cap/budget run."""
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
    return np.asarray(hist, dtype=float)


@pytest.mark.parametrize("mu", [0.0, 0.1])
@pytest.mark.parametrize("boundary", ["dirichlet-zero", "neumann-zero"])
@pytest.mark.parametrize("dim,q", [(1, 3.0), (2, 4.6)])
def test_run_converges_to_heun_reference(dim, q, boundary, mu):
    """IMEX at the default dt_safety and Heun at its own 0.05 fit the same
    blow-up: T_est within 1e-3 relative and kappa_est within 5e-4."""
    params = validate(p=4.0, q=q, mu=mu, dim=dim)
    g = RadialGrid(R=1.0, M=64, dim=dim)
    u0 = profile_seeded_field(g, params, t_star=0.01)
    config = SolverConfig(grid=g, params=params, boundary=boundary,
                          blowup_cap=1e6, max_steps=10 ** 5)
    traj = run_until_blowup(u0, config)
    hist = _ref_run(u0, replace(config, dt_safety=0.05))
    heun = estimate_T(replace(traj, maxnorm_history=hist))
    imex = estimate_T(traj)
    assert abs(imex.T_est / heun.T_est - 1.0) < 1e-3
    assert abs(imex.kappa_est / heun.kappa_est - 1.0) < 5e-4


T_RICHARDSON = 0.0107260303  # blowlab run's T, extrapolated in dt_safety (M=1024)


def test_default_run_matches_heun_at_M1024(default_params):
    """``blowlab run``'s instance (M=1024, t_star 0.01): T_est within 3e-4 of
    the T that both schemes extrapolate to in the step size (measured
    -1.96e-4), and kappa_est within 1.5e-4 of 3^(-1/3) (measured -8.3e-5)."""
    g = RadialGrid(R=1.0, M=1024, dim=1)
    traj = run_until_blowup(profile_seeded_field(g, default_params, t_star=0.01),
                            SolverConfig(grid=g, params=default_params))
    est = estimate_T(traj)
    assert abs(est.T_est / T_RICHARDSON - 1.0) < 3e-4
    assert abs(est.kappa_est / KAPPA - 1.0) < 1.5e-4


# ARS(3,4,3), Ascher, Ruuth & Spiteri, Appl. Numer. Math. 25 (1997) 151, sec. 2.7
_G = 0.4358665215
_B1, _B2 = -1.5 * _G ** 2 + 4.0 * _G - 0.25, 1.5 * _G ** 2 - 5.0 * _G + 1.25
_A_EXPLICIT = [[0.0, 0.0, 0.0, 0.0],
               [_G, 0.0, 0.0, 0.0],
               [0.3212788860, 0.3966543747, 0.0, 0.0],
               [-0.105858296, 0.5529291479, 0.5529291479, 0.0]]
_A_IMPLICIT = [[0.0, 0.0, 0.0, 0.0],
               [0.0, _G, 0.0, 0.0],
               [0.0, (1.0 - _G) / 2.0, _G, 0.0],
               [0.0, _B1, _B2, _G]]
_WEIGHTS = [0.0, _B1, _B2, _G]  # of both parts: the implicit part's is its last row


def _reference_ars343(u, dt, params, grid, boundary):
    """One ARS(3,4,3) step as its tableaus write it, with every stage's L U
    the reference Laplacian applied to that stage; the stages are solved
    with the same LAPACK routines on the reference matrix's bands.  The
    implicit weights are the last implicit row (the scheme is stiffly
    accurate), so u_new = U_4 + dt * sum_j (w_j - a^_4j) N(U_j): the
    textbook u + dt * sum_j w_j (N(U_j) + L U_j) would add the last solve's
    residual, ~eps * gamma*dt*|L| * sup = 3e-13 * sup at the seed, undamped."""
    L = ref_laplacian_matrix(grid, boundary)
    gdt = _G * dt
    *lu, info = dgttrf(-np.diag(L, -1) * gdt, 1.0 - gdt * np.diag(L), -np.diag(L, 1) * gdt)
    assert info == 0
    batch = solver._Batch([params], grid, boundary)

    def explicit(v):
        return solver._explicit_values(v, batch, np.empty_like(v))

    N, LU = [explicit(u)], [ref_laplacian(u, grid.h, grid.dim, boundary)]
    for i in range(1, 4):
        b = u + dt * sum(_A_EXPLICIT[i][j] * N[j] + _A_IMPLICIT[i][j] * LU[j] for j in range(i))
        stage = dgttrs(*lu, b)[0]
        N.append(explicit(stage))
        LU.append(ref_laplacian(stage, grid.h, grid.dim, boundary))
    return stage + dt * sum((w - a) * n for w, a, n in zip(_WEIGHTS, _A_EXPLICIT[3], N))


@pytest.mark.parametrize("dim,M,boundary", [(1, 1024, "dirichlet-zero"), (2, 256, "neumann-zero")])
def test_step_matches_the_previous_scheme(dim, M, boundary):
    """From the seed (sup ~3) and from states at sup ~1e2 and ~6e5, one step
    equals the reference ARS(3,4,3) step within 1e-13 * sup at every node
    (measured <= 9.0e-14 * sup, at the seed), alone and as a row of a block
    whose rows differ in q and mu."""
    params = validate(p=4.0, q=3.0 if dim == 1 else 4.6, mu=0.1, dim=dim)
    grid = RadialGrid(R=1.0, M=M, dim=dim)
    config = SolverConfig(grid=grid, params=params, boundary=boundary, blowup_cap=6e5)
    traj = run_until_blowup(profile_seeded_field(grid, params, t_star=0.01), config)
    sups = [float(np.max(np.abs(snap.values))) for snap in traj.snapshots]
    states = [traj.snapshots[0], traj.snapshots[int(np.argmax(np.array(sups) >= 1e2))],
              traj.snapshots[-1]]
    # a 3-row padded block: its second row has another q, so the nonlocal
    # rows are raised in two or three runs of q, and its last another mu
    # (nonzero, or 0, which skips the nonlocal term) and half the step size
    other_q = validate(p=4.0, q=3.5 if dim == 1 else 4.3, mu=0.1, dim=dim)
    others = [validate(p=4.0, q=params.q, mu=mu, dim=dim) for mu in (-0.2, 0.0)]
    for state in states:
        u = state.values
        sup = float(np.max(np.abs(u)))
        dt = solver._dt_of(config, sup)
        new = solver._ars343(u.copy(), [dt], solver._Batch([params], grid, boundary))
        reference = _reference_ars343(u, dt, params, grid, boundary)
        assert np.max(np.abs(new - reference)) <= 1e-13 * sup
        for other in others:
            rows, dts = [params, other_q, other], [dt, dt, 0.5 * dt]
            block = solver._ars343(solver._block([u] * 3), dts, solver._Batch(rows, grid, boundary))
            assert np.all(block[:, grid.M + 1:] == 0.0)  # +0 separators
            for row, row_params, dt_row in zip(solver._fields(block), rows, dts):
                batch = solver._Batch([row_params], grid, boundary)
                alone = solver._ars343(u.copy(), [dt_row], batch)
                assert np.array_equal(row, alone)
                reference = _reference_ars343(u, dt_row, row_params, grid, boundary)
                assert np.max(np.abs(row - reference)) <= 1e-13 * sup


def _T_est_at(params, grid, safeties):
    """T_est of the runs from the profile seed at each of ``safeties``."""
    u0 = profile_seeded_field(grid, params, t_star=0.01)
    return np.array([estimate_T(run_until_blowup(u0, SolverConfig(
        grid=grid, params=params, dt_safety=s))).T_est for s in safeties])


def test_halving_dt_safety_barely_moves_T(default_params):
    """At M=256 halving dt_safety from the default moves T_est by 1.7e-4
    relative (bound 1e-3), and the next halving by 8.07x less (bound 7x):
    third order."""
    T = _T_est_at(default_params, RadialGrid(R=1.0, M=256, dim=1), (0.15, 0.075, 0.0375))
    d = np.abs(np.diff(T))
    assert d[0] / T[0] < 1e-3
    assert d[0] / d[1] >= 7.0


def test_halving_dt_safety_is_third_order_in_dim2():
    """dim=2, p=3.5, q=4, mu=0.1 at M=512: the differences of T_est fall by
    8.01x and 8.02x (bound 7x) as dt_safety halves from the default."""
    params = validate(p=3.5, q=4.0, mu=0.1, dim=2)
    T = _T_est_at(params, RadialGrid(R=1.0, M=512, dim=2), (0.15, 0.075, 0.0375, 0.01875))
    d = np.abs(np.diff(T))
    assert np.all(d[:-1] / d[1:] >= 7.0)


def test_dt_overflow_is_flagged_not_raised(default_params):
    """A sup-norm whose power overflows a Python float ends the run as
    overflowed instead of raising OverflowError."""
    g = RadialGrid(R=1.0, M=16, dim=1)
    config = quiet_config(g, default_params, max_steps=50)
    traj = run_until_blowup(RadialField(g, np.full(g.M + 1, 1e120)), config)
    assert traj.status == STATUS_OVERFLOWED
    assert len(traj.maxnorm_history) == 1  # the collapsed step is not taken


def test_grid_params_dim_mismatch_is_rejected(default_params):
    grid = RadialGrid(R=1.0, M=16, dim=2)
    with pytest.raises(ValueError, match="dim"):
        SolverConfig(grid=grid, params=default_params)


# ------------------------------------------------------ artifact writes

def test_artifact_writes_leave_no_temp_files(small_run, tmp_path, monkeypatch):
    save_snapshots(small_run, tmp_path / "snapshots.npz")
    assert [p.name for p in tmp_path.iterdir()] == ["snapshots.npz"]
    before = (tmp_path / "snapshots.npz").read_bytes()

    def failing_write(*args, **kwargs):
        raise OSError("disk full")

    # the failure strikes midway, as the snapshots' member starts
    monkeypatch.setattr(np.lib.format, "write_array_header_1_0", failing_write)
    with pytest.raises(OSError, match="disk full"):
        save_snapshots(small_run, tmp_path / "snapshots.npz")
    # a failed write keeps the previous archive and cleans up after itself
    assert (tmp_path / "snapshots.npz").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["snapshots.npz"]
    _assert_same_run(load_snapshots(tmp_path / "snapshots.npz"), small_run)


# ------------------------------------------------------ LAPACK extension

@pytest.mark.parametrize("scipy_first", [True, False], ids=["scipy-first", "blowlab-first"])
def test_lapack_extension_is_shared_with_scipy_linalg(scipy_first):
    """blowlab loads scipy's LAPACK extension under its own name, so
    ``scipy.linalg`` imported before or after blowlab shares the one module
    object and its routines, and still solves and diagonalizes correctly."""
    imports = ["import scipy.linalg.lapack", "from blowlab import solver"]
    code = "\n".join(imports if scipy_first else imports[::-1]) + """
import sys
import numpy as np
import scipy.linalg
assert sys.modules["scipy.linalg._flapack"] is solver._flapack
assert scipy.linalg.lapack.dgttrf is solver.dgttrf
assert scipy.linalg.lapack.dgttrs is solver.dgttrs
d, e = np.linspace(2.0, 3.0, 6), np.linspace(-1.0, -0.5, 5)
A = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
w, v = scipy.linalg.eigh_tridiagonal(d, e)
assert np.allclose(w, np.linalg.eigvalsh(A)) and np.allclose(A @ v, v * w)
b = np.arange(6.0)
x = scipy.linalg.solve_banded((1, 1), np.array([np.r_[0.0, e], d, np.r_[e, 0.0]]), b)
assert np.allclose(A @ x, b)
"""
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr


def test_missing_scipy_is_an_import_error_that_names_it():
    """Without scipy, ``import blowlab`` fails with an ImportError naming
    scipy, not with an error from inside the loader."""
    code = """
import importlib.util
find_spec = importlib.util.find_spec
importlib.util.find_spec = lambda name, *args: None if name == "scipy" else find_spec(name, *args)
try:
    import blowlab
except ImportError as exc:
    assert exc.name == "scipy" and "scipy" in str(exc), repr(exc)
else:
    raise SystemExit("blowlab imported without scipy")
"""
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
