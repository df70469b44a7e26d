import math
import tracemalloc

import numpy as np
import pytest

from blowlab.fields import RadialField, RadialGrid, _gradient_values
from blowlab.params import validate
from blowlab.profiles import f_profile, final_profile, v_K0
from blowlab.similarity import (
    CoverageGapError,
    SimilarityFrame,
    boundedness_report,
    default_delta,
    extract_frame,
    final_profile_extract,
    frame_report,
    scale_radius,
    scale_radius_inverse,
    threshold_check,
    time_scale_of_x0,
    v_sharp_behavior,
    w_smallness,
)
from blowlab.solver import (
    STATUS_BLOWN_UP,
    SolverConfig,
    Trajectory,
    estimate_T,
    profile_seeded_field,
    run_until_blowup,
)

T_REF = 1.0


def synthetic_trajectory(params, field_of_s, M=64, R=1.0, s_hi=0.9, s_lo=1e-7,
                         n_snap=500, status=STATUS_BLOWN_UP):
    """Trajectory from a closed-form u(., s); geometric times so the local
    spacing stays proportional to the distance to blow-up."""
    grid = RadialGrid(R=R, M=M, dim=1)
    ss = np.logspace(np.log10(s_hi), np.log10(s_lo), n_snap)
    snaps = [RadialField(grid, field_of_s(grid.r, s), time=T_REF - s) for s in ss]
    config = SolverConfig(grid=grid, params=params)
    return Trajectory(config=config, snapshots=snaps, status=status)


# ---------------------------------------------------------------- t0(x0)

def test_t0_forward_example():
    # K0=4, T=1: |x0| = 4 sqrt(1e-3 |log 1e-3|) maps back to T-t0 = 1e-3
    x0 = 4.0 * np.sqrt(1e-3 * abs(np.log(1e-3)))
    assert x0 == pytest.approx(0.33245162725382199, rel=1e-14)
    s = time_scale_of_x0(x0, 4.0, 1.0)
    assert abs(s - 1e-3) / 1e-3 < 1e-12
    assert 1.0 - time_scale_of_x0(x0, 4.0, 1.0) == pytest.approx(1.0 - 1e-3, abs=1e-13)


def test_t0_goes_to_T_as_x0_shrinks():
    t_prev = -np.inf
    for x0 in (0.3, 0.1, 0.03, 1e-3, 1e-6):
        t0 = 1.0 - time_scale_of_x0(x0, 4.0, 1.0)
        assert t0 > t_prev
        t_prev = t0
    assert time_scale_of_x0(1e-9, 4.0, 1.0) < 1e-12


def test_t0_plateau_branch():
    delta = default_delta(4.0)
    assert time_scale_of_x0(2.0 * delta, 4.0, 1.0) == time_scale_of_x0(delta, 4.0, 1.0)
    assert time_scale_of_x0(2.0 * delta, 4.0, 1.0) == pytest.approx(np.exp(-2.0), rel=1e-12)


def test_t0_error_cases():
    with pytest.raises(ValueError, match="nonzero"):
        time_scale_of_x0(0.0, 4.0, 1.0)
    with pytest.raises(ValueError, match="finite and nonzero .* got nan"):
        time_scale_of_x0(math.nan, 4.0, 1.0)
    # reachable scale but before t=0
    with pytest.raises(ValueError, match="unreachable"):
        time_scale_of_x0(0.3, 4.0, T=1e-4)


def test_t0_round_trip_sample():
    rng = np.random.default_rng(11)
    for _ in range(200):
        K0 = float(rng.uniform(1.0, 10.0))
        T = float(rng.uniform(0.2, 2.0))
        s = float(10.0 ** rng.uniform(-9.0, np.log10(0.13)))
        x0 = scale_radius(s, K0)
        x_back = scale_radius(time_scale_of_x0(x0, K0, T), K0)
        assert abs(x_back / x0 - 1.0) < 1e-10
        assert scale_radius_inverse(x0, K0) == pytest.approx(s, rel=1e-13)


# ---------------------------------------------------------------- frames

def test_frame_of_space_constant_field(default_params):
    """u = kappa (T-t)^{-1/3}: v is the flat law, w vanishes identically."""
    kappa = default_params.kappa
    traj = synthetic_trajectory(
        default_params, lambda r, s: np.full(len(r), kappa * s ** (-1.0 / 3.0)))
    frame = extract_frame(traj, x0=0.3, K0=4.0, T=T_REF)
    expect = kappa * (1.0 - frame.tau_grid[:, None]) ** (-1.0 / 3.0)
    assert np.max(np.abs(frame.v - expect) / expect) < 1e-3  # measured 6e-5
    assert np.all(frame.w == 0.0)
    assert threshold_check(frame) == pytest.approx(kappa, rel=1e-3)


def test_frame_identity_for_closed_form_field(default_params):
    """Space-varying closed form is reproduced to interpolation order."""
    def u(r, s):
        return s ** (-1.0 / 3.0) * (1.0 + 0.3 * np.cos(3.0 * r))

    traj = synthetic_trajectory(default_params, u, M=512)
    frame = extract_frame(traj, x0=0.3, K0=4.0, T=T_REF)
    tau = frame.tau_grid[:, None]
    x = frame.x0 + frame.xi_grid[None, :] * np.sqrt(frame.s0)
    s_t = frame.s0 * (1.0 - tau)
    v_exact = frame.s0 ** (1.0 / 3.0) * s_t ** (-1.0 / 3.0) * (1.0 + 0.3 * np.cos(3.0 * x))
    w_exact = frame.s0 ** (5.0 / 6.0) * s_t ** (-1.0 / 3.0) * (-0.9 * np.sin(3.0 * x))
    assert np.max(np.abs(frame.v - v_exact) / np.abs(v_exact)) < 1e-3  # 5.6e-5
    assert np.max(np.abs(frame.w - w_exact)) / np.max(np.abs(w_exact)) < 1e-3


def test_frame_reflection_symmetry(default_params):
    def u(r, s):
        return s ** (-1.0 / 3.0) * (1.0 + 0.3 * np.cos(3.0 * r))

    traj = synthetic_trajectory(default_params, u, M=256)
    plus = extract_frame(traj, x0=0.3, K0=4.0, T=T_REF)
    minus = extract_frame(traj, x0=-0.3, K0=4.0, T=T_REF)
    assert np.allclose(plus.v, minus.v[:, ::-1])
    assert np.allclose(plus.w, -minus.w[:, ::-1])


def test_w_is_discrete_xi_derivative_of_v(default_params):
    def u(r, s):
        return s ** (-1.0 / 3.0) * (1.0 + 0.3 * np.cos(3.0 * r))

    traj = synthetic_trajectory(default_params, u, M=512)
    frame = extract_frame(traj, x0=0.3, K0=4.0, T=T_REF)
    dxi = frame.xi_grid[1] - frame.xi_grid[0]
    dv = np.gradient(frame.v, dxi, axis=1)
    assert np.max(np.abs(dv - frame.w)) / np.max(np.abs(frame.w)) < 2e-2


def test_threshold_resolution_invariance(default_params):
    """eps0 depends on the underlying solution, not on how the frame was
    sampled: doubling grid and snapshot resolution moves it only by
    interpolation error."""
    def u(r, s):
        return s ** (-1.0 / 3.0) * (1.0 + 0.3 * np.cos(3.0 * r))

    eps_coarse = threshold_check(extract_frame(
        synthetic_trajectory(default_params, u, M=256, n_snap=300), 0.3, 4.0, T_REF))
    eps_fine = threshold_check(extract_frame(
        synthetic_trajectory(default_params, u, M=512, n_snap=600), 0.3, 4.0, T_REF))
    assert abs(eps_coarse / eps_fine - 1.0) < 5e-3  # measured 6.4e-4


def _manual_frame(default_params, v, w, tau, xi, s0=1e-3):
    return SimilarityFrame(
        x0=0.3, K0=4.0, t0=T_REF - s0, s0=s0,
        tau_grid=np.asarray(tau), xi_grid=np.asarray(xi),
        v=np.asarray(v, dtype=float), w=np.asarray(w, dtype=float),
        params=default_params, window=float(np.max(np.abs(xi))),
        window_eff=float(np.max(np.abs(xi))), clipped=False)


def test_threshold_check_trivial_cases(default_params):
    tau = np.linspace(0.0, 0.99, 50)
    xi = np.linspace(-2.0, 2.0, 41)
    zero = _manual_frame(default_params, np.zeros((50, 41)), np.zeros((50, 41)), tau, xi)
    assert threshold_check(zero) == 0.0
    kappa = default_params.kappa
    v = kappa * (1.0 - tau)[:, None] ** (-1.0 / 3.0) * np.ones((50, 41))
    flat = _manual_frame(default_params, v, np.zeros((50, 41)), tau, xi)
    assert threshold_check(flat) == pytest.approx(kappa, rel=1e-14)


def test_w_smallness_normalization(default_params):
    tau = np.linspace(0.0, 0.99, 20)
    xi = np.linspace(-3.0, 3.0, 31)
    s0 = 1e-3
    L0 = abs(np.log(s0))
    w = np.full((20, 31), L0 ** (-0.25))
    frame = _manual_frame(default_params, np.zeros((20, 31)), w, tau, xi, s0=s0)
    assert w_smallness(frame) == pytest.approx(1.0, rel=1e-14)
    frame.w[:] = 0.0
    assert w_smallness(frame) == 0.0


def test_v_sharp_zero_for_exact_flat_solution(default_params):
    tau = np.linspace(0.0, 0.99, 40)
    xi = np.linspace(-2.0, 2.0, 21)
    v = np.tile(v_K0(tau, 4.0, default_params)[:, None], (1, 21))
    frame = _manual_frame(default_params, v, np.zeros_like(v), tau, xi)
    assert v_sharp_behavior(frame) == 0.0


def test_boundedness_report(default_params):
    tau = np.linspace(0.0, 0.9, 10)
    xi = np.linspace(-2.0, 2.0, 21)
    v = np.ones((10, 21))
    v[:, 0] = 7.0   # outside |xi| <= 1
    w = 0.5 * np.ones((10, 21))
    frame = _manual_frame(default_params, v, w, tau, xi)
    assert boundedness_report(frame) == pytest.approx(1.5)


def test_coverage_gap_errors(default_params):
    kappa = default_params.kappa
    traj = synthetic_trajectory(
        default_params, lambda r, s: np.full(len(r), kappa * s ** (-1.0 / 3.0)),
        s_hi=0.9, s_lo=1e-2, n_snap=60)
    # anchor with T-t0 ~ 7.9e-4 lies past the last snapshot (T-t = 1e-2)
    with pytest.raises(CoverageGapError):
        extract_frame(traj, x0=0.3, K0=4.0, T=T_REF)


def test_frame_rejects_origin(default_params):
    traj = synthetic_trajectory(
        default_params, lambda r, s: np.full(len(r), s ** (-1.0 / 3.0)))
    with pytest.raises(ValueError, match="nonzero"):
        extract_frame(traj, x0=0.0, K0=4.0, T=T_REF)


def test_frame_window_clipping_is_reported(default_params):
    def u(r, s):
        return s ** (-1.0 / 3.0) * np.ones(len(r))

    traj = synthetic_trajectory(default_params, u, M=128, R=0.5)
    frame = extract_frame(traj, x0=0.45, K0=2.0, T=T_REF)  # little room to the right
    assert frame.clipped
    assert frame.window_eff < frame.window
    assert abs(frame.x0) + frame.window_eff * np.sqrt(frame.s0) <= 0.5 + 1e-12


# -------------------------------------------------- final profile table

def test_final_profile_extract_frozen_field(default_params):
    grid = RadialGrid(R=0.9, M=512, dim=1)
    r = np.clip(grid.r, grid.h, None)  # keep the synthetic field finite at 0
    vals = final_profile(r, default_params)
    snaps = [RadialField(grid, vals, time=0.5), RadialField(grid, vals, time=0.6)]
    traj = Trajectory(config=SolverConfig(grid=grid, params=default_params),
                      snapshots=snaps, status=STATUS_BLOWN_UP)
    table = final_profile_extract(traj, [0.1, 0.2, 0.4])
    for point in table.points:
        assert point.converged
        assert point.ratio == pytest.approx(1.0, abs=1e-4)  # node interpolation only
    assert table.grad_C >= 0.0


def test_final_profile_extract_flags_moving_radius(default_params):
    grid = RadialGrid(R=0.9, M=128, dim=1)
    r = np.clip(grid.r, grid.h, None)
    vals = final_profile(r, default_params)
    snaps = [RadialField(grid, 0.9 * vals, time=0.5), RadialField(grid, vals, time=0.6)]
    traj = Trajectory(config=SolverConfig(grid=grid, params=default_params),
                      snapshots=snaps, status=STATUS_BLOWN_UP)
    table = final_profile_extract(traj, [0.2])
    assert not table.points[0].converged
    with pytest.raises(ValueError, match="blown-up"):
        final_profile_extract(
            Trajectory(config=traj.config, snapshots=snaps, status="completed"), [0.2])
    with pytest.raises(ValueError, match="outside"):
        final_profile_extract(traj, [1.5])


# -------------------------------------------------- on a real (small) run

def test_small_run_frame_initialization(small_run, default_params):
    """v(xi=0, tau=0) sits near f(K0), within the log-scaled envelope."""
    T = estimate_T(small_run).T_est
    frame = extract_frame(small_run, 0.2, 4.0, T)
    center = len(frame.xi_grid) // 2
    v00 = frame.v[0, center]
    fK0 = f_profile(4.0, default_params)
    # measured |v00 - f(K0)| ~ 0.015; envelope allows 0.5/sqrt(L0) ~ 0.18
    assert abs(v00 - fK0) <= 0.5 / np.sqrt(frame.log_scale)


def test_small_run_frame_report_finite(small_run, default_params):
    T = estimate_T(small_run).T_est
    report = frame_report(extract_frame(small_run, 0.2, 4.0, T))
    for value in (report.eps0_measured, report.M_measured,
                  report.w_sup_decay, report.v_minus_vK0_sup):
        assert np.isfinite(value) and value >= 0.0
    assert report.M_measured < 5.0  # bounded frame far from the blow-up point


# ------------------------------------- the frame against a per-tau loop

def loop_frame(trajectory, frame):
    """v and w on ``frame``'s grids as a loop over tau computes them: the
    time bracket of each tau, its two snapshots and their gradients mixed
    by the weight, and one np.interp call per tau for each of v and w."""
    grid, times = trajectory.config.grid, trajectory.times
    t0, s0 = frame.t0, frame.s0
    x_phys = frame.x0 + frame.xi_grid * math.sqrt(s0)
    r_phys, sign = np.abs(x_phys), np.sign(x_phys)
    amp_v = s0 ** (1.0 / (frame.params.p - 1.0))
    amp_w = amp_v * math.sqrt(s0)
    v = np.empty((len(frame.tau_grid), len(frame.xi_grid)))
    w = np.empty_like(v)
    for i, tau in enumerate(frame.tau_grid):
        t_target = t0 + tau * s0
        k = int(np.searchsorted(times, t_target, side="right"))
        k = min(max(k, 1), len(times) - 1)
        tk0, tk1 = times[k - 1], times[k]
        theta = 0.0 if tk1 == tk0 else (t_target - tk0) / (tk1 - tk0)
        theta = min(max(theta, 0.0), 1.0)
        a, b = trajectory.snapshots[k - 1].values, trajectory.snapshots[k].values
        ga, gb = (_gradient_values(u, grid.h, trajectory.config.boundary) for u in (a, b))
        v[i] = amp_v * np.interp(r_phys, grid.r, (1.0 - theta) * a + theta * b)
        w[i] = amp_w * sign * np.interp(r_phys, grid.r, (1.0 - theta) * ga + theta * gb)
    return v, w


@pytest.fixture(scope="module")
def neumann_run():
    """A dim=2 run under the neumann closure (q=4.3, M=128, cap 1e4)."""
    params = validate(p=4.0, q=4.3, mu=0.1, dim=2)
    grid = RadialGrid(R=1.0, M=128, dim=2)
    config = SolverConfig(grid=grid, params=params, boundary="neumann-zero", blowup_cap=1e4)
    return run_until_blowup(profile_seeded_field(grid, params), config)


# (x0, K0, window): both signs of x0; the default window, a narrow one and
# one clipped to span r = 0 to R; x0 on a node (5/128); and x0 within one
# cell of R, where the window is clipped to less than a cell
FRAME_CASES = [(0.2, 4.0, None), (-0.15, 2.0, None), (0.1, 8.0, 0.5), (-0.05, 4.0, 1000.0),
               (0.0390625, 4.0, None), (0.999, 8.0, 1.0), (-0.997, 8.0, None)]


@pytest.mark.parametrize("run", ["small_run", "neumann_run"])
@pytest.mark.parametrize("x0, K0, window", FRAME_CASES)
def test_frame_equals_the_per_tau_interp_loop(run, x0, K0, window, request):
    trajectory = request.getfixturevalue(run)
    T = estimate_T(trajectory).T_est
    frame = extract_frame(trajectory, x0, K0, T, window=window)
    assert frame.clipped == (window == 1000.0 or abs(x0) > 0.99)
    v, w = loop_frame(trajectory, frame)
    assert frame.v.tobytes() == v.tobytes()
    assert frame.w.tobytes() == w.tobytes()


def test_frame_refuses_a_non_finite_slope(default_params):
    """Next to a value near the float limit np.interp meets an infinite
    slope; the frame is refused with a message, not filled with inf."""
    def u(r, s):
        return np.where(r < 0.3, 1e308, -1e308) * (1.0 + 0.0 * s)

    traj = synthetic_trajectory(default_params, u, M=64, n_snap=50)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="field near x0=0.3 .* non-finite slope"):
        extract_frame(traj, x0=0.3, K0=4.0, T=T_REF)


def test_frame_tracemalloc_peak_under_1_mb(default_params):
    """One frame of a M=512 run, the widest of perfbench `analyse`'s
    (K0=2, x0=0.2: 60 taus by 131 xi, 0.46 MB), holds less than 1 MB at
    its peak."""
    grid = RadialGrid(R=1.0, M=512, dim=1)
    run = run_until_blowup(profile_seeded_field(grid, default_params),
                           SolverConfig(grid=grid, params=default_params))
    T = estimate_T(run).T_est
    tracemalloc.start()
    try:
        frame = extract_frame(run, 0.2, 2.0, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frame.v.size > 5000
    assert peak < 1_000_000, peak
