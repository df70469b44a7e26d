"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the reference run (M=4096, about a second) is computed once per session
and shared by criteria 5, 6, 8 and 10.
"""
import time

import numpy as np

from blowlab.fields import RadialField, RadialGrid
from blowlab.lemmas import (
    IntegralCase,
    gamma_exponent_identity_check,
    gronwall_suite,
    integral_I_bound,
    integral_I_numeric,
    integral_sweep,
    nonlocal_decay_fit,
)
from blowlab.profiles import f_profile
from blowlab.similarity import (
    extract_frame,
    final_profile_extract,
    scale_radius,
    time_scale_of_x0,
    threshold_check,
    v_sharp_behavior,
    w_smallness,
)
from blowlab.solver import (
    STATUS_BLOWN_UP,
    SolverConfig,
    Trajectory,
    estimate_T,
    far_field_report,
    profile_seeded_field,
    run_until_blowup,
)

KAPPA = 3.0 ** (-1.0 / 3.0)


def report(number, ok, detail):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_integral_lemma_suite():
    start = time.perf_counter()
    sweep = integral_sweep()
    elapsed = time.perf_counter() - start
    spot = IntegralCase(0.5, 0.5, 0.5)
    numeric = integral_I_numeric(spot)
    bound = integral_I_bound(spot)
    ok = (sweep.n_total == 500 and sweep.passed
          and abs(numeric - 1.762747174039086) < 1e-6
          and abs(bound - 2.6931471805599454) < 1e-12
          and elapsed < 5.0)
    report(1, ok, f"500-case sweep, worst margin {sweep.worst_margin:.2e}, "
                  f"spot numeric {numeric:.5f} vs bound {bound:.5f}, {elapsed:.2f}s")


def test_criterion_2_gronwall_suite():
    start = time.perf_counter()
    result = gronwall_suite()
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 2.0
    report(2, ok, f"{result.n_points} points over 1000 instances, "
                  f"worst margin {result.worst_margin:.2e}, {elapsed:.2f}s")


def test_criterion_3_exponent_identity():
    worst = gamma_exponent_identity_check()
    report(3, worst <= 1e-14, f"max |gamma-1/2 - (N/2-(q-1)/(p-1))| = {worst:.2e}")


def test_criterion_4_nonlocal_decay_fit(default_params):
    start = time.perf_counter()
    grid = RadialGrid(R=50.0, M=262144, dim=1)
    T = 1.0
    snaps = []
    for s in np.logspace(-6, -2, 49)[::-1]:
        ell = np.sqrt(s * abs(np.log(s)))
        u = s ** (-1.0 / 3.0) * f_profile(grid.r / ell, default_params)
        snaps.append(RadialField(grid, u, time=T - s))
    traj = Trajectory(config=SolverConfig(grid=grid, params=default_params),
                      snapshots=snaps, status=STATUS_BLOWN_UP)
    eta = default_params.gamma / 4.0
    fit = nonlocal_decay_fit(traj, default_params, eta, T=T, s_window=(1e-6, 1e-2))
    elapsed = time.perf_counter() - start
    ok = (abs(fit.slope - (-1.0 / 6.0)) <= 0.05
          and np.isfinite(fit.C_eta) and fit.C_eta > 0.0
          and elapsed < 30.0)
    report(4, ok, f"slope {fit.slope:.4f} (target -1/6 within 0.05), "
                  f"C_eta {fit.C_eta:.3f} at eta=gamma/4, {elapsed:.1f}s")


def _fit_window_scaled_amplitude(trajectory, params):
    """(T-t)^{1/(p-1)} * supnorm over the fitted last decade, with the time
    to blow-up reconstructed from backward dt sums."""
    est = estimate_T(trajectory)
    hist = trajectory.maxnorm_history
    m, dt = hist[:, 1], hist[:, 3]
    i0 = int(np.argmax(m >= 0.1 * float(np.max(m))))
    s_rel = np.concatenate([np.cumsum(dt[i0 + 1:][::-1])[::-1], [0.0]])
    s = est.fit_window_to_T[1] + s_rel
    return est, s ** (1.0 / (params.p - 1.0)) * m[i0:]


def test_criterion_5_blowup_run(acceptance_run, default_params):
    traj = acceptance_run
    h = traj.config.grid.h
    est, scaled = _fit_window_scaled_amplitude(traj, default_params)
    dev = float(np.max(np.abs(scaled / KAPPA - 1.0)))
    argmax_r = float(traj.maxnorm_history[-1, 2])
    # the window's distances to T outlive the resolution of absolute time
    first, last = est.fit_window_to_T
    ok = (traj.status == STATUS_BLOWN_UP and dev <= 0.15 and argmax_r <= 2.0 * h
          and first > last > 0.0)
    report(5, ok, f"status {traj.status}, (T-t)^(1/3)*supnorm within "
                  f"{100 * dev:.2f}% of kappa over the fitted decade "
                  f"(kappa_est {est.kappa_est:.4f}, T-t from {first:.3g} to {last:.3g}), "
                  f"argmax r = {argmax_r:g} <= 2h")


def test_criterion_6_single_point_blowup(acceptance_run):
    far = far_field_report(acceptance_run)
    assert far is not None, "no snapshot passed sup-norm 1e6"
    u_ratio, g_ratio = far["u_ratio_vs_initial"], far["grad_ratio_vs_initial"]
    ok = far["r_min"] == 0.1 and u_ratio < 10.0 and g_ratio < 10.0
    report(6, ok, f"while supnorm > 1e6 (snapshots: {far['window_snapshots']}): "
                  f"sup_{{r>=0.1}}|u| at {u_ratio:.2f}x initial, "
                  f"|du/dr| at {g_ratio:.2f}x initial (both < 10x)")


def test_criterion_7_t0_round_trip():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        K0 = float(rng.uniform(1.0, 10.0))
        T = float(rng.uniform(0.2, 2.0))
        s = float(10.0 ** rng.uniform(-9.0, np.log10(0.13)))
        x0 = scale_radius(s, K0)
        x_back = scale_radius(time_scale_of_x0(x0, K0, T), K0)
        worst = max(worst, abs(x_back / x0 - 1.0))
    report(7, worst <= 1e-10, f"1000 random anchors, worst |x0| reconstruction "
                              f"error {worst:.2e} (<= 1e-10)")


def test_criterion_8_final_profile(acceptance_run):
    radii = [0.05, 0.08, 0.1, 0.15, 0.2]
    table = final_profile_extract(acceptance_run, radii)
    ratios = [point.ratio for point in table.points]
    converged = all(point.converged for point in table.points)
    in_band = all(0.5 <= ratio <= 2.0 for ratio in ratios)
    # asymptotic prediction: |ratio - 1| shrinks as r decreases
    gaps = [abs(ratio - 1.0) for ratio in ratios]
    trend = all(a <= b + 1e-9 for a, b in zip(gaps, gaps[1:]))
    ok = converged and in_band and trend
    report(8, ok, "ratios " + ", ".join(f"{r:g}:{q:.3f}" for r, q in zip(radii, ratios))
                  + " all in [0.5, 2], trend toward 1 as r decreases")


def test_criterion_9_grid_convergence_and_determinism(default_params):
    def run(M):
        grid = RadialGrid(R=1.0, M=M, dim=1)
        u0 = profile_seeded_field(grid, default_params, t_star=0.01)
        config = SolverConfig(grid=grid, params=default_params,
                              t_max=0.009, max_steps=10 ** 7)
        return run_until_blowup(u0, config)

    coarse, fine = run(512), run(1024)
    m_c = float(coarse.maxnorm_history[-1, 1])
    m_f = float(fine.maxnorm_history[-1, 1])
    change = abs(m_c - m_f) / m_f
    again = run(512)
    identical = (np.array_equal(coarse.maxnorm_history, again.maxnorm_history)
                 and np.array_equal(coarse.last_field.values, again.last_field.values))
    ok = change < 0.01 and identical
    report(9, ok, f"halving h changes supnorm(t=0.009) by {100 * change:.4f}% "
                  f"(< 1%); repeated run bit-identical: {identical}")


def test_criterion_10_frame_diagnostics(acceptance_run, default_params):
    T = estimate_T(acceptance_run).T_est
    x0_list = [0.2, 0.1, 0.05]   # dyadic toward the origin
    K0_list = [2.0, 4.0, 8.0]
    eps0 = {}
    w_small = {}
    v_sharp = {}
    for x0 in x0_list:
        for K0 in K0_list:
            frame = extract_frame(acceptance_run, x0, K0, T)
            eps0[x0, K0] = threshold_check(frame)
            w_small[x0, K0] = w_smallness(frame)
            v_sharp[x0, K0] = v_sharp_behavior(frame)

    finite = all(np.isfinite(v) for v in
                 list(eps0.values()) + list(w_small.values()) + list(v_sharp.values()))
    eps_monotone = all(
        eps0[x0, 2.0] >= eps0[x0, 4.0] - 1e-12 and eps0[x0, 4.0] >= eps0[x0, 8.0] - 1e-12
        for x0 in x0_list)
    # along x0 -> 0 the measured constants must not grow (5% sampling slack)
    no_growth = all(
        w_small[0.05, K0] <= 1.05 * w_small[0.2, K0]
        and v_sharp[0.05, K0] <= 1.05 * v_sharp[0.2, K0]
        for K0 in K0_list)
    ok = finite and eps_monotone and no_growth
    eps_line = ", ".join(f"K0={K0:g}: " + "/".join(f"{eps0[x0, K0]:.3f}" for x0 in x0_list)
                         for K0 in K0_list)
    report(10, ok, f"eps0 non-increasing in K0 ({eps_line}); w-smallness and "
                   f"v-sharpness stay bounded as x0 -> 0")
