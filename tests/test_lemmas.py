import time

import numpy as np
import pytest

from blowlab import lemmas
from blowlab.fields import RadialField, RadialGrid
from blowlab.lemmas import (
    IntegralCase,
    StepFunction,
    gamma_exponent_identity_check,
    gronwall_bound,
    gronwall_equality_solution,
    gronwall_suite,
    integral_I_bound,
    integral_I_numeric,
    integral_sweep,
    nonlocal_decay_fit,
    semigroup_smoothing_check,
)
from blowlab.profiles import f_profile
from blowlab.similarity import S_TURN, scale_radius
from blowlab.solver import STATUS_BLOWN_UP, SolverConfig, Trajectory

CLOSED_FORM_HALF = 1.762747174039086  # 2 asinh(1), alpha=theta=tau=1/2


def test_integral_case_classification():
    assert IntegralCase(0.5, 0.75, 0.2).case == "gt1"
    assert IntegralCase(0.5, 0.5, 0.2).case == "eq1"
    assert IntegralCase(0.5, 0.25, 0.2).case == "lt1"
    with pytest.raises(ValueError):
        IntegralCase(1.0, 0.5, 0.2)
    with pytest.raises(ValueError):
        IntegralCase(0.5, 0.0, 0.2)
    with pytest.raises(ValueError):
        IntegralCase(0.5, 0.5, 1.0)


def test_integral_numeric_empty_interval():
    assert integral_I_numeric(IntegralCase(0.3, 0.7, 0.0)) == 0.0


def test_integral_numeric_closed_form_spot():
    # int_0^0.5 ((0.5-s)(1-s))^{-1/2} ds = 2 log((1+sqrt(.5))/sqrt(.5)) = 2 asinh 1
    got = integral_I_numeric(IntegralCase(0.5, 0.5, 0.5))
    assert got == pytest.approx(CLOSED_FORM_HALF, abs=1e-9)


def test_integral_numeric_tau_to_one_limit():
    # alpha=1/2, theta=1/4: I -> int_0^1 (1-s)^{-3/4} = 4
    vals = [integral_I_numeric(IntegralCase(0.5, 0.25, tau))
            for tau in (0.9, 0.999, 1.0 - 1e-9, 1.0 - 1e-12)]
    assert np.all(np.diff(vals) > 0.0)
    assert vals[-1] == pytest.approx(4.0, abs=1e-6)
    assert max(vals) <= 4.0 + 1e-9


def test_integral_bound_values():
    assert integral_I_bound(IntegralCase(0.5, 0.5, 0.5)) == pytest.approx(
        2.0 + abs(np.log(0.5)), rel=1e-15)           # 2.69314718...
    for tau in (0.0, 0.3, 0.99):
        assert integral_I_bound(IntegralCase(0.5, 0.25, tau)) == 4.0
    assert integral_I_bound(IntegralCase(0.5, 0.75, 0.9)) == pytest.approx(
        6.0 * 0.1 ** (-0.25), rel=1e-13)             # 10.6696764...


def test_integral_sweep_full_grid():
    start = time.perf_counter()
    sweep = integral_sweep()
    elapsed = time.perf_counter() - start
    assert sweep.n_total == 500
    assert sweep.passed
    assert sweep.worst_margin <= 1e-6
    assert elapsed < 5.0


def test_integral_sweep_fault_injection(monkeypatch):
    monkeypatch.setattr(lemmas, "integral_I_bound", lambda c: 0.5 * integral_I_bound(c))
    bad = integral_sweep()
    assert not bad.passed
    assert bad.worst_case is not None


def test_gronwall_trivial_cases():
    r0 = StepFunction.constant(0.0, 0.0, 2.0)
    q0 = StepFunction.constant(0.0, 0.0, 2.0)
    bound = gronwall_bound(1.5, r0, q0)
    for t in (0.0, 0.7, 2.0):
        assert bound(t) == pytest.approx(1.5, rel=1e-15)

    rc = StepFunction.constant(0.8, 0.0, 2.0)
    bound = gronwall_bound(1.5, rc, q0)
    assert bound(2.0) == pytest.approx(1.5 * np.exp(1.6), rel=1e-14)

    q1 = StepFunction.constant(1.0, 0.0, 2.0)
    bound = gronwall_bound(1.5, r0, q1)
    assert bound(1.3) == pytest.approx(1.5 + 1.3, rel=1e-14)


def test_gronwall_equality_solution_matches_bound():
    # the equality case saturates the bound: both closed forms agree
    r = StepFunction(np.array([0.0, 0.4, 1.0]), np.array([1.2, 0.0]))
    q = StepFunction(np.array([0.0, 0.7, 1.0]), np.array([0.3, 2.0]))
    y = gronwall_equality_solution(0.5, r, q)
    bound = gronwall_bound(0.5, r, q)
    for t in np.linspace(0.0, 1.0, 23):
        assert y(t) == pytest.approx(bound(t), rel=1e-13)
        assert y(t) <= bound(t) + 1e-10


def test_gronwall_suite_1000_instances():
    start = time.perf_counter()
    result = gronwall_suite()
    elapsed = time.perf_counter() - start
    assert result.passed
    assert result.worst_margin <= 1e-10
    assert elapsed < 2.0


def test_gamma_exponent_identity():
    assert gamma_exponent_identity_check() <= 1e-14


def profile_trajectory(params, R=20.0, M=32768, s_lo=1e-4, s_hi=1e-2, n=25, T=1.0):
    grid = RadialGrid(R=R, M=M, dim=1)
    snaps = []
    for s in np.logspace(np.log10(s_lo), np.log10(s_hi), n)[::-1]:
        ell = np.sqrt(s * abs(np.log(s)))
        u = s ** (-1.0 / 3.0) * f_profile(grid.r / ell, params)
        snaps.append(RadialField(grid, u, time=T - s))
    return Trajectory(config=SolverConfig(grid=grid, params=params),
                      snapshots=snaps, status=STATUS_BLOWN_UP)


def test_decay_fit_on_profile_field(default_params):
    traj = profile_trajectory(default_params)
    eta = default_params.gamma / 4.0
    fit = nonlocal_decay_fit(traj, default_params, eta, T=1.0, s_window=(1e-4, 1e-2))
    # pure exponent is gamma - 1/2 = -1/6; finite-domain truncation drags the
    # short-window fit a little below it (measured -0.197)
    assert fit.slope == pytest.approx(default_params.gamma - 0.5, abs=0.05)
    assert np.isfinite(fit.C_eta) and fit.C_eta > 0.0
    again = nonlocal_decay_fit(traj, default_params, eta, T=1.0, s_window=(1e-4, 1e-2))
    assert (again.slope, again.C_eta) == (fit.slope, fit.C_eta)  # deterministic


def test_resolution_floor_inverts_the_scale_map():
    for M in (8, 64, 256, 1024, 4096, 100_000):
        h = 1.0 / M
        assert scale_radius(lemmas._resolution_floor(h), 1.0) == pytest.approx(4.0 * h,
                                                                                rel=1e-13)
    # 4h past the turn of s|log s| (h > 0.1516): the floor is the turn itself
    assert lemmas._resolution_floor(0.2) == S_TURN


def test_decay_fit_rejects_zero_field(default_params):
    grid = RadialGrid(R=1.0, M=64, dim=1)
    snaps = [RadialField(grid, np.zeros(65), time=t) for t in (0.1, 0.2, 0.5)]
    traj = Trajectory(config=SolverConfig(grid=grid, params=default_params),
                      snapshots=snaps, status=STATUS_BLOWN_UP)
    with pytest.raises(ValueError, match="insufficient window"):
        nonlocal_decay_fit(traj, default_params, default_params.gamma / 4.0, T=1.0)


def test_decay_fit_eta_validation(default_params):
    traj = profile_trajectory(default_params, M=1024, n=6)
    with pytest.raises(ValueError, match="eta"):
        nonlocal_decay_fit(traj, default_params, default_params.gamma, T=1.0)


def _smoothing_fields():
    grid = RadialGrid(R=4.0, M=256, dim=1)
    r = grid.r
    constant = RadialField(grid, np.ones(grid.M + 1))
    spike = RadialField(grid, np.where(np.arange(grid.M + 1) % 2 == 0, 1.0, -1.0))
    gaussian = RadialField(grid, np.exp(-r * r / (4.0 * 0.005)))
    return constant, spike, gaussian


def test_semigroup_constant_is_invariant():
    constant, _, _ = _smoothing_fields()
    report = semigroup_smoothing_check([0.01, 0.5], [constant])
    assert report.max_sup_ratio == pytest.approx(1.0, abs=1e-12)


def test_semigroup_max_principle_on_spike():
    _, spike, _ = _smoothing_fields()
    report = semigroup_smoothing_check([1e-4, 1e-2, 0.1], [spike])
    assert report.max_sup_ratio <= 1.0 + 1e-6


def test_semigroup_gradient_smoothing_constant():
    _, _, gaussian = _smoothing_fields()
    report = semigroup_smoothing_check([1e-4, 1e-2, 0.1, 1.0], [gaussian])
    # sqrt(t) ||d/dr S(t)f|| / ||f|| stays below ~(2e)^{-1/2} * 2
    assert report.max_grad_ratio <= 2.0 / np.sqrt(2.0 * np.e)
    assert report.max_grad_ratio > 0.0


def test_semigroup_input_validation():
    constant, _, _ = _smoothing_fields()
    with pytest.raises(ValueError, match="positive"):
        semigroup_smoothing_check([0.0], [constant])
    grid = constant.grid
    with pytest.raises(ValueError, match="zero"):
        semigroup_smoothing_check([0.1], [RadialField(grid, np.zeros(grid.M + 1))])
