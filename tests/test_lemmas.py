import math
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal, expm

from blowlab import lemmas
from blowlab.cli import _semigroup_cases
from blowlab.fields import (BOUNDARY_NEUMANN, GridGeometry, RadialField, RadialGrid,
                            _gradient_values, _laplacian_bands)
from blowlab.lemmas import (
    IntegralCase,
    StepFunction,
    gamma_exponent_identity_check,
    gronwall_bound,
    gronwall_equality_solution,
    gronwall_suite,
    integral_I_bound,
    SmoothingReport,
    integral_I_numeric,
    integral_sweep,
    nonlocal_decay_fit,
    semigroup_smoothing_check,
)
from blowlab.params import gamma_of, validate
from blowlab.profiles import f_profile
from blowlab.similarity import S_TURN, scale_radius
from blowlab.solver import STATUS_BLOWN_UP, SolverConfig, Trajectory
from conftest import ref_laplacian_matrix

CLOSED_FORM_HALF = 1.762747174039086  # 2 asinh(1), alpha=theta=tau=1/2
# alpha=1/2, theta=1/4, tau = 1 - 1e-12: tau^(1/2)/(1/2) 2F1(1/4, 1; 3/2; tau) by
# mpmath at 50 digits; an mpmath quad with breakpoints agrees to all 50
CORNER_TAU_TO_ONE = 3.9976037327824336


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
    # alpha=1/2, theta=1/4: I -> int_0^1 (1-s)^{-3/4} = 4, approached like
    # (1-tau)^(1/4), so at tau = 1 - 1e-12 the integral is still 2.4e-3 short
    vals = [integral_I_numeric(IntegralCase(0.5, 0.25, tau))
            for tau in (0.9, 0.999, 1.0 - 1e-9, 1.0 - 1e-12)]
    assert np.all(np.diff(vals) > 0.0)
    assert vals[-1] == pytest.approx(CORNER_TAU_TO_ONE, rel=1e-12)
    assert max(vals) <= 4.0 + 1e-9


def test_integral_numeric_matches_adaptive_quadrature_on_the_sweep():
    """On the sweep's 400 cases with tau > 0, where QUADPACK is accurate,
    the fixed rule agrees with it on the same integrand."""
    for alpha, theta, tau, numeric, _bound, _ok in integral_sweep().rows:
        if tau == 0.0:
            assert numeric == 0.0
            continue
        m = 1.0 / (1.0 - alpha)
        reference, _err = quad(lambda sigma: m * (1.0 - tau + sigma ** m) ** -theta, 0.0,
                               tau ** (1.0 - alpha), epsabs=1e-10, epsrel=1e-12, limit=200)
        assert numeric == pytest.approx(reference, rel=1e-12)


# tau^(1-alpha)/(1-alpha) 2F1(theta, 1; 2-alpha; tau) evaluated by mpmath at 50
# digits on the float tau; an mpmath quad of the substituted integrand, with
# breakpoints at (1-tau)^(1-alpha) times 0.01, 0.1, 1 and 10, agrees to 1e-50.
@pytest.mark.parametrize("alpha, theta, tau, exact", [
    (0.989, 0.772, 1.0 - 2.6e-12, 59852826657.76851),
    (0.982, 1.807, 1.0 - 1.0e-11, 2.6128447899247367e21),
    (0.5, 0.25, 1.0 - 1e-12, CORNER_TAU_TO_ONE),
], ids=["alpha-0.989", "alpha-0.982", "tau-to-one"])
def test_integral_numeric_at_the_corners_near_tau_one(alpha, theta, tau, exact):
    """Where 1 - tau is small and m theta large, the integrand falls steeply
    out of its layer at sigma = 0: these corners set the rule's step."""
    assert integral_I_numeric(IntegralCase(alpha, theta, tau)) == pytest.approx(exact, rel=1e-8)


@settings(max_examples=200)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.floats(0.0, 3.0, exclude_min=True), st.floats(0.0, 1.0 - 1e-12))
def test_integral_numeric_is_finite_and_under_its_bound(alpha, theta, tau):
    case = IntegralCase(alpha, theta, tau)
    value = integral_I_numeric(case)
    assert math.isfinite(value) and value >= 0.0
    assert value <= integral_I_bound(case) * (1.0 + 1e-9)


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


def test_integral_sweep_names_a_nan_case(monkeypatch):
    """A NaN quadrature fails its case, and that case is the one reported."""
    numeric = lemmas.integral_I_numeric
    monkeypatch.setattr(lemmas, "integral_I_numeric",
                        lambda c: math.nan if c.tau == 0.5 and c.theta > 1.0 else numeric(c))
    bad = integral_sweep()
    assert bad.n_failed == 40  # 10 alphas x 4 thetas above 1
    assert math.isnan(bad.worst_margin)
    assert bad.worst_case.tau == 0.5 and bad.worst_case.theta > 1.0


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


def test_gronwall_suite_counts_nan_margins(monkeypatch):
    """A NaN margin is a violation and the worst margin, not a value the
    running maximum drops."""
    monkeypatch.setattr(lemmas, "_propagate", lambda *args: math.nan)
    result = gronwall_suite()
    assert not result.passed
    assert result.n_violations == result.n_points
    assert math.isnan(result.worst_margin)


def test_gronwall_suite_matches_scalar_closures():
    """The suite's array margins equal, on 50 of its own instances and at
    every checked point, exact - bound from the scalar closures on step
    functions built from the same rows."""
    inst = lemmas._gronwall_instances()
    for i in range(0, 1000, 20):
        steps = []
        for k in (0, 1):
            n_pieces = int(inst.pieces[k, i])
            breaks = [0.0, *sorted(inst.cuts[k, :n_pieces - 1, i].tolist()), float(inst.t1[i])]
            steps.append(StepFunction(breaks, inst.values[k, :n_pieces, i]))
        y0 = float(inst.y0[i])
        bound = gronwall_bound(y0, *steps)
        solution = gronwall_equality_solution(y0, *steps)
        merged = sorted(set(steps[0].breaks.tolist()) | set(steps[1].breaks.tolist()))
        points = [*merged, *inst.times[:, i].tolist()]
        scalar = [solution(t) - bound(t) for t in points]
        checked = inst.checked[:, i]
        assert checked.sum() == len(points)
        np.testing.assert_allclose(inst.margins[checked, i], scalar, rtol=1e-12, atol=0.0)


def test_gronwall_suite_tracemalloc_peak_under_1_mb():
    """Each of the suite's arrays holds at most 17 numbers per instance; one
    lookup cube of instances x points x segments, 1000 x 17 x 11 floats,
    would take 1.5 MB alone."""
    gronwall_suite()
    tracemalloc.start()
    try:
        gronwall_suite()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


def test_gronwall_suite_and_identity_are_deterministic():
    assert gronwall_suite() == gronwall_suite()
    assert gamma_exponent_identity_check() == gamma_exponent_identity_check()


def test_gamma_exponent_identity():
    assert gamma_exponent_identity_check() <= 1e-14


def test_identity_tuples_are_admissible_with_validates_gamma():
    """Every tuple the identity check draws passes ``validate``, and
    ``gamma_of`` on the arrays gives validate's gamma bit for bit."""
    p, q, mu, dim = lemmas._identity_tuples()
    gamma = gamma_of(p, q, dim)
    assert p.size == 1000
    for i in range(p.size):
        params = validate(p=float(p[i]), q=float(q[i]), mu=float(mu[i]), dim=int(dim[i]))
        assert params.gamma == gamma[i]


def test_gamma_exponent_identity_reports_nan(monkeypatch):
    """A NaN difference is not dropped by the maximum, so verify's <= gate fails it."""
    monkeypatch.setattr(lemmas, "gamma_of", lambda p, q, dim: np.where(
        np.arange(p.size) == 500, math.nan, gamma_of(p, q, dim)))
    assert math.isnan(gamma_exponent_identity_check())


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


@pytest.mark.parametrize("dim, q", [(1, 3.0), (2, 4.3)])
def test_decay_fit_takes_each_snapshots_own_J(dim, q, monkeypatch):
    """J(R) of the snapshots comes from the prefix kernel on padded blocks
    of them (two blocks of 40 snapshots at M=256), and equals, bit for
    bit, the prefix of each snapshot taken alone."""
    params = validate(p=4.0, q=q, mu=0.1, dim=dim)
    grid = RadialGrid(R=1.0, M=256, dim=dim)
    snaps = []
    for s in np.logspace(-2.0, -4.0, 40):
        ell = np.sqrt(s * abs(np.log(s)))
        snaps.append(RadialField(grid, s ** (-1.0 / 3.0) * f_profile(grid.r / ell, params),
                                 time=1.0 - s))
    traj = Trajectory(config=SolverConfig(grid=grid, params=params), snapshots=snaps,
                      status=STATUS_BLOWN_UP)
    kernel, blocks = lemmas._nonlocal_prefix_values, []

    def recorded(integrand, geom):
        blocks.append(kernel(integrand, geom))
        return blocks[-1]

    monkeypatch.setattr(lemmas, "_nonlocal_prefix_values", recorded)
    nonlocal_decay_fit(traj, params, params.gamma / 4.0, T=1.0, s_window=(1e-4, 1e-2))
    assert len(blocks) == 2
    geom = GridGeometry.of(grid)
    alone = [kernel(np.abs(snap.values) ** (q - 1.0), geom)[-1] for snap in snaps]
    assert np.concatenate([J[:, grid.M] for J in blocks]).tobytes() == \
        np.array(alone).tobytes()


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


@pytest.mark.parametrize("t", [0.01, 0.1, 0.5])
def test_semigroup_matches_2d_heat_kernel(t):
    """dim=2: a Gaussian stays a Gaussian, a0/(a0+t) exp(-r^2/(4(a0+t))),
    whose sup ratio is a0/(a0+t) and whose steepest slope sits at
    r = sqrt(2(a0+t))."""
    a0 = 0.04
    grid = RadialGrid(R=4.0, M=256, dim=2)
    gaussian = RadialField(grid, np.exp(-grid.r ** 2 / (4.0 * a0)))
    report = semigroup_smoothing_check([t], [gaussian])
    sup = a0 / (a0 + t)
    grad = np.sqrt(t) * a0 / (a0 + t) ** 1.5 / np.sqrt(2.0 * np.e)
    # O(h^2) off the closed form: measured <= 3.0e-4 (sup), 6.7e-4 (grad)
    assert report.max_sup_ratio == pytest.approx(sup, rel=2e-3)
    assert report.max_grad_ratio == pytest.approx(grad, rel=2e-3)


def test_semigroup_input_validation():
    constant, _, _ = _smoothing_fields()
    for t in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            semigroup_smoothing_check([0.1, t], [constant])
    grid = constant.grid
    with pytest.raises(ValueError, match="zero"):
        semigroup_smoothing_check([0.1], [RadialField(grid, np.zeros(grid.M + 1))])
    # a check of nothing would report -inf ratios, which pass verify's gates
    for t_values, fields in (([], [constant]), ([0.1], [])):
        with pytest.raises(ValueError, match="at least one"):
            semigroup_smoothing_check(t_values, fields)


@pytest.mark.parametrize("dim", [3, 4])
def test_semigroup_refuses_dim_3_and_up(dim):
    """From dim 3 the origin coupling lower_0 * upper_0 is zero (dim 3) or
    negative, so L has no symmetric form with real scaling."""
    grid = RadialGrid(R=1.0, M=16, dim=dim)
    with pytest.raises(ValueError, match=f"dim={dim}"):
        semigroup_smoothing_check([0.1], [RadialField(grid, np.ones(grid.M + 1))])


def test_semigroup_nan_ratio_reaches_the_report():
    """A NaN ratio is not dropped by the running maximum, so verify's <= gates fail it."""
    constant, _, gaussian = _smoothing_fields()
    poisoned = gaussian.copy()
    poisoned.values[5] = math.nan
    report = semigroup_smoothing_check([0.1], [constant, poisoned])
    assert math.isnan(report.max_sup_ratio) and math.isnan(report.max_grad_ratio)


def _semigroup_with_expm(t_values, test_fields):
    """Test oracle: L assembled from the tests' reference Laplacian applied
    to unit vectors and a dense scipy.linalg.expm(t L) taken anew for every
    field and time."""
    max_sup = max_grad = -math.inf
    for f0 in test_fields:
        norm0 = float(np.max(np.abs(f0.values)))
        L = ref_laplacian_matrix(f0.grid, BOUNDARY_NEUMANN)
        for t in t_values:
            u = expm(t * L) @ f0.values
            g = _gradient_values(u, f0.grid.h, BOUNDARY_NEUMANN)
            max_sup = max(max_sup, float(np.max(np.abs(u))) / norm0)
            max_grad = max(max_grad, math.sqrt(t) * float(np.max(np.abs(g))) / norm0)
    return SmoothingReport(max_sup_ratio=max_sup, max_grad_ratio=max_grad)


def _semigroup_test_fields():
    """verify's three fields plus a dim=2 Gaussian on a second grid, placed
    between them."""
    _, (constant, spike, gaussian) = _semigroup_cases()
    grid2 = RadialGrid(R=2.0, M=64, dim=2)
    return [constant, RadialField(grid2, np.exp(-grid2.r ** 2 / 0.2)), spike, gaussian]


def test_semigroup_fields_together_equal_each_alone():
    """Each field takes its own products, so a field's ratios do not depend
    on the fields that share its grid: the report on four fields over two
    grids is, to the bit, the maximum of their reports alone."""
    t_values, _ = _semigroup_cases()
    fields = _semigroup_test_fields()
    together = semigroup_smoothing_check(t_values, fields)
    alone = [semigroup_smoothing_check(t_values, [f]) for f in fields]
    assert together.max_sup_ratio == max(r.max_sup_ratio for r in alone)
    assert together.max_grad_ratio == max(r.max_grad_ratio for r in alone)


def test_semigroup_matches_dense_expm_oracle():
    """The eigendecomposition agrees with a dense expm(t L) within 1e-12 on
    both ratios (measured <= 3.3e-13), for each field alone and together."""
    t_values, _ = _semigroup_cases()
    fields = _semigroup_test_fields()
    for test_fields in [fields, *([f] for f in fields)]:
        report = semigroup_smoothing_check(t_values, test_fields)
        oracle = _semigroup_with_expm(t_values, test_fields)
        assert report.max_sup_ratio == pytest.approx(oracle.max_sup_ratio, rel=0.0, abs=1e-12)
        assert report.max_grad_ratio == pytest.approx(oracle.max_grad_ratio, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("grid", [_semigroup_cases()[1][0].grid,
                                  RadialGrid(R=2.0, M=64, dim=2)], ids=["verify", "dim2"])
def test_direct_dstemr_is_eigh_tridiagonal_bit_for_bit(grid):
    """The direct ``dstemr`` call returns scipy's ``eigh_tridiagonal(...,
    lapack_driver="stemr")`` pairs to the bit, on verify's grid and a dim=2 one."""
    lower, diagonal, upper = _laplacian_bands(grid, BOUNDARY_NEUMANN)
    off = np.sqrt(lower * upper)
    lam, Q = lemmas._tridiagonal_eigh(diagonal, off)
    ref_lam, ref_Q = eigh_tridiagonal(diagonal, off, lapack_driver="stemr")
    assert lam.shape == ref_lam.shape == (grid.M + 1,) and Q.shape == ref_Q.shape
    assert lam.tobytes() == ref_lam.tobytes() and Q.tobytes() == ref_Q.tobytes()


def test_tridiagonal_eigh_raises_on_lapack_failure(monkeypatch):
    """A nonzero ``info`` from ``dstemr`` raises LinAlgError, as scipy's
    check did.  A non-finite entry is refused before LAPACK sees it, where
    ``dstemr`` would not return: a grid with h = 1e-78 passes RadialGrid's
    check, but its couplings overflow to inf."""
    flapack = lemmas._flapack
    monkeypatch.setattr(lemmas, "_flapack", SimpleNamespace(
        dstemr_lwork=flapack.dstemr_lwork,
        dstemr=lambda *args, **kwargs: (*flapack.dstemr(*args, **kwargs)[:3], 2)))
    diagonal, off = np.full(5, 2.0), np.full(4, -1.0)
    with pytest.raises(np.linalg.LinAlgError, match="info=2"):
        lemmas._tridiagonal_eigh(diagonal, off)
    grid = RadialGrid(R=16e-78, M=16, dim=1)
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        semigroup_smoothing_check([0.1], [RadialField(grid, np.ones(grid.M + 1))])


@given(dim=st.integers(1, 2), M=st.integers(8, 512), R=st.floats(0.5, 4.0),
       t=st.floats(0.0, 1.0, exclude_min=True), seed=st.integers(0, 2 ** 32 - 1))
def test_semigroup_keeps_constants_and_the_maximum_principle(dim, M, R, t, seed):
    """On any dim 1-2 grid a constant stays itself within 1e-13, and a
    random field's sup does not grow past verify's 1 + 1e-12."""
    grid = RadialGrid(R=R, M=M, dim=dim)
    constant = semigroup_smoothing_check([t], [RadialField(grid, np.ones(M + 1))])
    assert abs(constant.max_sup_ratio - 1.0) <= 1e-13
    noise = np.random.default_rng(seed).uniform(-1.0, 1.0, M + 1)
    assert semigroup_smoothing_check([t], [RadialField(grid, noise)]).max_sup_ratio <= 1.0 + 1e-12


def _searchsorted_step(f, t):
    """StepFunction evaluation as it was: a clipped np.searchsorted."""
    i = min(max(int(np.searchsorted(f.breaks, t, side="right")) - 1, 0), len(f.values) - 1)
    return float(f.values[i])


def _searchsorted_closures(y0, r, q):
    """gronwall_bound and gronwall_equality_solution as they were: scalar
    midpoint evaluations, numpy prefix arrays and np.searchsorted lookups.
    The closed forms use numpy's exp and expm1, as lemmas' do: libm's differ
    from them in the last bit on a few percent of arguments."""
    breaks = np.unique(np.concatenate([r.breaks, q.breaks]))
    mids = [0.5 * (a + b) for a, b in zip(breaks[:-1], breaks[1:])]
    rv = np.array([_searchsorted_step(r, m) for m in mids])
    qv = np.array([_searchsorted_step(q, m) for m in mids])
    R_at, A_at, y_at = (np.zeros(len(breaks)) for _ in range(3))
    y_at[0] = y0

    def pieces(i, dt):
        ri, qi = rv[i], qv[i]
        if ri != 0.0:
            grow = np.exp(ri * dt)
            return (A_at[i] + qi * np.exp(-R_at[i]) * (-np.expm1(-ri * dt)) / ri,
                    y_at[i] * grow + qi * (grow - 1.0) / ri)
        return A_at[i] + qi * np.exp(-R_at[i]) * dt, y_at[i] + qi * dt

    for i in range(len(rv)):
        dt = breaks[i + 1] - breaks[i]
        A_at[i + 1], y_at[i + 1] = pieces(i, dt)
        R_at[i + 1] = R_at[i] + rv[i] * dt

    def evaluate(t):
        i = min(max(int(np.searchsorted(breaks, t, side="right")) - 1, 0), len(rv) - 1)
        dt = t - breaks[i]
        A_t, y_t = pieces(i, dt)
        return np.exp(R_at[i] + rv[i] * dt) * (y0 + A_t), y_t

    return evaluate


@st.composite
def step_pair(draw):
    """Two step functions on one drawn interval, with some breaks shared and
    some coefficients exactly zero."""
    t1 = draw(st.floats(0.1, 3.0))
    coef = st.one_of(st.just(0.0), st.floats(0.0, 3.0))

    def step():
        inner = draw(st.lists(st.floats(0.0, t1, exclude_min=True, exclude_max=True),
                              max_size=6, unique=True))
        breaks = [0.0, *sorted(inner), t1]
        return StepFunction(breaks, draw(st.lists(coef, min_size=len(breaks) - 1,
                                                  max_size=len(breaks) - 1)))

    r = step()
    q = step()
    return r, q, draw(st.floats(0.0, 3.0)), draw(st.lists(st.floats(0.0, t1), max_size=5))


@given(step_pair())
def test_gronwall_closures_match_searchsorted_evaluation(case):
    r, q, y0, interior = case
    bound = gronwall_bound(y0, r, q)
    solution = gronwall_equality_solution(y0, r, q)
    reference = _searchsorted_closures(y0, r, q)
    points = [*r.breaks.tolist(), *q.breaks.tolist(), *interior]
    for t in points:
        assert (bound(t), solution(t)) == reference(t)
    for f in (r, q):
        for t in [-1.0, *points, f.t1 + 1.0]:
            assert f(t) == _searchsorted_step(f, t)
