"""Executable forms of the analytical ingredients, checkable in isolation.

Four groups:

* the singular integral I(tau) = int_0^tau (tau-s)^(-alpha) (1-s)^(-theta) ds
  and its case-split upper bound,
* the Gronwall bound for step-coefficient integral inequalities, together
  with the exact solution of the matching integral equality,
* the decay fit of the ball integral J against (T-t)^(gamma - 1/2),
* discrete heat-semigroup smoothing ratios measured through the solver.

Everything here is deterministic: repeated runs give bit-identical numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.integrate import quad

from .fields import (BOUNDARY_NEUMANN, GridGeometry, RadialField, _gradient_values,
                     _nonlocal_prefix_values)
from .params import ModelParams, validate
from .similarity import S_TURN, scale_radius, scale_radius_inverse
from .solver import SolverConfig, Trajectory, estimate_T, run_until_blowup

CASE_GT1 = "gt1"
CASE_EQ1 = "eq1"
CASE_LT1 = "lt1"


@dataclass(frozen=True)
class IntegralCase:
    """One (alpha, theta, tau) instance of the singular integral."""

    alpha: float
    theta: float
    tau: float
    case: str = dc_field(init=False)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not self.theta > 0.0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if not 0.0 <= self.tau < 1.0:
            raise ValueError(f"tau must be in [0, 1), got {self.tau}")
        s = self.alpha + self.theta
        case = CASE_GT1 if s > 1.0 else (CASE_EQ1 if s == 1.0 else CASE_LT1)
        object.__setattr__(self, "case", case)


def integral_I_numeric(c: IntegralCase) -> float:
    """Adaptive quadrature of I(tau) with the endpoint singularity absorbed.

    The substitution s = tau - sigma^(1/(1-alpha)) turns the (tau-s)^(-alpha)
    factor into a constant Jacobian, leaving the perfectly regular integrand
    m (1 - tau + sigma^m)^(-theta) with m = 1/(1-alpha).
    """
    if c.tau == 0.0:
        return 0.0
    m = 1.0 / (1.0 - c.alpha)
    upper = c.tau ** (1.0 - c.alpha)
    one_minus_tau = 1.0 - c.tau
    theta = c.theta

    def integrand(sigma):
        return m * (one_minus_tau + sigma ** m) ** (-theta)

    value, _err = quad(integrand, 0.0, upper, epsabs=1e-10, epsrel=1e-12, limit=200)
    return float(value)


def integral_I_bound(c: IntegralCase) -> float:
    """Case-split upper bound for I(tau):

    alpha+theta > 1:  ((1-alpha)^-1 + (alpha+theta-1)^-1) (1-tau)^(1-alpha-theta)
    alpha+theta = 1:  (1-alpha)^-1 + |log(1-tau)|
    alpha+theta < 1:  (1-alpha-theta)^-1
    """
    a, th, tau = c.alpha, c.theta, c.tau
    if c.case == CASE_GT1:
        return (1.0 / (1.0 - a) + 1.0 / (a + th - 1.0)) * (1.0 - tau) ** (1.0 - a - th)
    if c.case == CASE_EQ1:
        return 1.0 / (1.0 - a) + abs(math.log(1.0 - tau))
    return 1.0 / (1.0 - a - th)


@dataclass(frozen=True)
class SweepResult:
    n_total: int
    n_failed: int
    worst_margin: float          # max of numeric - bound over the sweep
    worst_case: IntegralCase
    rows: list                   # (alpha, theta, tau, numeric, bound, ok)

    @property
    def passed(self) -> bool:
        return self.n_failed == 0


def integral_sweep() -> SweepResult:
    """Check numeric <= bound + 1e-6 on a 10 x 10 x 5 grid of
    (alpha, theta, tau) cases."""
    rows = []
    n_failed = 0
    worst_margin = -math.inf
    worst_case = None
    for a in np.linspace(0.1, 0.9, 10):
        for th in np.linspace(0.1, 1.5, 10):
            for tau in (0.0, 0.25, 0.5, 0.9, 0.99):
                case = IntegralCase(float(a), float(th), float(tau))
                numeric = integral_I_numeric(case)
                bound = integral_I_bound(case)
                margin = numeric - bound
                ok = margin <= 1e-6
                if not ok:
                    n_failed += 1
                if margin > worst_margin:
                    worst_margin = margin
                    worst_case = case
                rows.append((case.alpha, case.theta, case.tau, numeric, bound, ok))
    return SweepResult(len(rows), n_failed, worst_margin, worst_case, rows)


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function: values[i] on [breaks[i], breaks[i+1])."""

    breaks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "breaks", np.asarray(self.breaks, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if len(self.breaks) != len(self.values) + 1:
            raise ValueError("need len(breaks) == len(values) + 1")
        if np.any(np.diff(self.breaks) <= 0.0):
            raise ValueError("breaks must be strictly increasing")

    @property
    def t0(self) -> float:
        return float(self.breaks[0])

    @property
    def t1(self) -> float:
        return float(self.breaks[-1])

    def __call__(self, t: float) -> float:
        i = int(np.searchsorted(self.breaks, t, side="right")) - 1
        i = min(max(i, 0), len(self.values) - 1)
        return float(self.values[i])

    @classmethod
    def constant(cls, value: float, t0: float, t1: float) -> "StepFunction":
        return cls(np.array([t0, t1]), np.array([value]))


def _merged_segments(r: StepFunction, q: StepFunction):
    """Common refinement of two step functions on their shared interval."""
    if r.t0 != q.t0 or r.t1 != q.t1:
        raise ValueError("r and q must share the same interval")
    breaks = np.unique(np.concatenate([r.breaks, q.breaks]))
    rv = np.array([r(0.5 * (a + b)) for a, b in zip(breaks[:-1], breaks[1:])])
    qv = np.array([q(0.5 * (a + b)) for a, b in zip(breaks[:-1], breaks[1:])])
    return breaks, rv, qv


def gronwall_bound(y0: float, r: StepFunction, q: StepFunction):
    """Bound exp(int r) [y0 + int q exp(-int r)] for a solution of the
    integral inequality y <= y0 + int y r + int q, evaluated exactly
    segment by segment.  Returns a callable of t on [t0, t1]."""
    breaks, rv, qv = _merged_segments(r, q)
    # prefix integrals at the breakpoints
    R_at = np.zeros(len(breaks))   # int_{t0}^{b_j} r
    A_at = np.zeros(len(breaks))   # int_{t0}^{b_j} q exp(-R)
    for i in range(len(rv)):
        dt = breaks[i + 1] - breaks[i]
        ri, qi = rv[i], qv[i]
        if ri != 0.0:
            A_at[i + 1] = A_at[i] + qi * math.exp(-R_at[i]) * (-math.expm1(-ri * dt)) / ri
        else:
            A_at[i + 1] = A_at[i] + qi * math.exp(-R_at[i]) * dt
        R_at[i + 1] = R_at[i] + ri * dt

    t0, t1 = breaks[0], breaks[-1]

    def bound(t: float) -> float:
        if not t0 <= t <= t1:
            raise ValueError(f"t={t} outside [{t0}, {t1}]")
        i = min(max(int(np.searchsorted(breaks, t, side="right")) - 1, 0), len(rv) - 1)
        dt = t - breaks[i]
        ri, qi = rv[i], qv[i]
        R_t = R_at[i] + ri * dt
        if ri != 0.0:
            A_t = A_at[i] + qi * math.exp(-R_at[i]) * (-math.expm1(-ri * dt)) / ri
        else:
            A_t = A_at[i] + qi * math.exp(-R_at[i]) * dt
        return math.exp(R_t) * (y0 + A_t)

    return bound


def gronwall_equality_solution(y0: float, r: StepFunction, q: StepFunction):
    """Exact solution of y(t) = y0 + int_{t0}^t y r + int_{t0}^t q, i.e. of
    y' = r y + q, propagated segment-wise in closed form.  Independent of
    :func:`gronwall_bound` (different closed forms, same function)."""
    breaks, rv, qv = _merged_segments(r, q)
    y_at = np.zeros(len(breaks))
    y_at[0] = y0
    for i in range(len(rv)):
        dt = breaks[i + 1] - breaks[i]
        ri, qi = rv[i], qv[i]
        if ri != 0.0:
            grow = math.exp(ri * dt)
            y_at[i + 1] = y_at[i] * grow + qi * (grow - 1.0) / ri
        else:
            y_at[i + 1] = y_at[i] + qi * dt

    t0, t1 = breaks[0], breaks[-1]

    def solution(t: float) -> float:
        if not t0 <= t <= t1:
            raise ValueError(f"t={t} outside [{t0}, {t1}]")
        i = min(max(int(np.searchsorted(breaks, t, side="right")) - 1, 0), len(rv) - 1)
        dt = t - breaks[i]
        ri, qi = rv[i], qv[i]
        if ri != 0.0:
            grow = math.exp(ri * dt)
            return y_at[i] * grow + qi * (grow - 1.0) / ri
        return y_at[i] + qi * dt

    return solution


@dataclass(frozen=True)
class GronwallSuiteResult:
    n_instances: int
    n_points: int
    n_violations: int
    worst_margin: float  # max of exact - bound over all evaluation points

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


def gronwall_suite() -> GronwallSuiteResult:
    """1000 random instances (seed 0) of nonnegative step coefficients; the
    exact equality solution must sit below the bound (plus a rounding slack
    of 1e-10) at every checked point."""
    rng = np.random.default_rng(0)
    n_points = 0
    n_violations = 0
    worst = -math.inf
    for _ in range(1000):
        t0 = 0.0
        t1 = float(rng.uniform(0.5, 1.5))
        def random_step():
            k = int(rng.integers(1, 7))
            inner = np.sort(rng.uniform(t0, t1, size=k - 1))
            breaks = np.concatenate([[t0], inner, [t1]])
            breaks = np.unique(breaks)
            vals = rng.uniform(0.0, 2.0, size=len(breaks) - 1)
            return StepFunction(breaks, vals)
        r = random_step()
        q = random_step()
        y0 = float(rng.uniform(0.0, 2.0))
        exact = gronwall_equality_solution(y0, r, q)
        bound = gronwall_bound(y0, r, q)
        ts = np.concatenate([np.unique(np.concatenate([r.breaks, q.breaks])),
                             rng.uniform(t0, t1, size=5)])
        for t in ts:
            margin = exact(float(t)) - bound(float(t))
            worst = max(worst, margin)
            n_points += 1
            if margin > 1e-10:
                n_violations += 1
    return GronwallSuiteResult(1000, n_points, n_violations, worst)


def gamma_exponent_identity_check() -> float:
    """Max |(gamma - 1/2) - (dim/2 - (q-1)/(p-1))| over 1000 random admissible
    parameter tuples (seed 0); an exact algebraic identity up to rounding."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        p = float(rng.uniform(3.0 + 1e-6, 10.0))
        dim = int(rng.integers(1, 4))
        q_lo = dim * (p - 1) / 2.0 + 1.0
        q_hi = dim * (p - 1) / 2.0 + (p + 1) / 2.0
        width = q_hi - q_lo
        q = float(q_lo + rng.uniform(0.05, 0.95) * width)
        mu = float(rng.uniform(-1.0, 1.0))
        params = validate(p=p, q=q, mu=mu, dim=dim)
        lhs = params.gamma - 0.5
        rhs = dim / 2.0 - (q - 1.0) / (p - 1.0)
        worst = max(worst, abs(lhs - rhs))
    return worst


@dataclass(frozen=True)
class DecayFit:
    slope: float
    C_eta: float
    s_lo: float
    s_hi: float
    n_points: int

    def to_dict(self) -> dict:
        return {"slope": self.slope, "C_eta": self.C_eta,
                "s_lo": self.s_lo, "s_hi": self.s_hi, "n_points": self.n_points}


def _resolution_floor(h: float) -> float:
    """Smallest s with sqrt(s |log s|) >= 4h: below it the blow-up core is
    narrower than the grid can resolve and J is dominated by one node.
    When 4h lies past the turn of the map, the floor is the turn, 1/e."""
    if scale_radius(S_TURN, 1.0) <= 4.0 * h:
        return S_TURN
    return scale_radius_inverse(4.0 * h, 1.0)


def nonlocal_decay_fit(trajectory: Trajectory, params: ModelParams, eta: float,
                       T: float | None = None,
                       s_window: tuple[float, float] | None = None) -> DecayFit:
    """Fit the decay of the ball integral against the predicted power.

    Per snapshot, J(t) is the largest prefix-integral value on the grid (its
    value at r = R, the prefix being nondecreasing).  The model

        log J = c + slope * log(T-t) + (dim/2) * log|log(T-t)|

    carries the known log-power explicitly, so the fitted slope estimates
    the pure exponent (prediction gamma - 1/2) without the curvature the
    log factor would otherwise leak into a raw log-log fit.  C_eta is the
    smallest constant with J <= C_eta (T-t)^(gamma - 1/2 - eta) on the
    window.

    The default window spans the last two resolved decades of T-t; the
    resolution floor keeps unresolved-core snapshots out of the fit.
    """
    if not 0.0 < eta < params.gamma:
        raise ValueError(f"eta must be in (0, gamma={params.gamma:.6g}), got {eta}")
    if T is None:
        T = estimate_T(trajectory, params).T_est
    grid = trajectory.config.grid
    geom = GridGeometry.of(grid)
    times = trajectory.times
    s = T - times
    J = np.array([
        _nonlocal_prefix_values(np.abs(snap.values), geom, params.q)[-1]
        for snap in trajectory.snapshots
    ])
    keep = (s > 0.0) & (s < 1.0) & (J > 0.0)
    if not np.any(keep):
        raise ValueError("insufficient window: no usable (T-t, J) samples")
    s, J = s[keep], J[keep]
    if s_window is None:
        s_lo = max(_resolution_floor(grid.h), float(np.min(s)))
        s_hi = min(100.0 * s_lo, float(np.max(s)))
    else:
        s_lo, s_hi = s_window
    mask = (s >= s_lo) & (s <= s_hi)
    if int(np.sum(mask)) < 5:
        raise ValueError(
            f"insufficient window: {int(np.sum(mask))} samples in [{s_lo:.3g}, {s_hi:.3g}]"
        )
    s, J = s[mask], J[mask]
    x = np.log(s)
    L = np.abs(x)
    y = np.log(J) - 0.5 * params.dim * np.log(L)
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, _c), *_ = np.linalg.lstsq(A, y, rcond=None)
    target = params.gamma - 0.5 - eta
    C_eta = float(np.max(J / s ** target))
    return DecayFit(slope=float(slope), C_eta=C_eta,
                    s_lo=float(s_lo), s_hi=float(s_hi), n_points=len(s))


@dataclass(frozen=True)
class SmoothingReport:
    max_sup_ratio: float    # worst ||S(t)f|| / ||f||      (expected <= 1 + O(h^2))
    max_grad_ratio: float   # worst sqrt(t) ||d/dr S(t)f|| / ||f|| (measured constant)
    rows: list              # (case index, t, sup_ratio, grad_ratio)


def _heat_params(dim: int) -> ModelParams:
    # any admissible exponent pair works: the heat evolution drops the
    # reaction and non-local terms entirely
    p = 4.0
    q = dim * (p - 1) / 2.0 + 1.0 + 0.5 * (p + 1) / 4.0
    return validate(p=p, q=q, mu=0.0, dim=dim)


def semigroup_smoothing_check(t_values, test_fields) -> SmoothingReport:
    """Evolve each field by the discrete heat flow (neumann-zero closure) up
    to each time and measure the smoothing ratios of the semigroup."""
    rows = []
    max_sup = -math.inf
    max_grad = -math.inf
    for idx, f0 in enumerate(test_fields):
        norm0 = float(np.max(np.abs(f0.values)))
        if norm0 == 0.0:
            raise ValueError(f"test field {idx} is identically zero")
        params = _heat_params(f0.grid.dim)
        current = RadialField(f0.grid, f0.values.copy(), 0.0)
        for t in sorted(float(t) for t in t_values):
            if not t > 0.0:
                raise ValueError(f"t values must be positive, got {t}")
            cfg = SolverConfig(
                grid=f0.grid, params=params,
                blowup_cap=1e300, boundary=BOUNDARY_NEUMANN, record_stride=10 ** 9,
                snapshot_growth=1e300, max_steps=50_000_000, t_max=t,
                reaction=False,
            )
            traj = run_until_blowup(current, cfg)
            current = traj.last_field
            g = _gradient_values(current.values, f0.grid.h, BOUNDARY_NEUMANN)
            sup_ratio = float(np.max(np.abs(current.values))) / norm0
            grad_ratio = math.sqrt(t) * float(np.max(np.abs(g))) / norm0
            rows.append((idx, t, sup_ratio, grad_ratio))
            max_sup = max(max_sup, sup_ratio)
            max_grad = max(max_grad, grad_ratio)
    return SmoothingReport(max_sup_ratio=max_sup, max_grad_ratio=max_grad, rows=rows)
