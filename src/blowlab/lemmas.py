"""Executable forms of the analytical ingredients, checkable in isolation.

Five groups:

* the singular integral I(tau) = int_0^tau (tau-s)^(-alpha) (1-s)^(-theta) ds
  by one tanh-sinh rule (h = 1/64, 577 nodes, within 6.1e-9 relative down
  to 1 - tau = 1e-12), and its case-split upper bound; the sweep evaluates
  the rule in (alpha, tau) blocks that form the nodes' powers once for all
  theta, to the bit of one case at a time,
* the Gronwall bound for step-coefficient integral inequalities, together
  with the exact solution of the matching integral equality, and their
  suite: 1000 random instances (t1 ~ U(0.5, 1.5), 1-6 pieces per
  coefficient with cuts ~ U(0, t1) and values ~ U(0, 2), y0 ~ U(0, 2)),
  drawn in bulk and evaluated as arrays by the same closed forms,
* the exponent identity gamma - 1/2 = N/2 - (q-1)/(p-1) on 1000 admissible
  tuples, also drawn in bulk,
* the decay fit of the ball integral J against (T-t)^(gamma - 1/2),
* smoothing ratios of the discrete heat semigroup, applied exactly through
  the eigendecomposition of the Neumann-closure Laplacian, which LAPACK
  ``dstemr`` computes (called directly, see :func:`_tridiagonal_eigh`).

The random instances come from a counter-based SplitMix64 stream with
seed 0 (:class:`_SplitMix64`), a few lines of numpy ``uint64`` arithmetic:
``numpy.random`` would add ~6 MB of extension modules and heap to the
resident set of every ``verify``.  Everything here is deterministic:
repeated runs give bit-identical numbers.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import (BOUNDARY_NEUMANN, GridGeometry, _block, _gradient_values,
                     _laplacian_bands, _nonlocal_prefix_values)
from .params import ModelParams, gamma_of, q_bounds
from .similarity import S_TURN, scale_radius, scale_radius_inverse
from .solver import Trajectory, _fit_line, _flapack, estimate_T

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


def _tanh_sinh_rule(h: float, t_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] of the tanh-sinh rule (Takahasi & Mori,
    *Publ. RIMS* 9, 1974) with step h on t in [-t_max, t_max].  With
    s = (pi/2) sinh t the node is (1 + tanh s)/2, computed as e^s/(2 cosh s)
    so that the nodes next to 0 keep their relative precision.  Built with
    math: numpy's sinh and cosh would add ~0.3 MB of RSS to every process."""
    t = [h * k for k in range(-round(t_max / h), round(t_max / h) + 1)]
    s = [0.5 * math.pi * math.sinh(x) for x in t]
    return (np.array([math.exp(v) / (2.0 * math.cosh(v)) for v in s]),
            np.array([math.pi * h / 4 * math.cosh(x) / math.cosh(v) ** 2 for x, v in zip(t, s)]))


_NODES, _WEIGHTS = _tanh_sinh_rule(1.0 / 64.0, 4.5)  # 577 nodes


class _SplitMix64:
    """Uniform draws from the SplitMix64 generator (Steele, Lea & Flood,
    OOPSLA 2014) in counter form: the k-th draw of the stream (k = 1, 2,
    ...) is the mix of seed + k * 0x9E3779B97F4A7C15, so a block of draws
    is one array expression.  A double takes the top 53 bits of its draw."""

    def __init__(self, seed: int):
        self.seed = np.uint64(seed)
        self.count = 0  # draws taken so far

    def uniform(self, low, high, size) -> np.ndarray:
        """The next draws of the stream, from U(low, high), shaped ``size``."""
        n = int(np.prod(size))
        k = np.arange(self.count + 1, self.count + n + 1, dtype=np.uint64)
        self.count += n
        z = self.seed + k * np.uint64(0x9E3779B97F4A7C15)  # uint64 arrays wrap silently
        z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
        u = ((z ^ (z >> 31)) >> 11).astype(float) * 2.0 ** -53
        return low + (high - low) * u.reshape(size)

    def integers(self, low: int, high: int, size) -> np.ndarray:
        """The next draws of the stream, uniform on {low, ..., high - 1},
        shaped ``size``."""
        return low + self.uniform(0.0, high - low, size).astype(int)


def integral_I_numeric(c: IntegralCase) -> float:
    """I(tau) by the tanh-sinh rule, the endpoint singularity absorbed.

    The substitution s = tau - sigma^(1/(1-alpha)) turns the (tau-s)^(-alpha)
    factor into a constant Jacobian, leaving the regular integrand
    m (1 - tau + sigma^m)^(-theta) on [0, tau^(1-alpha)], m = 1/(1-alpha),
    with a layer (1-tau)^(1-alpha) wide at sigma = 0.  The rule has step
    h = 1/64 on t in [-4.5, 4.5], 577 nodes (h = 1/32 misses by 3e-5).
    Against mpmath's tau^(1-alpha)/(1-alpha) 2F1(theta, 1; 2-alpha; tau) it
    is within 4e-16 relative on ``integral_sweep``'s cases with tau > 0 and
    6.1e-9 on 400 random cases with 1 - tau down to 1e-12.  It is
    :func:`_integral_I_block` at the one theta."""
    return _integral_I_block(c.alpha, c.tau, [c.theta])[0]


def _integral_I_block(alpha: float, tau: float, thetas) -> list[float]:
    """I(tau) at one (alpha, tau) for each theta of ``thetas``, by the rule
    of :func:`integral_I_numeric`.

    The base 1 - tau + (upper sigma_k)^m of the 577 nodes depends on
    (alpha, tau) alone, so its power is taken once for all thetas instead
    of once per theta.  The integrand is one (n_theta, 577) block with the
    exponents -theta as a column, whose inner stride 0 is the one a scalar
    exponent has, so numpy runs the same loop on each row.  Each theta's sum is its own ddot of the weights with its
    row (``block @ _WEIGHTS`` would sum in another order), so every value
    is the one-theta evaluation's to the bit."""
    m = 1.0 / (1.0 - alpha)
    upper = tau ** (1.0 - alpha)
    base = (1.0 - tau) + (upper * _NODES) ** m
    block = base ** -np.asarray(thetas, dtype=float)[:, None]
    block *= m
    return [upper * float(_WEIGHTS @ row) for row in block]


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
    (alpha, theta, tau) cases.  A NaN margin fails and, the first one
    found, becomes the worst case.

    The values come in 50 (alpha, tau) blocks of the 10 thetas
    (:func:`_integral_I_block`), one block's temporaries at a time; the
    cases are then checked one by one in (alpha, theta, tau) order, which
    decides the first NaN and the first maximum."""
    thetas = np.linspace(0.1, 1.5, 10)
    taus = (0.0, 0.25, 0.5, 0.9, 0.99)
    rows = []
    n_failed = 0
    worst_margin = -math.inf
    worst_case = None
    for a in np.linspace(0.1, 0.9, 10).tolist():
        numerics = [_integral_I_block(a, tau, thetas) for tau in taus]
        for j, th in enumerate(thetas.tolist()):
            for k, tau in enumerate(taus):
                case = IntegralCase(a, th, tau)
                numeric = numerics[k][j]
                bound = integral_I_bound(case)
                margin = numeric - bound
                ok = margin <= 1e-6
                if not ok:
                    n_failed += 1
                if not math.isnan(worst_margin) and not margin <= worst_margin:
                    worst_margin = margin
                    worst_case = case
                rows.append((case.alpha, case.theta, case.tau, numeric, bound, ok))
    return SweepResult(len(rows), n_failed, worst_margin, worst_case, rows)


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant: values[i] on [breaks[i], breaks[i+1]), end values outside."""

    breaks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "breaks", np.asarray(self.breaks, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if len(self.breaks) != len(self.values) + 1:
            raise ValueError("need len(breaks) == len(values) + 1")
        if np.any(np.diff(self.breaks) <= 0.0):
            raise ValueError("breaks must be strictly increasing")
        object.__setattr__(self, "_inner", self.breaks[1:-1].tolist())

    @property
    def t0(self) -> float:
        return float(self.breaks[0])

    @property
    def t1(self) -> float:
        return float(self.breaks[-1])

    def __call__(self, t: float) -> float:
        return float(self.values[bisect.bisect_right(self._inner, t)])

    @classmethod
    def constant(cls, value: float, t0: float, t1: float) -> "StepFunction":
        return cls(np.array([t0, t1]), np.array([value]))


def _merged_segments(r: StepFunction, q: StepFunction):
    """(breaks, r values, q values) of the common refinement of two step
    functions on their shared interval, as lists of floats."""
    r_breaks, q_breaks = r.breaks.tolist(), q.breaks.tolist()
    if r_breaks[0] != q_breaks[0] or r_breaks[-1] != q_breaks[-1]:
        raise ValueError("r and q must share the same interval")
    breaks = sorted(set(r_breaks).union(q_breaks))
    mids = [0.5 * (a + b) for a, b in zip(breaks, breaks[1:])]
    return breaks, [r(m) for m in mids], [q(m) for m in mids]


def _weighted_q(qi, R, ri, dt):
    """int q exp(-int r) over dt into a segment where r = ri, q = qi and
    int r = R at its start; elementwise on arrays."""
    nonzero = ri != 0.0
    scaled = qi * np.exp(-R)
    return np.where(nonzero, scaled * -np.expm1(-ri * dt) / np.where(nonzero, ri, 1.0),
                    scaled * dt)


def _propagate(y, ri, qi, dt):
    """Solution of y' = ri y + qi after dt, from y; elementwise on arrays."""
    nonzero = ri != 0.0
    grow = np.exp(ri * dt)
    return np.where(nonzero, y * grow + qi * (grow - 1.0) / np.where(nonzero, ri, 1.0),
                    y + qi * dt)


def _bound_at(y0, R, A, ri, qi, dt):
    """exp(int r) [y0 + int q exp(-int r)] at dt into a segment where r = ri,
    q = qi, int r = R and int q exp(-int r) = A at its start; elementwise."""
    return np.exp(R + ri * dt) * (y0 + (A + _weighted_q(qi, R, ri, dt)))


def _on_segments(breaks: list, at):
    """Callable of t on [breaks[0], breaks[-1]] giving at(i, t - breaks[i])
    on the segment i that holds t."""
    t0, t1, inner = breaks[0], breaks[-1], breaks[1:-1]

    def evaluate(t: float) -> float:
        if not t0 <= t <= t1:
            raise ValueError(f"t={t} outside [{t0}, {t1}]")
        i = bisect.bisect_right(inner, t)
        return float(at(i, t - breaks[i]))

    return evaluate


def gronwall_bound(y0: float, r: StepFunction, q: StepFunction):
    """Bound exp(int r) [y0 + int q exp(-int r)] for a solution of the
    integral inequality y <= y0 + int y r + int q, evaluated exactly
    segment by segment.  Returns a callable of t on [t0, t1]."""
    breaks, rv, qv = _merged_segments(r, q)
    R_at = [0.0] * len(breaks)   # int_{t0}^{b_j} r
    A_at = [0.0] * len(breaks)   # int_{t0}^{b_j} q exp(-R)
    for i in range(len(rv)):
        dt = breaks[i + 1] - breaks[i]
        A_at[i + 1] = A_at[i] + float(_weighted_q(qv[i], R_at[i], rv[i], dt))
        R_at[i + 1] = R_at[i] + rv[i] * dt
    return _on_segments(breaks, lambda i, dt: _bound_at(y0, R_at[i], A_at[i], rv[i], qv[i], dt))


def gronwall_equality_solution(y0: float, r: StepFunction, q: StepFunction):
    """Exact solution of y(t) = y0 + int_{t0}^t y r + int_{t0}^t q, i.e. of
    y' = r y + q, propagated segment-wise in closed form.  Independent of
    :func:`gronwall_bound` (different closed forms, same function)."""
    breaks, rv, qv = _merged_segments(r, q)
    y_at = [y0]
    for i in range(len(rv)):
        y_at.append(float(_propagate(y_at[i], rv[i], qv[i], breaks[i + 1] - breaks[i])))
    return _on_segments(breaks, lambda i, dt: _propagate(y_at[i], rv[i], qv[i], dt))


@dataclass(frozen=True)
class GronwallSuiteResult:
    n_points: int
    n_violations: int
    worst_margin: float  # max of exact - bound over all evaluation points

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


@dataclass(frozen=True)
class _GronwallInstances:
    """The suite's instances, one per column, and their margins.  Instance i
    has r (k = 0) and q (k = 1) on [0, t1[i]], each with pieces[k, i]
    pieces: inner breaks cuts[k, :pieces[k, i] - 1, i], unsorted, and piece
    values values[k, :pieces[k, i], i] from left to right; the unused cuts
    are +inf.  margins[:, i] holds exact - bound at the merged breaks in
    ascending order, padded to 12 rows with t1, then at times[:, i];
    checked[:, i] marks the rows that are points of the instance."""

    t1: np.ndarray        # (n,)
    pieces: np.ndarray    # (2, n)
    cuts: np.ndarray      # (2, 5, n)
    values: np.ndarray    # (2, 6, n)
    y0: np.ndarray        # (n,)
    times: np.ndarray     # (5, n)
    margins: np.ndarray   # (17, n)
    checked: np.ndarray   # (17, n)


def _gronwall_instances() -> _GronwallInstances:
    """Draw the suite's 1000 instances in bulk from the SplitMix64 stream
    with seed 0 (:class:`_SplitMix64`) and evaluate exact - bound at every
    point, without a loop over instances.

    Every array holds one instance per column.  One loop over the 11
    segment rows walks the merged breaks in ascending order, each the least
    cut above the last one, or t1 once none is left (after which the
    segments have zero width).  It carries the prefix integrals and the
    propagated solution, so each instance is summed left to right as the
    scalar closures sum it, and it moves r (q) to its next piece at each of
    its cuts.  A break, t1 included, is evaluated at zero offset from the
    prefix values there, and a random time in the segment [start, end) that
    holds it.  The walk needs no sort and no table of points against breaks:
    numpy's sort kernels alone would page about 0.2 MB more of its library
    into ``verify``'s resident set, and such a table would take heap."""
    n = 1000
    rng = _SplitMix64(0)
    t1 = rng.uniform(0.5, 1.5, n)
    pieces = rng.integers(1, 7, size=(2, n))
    cuts = np.where(np.arange(5)[:, None] < pieces[:, None] - 1,
                    t1 * rng.uniform(0.0, 1.0, size=(2, 5, n)), np.inf)
    values = rng.uniform(0.0, 2.0, size=(2, 6, n))
    y0 = rng.uniform(0.0, 2.0, n)
    times = t1 * rng.uniform(0.0, 1.0, size=(5, n))

    margins = np.full((17, n), np.nan)  # a point the walk missed fails the suite
    checked = np.ones((17, n), dtype=bool)
    # the solution and the two prefix integrals at the current segment's
    # start, updated in place, so they stay arrays whatever _propagate returns
    y, R, A = y0.copy(), np.zeros(n), np.zeros(n)

    def margin(at, dt):  # exact - bound on the instances `at`, dt into the current segment
        return (_propagate(y[at], r[at], q[at], dt)
                - _bound_at(y0[at], R[at], A[at], r[at], q[at], dt))

    every = np.arange(n)
    piece = np.zeros((2, n), dtype=int)
    start = np.zeros(n)
    for j in range(11):
        # the next merged break: the least cut above start, or t1
        end = np.minimum(np.min(np.where(cuts > start, cuts, np.inf), axis=(0, 1)), t1)
        r, q = values[0, piece[0], every], values[1, piece[1], every]
        margins[j] = margin(slice(None), 0.0)
        checked[j + 1] = end > start
        which, at = np.nonzero((start <= times) & (times < end))
        margins[12 + which, at] = margin(at, times[which, at] - start[at])
        dt = end - start
        A[:] = A + _weighted_q(q, R, r, dt)
        R[:] = R + r * dt
        y[:] = _propagate(y, r, q, dt)
        piece = np.where(np.any(cuts == end, axis=1), piece + 1, piece)
        start = end
    margins[11] = margin(slice(None), 0.0)
    return _GronwallInstances(t1, pieces, cuts, values, y0, times, margins, checked)


def gronwall_suite() -> GronwallSuiteResult:
    """1000 random instances (SplitMix64, seed 0) of nonnegative step
    coefficients on [0, t1]; the exact equality solution must sit below the
    bound (plus a rounding slack of 1e-10) at every checked point: the
    merged breaks and 5 random times per instance, 11,961 points in all,
    where the worst margin is 1.46e-13.

    Each instance draws t1 ~ U(0.5, 1.5); r and q get 1-6 pieces each, with
    cuts from U(0, t1) and values from U(0, 2); y0 ~ U(0, 2); the random
    times come from U(0, t1).  All 1000 are drawn at once, each quantity as
    one array, and evaluated as arrays (:func:`_gronwall_instances`) with
    the closed forms that :func:`gronwall_bound` and
    :func:`gronwall_equality_solution` use.  A non-finite margin counts as a
    violation, and a NaN one becomes the worst margin."""
    instances = _gronwall_instances()
    margins, checked = instances.margins, instances.checked
    n_violations = int(np.count_nonzero(checked & ~(np.isfinite(margins) & (margins <= 1e-10))))
    worst = float(np.max(margins, where=checked, initial=-math.inf))
    return GronwallSuiteResult(int(np.count_nonzero(checked)), n_violations, worst)


def _identity_tuples():
    """1000 admissible (p, q, mu, dim) tuples as arrays, drawn in bulk from
    the SplitMix64 stream with seed 0 (:class:`_SplitMix64`):
    p ~ U(3 + 1e-6, 10), dim uniform on {1, 2, 3}, q at a U(0.05, 0.95)
    fraction of its open window, mu ~ U(-1, 1)."""
    n = 1000
    rng = _SplitMix64(0)
    p = rng.uniform(3.0 + 1e-6, 10.0, n)
    dim = rng.integers(1, 4, n)
    fraction = rng.uniform(0.05, 0.95, n)
    mu = rng.uniform(-1.0, 1.0, n)
    q_lo, q_hi = q_bounds(p, dim)
    return p, q_lo + fraction * (q_hi - q_lo), mu, dim


def gamma_exponent_identity_check() -> float:
    """Max |(gamma - 1/2) - (dim/2 - (q-1)/(p-1))| over 1000 random admissible
    parameter tuples (SplitMix64, seed 0, :func:`_identity_tuples`); an
    exact algebraic identity up to rounding.  gamma comes from
    ``params.gamma_of`` on the arrays, the function ``validate`` derives it
    with.  A NaN difference is the result."""
    p, q, _mu, dim = _identity_tuples()
    left = gamma_of(p, q, dim) - 0.5
    right = dim / 2.0 - (q - 1.0) / (p - 1.0)
    return float(np.max(np.abs(left - right)))


@dataclass(frozen=True)
class DecayFit:
    slope: float
    C_eta: float
    s_lo: float
    s_hi: float
    n_points: int


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

    q, gamma and dim are the run's; other ``params`` are refused.  The
    default window spans the last two resolved decades of T-t; the
    resolution floor keeps unresolved-core snapshots out of the fit.
    """
    if params != trajectory.config.params:
        raise ValueError(f"params {params} differ from the run's {trajectory.config.params}")
    params = trajectory.config.params
    if not 0.0 < eta < params.gamma:
        raise ValueError(f"eta must be in (0, gamma={params.gamma:.6g}), got {eta}")
    if T is None:
        T = estimate_T(trajectory).T_est
    grid = trajectory.config.grid
    geom = GridGeometry.of(grid)
    times = trajectory.times
    s = T - times
    # J(R) of the snapshots from chunks of ~64 KB (``fields._block``), so
    # the prefix's arrays stay small at any M: each row's prefix sum is its
    # field's alone, to the bit
    snapshots = trajectory.snapshots
    per_block = max(1, 8192 // (grid.M + 1))
    J = np.empty(len(snapshots))
    for i in range(0, len(snapshots), per_block):
        chunk = snapshots[i:i + per_block]
        integrand = _block([snap.values for snap in chunk])
        np.abs(integrand, out=integrand)
        integrand **= params.q - 1.0
        J[i:i + len(chunk)] = _nonlocal_prefix_values(
            integrand, geom if len(chunk) == 1 else GridGeometry.stacked([geom] * len(chunk))
        )[..., grid.M]
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
    slope, _c = _fit_line(x, y)
    target = params.gamma - 0.5 - eta
    C_eta = float(np.max(J / s ** target))
    return DecayFit(slope=slope, C_eta=C_eta,
                    s_lo=float(s_lo), s_hi=float(s_hi), n_points=len(s))


@dataclass(frozen=True)
class SmoothingReport:
    max_sup_ratio: float    # worst ||S(t)f|| / ||f||      (<= 1 up to rounding)
    max_grad_ratio: float   # worst sqrt(t) ||d/dr S(t)f|| / ||f|| (measured constant)


def _tridiagonal_eigh(diagonal, off):
    """Every eigenpair, ascending, of the symmetric tridiagonal matrix with
    this diagonal and off-diagonal, by LAPACK ``dstemr`` with the arguments
    that ``scipy.linalg.eigh_tridiagonal(..., lapack_driver="stemr")``
    passes, so the pairs are that function's, bit for bit.  A non-finite
    entry is refused, as that function's ``check_finite`` does: ``dstemr``
    does not return on a NaN."""
    if not (np.all(np.isfinite(diagonal)) and np.all(np.isfinite(off))):
        raise ValueError("the tridiagonal eigensolve needs finite entries")
    padded = np.zeros(diagonal.size)  # dstemr takes an n-vector; e[n-1] is workspace
    padded[:-1] = off
    args = (diagonal, padded, 0, 0.0, 1.0, 1, 1)  # select all; the bounds are unread
    lwork, liwork, info = _flapack.dstemr_lwork(*args, compute_v=1)
    if info == 0:
        m, lam, Q, info = _flapack.dstemr(*args, compute_v=1, lwork=lwork, liwork=liwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dstemr failed (info={info})")
    return lam[:m], Q[:, :m]


def semigroup_smoothing_check(t_values, test_fields) -> SmoothingReport:
    """Apply the discrete heat semigroup S(t) = exp(t L) to each field at
    each time and measure its smoothing ratios.

    L is the tridiagonal matrix of the neumann-zero closure of the radial
    Laplacian, ``fields._laplacian_bands``, which the step's implicit solve
    factors too.  Its rows sum to zero and, for dim <= 3, its off-diagonal
    entries are nonnegative, so S(t) keeps the maximum principle exactly:
    the sup ratio exceeds 1 only by rounding.

    For dim 1 and 2 every coupling lower_i * upper_i is positive, so with
    d_0 = 1 and d_(i+1)/d_i = sqrt(upper_i/lower_i), T = D L D^-1 is
    symmetric with off-diagonal sqrt(lower_i * upper_i).  One MRRR
    eigensolve T = Q diag(lam) Q^T per grid, LAPACK ``dstemr`` called
    directly (:func:`_tridiagonal_eigh`), gives
    S(t) = D^-1 Q diag(exp(t lam)) Q^T D at every t.  From dim 3 a coupling
    is zero or negative, and the check refuses the grid.  Constants, the
    kernel of L, are carried exactly: a field splits into its D^2-weighted
    mean, which S(t) keeps, and the rest, which the other eigenpairs carry.
    The kernel's computed pair is dropped, because its eigenvalue is off
    zero by about eps ||L|| (1e-10 at h = 1e-3), which exp(t lam) would
    pass on at every t.  Each field takes its own products, so its ratios do
    not depend on the fields that share its grid, and a NaN ratio reaches
    the report.
    """
    t_values, test_fields = list(t_values), list(test_fields)
    if not t_values or not test_fields:
        raise ValueError("need at least one t value and one test field")
    for t in t_values:
        if not 0.0 < t < math.inf:
            raise ValueError(f"t values must be positive and finite, got {t}")
    by_grid = {}
    for idx, f0 in enumerate(test_fields):
        norm0 = float(np.max(np.abs(f0.values)))
        if norm0 == 0.0:
            raise ValueError(f"test field {idx} is identically zero")
        by_grid.setdefault(f0.grid, []).append((f0.values, norm0))
    sup_ratios, grad_ratios = [], []
    for grid, group in by_grid.items():
        lower, diagonal, upper = _laplacian_bands(grid, BOUNDARY_NEUMANN)
        coupling = lower * upper
        if not np.all(coupling > 0.0):
            raise ValueError(f"the heat-semigroup check needs dim 1 or 2, got dim={grid.dim}")
        d = np.concatenate(([1.0], np.cumprod(np.sqrt(upper / lower))))
        mass = d * d
        lam, Q = _tridiagonal_eigh(diagonal, np.sqrt(coupling))
        lam, Q = lam[:-1], Q[:, :-1]  # ascending: the last pair is the kernel's
        for values, norm0 in group:
            mean = float(mass @ values) / float(mass.sum())
            coeffs = Q.T @ (d * (values - mean))
            for t in t_values:
                u = mean + (Q @ (np.exp(t * lam) * coeffs)) / d
                g = _gradient_values(u, grid.h, BOUNDARY_NEUMANN)
                sup_ratios.append(float(np.max(np.abs(u))) / norm0)
                grad_ratios.append(math.sqrt(t) * float(np.max(np.abs(g))) / norm0)
    return SmoothingReport(max_sup_ratio=float(np.max(sup_ratios)),
                           max_grad_ratio=float(np.max(grad_ratios)))
