"""Local similarity frames around non-blow-up points and their diagnostics.

For a point x0 != 0 the anchor time t0(x0) solves

    |x0| = K0 * sqrt((T - t0) |log(T - t0)|)

with |x0| clipped to the plateau radius delta = K0 * sqrt(2 e^-2), where
T - t0 = e^-2.  The right-hand side peaks above delta, at T - t0 = 1/e, so
every anchor lies on its monotone branch.  The frame variables are

    v(x0, xi, tau) = (T-t0)^(1/(p-1)) u(x0 + xi sqrt(T-t0), t0 + tau (T-t0)),
    w = dv/dxi,

sampled on a (tau, xi) grid by bilinear interpolation of trajectory
snapshots.  The diagnostics measure, on the sampled frame, the smallest
constants for which the no-blow-up threshold hypothesis, the uniform
boundedness conclusion, the gradient-smallness bound and the sharp flat
behavior of v hold.

A frame is sampled as a few array operations over every (tau, xi) at
once, with the values a per-tau loop of ``np.interp`` calls gives, to the
bit.  The time brackets and weights of all taus, and the node bracket
r_j <= r < r_(j+1) of each xi, are found once.  One gather takes the
window of nodes the xi reach from every snapshot, as the rows of one
padded block, and one kernel call takes their gradients.  Each tau's
field and gradient are interpolated in time on those nodes, and in space
with ``np.interp``'s arithmetic written out: (y_(j+1) - y_j) / (r_(j+1) -
r_j) * (r - r_j) + y_j, and y_j where r is the node r_j (y_M at or past
R).  A frame that meets a non-finite slope (values near the float
limit) is refused, not sampled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import _block, _gradient_values
from .params import ModelParams
from .profiles import final_grad_bound, final_profile, v_K0
from .solver import STATUS_BLOWN_UP, Trajectory

# s |log s| increases up to s = 1/e and turns there; the anchor relation is
# only invertible on the monotone branch.
S_TURN = math.exp(-1.0)
S_FLOOR = 1e-280  # lower end of the bracket that scale_radius_inverse searches


class CoverageGapError(ValueError):
    """Requested frame range not covered by the trajectory snapshots."""


def scale_radius(s: float, K0: float) -> float:
    """Forward map K0*sqrt(s|log s|) for s in (0, 1)."""
    return K0 * math.sqrt(s * abs(math.log(s)))


def scale_radius_inverse(x: float, K0: float, s_hi: float = S_TURN) -> float:
    """The s in [S_FLOOR, s_hi] with scale_radius(s, K0) = x (s_hi <= 1/e), by
    bisection in log s: uniform relative resolution at every scale.  Callers
    decide what an x outside the bracket means."""
    lo, hi = math.log(S_FLOOR), math.log(s_hi)
    for _ in range(128):
        mid = 0.5 * (lo + hi)
        if scale_radius(math.exp(mid), K0) < x:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14:
            break
    return math.exp(0.5 * (lo + hi))


def default_delta(K0: float) -> float:
    """Plateau radius chosen so that T - t0(delta) = e^-2, safely inside the
    monotone branch."""
    return scale_radius(math.exp(-2.0), K0)


def time_scale_of_x0(x0: float, K0: float, T: float) -> float:
    """T - t0(x0) on the monotone branch, by :func:`scale_radius_inverse`,
    at full relative precision (~1e-13); T - t0 itself would lose the tail
    digits.  It plateaus at T - t0 = e^-2 for |x0| beyond
    :func:`default_delta`, which lies below the peak of the scale map, so
    every |x0| up to it has its anchor on the monotone branch.
    """
    if x0 == 0.0 or not math.isfinite(x0):
        raise ValueError(f"x0 must be finite and nonzero (the origin is the blow-up point), "
                         f"got {x0!r}")
    if not K0 > 0.0:
        raise ValueError(f"K0 must be positive, got {K0}")
    if not T > 0.0:
        raise ValueError(f"T must be positive, got {T}")
    delta = default_delta(K0)
    x_eff = min(abs(x0), delta)
    radius = f"|x0|={abs(x0):.6g}"
    if abs(x0) > delta:
        radius += f" (clipped to delta={delta:.6g})"
    s_hi = min(S_TURN, T)
    if scale_radius(s_hi, K0) < x_eff:
        raise ValueError(f"unreachable: {radius} needs T-t0 > T={T:.6g} (t0 < 0)")
    if scale_radius(S_FLOOR, K0) > x_eff:
        raise ValueError(f"unreachable: {radius} below the resolvable range")
    return scale_radius_inverse(x_eff, K0, s_hi)


@dataclass
class SimilarityFrame:
    """Sampled local rescaling around x0: v and w on a (tau, xi) grid."""

    x0: float
    K0: float
    t0: float
    s0: float                  # T - t0 at full precision
    tau_grid: np.ndarray
    xi_grid: np.ndarray
    v: np.ndarray              # shape (n_tau, n_xi)
    w: np.ndarray
    params: ModelParams
    window: float              # requested half-width in xi
    window_eff: float          # delivered half-width after clipping
    clipped: bool

    @property
    def log_scale(self) -> float:
        """|log(T - t0)| of the frame anchor."""
        return abs(math.log(self.s0))


def extract_frame(trajectory: Trajectory, x0: float, K0: float, T: float,
                  window: float | None = None) -> SimilarityFrame:
    """Fill a similarity frame from trajectory snapshots.

    ``window`` defaults to max(1, 2 |log(T-t0)|^(1/4)), wide enough for every
    diagnostic below; it is clipped (and flagged) when the physical extent
    |x0| + window*sqrt(T-t0) would leave the grid.  The tau grid is the
    snapshot times mapped into [0, 1), which keeps the time interpolation
    exact at the sample points.
    """
    grid = trajectory.config.grid
    params = trajectory.config.params
    s0 = time_scale_of_x0(x0, K0, T)
    if not s0 < 1.0:
        raise ValueError(f"log degenerate: T-t0 = {s0} >= 1")
    t0 = T - s0
    L0 = abs(math.log(s0))
    sqrt_s0 = math.sqrt(s0)

    if window is None:
        window = max(1.0, 2.0 * L0 ** 0.25)
    elif not 0.0 < window < math.inf:
        raise ValueError(f"window must be finite and positive, got {window}")
    window_eff = window
    clipped = False
    max_extent = (grid.R - abs(x0)) / sqrt_s0
    if window > max_extent:
        window_eff = max_extent * (1.0 - 1e-9)
        clipped = True
        if window_eff <= 0.0:
            raise CoverageGapError(f"x0={x0} leaves no room on the grid (R={grid.R})")

    times = trajectory.times
    if times[0] > t0:
        raise CoverageGapError(
            f"coverage gap: tau in [0, {min((times[0] - t0) / s0, 1.0):.4g}) "
            f"not covered (first snapshot at t={times[0]:.6g} > t0={t0:.6g})"
        )
    t_last = float(times[-1])
    tau_max = min((t_last - t0) / s0, 1.0 - 1e-12)
    if tau_max <= 0.0:
        raise CoverageGapError(f"coverage gap: trajectory ends at t={t_last} <= t0={t0}")

    # snapshot times increase strictly, so the taus come sorted; rounding
    # and the clip can only tie neighbours
    taus = (times[(times > t0) & (times < T)] - t0) / s0
    taus = np.concatenate([[0.0], np.clip(taus, 0.0, tau_max)])
    taus = taus[np.concatenate([[True], taus[1:] != taus[:-1]])]

    per_node = window_eff * sqrt_s0 / grid.h
    n_half = int(min(max(math.ceil(per_node), 32), 512))
    xi = np.linspace(-window_eff, window_eff, 2 * n_half + 1)

    x_phys = x0 + xi * sqrt_s0
    r_phys = np.abs(x_phys)
    sign = np.sign(x_phys)

    amp_v = s0 ** (1.0 / (params.p - 1.0))
    amp_w = amp_v * sqrt_s0

    # each tau's snapshots (k-1, k) and its weight theta between them
    t_target = t0 + taus * s0
    k = np.clip(np.searchsorted(times, t_target, side="right"), 1, len(times) - 1)
    tk0, tk1 = times[k - 1], times[k]  # strictly increasing: tk1 > tk0
    theta = np.clip((t_target - tk0) / (tk1 - tk0), 0.0, 1.0)[:, None]

    # each xi's node bracket [j, j+1] as np.interp finds it; on a node, and
    # at or past R, np.interp takes the node's value
    nodes = grid.r
    j = np.searchsorted(nodes, r_phys, side="right") - 1
    at = np.minimum(j, grid.M)
    on_node = (r_phys == nodes[at]) | (j >= grid.M)
    left = np.minimum(j, grid.M - 1)
    lo, hi = int(left.min()), int(left.max()) + 2  # the nodes the brackets read
    offset = r_phys - nodes[left]
    dx = np.diff(nodes[lo:hi])
    left, at = left - lo, at[on_node] - lo  # as columns of nodes lo..hi-1

    # the nodes from one below lo to one above hi - 1 of every snapshot,
    # snapshot i in row i, and their gradients: each node lo..hi-1 is an
    # inner cell of the stencil or the field's own r = 0 or r = R
    first = max(lo - 1, 0)
    block = _block([snap.values[first:hi + 1] for snap in trajectory.snapshots])
    grads = _gradient_values(block, grid.h, trajectory.config.boundary)
    cells = slice(lo - first, hi - first)

    def sample(stack: np.ndarray, what: str) -> np.ndarray:
        """np.interp(r_phys, nodes, row) of each tau's row of ``stack``
        interpolated in time, by np.interp's arithmetic."""
        y = (1.0 - theta) * stack[k - 1, cells] + theta * stack[k, cells]
        out = ((y[:, 1:] - y[:, :-1]) / dx)[:, left]  # the slopes
        if not np.all(np.isfinite(out)):
            raise ValueError(f"the {what} near x0={x0!r} is too large to interpolate "
                             "(a non-finite slope between two nodes)")
        out *= offset
        out += y[:, left]
        out[:, on_node] = y[:, at]
        return out

    v = sample(block, "field")
    v *= amp_v
    w = sample(grads, "gradient")
    w *= amp_w * sign

    return SimilarityFrame(
        x0=float(x0), K0=float(K0), t0=t0, s0=s0,
        tau_grid=taus, xi_grid=xi, v=v, w=w, params=params,
        window=float(window), window_eff=float(window_eff),
        clipped=clipped,
    )


def threshold_check(frame: SimilarityFrame) -> float:
    """Smallest eps0 such that, on the sampled frame,

        (|v| + sqrt(1-tau) |w|) (1-tau)^(1/(p-1)) <= eps0

    for all |xi| < 1 and all covered tau."""
    mask = np.abs(frame.xi_grid) < 1.0
    if not np.any(mask):
        raise ValueError("frame does not cover |xi| < 1")
    one_minus = (1.0 - frame.tau_grid)[:, None]
    p = frame.params.p
    quantity = (np.abs(frame.v[:, mask])
                + np.sqrt(one_minus) * np.abs(frame.w[:, mask])) \
        * one_minus ** (1.0 / (p - 1.0))
    return float(np.max(quantity))


def boundedness_report(frame: SimilarityFrame) -> float:
    """Sup of |v| + |w| over |xi| <= min(1, delivered window) and all
    covered tau. A finite, tau-stable value is the no-blow-up conclusion at
    desk scale."""
    mask = np.abs(frame.xi_grid) <= min(1.0, frame.window_eff)
    return float(np.max(np.abs(frame.v[:, mask]) + np.abs(frame.w[:, mask])))


def w_smallness(frame: SimilarityFrame) -> float:
    """Smallest C with sup |w| <= C / |log(T-t0)|^(1/4) over |xi| up to
    2|log(T-t0)|^(1/4) (clipped to the delivered window)."""
    L0 = frame.log_scale
    half = min(2.0 * L0 ** 0.25, frame.window_eff)
    mask = np.abs(frame.xi_grid) <= half
    return float(np.max(np.abs(frame.w[:, mask]))) * L0 ** 0.25


def v_sharp_behavior(frame: SimilarityFrame) -> float:
    """Smallest C with sup |v - v_K0(tau)| <= C / |log(T-t0)|^(1/4) over
    |xi| up to |log(T-t0)|^(1/4) (clipped to the delivered window).

    The edge node counts whatever its last bit: on the default xi grid with
    an even n_half a node sits at the edge up to rounding, so the mask takes
    a relative slack of 1e-9.  With an odd n_half the nearest node is at
    least edge/512 away, outside any slack that small."""
    L0 = frame.log_scale
    half = min(L0 ** 0.25, frame.window_eff)
    mask = np.abs(frame.xi_grid) <= half * (1.0 + 1e-9)
    flat = v_K0(frame.tau_grid, frame.K0, frame.params)[:, None]
    return float(np.max(np.abs(frame.v[:, mask] - flat))) * L0 ** 0.25


@dataclass(frozen=True)
class FrameReport:
    """Measured frame constants; all nonnegative by construction."""

    x0: float
    K0: float
    t0: float
    eps0_measured: float
    M_measured: float
    w_sup_decay: float
    v_minus_vK0_sup: float
    clipped: bool


def frame_report(frame: SimilarityFrame) -> FrameReport:
    """Run all four frame diagnostics on an extracted frame."""
    return FrameReport(
        x0=frame.x0, K0=frame.K0, t0=frame.t0,
        eps0_measured=threshold_check(frame),
        M_measured=boundedness_report(frame),
        w_sup_decay=w_smallness(frame),
        v_minus_vK0_sup=v_sharp_behavior(frame),
        clipped=frame.clipped,
    )


@dataclass(frozen=True)
class FinalProfilePoint:
    r: float
    u_last: float
    prediction: float
    ratio: float
    grad_last: float
    grad_envelope_unit: float  # gradient bound shape evaluated with C = 1
    converged: bool


@dataclass(frozen=True)
class FinalProfileTable:
    points: list[FinalProfilePoint]
    grad_C: float  # smallest C validating the gradient bound on the sample


def final_profile_extract(trajectory: Trajectory, radii) -> FinalProfileTable:
    """Compare the last recorded field against the limiting-profile
    prediction at each radius.

    A radius still moving between the last two snapshots (> 1% relative) is
    flagged ``converged=False`` rather than trusted.  The gradient column is
    measured against the unit-constant bound shape; ``grad_C`` is the
    smallest constant making the bound hold at every sampled radius.
    """
    if trajectory.status != STATUS_BLOWN_UP:
        raise ValueError(f"trajectory status {trajectory.status!r}, need blown-up")
    if len(trajectory.snapshots) < 2:
        raise ValueError("need at least two snapshots")
    grid = trajectory.config.grid
    params = trajectory.config.params
    last = trajectory.snapshots[-1]
    prev = trajectory.snapshots[-2]
    g_last = _gradient_values(last.values, grid.h, trajectory.config.boundary)

    points = []
    grad_C = 0.0
    for r in np.atleast_1d(np.asarray(radii, dtype=float)):
        if not 0.0 < r < grid.R:
            raise ValueError(f"radius {r} outside (0, R={grid.R})")
        u_now = float(np.interp(r, grid.r, last.values))
        u_before = float(np.interp(r, grid.r, prev.values))
        converged = abs(u_now - u_before) <= 0.01 * max(abs(u_now), 1e-300)
        pred = final_profile(r, params)
        g_now = float(np.interp(r, grid.r, g_last))
        g_unit = final_grad_bound(r, params, C=1.0)
        grad_C = max(grad_C, abs(g_now) / g_unit)
        points.append(FinalProfilePoint(
            r=float(r), u_last=u_now, prediction=pred, ratio=u_now / pred,
            grad_last=g_now, grad_envelope_unit=g_unit, converged=converged,
        ))
    return FinalProfileTable(points=points, grad_C=grad_C)
