"""Local similarity frames around non-blow-up points and their diagnostics.

For a point x0 != 0 the anchor time t0(x0) solves

    |x0| = K0 * sqrt((T - t0) |log(T - t0)|)        (plateau at |x0| > delta)

and the frame variables are

    v(x0, xi, tau) = (T-t0)^(1/(p-1)) u(x0 + xi sqrt(T-t0), t0 + tau (T-t0)),
    w = dv/dxi,

sampled on a (tau, xi) grid by bilinear interpolation of trajectory
snapshots.  The diagnostics measure, on the sampled frame, the smallest
constants for which the no-blow-up threshold hypothesis, the uniform
boundedness conclusion, the gradient-smallness bound and the sharp flat
behavior of v hold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import _gradient_values
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


def time_scale_of_x0(x0: float, K0: float, T: float, delta: float | None = None) -> float:
    """T - t0(x0) on the monotone branch, by :func:`scale_radius_inverse`.

    Returned at full relative precision (~1e-13); prefer this over
    ``T - t0_of_x0(...)`` whenever T - t0 itself is the quantity of
    interest, since the subtraction loses the tail digits.
    """
    if x0 == 0.0:
        raise ValueError("x0 must be nonzero (the origin is the blow-up point)")
    if not K0 > 0.0:
        raise ValueError(f"K0 must be positive, got {K0}")
    if not T > 0.0:
        raise ValueError(f"T must be positive, got {T}")
    if delta is None:
        delta = default_delta(K0)
    x_eff = min(abs(x0), delta)

    s_hi = min(S_TURN, T)
    if scale_radius(s_hi, K0) < x_eff:
        if s_hi < S_TURN:
            raise ValueError(
                f"unreachable: |x0|={x_eff:.6g} needs T-t0 > T={T:.6g} (t0 < 0)"
            )
        raise ValueError(
            "non-monotone regime: "
            f"|x0|={x_eff:.6g} unreachable, the scale map peaks at "
            f"{scale_radius(S_TURN, K0):.6g} where T-t0 = 1/e"
        )

    if scale_radius(S_FLOOR, K0) > x_eff:
        raise ValueError(f"unreachable: |x0|={x_eff:.6g} below the resolvable range")
    return scale_radius_inverse(x_eff, K0, s_hi)


def t0_of_x0(x0: float, K0: float, T: float, delta: float | None = None) -> float:
    """Anchor time t0(x0) in [0, T); plateaus at t0(delta) for |x0| > delta."""
    return T - time_scale_of_x0(x0, K0, T, delta)


@dataclass
class SimilarityFrame:
    """Sampled local rescaling around x0: v and w on a (tau, xi) grid."""

    x0: float
    K0: float
    t0: float
    T: float
    s0: float                  # T - t0 at full precision
    tau_grid: np.ndarray
    xi_grid: np.ndarray
    v: np.ndarray              # shape (n_tau, n_xi)
    w: np.ndarray
    params: ModelParams
    window: float              # requested half-width in xi
    window_eff: float          # delivered half-width after clipping
    clipped: bool
    tau_max: float             # largest covered tau

    @property
    def log_scale(self) -> float:
        """|log(T - t0)| of the frame anchor."""
        return abs(math.log(self.s0))


def extract_frame(trajectory: Trajectory, x0: float, K0: float, T: float,
                  window: float | None = None, tau_grid=None) -> SimilarityFrame:
    """Fill a similarity frame from trajectory snapshots.

    ``window`` defaults to max(1, 2 |log(T-t0)|^(1/4)), wide enough for every
    diagnostic below; it is clipped (and flagged) when the physical extent
    |x0| + window*sqrt(T-t0) would leave the grid.  The tau grid defaults to
    the snapshot times mapped into [0, 1), which keeps the time
    interpolation exact at the sample points.
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

    if tau_grid is None:
        taus = (times[(times > t0) & (times < T)] - t0) / s0
        taus = np.unique(np.concatenate([[0.0], np.clip(taus, 0.0, tau_max)]))
    else:
        taus = np.asarray(tau_grid, dtype=float)
        if np.any(taus < 0.0) or np.any(taus >= 1.0):
            raise ValueError("tau values must lie in [0, 1)")
        if np.any(taus > tau_max):
            raise CoverageGapError(
                f"coverage gap: tau in ({tau_max:.6g}, {float(np.max(taus)):.6g}] "
                "beyond the trajectory"
            )
        taus = np.sort(taus)

    per_node = window_eff * sqrt_s0 / grid.h
    n_half = int(min(max(math.ceil(per_node), 32), 512))
    xi = np.linspace(-window_eff, window_eff, 2 * n_half + 1)

    x_phys = x0 + xi * sqrt_s0
    r_phys = np.abs(x_phys)
    sign = np.sign(x_phys)

    amp_v = s0 ** (1.0 / (params.p - 1.0))
    amp_w = amp_v * sqrt_s0

    grads: dict[int, np.ndarray] = {}

    def grad_of(k: int) -> np.ndarray:
        if k not in grads:
            grads[k] = _gradient_values(trajectory.snapshots[k].values, grid.h,
                                        trajectory.config.boundary)
        return grads[k]

    nodes = grid.r
    v = np.empty((len(taus), len(xi)))
    w = np.empty_like(v)
    for j, tau in enumerate(taus):
        t_target = t0 + tau * s0
        k = int(np.searchsorted(times, t_target, side="right"))
        k = min(max(k, 1), len(times) - 1)
        tk0, tk1 = times[k - 1], times[k]
        theta = 0.0 if tk1 == tk0 else (t_target - tk0) / (tk1 - tk0)
        theta = min(max(theta, 0.0), 1.0)
        u_t = (1.0 - theta) * trajectory.snapshots[k - 1].values \
            + theta * trajectory.snapshots[k].values
        g_t = (1.0 - theta) * grad_of(k - 1) + theta * grad_of(k)
        v[j] = amp_v * np.interp(r_phys, nodes, u_t)
        w[j] = amp_w * sign * np.interp(r_phys, nodes, g_t)

    return SimilarityFrame(
        x0=float(x0), K0=float(K0), t0=t0, T=float(T), s0=s0,
        tau_grid=taus, xi_grid=xi, v=v, w=w, params=params,
        window=float(window), window_eff=float(window_eff),
        clipped=clipped, tau_max=float(tau_max),
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


def boundedness_report(frame: SimilarityFrame, inner_radius: float = 1.0) -> float:
    """Sup of |v| + |w| over |xi| <= inner_radius and all covered tau. A
    finite, tau-stable value is the no-blow-up conclusion at desk scale."""
    if inner_radius > frame.window_eff:
        raise ValueError(
            f"inner_radius {inner_radius} exceeds frame window {frame.window_eff:.6g}"
        )
    mask = np.abs(frame.xi_grid) <= inner_radius
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
    |xi| up to |log(T-t0)|^(1/4) (clipped to the delivered window)."""
    L0 = frame.log_scale
    half = min(L0 ** 0.25, frame.window_eff)
    mask = np.abs(frame.xi_grid) <= half
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

    def to_dict(self) -> dict:
        return {
            "x0": self.x0, "K0": self.K0, "t0": self.t0,
            "eps0_measured": self.eps0_measured,
            "M_measured": self.M_measured,
            "w_sup_decay": self.w_sup_decay,
            "v_minus_vK0_sup": self.v_minus_vK0_sup,
            "clipped": self.clipped,
        }


def frame_report(frame: SimilarityFrame) -> FrameReport:
    """Run all four frame diagnostics on an extracted frame."""
    return FrameReport(
        x0=frame.x0, K0=frame.K0, t0=frame.t0,
        eps0_measured=threshold_check(frame),
        M_measured=boundedness_report(frame, min(1.0, frame.window_eff)),
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

    def to_dict(self) -> dict:
        return {
            "r": self.r, "u_last": self.u_last, "prediction": self.prediction,
            "ratio": self.ratio, "grad_last": self.grad_last,
            "grad_envelope_unit": self.grad_envelope_unit,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class FinalProfileTable:
    points: list[FinalProfilePoint]
    grad_C: float  # smallest C validating the gradient bound on the sample

    def to_dict(self) -> dict:
        return {"points": [p.to_dict() for p in self.points], "grad_C": self.grad_C}


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
