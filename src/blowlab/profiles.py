"""Closed-form blow-up predictors.

The self-similar shape near the blow-up time, its gradient, the space-time
prediction of the solution (with its error envelope), the limiting profile
left behind at non-blow-up points, the bound on its gradient, and the flat
ODE solution that the local rescaled solution tracks.

All functions accept scalars or numpy arrays in their space/time arguments
and are pure.  Natural logarithm throughout; quantities of the form
``|log(T-t)|`` require ``0 < T-t < 1`` and out-of-range arguments raise
instead of silently taking absolute values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ModelParams


@dataclass(frozen=True)
class ProfilePrediction:
    """A predicted value together with the envelope of its error bound."""

    value: float
    envelope: float


def f_profile(z, params: ModelParams):
    """Self-similar amplitude shape (p-1 + b z^2)^(-1/(p-1)).

    Strictly decreasing in |z|; equals ``params.kappa`` at z = 0.
    """
    z = np.asarray(z, dtype=float)
    out = (params.p - 1.0 + params.b * z * z) ** (-1.0 / (params.p - 1.0))
    return out if out.ndim else float(out)


def grad_f_profile(z, params: ModelParams):
    """d/dz of :func:`f_profile`: -(2bz/(p-1)) (p-1+b z^2)^(-p/(p-1))."""
    z = np.asarray(z, dtype=float)
    p, b = params.p, params.b
    out = -(2.0 * b * z / (p - 1.0)) * (p - 1.0 + b * z * z) ** (-p / (p - 1.0))
    return out if out.ndim else float(out)


def _log_factor(T_minus_t: float) -> float:
    """|ln(T-t)| with the domain check 0 < T-t < 1."""
    if not T_minus_t > 0.0:
        raise ValueError(f"requires t < T, got T-t = {T_minus_t}")
    if T_minus_t >= 1.0:
        raise ValueError(f"log degenerate: T-t = {T_minus_t} >= 1")
    return abs(np.log(T_minus_t))


def intermediate_prediction(x: float, t: float, T: float,
                            params: ModelParams, C: float = 1.0) -> ProfilePrediction:
    """Predicted solution value at (x, t) before blow-up, with envelope.

    value    = (T-t)^(-1/(p-1)) f(|x| / sqrt((T-t)|log(T-t)|))
    envelope = C / (1 + (|x|^2/(T-t))^(beta/2))
               * (T-t)^(-1/(p-1)) / |log(T-t)|^((1-beta)/2)

    C is a report constant (the true constant is not pinned down); callers
    typically measure the smallest admissible C instead of asserting one.
    """
    s = T - t
    L = _log_factor(s)
    p, beta = params.p, params.beta
    amp = s ** (-1.0 / (p - 1.0))
    z = abs(x) / np.sqrt(s * L)
    value = amp * f_profile(z, params)
    weight = 1.0 + (x * x / s) ** (beta / 2.0)
    envelope = C / weight * amp / L ** ((1.0 - beta) / 2.0)
    return ProfilePrediction(float(value), float(envelope))


def final_profile(x, params: ModelParams):
    """Limiting value left at radius |x| after blow-up.

    [8p |log|x|| / ((p-1)^2 |x|^2)]^(1/(p-1)), asymptotic as x -> 0;
    requires 0 < |x| < 1.
    """
    r = np.abs(np.asarray(x, dtype=float))
    if np.any(r == 0.0):
        raise ValueError("origin: the limiting profile diverges at x = 0")
    if np.any(r >= 1.0):
        raise ValueError("log degenerate: requires |x| < 1")
    p = params.p
    out = (8.0 * p * np.abs(np.log(r)) / ((p - 1.0) ** 2 * r * r)) ** (1.0 / (p - 1.0))
    return out if out.ndim else float(out)


def final_grad_bound(x, params: ModelParams, C: float = 1.0):
    """Upper envelope C |x|^(-(p+1)/(p-1)) |log|x||^((p+3)/(4(p-1))) for the
    gradient of the limiting profile; requires 0 < |x| < 1 and C > 0."""
    if not C > 0:
        raise ValueError(f"C must be positive, got {C}")
    r = np.abs(np.asarray(x, dtype=float))
    if np.any(r == 0.0):
        raise ValueError("origin: bound undefined at x = 0")
    if np.any(r >= 1.0):
        raise ValueError("log degenerate: requires |x| < 1")
    p = params.p
    out = C * r ** (-(p + 1.0) / (p - 1.0)) * np.abs(np.log(r)) ** ((p + 3.0) / (4.0 * (p - 1.0)))
    return out if out.ndim else float(out)


def v_K0(tau, K0: float, params: ModelParams):
    """Flat solution of v' = v^p started on the profile at scale K0.

    ((p-1)(1-tau) + b K0^2)^(-1/(p-1)); equals f(K0) at tau = 0 and stays
    finite as tau -> 1.
    """
    if not K0 > 0:
        raise ValueError(f"K0 must be positive, got {K0}")
    tau = np.asarray(tau, dtype=float)
    p, b = params.p, params.b
    out = ((p - 1.0) * (1.0 - tau) + b * K0 * K0) ** (-1.0 / (p - 1.0))
    return out if out.ndim else float(out)
