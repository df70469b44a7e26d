"""Model parameters, their admissibility window, and derived constants.

Every run starts here: ``validate`` is the only constructor for
:class:`ModelParams`, so any parameter set floating around the package has
already passed the full admissibility check and carries its derived
constants (``b``, ``gamma``, ``kappa``, the ``beta`` weight) frozen in.

Admissibility for the reaction exponent ``p``, the non-local exponent ``q``
and the perturbation strength ``mu`` in ``dim`` space dimensions:

    p > 3
    dim*(p-1)/2 + 1 < q < dim*(p-1)/2 + (p+1)/2
    mu real

and for the weight exponent ``beta``:

    dim/(q-1) < beta < 2/(p-1)   if mu != 0
    0 <= beta < 2/(p-1)          if mu == 0

All inequalities are strict (boundary values are rejected).
"""
from __future__ import annotations

import math
from dataclasses import dataclass


class ParameterError(ValueError):
    """A model-parameter admissibility violation, naming the failed bound."""


@dataclass(frozen=True)
class BetaWindow:
    """Admissible interval for the weight exponent beta."""

    lo: float
    hi: float
    closed_lo: bool  # True only for mu == 0, where beta = 0 is allowed

    def contains(self, beta: float) -> bool:
        if self.closed_lo:
            return self.lo <= beta < self.hi
        return self.lo < beta < self.hi

    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __str__(self) -> str:
        left = "[" if self.closed_lo else "("
        return f"{left}{self.lo:.6g}, {self.hi:.6g})"


@dataclass(frozen=True)
class ModelParams:
    """Validated parameter set plus derived constants.

    Immutable after construction; safe to share across threads.  Use
    :func:`validate` instead of constructing directly.
    """

    p: float
    q: float
    mu: float
    dim: int
    beta: float
    b: float       # (p-1)^2 / (4p), curvature of the intermediate profile
    gamma: float   # (p-q)/(p-1) + (dim-1)/2, scaling gain of the non-local term
    kappa: float   # (p-1)^(-1/(p-1)), flat blow-up amplitude

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        """Rebuild from the primary fields of ``dataclasses.asdict``, re-running
        validation (the derived constants are computed afresh)."""
        return validate(**{name: data[name] for name in ("p", "q", "mu", "dim", "beta")})


def gamma_of(p: float, q: float, dim: int) -> float:
    """Scaling gain (p-q)/(p-1) + (dim-1)/2 of the rescaled non-local term."""
    return (p - q) / (p - 1) + (dim - 1) / 2.0


def q_bounds(p: float, dim: int) -> tuple[float, float]:
    """Open admissibility interval for q at given p and dimension."""
    return dim * (p - 1) / 2.0 + 1.0, dim * (p - 1) / 2.0 + (p + 1) / 2.0


def beta_window(p: float, q: float, dim: int, mu: float) -> BetaWindow:
    """Admissible window for the weight exponent beta.

    Raises :class:`ParameterError` when the window is empty (only possible
    for mu != 0, where the lower bound dim/(q-1) may meet 2/(p-1)).
    """
    if not q > 1:
        raise ParameterError(f"beta window needs q > 1, got q={q}")
    hi = 2.0 / (p - 1)
    if mu == 0:
        return BetaWindow(0.0, hi, closed_lo=True)
    lo = dim / (q - 1)
    if lo >= hi:
        raise ParameterError(
            f"empty beta window: dim/(q-1) = {lo:.6g} >= 2/(p-1) = {hi:.6g}"
        )
    return BetaWindow(lo, hi, closed_lo=False)


def validate(p: float, q: float, mu: float, dim: int, beta: float | None = None) -> ModelParams:
    """Check admissibility and return a fully derived :class:`ModelParams`.

    When ``beta`` is omitted the midpoint of the admissible window is used
    (any interior point works; the midpoint maximizes margin).
    """
    for name, value in (("p", p), ("q", q), ("mu", mu)):
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
    if not isinstance(dim, int) or dim < 1:
        raise ParameterError(f"dim must be an integer >= 1, got {dim}")
    if beta is not None and not math.isfinite(beta):
        raise ParameterError(f"beta must be finite, got {beta}")

    if not p > 3:
        raise ParameterError(f"p>3 violated (got p={p})")
    q_lo, q_hi = q_bounds(p, dim)
    if not q > q_lo:
        raise ParameterError(
            f"q lower bound violated: q={q} must exceed dim*(p-1)/2+1 = {q_lo:.6g}"
        )
    if not q < q_hi:
        raise ParameterError(
            f"q upper bound violated: q={q} must be below dim*(p-1)/2+(p+1)/2 = {q_hi:.6g}"
        )

    window = beta_window(p, q, dim, mu)
    if beta is None:
        beta = window.midpoint()
    if not window.contains(beta):
        raise ParameterError(f"beta={beta} outside admissible window {window}")

    b = (p - 1) ** 2 / (4.0 * p)
    gamma = gamma_of(p, q, dim)
    kappa = (p - 1) ** (-1.0 / (p - 1))

    # Consequences of the q window; they back the non-local decay estimate
    # and must hold for every accepted parameter set.
    assert 0.0 < gamma < 0.5, f"gamma={gamma} escaped (0, 1/2)"
    assert beta < 1.0, f"beta={beta} escaped [0, 1)"
    assert 2.0 * (q - 1) / (p - 1) > dim
    if mu != 0:
        assert (q - 1) * beta > dim

    return ModelParams(p=float(p), q=float(q), mu=float(mu), dim=dim,
                       beta=float(beta), b=b, gamma=gamma, kappa=kappa)
