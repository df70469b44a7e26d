from dataclasses import asdict

import numpy as np
import pytest

from blowlab.params import (
    BetaWindow,
    ParameterError,
    beta_window,
    gamma_of,
    q_bounds,
    validate,
)


def test_default_instance_derived_constants(default_params):
    p = default_params
    assert p.b == pytest.approx(0.5625, abs=0)
    assert p.gamma == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert p.kappa == pytest.approx(0.6933612743506348, rel=1e-14)
    window = beta_window(4.0, 3.0, 1, 0.1)
    assert window.lo == pytest.approx(0.5)
    assert window.hi == pytest.approx(2.0 / 3.0)
    # default beta is the midpoint
    assert p.beta == pytest.approx(0.5 * (0.5 + 2.0 / 3.0), rel=1e-15)


def test_p_at_most_three_rejected():
    with pytest.raises(ParameterError, match="p>3"):
        validate(p=3.0, q=3.0, mu=0.0, dim=1)


def test_q_upper_bound_rejected():
    # bound is dim*(p-1)/2 + (p+1)/2 = 4 for p=4, dim=1
    assert q_bounds(4.0, 1)[1] == pytest.approx(4.0)
    with pytest.raises(ParameterError, match="q upper bound"):
        validate(p=4.0, q=4.5, mu=0.1, dim=1)


def test_q_lower_bound_rejected():
    with pytest.raises(ParameterError, match="q lower bound"):
        validate(p=4.0, q=2.5, mu=0.1, dim=1)


def test_gamma_of_values():
    assert gamma_of(4.0, 3.0, 1) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert gamma_of(4.0, 5.0, 2) == pytest.approx(1.0 / 6.0, rel=1e-14)
    for p in (3.5, 4.0, 7.25):
        assert gamma_of(p, p, 1) == 0.0


def test_beta_window_mu_nonzero():
    w = beta_window(4.0, 3.0, 1, 0.1)
    assert (w.lo, w.hi, w.closed_lo) == (pytest.approx(0.5), pytest.approx(2 / 3), False)
    assert not w.contains(0.5)  # strict lower bound


def test_beta_window_mu_zero_closed_at_zero():
    w = beta_window(4.0, 3.0, 1, 0.0)
    assert w == BetaWindow(0.0, pytest.approx(2.0 / 3.0), True)
    assert w.contains(0.0)
    assert validate(p=4.0, q=3.0, mu=0.0, dim=1, beta=0.0).beta == 0.0


def test_beta_window_empty():
    # dim/(q-1) = 2 >= 2/(p-1) = 2/3
    with pytest.raises(ParameterError, match="empty"):
        beta_window(4.0, 2.0, 2, 0.1)


def test_beta_outside_window_rejected():
    with pytest.raises(ParameterError, match="beta"):
        validate(p=4.0, q=3.0, mu=0.1, dim=1, beta=0.4)
    with pytest.raises(ParameterError, match="beta"):
        validate(p=4.0, q=3.0, mu=0.1, dim=1, beta=2.0 / 3.0)  # boundary equality


def test_non_finite_inputs_rejected():
    with pytest.raises(ParameterError):
        validate(p=float("nan"), q=3.0, mu=0.0, dim=1)
    with pytest.raises(ParameterError):
        validate(p=4.0, q=3.0, mu=0.0, dim=0)


def test_round_trip_dict(default_params):
    again = type(default_params).from_dict(asdict(default_params))
    assert again == default_params


def _random_valid_tuple(rng):
    p = float(rng.uniform(3.0 + 1e-9, 12.0))
    dim = int(rng.integers(1, 4))
    q_lo, q_hi = q_bounds(p, dim)
    q = float(q_lo + rng.uniform(0.02, 0.98) * (q_hi - q_lo))
    mu = float(rng.uniform(-2.0, 2.0))
    return p, q, mu, dim


def test_accepted_params_invariants_random_sample():
    """Sampled over the admissible region: gamma in (0, 1/2), stored gamma
    agrees with gamma_of, beta strictly interior, and the two product
    inequalities behind the non-local decay bound hold."""
    rng = np.random.default_rng(7)
    for _ in range(500):
        p, q, mu, dim = _random_valid_tuple(rng)
        params = validate(p=p, q=q, mu=mu, dim=dim)
        assert 0.0 < params.gamma < 0.5
        assert params.gamma == pytest.approx(gamma_of(p, q, dim), abs=1e-15)
        window = beta_window(p, q, dim, mu)
        assert window.lo < params.beta < window.hi or (mu == 0 and params.beta == 0)
        assert 2.0 * (q - 1.0) / (p - 1.0) > dim
        if mu != 0:
            assert (q - 1.0) * params.beta > dim
        assert 0.0 <= params.beta < 1.0
