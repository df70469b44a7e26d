import numpy as np
import pytest

from blowlab.profiles import (
    f_profile,
    final_grad_bound,
    final_profile,
    grad_f_profile,
    intermediate_prediction,
    v_K0,
)


def test_f_profile_values(default_params):
    p = default_params
    assert f_profile(0.0, p) == pytest.approx(p.kappa, rel=1e-15)
    # (3 + 0.5625)^(-1/3), checked against a 30-digit evaluation
    assert f_profile(1.0, p) == pytest.approx(0.65475935015608175, rel=1e-14)
    z = np.linspace(0.0, 50.0, 400)
    vals = f_profile(z, p)
    assert np.all(np.diff(vals) < 0)          # strictly decreasing
    assert f_profile(1e8, p) < 1e-5           # -> 0 at infinity


def test_grad_f_profile_values(default_params):
    p = default_params
    assert grad_f_profile(0.0, p) == 0.0
    # -(2b/ (p-1)) (p-1+b)^{-p/(p-1)}, 30-digit evaluation
    assert grad_f_profile(1.0, p) == pytest.approx(-0.06892203685853492, rel=1e-13)
    z = np.linspace(1e-6, 30.0, 300)
    assert np.all(grad_f_profile(z, p) < 0.0)


def test_grad_f_matches_central_differences(default_params):
    p = default_params
    z = np.linspace(0.0, 100.0, 751)
    step = 1e-5
    fd = (f_profile(z + step, p) - f_profile(z - step, p)) / (2 * step)
    exact = grad_f_profile(z, p)
    scale = np.maximum(np.abs(exact), 1e-12)
    assert np.max(np.abs(fd - exact) / scale) < 1e-6


def test_intermediate_prediction_at_origin(default_params):
    p = default_params
    pred = intermediate_prediction(0.0, 0.0, 1e-4, p)
    assert pred.value == pytest.approx(p.kappa * 1e-4 ** (-1.0 / 3.0), rel=1e-14)
    assert pred.value == pytest.approx(14.938015821857216, rel=1e-13)
    # weight equals 1 at x=0
    assert pred.envelope == pytest.approx(
        1e-4 ** (-1 / 3.0) / abs(np.log(1e-4)) ** ((1 - p.beta) / 2), rel=1e-13)


def test_intermediate_prediction_log_degenerate(default_params):
    with pytest.raises(ValueError, match="log degenerate"):
        intermediate_prediction(0.0, 0.0, 1.5, default_params)
    with pytest.raises(ValueError, match="t < T"):
        intermediate_prediction(0.0, 1.0, 0.5, default_params)


def test_envelope_ratio_constant_when_beta_zero():
    from blowlab.params import validate
    p0 = validate(p=4.0, q=3.0, mu=0.0, dim=1, beta=0.0)
    s = 1e-3
    vals = [intermediate_prediction(x, 0.0, s, p0).envelope for x in (0.0, 0.05, 0.3)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-14)
    assert vals[0] == pytest.approx(vals[2], rel=1e-14)


def test_final_profile_value_and_monotonicity(default_params):
    p = default_params
    assert final_profile(1e-3, p) == pytest.approx(290.67976746564101, rel=1e-13)
    r = np.linspace(1e-4, np.exp(-0.5), 500)
    vals = final_profile(r, p)
    assert np.all(np.diff(vals) < 0)  # strictly decreasing on (0, e^{-1/2}]


def test_final_profile_scaling_constant(default_params):
    # p=4: u*(r) r^{2/3} |log r|^{-1/3} = (32/9)^{1/3} for every r
    p = default_params
    const = (32.0 / 9.0) ** (1.0 / 3.0)
    for r in (1e-5, 1e-3, 0.1, 0.5):
        got = final_profile(r, p) * r ** (2.0 / 3.0) * abs(np.log(r)) ** (-1.0 / 3.0)
        assert got == pytest.approx(const, rel=1e-13)


def test_final_profile_identity_with_similarity_form(default_params):
    # u*(r) == (b r^2 / (2|log r|))^{-1/(p-1)} exactly (same algebra)
    p = default_params
    for r in (1e-6, 1e-3, 0.2, 0.9):
        other = (p.b * r * r / (2.0 * abs(np.log(r)))) ** (-1.0 / (p.p - 1.0))
        assert final_profile(r, p) == pytest.approx(other, rel=5e-15)


def test_final_profile_domain_errors(default_params):
    with pytest.raises(ValueError, match="origin"):
        final_profile(0.0, default_params)
    with pytest.raises(ValueError, match="log degenerate"):
        final_profile(1.0, default_params)


def test_final_grad_bound(default_params):
    p = default_params
    assert final_grad_bound(1e-3, p, C=1.0) == pytest.approx(308754.44381832718, rel=1e-13)
    # exponent of |x| is -(p+1)/(p-1) = -5/3 for p=4
    ratio = final_grad_bound(2e-3, p) / final_grad_bound(1e-3, p)
    log_part = (abs(np.log(2e-3)) / abs(np.log(1e-3))) ** (7.0 / 12.0)
    assert ratio == pytest.approx(2.0 ** (-5.0 / 3.0) * log_part, rel=1e-13)
    # linear in C
    assert final_grad_bound(1e-2, p, C=3.5) == pytest.approx(
        3.5 * final_grad_bound(1e-2, p, C=1.0), rel=1e-15)
    with pytest.raises(ValueError, match="C"):
        final_grad_bound(1e-2, p, C=0.0)


def test_v_K0_values(default_params):
    p = default_params
    assert v_K0(0.0, 4.0, p) == pytest.approx(f_profile(4.0, p), rel=1e-15)
    # ((p-1)(1-tau) + b K0^2)^{-1/3} = 10.5^{-1/3} at tau=1/2, K0=4
    assert v_K0(0.5, 4.0, p) == pytest.approx(10.5 ** (-1.0 / 3.0), rel=1e-14)
    # finite limit at tau -> 1: (b K0^2)^{-1/(p-1)}
    assert v_K0(1.0 - 1e-12, 4.0, p) == pytest.approx(9.0 ** (-1 / 3.0), rel=1e-9)


def test_v_K0_satisfies_ode(default_params):
    """Finite-difference residual of v' = v^p below 1e-6 relative."""
    p = default_params
    tau = np.linspace(0.001, 0.995, 300)
    step = 1e-6
    for K0 in (0.5, 2.0, 4.0, 10.0):
        v = v_K0(tau, K0, p)
        dv = (v_K0(tau + step, K0, p) - v_K0(tau - step, K0, p)) / (2 * step)
        assert np.max(np.abs(dv - v ** p.p) / v ** p.p) < 1e-6
