"""Self-tests of the output checks: each must accept a correct synthetic
output and reject a deliberately wrong one.

    python3 perfbench/selftest.py

``run.py`` runs these before every benchmark run and refuses to measure if
one fails.
"""
from __future__ import annotations

import math
import sys

import numpy as np

import checks


def _ode_history(p: float, h: float, argmax_r: float) -> np.ndarray:
    """Rows (t, sup, argmax_r, dt) following sup = kappa (T-t)^(-1/(p-1))
    from sup = 10 up to the cap."""
    T = 0.01
    sup = np.geomspace(10.0, 1.2 * checks.CAP, 400)
    to_end = (sup / checks.kappa(p)) ** (-(p - 1.0))
    t = T - to_end
    dt = np.concatenate([[0.0], -np.diff(to_end)])  # exact where t has rounded to T
    return np.column_stack([t, sup, np.full_like(t, argmax_r), dt])


def _anchor_t0(T: float, K0: float, x0: float) -> float:
    lo, hi = math.log(1e-300), -1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if K0 * math.sqrt(math.exp(mid) * abs(mid)) < x0:
            lo = mid
        else:
            hi = mid
    return T - math.exp(0.5 * (lo + hi))


def _expect(name: str, good: list, bad: list) -> list[str]:
    problems = []
    if good:
        problems.append(f"{name}: correct output rejected: {good}")
    if not bad:
        problems.append(f"{name}: wrong output accepted")
    return problems


def run() -> list[str]:
    p, q, dim, h = 4.0, 3.0, 1, 1.0 / 1024
    problems = []

    k = checks.kappa(p)
    problems += _expect("kappa off by 10%", checks.kappa_errors(1.01 * k, p),
                        checks.kappa_errors(1.10 * k, p))

    r = np.linspace(0.0, 1.0, 257)
    u = 5.0 * np.exp(-(r / 0.2) ** 2)
    J = checks.ball_integral(r, u, q, dim)
    dented = J.copy()
    dented[100] = dented[99] * 0.999
    problems += _expect("decreasing J", checks.field_errors(r, u, J, q, dim),
                        checks.field_errors(r, u, dented, q, dim))

    problems += _expect("argmax off the origin",
                        checks.tail_errors(_ode_history(p, h, 0.0), p, h),
                        checks.tail_errors(_ode_history(p, h, 1.0 - h), p, h))
    row = {"status": "'blown-up'", "p": "4.0", "kappa_est": repr(1.01 * k),
           "T_est": "np.float64(0.01)", "error": ""}
    good_tag, _ = checks.classify_point(row, np.array([0.01, 1.1e8, 0.0, 1e-20]), h)
    bad_tag, _ = checks.classify_point(row, np.array([0.01, 1.1e8, 1.0 - h, 1e-20]), h)
    problems += _expect("sweep argmax off the origin", [good_tag] if good_tag else [],
                        [bad_tag] if bad_tag == checks.FAULT_BOUNDARY else [])

    T, K0 = 0.0107, 4.0
    reports = [{"x0": x0, "t0": _anchor_t0(T, K0, x0)} for x0 in (0.2, 0.1, 0.05)]
    shifted = [dict(rep) for rep in reports]
    shifted[1]["t0"] -= 1e-6 * (T - shifted[1]["t0"])
    problems += _expect("t0 off its anchor", checks.anchor_errors(T, K0, reports),
                        checks.anchor_errors(T, K0, shifted))
    return problems


if __name__ == "__main__":
    found = run()
    for problem in found:
        print(problem)
    print("check self-tests:", "FAILED" if found else "passed")
    sys.exit(1 if found else 0)
