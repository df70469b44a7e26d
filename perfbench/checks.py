"""Output checks, computed apart from blowlab.

Nothing here imports blowlab: every reference value (kappa, the limiting
profile, the ball integral, the anchor relation, the singular integral) is
recomputed from a closed form, evaluated with numpy or mpmath.
Each ``*_errors`` function returns a list of messages; empty means pass.
"""
from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

CAP = 1e8
PROFILE_RADII = (0.05, 0.1, 0.2)
FAULT_BETA = "beta-frozen"          # fault (a): the sweep reuses the base point's beta
FAULT_BOUNDARY = "boundary-blowup"  # fault (b): the maximum sits at the outer wall
FAULT_OTHER = "other"


def kappa(p: float) -> float:
    return (p - 1.0) ** (-1.0 / (p - 1.0))


def limiting_profile(r, p: float):
    r = np.asarray(r, dtype=float)
    return (8.0 * p * np.abs(np.log(r)) / ((p - 1.0) ** 2 * r * r)) ** (1.0 / (p - 1.0))


def sphere_area(dim: int) -> float:
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def ball_integral(r: np.ndarray, u: np.ndarray, q: float, dim: int) -> np.ndarray:
    """Trapezoid prefix of sigma_N |u|^(q-1) r^(N-1)."""
    y = sphere_area(dim) * np.abs(u) ** (q - 1.0) * r ** (dim - 1.0)
    return np.concatenate([[0.0], np.cumsum(np.diff(r) * (y[1:] + y[:-1]) / 2.0)])


def read_numeric_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header names and float rows of a CSV whose comment lines start with '#'.

    Values may be written as numpy reprs (``np.float64(0.5)``), as
    ``field_final.csv`` has them today."""
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    header = lines[0].strip().split(",")
    body = "".join(lines[1:]).replace("np.float64(", "").replace(")", "")
    return header, np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)


def parse_float(text: str) -> float:
    """A float written bare or as a numpy repr such as ``np.float64(0.01)``."""
    match = re.fullmatch(r"\s*(?:np\.float64\()?([^()]*?)\)?\s*", text)
    return float(match.group(1))


# -- blowup ----------------------------------------------------------------

def kappa_errors(kappa_est: float, p: float, tol: float = 0.05) -> list[str]:
    if not abs(kappa_est / kappa(p) - 1.0) <= tol:
        return [f"kappa_est {kappa_est:.6g} not within {tol:.0%} of {kappa(p):.6g}"]
    return []


def tail_errors(hist: np.ndarray, p: float, h: float) -> list[str]:
    """History rows (t, sup, argmax_r, dt): the cap is reached at the origin,
    and (T-t)^(1/(p-1)) sup stays near kappa over the last decade, with T-t
    from a backward sum of dt plus the ODE tail beyond the last row."""
    errors = []
    sup, argmax, dt = hist[:, 1], hist[:, 2], hist[:, 3]
    if not sup[-1] >= CAP:
        errors.append(f"last sup {sup[-1]:.4g} below the cap {CAP:g}")
    if not argmax[-1] <= 2.0 * h * (1 + 1e-9):
        errors.append(f"last argmax r={argmax[-1]:.6g} is not within 2h={2 * h:.6g} of the origin")
    i0 = int(np.argmax(sup >= sup[-1] / 10.0))
    tail = sup[-1] ** (1.0 - p) / (p - 1.0)
    to_end = np.concatenate([np.cumsum(dt[i0 + 1:][::-1])[::-1], [0.0]]) + tail
    law = to_end ** (1.0 / (p - 1.0)) * sup[i0:] / kappa(p)
    worst = float(np.max(np.abs(law - 1.0)))
    if not worst <= 0.15:
        errors.append(f"amplitude law off by {worst:.3f} over the last decade")
    return errors


def field_errors(r: np.ndarray, u: np.ndarray, J: np.ndarray, q: float, dim: int) -> list[str]:
    errors = []
    if not np.all(u >= 0.0):
        errors.append("final field has negative values")
    if J[0] != 0.0:
        errors.append(f"J(0) = {J[0]!r}, not 0")
    if not np.all(np.diff(J) >= 0.0):
        errors.append("J decreases somewhere")
    ref = ball_integral(r, u, q, dim)
    gap = float(np.max(np.abs(J - ref))) / max(float(np.max(ref)), 1e-300)
    if not gap <= 1e-9:
        errors.append(f"J differs from the trapezoid ball integral by {gap:.3g} (relative)")
    return errors


def localization_errors(r: np.ndarray, snapshots: np.ndarray, r_min: float = 0.1) -> list[str]:
    """While sup > 1e6, sup over r >= r_min stays below 10x its initial value."""
    far = np.max(np.abs(snapshots[:, r >= r_min - 1e-12]), axis=1)
    hot = np.max(np.abs(snapshots), axis=1) > 1e6
    if not np.any(hot):
        return ["no snapshot with sup > 1e6"]
    worst = float(np.max(far[hot])) / far[0]
    return [] if worst < 10.0 else [f"far field grew {worst:.3g}x while the core blew up"]


def profile_errors(r: np.ndarray, u: np.ndarray, p: float) -> list[str]:
    ratio = np.interp(PROFILE_RADII, r, u) / limiting_profile(PROFILE_RADII, p)
    bad = [f"r={x:g}: {v:.3f}" for x, v in zip(PROFILE_RADII, ratio) if not 0.5 <= v <= 2.0]
    return [f"u / limiting profile outside [0.5, 2] at {', '.join(bad)}"] if bad else []


def check_blowup(out: Path, p: float, q: float, dim: int, h: float) -> list[str]:
    summary = json.loads((out / "run_summary.json").read_text())
    if summary["status"] != "blown-up":
        return [f"status {summary['status']!r}, expected 'blown-up'"]
    errors = kappa_errors(json.loads((out / "blowup_estimate.json").read_text())["kappa_est"], p)
    _, hist = read_numeric_csv(out / "trajectory.csv")
    errors += tail_errors(hist, p, h)
    header, field = read_numeric_csv(out / "field_final.csv")
    col = {name: field[:, i] for i, name in enumerate(header)}
    errors += field_errors(col["r"], col["u"], col["J"], q, dim)
    errors += profile_errors(col["r"], col["u"], p)
    with np.load(out / "snapshots.npz") as data:
        errors += localization_errors(col["r"], data["values"])
    return errors


# -- verify ----------------------------------------------------------------

def singular_integral(alpha: float, theta: float, tau: float) -> float:
    """int_0^tau (tau-s)^(-alpha) (1-s)^(-theta) ds in closed form.

    With s = tau x the integral is Euler's integral of 2F1, giving
    tau^(1-alpha) / (1-alpha) * 2F1(theta, 1; 2-alpha; tau); mpmath evaluates
    it to 30 digits.  (Plain tanh-sinh quadrature of the original integrand
    misses by up to 1e-3 when alpha is near 1.)"""
    import mpmath

    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        value = mpmath.mpf(tau) ** (1 - a) / (1 - a) * mpmath.hyp2f1(theta, 1, 2 - a, tau)
    return float(value)


def integral_rows_errors(rows: np.ndarray, n_oracle: int = 12) -> list[str]:
    """Rows (alpha, theta, tau, numeric, bound, ok): numeric <= bound + 1e-6
    everywhere, and n_oracle rows spread over the grid match the closed form
    to 1e-8."""
    errors = []
    over = rows[:, 3] > rows[:, 4] + 1e-6
    if np.any(over):
        errors.append(f"{int(np.sum(over))} rows exceed their bound")
    live = np.flatnonzero(rows[:, 2] > 0.0)
    if len(live) < n_oracle:
        return errors + [f"only {len(live)} rows with tau > 0"]
    agree = 0
    for i in live[np.linspace(0, len(live) - 1, n_oracle).astype(int)]:
        alpha, theta, tau, numeric = rows[i, :4]
        ref = singular_integral(alpha, theta, tau)
        agree += abs(numeric - ref) <= 1e-8 * max(1.0, abs(ref))
    if agree < 10:
        errors.append(f"only {agree} of {n_oracle} rows agree with the closed form to 1e-8")
    return errors


def check_verify(out: Path, code: int) -> list[str]:
    errors = [] if code == 0 else [f"verify exited with code {code}"]
    report = json.loads((out / "verification_report.json").read_text())
    if report["failures"]:
        errors.append(f"verify reported failures: {report['failures']}")
    _, rows = read_numeric_csv(out / "integral_sweep.csv")
    return errors + integral_rows_errors(rows)


# -- analyse ---------------------------------------------------------------

def anchor_errors(T: float, K0: float, reports: list[dict]) -> list[str]:
    errors = []
    for rep in reports:
        s = T - rep["t0"]
        x = K0 * math.sqrt(s * abs(math.log(s))) if 0.0 < s < 1.0 else math.nan
        if not abs(x - abs(rep["x0"])) <= 1e-8 * abs(rep["x0"]):
            errors.append(f"K0={K0:g} x0={rep['x0']:g}: t0 gives |x0|={x!r}")
    return errors


def check_analyse(frames: dict, decay: dict) -> list[str]:
    """``frames`` maps K0 to the frames_summary.json written for it."""
    errors = []
    eps: dict[float, list] = {}
    for K0 in sorted(frames):
        doc = frames[K0]
        errors += anchor_errors(doc["T"], K0, doc["reports"])
        for rep in doc["reports"]:
            eps.setdefault(rep["x0"], []).append(rep["eps0_measured"])
        ratios = [pt["ratio"] for pt in doc["final_profile"]["points"]]
        if not all(0.5 <= v <= 2.0 for v in ratios):
            errors.append(f"K0={K0:g}: profile ratios {ratios} outside [0.5, 2]")
    for x0, values in eps.items():
        if any(b > a for a, b in zip(values, values[1:])):
            errors.append(f"x0={x0:g}: eps0 {values} increases with K0")
    if not (math.isfinite(decay["slope"]) and decay["slope"] < 0.0):
        errors.append(f"decay slope {decay['slope']!r} is not finite and negative")
    return errors


# -- sweep -----------------------------------------------------------------

def classify_point(row: dict, last: np.ndarray | None, h: float) -> tuple[str | None, str]:
    """(fault tag or None when the point passes, message).

    ``row`` is a sweep_summary.csv row; ``last`` the point's final
    trajectory.csv row (t, sup, argmax_r, dt) or None when it has none."""
    status = row["status"].strip("'\"")
    if status == "config-error":
        tag = FAULT_BETA if "beta=" in row["error"] else FAULT_OTHER
        return tag, f"config-error: {row['error']}"
    if status != "blown-up" or last is None:
        return FAULT_OTHER, f"status {status!r}"
    if not last[2] <= 2.0 * h * (1 + 1e-9):
        return FAULT_BOUNDARY, f"blew up at r={last[2]:.6g}, not at the origin"
    if not row["kappa_est"]:
        return FAULT_OTHER, "no kappa_est"
    errors = kappa_errors(float(row["kappa_est"]), float(row["p"]))
    T_est = parse_float(row["T_est"])
    if not abs(T_est - last[0]) <= 1e-9 * last[0]:
        errors.append(f"T_est {T_est!r} far from the last time {last[0]!r}")
    return (FAULT_OTHER, "; ".join(errors)) if errors else (None, "ok")


def check_sweep(out: Path, n_points: int, h: float) -> tuple[list[str], list[tuple]]:
    """(errors that make the output wrong, per-point (index, tag, message))."""
    with open(out / "sweep_summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    errors = []
    if sorted(int(r["index"]) for r in rows) != list(range(n_points)):
        errors.append(f"summary has {len(rows)} rows for {n_points} grid points")
    points = []
    for row in rows:
        path = out / f"point_{int(row['index']):04d}" / "trajectory.csv"
        last = read_numeric_csv(path)[1][-1] if path.exists() else None
        tag, message = classify_point(row, last, h)
        points.append((int(row["index"]), tag, message))
    return errors, points
