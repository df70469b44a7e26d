"""Measure the time step's order of convergence on one run configuration.

    python tools/order.py CONFIG SAFETY...

Runs the configuration in the file CONFIG (the format ``blowlab run
--config`` reads) to its stop once per ``dt_safety`` in SAFETY..., fits the
blow-up of each run with ``estimate_T`` and prints one row per run: the
safety, the steps, the stepping time, T_est and kappa_est.  From the third
run on, the row also carries the observed order of T_est and of kappa_est,
log(|x0 - x1| / |x1 - x2|) / log(s0 / s1) over that run and the two before
it, which needs s0 / s1 = s1 / s2: give the safeties as a geometric
sequence, for example 0.3 0.15 0.075.  Exits 1 when a run cannot be made
or fitted (a bad config, or a run that does not blow up), 2 on bad usage.
"""
from __future__ import annotations

import math
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from blowlab.cli import _seed  # noqa: E402
from blowlab.config import load_config  # noqa: E402
from blowlab.solver import estimate_T, run_until_blowup  # noqa: E402


def measure(config_path: str, safety: float) -> tuple[int, float, float, float]:
    """(steps, stepping seconds, T_est, kappa_est) of one run, seeded as
    ``blowlab run`` seeds it."""
    run_config = load_config(config_path, {"dt_safety": safety})
    u0 = _seed(run_config)
    start = perf_counter()
    trajectory = run_until_blowup(u0, run_config.solver)
    stepping_s = perf_counter() - start
    est = estimate_T(trajectory)
    return len(trajectory.maxnorm_history) - 1, stepping_s, est.T_est, est.kappa_est


def observed_order(safeties: list[float], values: list[float]) -> float | None:
    """The order from the last three values at geometric safeties, or None
    when the safeties are not geometric or the differences do not shrink."""
    s0, s1, s2 = safeties[-3:]
    x0, x1, x2 = values[-3:]
    if not math.isclose(s0 / s1, s1 / s2, rel_tol=1e-9) or s0 == s1:
        return None
    ratio = abs(x0 - x1) / abs(x1 - x2) if x1 != x2 else math.inf
    return math.log(ratio) / math.log(s0 / s1) if 0.0 < ratio < math.inf else None


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        config_path, safeties = argv[0], [float(s) for s in argv[1:]]
    except ValueError as exc:
        print(f"SAFETY must be a number: {exc}", file=sys.stderr)
        return 2
    print(f"{'dt_safety':>10}  {'steps':>7}  {'stepping_s':>10}  {'T_est':>22}  "
          f"{'kappa_est':>20}  {'order_T':>7}  {'order_kappa':>11}")
    T, kappa = [], []
    for i, safety in enumerate(safeties):
        try:
            steps, stepping_s, T_est, kappa_est = measure(config_path, safety)
        except ValueError as exc:
            print(f"dt_safety={safety!r}: {exc}", file=sys.stderr)
            return 1
        T.append(T_est)
        kappa.append(kappa_est)
        orders = [observed_order(safeties[:i + 1], x) if i >= 2 else None for x in (T, kappa)]
        cells = [f"{o:.3f}" if o is not None else "-" for o in orders]
        print(f"{safety!r:>10}  {steps:>7}  {stepping_s:>10.3f}  {T_est!r:>22}  "
              f"{kappa_est!r:>20}  {cells[0]:>7}  {cells[1]:>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
