"""Command-line driver: run, sweep, frames, verify, report.

Every command echoes its manifest (command, config, tool version) into the
artifacts it writes; runs are seed-free and deterministic, so re-running a
command from its manifest reproduces byte-identical CSV bodies.

Exit codes: 0 success, 2 config error, 3 numerical overflow,
4 verification failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .fields import RadialField, RadialGrid, csv_text, field_to_csv
from .lemmas import (
    gamma_exponent_identity_check,
    gronwall_suite,
    integral_sweep,
    semigroup_smoothing_check,
)
from .params import beta_window
from .similarity import extract_frame, final_profile_extract, frame_report
from .solver import (
    STATUS_BLOWN_UP,
    STATUS_OVERFLOWED,
    InsufficientGrowthError,
    Trajectory,
    dt_branch_counts,
    estimate_T,
    far_field_report,
    load_snapshots,
    profile_seeded_field,
    run_until_blowup,
    save_snapshots,
    trajectory_to_csv,
    write_atomic,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OVERFLOW = 3
EXIT_VERIFY = 4

RUN_ARCHIVE = "snapshots.npz"  # the run archive that frames, report and resume read


def _manifest(command: str, config_path, out_dir, run_config: RunConfig | None) -> dict:
    return {
        "command": command,
        "config_path": None if config_path is None else str(config_path),
        "out_dir": None if out_dir is None else str(out_dir),
        "deterministic": True,
        "version": __version__,
        "config": None if run_config is None else run_config.to_dict(),
    }


def _write_text(path: Path, text: str) -> None:
    write_atomic(path, lambda fh: fh.write(text.encode()))


def _write_json(path: Path, doc: dict) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _print_table(rows, header) -> None:
    widths = [max(len(str(row[i])) for row in [header] + rows) for i in range(len(header))]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def cmd_run(args) -> int:
    overrides = {key: getattr(args, key) for key in ("p", "q", "mu", "dim", "beta")}
    try:
        run_config = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    params = run_config.params
    if args.dry_run:
        window = beta_window(params.p, params.q, params.dim, params.mu)
        doc = {
            "params": params.to_dict(),
            "derived": {"b": params.b, "gamma": params.gamma, "kappa": params.kappa,
                        "beta_window": [window.lo, window.hi]},
        }
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(f"p={params.p} q={params.q} mu={params.mu} dim={params.dim}")
            print(f"b={params.b!r} gamma={params.gamma!r} kappa={params.kappa!r}")
            print(f"beta={params.beta!r} in window {window}")
        return EXIT_OK

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _manifest("run", args.config, out, run_config)
    _write_json(out / "manifest.json", manifest)

    u0 = profile_seeded_field(run_config.solver.grid, params,
                              t_star=run_config.t_star,
                              taper_start=run_config.taper_start)
    start = perf_counter()
    trajectory = run_until_blowup(u0, run_config.solver)
    stepping_s = perf_counter() - start
    diffusion_steps, reaction_steps = dt_branch_counts(trajectory)

    start = perf_counter()
    version_line = f"# blowlab {__version__}\n"
    _write_text(out / "trajectory.csv", version_line + trajectory_to_csv(trajectory))
    save_snapshots(trajectory, out / RUN_ARCHIVE)
    _write_text(out / "field_final.csv",
                version_line
                + field_to_csv(trajectory.last_field, params, run_config.solver.boundary))
    writes_s = perf_counter() - start

    summary = {"manifest": manifest, "status": trajectory.status,
               "steps": len(trajectory.maxnorm_history) - 1,
               "steps_diffusion_limited": diffusion_steps,
               "steps_reaction_limited": reaction_steps,
               "wall_s": {"stepping": stepping_s, "writes": writes_s},
               "t_last": trajectory.last_field.time,
               "supnorm_last": float(trajectory.maxnorm_history[-1, 1])}
    if trajectory.status == STATUS_BLOWN_UP:
        try:
            estimate = estimate_T(trajectory, params)
            _write_json(out / "blowup_estimate.json",
                        {"manifest": manifest, **estimate.to_dict()})
            summary["estimate"] = estimate.to_dict()
        except InsufficientGrowthError as exc:
            summary["estimate_error"] = str(exc)
        # single-point headline: the far field must sit still while the core explodes
        r_min = 0.1 * run_config.solver.grid.R
        rows = far_field_report(trajectory, r_min)
        window = rows[rows[:, 1] > 1e6]
        if len(window) and rows[0, 2] > 0.0 and rows[0, 3] > 0.0:
            summary["far_field"] = {
                "r_min": r_min,
                "u_ratio_vs_initial": float(np.max(window[:, 2]) / rows[0, 2]),
                "grad_ratio_vs_initial": float(np.max(window[:, 3]) / rows[0, 3]),
            }
    _write_json(out / "run_summary.json", summary)

    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"status: {trajectory.status}  t_last={summary['t_last']!r}  "
              f"supnorm={summary['supnorm_last']:.4g}")
        if "estimate" in summary:
            est = summary["estimate"]
            print(f"T_est={est['T_est']!r}  kappa_est={est['kappa_est']:.6g}  "
                  f"residual={est['residual']:.3g}")
    return EXIT_OVERFLOW if trajectory.status == STATUS_OVERFLOWED else EXIT_OK


def _load_run(out: Path) -> Trajectory:
    return load_snapshots(out / RUN_ARCHIVE)


def cmd_frames(args) -> int:
    out = Path(args.out)
    try:
        x0_list = [float(tok) for tok in args.x0.split(",") if tok.strip()] if args.x0 else []
    except ValueError as exc:
        print(f"config error: bad --x0 list: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not x0_list:
        print("no x0 values given; nothing to do")
        return EXIT_OK
    if any(x == 0.0 for x in x0_list):
        print("config error: x0 = 0 is the blow-up point; frames need x0 != 0",
              file=sys.stderr)
        return EXIT_CONFIG

    try:
        trajectory = _load_run(out)
    except (OSError, ValueError) as exc:
        print(f"config error: cannot load run artifacts from {out}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG

    estimate_path = out / "blowup_estimate.json"
    # InsufficientGrowthError and CoverageGapError are ValueErrors too
    try:
        if args.T is not None:
            T = args.T
        elif estimate_path.exists():
            T = float(json.loads(estimate_path.read_text())["T_est"])
        else:
            T = estimate_T(trajectory, trajectory.config.params).T_est
        frames = [extract_frame(trajectory, x0, args.K0, T, window=args.window)
                  for x0 in x0_list]
        reports = [frame_report(frame).to_dict() for frame in frames]
        table = final_profile_extract(trajectory, sorted(x0_list))
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    manifest = _manifest("frames", None, out, None)
    for x0, frame, report in zip(x0_list, frames, reports):
        tag = f"x0_{x0:g}".replace(".", "p").replace("-", "m")
        xi = frame.xi_grid.tolist()
        rows = ((x0, args.K0, frame.t0, tau, *cells)
                for tau, v_row, w_row in zip(frame.tau_grid.tolist(), frame.v.tolist(),
                                             frame.w.tolist())
                for cells in zip(xi, v_row, w_row))
        _write_text(out / f"frame_{tag}.csv",
                    csv_text(("x0", "K0", "t0", "tau", "xi", "v", "w"), rows))
        _write_json(out / f"frame_report_{tag}.json", {"manifest": manifest, **report})

    _write_json(out / "final_profile.json", {"manifest": manifest, **table.to_dict()})

    doc = {"manifest": manifest, "T": T, "K0": args.K0, "reports": reports,
           "final_profile": table.to_dict()}
    _write_json(out / "frames_summary.json", doc)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _print_table(
            [(f"{r['x0']:g}", f"{r['t0']:.8g}", f"{r['eps0_measured']:.4g}",
              f"{r['M_measured']:.4g}", f"{r['w_sup_decay']:.4g}",
              f"{r['v_minus_vK0_sup']:.4g}") for r in reports],
            ("x0", "t0", "eps0", "M", "w_small", "v_sharp"))
        _print_table(
            [(f"{p.r:g}", f"{p.u_last:.5g}", f"{p.prediction:.5g}",
              f"{p.ratio:.4f}", str(p.converged)) for p in table.points],
            ("r", "u_last", "prediction", "ratio", "converged"))
    return EXIT_OK


def _semigroup_cases() -> tuple[list, list]:
    grid = RadialGrid(R=4.0, M=256, dim=1)
    r = grid.r
    constant = RadialField(grid, np.ones(grid.M + 1))
    spike = RadialField(grid, np.where(np.arange(grid.M + 1) % 2 == 0, 1.0, -1.0))
    gaussian = RadialField(grid, np.exp(-(r * r) / (4.0 * 0.005)))
    return [1e-4, 1e-2, 0.1, 1.0], [constant, spike, gaussian]


def cmd_verify(args) -> int:
    failures = []
    rows = []

    sweep = integral_sweep()
    rows.append(("singular-integral sweep", f"{sweep.n_total} cases",
                 f"worst margin {sweep.worst_margin:.3e}",
                 "pass" if sweep.passed else "FAIL"))
    if not sweep.passed:
        wc = sweep.worst_case
        failures.append(
            f"integral bound violated at alpha={wc.alpha:.3g} theta={wc.theta:.3g} "
            f"tau={wc.tau:.3g} (margin {sweep.worst_margin:.3e})")

    gron = gronwall_suite()
    rows.append(("gronwall suite", f"{gron.n_points} points",
                 f"worst margin {gron.worst_margin:.3e}",
                 "pass" if gron.passed else "FAIL"))
    if not gron.passed:
        failures.append(f"gronwall bound violated ({gron.n_violations} points)")

    ident = gamma_exponent_identity_check()
    ident_ok = ident <= 1e-14
    rows.append(("exponent identity", "1000 samples", f"max |diff| {ident:.3e}",
                 "pass" if ident_ok else "FAIL"))
    if not ident_ok:
        failures.append(f"exponent identity off by {ident:.3e}")

    smoothing = semigroup_smoothing_check(*_semigroup_cases())
    sup_ok = smoothing.max_sup_ratio <= 1.0 + 1e-6
    grad_ok = smoothing.max_grad_ratio <= 2.0 / np.sqrt(2.0 * np.e)
    rows.append(("semigroup sup ratio", "3 fields x 4 times",
                 f"max {smoothing.max_sup_ratio:.8f}", "pass" if sup_ok else "FAIL"))
    rows.append(("semigroup grad ratio", "3 fields x 4 times",
                 f"max {smoothing.max_grad_ratio:.6f}", "pass" if grad_ok else "FAIL"))
    if not sup_ok:
        failures.append(f"semigroup sup ratio {smoothing.max_sup_ratio} > 1 + 1e-6")
    if not grad_ok:
        failures.append(f"semigroup grad ratio {smoothing.max_grad_ratio} too large")

    doc = {
        "manifest": _manifest("verify", None, args.out, None),
        "integral_sweep": {"n_total": sweep.n_total, "n_failed": sweep.n_failed,
                           "worst_margin": sweep.worst_margin},
        "gronwall": {"n_points": gron.n_points, "n_violations": gron.n_violations,
                     "worst_margin": gron.worst_margin},
        "exponent_identity_max_diff": ident,
        "semigroup": {"max_sup_ratio": smoothing.max_sup_ratio,
                      "max_grad_ratio": smoothing.max_grad_ratio},
        "failures": failures,
    }
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "verification_report.json", doc)
        _write_text(out / "integral_sweep.csv", csv_text(
            ("alpha", "theta", "tau", "numeric", "bound", "ok"),
            ((*row[:5], int(row[5])) for row in sweep.rows)))

    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _print_table(rows, ("check", "scope", "result", "status"))
        for failure in failures:
            print(f"FAIL: {failure}")
    return EXIT_VERIFY if failures else EXIT_OK


def _parse_grid_spec(spec: str) -> list[tuple[str, np.ndarray]]:
    axes = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, rng = part.partition("=")
        lo_s, hi_s, n_s = rng.split(":")
        axes.append((key.strip(), np.linspace(float(lo_s), float(hi_s), int(n_s))))
    if not axes:
        raise ValueError("empty --grid specification")
    return axes


def _sweep_worker(job):
    index, raw, overrides, out_dir = job
    from .config import build_run_config

    point_dir = Path(out_dir) / f"point_{index:04d}"
    point_dir.mkdir(parents=True, exist_ok=True)
    try:
        run_config = build_run_config(raw, overrides)
    except ConfigError as exc:
        return {"index": index, **overrides, "status": "config-error", "error": str(exc)}
    u0 = profile_seeded_field(run_config.solver.grid, run_config.params,
                              t_star=run_config.t_star,
                              taper_start=run_config.taper_start)
    trajectory = run_until_blowup(u0, run_config.solver)
    save_snapshots(trajectory, point_dir / RUN_ARCHIVE)
    _write_text(point_dir / "trajectory.csv", trajectory_to_csv(trajectory))
    row = {"index": index, **overrides, "status": trajectory.status,
           "t_last": trajectory.last_field.time,
           "supnorm_last": float(trajectory.maxnorm_history[-1, 1])}
    if trajectory.status == STATUS_BLOWN_UP:
        try:
            est = estimate_T(trajectory, run_config.params)
            row["T_est"] = est.T_est
            row["kappa_est"] = est.kappa_est
        except InsufficientGrowthError:
            pass
    return row


def cmd_sweep(args) -> int:
    try:
        run_config = load_config(args.config)
        axes = _parse_grid_spec(args.grid)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json",
                {**_manifest("sweep", args.config, out, run_config), "grid": args.grid})

    points = [{}]
    for key, values in axes:
        points = [{**pt, key: float(v)} for pt in points for v in values]
    jobs = [(i, run_config.to_dict(), pt, str(out)) for i, pt in enumerate(points)]

    if args.workers <= 1:
        results = [_sweep_worker(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    results.sort(key=lambda row: row["index"])

    keys = ["index"] + [k for k, _ in axes] + ["status", "t_last", "supnorm_last",
                                               "T_est", "kappa_est", "error"]
    _write_text(out / "sweep_summary.csv",
                csv_text(keys, ([row.get(k) for k in keys] for row in results)))
    print(f"{len(results)} sweep points -> {out / 'sweep_summary.csv'}")
    return EXIT_OK


def cmd_report(args) -> int:
    out = Path(args.out)
    summary_path = out / "run_summary.json"
    if not summary_path.exists():
        print(f"config error: no run artifacts in {out}", file=sys.stderr)
        return EXIT_CONFIG
    summary = json.loads(summary_path.read_text())
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return EXIT_OK
    config = summary["manifest"]["config"]
    print(f"run in {out}")
    print(f"  p={config['p']} q={config['q']} mu={config['mu']} dim={config['dim']} "
          f"beta={config['beta']:.6g}")
    print(f"  grid: R={config['R']} M={config['M']}  boundary={config['boundary']}")
    print(f"  status: {summary['status']}  steps={summary['steps']}  "
          f"t_last={summary['t_last']!r}")
    if "steps_diffusion_limited" in summary:
        print(f"  dt branch: diffusion-limited={summary['steps_diffusion_limited']}  "
              f"reaction-limited={summary['steps_reaction_limited']}")
    if "wall_s" in summary:
        wall = summary["wall_s"]
        print(f"  wall: stepping={wall['stepping']:.3f}s  writes={wall['writes']:.3f}s")
    if "estimate" in summary:
        est = summary["estimate"]
        print(f"  T_est={est['T_est']!r}  kappa_est={est['kappa_est']:.6g}  "
              f"residual={est['residual']:.3g}")
    frames_path = out / "frames_summary.json"
    if frames_path.exists():
        frames = json.loads(frames_path.read_text())
        print(f"  frames (K0={frames['K0']}):")
        for rep in frames["reports"]:
            print(f"    x0={rep['x0']:g}: eps0={rep['eps0_measured']:.4g} "
                  f"M={rep['M_measured']:.4g} w_small={rep['w_sup_decay']:.4g} "
                  f"v_sharp={rep['v_minus_vK0_sup']:.4g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blowlab",
        description="blow-up laboratory for the gradient/non-local perturbed "
                    "semilinear heat equation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate toward blow-up and write artifacts")
    p_run.add_argument("--config", default=None, help="key=value config file")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--json", action="store_true", help="machine-readable output")
    p_run.add_argument("--dry-run", action="store_true",
                       help="validate and print derived constants, do not run")
    p_run.add_argument("--p", type=float, default=None, help="override exponent p")
    p_run.add_argument("--q", type=float, default=None, help="override exponent q")
    p_run.add_argument("--mu", type=float, default=None, help="override strength mu")
    p_run.add_argument("--dim", type=int, default=None, help="override dimension")
    p_run.add_argument("--beta", type=float, default=None, help="override weight beta")
    p_run.set_defaults(func=cmd_run)

    p_frames = sub.add_parser("frames", help="similarity-frame diagnostics of a run")
    p_frames.add_argument("--out", default="out", help="directory with run artifacts")
    p_frames.add_argument("--x0", default="", help="comma-separated x0 list")
    p_frames.add_argument("--K0", type=float, default=4.0)
    p_frames.add_argument("--window", type=float, default=None,
                          help="half-width of the xi window (default: diagnostic-driven)")
    p_frames.add_argument("--T", type=float, default=None,
                          help="blow-up time override (default: fitted)")
    p_frames.add_argument("--json", action="store_true")
    p_frames.set_defaults(func=cmd_frames)

    p_verify = sub.add_parser("verify", help="run the analytical-oracle suites")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--out", default=None, help="also write report artifacts here")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--config", default=None)
    p_sweep.add_argument("--grid", required=True,
                         help='axes like "p=3.5:4.5:3,mu=-0.2:0.2:5"')
    p_sweep.add_argument("--out", default="sweep_out")
    p_sweep.add_argument("--workers", type=int, default=4)
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="summarize artifacts of a finished run")
    p_report.add_argument("--out", default="out")
    p_report.add_argument("--json", action="store_true")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
