"""Command-line driver: run, sweep, frames, verify, report.

Every command echoes its manifest (command, config, tool version) into the
artifacts it writes; runs are seed-free and deterministic, so re-running a
command from its manifest reproduces byte-identical CSV bodies.

Exit codes: 0 success, 2 config error, 3 numerical overflow,
4 verification failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import traceback
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import numpy as np

from . import __version__, solver
from .config import _SCHEMA, ConfigError, RunConfig, load_config
from .fields import RadialField, RadialGrid, field_to_csv, write_csv
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
SWEEP_CHUNK = 16  # most sweep points one worker steps together
HEARTBEAT_S = 2.0  # least time between two sweep progress lines


def _manifest(command: str, config_path, out_dir, run_config: RunConfig | None) -> dict:
    return {
        "command": command,
        "config_path": None if config_path is None else str(config_path),
        "out_dir": None if out_dir is None else str(out_dir),
        "deterministic": True,
        "version": __version__,
        "config": None if run_config is None else run_config.to_dict(),
    }


def _out_dir(path) -> Path:
    """``path`` as a directory, made when missing."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write to --out {out}: {exc}") from exc
    return out


def _write_json(path: Path, doc: dict) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    write_atomic(path, lambda fh: fh.write(text), text=True)


def _write_csv(path: Path, header, rows) -> None:
    write_atomic(path, lambda fh: write_csv(fh, header, rows), text=True)


def _print_table(rows, header) -> None:
    widths = [max(len(str(row[i])) for row in [header] + rows) for i in range(len(header))]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def cmd_run(args) -> int:
    overrides = {key: getattr(args, key) for key in ("p", "q", "mu", "dim", "beta")}
    run_config = load_config(args.config, overrides)
    params = run_config.params
    if args.dry_run:
        window = beta_window(params.p, params.q, params.dim, params.mu)
        doc = {
            "params": asdict(params),
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

    out = _out_dir(args.out)
    manifest = _manifest("run", args.config, out, run_config)
    _write_json(out / "manifest.json", manifest)

    u0 = _seed(run_config)
    start = perf_counter()
    trajectory = run_until_blowup(u0, run_config.solver)
    stepping_s = perf_counter() - start

    start = perf_counter()
    version = (f"blowlab {__version__}",)
    _save_run(out, trajectory, version)
    write_atomic(out / "field_final.csv",
                 lambda fh: field_to_csv(fh, trajectory.last_field, params,
                                         run_config.solver.boundary, version), text=True)
    writes_s = perf_counter() - start

    summary = {"manifest": manifest, "wall_s": {"stepping": stepping_s, "writes": writes_s},
               **_run_record(trajectory)}
    if "estimate" in summary:
        _write_json(out / "blowup_estimate.json", {"manifest": manifest, **summary["estimate"]})
    if (far := far_field_report(trajectory)) is not None:
        summary["far_field"] = far
    _write_json(out / "run_summary.json", summary)

    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"status: {trajectory.status}  t_last={summary['t_last']!r}  "
              f"supnorm={summary['supnorm_last']:.4g}")
        for line in _fit_lines(summary):
            print(line)
    return EXIT_OVERFLOW if trajectory.status == STATUS_OVERFLOWED else EXIT_OK


def _seed(run_config: RunConfig) -> RadialField:
    """The initial field of a run: the profile seed its config asks for."""
    return profile_seeded_field(run_config.solver.grid, run_config.params,
                                t_star=run_config.t_star)


def _save_run(out: Path, trajectory: Trajectory, comments=()) -> None:
    """Write a finished run's archive and its history CSV, the CSV after
    ``comments``."""
    save_snapshots(trajectory, out / RUN_ARCHIVE)
    write_atomic(out / "trajectory.csv",
                 lambda fh: trajectory_to_csv(fh, trajectory, comments), text=True)


def _run_record(trajectory: Trajectory) -> dict:
    """What ``run_summary.json`` and a sweep row report of a finished run:
    its status, steps, last time and sup-norm and, when it blew up, the
    fields of its ``estimate_T`` fit as ``estimate`` or why the fit failed
    as ``estimate_error``."""
    record = {"status": trajectory.status, "steps": len(trajectory.maxnorm_history) - 1,
              "t_last": trajectory.last_field.time,
              "supnorm_last": float(trajectory.maxnorm_history[-1, 1])}
    if trajectory.status == STATUS_BLOWN_UP:
        try:
            record["estimate"] = asdict(estimate_T(trajectory))
        except InsufficientGrowthError as exc:
            record["estimate_error"] = str(exc)
    return record


def _fit_lines(summary: dict) -> list[str]:
    """What ``run`` and ``report`` print of a run's ``estimate_T`` fit, or
    why it failed, and of its far field, each when the summary holds it."""
    lines = []
    if "estimate" in summary:
        est = summary["estimate"]
        lines.append(f"T_est={est['T_est']!r}  kappa_est={est['kappa_est']:.6g}  "
                     f"residual={est['residual']:.3g}")
    if "estimate_error" in summary:
        lines.append(f"no T_est: {summary['estimate_error']}")
    if "far_field" in summary:
        far = summary["far_field"]
        lines.append(f"far field at r >= {far['r_min']!r} while sup-norm > 1e6 "
                     f"(snapshots: {far['window_snapshots']}): "
                     f"max|u| {far['u_ratio_vs_initial']:.4g}x and "
                     f"max|du/dr| {far['grad_ratio_vs_initial']:.4g}x the initial field's")
    return lines


def _load_run(out: Path) -> Trajectory:
    return load_snapshots(out / RUN_ARCHIVE)


def cmd_frames(args) -> int:
    out = Path(args.out)
    try:
        x0_list = [float(tok) for tok in args.x0.split(",") if tok.strip()] if args.x0 else []
    except ValueError as exc:
        raise ConfigError(f"bad --x0 list: {exc}") from exc
    if not x0_list:
        print("no x0 values given; nothing to do")
        return EXIT_OK
    bad = [x for x in x0_list if x == 0.0 or not math.isfinite(x)]
    if bad:
        raise ConfigError(f"frames need a finite x0 != 0 (x0 = 0 is the blow-up point), "
                          f"got {bad[0]!r}")

    try:
        trajectory = _load_run(out)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load run artifacts from {out}: {exc}") from exc

    # InsufficientGrowthError and CoverageGapError are ValueErrors too
    try:
        T = args.T
        if T is None:  # the fit is deterministic: the T_est that run wrote
            T = estimate_T(trajectory).T_est
        frames = [extract_frame(trajectory, x0, args.K0, T, window=args.window)
                  for x0 in x0_list]
        reports = [asdict(frame_report(frame)) for frame in frames]
        table = final_profile_extract(trajectory, sorted(abs(x0) for x0 in x0_list))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    for x0, frame in zip(x0_list, frames):
        # repr, not :g, so distinct x0 never share a file name
        tag = f"x0_{x0!r}".replace(".", "p").replace("-", "m")
        arrays = {"tau": frame.tau_grid, "xi": frame.xi_grid, "v": frame.v, "w": frame.w,
                  "x0": x0, "K0": args.K0, "t0": frame.t0}
        # stored, not deflated: deflate takes ~15x as long and saves ~20%
        write_atomic(out / f"frame_{tag}.npz", lambda fh: np.savez(fh, **arrays))

    doc = {"manifest": _manifest("frames", None, out, None), "T": T, "K0": args.K0,
           "reports": reports, "final_profile": asdict(table)}
    _write_json(out / "frames_summary.json", doc)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _print_table(
            [(repr(r['x0']), f"{r['t0']:.8g}", f"{r['eps0_measured']:.4g}",
              f"{r['M_measured']:.4g}", f"{r['w_sup_decay']:.4g}",
              f"{r['v_minus_vK0_sup']:.4g}") for r in reports],
            ("x0", "t0", "eps0", "M", "w_small", "v_sharp"))
        _print_table(
            [(repr(p.r), f"{p.u_last:.5g}", f"{p.prediction:.5g}",
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
    out = None if args.out is None else _out_dir(args.out)
    sweep = integral_sweep()
    gron = gronwall_suite()
    ident = gamma_exponent_identity_check()
    t_values, test_fields = _semigroup_cases()
    smoothing = semigroup_smoothing_check(t_values, test_fields)
    scope = f"{len(test_fields)} fields x {len(t_values)} times"
    wc = sweep.worst_case
    # (check, scope, result, passed, failure): the printed rows and the failures
    checks = [
        ("singular-integral sweep", f"{sweep.n_total} cases",
         f"worst margin {sweep.worst_margin:.3e}", sweep.passed,
         f"integral bound violated at alpha={wc.alpha:.3g} theta={wc.theta:.3g} "
         f"tau={wc.tau:.3g} (margin {sweep.worst_margin:.3e})"),
        ("gronwall suite", f"{gron.n_points} points", f"worst margin {gron.worst_margin:.3e}",
         gron.passed, f"gronwall bound violated ({gron.n_violations} points)"),
        ("exponent identity", "1000 samples", f"max |diff| {ident:.3e}", ident <= 1e-14,
         f"exponent identity off by {ident:.3e}"),
        ("semigroup sup ratio", scope, f"max {smoothing.max_sup_ratio:.8f}",
         smoothing.max_sup_ratio <= 1.0 + 1e-12,
         f"semigroup sup ratio {smoothing.max_sup_ratio} > 1 + 1e-12"),
        ("semigroup grad ratio", scope, f"max {smoothing.max_grad_ratio:.6f}",
         smoothing.max_grad_ratio <= 2.0 / np.sqrt(2.0 * np.e),
         f"semigroup grad ratio {smoothing.max_grad_ratio} too large"),
    ]
    failures = [failure for *_, passed, failure in checks if not passed]

    doc = {
        "manifest": _manifest("verify", None, args.out, None),
        "integral_sweep": {"n_total": sweep.n_total, "n_failed": sweep.n_failed,
                           "worst_margin": sweep.worst_margin},
        "gronwall": asdict(gron),
        "exponent_identity_max_diff": ident,
        "semigroup": asdict(smoothing),
        "failures": failures,
    }
    if out is not None:
        _write_json(out / "verification_report.json", doc)
        _write_csv(out / "integral_sweep.csv", ("alpha", "theta", "tau", "numeric", "bound", "ok"),
                   ((*row[:5], int(row[5])) for row in sweep.rows))

    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _print_table([(check, scope, result, "pass" if passed else "FAIL")
                      for check, scope, result, passed, _ in checks],
                     ("check", "scope", "result", "status"))
        for failure in failures:
            print(f"FAIL: {failure}")
    return EXIT_VERIFY if failures else EXIT_OK


def _parse_grid_spec(spec: str) -> list[tuple[str, np.ndarray]]:
    """Axes of ``key=lo:hi:n,...``: each key a distinct numeric config key,
    finite bounds and an integer n >= 1."""
    axes = {}
    for part in filter(None, (part.strip() for part in spec.split(","))):
        key, _, rng = part.partition("=")
        key, fields = key.strip(), rng.split(":")
        try:
            lo, hi, n = float(fields[0]), float(fields[1]), int(fields[2])
            ok = len(fields) == 3 and math.isfinite(lo) and math.isfinite(hi) and n >= 1
        except (ValueError, IndexError):
            ok = False
        if not ok:
            raise ValueError(f"--grid part {part!r} is not key=lo:hi:n with finite lo "
                             "and hi and an integer n >= 1")
        if _SCHEMA.get(key, (str,))[0] is str or key in axes:
            why = "repeats its key" if key in axes else f"{key!r} is not a numeric config key"
            raise ValueError(f"--grid part {part!r}: {why}")
        axes[key] = np.linspace(lo, hi, n)
    if not axes:
        raise ValueError("empty --grid specification")
    return list(axes.items())


def _point_row(index: int, overrides: dict, status: str, error: str) -> dict:
    return {"index": index, **overrides, "status": status, "error": error}


def _sweep_worker(job):
    """Run one chunk of sweep points that share a grid and a boundary
    closure, stepped together; returns one summary row per point.  ``job``
    is (index of the chunk's first point, [(index, overrides, RunConfig)],
    output directory).  Each point's files are written as its run leaves
    the batch, and the run is dropped then.  A point whose seeding,
    stepping, estimate or writes raise gets a row with status ``error`` and
    the message; the other points of the chunk finish."""
    _, points, out_dir = job
    rows, pending = [], {}
    for index, overrides, run_config in points:
        try:
            point_dir = Path(out_dir) / f"point_{index:04d}"
            point_dir.mkdir(parents=True, exist_ok=True)
            pending[index] = (overrides, run_config, point_dir, _seed(run_config))
        except Exception as exc:  # the point's row carries it
            rows.append(_error_row(index, overrides, exc))

    def finish(index: int, trajectory: Trajectory) -> None:
        overrides, _, point_dir, _ = pending.pop(index)
        try:
            rows.append(_point_summary(index, overrides, point_dir, trajectory))
        except Exception as exc:
            rows.append(_error_row(index, overrides, exc))

    order = list(pending)
    try:
        # every run is made before the first step; none is held once written
        solver._advance((Trajectory.start(pending[index][3], pending[index][1].solver)
                         for index in order),
                        lambda position, trajectory: finish(order[position], trajectory))
    except Exception as exc:  # a failure of the batch names no point: step the rest alone
        print("sweep: batch failed, stepping its points alone", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)
    for index in list(pending):
        overrides, run_config, _, u0 = pending[index]
        try:
            trajectory = run_until_blowup(u0, run_config.solver)
        except Exception as exc:
            del pending[index]
            rows.append(_error_row(index, overrides, exc))
            continue
        finish(index, trajectory)
    return rows


def _error_row(index: int, overrides: dict, exc: Exception) -> dict:
    """The summary row of a point that raised ``exc``; the traceback goes
    to stderr."""
    print(f"sweep: point {index} failed", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)
    return _point_row(index, overrides, "error", f"{type(exc).__name__}: {exc}")


def _point_summary(index: int, overrides: dict, point_dir: Path,
                   trajectory: Trajectory) -> dict:
    """Write a sweep point's run archive and history; its summary row, the
    run's record with the fields of its estimate."""
    _save_run(point_dir, trajectory)
    record = _run_record(trajectory)
    return {"index": index, **overrides, **record, **record.get("estimate", {})}


class _Heartbeat:
    """Prints ``sweep: i/n points done (x.x s)`` on stderr as chunks finish,
    at most once every ``HEARTBEAT_S`` seconds, so a sweep shorter than that
    prints nothing."""

    def __init__(self, done: int, total: int):
        self.done, self.total = done, total
        self.start = self.last = perf_counter()

    def add(self, points: int) -> None:
        self.done += points
        now = perf_counter()
        if now - self.last >= HEARTBEAT_S:
            self.last = now
            print(f"sweep: {self.done}/{self.total} points done ({now - self.start:.1f} s)",
                  file=sys.stderr)


def _sweep_plan(points: list[tuple], workers: int) -> tuple[list[list[tuple]], int]:
    """The chunks of a sweep asked for ``workers`` processes, and how many
    it starts: at most the CPUs this process may run on, which also size
    the chunks, and at most one per chunk.  The chunks are the points
    grouped by (grid, boundary closure), in index order, and cut into
    chunks of about ceil(points / workers), at most SWEEP_CHUNK."""
    workers = max(1, min(workers, _usable_cpus()))
    groups = {}
    for point in points:
        solver_config = point[2].solver
        groups.setdefault((solver_config.grid, solver_config.boundary), []).append(point)
    size = max(1, min(SWEEP_CHUNK, math.ceil(len(points) / workers)))
    chunks = [group[i:i + size] for group in groups.values()
              for i in range(0, len(group), size)]
    return chunks, min(workers, len(chunks))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # the call is not on every platform
        return os.cpu_count() or 1


def __getattr__(name: str):
    # the pool loads multiprocessing, which only a sweep needs; cmd_sweep reads
    # cli.ProcessPoolExecutor, so a pool class set there replaces this one
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cmd_sweep(args) -> int:
    # imported here, as only a sweep needs them; a wrapper set on a module then applies
    from concurrent.futures import as_completed

    from .config import build_run_config

    run_config = load_config(args.config)
    try:
        axes = _parse_grid_spec(args.grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _out_dir(args.out)
    _write_json(out / "manifest.json",
                {**_manifest("sweep", args.config, out, run_config), "grid": args.grid})

    points = [{}]
    for key, values in axes:
        points = [{**pt, key: float(v)} for pt in points for v in values]
    results, admissible = [], []
    for index, overrides in enumerate(points):
        # the keys as the file set them: each point resolves its own beta
        try:
            admissible.append((index, overrides, build_run_config(run_config.raw, overrides)))
        except ConfigError as exc:
            (out / f"point_{index:04d}").mkdir(exist_ok=True)
            results.append(_point_row(index, overrides, "config-error", str(exc)))
    chunks, workers = _sweep_plan(admissible, args.workers)
    jobs = [(chunk[0][0], chunk, str(out)) for chunk in chunks]
    heartbeat = _Heartbeat(len(results), len(points))

    if workers <= 1:
        for job in jobs:
            results += _sweep_worker(job)
            heartbeat.add(len(job[1]))
    else:
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_sweep_worker, job): job for job in jobs}
            for future in as_completed(futures):
                job = futures[future]
                try:
                    results += future.result()
                except Exception as exc:  # a lost worker loses its chunk only
                    results += [_error_row(index, overrides, exc)
                                for index, overrides, _ in job[1]]
                heartbeat.add(len(job[1]))
    results.sort(key=lambda row: row["index"])

    keys = ["index"] + [k for k, _ in axes] + ["status", "t_last", "supnorm_last",
                                               "T_est", "kappa_est", "error"]
    _write_csv(out / "sweep_summary.csv", keys, ([row.get(k) for k in keys] for row in results))
    print(f"{len(results)} sweep points -> {out / 'sweep_summary.csv'}")
    return EXIT_OK


def _report_lines(out: Path, summary: dict) -> list[str]:
    config = summary["manifest"]["config"]
    lines = [
        f"run in {out}",
        f"  p={config['p']} q={config['q']} mu={config['mu']} dim={config['dim']} "
        f"beta={config['beta']:.6g}",
        f"  grid: R={config['R']} M={config['M']}  boundary={config['boundary']}",
        f"  status: {summary['status']}  steps={summary['steps']}  "
        f"t_last={summary['t_last']!r}",
    ]
    if "wall_s" in summary:
        wall = summary["wall_s"]
        lines.append(f"  wall: stepping={wall['stepping']:.3f}s  writes={wall['writes']:.3f}s")
    lines += [f"  {line}" for line in _fit_lines(summary)]
    frames_path = out / "frames_summary.json"
    if frames_path.exists():
        frames = json.loads(frames_path.read_text())
        lines.append(f"  frames (K0={frames['K0']}):")
        for rep in frames["reports"]:
            lines.append(f"    x0={rep['x0']!r}: eps0={rep['eps0_measured']:.4g} "
                         f"M={rep['M_measured']:.4g} w_small={rep['w_sup_decay']:.4g} "
                         f"v_sharp={rep['v_minus_vK0_sup']:.4g}")
    return lines


def cmd_report(args) -> int:
    out = Path(args.out)
    summary_path = out / "run_summary.json"
    if not summary_path.exists():
        raise ConfigError(f"no run artifacts in {out}")
    # the whole report is built before any of it prints, so a damaged
    # artifact yields a message and no partial report
    try:
        summary = json.loads(summary_path.read_text())
        lines = ([json.dumps(summary, indent=2, sort_keys=True)] if args.json
                 else _report_lines(out, summary))
    except (KeyError, TypeError, ValueError, OSError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"cannot read the run summary in {out}: {reason}") from exc
    print("\n".join(lines))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; :func:`main` finds
    each command's ``cmd_<name>`` function when it runs it."""
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

    p_frames = sub.add_parser("frames", help="similarity-frame diagnostics of a run")
    p_frames.add_argument("--out", default="out", help="directory with run artifacts")
    p_frames.add_argument("--x0", default="", help="comma-separated x0 list")
    p_frames.add_argument("--K0", type=float, default=4.0)
    p_frames.add_argument("--window", type=float, default=None,
                          help="half-width of the xi window (default: diagnostic-driven)")
    p_frames.add_argument("--T", type=float, default=None,
                          help="blow-up time override (default: fitted)")
    p_frames.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run the analytical-oracle suites")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--out", default=None, help="also write report artifacts here")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--config", default=None)
    p_sweep.add_argument("--grid", required=True,
                         help='axes like "p=3.5:4.5:3,mu=-0.2:0.2:5"')
    p_sweep.add_argument("--out", default="sweep_out")
    p_sweep.add_argument("--workers", type=int, default=4,
                         help="worker processes, at most the usable CPUs and one per "
                              "chunk; they also size the chunks (1 runs the sweep in "
                              "this process)")

    p_report = sub.add_parser("report", help="summarize artifacts of a finished run")
    p_report.add_argument("--out", default="out")
    p_report.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a function set on the module in its place runs
    command = globals()[f"cmd_{args.command}"]
    # the one place an input the command cannot use becomes exit code 2
    try:
        return command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # an artifact path it cannot write, such as a directory
        path = exc.filename2 or exc.filename  # an atomic write's target, not its temp file
        print(f"config error: {path}: {exc.strerror}" if path else f"config error: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
