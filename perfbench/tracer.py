"""Span recorder for traced benchmark runs, and the per-layer metrics.

The recorder wraps blowlab's module functions at run time (``src/`` is never
edited).  Each call becomes a span (name, start, end, parent) held in
flat arrays; spans are written to ``.npz`` files only when the run (or a
sweep worker's job) ends.  ``derive_op`` turns the spans and counters of one
operation into the per-layer metrics listed in ``BENCHMARK.json``.

A target that a later version of blowlab no longer has is recorded as
missing and reported through ``trace.missing_targets``; it never crashes a
run.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name).  A function bound under several names is
# wrapped once, so every binding reports to the same span name.
TARGETS = [
    ("blowlab.fields", "_laplacian_values", "fields.laplacian"),
    ("blowlab.fields", "_gradient_values", "fields.gradient"),
    ("blowlab.fields", "_nonlocal_prefix_values", "fields.prefix"),
    ("blowlab.fields", "field_to_csv", "cli.field_csv"),
    ("blowlab.solver", "_laplacian_values", "fields.laplacian"),
    ("blowlab.solver", "_gradient_values", "fields.gradient"),
    ("blowlab.solver", "_nonlocal_prefix_values", "fields.prefix"),
    ("blowlab.solver", "_rhs_values", "solver.rhs"),
    ("blowlab.solver", "_heun", "solver.step"),
    ("blowlab.solver", "_advance", "solver.advance"),
    ("blowlab.solver", "run_until_blowup", "solver.run"),
    ("blowlab.solver", "estimate_T", "solver.estimate_T"),
    ("blowlab.similarity", "_gradient_values", "fields.gradient"),
    ("blowlab.lemmas", "_gradient_values", "fields.gradient"),
    ("blowlab.lemmas", "_nonlocal_prefix_values", "fields.prefix"),
    ("blowlab.lemmas", "quad", "lemmas.quad"),
    ("blowlab.lemmas", "estimate_T", "solver.estimate_T"),
    ("blowlab.lemmas", "run_until_blowup", "solver.run"),
    ("blowlab.lemmas", "nonlocal_decay_fit", "lemmas.decay_fit"),
    ("blowlab.config", "build_run_config", "config.build"),
    ("blowlab.cli", "estimate_T", "solver.estimate_T"),
    ("blowlab.cli", "far_field_report", "solver.far_field"),
    ("blowlab.cli", "save_checkpoint", "solver.save_checkpoint"),
    ("blowlab.cli", "save_snapshots", "solver.save_snapshots"),
    ("blowlab.cli", "load_checkpoint", "solver.load_checkpoint"),
    ("blowlab.cli", "load_snapshots", "solver.load_snapshots"),
    ("blowlab.cli", "trajectory_to_csv", "solver.trajectory_csv"),
    ("blowlab.cli", "run_until_blowup", "solver.run"),
    ("blowlab.cli", "profile_seeded_field", "profiles.seed"),
    ("blowlab.cli", "field_to_csv", "cli.field_csv"),
    ("blowlab.cli", "extract_frame", "similarity.extract_frame"),
    ("blowlab.cli", "frame_report", "similarity.frame_report"),
    ("blowlab.cli", "final_profile_extract", "similarity.final_profile"),
    ("blowlab.cli", "integral_sweep", "lemmas.integral_sweep"),
    ("blowlab.cli", "gronwall_suite", "lemmas.gronwall_suite"),
    ("blowlab.cli", "gamma_exponent_identity_check", "lemmas.identity_check"),
    ("blowlab.cli", "semigroup_smoothing_check", "lemmas.semigroup"),
    ("blowlab.cli", "cmd_run", "cli.run"),
    ("blowlab.cli", "cmd_frames", "cli.frames"),
    ("blowlab.cli", "cmd_report", "cli.report"),
    ("blowlab.cli", "cmd_verify", "cli.verify"),
    ("blowlab.cli", "cmd_sweep", "cli.sweep"),
    ("blowlab.cli", "_load_run", "cli.load_run"),
    ("blowlab.cli", "_write_json", "cli.write_json"),
    ("pathlib", "Path.write_text", "cli.write_text"),
]

# Spans whose self time is the command's own formatting work.
_COMMANDS = ("cli.run", "cli.frames", "cli.report", "cli.verify", "cli.sweep")


class Tracer:
    """In-memory span store with a stack for parent links."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._undo: list = []
        self.missing: list[str] = []
        self.clear()

    def clear(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.op_counters: list[dict] = []
        self._trajectories: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def on_stack(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and any(self.name_id[i] == nid for i in self.stack)

    # -- patching ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        hook = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.finish(idx)
                if name == "config.build" and type(exc).__name__ == "ConfigError":
                    self.count("config.points_rejected")
                raise
            self.finish(idx)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every reachable target; record unreachable ones as missing."""
        self.missing = []
        wrapped: dict[int, object] = {}
        for module_name, attr, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            if id(original) not in wrapped:
                wrapped[id(original)] = self._wrap(original, name)
            setattr(owner, leaf, wrapped[id(original)])
            self._undo.append((owner, leaf, original))
        self._install_pool()

    def _install_pool(self) -> None:
        try:
            cli = importlib.import_module("blowlab.cli")
            base = cli.ProcessPoolExecutor
        except (ImportError, AttributeError):
            self.missing.append("blowlab.cli.ProcessPoolExecutor")
            return
        tracer = self

        class TracedPool(base):
            def __enter__(self):
                self._bench_span = tracer.begin("cli.sweep_pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.finish(self._bench_span)

        cli.ProcessPoolExecutor = TracedPool
        self._undo.append((cli, "ProcessPoolExecutor", base))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    # -- trajectories and output -----------------------------------------

    def settle(self) -> None:
        """Turn the trajectories kept by ``solver.run`` into counters.

        Done outside any timed span, after the operation (or sweep job) ends.
        """
        for traj, in_semigroup in self._trajectories:
            hist = np.asarray(traj.maxnorm_history, dtype=float)
            steps = len(hist) - 1
            diff, react = dt_branches(hist, traj.config)
            self.count("solver.steps", steps)
            self.count("solver.steps_diffusion_limited", diff)
            self.count("solver.steps_reaction_limited", react)
            self.count("solver.history_rows", len(hist))
            self.count("solver.snapshots", len(traj.snapshots))
            if in_semigroup:
                self.count("lemmas.semigroup_steps", steps)
        self._trajectories.clear()

    def close_op(self) -> None:
        """Settle and file the counters of the operation that just ended."""
        self.settle()
        self.op_counters.append(self.counters)
        self.counters = {}

    def dump(self, path) -> None:
        np.savez(path, name_id=np.asarray(self.name_id, dtype=np.int32),
                 parent=np.asarray(self.parent, dtype=np.int32),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 names=np.array(json.dumps(self.names)),
                 counters=np.array(json.dumps(self.op_counters or [self.counters])))


def _after_run(tracer: Tracer, args, trajectory) -> None:
    tracer._trajectories.append((trajectory, tracer.on_stack("lemmas.semigroup")))


def _after_save(kind: str):
    def hook(tracer: Tracer, args, _result) -> None:
        tracer.count(f"solver.{kind}_bytes", os.path.getsize(args[1]))
    return hook


_AFTER = {
    "solver.run": _after_run,
    "solver.save_checkpoint": _after_save("checkpoint"),
    "solver.save_snapshots": _after_save("snapshots"),
}


def dt_branches(hist: np.ndarray, config) -> tuple[int, int]:
    """Steps whose dt was set by the diffusion bound, and by the reaction
    bound, recomputed from the history's dt and sup columns.  Steps clipped
    to ``t_max`` belong to neither."""
    dt = hist[1:, 3]
    sup_before = hist[:-1, 1]
    safety = config.dt_safety
    p = config.params.p
    dt_diff = safety * config.grid.h ** 2 / (2.0 * config.grid.dim)
    with np.errstate(over="ignore"):
        dt_react = safety / (1.0 + p * sup_before ** (p - 1.0))
    diffusion = dt >= dt_diff * (1.0 - 1e-12)
    reaction = ~diffusion & (np.abs(dt - dt_react) <= 1e-12 * dt_react)
    return int(np.sum(diffusion)), int(np.sum(reaction))


def load_spans(path) -> dict:
    with np.load(path) as data:
        return {"name_id": data["name_id"], "parent": data["parent"],
                "start": data["start"], "end": data["end"],
                "names": json.loads(str(data["names"])),
                "counters": json.loads(str(data["counters"]))}


def op_windows(spans: dict) -> list[tuple[float, float]]:
    """(start, end) of each ``bench.op`` span, in order."""
    if "bench.op" not in spans["names"]:
        return []
    mask = spans["name_id"] == spans["names"].index("bench.op")
    return list(zip(spans["start"][mask], spans["end"][mask]))


def _aggregate(spans: dict, into: dict, window=None) -> None:
    """Add calls, inclusive and self time per span name into ``into``,
    for the spans inside ``window`` (all spans when it is None)."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    inside = np.ones(len(dur), dtype=bool)
    if window is not None:
        inside = (spans["start"] >= window[0]) & (spans["end"] <= window[1])
    for nid, name in enumerate(spans["names"]):
        mask = (spans["name_id"] == nid) & inside
        if not np.any(mask):
            continue
        calls, total, own = into.get(name, (0, 0.0, 0.0))
        into[name] = (calls + int(np.sum(mask)), total + float(np.sum(dur[mask])),
                      own + float(np.sum(self_time[mask])))


def derive_op(parts: list[tuple], workers: int) -> dict:
    """Per-layer metrics of one operation.

    ``parts`` holds (spans, window, counters) for every process that took
    part in it: the runner's spans inside the operation's window, and each
    sweep job's spans (window None)."""
    agg: dict[str, tuple] = {}
    counters: dict[str, float] = {}
    for spans, window, op_counters in parts:
        _aggregate(spans, agg, window)
        for key, value in op_counters.items():
            counters[key] = counters.get(key, 0.0) + value

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return agg.get(name, (0, 0.0, 0.0))[2]

    def mean_us(name):
        return 1e6 * total(name) / calls(name) if calls(name) else 0.0

    def count(key):
        return counters.get(key, 0.0)

    steps = count("solver.steps")
    sweep_s = total("cli.sweep")
    out = {
        "fields.laplacian_calls": calls("fields.laplacian"),
        "fields.laplacian_us": mean_us("fields.laplacian"),
        "fields.gradient_calls": calls("fields.gradient"),
        "fields.gradient_us": mean_us("fields.gradient"),
        "fields.prefix_calls": calls("fields.prefix"),
        "fields.prefix_us": mean_us("fields.prefix"),
        "solver.steps": steps,
        "solver.steps_diffusion_limited": count("solver.steps_diffusion_limited"),
        "solver.steps_reaction_limited": count("solver.steps_reaction_limited"),
        "solver.rhs_calls": calls("solver.rhs"),
        "solver.rhs_us": mean_us("solver.rhs"),
        "solver.step_us": mean_us("solver.step"),
        "solver.loop_self_us": (1e6 * (total("solver.advance") - total("solver.step")) / steps
                                if steps else 0.0),
        "solver.history_rows": count("solver.history_rows"),
        "solver.snapshots": count("solver.snapshots"),
        "solver.estimate_T_s": total("solver.estimate_T"),
        "solver.far_field_s": total("solver.far_field"),
        "solver.save_checkpoint_s": total("solver.save_checkpoint"),
        "solver.checkpoint_bytes": count("solver.checkpoint_bytes"),
        "solver.save_snapshots_s": total("solver.save_snapshots"),
        "solver.snapshots_bytes": count("solver.snapshots_bytes"),
        "solver.trajectory_csv_s": total("solver.trajectory_csv"),
        "solver.load_checkpoint_s": total("solver.load_checkpoint"),
        "solver.load_snapshots_s": total("solver.load_snapshots"),
        "similarity.extract_frame_calls": calls("similarity.extract_frame"),
        "similarity.extract_frame_s": total("similarity.extract_frame"),
        "similarity.frame_report_s": total("similarity.frame_report"),
        "similarity.final_profile_s": total("similarity.final_profile"),
        "lemmas.integral_sweep_s": total("lemmas.integral_sweep"),
        "lemmas.quad_calls": calls("lemmas.quad"),
        "lemmas.gronwall_suite_s": total("lemmas.gronwall_suite"),
        "lemmas.identity_check_s": total("lemmas.identity_check"),
        "lemmas.semigroup_s": total("lemmas.semigroup"),
        "lemmas.semigroup_steps": count("lemmas.semigroup_steps"),
        "lemmas.decay_fit_s": total("lemmas.decay_fit"),
        "profiles.seed_s": total("profiles.seed"),
        "config.build_s": total("config.build"),
        "config.points_rejected": count("config.points_rejected"),
        "cli.run_s": total("cli.run"),
        "cli.frames_s": total("cli.frames"),
        "cli.report_s": total("cli.report"),
        "cli.verify_s": total("cli.verify"),
        "cli.sweep_s": sweep_s,
        "cli.load_run_s": total("cli.load_run"),
        "cli.text_write_s": (sum(own(name) for name in _COMMANDS) + total("cli.write_json")
                             + total("cli.write_text") + total("cli.field_csv")),
        "cli.sweep_busy_s": total("cli.sweep_point"),
        "cli.sweep_efficiency": (total("cli.sweep_point") / (workers * sweep_s)
                                 if sweep_s and workers else 0.0),
    }
    return out


# name -> unit, in the order BENCHMARK.json lists them
UNITS = {name: ("count" if name.endswith(("_calls", "steps", "_limited", "_rows", "snapshots",
                                          "rejected"))
                else "bytes" if name.endswith("_bytes")
                else "us" if name.endswith("_us")
                else "ratio" if name.endswith("efficiency")
                else "s")
         for name in derive_op([], 0)}
UNITS.update({"trace.missing_targets": "count", "trace.op_s_untraced": "s",
              "trace.op_s_traced": "s", "trace.overhead_pct": "%"})
