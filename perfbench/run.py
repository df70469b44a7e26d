"""End-to-end benchmark of blowlab: one command, four workloads.

    python3 perfbench/run.py --workload blowup --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from a checkout that holds blowlab's ``src/``.  Each run sets up a runner
process (imports, config files, the stored run for ``analyse``) three times
and reports the median as ``setup_s``; then it repeats whole operations for
about ``--seconds`` seconds, checks every operation's output against values
computed apart from blowlab, and prints one JSON object as its last line.
With ``--trace 1`` it alternates untraced and traced operations and reports
the per-layer metrics, and the tracing overhead, instead.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
SETUP_REPEATS = 3
SWEEP_GRID = "p=3.5:4.5:3,mu=-0.2:0.2:5"
SWEEP_WORKERS = 2
SWEEP_POINTS = 15
K0_VALUES = (2.0, 4.0, 8.0)
WORKLOADS = ("blowup", "verify", "analyse", "sweep")


def draw_inputs(seed: int) -> dict:
    """The default seed gives the reference inputs; any other seed draws the
    three analyse radii from [0.05, 0.2] and jitters t_star by up to 2%.

    One radius is drawn from each third of [0.05, 0.2], as the reference
    radii are spread: the frame outputs grow with x0, and three independent
    draws would move ``artifact_mb`` by ~13% between seeds."""
    if seed == DEFAULT_SEED:
        return {"t_star": 0.01, "radii": [0.2, 0.1, 0.05]}
    rng = np.random.default_rng(seed)
    radii = [float(rng.uniform(lo, lo + 0.05)) for lo in (0.15, 0.1, 0.05)]
    return {"t_star": 0.01 * (1.0 + float(rng.uniform(-0.02, 0.02))), "radii": radii}


class RunnerProcess:
    """The child that imports blowlab and executes operations."""

    def __init__(self, work: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "runner.py"), str(ROOT), str(work)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            hello = self._read()
            if not Path(hello["blowlab"]).resolve().is_relative_to(ROOT / "src"):
                raise RuntimeError(f"blowlab imported from {hello['blowlab']}, not this checkout")
        except BaseException:
            self.close()
            raise

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"runner exited with code {self.proc.wait()}")
        reply = json.loads(line)
        if not reply.pop("ok"):
            raise RuntimeError(f"runner failed:\n{reply['error']}")
        return reply

    def request(self, cmd: str, **fields) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write('{"cmd": "quit"}\n')
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def dir_bytes(path: Path, skip=frozenset()) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file() and f.name not in skip)


class Workload:
    """Inputs, one operation's actions, and the checks of its outputs."""

    def __init__(self, name: str, work: Path, inputs: dict):
        self.name = name
        self.work = work
        self.inputs = inputs
        self.out = work / "out"
        self.stored_files: frozenset = frozenset()

    # configuration files and the runner's set-up request
    def write_configs(self) -> dict:
        t_star = self.inputs["t_star"]
        if self.name == "blowup":
            (self.work / "run.cfg").write_text(f"M = 1024\nt_star = {t_star!r}\n")
        elif self.name == "analyse":
            (self.work / "run.cfg").write_text(f"M = 512\nt_star = {t_star!r}\n")
            return {"workload": "analyse", "config": str(self.work / "run.cfg"),
                    "stored": str(self.work / "stored"),
                    "copies": [str(self.frames_dir(K0)) for K0 in K0_VALUES]}
        elif self.name == "sweep":
            # seed-independent: the two kept faults must fail on the same inputs
            (self.work / "run.cfg").write_text("dim = 2\nq = 4.6\nM = 256\n")
        return {"workload": self.name}

    def frames_dir(self, K0: float) -> Path:
        return self.work / f"frames_K{K0:g}"

    def after_setup(self) -> None:
        if self.name == "analyse":
            self.stored_files = frozenset(p.name for p in (self.work / "stored").iterdir())

    def actions(self) -> list:
        cfg = str(self.work / "run.cfg")
        out = str(self.out)
        if self.name == "blowup":
            return [["cli", ["run", "--config", cfg, "--out", out]]]
        if self.name == "verify":
            return [["cli", ["verify", "--out", out]]]
        if self.name == "sweep":
            return [["cli", ["sweep", "--config", cfg, "--grid", SWEEP_GRID,
                             "--workers", str(SWEEP_WORKERS), "--out", out]]]
        x0 = ",".join(repr(x) for x in self.inputs["radii"])
        frames = [["cli", ["frames", "--out", str(self.frames_dir(K0)), "--x0", x0,
                           "--K0", repr(K0)]] for K0 in K0_VALUES]
        last = str(self.frames_dir(K0_VALUES[-1]))
        return frames + [["cli", ["report", "--out", last]], ["decay_fit", last]]

    def clear_outputs(self) -> None:
        if self.name == "analyse":
            for K0 in K0_VALUES:
                for path in self.frames_dir(K0).iterdir():
                    if path.name not in self.stored_files:
                        path.unlink()
        elif self.out.exists():
            shutil.rmtree(self.out)

    def artifact_bytes(self) -> int:
        if self.name == "analyse":
            return sum(dir_bytes(self.frames_dir(K0), self.stored_files) for K0 in K0_VALUES)
        return dir_bytes(self.out)

    def check(self, results: list) -> tuple[int, list, list]:
        """(operations attempted, [(fault tag, message)] of failed ones,
        errors in the output of the operations that did not fail)."""
        attempted = SWEEP_POINTS if self.name == "sweep" else 1
        crashed = [r["error"] for r in results if "error" in r]
        if crashed:
            return attempted, [("other", crashed[0].strip().splitlines()[-1])] * attempted, []
        codes = [r["code"] for r in results if "code" in r]
        if self.name == "blowup":
            if codes != [0]:
                return 1, [("other", f"run exited with {codes}")], []
            return 1, [], checks.check_blowup(self.out, p=4.0, q=3.0, dim=1, h=1.0 / 1024)
        if self.name == "verify":
            return 1, [], checks.check_verify(self.out, codes[0])
        if self.name == "analyse":
            if any(codes):
                return 1, [("other", f"analyse commands exited with {codes}")], []
            frames = {K0: json.loads((self.frames_dir(K0) / "frames_summary.json").read_text())
                      for K0 in K0_VALUES}
            errors = checks.check_analyse(frames, results[-1])
            if "blown-up" not in results[-2]["stdout"]:
                errors.append("report does not show the blown-up status")
            return 1, [], errors
        if codes != [0]:
            return attempted, [("other", f"sweep exited with {codes}")] * attempted, []
        errors, points = checks.check_sweep(self.out, SWEEP_POINTS, h=1.0 / 256)
        failed = [(tag, f"point {i}: {msg}") for i, tag, msg in points if tag is not None]
        return attempted, failed, errors


def run_op(runner: RunnerProcess, workload: Workload, tally: dict) -> dict:
    """One operation on fresh output directories, checked and tallied."""
    workload.clear_outputs()
    reply = runner.request("op", actions=workload.actions())
    reply["artifact_bytes"] = workload.artifact_bytes()
    attempted, failed, errors = workload.check(reply["results"])
    reply["passed"] = attempted - len(failed)
    tally["attempted"] += attempted
    tally["failed"] += len(failed)
    for tag, message in failed:
        tally["tags"][tag] = tally["tags"].get(tag, 0) + 1
        tally["messages"].add(message)
    tally["errors"] += errors
    print(f"{workload.name} op {reply['op_index']}: {reply['op_s']:.4f} s wall, "
          f"{reply['cpu_s']:.4f} s CPU", file=sys.stderr)
    return reply


def run_rounds(runner: RunnerProcess, workload: Workload, seconds: float, tally: dict,
               traced: bool) -> tuple[list[dict], list[dict]]:
    """Whole rounds, at least one, until about ``seconds`` of operation time
    is spent.  A round is one untraced operation, followed by one traced
    operation when ``traced``; alternating them keeps the machine's drift
    out of the tracing overhead.  Returns (untraced, traced) replies."""
    plain, with_spans = [], []
    while True:
        plain.append(run_op(runner, workload, tally))
        if traced:
            runner.request("trace", on=True)
            with_spans.append(run_op(runner, workload, tally))
            runner.request("trace", on=False)
        spent = sum(r["op_s"] for r in plain + with_spans)
        last = plain[-1]["op_s"] + (with_spans[-1]["op_s"] if traced else 0.0)
        if spent + 0.5 * last >= seconds:
            return plain, with_spans


def op_seconds(reply: dict, workload: Workload) -> float:
    """Wall time of one operation; for the sweep, per point that passed."""
    if workload.name == "sweep":
        return reply["op_s"] / max(reply["passed"], 1)
    return reply["op_s"]


def set_up(workload: Workload) -> tuple[RunnerProcess, float]:
    """Set up SETUP_REPEATS times; keep the last runner, report the median."""
    times = []
    for attempt in range(SETUP_REPEATS):
        shutil.rmtree(workload.work, ignore_errors=True)
        workload.work.mkdir(parents=True)
        start = perf_counter()
        request = workload.write_configs()
        runner = RunnerProcess(workload.work)
        try:
            runner.request("setup", **request)
        except BaseException:
            runner.close()
            raise
        times.append(perf_counter() - start)
        if attempt < SETUP_REPEATS - 1:
            runner.close()
    workload.after_setup()
    return runner, statistics.median(times)


def per_layer(runner: RunnerProcess, replies: list[dict]) -> dict:
    """Median over the traced operations of each per-layer metric."""
    dump = runner.request("dump")
    runner_spans = tracing.load_spans(dump["path"])
    windows = tracing.op_windows(runner_spans)
    trace_dir = Path(dump["path"]).parent
    per_op = []
    for reply, window, counters in zip(replies, windows, runner_spans["counters"]):
        parts = [(runner_spans, window, counters)]
        for path in sorted(trace_dir.glob(f"op{reply['op_index']}-w*.npz")):
            spans = tracing.load_spans(path)
            parts.append((spans, None, spans["counters"][0]))
        per_op.append(tracing.derive_op(parts, SWEEP_WORKERS))
    return {key: statistics.median(op[key] for op in per_op) for key in per_op[0]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    workload = Workload(name, work, draw_inputs(seed))
    tally = {"attempted": 0, "failed": 0, "tags": {}, "messages": set(), "errors": []}
    runner = None
    try:
        runner, setup_s = set_up(workload)
        plain, traced = run_rounds(runner, workload, seconds, tally, trace)
        if not trace:
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_s": (statistics.median(op_seconds(r, workload) for r in plain), "s"),
                "peak_rss_mb": (statistics.median((r["rss_kb"] + r["worker_rss_kb"]) / 1024.0
                                                  for r in plain), "MB"),
                "artifact_mb": (statistics.median(r["artifact_bytes"] / 1e6 for r in plain),
                                "MB"),
            }
        else:
            missing = runner.request("trace", on=False)["missing"]  # already off; names only
            layers = per_layer(runner, traced)
            untraced_s = statistics.median(op_seconds(r, workload) for r in plain)
            traced_s = statistics.median(op_seconds(r, workload) for r in traced)
            layers.update({"trace.missing_targets": len(missing),
                           "trace.op_s_untraced": untraced_s, "trace.op_s_traced": traced_s,
                           "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0)})
            for target in missing:
                print(f"{name}: trace target missing: {target}", file=sys.stderr)
            metrics = {key: (value, tracing.UNITS[key]) for key, value in layers.items()}
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    return metrics, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "blowlab" / "__init__.py").is_file():
        print(f"no blowlab sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    import selftest

    problems = selftest.run()
    if problems:
        for problem in problems:
            print(f"check self-test failed: {problem}", file=sys.stderr)
        return 1

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, tally = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for message in sorted(tally["messages"]):
            print(f"{name}: failed: {message}", file=sys.stderr)
        for error in tally["errors"]:
            print(f"{name}: WRONG OUTPUT: {error}", file=sys.stderr)
        result["correct"] = result["correct"] and not tally["errors"]
        result["attempted"] += tally["attempted"]
        result["failed"] += tally["failed"]
        tags = ", ".join(f"{k} {v}" for k, v in sorted(tally["tags"].items()))
        print(f"{name}: attempted {tally['attempted']}  failed {tally['failed']}"
              + (f" ({tags})" if tags else "")
              + f"  output {'correct' if not tally['errors'] else 'WRONG'}")
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit) in metrics.items():
            print(f"{name}: {key} = {value:.6g} {unit}")
            result["metrics"][prefix + key] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
