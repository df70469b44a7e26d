"""Benchmark runner process: imports blowlab once and executes operations.

Started by ``run.py`` with the checkout root and a work directory.  It reads
one JSON request per line on stdin and answers one JSON line on its
protocol stream (the original stdout; blowlab's own printing is captured
per action).  Requests:

  {"cmd": "setup", ...}     workload set-up (the stored run for ``analyse``)
  {"cmd": "op", "actions"}  one timed operation; returns wall time, peak RSS
  {"cmd": "trace", "on"}    record spans for the following ops, or stop
  {"cmd": "dump"}           write the recorded spans
  {"cmd": "quit"}
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter


class Runner:
    """Executes run.py's requests inside one process that imported blowlab."""

    def __init__(self, work: Path):
        self.rss_dir = work / "rss"
        self.trace_dir = work / "trace"
        self.rss_dir.mkdir(parents=True, exist_ok=True)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.op_index = 0
        self.tracer = None
        self.tracing = False
        from blowlab import cli, lemmas  # the import cost belongs to set-up
        self.cli = cli
        self.lemmas = lemmas
        self._wrap_sweep_worker()

    def _wrap_sweep_worker(self) -> None:
        """Make every sweep job report its process's peak RSS (and, when
        tracing, its spans).  Jobs reach forked workers by import path, so
        the wrapper keeps the original's name and is found there too."""
        original = getattr(self.cli, "_sweep_worker", None)
        if original is None:
            return
        runner = self

        @functools.wraps(original)
        def sweep_worker(job):
            tag = f"op{runner.op_index}-w{os.getpid()}"
            tracer = runner.tracer if runner.tracing else None
            if tracer is not None:
                tracer.clear()  # drop the parent's spans copied by fork
                span = tracer.begin("cli.sweep_point")
            try:
                return original(job)
            finally:
                if tracer is not None:
                    tracer.finish(span)
                    tracer.settle()
                    tracer.dump(runner.trace_dir / f"{tag}-{job[0]}.npz")
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                (runner.rss_dir / tag).write_text(str(rss))

        self.cli._sweep_worker = sweep_worker

    def setup(self, req: dict) -> dict:
        if req["workload"] == "analyse":
            stored = Path(req["stored"])
            code, _ = self._cli(["run", "--config", req["config"], "--out", str(stored)])
            if code != 0:
                raise RuntimeError(f"stored run exited with code {code}")
            for target in req["copies"]:
                shutil.copytree(stored, target, dirs_exist_ok=True)
        return {}

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue()

    def _decay_fit(self, out: str) -> dict:
        trajectory = self.cli._load_run(Path(out))
        params = trajectory.config.params
        fit = self.lemmas.nonlocal_decay_fit(trajectory, params, params.gamma / 4.0)
        return {"slope": fit.slope}

    def op(self, req: dict) -> dict:
        self.op_index += 1
        results = []
        span = self.tracer.begin("bench.op") if self.tracing else None
        cpu0 = _cpu_seconds()
        start = perf_counter()
        for kind, *arg in req["actions"]:
            try:
                if kind == "cli":
                    code, text = self._cli(arg[0])
                    results.append({"code": code, "stdout": text})
                else:
                    results.append(self._decay_fit(*arg))
            except Exception:  # the operation failed; the runner carries on
                results.append({"error": traceback.format_exc()})
                break
        op_s = perf_counter() - start
        cpu_s = _cpu_seconds() - cpu0
        if span is not None:
            self.tracer.finish(span)
            self.tracer.close_op()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        worker_kb = sum(int(path.read_text())
                        for path in self.rss_dir.glob(f"op{self.op_index}-w*"))
        return {"op_s": op_s, "cpu_s": cpu_s, "op_index": self.op_index, "rss_kb": rss_kb,
                "worker_rss_kb": worker_kb, "results": results}

    def trace(self, on: bool) -> dict:
        """Install the span wrappers, or remove them keeping the spans."""
        if self.tracer is None:
            from tracer import Tracer

            self.tracer = Tracer()
        if on and not self.tracing:
            self.tracer.install()
        elif not on and self.tracing:
            self.tracer.uninstall()
        self.tracing = on
        return {"missing": self.tracer.missing}

    def dump(self) -> dict:
        self.trace(False)
        path = self.trace_dir / "runner.npz"
        self.tracer.dump(path)
        return {"path": str(path)}


def _cpu_seconds() -> float:
    """CPU time of this process and of its finished children (sweep workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main() -> int:
    root, work = Path(sys.argv[1]), Path(sys.argv[2])
    # the protocol keeps the real stdout; anything else printed goes to stderr
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    try:
        runner = Runner(work)
        reply = {"ok": True, "blowlab": runner.cli.__file__}
    except Exception:
        reply = {"ok": False, "error": traceback.format_exc()}
        runner = None
    proto.write(json.dumps(reply) + "\n")
    proto.flush()
    if runner is None:
        return 1
    handlers = {"setup": runner.setup, "op": runner.op,
                "trace": lambda req: runner.trace(req["on"]), "dump": lambda req: runner.dump()}
    for line in sys.stdin:
        req = json.loads(line)
        if req["cmd"] == "quit":
            break
        try:
            reply = {"ok": True, **handlers[req["cmd"]](req)}
        except Exception:
            reply = {"ok": False, "error": traceback.format_exc()}
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
