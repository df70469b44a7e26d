"""Write the outputs of a fixed set of blowlab commands under one directory.

    python tools/reference_outputs.py OUT

The commands run in this process, on the blowlab of this checkout's
``src/``.  Each command's files go to ``OUT/<name>/`` (``frames`` and
``report`` read and write the tree of ``run``), its exit code to
``OUT/exit_codes.json`` and its streams to ``OUT/streams/<name>.stdout``
and ``.stderr``: stdout as ``.json`` when the command prints JSON, and
both with OUT written as ``<OUT>`` and without ``report``'s ``wall:`` line
and the sweep's progress lines, which hold wall times.  Two checkouts give
the same results when, run from each into its own OUT,

    python tools/same_outputs.py OUT_A OUT_B

exits 0.  The commands: ``run`` at M=1024, ``frames --x0 0.2,0.1,0.05
--K0 4`` and ``report`` (as text and as JSON) on it; on copies of its run
archive, each in its own tree, ``frames`` at K0 = 2 and 8 with x0 =
0.2, 0.1, 0.05 and -0.15, and at x0 = 0.999, one cell from the wall, with
a ``--window`` that is clipped; a dim=2 neumann run (q=4.3, M=256, cap
1e6) and ``frames`` on it; runs at M=64 to the caps 1e2 and 1e7, a mu=0
run at M=512, ``verify --out`` and the 15-point dim=2 sweep at
``--workers`` 2 and 1.
"""
from __future__ import annotations

import json
import re
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from blowlab.cli import main as blowlab_main  # noqa: E402  (this checkout's, as above)

# config file name -> its text
CONFIGS = {
    "run.cfg": "M = 1024\n",
    "dim2.cfg": "dim = 2\nq = 4.3\nM = 256\nboundary = neumann-zero\nblowup_cap = 1e6\n",
    "cap1e2.cfg": "M = 64\nblowup_cap = 1e2\n",
    "cap1e7.cfg": "M = 64\nblowup_cap = 1e7\n",
    "mu0.cfg": "mu = 0\nM = 512\n",
    "sweep.cfg": "dim = 2\nq = 4.6\nM = 256\n",
}
SWEEP_GRID = "p=3.5:4.5:3,mu=-0.2:0.2:5"
# (name, arguments); {out} is OUT and {cfg} its configs directory
COMMANDS = [
    ("run", ["run", "--config", "{cfg}/run.cfg", "--out", "{out}/run"]),
    ("frames", ["frames", "--out", "{out}/run", "--x0", "0.2,0.1,0.05", "--K0", "4"]),
    ("report", ["report", "--out", "{out}/run"]),
    ("report-json", ["report", "--out", "{out}/run", "--json"]),
    ("frames-K0-2", ["frames", "--out", "{out}/frames-K0-2", "--x0", "0.2,0.1,0.05,-0.15",
                     "--K0", "2"]),
    ("frames-K0-8", ["frames", "--out", "{out}/frames-K0-8", "--x0", "0.2,0.1,0.05,-0.15",
                     "--K0", "8"]),
    ("frames-wall", ["frames", "--out", "{out}/frames-wall", "--x0", "0.999", "--K0", "8",
                     "--window", "1"]),
    ("run-dim2", ["run", "--config", "{cfg}/dim2.cfg", "--out", "{out}/run-dim2"]),
    ("frames-dim2", ["frames", "--out", "{out}/run-dim2", "--x0", "0.2,0.1,-0.15",
                     "--K0", "4"]),
    ("run-cap1e2", ["run", "--config", "{cfg}/cap1e2.cfg", "--out", "{out}/run-cap1e2"]),
    ("run-cap1e7", ["run", "--config", "{cfg}/cap1e7.cfg", "--out", "{out}/run-cap1e7"]),
    ("run-mu0", ["run", "--config", "{cfg}/mu0.cfg", "--out", "{out}/run-mu0", "--json"]),
    ("verify", ["verify", "--out", "{out}/verify"]),
    ("sweep-2", ["sweep", "--config", "{cfg}/sweep.cfg", "--grid", SWEEP_GRID,
                 "--workers", "2", "--out", "{out}/sweep-2"]),
    ("sweep-1", ["sweep", "--config", "{cfg}/sweep.cfg", "--grid", SWEEP_GRID,
                 "--workers", "1", "--out", "{out}/sweep-1"]),
]
# command -> the tree whose run archive it reads, copied into OUT/<command>
ARCHIVE_OF = {"frames-K0-2": "run", "frames-K0-8": "run", "frames-wall": "run"}
# lines that hold wall times
_VOLATILE = re.compile(r"\s*wall: |sweep: \d+/\d+ points done ")


def _masked(text: str, out: Path) -> str:
    return "".join(line for line in text.replace(str(out), "<OUT>").splitlines(True)
                   if not _VOLATILE.match(line))


def run_commands(out: Path) -> dict:
    """Run every command into ``out``; returns each one's exit code."""
    cfg, streams = out / "configs", out / "streams"
    cfg.mkdir(parents=True)
    streams.mkdir()
    for name, text in CONFIGS.items():
        (cfg / name).write_text(text)
    codes = {}
    for name, args in COMMANDS:
        argv = [arg.format(out=out, cfg=cfg) for arg in args]
        if name in ARCHIVE_OF:
            (out / name).mkdir()
            shutil.copyfile(out / ARCHIVE_OF[name] / "snapshots.npz",
                            out / name / "snapshots.npz")
        raw = {key: streams / f"{name}.{key}.raw" for key in ("stdout", "stderr")}
        # real files, line-buffered, so forked sweep workers write to them too
        with raw["stdout"].open("w", buffering=1) as fo, \
                raw["stderr"].open("w", buffering=1) as fe, \
                redirect_stdout(fo), redirect_stderr(fe):
            codes[name] = blowlab_main(argv)
        suffix = {"stdout": ".json" if "--json" in argv else "", "stderr": ""}
        for key, path in raw.items():
            (streams / f"{name}.{key}{suffix[key]}").write_text(_masked(path.read_text(), out))
            path.unlink()
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    return codes


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or (Path(args[0]).exists() and any(Path(args[0]).iterdir())):
        print("usage: python tools/reference_outputs.py OUT  (a new or empty directory)",
              file=sys.stderr)
        return 2
    out = Path(args[0]).resolve()
    for name, code in run_commands(out).items():
        print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
