import importlib.util
import json
from pathlib import Path

import numpy as np

from blowlab.cli import main
from test_config_cli import write_config

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name="same_outputs"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_compare_equal_and_a_change_is_named(tmp_path, capsys):
    """Two runs differ in their wall times, their out_dir and their
    archives' zip timestamps, none of which is a result."""
    config = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["run", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    tool = _tool()
    assert tool.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == ""

    csv = bytearray((b / "trajectory.csv").read_bytes())
    csv[-2] = ord("0") if csv[-2] != ord("0") else ord("1")
    (b / "trajectory.csv").write_bytes(bytes(csv))
    assert tool.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == "differs  trajectory.csv\n"

    (a / "trajectory.csv").write_bytes(bytes(csv))
    (b / "field_final.csv").unlink()
    assert tool.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == "missing  field_final.csv\n"
    assert tool.main([str(b), str(a)]) == 1
    assert capsys.readouterr().out == "extra    field_final.csv\n"


def test_results_that_differ_are_named(tmp_path, capsys):
    """Outside the volatile keys a JSON value is a result, and so is each
    archive member's dtype, shape and bytes, the bytes in C order whatever
    order the member is stored in."""
    a, b = tmp_path / "a", tmp_path / "b"
    grid = np.arange(12.0).reshape(3, 4)
    for out, value, order in ((a, 1.0, "C"), (b, 2.0, "F")):
        out.mkdir()
        (out / "summary.json").write_text(
            f'{{"wall_s": {value}, "manifest": {{"out_dir": "{out}"}}, "t": 1.0}}')
        np.savez_compressed(out / "run.npz", x=np.arange(3.0), v=np.asarray(grid, order=order))
    tool = _tool()
    assert tool.main([str(a), str(b)]) == 0
    changed = np.asfortranarray(grid)
    changed[2, 1] = -1.0
    np.savez_compressed(b / "run.npz", x=np.arange(3.0), v=changed)
    assert tool.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == "differs  run.npz\n"
    (b / "summary.json").write_text('{"t": 1.5}')
    np.savez_compressed(b / "run.npz", x=np.arange(3))
    assert tool.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == "differs  run.npz\ndiffers  summary.json\n"


def test_reference_outputs_write_every_command_and_mask_out(tmp_path, capsys):
    """One run of ``tools/reference_outputs.py``: every command exits 0 and
    leaves its streams and its artifacts, and no stream holds the OUT path."""
    tool = _tool("reference_outputs")
    out = (tmp_path / "ref").resolve()
    assert tool.main([str(out)]) == 0
    assert json.loads((out / "exit_codes.json").read_text()) == {
        name: 0 for name, _ in tool.COMMANDS}
    streams = {f"{name}.stdout{'.json' if '--json' in args else ''}"
               for name, args in tool.COMMANDS} | {f"{name}.stderr" for name, _ in tool.COMMANDS}
    assert {path.name for path in (out / "streams").iterdir()} == streams
    for path in (out / "streams").iterdir():
        assert str(out) not in path.read_text()
    assert (out / "streams" / "report.stdout").read_text().startswith("run in <OUT>/run\n")
    assert "wall:" not in (out / "streams" / "report.stdout").read_text()
    json.loads((out / "streams" / "run-mu0.stdout.json").read_text())
    run_files = {"manifest.json", "run_summary.json", "blowup_estimate.json", "snapshots.npz",
                 "trajectory.csv", "field_final.csv"}
    expected = {
        "run": run_files | {"frames_summary.json", "frame_x0_0p2.npz", "frame_x0_0p1.npz",
                            "frame_x0_0p05.npz"},
        "frames-K0-2": {"snapshots.npz", "frames_summary.json", "frame_x0_0p2.npz",
                        "frame_x0_0p1.npz", "frame_x0_0p05.npz", "frame_x0_m0p15.npz"},
        "frames-wall": {"snapshots.npz", "frames_summary.json", "frame_x0_0p999.npz"},
        "run-dim2": run_files | {"frames_summary.json", "frame_x0_m0p15.npz"},
        "run-cap1e7": run_files, "run-mu0": run_files,
        "run-cap1e2": run_files - {"blowup_estimate.json"},  # too short for a fit
        "verify": {"verification_report.json", "integral_sweep.csv"},
        "sweep-2": {"manifest.json", "sweep_summary.csv", "point_0014"},
        "sweep-1": {"manifest.json", "sweep_summary.csv", "point_0014"},
    }
    for tree, names in expected.items():
        assert names <= {path.name for path in (out / tree).iterdir()}, tree
    wall = json.loads((out / "frames-wall" / "frames_summary.json").read_text())
    assert [report["clipped"] for report in wall["reports"]] == [True]
