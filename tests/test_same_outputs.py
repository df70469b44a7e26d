import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from blowlab.cli import main
from test_config_cli import write_config

TOOLS = Path(__file__).resolve().parent.parent / "tools"
DIGESTS = Path(__file__).resolve().parent / "reference_digests.json"


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
    x, y = (float((out / "trajectory.csv").read_text().split(",")[-1]) for out in (a, b))
    relative = abs(x - y) / max(abs(x), abs(y))  # the one cell edited
    assert capsys.readouterr().out == f"differs  trajectory.csv  max rel {relative:.2g}\n"

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
    assert capsys.readouterr().out == "differs  run.npz  max rel 1.1\n"  # 9 against -1
    (b / "summary.json").write_text('{"t": 1.5}')
    np.savez_compressed(b / "run.npz", x=np.arange(3))
    assert tool.main([str(a), str(b)]) == 1
    # the archive's numbers are equal (an int x and no v): only its dtype differs
    assert capsys.readouterr().out == ("differs  run.npz  max rel 0\n"
                                       "differs  summary.json  max rel 0.33\n")


def test_a_differs_line_reads_the_largest_relative_difference(tmp_path, capsys):
    """One float perturbed in each kind of file is read back, as
    |a - b| / max(|a|, |b|), at its place: an archive member, a JSON key
    path (a volatile key is no number of the results) and a CSV cell.  A
    file whose numbers are not compared reads n/a, not 0."""
    a, b = tmp_path / "a", tmp_path / "b"
    for out, x, t, u, T in ((a, 2.0, 3.0, 2.0, 0.5), (b, 2.0 * (1.0 + 1e-9), 3.3, 2.5, 0.25)):
        out.mkdir()
        np.savez_compressed(out / "run.npz", x=np.array([1.0, x, 4.0]), n=np.arange(2))
        (out / "summary.json").write_text(
            f'{{"a": {{"b": [1.0, {t!r}]}}, "wall_s": {t + 1.0!r}, "name": "x"}}')
        (out / "field.csv").write_text(f"# t: 0.1\nr,u\n0.0,{u!r}\n1.0,0.0\n")
        (out / "run.stdout").write_text(f"run\n  T_est={T!r}  steps=439\n")
    tool = _tool()
    assert tool.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == ("differs  field.csv  max rel 0.2\n"
                                       "differs  run.npz  max rel 1e-09\n"
                                       "differs  run.stdout  max rel n/a\n"
                                       "differs  summary.json  max rel 0.091\n")


@pytest.fixture(scope="module")
def reference_tree(tmp_path_factory):
    """One run of ``tools/reference_outputs.py``: the tool and its OUT."""
    tool = _tool("reference_outputs")
    out = (tmp_path_factory.mktemp("reference") / "ref").resolve()
    assert tool.main([str(out)]) == 0
    return tool, out


def test_reference_outputs_write_every_command_and_mask_out(reference_tree):
    """Every command exits 0 and leaves its streams and its artifacts, and
    no stream holds the OUT path."""
    tool, out = reference_tree
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
                            "frame_x0_0p05.npz", "decay_fit.json"},
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
    fit = json.loads((out / "run" / "decay_fit.json").read_text())
    assert list(fit) == ["slope", "C_eta", "s_lo", "s_hi", "n_points"]
    assert fit["n_points"] >= 5 and fit["s_lo"] < fit["s_hi"]
    wall = json.loads((out / "frames-wall" / "frames_summary.json").read_text())
    assert [report["clipped"] for report in wall["reports"]] == [True]


def test_reference_outputs_are_the_committed_digests(reference_tree):
    """Every result of the reference commands is the one digested in
    ``tests/reference_digests.json``: each file that differs from it, is
    missing or is extra is named.  A change that moves a result regenerates
    the digests with

        python tools/reference_outputs.py OUT
        python tools/same_outputs.py --digest OUT > tests/reference_digests.json

    and says which files moved and why.  The digests hold for the numpy,
    scipy and CPU features they were made on, which they record."""
    _, out = reference_tree
    tool = _tool()
    committed = json.loads(DIGESTS.read_text())
    here = tool.environment()
    if committed["environment"] != here:
        pytest.skip(f"digests made under {committed['environment']}, not {here}")
    lines = tool.diff(committed["files"], tool.digests(out))
    assert not lines, "\n".join(["the reference outputs moved:", *lines])
