import importlib.util
from pathlib import Path

import numpy as np

from blowlab.cli import main
from test_config_cli import write_config

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
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
    archive member's dtype, shape and bytes."""
    a, b = tmp_path / "a", tmp_path / "b"
    for out, value in ((a, 1.0), (b, 2.0)):
        out.mkdir()
        (out / "summary.json").write_text(
            f'{{"wall_s": {value}, "manifest": {{"out_dir": "{out}"}}, "t": 1.0}}')
        np.savez_compressed(out / "run.npz", x=np.arange(3.0))
    tool = _tool()
    assert tool.main([str(a), str(b)]) == 0
    (b / "summary.json").write_text('{"t": 1.5}')
    np.savez_compressed(b / "run.npz", x=np.arange(3))
    assert tool.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == "differs  run.npz\ndiffers  summary.json\n"
