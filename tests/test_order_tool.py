import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "order.py"


def _tool():
    spec = importlib.util.spec_from_file_location("order", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_one_row_per_safety_and_the_observed_order(tmp_path, capsys):
    """M=64 to the cap 1e4: the step is third order (measured 3.002 and
    3.005 for T_est and kappa_est)."""
    config = tmp_path / "run.cfg"
    config.write_text("M = 64\nblowup_cap = 1e4\n")
    assert _tool().main([str(config), "0.3", "0.15", "0.075"]) == 0
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["dt_safety", "steps", "stepping_s", "T_est", "kappa_est", "order_T",
                      "order_kappa"]
    assert [row[0] for row in rows] == ["0.3", "0.15", "0.075"]
    assert [int(row[1]) for row in rows] == [97, 206, 425]
    assert rows[0][5:] == rows[1][5:] == ["-", "-"]
    assert all(2.9 <= float(order) <= 3.1 for order in rows[2][5:])


def test_order_needs_geometric_safeties():
    order = _tool().observed_order
    assert abs(order([0.4, 0.2, 0.1], [8e-3, 1e-3, 1.25e-4]) - 3.0) < 1e-12
    assert order([0.4, 0.2, 0.15], [1.0, 2.0, 2.5]) is None
    assert order([0.4, 0.2, 0.1], [1.0, 2.0, 2.0]) is None


def test_a_run_that_does_not_blow_up_exits_1(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("M = 64\nmax_steps = 10\n")
    tool = _tool()
    assert tool.main([str(config), "0.15"]) == 1
    assert "need 'blown-up'" in capsys.readouterr().err
    assert tool.main([str(config), "fast"]) == 2
