import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_blanks_comments_and_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        '# a comment\n'
        '"""The module docstring."""\n'
        'import os  # code with a comment\n'
        '\n'
        '\n'
        'def f(a):\n'
        '    # a comment\n'
        '    """A docstring\n'
        '    on two lines."""\n'
        '    text = """a string,\n'
        '    not a docstring"""\n'
        '    return (a,\n'
        '            text)\n')
    assert _tool().count_lines(path) == (13, 6)


def test_prints_each_module_and_the_total(tmp_path, capsys, monkeypatch):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n\n")
    (tmp_path / "b.py").write_text('"""doc"""\ny = 2\n')
    tool = _tool()
    monkeypatch.setattr(tool, "SRC", tmp_path)
    assert tool.main() == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines == [["module", "lines", "code"], ["b.py", "2", "1"], ["pkg/a.py", "2", "1"],
                     ["total", "4", "2"]]
