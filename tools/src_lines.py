"""Print the line counts of the package under ``src/``, per module and in total.

Two counts per file: ``lines``, every line as ``wc -l`` counts it, and
``code``, the lines that hold code.  A code line is one that a token other
than a comment, a line break, an indent or a docstring starts, ends or
crosses; blank lines, comment lines and docstring lines are not code.  A
docstring here is any string that stands alone as a statement, which is
how ``tokenize`` sees the module, class and function docstrings.

Run from anywhere::

    python tools/src_lines.py
"""
from __future__ import annotations

import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER, tokenize.COMMENT}
# what stands before a string that starts a statement (line breaks inside
# a statement, NL, are dropped before the scan)
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
                    tokenize.COMMENT}


def count_lines(path: Path) -> tuple[int, int]:
    """(lines as ``wc -l`` counts them, code lines) of one Python file."""
    data = path.read_bytes()
    with path.open("rb") as fh:
        tokens = [tok for tok in tokenize.tokenize(fh.readline) if tok.type != tokenize.NL]
    code = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING and tokens[i - 1].type in _STATEMENT_START
                and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue  # a docstring
        code.update(range(tok.start[0], tok.end[0] + 1))
    return data.count(b"\n"), len(code)


def main() -> int:
    counts = {path.relative_to(SRC).as_posix(): count_lines(path)
              for path in sorted(SRC.rglob("*.py"))}
    width = max([len("total"), *map(len, counts)])
    print(f"{'module'.ljust(width)}  {'lines':>6}  {'code':>6}")
    for name, (lines, code) in counts.items():
        print(f"{name.ljust(width)}  {lines:>6}  {code:>6}")
    print(f"{'total'.ljust(width)}  {sum(c[0] for c in counts.values()):>6}  "
          f"{sum(c[1] for c in counts.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
