"""Compare two output trees of blowlab commands, file by file.

    python tools/same_outputs.py A B

Two runs of the same command write the same results but not the same
bytes everywhere, so each kind of file is compared by what it holds:

- ``.json`` files parsed, with the keys ``wall_s``, ``out_dir`` and
  ``config_path`` dropped at any depth (timings and paths);
- ``.npz`` archives member by member: the member names, and each member's
  dtype, shape and bytes, the bytes taken in C order, so a member stored
  in Fortran order equals a C-ordered one of the same values (the zip
  entries carry their write time);
- every other file byte for byte.

Prints each file (or directory) that differs, is missing from B or is extra
in B, one per line, and exits 1 if there is any; otherwise exits 0.
"""
from __future__ import annotations

import json
import sys
import zipfile
from pathlib import Path

import numpy as np

_VOLATILE = {"wall_s", "out_dir", "config_path"}


def _stable(doc):
    """``doc`` without the volatile keys, at any depth."""
    if isinstance(doc, dict):
        return {key: _stable(value) for key, value in doc.items() if key not in _VOLATILE}
    if isinstance(doc, list):
        return [_stable(value) for value in doc]
    return doc


def _members(path: Path) -> dict:
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    return {name: (array.dtype.str, array.shape, array.tobytes("C"))
            for name, array in arrays.items()}


def same_file(a: Path, b: Path) -> bool:
    """Whether the files ``a`` and ``b`` hold the same results; a file that
    does not parse as its suffix says is compared byte for byte."""
    try:
        if a.suffix == ".json":
            return _stable(json.loads(a.read_text())) == _stable(json.loads(b.read_text()))
        if a.suffix == ".npz":
            return _members(a) == _members(b)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile):
        pass
    return a.read_bytes() == b.read_bytes()


def compare(a: Path, b: Path) -> list[str]:
    """One line per entry of the trees ``a`` and ``b`` that differs, is
    missing from ``b`` or is extra in ``b``, in path order."""
    left = {path.relative_to(a): path for path in a.rglob("*")}
    right = {path.relative_to(b): path for path in b.rglob("*")}
    lines = []
    for rel in sorted(left.keys() | right.keys()):
        if rel not in right:
            lines.append(f"missing  {rel}")
        elif rel not in left:
            lines.append(f"extra    {rel}")
        elif left[rel].is_dir() or right[rel].is_dir():
            if left[rel].is_dir() != right[rel].is_dir():
                lines.append(f"differs  {rel}")
        elif not same_file(left[rel], right[rel]):
            lines.append(f"differs  {rel}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(arg).is_dir() for arg in args):
        print("usage: python tools/same_outputs.py A B  (two output directories)",
              file=sys.stderr)
        return 2
    lines = compare(Path(args[0]), Path(args[1]))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
