"""Compare two output trees of blowlab commands file by file, or digest one.

    python tools/same_outputs.py A B
    python tools/same_outputs.py --digest A > DIGESTS.json

Two runs of the same command write the same results but not the same
bytes everywhere, so each file is first put in a normal form of what it
holds:

- a ``.json`` file parsed, with the keys ``wall_s``, ``out_dir`` and
  ``config_path`` dropped at any depth (timings and paths), and written
  again with sorted keys;
- an ``.npz`` archive member by member, in name order: each member's name,
  dtype and shape, then its bytes in C order, so a member stored in Fortran
  order equals a C-ordered one of the same values (the zip entries carry
  their write time, and the deflate stream does not matter);
- every other file, and one that does not parse as its suffix says, byte
  for byte.

Two files hold the same results when their normal forms have the same
SHA-256.  ``A B`` prints each file that differs, is missing from B or is
extra in B, one per line, and exits 1 if there is any; otherwise exits 0.
A ``differs`` line ends with the largest relative difference,
|a - b| / max(|a|, |b|), of the numbers the two files hold at the same
place: the members of an ``.npz`` archive of equal name and shape, the
numbers of a ``.json`` file at the same key path, the cells of a ``.csv``
file that parse as floats at the same row and column.  It is 0 when
numbers were compared and only something else differs (a dtype, a text),
and ``n/a`` when no pair of numbers could be compared (another kind of
file, members of unequal shapes, a file that does not parse).
``--digest A`` prints, as JSON, the SHA-256 of each file of A under its
path relative to A, with the numpy and scipy versions and the CPU features
numpy dispatches to here: a float result, and so its digest, may differ
under another of them.
"""
from __future__ import annotations

import csv
import hashlib
import json
import sys
import zipfile
from pathlib import Path

import numpy as np
import scipy
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

_VOLATILE = {"wall_s", "out_dir", "config_path"}


def _stable(doc):
    """``doc`` without the volatile keys, at any depth."""
    if isinstance(doc, dict):
        return {key: _stable(value) for key, value in doc.items() if key not in _VOLATILE}
    if isinstance(doc, list):
        return [_stable(value) for value in doc]
    return doc


def _members(path: Path) -> bytes:
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    parts = []
    for name in sorted(arrays):
        array = arrays[name]
        # the byte count ends the header, so no member runs into the next
        header = json.dumps([name, array.dtype.str, array.shape, array.nbytes])
        parts += [header.encode(), b"\n", array.tobytes("C")]
    return b"".join(parts)


def normalized(path: Path) -> bytes:
    """The results the file ``path`` holds, in the normal form above."""
    try:
        if path.suffix == ".json":
            doc = _stable(json.loads(path.read_text()))
            return json.dumps(doc, sort_keys=True).encode()
        if path.suffix == ".npz":
            return _members(path)
    except (ValueError, EOFError, zipfile.BadZipFile):
        pass
    return path.read_bytes()


def digests(root: Path) -> dict[str, str]:
    """The SHA-256 of each file's normal form, keyed by its path relative
    to ``root``."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(normalized(path)).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def diff(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """One line per path of two digest maps that differs, is missing from
    ``actual`` or is extra in it, in path order."""
    lines = []
    for rel in sorted(expected.keys() | actual.keys()):
        if rel not in actual:
            lines.append(f"missing  {rel}")
        elif rel not in expected:
            lines.append(f"extra    {rel}")
        elif expected[rel] != actual[rel]:
            lines.append(f"differs  {rel}")
    return lines


def compare(a: Path, b: Path) -> list[str]:
    """:func:`diff` of the trees ``a`` and ``b``, each ``differs`` line
    with the largest relative difference of the file's numbers."""
    lines = diff(digests(a), digests(b))
    for i, line in enumerate(lines):
        if line.startswith("differs  "):
            rel = line.removeprefix("differs  ")
            largest = largest_relative(a / rel, b / rel)
            lines[i] += "  max rel " + ("n/a" if largest is None else f"{largest:.2g}")
    return lines


def _json_numbers(x, y) -> list[tuple[float, float]]:
    """The pairs of numbers of two parsed JSON documents at the same key path."""
    if isinstance(x, dict) and isinstance(y, dict):
        return [pair for key in x.keys() & y.keys() for pair in _json_numbers(x[key], y[key])]
    if isinstance(x, list) and isinstance(y, list):
        return [pair for u, v in zip(x, y) for pair in _json_numbers(u, v)]
    if {type(x), type(y)} <= {int, float}:  # not bool, whose type is its own
        return [(float(x), float(y))]
    return []


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _number_pairs(a: Path, b: Path) -> tuple[np.ndarray, np.ndarray]:
    """The numbers the files ``a`` and ``b`` hold at the same place (see
    the module docstring), as two flat float arrays: empty for a file that
    is no ``.npz``, ``.json`` or ``.csv``."""
    if a.suffix == ".npz":
        with np.load(a) as x, np.load(b) as y:
            members = [(x[name], y[name]) for name in set(x.files) & set(y.files)]
        members = [(u.ravel(), v.ravel()) for u, v in members if u.shape == v.shape
                   and u.dtype.kind in "biuf" and v.dtype.kind in "biuf"]
        return tuple(np.concatenate([np.empty(0)] + [pair[i] for pair in members])
                     for i in (0, 1))
    if a.suffix == ".json":
        pairs = _json_numbers(_stable(json.loads(a.read_text())),
                              _stable(json.loads(b.read_text())))
    elif a.suffix == ".csv":
        rows = zip(*(csv.reader(path.read_text().splitlines()) for path in (a, b)))
        pairs = [(_float(u), _float(v)) for x, y in rows for u, v in zip(x, y)]
        pairs = [(u, v) for u, v in pairs if u is not None and v is not None]
    else:
        pairs = []
    return np.array([u for u, _ in pairs]), np.array([v for _, v in pairs])


def largest_relative(a: Path, b: Path) -> float | None:
    """The largest |x - y| / max(|x|, |y|) over the numbers x of ``a`` and
    y of ``b`` at the same place; inf where one is not finite and the
    other differs, 0 when no number differs, None when there is no pair."""
    try:
        x, y = _number_pairs(a, b)
    except (ValueError, EOFError, zipfile.BadZipFile):  # as ``normalized`` reads them
        return None
    if x.size == 0:
        return None
    differ = ~((x == y) | (np.isnan(x) & np.isnan(y)))
    if not np.any(differ):
        return 0.0
    x, y = x[differ], y[differ]
    with np.errstate(invalid="ignore", over="ignore"):
        relative = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
    return float(np.max(np.where(np.isfinite(relative), relative, np.inf)))


def environment() -> dict:
    """The numpy and scipy versions and the CPU features numpy dispatches
    its kernels to on this machine."""
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "cpu_baseline": list(__cpu_baseline__),
            "cpu_dispatch": [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--digest"] and len(args) == 2 and Path(args[1]).is_dir():
        record = {"environment": environment(), "files": digests(Path(args[1]))}
        print(json.dumps(record, indent=1))
        return 0
    if len(args) != 2 or not all(Path(arg).is_dir() for arg in args):
        print("usage: python tools/same_outputs.py A B  (two output directories)\n"
              "       python tools/same_outputs.py --digest A", file=sys.stderr)
        return 2
    lines = compare(Path(args[0]), Path(args[1]))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
