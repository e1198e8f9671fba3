"""On-disk formats: Matrix Market instance files with a JSON metadata
sidecar, plain-text observed vectors, and CSV tables.

The matrix file is coordinate-format Matrix Market ("matrix coordinate
real general", 1-indexed) so instances can be inspected and exchanged
with standard tools.  The sidecar `<stem>.meta.json` records the problem
size, the generator name, the seed and any generator tags.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import warnings
from io import StringIO
from typing import NoReturn

import numpy as np

from .qubo import QuboInstance, _RowError

MM_HEADER = "%%MatrixMarket matrix coordinate real general"
# The instance text is written BLOCK_ENTRIES entry lines at a time and read
# BLOCK_CHARS characters (then to the end of a line) at a time.
BLOCK_ENTRIES = 8192
BLOCK_CHARS = 1 << 20


def write_instance(path: str | os.PathLike, instance: QuboInstance) -> None:
    """Write A to a Matrix Market file and its metadata to a sidecar.

    Values are written with repr(float), which round-trips float64
    exactly through the reader.  The entries go out in blocks of
    BLOCK_ENTRIES lines, so memory does not grow with nnz.
    """
    path = os.fspath(path)
    with open(path, "w") as fh:
        fh.write(f"{MM_HEADER}\n{instance.k} {instance.k} {instance.nnz}\n")
        for lo in range(0, instance.nnz, BLOCK_ENTRIES):
            block = slice(lo, lo + BLOCK_ENTRIES)
            fh.write("".join([f"{r} {c} {v!r}\n" for r, c, v in zip(
                (instance.rows[block] + 1).tolist(), (instance.cols[block] + 1).tolist(),
                instance.vals[block].tolist())]))
    meta = {
        "k": instance.k,
        "generator": instance.meta.get("generator"),
        "seed": instance.meta.get("seed"),
        "tags": instance.meta.get("tags", {}),
    }
    with open(_sidecar_path(path), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def read_instance(path: str | os.PathLike) -> QuboInstance:
    """Read a Matrix Market instance, a UTF-8 text file, and its sidecar.

    The text is read in blocks of whole lines (_text_blocks).  Blank and
    `%` lines are skipped, np.loadtxt parses the size line and, in one call
    fed by every block, the entries (so every number is ASCII decimal and
    each entry is `row col value`), and QuboInstance checks them.  Only a
    refused file is read whole, by _name_fault, which raises ValueError at
    the file and line of the first of: a size-line fault or a wrong entry
    count; the first malformed, non-finite or out-of-range entry; a sidecar
    fault; the first repeated coordinate.  A missing sidecar is tolerated
    (meta stays empty).
    """
    path = os.fspath(path)
    entries = None
    try:
        with open(path, encoding="utf-8") as fh:
            lines = itertools.chain.from_iterable(_text_blocks(fh))
            header = next(lines, "")
            size = next((line for line in lines if line.strip()), "")
            sizes = _loadtxt([size], np.int64) if len(size.split()) == 3 else None
            if header.strip() == MM_HEADER and sizes is not None:
                k, n_cols, nnz = sizes.tolist()
                if k == n_cols >= 1:
                    entries = _loadtxt(lines)
    except UnicodeDecodeError:
        pass  # _name_fault names the line of the first byte that is not UTF-8
    if entries is None or len(entries) != nnz:
        _name_fault(path)
    # arithmetic and copy() give contiguous arrays that own their data; the
    # refusal path parses again, so the parse is freed before the checks
    rows, cols, vals = entries["r"] - 1, entries["c"] - 1, entries["v"].copy()
    del entries
    try:
        instance = QuboInstance(k=k, rows=rows, cols=cols, vals=vals)
    except _RowError:
        _name_fault(path)
    instance.meta = _read_meta(path, k)
    return instance


def _name_fault(path: str) -> NoReturn:
    """Raise ValueError at the first fault of an instance file that
    read_instance refused, found in the whole text: the same parse, with
    every fault located by its line."""
    lines = list(itertools.chain.from_iterable(_text_blocks(StringIO(_read_text(path)))))

    def fail(lineno: int, why: str):
        raise ValueError(f"{path}:{lineno}: {why}")

    if not lines:
        fail(1, "empty file, expected a Matrix Market header")
    if lines[0].strip() != MM_HEADER:
        fail(1, f"bad header {lines[0]!r}, expected {MM_HEADER!r}")
    size = next((n for n, line in enumerate(lines) if n and line.strip()), len(lines))
    if size == len(lines):
        fail(size, "missing size line")
    parts = lines[size].split()
    if len(parts) != 3:
        fail(size + 1, f"size line needs 3 fields, got {len(parts)}")
    sizes = _loadtxt(lines[size:size + 1], np.int64)
    if sizes is None:
        fail(size + 1, f"non-integer size line {lines[size].strip()!r}")
    k, n_cols, nnz = sizes.tolist()
    if k != n_cols:
        fail(size + 1, f"matrix must be square, got {k} x {n_cols}")
    if k < 1:
        fail(size + 1, f"matrix size must be positive, got {k}")

    start = size + 2  # the line of the first entry line
    del lines[:size + 1]  # in place, not a copy: lines[j] is now line start + j
    entries = _loadtxt(lines)
    found = len(entries) if entries is not None else sum(1 for line in lines if line.strip())
    if found != nnz:
        fail(size + 1, f"size line promises {nnz} entries, found {found}")
    refused = None
    if entries is None:
        # Bisect for the first line that np.loadtxt refuses, with the same
        # parse, which reads each line alone; the entries above it come first.
        lo, hi = 0, len(lines)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if _loadtxt(lines[lo:mid]) is None else (mid, hi)
        refused, entries = lo, _loadtxt(lines[:lo])

    def index(entry: int) -> int:
        return [j for j, line in enumerate(lines) if line.strip()][entry]

    try:
        QuboInstance(k=k, rows=entries["r"] - 1, cols=entries["c"] - 1, vals=entries["v"])
    except _RowError as err:
        j, (r, c, _) = index(err.row), entries[err.row].tolist()
        if err.check == "vals":
            fail(start + j, f"non-finite value {lines[j].split()[2]!r}")
        if err.check == "index":
            fail(start + j, f"index ({r}, {c}) outside 1..{k}")
        if refused is None:
            _read_meta(path, k)  # a sidecar fault is named before a repeat
            first = index(int(((entries["r"] == r) & (entries["c"] == c)).argmax()))
            fail(start + j, f"duplicate entry ({r}, {c}), first given on line {start + first}")
    # read_instance refused the file and no check above names a fault, so
    # np.loadtxt refused line `refused`.
    entry = lines[refused].strip()
    fail(start + refused, f"entry needs 3 fields, got {len(entry.split())}"
         if len(entry.split()) != 3 else f"malformed entry {entry!r}")


def _lines(text: str) -> list[str]:
    r"""The lines of a text read in text mode, which has folded `\r\n` and
    `\r` to `\n`: cut at `\n` only, the rule of every text reader and of
    JSON Lines.  A final `\n` ends the last line and starts none."""
    return text.removesuffix("\n").split("\n") if text else []


def _text_blocks(fh):
    r"""The lines of a text stream (_lines), in blocks of whole lines of
    about BLOCK_CHARS characters, each ending at a `\n`; every `%` line
    after the first is blanked, as np.loadtxt skips blank lines."""
    head = 1  # the header line, which is never blanked
    for block in iter(lambda: fh.read(BLOCK_CHARS), ""):
        block += fh.readline()  # to the end of the line the read cut
        lines = _lines(block)
        # The writer's output holds no `%` after the header, so it pays
        # only for the search.
        if block.find("%", len(lines[0]) if head else 0) >= 0:
            lines[head:] = ["" if line.lstrip().startswith("%") else line
                            for line in lines[head:]]
        head = 0
        yield lines


_ENTRY = np.dtype([("r", np.int64), ("c", np.int64), ("v", np.float64)])
_VALUE = np.dtype([("v", np.float64)])


def _loadtxt(lines: list[str], dtype=_ENTRY) -> np.ndarray | None:
    """The rows in lines as one np.loadtxt call reads them as dtype, or None
    when it refuses a line.  A blank line holds no row.  This is the one
    number rule of the text formats: ASCII decimal, no `_`."""
    with warnings.catch_warnings():
        # A refusal, except for no rows: numpy < 2 warns on a `1.0` integer.
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
        except (ValueError, Warning):
            return None


def _read_text(path: str) -> str:
    """The text of a UTF-8 file, read as open() reads it.  Other bytes raise
    ValueError "<path>:<line>: not UTF-8 text: ..." at the first of them."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as err:
            head = err.object[:err.start]  # lines end at \n, \r\n or a lone \r
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise ValueError(f"{path}:{line}: not UTF-8 text: {err}") from err


def _read_meta(path: str, k: int) -> dict:
    """The sidecar's lineage fields, or {} when there is no sidecar."""
    sidecar = _sidecar_path(path)
    if not os.path.exists(sidecar):
        return {}
    text = _read_text(sidecar)
    loaded = _decode_json(text, sidecar)
    if not isinstance(loaded, dict):
        raise ValueError(f"{sidecar}:1: expected a JSON object")
    if "k" in loaded and loaded["k"] != k:
        line = text.count("\n", 0, max(text.find('"k"'), 0)) + 1
        raise ValueError(
            f"{sidecar}:{line}: metadata says k={loaded['k']}, matrix is {k}"
        )
    return {key: loaded.get(key) for key in ("generator", "seed", "tags")}


def _decode_json(text: str, path: str, what: str = "JSON", line: int = 1):
    """json.loads(text), for a text that starts at `line` of `path`.  Text
    that is not one JSON value raises ValueError "<path>:<line>: invalid
    <what>: <why>", naming the line where the decoder stopped."""
    try:
        return json.loads(text)
    # A deeply nested value exhausts the decoder's recursion limit; that
    # error has no line, so it names the text's first.
    except (json.JSONDecodeError, RecursionError) as err:
        raise ValueError(
            f"{path}:{line + getattr(err, 'lineno', 1) - 1}: invalid {what}: {err}") from err


def _sidecar_path(path: str) -> str:
    stem, ext = os.path.splitext(path)
    return (stem if ext else path) + ".meta.json"


def write_vector(path: str | os.PathLike, b: np.ndarray) -> None:
    """Write a vector as one repr(float) per line."""
    with open(os.fspath(path), "w") as fh:
        for v in np.asarray(b, dtype=np.float64):
            fh.write(f"{float(v)!r}\n")


def read_vector(path: str | os.PathLike, k: int | None = None) -> np.ndarray:
    """Read a one-number-per-line vector from a UTF-8 text file; blank
    lines are ignored.  When k is given the file must hold exactly k
    numbers.  One np.loadtxt call reads the file; only when it refuses, or
    the values do, is the file read again line by line to name the first
    fault."""
    path = os.fspath(path)
    lines = _lines(_read_text(path))
    values = _loadtxt(lines, _VALUE)
    if (values is not None and (k is None or len(values) == k)
            and np.isfinite(values["v"]).all()):
        return values["v"].copy()
    n = 0
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        value = _loadtxt([line], _VALUE)
        if value is None:
            raise ValueError(f"{path}:{lineno}: malformed number {stripped!r}")
        if not np.isfinite(value["v"]).all():
            raise ValueError(f"{path}:{lineno}: non-finite value {stripped!r}")
        if n == k:
            raise ValueError(f"{path}:{lineno}: more than the {k} numbers expected")
        n += 1
    raise ValueError(f"{path}:{max(len(lines), 1)}: {n} numbers, expected {k}")


def write_csv(path: str | os.PathLike, header, rows) -> None:
    """Write a header and rows as CSV.  Floats (np.float64 included) are
    written as repr(float(v)), which round-trips exactly and gives 'nan'
    for NaN; every other cell, ints and strings, as str(v)."""
    with open(os.fspath(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                         for row in rows)
