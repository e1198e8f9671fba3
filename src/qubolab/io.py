"""On-disk formats: Matrix Market instance files with a JSON metadata
sidecar, plain-text observed vectors, and CSV tables.

The matrix file is coordinate-format Matrix Market ("matrix coordinate
real general", 1-indexed) so instances can be inspected and exchanged
with standard tools.  The sidecar `<stem>.meta.json` records the problem
size, the generator name, the seed and any generator tags.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings

import numpy as np

from .qubo import QuboInstance

MM_HEADER = "%%MatrixMarket matrix coordinate real general"


def write_instance(path: str | os.PathLike, instance: QuboInstance) -> None:
    """Write A to a Matrix Market file and its metadata to a sidecar.

    Values are written with repr(float), which round-trips float64
    exactly through the reader.
    """
    path = os.fspath(path)
    lines = [MM_HEADER, f"{instance.k} {instance.k} {instance.nnz}"]
    for r, c, v in zip(instance.rows.tolist(), instance.cols.tolist(),
                       instance.vals.tolist()):
        lines.append(f"{r + 1} {c + 1} {v!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
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
    """Read a Matrix Market instance and its sidecar metadata.

    The entries are parsed in bulk by one np.loadtxt call and checked as
    whole arrays.  Only a file the bulk parse refuses is read again line by
    line, so malformed input raises ValueError naming the file and line.  A
    missing sidecar is tolerated (meta stays empty); a malformed one is not.
    """
    path = os.fspath(path)
    with open(path) as fh:
        text = fh.read()
    try:
        k, rows, cols, vals = _bulk_entries(text)
        return QuboInstance(k=k, rows=rows, cols=cols, vals=vals,
                            meta=_read_meta(path, k))
    except (ValueError, Warning):
        return _read_instance_located(path, text)


_ENTRY = np.dtype([("r", np.int64), ("c", np.int64), ("v", np.float64)])


def _bulk_entries(text: str) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """k and the 0-based entries of a file whose first two lines are the
    header and the size line and whose every other line is an entry or
    blank.  Raises ValueError or a Warning for any other file, and for
    out-of-range or non-finite entries leaves the refusal to QuboInstance."""
    # Non-ASCII text (Unicode digits and spaces) goes to the line reader.
    if not text.isascii():
        raise ValueError("non-ASCII text")
    header, size, *body = text.splitlines()
    k, n_cols, nnz = map(int, size.split())
    if header.strip() != MM_HEADER or n_cols != k:
        raise ValueError("not a plain square Matrix Market file")
    # A warning is a refusal: numpy warns on a body with no entries, and
    # where it reads `1.0` as an index.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entries = np.loadtxt(body, dtype=_ENTRY, comments=None, ndmin=1)
    if entries.size != nnz:
        raise ValueError(f"{entries.size} entries, size line promises {nnz}")
    # Arithmetic and copy() give contiguous arrays that own their data.
    return k, entries["r"] - 1, entries["c"] - 1, entries["v"].copy()


def _read_instance_located(path: str, text: str) -> QuboInstance:
    """read_instance one line at a time: the reader that names the line of
    the first error it finds."""
    raw = text.splitlines()

    def fail(lineno: int, why: str):
        raise ValueError(f"{path}:{lineno}: {why}")

    if not raw:
        fail(1, "empty file, expected a Matrix Market header")
    if raw[0].strip() != MM_HEADER:
        fail(1, f"bad header {raw[0]!r}, expected {MM_HEADER!r}")

    lineno = 1
    body = []
    for line in raw[1:]:
        lineno += 1
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        body.append((lineno, stripped))
    if not body:
        fail(lineno, "missing size line")

    size_lineno, size_line = body[0]
    parts = size_line.split()
    if len(parts) != 3:
        fail(size_lineno, f"size line needs 3 fields, got {len(parts)}")
    try:
        n_rows, n_cols, nnz = (int(p) for p in parts)
    except ValueError:
        fail(size_lineno, f"non-integer size line {size_line!r}")
    if n_rows != n_cols:
        fail(size_lineno, f"matrix must be square, got {n_rows} x {n_cols}")
    if n_rows < 1:
        fail(size_lineno, f"matrix size must be positive, got {n_rows}")
    if len(body) - 1 != nnz:
        fail(size_lineno, f"size line promises {nnz} entries, found {len(body) - 1}")

    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=np.float64)
    for idx, (entry_lineno, entry) in enumerate(body[1:]):
        parts = entry.split()
        if len(parts) != 3:
            fail(entry_lineno, f"entry needs 3 fields, got {len(parts)}")
        try:
            r, c = int(parts[0]), int(parts[1])
            v = float(parts[2])
        except ValueError:
            fail(entry_lineno, f"malformed entry {entry!r}")
        if not math.isfinite(v):
            fail(entry_lineno, f"non-finite value {parts[2]!r}")
        if not (1 <= r <= n_rows and 1 <= c <= n_cols):
            fail(entry_lineno, f"index ({r}, {c}) outside 1..{n_rows}")
        rows[idx], cols[idx], vals[idx] = r - 1, c - 1, v

    meta = _read_meta(path, n_rows)
    try:
        return QuboInstance(k=n_rows, rows=rows, cols=cols, vals=vals, meta=meta)
    except ValueError:
        # Every entry passed the checks above, so a repeated coordinate is
        # what the instance refused; find the first one only now.
        seen: dict[tuple[int, int], int] = {}
        for idx, key in enumerate(zip(rows.tolist(), cols.tolist())):
            first = seen.setdefault(key, idx)
            if first != idx:
                fail(body[idx + 1][0], f"duplicate entry ({key[0] + 1}, {key[1] + 1}), "
                     f"first given on line {body[first + 1][0]}")
        raise


def _read_meta(path: str, k: int) -> dict:
    """The sidecar's lineage fields, or {} when there is no sidecar."""
    sidecar = _sidecar_path(path)
    if not os.path.exists(sidecar):
        return {}
    with open(sidecar) as fh:
        text = fh.read()
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
    """Read a one-number-per-line vector; blank lines are ignored.  When k
    is given the file must hold exactly k numbers."""
    path = os.fspath(path)
    out = []
    lineno = 0
    with open(path) as fh:
        for lineno, text in enumerate(fh, start=1):
            stripped = text.strip()
            if not stripped:
                continue
            try:
                v = float(stripped)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed number {stripped!r}")
            if not math.isfinite(v):
                raise ValueError(f"{path}:{lineno}: non-finite value {stripped!r}")
            if len(out) == k:
                raise ValueError(f"{path}:{lineno}: more than the {k} numbers expected")
            out.append(v)
    if k is not None and len(out) < k:
        raise ValueError(f"{path}:{max(lineno, 1)}: {len(out)} numbers, expected {k}")
    return np.array(out, dtype=np.float64)


def write_csv(path: str | os.PathLike, header, rows) -> None:
    """Write a header and rows as CSV.  Floats (np.float64 included) are
    written as repr(float(v)), which round-trips exactly and gives 'nan'
    for NaN; every other cell, ints and strings, as str(v)."""
    with open(os.fspath(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                         for row in rows)
