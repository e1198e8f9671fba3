"""Mutated input files through the CLI: every run either succeeds or ends
with exit status 2 and `error: <file>:<line>: <why>`, never a traceback.
The instance reader parses the size line and then all entries with
np.loadtxt; on every mutated `.mtx` file it must give the outcome of
`reference_read`, a line-by-line reader kept here as the reference, except
where the size line or an entry holds a token that only Python's int and
float read (`1_0`, a non-ASCII digit): the instance reader refuses that as
a non-integer size line or a malformed entry.

Small valid files (a k=4 instance with its sidecar, an observed vector, a
dataset and a width-2 checkpoint) are mutated by deleting, duplicating or
swapping lines and tokens, by joining two lines (so that one line holds
two JSON values) or splitting one (so that a value spans two lines), or
by replacing a token or a run of whitespace with a piece of text from a
fixed pool.  The checkpoint and the sidecar also get a token replaced by a
value nested 100,000 deep.  No pool piece reads as a large integer (`1_0`
is refused in a size line, `1e400` is a float), so no run can ask for a
large allocation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubolab import QuboInstance, read_dataset, read_instance, write_vector
from qubolab import io as qio
from qubolab.cli import main

FILES = {"mtx": "inst.mtx", "meta": "inst.meta.json", "vector": "b.txt",
         "dataset": "data.jsonl", "checkpoint": "model.json"}
POOL = ("", "x", "nan", "inf", "-1", "0", "1.5", '"1.5"', "[]", "{}", "null", "true",
        # Pieces that np.loadtxt and the per-line readers could read differently.
        "1_0", "0x10", "1.0", "1e400", "% c", "\x0c", "\x0b", "\u2028", "\r")
# Values nested deeper than the JSON decoder's recursion limit.
DEEP = ("[" * 100_000, '{"a":' * 100_000)
# Whitespace, a JSON string, JSON punctuation, or any other run of text.
PIECE = re.compile(r'\s+|"(?:[^"\\]|\\.)*"|[\[\]{}:,]|[^\s\[\]{}:,"]+')

INDEX = st.integers(0, 1000)
REPLACE = st.tuples(st.sampled_from(["replace_token", "replace_space"]), INDEX,
                    st.sampled_from(POOL))
MUTATION = st.one_of(
    st.tuples(st.sampled_from(["del_line", "dup_line", "del_token", "dup_token"]),
              INDEX),
    st.tuples(st.sampled_from(["swap_lines", "swap_tokens", "split_line"]), INDEX, INDEX),
    # Joined with ", " the two values of the new line still read as JSON.
    st.tuples(st.just("join_lines"), INDEX, st.sampled_from(["", ", "])),
    REPLACE,
)


def mutate(text: str, mutations) -> str:
    """Apply each mutation in turn; indices wrap around the current file."""
    lines = [PIECE.findall(line) for line in text.split("\n")]
    for op, *args in mutations:
        if op in ("del_line", "dup_line"):
            i = args[0] % len(lines)
            if op == "del_line":
                del lines[i]
            else:
                lines.insert(i, list(lines[i]))
        elif op == "join_lines":
            i = args[0] % len(lines)
            if i + 1 < len(lines):
                lines[i] += [args[1]] + lines.pop(i + 1)
        elif op == "split_line":
            i = args[0] % len(lines)
            cut = args[1] % (len(lines[i]) + 1)
            lines[i:i + 1] = [lines[i][:cut], lines[i][cut:]]
        elif op == "swap_lines":
            i, j = args[0] % len(lines), args[1] % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            spaces = op == "replace_space"
            tokens = [(li, pi) for li, line in enumerate(lines)
                      for pi, piece in enumerate(line) if piece.isspace() == spaces]
            if not tokens:
                continue
            li, pi = tokens[args[0] % len(tokens)]
            if op == "del_token":
                del lines[li][pi]
            elif op == "dup_token":
                lines[li][pi + 1:pi + 1] = [" ", lines[li][pi]]
            elif op.startswith("replace"):
                lines[li][pi] = args[1]
            else:
                lj, pj = tokens[args[1] % len(tokens)]
                lines[li][pi], lines[lj][pj] = lines[lj][pj], lines[li][pi]
        if not lines:
            lines = [[]]
    return "\n".join("".join(line) for line in lines)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-instance", "--kind", "random-dense", "--k", "4",
                     "--seed", "3", "--scale", "0.5",
                     "--out", str(root / FILES["mtx"])]) == 0
        write_vector(root / FILES["vector"], np.random.default_rng(1).normal(size=4))
        assert main(["gen-data", "--instance", str(root / FILES["mtx"]),
                     "--n", "6", "--sigma", "0.3", "--split", "0.5,0.5",
                     "--out", str(root / FILES["dataset"])]) == 0
        assert main(["train", "--instance", str(root / FILES["mtx"]),
                     "--data", str(root / FILES["dataset"]), "--width", "2",
                     "--layers", "1", "--epochs", "1", "--batch", "4",
                     "--out", str(root / FILES["checkpoint"])]) == 0
    return root


def run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, err.getvalue()


@pytest.mark.parametrize("kind", sorted(FILES))
@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_input_fails_with_a_location(originals, kind, mutations):
    assert_runs_or_fails_with_a_location(originals, kind, mutations)


@pytest.mark.parametrize("kind", ["checkpoint", "meta"])
@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(deep=st.tuples(st.just("replace_token"), INDEX, st.sampled_from(DEEP)),
       mutations=st.lists(MUTATION, max_size=2))
def test_deep_nesting_fails_with_a_location(originals, kind, deep, mutations):
    assert_runs_or_fails_with_a_location(originals, kind, [deep, *mutations])


def assert_runs_or_fails_with_a_location(originals, kind, mutations):
    """Mutate the `kind` file of a copy of the originals, then run solve and
    eval on the copy: each exits 0, or 2 naming a file and line."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        paths = {key: work / name for key, name in FILES.items()}
        for key, name in FILES.items():
            shutil.copy(originals / name, paths[key])
        paths[kind].write_text(mutate(paths[kind].read_text(), mutations))
        where = "|".join(re.escape(str(p)) for p in paths.values())
        for argv in (
            ["solve", "--instance", str(paths["mtx"]), "--b", str(paths["vector"]),
             "--method", "exhaustive", "--out", str(work / "solve.json")],
            ["eval", "--instance", str(paths["mtx"]), "--data", str(paths["dataset"]),
             "--model", str(paths["checkpoint"]), "--methods", "exhaustive,bpgnn+ts",
             "--out", str(work / "eval.csv")],
        ):
            status, err = run_cli(argv)
            assert status == 0 or (
                status == 2 and re.fullmatch(rf"error: ({where}):\d+: \S.*\n", err)
            ), (argv[0], status, err)


def reference_read(path):
    """read_instance one line at a time, with Python's int and float: the
    reference for the instance reader's outcome on any file, and the line
    of the first error it finds.  Its lines are the ones a text-mode file
    yields, which end at a newline only."""
    path = str(path)
    with open(path) as fh:
        raw = [line.removesuffix("\n") for line in fh]

    def fail(lineno: int, why: str):
        raise ValueError(f"{path}:{lineno}: {why}")

    if not raw:
        fail(1, "empty file, expected a Matrix Market header")
    if raw[0].strip() != qio.MM_HEADER:
        fail(1, f"bad header {raw[0]!r}, expected {qio.MM_HEADER!r}")

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

    meta = qio._read_meta(path, n_rows)
    seen: dict[tuple[int, int], int] = {}
    for idx, key in enumerate(zip(rows.tolist(), cols.tolist())):
        first = seen.setdefault(key, idx)
        if first != idx:
            fail(body[idx + 1][0], f"duplicate entry ({key[0] + 1}, {key[1] + 1}), "
                 f"first given on line {body[first + 1][0]}")
    return QuboInstance(k=n_rows, rows=rows, cols=cols, vals=vals, meta=meta)


def outcome(path, read=read_instance):
    """What read(path) returns, reduced to bytes and dtypes, or the message
    of the ValueError it raises."""
    try:
        got = read(path)
    except ValueError as err:
        return f"ValueError: {err}"
    return (got.k, repr(got.meta),
            [(a.dtype, a.tobytes()) for a in (got.rows, got.cols, got.vals)])


def content_lines(text: str) -> list[tuple[int, str]]:
    """The size and entry lines (after the header, not blank or `%`),
    stripped, with their numbers; lines end at a newline only."""
    return [(n, line.strip()) for n, line in enumerate(text.split("\n"), 1)
            if n > 1 and line.strip()[:1] not in ("", "%")]


def python_only_lines(text: str) -> list[tuple[int, str]]:
    """The content lines that hold a token with `_` or a non-ASCII digit."""
    return [(n, line) for n, line in content_lines(text)
            if any(ch == "_" or (ch.isdecimal() and not ch.isascii()) for ch in line)]


@pytest.fixture(scope="module")
def differential(originals, tmp_path_factory):
    """The `.mtx` file's original text, and a check that read_instance and
    reference_read give the same outcome on a given text.  Where they do
    not, the text has a size or entry token with `_` or a non-ASCII digit,
    the first such line is refused (as a non-integer size line or a
    malformed entry), and the reference names no fault that outranks it:
    no earlier `.mtx` line, except with a repeated coordinate, which ranks
    below every entry fault."""
    tmp_path = tmp_path_factory.mktemp("differential")
    shutil.copy(originals / FILES["meta"], tmp_path / FILES["meta"])
    path = tmp_path / FILES["mtx"]

    def check(text: str):
        path.write_text(text)
        public, reference = outcome(path), outcome(path, reference_read)
        if public == reference:
            return
        written = path.read_text()
        odd = python_only_lines(written)
        assert odd, (text, public, reference)
        lineno, line = odd[0]
        why = "non-integer size line" if lineno == content_lines(written)[0][0] \
            else "malformed entry"
        assert public == f"ValueError: {path}:{lineno}: {why} {line!r}", text
        earlier = re.match(rf"ValueError: {re.escape(str(path))}:(\d+): (?!duplicate)",
                           str(reference))
        assert not (earlier and int(earlier[1]) < lineno), (text, reference)

    return (originals / FILES["mtx"]).read_text(), check


def test_bulk_reader_agrees_on_every_single_replacement(differential):
    text, check = differential
    pieces = [piece for line in text.split("\n") for piece in PIECE.findall(line)]
    n_spaces = sum(piece.isspace() for piece in pieces)
    for op, count in (("replace_token", len(pieces) - n_spaces),
                      ("replace_space", n_spaces)):
        for index in range(count):
            for new in POOL:
                check(mutate(text, [(op, index, new)]))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mutations=st.lists(st.one_of(REPLACE, MUTATION), min_size=1, max_size=3))
def test_bulk_reader_agrees_with_the_located_loop(differential, mutations):
    text, check = differential
    check(mutate(text, mutations))


def test_bulk_dataset_reader_takes_valid_files(originals, tmp_path):
    want = read_dataset(originals / FILES["dataset"])
    lines = (originals / FILES["dataset"]).read_text().splitlines()
    record = json.loads(lines[1])
    # Brackets, quotes and backslashes inside strings are not structure.
    note = 'a "[quoted" {path\\ \u2028 end'
    record["provenance"]["note"] = note
    lines[1] = json.dumps(record)
    lines[2] = "  " + lines[2] + "\t"
    path = tmp_path / FILES["dataset"]
    path.write_text("\n".join(lines[:3] + ["", " "] + lines[3:]))
    got = read_dataset(path)
    assert got.provenance[0].pop("note") == note
    assert got == want
    assert (got.b.tobytes(), got.x.tobytes()) == (want.b.tobytes(), want.x.tobytes())


@pytest.mark.parametrize("text", [
    # the first record spans two lines, the last line holds two records
    '{"k": 2}\n{"b": [1\n0], "x": [0, 1], "split": "val"}\n'
    '{"b": [0, 1], "x": [1, 1], "split": "val"}, {"b": [0, 2], "x": [1, 0], "split": "val"}',
    # the same, with strings whose brackets balance each line's raw count
    '{"k": 1}\n{"b": [1], "x": [0], "split": "val", "s": "]]"}, {"b": [0], "x": [1], '
    '"c": [1\n2], "split": "val", "d": "[["}',
    # one line holds two records and another only a comma
    '{"k": 1}\n{"b": [0], "x": [0], "split": "val"}, {"b": [0], "x": [0], "split": "val"}\n,',
    # a line closes an array that a joined reading of the lines would open
    '{"k": 1}\n{"b": [0], "x": [0], "split": "val"}], [{"b": [0], "x": [0], "split": "val"}',
], ids=["spans-and-doubles", "balanced-by-strings", "comma-line", "closes-the-array"])
def test_bulk_dataset_reader_refuses_values_across_lines(tmp_path, text):
    # Each text fails at its first line that is not one whole JSON value.
    path = tmp_path / FILES["dataset"]
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: invalid JSON: "):
        read_dataset(path)
