"""Mutated input files through the CLI: every run either succeeds or ends
with exit status 2 and `error: <file>:<line>: <why>`, never a traceback.
The instance and dataset readers parse in bulk and fall back to a located
line-by-line reader; on every mutated `.mtx` and `.jsonl` file the two
must agree.

Small valid files (a k=4 instance with its sidecar, an observed vector, a
dataset and a width-2 checkpoint) are mutated by deleting, duplicating or
swapping lines and tokens, by joining two lines (so that one line holds
two JSON values) or splitting one (so that a value spans two lines), or
by replacing a token or a run of whitespace with a piece of text from a
fixed pool.  The checkpoint and the sidecar also get a token replaced by a
value nested 100,000 deep.  No pool piece reads as a large integer (`1_0`
is 10, `1e400` a float), so no run can ask for a large allocation.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubolab import datagen, read_dataset, read_instance, write_vector
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


def outcome(path):
    """What read_instance(path) returns, reduced to bytes and dtypes, or the
    message of the ValueError it raises."""
    try:
        got = read_instance(path)
    except ValueError as err:
        return f"ValueError: {err}"
    return (got.k, repr(got.meta),
            [(a.dtype, a.tobytes()) for a in (got.rows, got.cols, got.vals)])


@pytest.fixture(scope="module")
def differential(originals, tmp_path_factory):
    """The `.mtx` file's original text, and a check that read_instance and
    the located loop agree on a given text."""
    tmp_path = tmp_path_factory.mktemp("differential")
    shutil.copy(originals / FILES["meta"], tmp_path / FILES["meta"])
    path = tmp_path / FILES["mtx"]

    def check(text: str):
        path.write_text(text)
        public = outcome(path)
        with mock.patch.object(qio, "_bulk_entries", side_effect=ValueError):
            assert outcome(path) == public, text

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


def dataset_outcome(path):
    """What read_dataset(path) returns, reduced to bytes and reprs, or the
    message of the ValueError it raises."""
    try:
        got = read_dataset(path)
    except ValueError as err:
        return f"ValueError: {err}"
    return (got.instance_ref, got.k, repr(got.params), got.b.tobytes(), got.x.tobytes(),
            got.split.tolist(), repr(got.provenance))


@pytest.fixture(scope="module")
def dataset_differential(originals, tmp_path_factory):
    """The dataset's original text, and a check that read_dataset and the
    located loop agree on a given text; it returns whether the bulk path
    took the text."""
    path = tmp_path_factory.mktemp("dataset_differential") / FILES["dataset"]

    def check(text: str) -> bool:
        path.write_text(text)
        with mock.patch.object(datagen, "_located_records",
                               wraps=datagen._located_records) as located:
            public = dataset_outcome(path)
        with mock.patch.object(datagen, "_bulk_records", return_value=None):
            assert dataset_outcome(path) == public, text
        return not located.called

    return (originals / FILES["dataset"]).read_text(), check


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mutations=st.lists(st.one_of(REPLACE, MUTATION), min_size=1, max_size=3))
def test_bulk_dataset_reader_agrees_with_the_located_loop(dataset_differential, mutations):
    text, check = dataset_differential
    check(mutate(text, mutations))


def test_bulk_dataset_reader_takes_valid_files(dataset_differential):
    text, check = dataset_differential
    assert check(text)
    lines = text.splitlines()
    record = json.loads(lines[1])
    # Brackets, quotes and backslashes inside strings are not structure.
    record["provenance"]["note"] = 'a "[quoted" {path\\ \u2028 end'
    lines[1] = json.dumps(record)
    lines[2] = "  " + lines[2] + "\t"
    assert check("\n".join(lines[:3] + ["", " "] + lines[3:]))


@pytest.mark.parametrize("text", [
    # the first record spans two lines, the last line holds two records
    '{"k": 2}\n{"b": [1\n0], "x": [0, 1], "split": "val"}\n'
    '{"b": [0, 1], "x": [1, 1], "split": "val"}, {"b": [0, 2], "x": [1, 0], "split": "val"}',
    # the same, with strings whose brackets balance each line's raw count
    '{"k": 1}\n{"b": [1], "x": [0], "split": "val", "s": "]]"}, {"b": [0], "x": [1], '
    '"c": [1\n2], "split": "val", "d": "[["}',
    # one line holds two records and another only a comma
    '{"k": 1}\n{"b": [0], "x": [0], "split": "val"}, {"b": [0], "x": [0], "split": "val"}\n,',
    # a line closes the array that the lines are joined into
    '{"k": 1}\n{"b": [0], "x": [0], "split": "val"}], [{"b": [0], "x": [0], "split": "val"}',
], ids=["spans-and-doubles", "balanced-by-strings", "comma-line", "closes-the-array"])
def test_bulk_dataset_reader_refuses_values_across_lines(dataset_differential, text):
    _, check = dataset_differential
    assert not check(text)
