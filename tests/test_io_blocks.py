"""The instance text in blocks: read_instance cuts the text into blocks of
whole lines and write_instance writes it a block at a time.  Wherever a
block edge falls, a file reads as the whole-text reference reader of
test_cli_fuzz reads it, and neither memory peak grows as the whole text
does."""

from __future__ import annotations

import tracemalloc

import pytest

from qubolab import gen_random_dense, read_instance, write_instance
from qubolab import io as qio

from test_cli_fuzz import outcome, reference_read

# Instance bodies after the header; `|` marks the feature that a block
# edge must cross.  "\udcff" is written as the byte 0xff, which is not UTF-8.
CASES = {
    "crlf": "2 2 3\r\n1 1 1.0|\r\n1 2 3.5\r\n2 2 -0.25\r\n",
    "form-feed": "2 2 3\n1 1 1.0|\x0c1 2 3.5\n2 2 -0.25\n",
    "next-line": "2 2 3\n1 1 1.0|\x851 2 3.5\n2 2 -0.25\n",
    "line-separator": "2 2 3\n1 1 1.0|\u20281 2 3.5\n2 2 -0.25\n",
    "multibyte": "2 2 3\n1 1 1.0\n% caf|é ☃\n1 2 3.5\n2 2 -0.25\n",
    "not-utf8": "2 2 3\n1 1 1.0\n1 2 3|\udcff5\n2 2 -0.25\n",
    "percent-line": "2 2 3\n1 1 1.0\n  |% a comment\n1 2 3.5\n2 2 -0.25\n",
    "blank-line": "2 2 3\n1 1 1.0\n|\n \t\n1 2 3.5\n2 2 -0.25\n",
    "malformed": "2 2 3\n1 1 1.0\n% c\n1 2 |x\n2 2 -0.25\n",
    "duplicate": "2 2 3\n1 1 1.0\n1 2 3.5\n|1 1 -0.25\n",
    "short": "2 2 4\n1 1 1.0\n1 2 3.5\n|\n2 2 -0.25\n",
}


def case_bytes(body: str, pad: int = 0) -> tuple[bytes, int]:
    """The file of a case, with a `%` line of pad characters after the size
    line when pad > 0, and the byte offset of its `|` mark."""
    size, body = body.split("\n", 1)
    head = f"{qio.MM_HEADER}\n{size}\n" + (f"%{'x' * (pad - 2)}\n" if pad else "")
    before, after = body.split("|")
    before = (head + before).encode("utf-8", "surrogateescape")
    return before + after.encode("utf-8", "surrogateescape"), len(before)


def whole_text_outcome(path):
    """reference_read's outcome; a file that is not UTF-8 fails where every
    reader of the package names that fault."""
    try:
        qio._read_text(str(path))
    except ValueError as err:
        return f"ValueError: {err}"
    return outcome(path, reference_read)


@pytest.mark.parametrize("body", CASES.values(), ids=CASES)
def test_every_block_edge_reads_as_the_whole_text(tmp_path, monkeypatch, body):
    path = tmp_path / "edge.mtx"
    data, mark = case_bytes(body)
    path.write_bytes(data)
    want = whole_text_outcome(path)
    # Block sizes up to the mark put a block edge at every character up to it.
    for size in range(1, mark + 2):
        monkeypatch.setattr(qio, "BLOCK_CHARS", size)
        assert outcome(path) == want, size


@pytest.mark.parametrize("body", CASES.values(), ids=CASES)
def test_a_byte_chunk_edge_reads_as_the_whole_text(tmp_path, monkeypatch, body):
    # Text mode decodes and folds line breaks in chunks of 8192 bytes; the
    # padding puts the mark's byte at the last place of the second chunk,
    # which is decoded while np.loadtxt reads the entries.
    path = tmp_path / "edge.mtx"
    data, mark = case_bytes(body, pad=2 * 8192 - 1 - case_bytes(body)[1])
    assert mark == 2 * 8192 - 1
    path.write_bytes(data)
    want = whole_text_outcome(path)
    for size in (1, 7, 8191, qio.BLOCK_CHARS):
        monkeypatch.setattr(qio, "BLOCK_CHARS", size)
        assert outcome(path) == want, size


def traced_peak(call) -> int:
    """Bytes allocated at the peak of call(), as tracemalloc counts them."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writing_does_not_grow_with_the_entries(tmp_path):
    peaks = {}
    for k in (100, 400):
        inst = gen_random_dense(k, 1)
        peaks[k] = traced_peak(lambda: write_instance(tmp_path / f"{k}.mtx", inst))
    # 16 times the entries; the whole text at once would be 16 times the peak
    assert peaks[400] <= 1.5 * peaks[100], peaks


def test_reading_holds_less_than_the_whole_text(tmp_path):
    inst = gen_random_dense(400, 2)
    write_instance(tmp_path / "i.mtx", inst)
    peak = traced_peak(lambda: read_instance(tmp_path / "i.mtx"))
    # The whole text and its lines took about 177 bytes an entry.
    assert peak < 100 * inst.nnz, peak / inst.nnz
