"""On-disk formats: Matrix Market round-trips, metadata sidecars, CSV
tables, and line-numbered failure reporting."""

from __future__ import annotations

import csv
import json
import re

import numpy as np
import pytest

from qubolab import (gen_ising, gen_lattice_laplacian, gen_random_dense,
                     lattice_adjacency, read_instance, read_vector,
                     write_instance, write_vector)
from qubolab.io import MM_HEADER, _sidecar_path, write_csv

from conftest import tiny_instance


class TestInstanceRoundTrip:
    def test_values_round_trip_exactly(self, tmp_path):
        inst = gen_random_dense(6, 42)
        path = tmp_path / "inst.mtx"
        write_instance(path, inst)
        back = read_instance(path)
        assert back.k == inst.k
        assert np.array_equal(back.rows, inst.rows)
        assert np.array_equal(back.cols, inst.cols)
        assert np.array_equal(back.vals, inst.vals)
        assert back.meta["generator"] == "random_dense"
        assert back.meta["seed"] == 42

    def test_writes_are_byte_deterministic(self, tmp_path):
        inst = gen_random_dense(5, 7)
        p1, p2 = tmp_path / "a.mtx", tmp_path / "b.mtx"
        write_instance(p1, inst)
        write_instance(p2, inst)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_is_one_indexed_matrix_market(self, tmp_path):
        path = tmp_path / "tiny.mtx"
        write_instance(path, tiny_instance())
        lines = path.read_text().splitlines()
        assert lines[0] == MM_HEADER
        assert lines[1] == "2 2 1"
        assert lines[2] == "1 2 1.0"

    def test_sidecar_records_size_and_lineage(self, tmp_path):
        path = tmp_path / "inst.mtx"
        write_instance(path, gen_random_dense(3, 5))
        meta = json.loads((tmp_path / "inst.meta.json").read_text())
        assert meta["k"] == 3
        assert meta["generator"] == "random_dense"
        assert meta["seed"] == 5

    def test_missing_sidecar_is_tolerated(self, tmp_path):
        path = tmp_path / "inst.mtx"
        write_instance(path, tiny_instance())
        (tmp_path / "inst.meta.json").unlink()
        back = read_instance(path)
        assert back.k == 2
        assert back.meta == {}

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text(
            f"{MM_HEADER}\n% a comment\n\n2 2 1\n% another\n1 2 3.5\n"
        )
        back = read_instance(path)
        assert back.vals.tolist() == [3.5]


FAMILY = {
    "dense-k30": lambda: gen_random_dense(30, 11, scale=0.5),
    "lattice-side5": lambda: gen_lattice_laplacian(5),
    "ising-side4": lambda: gen_ising(lattice_adjacency(4), 0.3)[0],
}


class TestBulkRead:
    """Writer output reads back through the bulk parse, bit for bit."""

    @pytest.mark.parametrize("make", FAMILY.values(), ids=FAMILY)
    def test_family_round_trip_is_bit_exact(self, tmp_path, make):
        inst = make()
        write_instance(tmp_path / "i.mtx", inst)
        back = read_instance(tmp_path / "i.mtx")
        assert back.k == inst.k
        assert back.meta == inst.meta
        for name, dtype in (("rows", np.int64), ("cols", np.int64),
                            ("vals", np.float64)):
            got = getattr(back, name)
            assert got.dtype == dtype
            assert got.tobytes() == getattr(inst, name).tobytes()
            assert got.flags.c_contiguous and got.flags.owndata
            assert not got.flags.writeable

    def test_writer_output_never_needs_the_located_loop(self, tmp_path,
                                                        monkeypatch):
        # Each accepted file is parsed by exactly two np.loadtxt calls: one
        # for the size line and one for all the entries.
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt",
                            lambda *a, **kw: calls.append(1) or loadtxt(*a, **kw))
        for name, make in FAMILY.items():
            inst = make()
            write_instance(tmp_path / f"{name}.mtx", inst)
            calls.clear()
            assert read_instance(tmp_path / f"{name}.mtx").vals.tobytes() == \
                inst.vals.tobytes()
            assert len(calls) == 2, name
        path = tmp_path / "commented.mtx"
        path.write_text(f"{MM_HEADER}\n% a comment\n\n2 2 2\n  %another\n1 2 3.5\n"
                        f"\n \t\n2 1 -0.25\n%\n")
        calls.clear()
        assert read_instance(path).vals.tolist() == [3.5, -0.25]
        assert len(calls) == 2


class TestInstanceReadFailures:
    def test_bad_header_names_line_one(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("not a header\n")
        with pytest.raises(ValueError, match=r"bad\.mtx:1: bad header"):
            read_instance(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.mtx"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            read_instance(path)

    def test_nonsquare_matrix(self, tmp_path):
        path = tmp_path / "rect.mtx"
        path.write_text(f"{MM_HEADER}\n2 3 0\n")
        with pytest.raises(ValueError, match="square"):
            read_instance(path)

    def test_entry_count_mismatch(self, tmp_path):
        path = tmp_path / "short.mtx"
        path.write_text(f"{MM_HEADER}\n2 2 2\n1 1 1.0\n")
        with pytest.raises(ValueError, match="promises 2 entries, found 1"):
            read_instance(path)

    def test_malformed_entry_names_its_line(self, tmp_path):
        path = tmp_path / "junk.mtx"
        path.write_text(f"{MM_HEADER}\n2 2 1\n1 x 1.0\n")
        with pytest.raises(ValueError, match=r"junk\.mtx:3"):
            read_instance(path)

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "oob.mtx"
        path.write_text(f"{MM_HEADER}\n2 2 1\n3 1 1.0\n")
        with pytest.raises(ValueError, match=r"outside 1\.\.2"):
            read_instance(path)

    def test_sidecar_k_mismatch(self, tmp_path):
        path = tmp_path / "inst.mtx"
        write_instance(path, tiny_instance())
        sidecar = _sidecar_path(str(path))
        with open(sidecar, "w") as fh:
            json.dump({"k": 5}, fh)
        with pytest.raises(ValueError, match=r"meta\.json:1: metadata says k=5"):
            read_instance(path)

    def test_sidecar_invalid_json(self, tmp_path):
        path = tmp_path / "inst.mtx"
        write_instance(path, tiny_instance())
        with open(_sidecar_path(str(path)), "w") as fh:
            fh.write("{broken")
        with pytest.raises(ValueError, match="invalid JSON"):
            read_instance(path)

    @pytest.mark.parametrize("entry", ["1_0 1 1.0", "1 2 1_0", "١ 2 1.0", "1 2 ٣.5"],
                             ids=["underscore-index", "underscore-value",
                                  "arabic-index", "arabic-value"])
    def test_entries_are_ascii_decimal(self, tmp_path, entry):
        # Python's int and float read these; np.loadtxt does not.
        path = tmp_path / "odd.mtx"
        path.write_text(f"{MM_HEADER}\n2 2 2\n2 2 1.0\n{entry}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:4: "
                                             rf"malformed entry {re.escape(repr(entry))}$"):
            read_instance(path)

    @pytest.mark.parametrize("body,meta,where", [
        # an earlier non-finite value outranks a later malformed line
        ("1 1 nan\n2 2 1.0\nx\n", None, r"odd\.mtx:3: non-finite value 'nan'"),
        ("1 1 1.0\n3 1 1.0\n1 x\n", None, r"odd\.mtx:4: index \(3, 1\) outside 1\.\.2"),
        ("1 1 1.0\n1 x\n2 2 inf\n", None, r"odd\.mtx:4: entry needs 3 fields, got 2"),
        # an entry fault outranks a sidecar fault, which outranks a repeat
        ("1 1 1.0\n2 2 inf\n2 1 1.0\n", "{broken", r"odd\.mtx:4: non-finite value 'inf'"),
        ("1 1 1.0\n2 2 1.0\n1 1 2.0\n", "{broken", r"odd\.meta\.json:1: invalid JSON"),
        ("1 1 1.0\n2 2 1.0\n1 1 2.0\n", None,
         r"odd\.mtx:5: duplicate entry \(1, 1\), first given on line 3"),
    ], ids=["non-finite-then-malformed", "range-then-malformed", "malformed-then-inf",
            "entry-then-sidecar", "sidecar-then-duplicate", "duplicate"])
    def test_first_fault_in_precedence_order(self, tmp_path, body, meta, where):
        path = tmp_path / "odd.mtx"
        path.write_text(f"{MM_HEADER}\n2 2 3\n{body}")
        if meta is not None:
            (tmp_path / "odd.meta.json").write_text(meta)
        with pytest.raises(ValueError, match=where):
            read_instance(path)


class TestVectors:
    def test_round_trip_is_exact(self, tmp_path):
        b = np.random.default_rng(3).normal(size=7)
        path = tmp_path / "b.txt"
        write_vector(path, b)
        assert np.array_equal(read_vector(path), b)

    def test_valid_file_is_one_parse(self, tmp_path, monkeypatch):
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt",
                            lambda *a, **kw: calls.append(1) or loadtxt(*a, **kw))
        b = np.random.default_rng(4).normal(size=400)
        path = tmp_path / "b.txt"
        write_vector(path, b)
        got = read_vector(path, 400)
        assert got.tobytes() == b.tobytes()
        assert got.flags.c_contiguous and got.flags.owndata
        assert len(calls) == 1

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1.5\n\n-2.0\n")
        assert read_vector(path).tolist() == [1.5, -2.0]

    def test_malformed_number_names_its_line(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1.0\nbogus\n")
        with pytest.raises(ValueError, match=r"b\.txt:2"):
            read_vector(path)

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        # \r\n and a lone \r each end a line, as open() reads them.
        path = tmp_path / "b.txt"
        path.write_bytes(b"1.0\r\n2.0\r3.0\n4.\xff0\n")
        with pytest.raises(ValueError, match=r"b\.txt:4: not UTF-8 text: .* byte 0xff"):
            read_vector(path)

    @pytest.mark.parametrize("text,where", [
        ("1.0\n\n2.0\n\n", r"b\.txt:4: 2 numbers, expected 3"),
        ("", r"b\.txt:1: 0 numbers, expected 3"),
        ("1.0\n2.0\n3.0\n\n4.0\n", r"b\.txt:5: more than the 3 numbers expected"),
    ])
    def test_expected_length_names_a_line(self, tmp_path, text, where):
        path = tmp_path / "b.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=where):
            read_vector(path, 3)
        path.write_text("1.0\n\n2.0\n3.0\n")
        assert read_vector(path, 3).tolist() == [1.0, 2.0, 3.0]


class TestCsv:
    def test_floats_nan_and_ints_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        third = np.float64(1.0) / 3.0
        write_csv(path, ("name", "n", "x"),
                  [["a", 3, third], ["b", np.int64(-2), float("nan")],
                   ["c", 0, 0.1]])
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["name", "n", "x"], ["a", "3", repr(float(third))],
                        ["b", "-2", "nan"], ["c", "0", "0.1"]]
        assert float(rows[1][2]) == third
