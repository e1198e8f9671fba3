"""End-to-end CLI runs: every subcommand on small problems, artifact
layout, config sidecars, output-directory resolution, and error paths."""

from __future__ import annotations

import csv
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qubolab
from qubolab import (DataGenParams, QuboInstance, cli, gen_random_dense,
                     generate_dataset, load_checkpoint, read_instance,
                     read_vector, write_dataset, write_instance, write_vector)
from qubolab.cli import main


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One full pipeline run: instance -> dataset -> trained model."""
    root = tmp_path_factory.mktemp("cli")
    inst_path = root / "inst.mtx"
    assert main(["gen-instance", "--kind", "random-dense", "--k", "4",
                 "--seed", "3", "--scale", "0.5", "--out", str(inst_path)]) == 0
    b_path = root / "b.txt"
    write_vector(b_path, np.random.default_rng(1).normal(size=4))
    data_path = root / "data.jsonl"
    assert main(["gen-data", "--instance", str(inst_path), "--n", "20",
                 "--sigma", "0.3", "--out", str(data_path)]) == 0
    model_path = root / "model.json"
    assert main(["train", "--instance", str(inst_path), "--data", str(data_path),
                 "--width", "4", "--layers", "1", "--epochs", "2",
                 "--batch", "8", "--out", str(model_path)]) == 0
    return {"root": root, "inst": inst_path, "b": b_path, "data": data_path,
            "model": model_path}


@pytest.mark.parametrize("name", ["inst.mtx", "inst.meta.json", "b.txt", "data.jsonl",
                                  "model.json"])
def test_file_that_is_not_utf8_names_its_line(ws, tmp_path, capsys, name):
    for path in ws["inst"], ws["inst"].with_suffix(".meta.json"), ws["b"], ws["data"], \
            ws["model"]:
        shutil.copy(path, tmp_path / path.name)
    bad = tmp_path / name
    lines = bad.read_bytes().split(b"\n")
    lines[1] = b"\xff" + lines[1]
    bad.write_bytes(b"\n".join(lines))
    if name in ("b.txt", "inst.mtx", "inst.meta.json"):
        argv = ["solve", "--b", str(tmp_path / "b.txt"), "--method", "exhaustive",
                "--out", str(tmp_path / "s.json")]
    else:
        argv = ["eval", "--data", str(tmp_path / "data.jsonl"), "--model",
                str(tmp_path / "model.json"), "--methods", "bpgnn",
                "--out", str(tmp_path / "e.csv")]
    assert main([*argv, "--instance", str(tmp_path / "inst.mtx")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {bad}:2: not UTF-8 text: 'utf-8' codec can't decode byte 0xff")


class TestGenInstance:
    def test_random_dense_artifacts(self, ws, capsys):
        out = ws["root"] / "check.mtx"
        assert main(["gen-instance", "--kind", "random-dense", "--k", "4",
                     "--seed", "3", "--scale", "0.5", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out} (k=4, nnz=16)\n"
        inst = read_instance(out)
        ref = gen_random_dense(4, 3, scale=0.5)
        assert np.array_equal(inst.vals, ref.vals)
        meta = json.loads((ws["root"] / "check.meta.json").read_text())
        assert meta["k"] == 4 and meta["generator"] == "random_dense"
        config = json.loads((ws["root"] / "check.config.json").read_text())
        assert config["subcommand"] == "gen-instance"
        assert config["kind"] == "random-dense" and config["seed"] == 3

    def test_ising_writes_field_vector(self, tmp_path, capsys):
        out = tmp_path / "grid.mtx"
        assert main(["gen-instance", "--kind", "ising", "--side", "2",
                     "--b-scalar", "1.5", "--out", str(out)]) == 0
        capsys.readouterr()
        field = read_vector(tmp_path / "grid.b.txt")
        assert field == pytest.approx(np.full(4, -1.5))
        assert read_instance(out).k == 4

    def test_lattice_laplacian(self, tmp_path, capsys):
        out = tmp_path / "lap.mtx"
        assert main(["gen-instance", "--kind", "lattice-laplacian",
                     "--side", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert read_instance(out).k == 9

    @pytest.mark.parametrize("argv", [
        ["gen-instance", "--kind", "random-dense", "--out", "x.mtx"],
        ["gen-instance", "--kind", "lattice-laplacian", "--out", "x.mtx"],
        ["gen-instance", "--kind", "ising", "--out", "x.mtx"],
    ])
    def test_missing_size_flag_fails_cleanly(self, argv, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setenv("QUBOLAB_OUTDIR", str(tmp_path))
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: --kind")


@pytest.mark.parametrize("args,name", [
    (["gen-instance", "--kind", "random-dense", "--k", "4", "--scale", "nan"], "scale"),
    (["sweep", "--instance", "INST", "--b-min", "nan", "--b-max", "1"], "b_range"),
    (["probe", "--instance", "INST", "--s-range", "nan,1"], "s_range"),
    (["probe", "--instance", "INST", "--t-range", "0,inf"], "t_range"),
    (["gen-data", "--instance", "INST", "--n", "4", "--split", "0.5,nan"], "split"),
])
def test_non_finite_knob_exits_2_naming_it(ws, tmp_path, capsys, args, name):
    out = tmp_path / "out.csv"
    argv = [str(ws["inst"]) if a == "INST" else a for a in args] + ["--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {name} must be finite")
    assert list(tmp_path.iterdir()) == []


class TestGenData:
    def test_reproduces_library_output_byte_for_byte(self, ws, tmp_path):
        inst = read_instance(ws["inst"])
        params = DataGenParams(sigma=0.3, mu=1e-3, eps_bin=1e-3,
                               refine_steps=10, seed=0)
        ref = generate_dataset(inst, 20, params, split=(0.8, 0.2),
                               instance_ref="inst.mtx")
        ref_path = tmp_path / "ref.jsonl"
        write_dataset(ref, ref_path)
        assert ref_path.read_bytes() == ws["data"].read_bytes()

    def test_split_needs_two_fractions(self, ws, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--instance", str(ws["inst"]), "--n", "4",
                  "--split", "0.5,0.3,0.2", "--out", str(tmp_path / "d.jsonl")])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_stdout_and_config(self, ws, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        assert main(["gen-data", "--instance", str(ws["inst"]), "--n", "10",
                     "--split", "0.5,0.5", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out} (10 pairs, 5 train)\n"
        config = json.loads((tmp_path / "d.config.json").read_text())
        assert config["subcommand"] == "gen-data"
        assert config["n"] == 10 and config["sigma"] == 0.0

    def test_deeply_nested_sidecar_names_line_1(self, ws, tmp_path, capsys):
        inst = tmp_path / "inst.mtx"
        inst.write_bytes(ws["inst"].read_bytes())
        sidecar = tmp_path / "inst.meta.json"
        sidecar.write_text('{"a":' * 100_000)
        assert main(["gen-data", "--instance", str(inst), "--n", "4",
                     "--out", str(tmp_path / "d.jsonl")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {sidecar}:1: invalid JSON: maximum recursion depth exceeded")


class TestSolve:
    @pytest.fixture()
    def tiny(self, tmp_path):
        write_instance(tmp_path / "t.mtx", QuboInstance(2, [0], [1], [1.0]))
        write_vector(tmp_path / "t.b.txt", np.array([1.0, -1.0]))
        return tmp_path

    def test_exhaustive_stdout_and_json(self, tiny, capsys):
        out = tiny / "sol.json"
        assert main(["solve", "--instance", str(tiny / "t.mtx"),
                     "--b", str(tiny / "t.b.txt"), "--method", "exhaustive",
                     "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert re.fullmatch(
            r"x=\[0,1\] f=-1\.0 \(exhaustive, 3 iterations, "
            r"\d+\.\d{2} ms, enumerated\)", line)
        doc = json.loads(out.read_text())
        assert doc["solver"] == "exhaustive"
        assert doc["x_best"] == [0, 1]
        assert doc["f_best"] == -1.0
        assert doc["evaluations"] == 4
        assert json.loads((tiny / "sol.config.json").read_text())[
            "subcommand"] == "solve"

    def test_tabu_and_sab_run(self, tiny, capsys):
        for method in ("tabu", "sab"):
            out = tiny / f"{method}.json"
            assert main(["solve", "--instance", str(tiny / "t.mtx"),
                         "--b", str(tiny / "t.b.txt"), "--method", method,
                         "--steps", "50", "--out", str(out)]) == 0
            line = capsys.readouterr().out
            assert f"({method}," in line
            assert json.loads(out.read_text())["f_best"] == -1.0

    def test_tabu_with_zero_steps_returns_the_start(self, tiny, capsys):
        out = tiny / "tabu0.json"
        assert main(["solve", "--instance", str(tiny / "t.mtx"),
                     "--b", str(tiny / "t.b.txt"), "--method", "tabu",
                     "--steps", "0", "--out", str(out)]) == 0
        assert "(tabu, 0 iterations," in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert (doc["x_best"], doc["f_best"], doc["iterations"]) == ([0, 0], 0.0, 0)

    def test_missing_instance_file_exits_two(self, tiny, capsys):
        rc = main(["solve", "--instance", str(tiny / "absent.mtx"),
                   "--b", str(tiny / "t.b.txt"), "--method", "exhaustive",
                   "--out", str(tiny / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def solve_fails_with(self, tiny, capsys, instance, b):
        rc = main(["solve", "--instance", str(instance), "--b", str(b),
                   "--method", "exhaustive", "--out", str(tiny / "x.json")])
        assert rc == 2
        return capsys.readouterr().err

    def test_non_finite_matrix_entry_names_its_line(self, tiny, capsys):
        bad = tiny / "bad.mtx"
        lines = (tiny / "t.mtx").read_text().splitlines()
        assert lines[2] == "1 2 1.0"
        lines[2] = "1 2 nan"
        bad.write_text("\n".join(lines) + "\n")
        err = self.solve_fails_with(tiny, capsys, bad, tiny / "t.b.txt")
        assert err == f"error: {bad}:3: non-finite value 'nan'\n"

    def test_non_finite_vector_line_names_its_line(self, tiny, capsys):
        bad = tiny / "bad.b.txt"
        bad.write_text("1.0\n\n-inf\n")
        err = self.solve_fails_with(tiny, capsys, tiny / "t.mtx", bad)
        assert err == f"error: {bad}:3: non-finite value '-inf'\n"

    def test_duplicate_coordinate_names_its_line(self, tiny, capsys):
        bad = tiny / "dup.mtx"
        lines = (tiny / "t.mtx").read_text().splitlines()
        assert lines[1:] == ["2 2 1", "1 2 1.0"]
        bad.write_text("\n".join([lines[0], "2 2 2", "1 2 1.0", "1 2 0.5"]) + "\n")
        err = self.solve_fails_with(tiny, capsys, bad, tiny / "t.b.txt")
        assert err == (f"error: {bad}:4: duplicate entry (1, 2), "
                       f"first given on line 3\n")

    def test_zero_size_line_names_its_line(self, tiny, capsys):
        bad = tiny / "empty.mtx"
        lines = (tiny / "t.mtx").read_text().splitlines()
        bad.write_text("\n".join([lines[0], "0 0 0"]) + "\n")
        err = self.solve_fails_with(tiny, capsys, bad, tiny / "t.b.txt")
        assert err == f"error: {bad}:2: matrix size must be positive, got 0\n"

    @pytest.mark.parametrize("size", ["٢ 2 1", "2 2 1_0"],
                             ids=["arabic-digit", "underscore"])
    def test_size_line_is_ascii_decimal(self, tiny, capsys, size):
        bad = tiny / "odd.mtx"
        lines = (tiny / "t.mtx").read_text().splitlines()
        bad.write_text("\n".join([lines[0], size, lines[2]]) + "\n")
        err = self.solve_fails_with(tiny, capsys, bad, tiny / "t.b.txt")
        assert err == f"error: {bad}:2: non-integer size line {size!r}\n"

    @pytest.mark.parametrize("text,where", [
        ("1_0\n٣.5\n", "1: malformed number '1_0'"),
        ("1.0\n\n٣.5\n", "3: malformed number '٣.5'"),
    ], ids=["underscore", "arabic-digit"])
    def test_vector_is_ascii_decimal(self, tiny, capsys, text, where):
        bad = tiny / "odd.b.txt"
        bad.write_text(text)
        err = self.solve_fails_with(tiny, capsys, tiny / "t.mtx", bad)
        assert err == f"error: {bad}:{where}\n"

    @pytest.mark.parametrize("body", ["", "\n \n\n"], ids=["no-lines", "blank-lines"])
    def test_truncated_instance_names_its_size_line(self, tiny, capsys, body):
        bad = tiny / "cut.mtx"
        header = (tiny / "t.mtx").read_text().splitlines()[0]
        bad.write_text(f"{header}\n2 2 4\n{body}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self.solve_fails_with(tiny, capsys, bad, tiny / "t.b.txt")
        assert err == f"error: {bad}:2: size line promises 4 entries, found 0\n"
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("text,where", [
        ("1.0\n\n", "2: 1 numbers, expected 2"),
        ("1.0\n-1.0\n0.5\n", "3: more than the 2 numbers expected"),
    ], ids=["short", "long"])
    def test_vector_length_must_match_the_instance(self, tiny, capsys, text,
                                                   where):
        bad = tiny / "bad.b.txt"
        bad.write_text(text)
        err = self.solve_fails_with(tiny, capsys, tiny / "t.mtx", bad)
        assert err == f"error: {bad}:{where}\n"

    @pytest.mark.parametrize("text,where", [
        ('{"k": 2,\n  "seed": }\n', "2: invalid JSON: "),
        ("[2]\n", "1: expected a JSON object"),
        ('{\n  "generator": null,\n  "k": 3\n}\n',
         "3: metadata says k=3, matrix is 2"),
    ], ids=["invalid-json", "not-an-object", "k-mismatch"])
    def test_sidecar_errors_name_their_line(self, tiny, capsys, text, where):
        sidecar = tiny / "t.meta.json"
        sidecar.write_text(text)
        err = self.solve_fails_with(tiny, capsys, tiny / "t.mtx", tiny / "t.b.txt")
        assert err.startswith(f"error: {sidecar}:{where}")

    def test_unknown_method_is_an_argparse_error(self, tiny):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--instance", str(tiny / "t.mtx"),
                  "--b", str(tiny / "t.b.txt"), "--method", "magic",
                  "--out", str(tiny / "x.json")])
        assert exc.value.code == 2


class TestTrain:
    def test_artifacts(self, ws, capsys):
        assert ws["model"].exists()
        history = ws["root"] / "model.history.csv"
        rows = list(csv.reader(history.read_text().splitlines()))
        assert rows[0] == ["epoch", "train_bce", "val_bce", "val_acc",
                           "val_relqubo"]
        assert len(rows) == 3  # two epochs
        config = json.loads((ws["root"] / "model.config.json").read_text())
        assert config["subcommand"] == "train"
        assert config["width"] == 4 and config["epochs"] == 2
        inst = read_instance(ws["inst"])
        model = load_checkpoint(ws["model"], inst)
        assert model.config.d == 4 and model.config.layers == 1

    def test_stdout_reports_validation(self, ws, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["train", "--instance", str(ws["inst"]),
                     "--data", str(ws["data"]), "--width", "4", "--layers", "1",
                     "--epochs", "1", "--batch", "8", "--out", str(out)]) == 0
        line = capsys.readouterr().out
        assert re.fullmatch(
            rf"wrote {re.escape(str(out))} \(1 epochs, val_acc=\d\.\d{{4}}, "
            r"val_relqubo=[^)]+\)\n", line)

    def test_non_finite_lr_writes_nothing(self, ws, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["train", "--instance", str(ws["inst"]),
                     "--data", str(ws["data"]), "--width", "4", "--layers", "1",
                     "--epochs", "1", "--lr", "nan", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: lr must be >= 0")
        assert list(tmp_path.iterdir()) == []


class TestEval:
    def test_classical_and_neural_methods(self, ws, tmp_path, capsys):
        out = tmp_path / "eval.csv"
        assert main(["eval", "--instance", str(ws["inst"]),
                     "--data", str(ws["data"]), "--model", str(ws["model"]),
                     "--methods", "exhaustive,bpgnn", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("exhaustive: acc=")
        assert lines[1].startswith("bpgnn: acc=")
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0][:4] == ["method", "accuracy", "rel_qubo", "elapsed_ms"]
        assert [r[0] for r in rows[1:]] == ["exhaustive", "bpgnn"]
        assert 0.0 <= float(rows[1][1]) <= 1.0

    def test_bpgnn_row_repeats_the_best_epochs_validation(self, tmp_path, capsys):
        # train keeps the epoch of lowest val_bce, so eval scores the same
        # prediction on the same split: the same text, not just close.
        # With the data seed 0, a mean of row means reads 0.9247500000000001
        # where the bits' mean reads 0.92475.
        p = {name: str(tmp_path / name) for name in ("i.mtx", "d.jsonl", "m.json", "e.csv")}
        for argv in (
            ["gen-instance", "--kind", "random-dense", "--k", "10", "--scale", "0.2",
             "--seed", "1", "--out", p["i.mtx"]],
            ["gen-data", "--instance", p["i.mtx"], "--n", "2000", "--sigma", "0.7",
             "--seed", "0", "--out", p["d.jsonl"]],
            ["train", "--instance", p["i.mtx"], "--data", p["d.jsonl"], "--width", "8",
             "--layers", "2", "--epochs", "2", "--out", p["m.json"]],
            ["eval", "--instance", p["i.mtx"], "--data", p["d.jsonl"], "--model",
             p["m.json"], "--methods", "bpgnn", "--out", p["e.csv"]],
        ):
            assert main(argv) == 0
        with open(tmp_path / "m.history.csv", newline="") as fh:
            best = min(csv.DictReader(fh), key=lambda row: float(row["val_bce"]))
        with open(p["e.csv"], newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["accuracy"], row["rel_qubo"]) == (best["val_acc"], best["val_relqubo"])

    def test_neural_methods_require_model_flag(self, ws, tmp_path, capsys):
        rc = main(["eval", "--instance", str(ws["inst"]),
                   "--data", str(ws["data"]), "--methods", "bpgnn",
                   "--out", str(tmp_path / "e.csv")])
        assert rc == 2
        assert "require --model" in capsys.readouterr().err

    def eval_fails_at(self, ws, tmp_path, capsys, data=None, model=None):
        rc = main(["eval", "--instance", str(ws["inst"]),
                   "--data", str(data or ws["data"]),
                   "--model", str(model or ws["model"]),
                   "--methods", "bpgnn", "--out", str(tmp_path / "e.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: .+:\d+: .+\n", err), err
        return err

    def test_deeply_nested_checkpoint_names_line_1(self, ws, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text("[" * 100_000)
        err = self.eval_fails_at(ws, tmp_path, capsys, model=bad)
        assert err.startswith(f"error: {bad}:1: invalid checkpoint JSON: "
                              "maximum recursion depth exceeded")

    def test_checkpoint_parameter_without_shape(self, ws, tmp_path, capsys):
        doc = json.loads(ws["model"].read_text())
        del doc["params"]["dec.w"]["shape"]
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc, indent=1))
        err = self.eval_fails_at(ws, tmp_path, capsys, model=bad)
        line = next(i for i, text in enumerate(bad.read_text().split("\n"), 1)
                    if '"dec.w"' in text)
        assert line > 1
        assert err.startswith(f"error: {bad}:{line}: parameter 'dec.w' needs")

    def test_checkpoint_non_finite_parameter(self, ws, tmp_path, capsys):
        doc = json.loads(ws["model"].read_text())
        doc["params"]["dec.b"]["data"] = [float("nan")]
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc, indent=1))
        err = self.eval_fails_at(ws, tmp_path, capsys, model=bad)
        line = next(i for i, text in enumerate(bad.read_text().split("\n"), 1)
                    if '"dec.b"' in text)
        assert line > 1
        assert err == f"error: {bad}:{line}: parameter 'dec.b' has non-finite values\n"

    @pytest.mark.parametrize("value,why", [
        ("0.5", "data must be a list of JSON numbers"),
        (True, "data must be a list of JSON numbers"),
        (None, "data must be a list of JSON numbers"),
        (10 ** 400, "int too large to convert to float"),
    ], ids=["quoted", "bool", "null", "huge-int"])
    def test_checkpoint_parameter_entries_must_be_numbers(self, ws, tmp_path,
                                                           capsys, value, why):
        doc = json.loads(ws["model"].read_text())
        doc["params"]["dec.b"]["data"] = [value]
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc, indent=1))
        err = self.eval_fails_at(ws, tmp_path, capsys, model=bad)
        line = next(i for i, text in enumerate(bad.read_text().split("\n"), 1)
                    if '"dec.b"' in text)
        assert line > 1
        assert err.startswith(f"error: {bad}:{line}: parameter 'dec.b'")
        assert why in err

    @pytest.mark.parametrize("key,value", [
        ("d", 1.5), ("layers", 1.5), ("seed", -1),
        # the model has 1 layer, so only the type check can refuse these
        ("use_qubo_features", "false"), ("layers", True), ("seed", True),
        ("eps_step", True), ("dropout", False),
    ])
    def test_checkpoint_config_the_model_cannot_take(self, ws, tmp_path, capsys,
                                                      key, value):
        doc = json.loads(ws["model"].read_text())
        doc["config"][key] = value
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc, indent=1))
        err = self.eval_fails_at(ws, tmp_path, capsys, model=bad)
        assert err.startswith(f"error: {bad}:2: bad config block: ")

    def test_dataset_size_mismatch_names_the_header(self, ws, tmp_path, capsys):
        lines = ws["data"].read_text().splitlines()
        header = json.loads(lines[0])
        header["k"] = 5
        bad = tmp_path / "data.jsonl"
        bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        err = self.eval_fails_at(ws, tmp_path, capsys, data=bad)
        assert err == f"error: {bad}:1: dataset k=5 does not match instance k=4\n"

    def test_dataset_header_k_must_not_be_a_bool(self, tmp_path, capsys):
        # a k = 1 instance, so a size check against it cannot catch k = true
        inst = tmp_path / "one.mtx"
        write_instance(inst, QuboInstance(1, [0], [0], [1.0]))
        bad = tmp_path / "data.jsonl"
        bad.write_text('{"k": true}\n{"b": [0.5], "x": [0], "split": "train"}\n')
        rc = main(["train", "--instance", str(inst), "--data", str(bad),
                   "--width", "2", "--layers", "1", "--epochs", "1",
                   "--out", str(tmp_path / "model.json")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {bad}:1: header k must be a positive integer, got True\n")

    def test_dataset_without_the_split_names_its_last_line(self, ws, tmp_path,
                                                          capsys):
        lines = [line for line in ws["data"].read_text().splitlines()
                 if '"split": "val"' not in line]
        bad = tmp_path / "data.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        err = self.eval_fails_at(ws, tmp_path, capsys, data=bad)
        assert err == f"error: {bad}:{len(lines)}: no 'val' pairs in the file\n"

    @pytest.mark.parametrize("record,why", [
        ("5", "record must be a JSON object"),
        ('{"b": 3, "x": [0, 0, 0, 0], "split": "val"}', "b must be a list"),
        pytest.param("[" * 100_000, "invalid JSON: maximum recursion depth exceeded",
                     id="deep-nesting"),
    ])
    def test_malformed_dataset_record(self, ws, tmp_path, capsys, record, why):
        lines = ws["data"].read_text().splitlines()
        lines[3] = record
        bad = tmp_path / "data.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        err = self.eval_fails_at(ws, tmp_path, capsys, data=bad)
        assert err.startswith(f"error: {bad}:4: {why}")

    @pytest.mark.parametrize("provenance", [5, [1], "seed", None])
    def test_dataset_provenance_must_be_an_object(self, ws, tmp_path, capsys,
                                                  provenance):
        lines = ws["data"].read_text().splitlines()
        record = json.loads(lines[3])
        record["provenance"] = provenance
        lines[3] = json.dumps(record)
        bad = tmp_path / "data.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        err = self.eval_fails_at(ws, tmp_path, capsys, data=bad)
        assert err == (f"error: {bad}:4: provenance must be a JSON object, "
                       f"got {provenance!r}\n")

    def header_fails(self, ws, tmp_path, capsys, key, value):
        lines = ws["data"].read_text().splitlines()
        header = json.loads(lines[0])
        header[key] = value
        bad = tmp_path / "data.jsonl"
        bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        err = self.eval_fails_at(ws, tmp_path, capsys, data=bad)
        assert not (tmp_path / "e.csv").exists()
        return err.removeprefix(f"error: {bad}:")

    @pytest.mark.parametrize("value", [7, None, ["inst.mtx"]])
    def test_dataset_header_instance_must_be_a_string(self, ws, tmp_path, capsys, value):
        err = self.header_fails(ws, tmp_path, capsys, "instance", value)
        assert err == f"1: header instance must be a string, got {value!r}\n"

    @pytest.mark.parametrize("value", [[1], "sigma=0.3", None])
    def test_dataset_header_params_must_be_an_object(self, ws, tmp_path, capsys, value):
        err = self.header_fails(ws, tmp_path, capsys, "params", value)
        assert err == f"1: header params must be a JSON object, got {value!r}\n"

    @pytest.mark.parametrize("key,values,why", [
        ("b", ["-0.5", "1", "2", "0.25"], "b entries must be JSON numbers, got '-0.5'"),
        ("b", [True, False, 1.0, 0.5], "b entries must be JSON numbers, got True"),
        ("x", [True, False, True, False], "x entries must be JSON numbers, got True"),
        ("b", [10 ** 400, 1.0, 2.0, 0.5], "int too large to convert to float"),
        ("x", [10 ** 400, 0, 1, 0], ""),  # numpy's overflow message
    ], ids=["quoted-b", "bool-b", "bool-x", "huge-int-b", "huge-int-x"])
    def test_dataset_entries_must_be_numbers(self, ws, tmp_path, capsys, key,
                                             values, why):
        lines = ws["data"].read_text().splitlines()
        record = json.loads(lines[3])
        record[key] = values
        lines[3] = json.dumps(record)
        bad = tmp_path / "data.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        err = self.eval_fails_at(ws, tmp_path, capsys, data=bad)
        assert err.startswith(f"error: {bad}:4: {why}")

    def test_nul_suffixed_split_tag_names_its_line(self, ws, tmp_path, capsys):
        # numpy's str dtype would read the tag "train\0" as "train"
        header, *records = ws["data"].read_text().splitlines()[:3]
        rows = [json.loads(record) for record in records]
        rows[0]["split"], rows[1]["split"] = "train\0", "val"
        bad = tmp_path / "data.jsonl"
        bad.write_text("\n".join([header] + [json.dumps(row) for row in rows]) + "\n")
        err = self.eval_fails_at(ws, tmp_path, capsys, data=bad)
        assert err == f"error: {bad}:2: split must be 'train' or 'val', got 'train\\x00'\n"


class TestProbe:
    def test_grid_csv(self, ws, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert main(["probe", "--instance", str(ws["inst"]),
                     "--b", str(ws["b"]), "--seed", "5",
                     "--resolution", "3", "--out", str(out)]) == 0
        line = capsys.readouterr().out
        assert re.fullmatch(
            rf"wrote {re.escape(str(out))} \(3x3 cells, \d+ distinct phi "
            r"values\)\n", line)
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["s", "t", "phi"]
        assert len(rows) == 10

    def test_default_base_vector_is_zero(self, ws, tmp_path, capsys):
        out = tmp_path / "g0.csv"
        assert main(["probe", "--instance", str(ws["inst"]),
                     "--resolution", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        config = json.loads((tmp_path / "g0.config.json").read_text())
        assert config["b"] is None


class TestSweep:
    def test_samples_and_change_points(self, tmp_path, capsys):
        inst_path = tmp_path / "grid.mtx"
        assert main(["gen-instance", "--kind", "ising", "--side", "2",
                     "--out", str(inst_path)]) == 0
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--instance", str(inst_path), "--b-min", "-1",
                     "--b-max", "6", "--samples", "11",
                     "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip().split("\n")[-1]
        assert re.fullmatch(
            rf"wrote {re.escape(str(out))} \(11 samples, \d+ change points\)",
            line)
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["b", "changed"]
        assert len(rows) == 12
        assert sum(int(r[1]) for r in rows[1:]) >= 1


class TestBench:
    def test_table_across_realizations(self, tmp_path, capsys):
        insts, datas = [], []
        for t in (0, 1):
            ip = tmp_path / f"i{t}.mtx"
            dp = tmp_path / f"d{t}.jsonl"
            assert main(["gen-instance", "--kind", "random-dense", "--k", "4",
                         "--seed", str(40 + t), "--out", str(ip)]) == 0
            assert main(["gen-data", "--instance", str(ip), "--n", "8",
                         "--split", "0.5,0.5", "--out", str(dp)]) == 0
            insts.append(str(ip))
            datas.append(str(dp))
        capsys.readouterr()
        out = tmp_path / "bench.csv"
        assert main(["bench", "--instances", ",".join(insts),
                     "--datasets", ",".join(datas),
                     "--methods", "exhaustive,tabu", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("exhaustive: acc=1.0000±0.0000")
        assert lines[1].startswith("tabu: acc=")
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["method", "k", "acc_mean", "acc_std", "relqubo_mean",
                           "relqubo_std", "time_ms_mean"]
        assert len(rows) == 3 and rows[1][1] == "4"

    def test_neural_rows_load_one_checkpoint_per_realization(self, tmp_path, capsys):
        lists = {"--instances": [], "--datasets": [], "--models": []}
        for t in (0, 1):
            ip, dp, mp = (tmp_path / f"{name}{t}" for name in ("i.mtx", "d.jsonl", "m.json"))
            assert main(["gen-instance", "--kind", "random-dense", "--k", "6",
                         "--seed", str(50 + t), "--out", str(ip)]) == 0
            assert main(["gen-data", "--instance", str(ip), "--n", "12",
                         "--split", "0.5,0.5", "--out", str(dp)]) == 0
            assert main(["train", "--instance", str(ip), "--data", str(dp),
                         "--width", "4", "--layers", "1", "--epochs", "1",
                         "--out", str(mp)]) == 0
            for flag, path in zip(lists, (ip, dp, mp)):
                lists[flag].append(str(path))
        capsys.readouterr()
        out = tmp_path / "bench.csv"
        argv = [a for flag, paths in lists.items() for a in (flag, ",".join(paths))]
        assert main(["bench", *argv, "--methods", "tabu,bpgnn,bpgnn+ts",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["method"] for r in rows] == ["tabu", "bpgnn", "bpgnn+ts"]
        for row in rows:
            assert row["k"] == "6"
            assert all(math.isfinite(float(v)) for c, v in row.items()
                       if c not in ("method", "k"))

    @pytest.mark.parametrize("lists,noun", [
        (["--datasets", "{data},{bad}"], "datasets"),
        (["--datasets", "{data}", "--models", "{model},{bad}"], "models"),
    ])
    def test_extra_entries_are_refused_before_reading(self, ws, tmp_path, capsys,
                                                      lists, noun):
        bad = tmp_path / "bad"
        bad.write_text("{\n")  # unreadable as a dataset and as a checkpoint
        lists = [a.format(data=ws["data"], model=ws["model"], bad=bad) for a in lists]
        out = tmp_path / "bench.csv"
        assert main(["bench", "--instances", str(ws["inst"]), *lists,
                     "--methods", "tabu", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: 1 instances but 2 {noun}\n"
        assert not out.exists()


class TestOutdirResolution:
    def test_relative_paths_land_in_outdir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QUBOLAB_OUTDIR", str(tmp_path))
        assert main(["gen-instance", "--kind", "random-dense", "--k", "4",
                     "--seed", "0", "--out", "rel.mtx"]) == 0
        capsys.readouterr()
        assert (tmp_path / "rel.mtx").exists()
        assert (tmp_path / "rel.config.json").exists()

    def test_manifest_keeps_out_as_given_and_history_resolves(
            self, ws, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QUBOLAB_OUTDIR", str(tmp_path))
        assert main(["train", "--instance", str(ws["inst"]),
                     "--data", str(ws["data"]), "--width", "4", "--layers", "1",
                     "--epochs", "1", "--batch", "8", "--history", "h.csv",
                     "--out", "m.json"]) == 0
        capsys.readouterr()
        config = json.loads((tmp_path / "m.config.json").read_text())
        assert config["out"] == "m.json" and config["history"] == "h.csv"
        assert (tmp_path / "m.json").exists() and (tmp_path / "h.csv").exists()

    def test_no_manifest_when_the_command_fails(self, ws, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.setenv("QUBOLAB_OUTDIR", str(tmp_path))
        assert main(["eval", "--instance", str(ws["inst"]),
                     "--data", str(ws["data"]), "--methods", "bpgnn",
                     "--out", "e.csv"]) == 2
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []

    def test_absolute_paths_ignore_outdir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QUBOLAB_OUTDIR", str(tmp_path / "elsewhere"))
        out = tmp_path / "abs.mtx"
        assert main(["gen-instance", "--kind", "random-dense", "--k", "4",
                     "--seed", "0", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.exists()


# Ten rounds of allocating and freeing 20 arrays of 1 MiB, after one round
# that faults the memory in; prints each round's minor page faults.
FAULT_PROBE = """
import json, resource, sys
import numpy as np
if sys.argv[1] == "policy":
    from qubolab.cli import keep_heap_mapped
    keep_heap_mapped()
faults = []
for _ in range(11):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 17) for _ in range(20)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults[1:]))
"""


class TestAllocatorPolicy:
    @staticmethod
    def faults_per_round(mode: str) -> list[int]:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
        src = os.path.dirname(os.path.dirname(qubolab.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", FAULT_PROBE, mode], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        return json.loads(proc.stdout)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
    def test_freed_heap_stays_mapped(self):
        with_policy = self.faults_per_round("policy")
        without = self.faults_per_round("default")
        assert len(with_policy) == len(without) == 10
        assert max(with_policy) < 100, with_policy
        assert min(without) >= 1000, without

    @staticmethod
    def lookup_fails(name):
        raise OSError("no C library")

    @pytest.mark.parametrize("cdll", [lookup_fails, lambda name: object()],
                             ids=["lookup-fails", "no-mallopt"])
    def test_main_runs_without_mallopt(self, cdll, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        out = tmp_path / "inst.mtx"
        assert main(["gen-instance", "--kind", "random-dense", "--k", "4",
                     "--seed", "0", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out} (k=4, nnz=16)\n"
