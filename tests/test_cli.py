"""End-to-end CLI runs: every subcommand on small problems, artifact
layout, config sidecars, output-directory resolution, and error paths."""

from __future__ import annotations

import csv
import json
import re

import numpy as np
import pytest

from qubolab import (DataGenParams, QuboInstance, gen_random_dense,
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

    def test_stdout_and_config(self, ws, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        assert main(["gen-data", "--instance", str(ws["inst"]), "--n", "10",
                     "--split", "0.5,0.5", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out} (10 pairs, 5 train)\n"
        config = json.loads((tmp_path / "d.config.json").read_text())
        assert config["subcommand"] == "gen-data"
        assert config["n"] == 10 and config["sigma"] == 0.0


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

    def test_missing_instance_file_exits_two(self, tiny, capsys):
        rc = main(["solve", "--instance", str(tiny / "absent.mtx"),
                   "--b", str(tiny / "t.b.txt"), "--method", "exhaustive",
                   "--out", str(tiny / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

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
        rows = list(csv.reader(history.open()))
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


class TestEval:
    def test_classical_and_neural_methods(self, ws, tmp_path, capsys):
        out = tmp_path / "eval.csv"
        assert main(["eval", "--instance", str(ws["inst"]),
                     "--data", str(ws["data"]), "--model", str(ws["model"]),
                     "--methods", "exhaustive,bpgnn", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("exhaustive: acc=")
        assert lines[1].startswith("bpgnn: acc=")
        rows = list(csv.reader(out.open()))
        assert rows[0][:4] == ["method", "accuracy", "rel_qubo", "elapsed_ms"]
        assert [r[0] for r in rows[1:]] == ["exhaustive", "bpgnn"]
        assert 0.0 <= float(rows[1][1]) <= 1.0

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

    @pytest.mark.parametrize("record,why", [
        ("5", "record must be a JSON object"),
        ('{"b": 3, "x": [0, 0, 0, 0], "split": "val"}', "b must be a list"),
    ])
    def test_malformed_dataset_record(self, ws, tmp_path, capsys, record, why):
        lines = ws["data"].read_text().splitlines()
        lines[3] = record
        bad = tmp_path / "data.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        err = self.eval_fails_at(ws, tmp_path, capsys, data=bad)
        assert err.startswith(f"error: {bad}:4: {why}")


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
        rows = list(csv.reader(out.open()))
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
        rows = list(csv.reader(out.open()))
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
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["method", "k", "acc_mean", "acc_std", "relqubo_mean",
                           "relqubo_std", "time_ms_mean"]
        assert len(rows) == 3 and rows[1][1] == "4"


class TestOutdirResolution:
    def test_relative_paths_land_in_outdir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QUBOLAB_OUTDIR", str(tmp_path))
        assert main(["gen-instance", "--kind", "random-dense", "--k", "4",
                     "--seed", "0", "--out", "rel.mtx"]) == 0
        capsys.readouterr()
        assert (tmp_path / "rel.mtx").exists()
        assert (tmp_path / "rel.config.json").exists()

    def test_absolute_paths_ignore_outdir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QUBOLAB_OUTDIR", str(tmp_path / "elsewhere"))
        out = tmp_path / "abs.mtx"
        assert main(["gen-instance", "--kind", "random-dense", "--k", "4",
                     "--seed", "0", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.exists()
