"""Observation-solution pair factory: barrier inversion, noise, label
refinement, splits, and the JSONL round trip."""

from __future__ import annotations

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from qubolab import (DataGenParams, DataPair, Dataset, TabuParams,
                     barrier_observed_vector, exhaustive_solve,
                     gen_lattice_laplacian, gen_random_dense, generate_dataset,
                     generate_pair, read_dataset, tabu_solve, write_dataset)
from qubolab.datagen import draw_near_binary


class TestParams:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            DataGenParams(sigma=-0.1)

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError, match="mu"):
            DataGenParams(mu=0.0)

    def test_rejects_eps_outside_open_interval(self):
        with pytest.raises(ValueError, match="eps_bin"):
            DataGenParams(eps_bin=0.5)

    def test_rejects_negative_refine_budget(self):
        with pytest.raises(ValueError, match="refine_steps"):
            DataGenParams(refine_steps=-1)

    @pytest.mark.parametrize("kwargs,msg", [
        (dict(sigma=float("nan")), "sigma must be >= 0"),
        (dict(sigma=float("inf")), "sigma must be >= 0"),
        (dict(mu=float("nan")), "mu must be positive"),
        (dict(mu=float("inf")), "mu must be positive"),
    ])
    def test_rejects_non_finite_knobs(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            DataGenParams(**kwargs)


class TestBarrierInversion:
    def test_near_binary_draw_hits_both_corners(self):
        x = draw_near_binary(np.random.default_rng(0), 200, 1e-3)
        assert set(np.round(x, 6)) == {0.001, 0.999}

    def test_stationarity_of_the_relaxed_point(self):
        # b is constructed so the barrier-relaxation gradient at x_o is zero.
        inst = gen_random_dense(8, 4)
        x_o = draw_near_binary(np.random.default_rng(1), 8, 1e-3)
        mu = 1e-3
        b = barrier_observed_vector(inst, x_o, mu)
        grad = (inst.a_sym_csr @ x_o) + b - mu / x_o + mu / (1.0 - x_o)
        assert grad == pytest.approx(np.zeros(8), abs=1e-9)

    def test_rejects_points_on_the_boundary(self):
        inst = gen_random_dense(3, 0)
        with pytest.raises(ValueError, match="strictly inside"):
            barrier_observed_vector(inst, [0.0, 0.5, 0.5], 1e-3)

    def test_rejects_wrong_length(self):
        inst = gen_random_dense(3, 0)
        with pytest.raises(ValueError, match="shape"):
            barrier_observed_vector(inst, [0.5, 0.5], 1e-3)


def per_pair_reference(instance, params, pair_seed) -> DataPair:
    """Reference factory that builds one pair alone: draw, barrier b_o of
    the (k,) point, noise, round, and one tabu_solve polish with both the
    budget and the tenure set to refine_steps."""
    rng = np.random.default_rng(pair_seed)
    x_o = draw_near_binary(rng, instance.k, params.eps_bin)
    b_o = barrier_observed_vector(instance, x_o, params.mu)
    z = rng.standard_normal(instance.k)
    b = b_o + params.sigma ** 2 * z
    rounded = (x_o > 0.5).astype(np.int8)
    steps = params.refine_steps
    result = tabu_solve(instance, b, TabuParams(max_steps=steps, tabu_tenure=steps), rounded)
    flips = int(np.count_nonzero(result.x_best != rounded))
    return DataPair(b=b, x=result.x_best, provenance={
        "seed": int(pair_seed),
        "sigma": float(params.sigma),
        "refined": flips > 0,
        "f_value": float(result.f_best),
        "flips": flips,
    })


def assert_same_pair(got: DataPair, want: DataPair):
    assert got.b.tobytes() == want.b.tobytes()
    assert got.x.tobytes() == want.x.tobytes()
    # repr compares the float f_value bit for bit
    assert repr(got.provenance) == repr(want.provenance)


class TestGeneratePair:
    def test_same_seed_reproduces_the_pair(self):
        inst = gen_random_dense(8, 2)
        params = DataGenParams(sigma=0.5, seed=0)
        a = generate_pair(inst, params, pair_seed=99)
        b = generate_pair(inst, params, pair_seed=99)
        assert a == b
        assert a != generate_pair(inst, params, pair_seed=100)

    def test_noiseless_labels_are_global_optima(self):
        params = DataGenParams(sigma=0.0)
        for t in range(20):
            inst = gen_random_dense(10, 20 + t, scale=0.2)
            pair = generate_pair(inst, params, pair_seed=t)
            opt = exhaustive_solve(inst, pair.b)
            assert np.array_equal(pair.x, opt.x_best)

    def test_provenance_names_the_lineage(self):
        inst = gen_random_dense(6, 3)
        pair = generate_pair(inst, DataGenParams(sigma=1.0), pair_seed=7)
        prov = pair.provenance
        assert prov["seed"] == 7
        assert prov["sigma"] == 1.0
        assert prov["flips"] >= 0
        assert prov["refined"] == (prov["flips"] > 0)
        assert prov["f_value"] == pytest.approx(inst.evaluate(pair.b, pair.x))

    def test_zero_refinement_keeps_the_rounded_draw(self):
        inst = gen_random_dense(6, 3)
        params = DataGenParams(sigma=0.0, refine_steps=0)
        pair = generate_pair(inst, params, pair_seed=11)
        x_o = draw_near_binary(np.random.default_rng(11), 6, params.eps_bin)
        assert np.array_equal(pair.x, (x_o > 0.5).astype(np.int8))
        assert pair.provenance["flips"] == 0

    @pytest.mark.parametrize("sigma,refine_steps", [(0.0, 10), (0.7, 10), (2.0, 0),
                                                    (2.0, 3), (2.0, 60)])
    def test_matches_the_per_pair_reference(self, sigma, refine_steps):
        params = DataGenParams(sigma=sigma, refine_steps=refine_steps)
        for inst in (gen_random_dense(10, 4, scale=0.2), gen_lattice_laplacian(4)):
            for pair_seed in range(6):
                assert_same_pair(generate_pair(inst, params, pair_seed),
                                 per_pair_reference(inst, params, pair_seed))


class TestGenerateDataset:
    def test_split_sizes_follow_the_fractions(self):
        inst = gen_random_dense(6, 0)
        ds = generate_dataset(inst, 50, DataGenParams(seed=1), split=(0.8, 0.2))
        assert len(ds) == 50
        assert len(ds.indices("train")) == 40
        assert len(ds.indices("val")) == 10

    def test_pair_seeds_are_seed_shifted_past_the_index(self):
        inst = gen_random_dense(6, 0)
        params = DataGenParams(sigma=0.3, seed=5)
        ds = generate_dataset(inst, 4, params)
        for index in range(4):
            assert ds.pairs[index].provenance["seed"] == (5 << 32) | index
            assert_same_pair(ds.pairs[index],
                             per_pair_reference(inst, params, (5 << 32) | index))

    def test_datasets_with_adjacent_seeds_share_no_pair(self):
        inst = gen_random_dense(6, 0)
        a = generate_dataset(inst, 8, DataGenParams(sigma=0.3, seed=0))
        b = generate_dataset(inst, 8, DataGenParams(sigma=0.3, seed=1))
        assert not {p["seed"] for p in a.provenance} & {p["seed"] for p in b.provenance}
        assert not {row.tobytes() for row in a.b} & {row.tobytes() for row in b.b}

    def test_split_assignment_is_shuffled_but_deterministic(self):
        inst = gen_random_dense(6, 0)
        a = generate_dataset(inst, 30, DataGenParams(seed=2))
        b = generate_dataset(inst, 30, DataGenParams(seed=2))
        assert np.array_equal(a.split, b.split)
        # a sorted prefix split would put every train tag first
        assert list(a.split) != sorted(a.split, reverse=True)

    def test_instance_ref_defaults_to_lineage(self):
        inst = gen_random_dense(6, 9)
        ds = generate_dataset(inst, 2, DataGenParams(seed=0))
        assert ds.instance_ref == "random_dense:k=6:seed=9"

    def test_rejects_bad_split_fractions(self):
        inst = gen_random_dense(6, 0)
        with pytest.raises(ValueError, match="sum to 1"):
            generate_dataset(inst, 4, DataGenParams(), split=(0.8, 0.1))

    def test_rejects_a_train_fraction_outside_the_unit_interval(self):
        inst = gen_random_dense(6, 0)
        with pytest.raises(ValueError, match=r"train fraction must lie in \[0, 1\], got 1.5"):
            generate_dataset(inst, 4, DataGenParams(), split=(1.5, -0.5))

    def test_rejects_empty_request(self):
        inst = gen_random_dense(6, 0)
        with pytest.raises(ValueError, match="n_pairs"):
            generate_dataset(inst, 0, DataGenParams())

    def test_matrix_views_follow_the_split(self):
        inst = gen_random_dense(6, 0)
        ds = generate_dataset(inst, 10, DataGenParams(seed=3))
        b_train = ds.b_matrix("train")
        assert b_train.shape == (len(ds.indices("train")), 6)
        assert ds.x_matrix().shape == (10, 6)


class TestDatasetPersistence:
    def make(self) -> Dataset:
        inst = gen_random_dense(5, 8)
        return generate_dataset(inst, 12, DataGenParams(sigma=0.4, seed=6))

    def test_round_trip_preserves_everything(self, tmp_path):
        ds = self.make()
        path = tmp_path / "data.jsonl"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert back == ds
        assert (back.b.tobytes(), back.x.tobytes()) == (ds.b.tobytes(), ds.x.tobytes())

    def test_write_is_byte_deterministic(self, tmp_path):
        ds = self.make()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(ds, p1)
        write_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_validates_instance_size(self, tmp_path):
        ds = self.make()
        path = tmp_path / "data.jsonl"
        write_dataset(ds, path)
        other = gen_random_dense(7, 0)
        with pytest.raises(ValueError, match="does not match instance"):
            read_dataset(path, instance=other)

    def test_a_raw_line_separator_in_a_string_ends_no_record(self, tmp_path):
        # A JSON Lines record ends at \n only; JSON strings may hold these raw.
        ds = self.make()
        path = tmp_path / "data.jsonl"
        write_dataset(ds, path)
        header, first, *rest = path.read_text().split("\n")
        record = json.loads(first)
        record["provenance"]["note"] = "a\u2028b\u2029c\x85d"
        line = json.dumps(record, ensure_ascii=False)
        assert "\u2028" in line
        path.write_text("\n".join([header, line, *rest]), encoding="utf-8")
        back = read_dataset(path)
        ds.provenance[0]["note"] = "a\u2028b\u2029c\x85d"
        assert back == ds

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            read_dataset(path)

    def test_bool_header_size_is_rejected(self, tmp_path):
        # bool is an int subclass, so k = true would read as a size of 1
        path = tmp_path / "data.jsonl"
        path.write_text('{"k": true}\n{"b": [0.0], "x": [0], "split": "train"}\n')
        with pytest.raises(ValueError, match=r"data\.jsonl:1: header k must be "
                                             r"a positive integer, got True"):
            read_dataset(path)

    @pytest.mark.parametrize("text,line", [
        ('{"k": ' + "[" * 100_000 + "\n", 1),
        ('{"k": 1}\n' + '{"b": ' * 100_000 + "\n", 2),
    ], ids=["header", "record"])
    def test_deep_nesting_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "data.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"data\.jsonl:{line}: invalid JSON.*recursion"):
            read_dataset(path)

    def test_bad_record_names_its_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"k": 2}\n{"b": [0.0, 0.0], "x": [0, 1]}\n')
        with pytest.raises(ValueError, match=r"data\.jsonl:2.*split"):
            read_dataset(path)

    def test_length_mismatch_names_its_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"k": 2}\n{"b": [0.0], "x": [0, 1], "split": "train"}\n'
        )
        with pytest.raises(ValueError, match=r"data\.jsonl:2.*length 1"):
            read_dataset(path)

    def test_non_binary_label_names_its_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"k": 2}\n{"b": [0.0, 0.0], "x": [0, 2], "split": "val"}\n'
        )
        with pytest.raises(ValueError, match=r"data\.jsonl:2"):
            read_dataset(path)

    def test_each_record_line_is_decoded_once(self, tmp_path):
        header = '{"k": 2}'
        records = [json.dumps({"b": [0.5, -1.0], "x": [i % 2, 1], "split": "train"})
                   for i in range(6)]
        path = tmp_path / "data.jsonl"
        # Blank lines are skipped, not decoded.
        path.write_text("\n".join([header, *records[:2], "", "  ", *records[2:]]) + "\n")
        with mock.patch("json.loads", wraps=json.loads) as loads:
            assert len(read_dataset(path)) == 6
        assert loads.call_count == 1 + 6
        # Refused at line j: the header, then lines 2 to j.
        j = 5
        lines = [header, *records]
        lines[j - 1] = '{"b": [0.5], "x": [0, 1], "split": "val"}'
        path.write_text("\n".join(lines) + "\n")
        with mock.patch("json.loads", wraps=json.loads) as loads:
            with pytest.raises(ValueError, match=rf"data\.jsonl:{j}: b has length 1"):
                read_dataset(path)
        assert loads.call_count == 1 + (j - 1)

    @pytest.mark.parametrize("key,value,why", [
        ("b", [0.0, float("inf")], "observed vector contains NaN or Inf entries"),
        ("x", [0, 2], "assignment entries must be exactly 0 or 1"),
        ("split", "test", "split must be 'train' or 'val', got 'test'"),
    ])
    def test_value_refusal_names_the_line_of_its_first_pair(self, tmp_path, key, value, why):
        records = [{"b": [0.5, -1.0], "x": [0, 1], "split": "val"} for _ in range(4)]
        for bad in records[2:]:
            bad[key] = value
        text = [json.dumps(record) for record in records]
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(['{"k": 2}', text[0], "", text[1], " ", *text[2:]]) + "\n")
        with pytest.raises(ValueError) as err:
            read_dataset(path)
        assert str(err.value) == f"{path}:6: {why}"

    @pytest.mark.parametrize("tag,shown", [
        ("5", "5"), ("null", "None"), ('["val"]', "['val']"), ("1.5", "1.5"),
        ("true", "True"), ('"holdout"', "'holdout'"), ('"train\\u0000"', "'train\\x00'"),
    ])
    def test_split_refusal_shows_the_tag_as_given(self, tmp_path, tag, shown):
        path = tmp_path / "data.jsonl"
        path.write_text('{"k": 1}\n{"b": [0.0], "x": [0], "split": ' + tag + "}\n")
        with pytest.raises(ValueError) as err:
            read_dataset(path)
        assert str(err.value) == f"{path}:2: split must be 'train' or 'val', got {shown}"

    def test_unknown_split_tag_is_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"k": 2}\n{"b": [0.0, 0.0], "x": [0, 1], "split": "test"}\n'
        )
        with pytest.raises(ValueError, match="train.*val"):
            read_dataset(path)


class TestDatasetType:
    def test_rejects_mismatched_split_list(self):
        with pytest.raises(ValueError, match="split tags"):
            Dataset(instance_ref="", k=2, params={}, b=np.zeros((1, 2)),
                    x=np.zeros((1, 2)), split=[])

    def test_rejects_unknown_tags(self):
        with pytest.raises(ValueError, match="'train' or 'val'"):
            Dataset(instance_ref="", k=2, params={}, b=np.zeros((1, 2)),
                    x=np.zeros((1, 2)), split=["holdout"])

    def test_rejects_tags_that_numpy_strings_would_rewrite(self):
        # np.array(["train\0"], dtype=str) holds "train"
        with pytest.raises(ValueError, match=r"'train' or 'val', got 'train\\x00'"):
            Dataset(instance_ref="", k=2, params={}, b=np.zeros((1, 2)),
                    x=np.zeros((1, 2)), split=["train\0"])

    def test_columns_are_checked_copies(self):
        b = np.arange(6.0).reshape(3, 2)
        x = np.asfortranarray([[0, 1], [1, 1], [0, 0]])
        ds = Dataset(instance_ref="r", k=2, params={}, b=b, x=x, split=["train", "val", "val"])
        assert ds.b.dtype == np.float64 and ds.x.dtype == np.int8
        assert ds.b.flags.c_contiguous and ds.x.flags.c_contiguous
        assert not np.shares_memory(ds.b, b) and not ds.b.flags.writeable
        assert ds.provenance == [{}, {}, {}]
        assert ds.indices("val").tolist() == [1, 2]
        assert ds.b_matrix("val").tolist() == [[2.0, 3.0], [4.0, 5.0]]
        assert ds.x_matrix("train").tolist() == [[0, 1]]

    @pytest.mark.parametrize("kwargs,message", [
        (dict(b=np.zeros((2, 3))), r"b has shape \(2, 3\), expected \(n, 2\)"),
        (dict(x=np.zeros((2, 3))), r"x has shape \(2, 3\), expected \(2, 2\)"),
        (dict(b=[[0.0, np.nan], [0.0, 0.0]]), "observed vector contains NaN or Inf"),
        (dict(x=[[0, 2], [0, 1]]), "assignment entries must be exactly 0 or 1"),
        (dict(provenance=[{}]), "provenance must be 2 dicts"),
        (dict(provenance=[{}, 5]), "provenance must be 2 dicts"),
    ])
    def test_rejects_bad_columns(self, kwargs, message):
        columns = dict(b=np.zeros((2, 2)), x=np.zeros((2, 2)), split=["val", "val"])
        with pytest.raises(ValueError, match=message):
            Dataset(instance_ref="", k=2, params={}, **(columns | kwargs))

    @pytest.mark.parametrize("key,value", [
        ("b", [0.0, float("nan")]), ("x", [0, 2]), ("split", "holdout"),
    ])
    def test_refusal_text_is_the_readers(self, tmp_path, key, value):
        record = {"b": [0.5, -1.0], "x": [0, 1], "split": "val"} | {key: value}
        columns = {"b": [record["b"]], "x": [record["x"]], "split": [record["split"]]}
        with pytest.raises(ValueError) as built:
            Dataset(instance_ref="", k=2, params={}, **columns)
        path = tmp_path / "data.jsonl"
        path.write_text('{"k": 2}\n' + json.dumps(record) + "\n")
        with pytest.raises(ValueError) as read:
            read_dataset(path)
        assert str(read.value) == f"{path}:2: {built.value}"

    def test_is_not_equal_to_another_type(self):
        ds = Dataset(instance_ref="", k=1, params={}, b=[[0.0]], x=[[1]], split=["val"])
        assert (ds == object()) is False

    def test_pairs_are_read_only_row_views(self):
        ds = generate_dataset(gen_random_dense(5, 8), 6, DataGenParams(sigma=0.4, seed=6))
        assert len(ds.pairs) == 6 and ds.pairs is ds.pairs
        for i, pair in enumerate(ds.pairs):
            assert np.shares_memory(pair.b, ds.b) and not pair.b.flags.writeable
            assert pair == DataPair(ds.b[i], ds.x[i], ds.provenance[i])
        assert ds.pairs[-1] == ds.pairs[5]
        assert ds.pairs[np.int64(2)] == ds.pairs[2]
        with pytest.raises(IndexError):
            ds.pairs[6]


def per_pair_writer(dataset: Dataset, path):
    """Reference writer that encodes one pair at a time from its row."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"k": dataset.k, "instance": dataset.instance_ref,
                             "params": dataset.params}) + "\n")
        for pair, split in zip(dataset.pairs, dataset.split):
            fh.write(json.dumps({"b": [float(v) for v in pair.b],
                                 "x": [int(v) for v in pair.x],
                                 "split": str(split), "provenance": pair.provenance}) + "\n")


class TestColumnarPersistence:
    def test_write_matches_the_per_pair_writer(self, tmp_path):
        inst = gen_random_dense(7, 3)
        ds = generate_dataset(inst, 30, DataGenParams(sigma=0.9, seed=4))
        # signed zeros, subnormals and the extremes of float64 keep their text
        b = ds.b.copy()
        b[0, :4] = [-0.0, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308]
        ds = Dataset(ds.instance_ref, ds.k, ds.params, b, ds.x, ds.split, ds.provenance)
        write_dataset(ds, tmp_path / "bulk.jsonl")
        per_pair_writer(ds, tmp_path / "loop.jsonl")
        assert (tmp_path / "bulk.jsonl").read_bytes() == (tmp_path / "loop.jsonl").read_bytes()
        back = read_dataset(tmp_path / "bulk.jsonl")
        assert back.b.tobytes() == b.tobytes()

    def test_memory_does_not_grow_with_the_pairs(self, tmp_path):
        # At k=400 the records go out 8192 // 400 = 20 at a time.
        peaks = {}
        for n in (100, 1000):
            rng = np.random.default_rng(n)
            ds = Dataset("ref", 400, {}, rng.normal(size=(n, 400)),
                         rng.integers(0, 2, size=(n, 400)), ["train", "val"] * (n // 2),
                         [{"pair_seed": i} for i in range(n)])
            tracemalloc.start()
            try:
                write_dataset(ds, tmp_path / "bulk.jsonl")
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # Ten times the pairs; all records at once would be ten times the peak.
        assert peaks[1000] <= 1.5 * peaks[100], peaks
        per_pair_writer(ds, tmp_path / "loop.jsonl")
        assert (tmp_path / "bulk.jsonl").read_bytes() == (tmp_path / "loop.jsonl").read_bytes()

    def test_missing_provenance_reads_and_writes_as_empty(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"k": 2}\n{"b": [0.5, 1], "x": [1.0, 0], "split": "val"}\n')
        ds = read_dataset(path)
        assert ds.provenance == [{}] and ds.x.tolist() == [[1, 0]]
        assert (ds.instance_ref, ds.params) == ("", {})
        write_dataset(ds, path)
        assert path.read_text().splitlines()[1] == (
            '{"b": [0.5, 1.0], "x": [1, 0], "split": "val", "provenance": {}}')

    def test_header_only_file_is_an_empty_dataset(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"k": 3}\n\n')
        ds = read_dataset(path)
        assert len(ds) == 0 and ds.b.shape == (0, 3) and ds.x.shape == (0, 3)
        with pytest.raises(ValueError, match=r"data\.jsonl:2: no 'train' pairs"):
            read_dataset(path, split="train")
