"""Data generator, IDX parsing, and batching tests."""

import ast
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oodkit import data
from oodkit.data import (
    SPEC_KINDS,
    BatchStream,
    Dataset,
    IdxParseError,
    check_spec,
    dataset_from_spec,
    gaussian_blobs,
    load_csv,
    load_idx,
    ood_ring,
    ood_uniform,
    split_dataset,
    write_csv,
    write_idx,
)
from oodkit.numerics import ContractViolation


class TestGaussianBlobs:
    def test_sigma_near_zero_pins_points_to_centers(self):
        ds = gaussian_blobs(classes=4, dims=2, centers_radius=4.0, sigma=1e-12,
                            n_per_class=10, seed=0)
        # nearest-center classification is exact
        angles = 2.0 * np.pi * np.arange(4) / 4
        centers = 4.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        d = np.linalg.norm(ds.inputs[:, None, :] - centers[None, :, :], axis=2)
        np.testing.assert_array_equal(d.argmin(axis=1), ds.targets)

    def test_same_seed_is_bit_identical(self):
        a = gaussian_blobs(3, 2, 4.0, 0.5, 20, seed=5)
        b = gaussian_blobs(3, 2, 4.0, 0.5, 20, seed=5)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_labels_and_shape(self):
        ds = gaussian_blobs(3, 5, 2.0, 0.3, 7, seed=1)
        assert ds.inputs.shape == (21, 5)
        assert ds.class_count == 3
        np.testing.assert_array_equal(np.bincount(ds.targets), [7, 7, 7])

    def test_oversized_count_names_kind_and_key(self):
        with pytest.raises(ContractViolation,
                           match="blobs spec key 'n_per_class' asks for more than"):
            gaussian_blobs(2, 2, 1.0, 0.5, 10**19, 0)

    def test_single_class_rejected(self):
        with pytest.raises(ContractViolation):
            gaussian_blobs(1, 2, 4.0, 0.5, 10, seed=0)


class TestOodGenerators:
    def test_uniform_stays_in_box(self):
        ds = ood_uniform(dims=3, low=-2.0, high=5.0, n=500, seed=2)
        assert ds.targets is None
        assert ds.inputs.min() >= -2.0
        assert ds.inputs.max() <= 5.0

    def test_uniform_empty(self):
        assert len(ood_uniform(2, 0.0, 1.0, 0, seed=0)) == 0

    def test_uniform_bad_bounds(self):
        with pytest.raises(ContractViolation):
            ood_uniform(2, 1.0, 1.0, 4, seed=0)

    def test_uniform_seed_determinism(self):
        a = ood_uniform(3, -1.0, 1.0, 40, seed=7)
        b = ood_uniform(3, -1.0, 1.0, 40, seed=7)
        np.testing.assert_array_equal(a.inputs, b.inputs)

    def test_ring_norms_in_annulus(self):
        ds = ood_ring(inner_radius=8.0, outer_radius=12.0, n=1000, seed=3)
        norms = np.linalg.norm(ds.inputs, axis=1)
        assert norms.min() >= 8.0
        assert norms.max() <= 12.0

    def test_ring_seed_determinism(self):
        a = ood_ring(1.0, 2.0, 50, seed=4)
        b = ood_ring(1.0, 2.0, 50, seed=4)
        np.testing.assert_array_equal(a.inputs, b.inputs)

    def test_ring_requires_2d(self):
        with pytest.raises(ContractViolation):
            ood_ring(1.0, 2.0, 10, seed=0, dims=3)

    @pytest.mark.parametrize("build", [
        lambda: ood_uniform(2, -1.0, 1.0, -3, 0),
        lambda: ood_uniform(2, -1e308, 1e308, 3, 0),
        lambda: ood_ring(1.0, 2.0, -3, 0),
        lambda: ood_ring(8.0, 1e308, 3, 0),
    ], ids=["uniform_negative_n", "uniform_overflowing_range", "ring_negative_n",
            "ring_overflowing_radius"])
    def test_bad_arguments_are_contract_violations(self, build):
        with pytest.raises(ContractViolation):
            build()

    @pytest.mark.parametrize("build, kind", [
        (lambda: ood_uniform(2, -1.0, 1.0, 10**20, 0), "uniform"),
        (lambda: ood_uniform(0, -1.0, 1.0, 10**20, 0), "uniform"),
        (lambda: ood_ring(1.0, 2.0, 10**20, 0), "ring"),
        (lambda: ood_ring(1.0, 2.0, 2**62, 0), "ring"),
    ], ids=["uniform", "uniform_zero_dims", "ring", "ring_product"])
    def test_oversized_count_names_kind_and_key(self, build, kind):
        # The count is rejected before anything is allocated.
        with pytest.raises(ContractViolation, match=f"{kind} spec key 'n' asks for more than"):
            build()


class TestIdx:
    def build_pair(self, tmp_path):
        """Two 2x2 images built byte by byte."""
        images = tmp_path / "imgs.idx3-ubyte"
        labels = tmp_path / "lbls.idx1-ubyte"
        pixels = bytes([0, 51, 102, 153, 204, 255, 0, 255])
        images.write_bytes(struct.pack(">IIII", 0x0803, 2, 2, 2) + pixels)
        labels.write_bytes(struct.pack(">II", 0x0801, 2) + bytes([7, 2]))
        return images, labels

    def test_fixture_decodes_to_known_rows(self, tmp_path):
        images, labels = self.build_pair(tmp_path)
        ds = load_idx(images, labels)
        np.testing.assert_allclose(
            ds.inputs,
            np.array([[0, 51, 102, 153], [204, 255, 0, 255]]) / 255.0)
        np.testing.assert_array_equal(ds.targets, [7, 2])

    def test_empty_file(self, tmp_path):
        images = tmp_path / "empty"
        images.write_bytes(b"")
        labels = tmp_path / "lbls"
        labels.write_bytes(struct.pack(">II", 0x0801, 0))
        with pytest.raises(IdxParseError, match="byte 0"):
            load_idx(images, labels)

    def test_bad_magic_names_offset(self, tmp_path):
        images, labels = self.build_pair(tmp_path)
        data = bytearray(images.read_bytes())
        data[3] = 0x99
        images.write_bytes(bytes(data))
        with pytest.raises(IdxParseError, match="magic"):
            load_idx(images, labels)

    def test_count_mismatch(self, tmp_path):
        images, labels = self.build_pair(tmp_path)
        labels.write_bytes(struct.pack(">II", 0x0801, 3) + bytes([7, 2, 1]))
        with pytest.raises(IdxParseError, match="do not match"):
            load_idx(images, labels)

    def test_truncated_payload(self, tmp_path):
        images, labels = self.build_pair(tmp_path)
        images.write_bytes(images.read_bytes()[:-3])
        with pytest.raises(IdxParseError, match="truncated"):
            load_idx(images, labels)

    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_header_claiming_more_than_the_file_allocates_nothing(self, tmp_path, which):
        images, labels = self.build_pair(tmp_path)
        if which == "images":  # 50 MB of pixels claimed by a 16-byte file
            images.write_bytes(struct.pack(">IIII", 0x0803, 50, 1000, 1000))
        else:
            labels.write_bytes(struct.pack(">II", 0x0801, 50_000_000))
        tracemalloc.start()
        try:
            with pytest.raises(IdxParseError, match="truncated"):
                load_idx(images, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_no_images_of_an_unindexable_size(self, tmp_path):
        images, labels = self.build_pair(tmp_path)
        images.write_bytes(struct.pack(">IIII", 0x0803, 0, 2 ** 31, 2 ** 31))
        with pytest.raises(IdxParseError, match="too large"):
            load_idx(images, labels)

    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(9)
        ds = Dataset(rng.uniform(0.0, 1.0, size=(12, 6)), rng.integers(0, 4, size=12))
        images, labels = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx(ds, images, labels)
        back = load_idx(images, labels)
        np.testing.assert_allclose(back.inputs, ds.inputs, atol=0.5 / 255.0 + 1e-12)
        np.testing.assert_array_equal(back.targets, ds.targets)

    def test_write_rejects_out_of_range(self, tmp_path):
        ds = Dataset([[1.5, 0.0]], [0])
        with pytest.raises(ContractViolation):
            write_idx(ds, tmp_path / "i", tmp_path / "l")


def split_and_batch(ds, val_fraction, batch_size, seed):
    """A validation split plus a reshuffle stream over the rest, both
    seeded by `seed`."""
    train, val = split_dataset(ds, val_fraction, seed)
    return BatchStream(train, batch_size, seed), val


class TestSplitAndBatch:
    def dataset(self, n=37):
        rng = np.random.default_rng(11)
        return Dataset(rng.standard_normal((n, 3)), rng.integers(0, 2, size=n))

    def test_zero_val_fraction_trains_everything(self):
        ds = self.dataset()
        stream, val = split_and_batch(ds, 0.0, 8, seed=0)
        assert len(val) == 0
        assert len(stream.dataset) == len(ds)

    def test_batches_cover_train_split_exactly(self):
        ds = self.dataset()
        stream, val = split_and_batch(ds, 0.25, 8, seed=1)
        batches = stream.for_epoch(4)
        rows = np.concatenate([inputs for inputs, _ in batches])
        assert len(rows) == len(stream.dataset)
        # multiset equality by sorting rows lexicographically
        np.testing.assert_array_equal(
            np.sort(rows.view([("", rows.dtype)] * 3), axis=0),
            np.sort(stream.dataset.inputs.view([("", rows.dtype)] * 3), axis=0))
        sizes = [len(targets) for _, targets in batches]
        assert sizes == [8, 8, 8, 4]  # final partial batch kept

    def test_split_is_disjoint_and_complete(self):
        ds = self.dataset()
        train, val = split_dataset(ds, 0.3, seed=2)
        assert len(train) + len(val) == len(ds)
        combined = np.concatenate([train.inputs, val.inputs])
        np.testing.assert_array_equal(
            np.sort(combined.view([("", combined.dtype)] * 3), axis=0),
            np.sort(ds.inputs.view([("", combined.dtype)] * 3), axis=0))

    def test_same_seed_same_batches(self):
        ds = self.dataset()
        a, _ = split_and_batch(ds, 0.2, 8, seed=3)
        b, _ = split_and_batch(ds, 0.2, 8, seed=3)
        for (inputs_a, targets_a), (inputs_b, targets_b) in zip(a.for_epoch(2), b.for_epoch(2)):
            np.testing.assert_array_equal(inputs_a, inputs_b)
            np.testing.assert_array_equal(targets_a, targets_b)

    def test_epochs_reshuffle(self):
        ds = self.dataset()
        stream, _ = split_and_batch(ds, 0.0, 8, seed=4)
        e1 = np.concatenate([inputs for inputs, _ in stream.for_epoch(1)])
        e2 = np.concatenate([inputs for inputs, _ in stream.for_epoch(2)])
        assert not np.array_equal(e1, e2)

    def test_zero_batch_size_rejected(self):
        with pytest.raises(ContractViolation):
            BatchStream(self.dataset(), 0, seed=0)

    def test_bad_val_fraction(self):
        with pytest.raises(ContractViolation):
            split_dataset(self.dataset(), 1.0, seed=0)


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        ds = Dataset(rng.standard_normal((9, 3)), rng.integers(0, 4, size=9))
        path = tmp_path / "data.csv"
        write_csv(ds, path)
        assert path.read_text().splitlines()[0] == "label,f0,f1,f2"
        back = load_csv(path)
        np.testing.assert_array_equal(back.inputs, ds.inputs)  # repr round-trips
        np.testing.assert_array_equal(back.targets, ds.targets)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ContractViolation, match="header"):
            load_csv(path)

    def test_field_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0,f1\n1,2.0\n")
        with pytest.raises(ContractViolation, match="fields"):
            load_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("x,1.0,2.0", "field 'label' must be int, got 'x'"),
        ("1,1.0,abc", "field 'f1' must be float, got 'abc'"),
    ], ids=["label_x", "value_abc"])
    def test_unparsable_field_names_path_line_and_field(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"label,f0,f1\n0,0.5,1.5\n{row}\n")
        with pytest.raises(ContractViolation) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:3: {message}"

    def test_non_utf8_byte_names_path_and_offset(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"label,f0,f1\n0,0.5,\xff1.5\n")
        with pytest.raises(ContractViolation) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: byte 18 is not valid UTF-8"

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"label,f0\r\n0,0.5\r\n1,1.5\r\n")
        back = load_csv(path)
        np.testing.assert_array_equal(back.inputs, [[0.5], [1.5]])
        np.testing.assert_array_equal(back.targets, [0, 1])

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_field_names_path_line_and_field(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(f"label,f0,f1\n0,0.5,1.5\n1,{text},2.0\n")
        with pytest.raises(ContractViolation) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:3: field 'f0' must be finite, got {text!r}"


class TestDatasetFromSpec:
    def test_blobs_spec(self):
        ds = dataset_from_spec({"kind": "blobs", "classes": 3, "dims": 2,
                                "centers_radius": 4.0, "sigma": 0.5,
                                "n_per_class": 5}, seed=0)
        assert len(ds) == 15

    def test_csv_spec(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(Dataset([[0.5, 1.5]], [1]), path)
        ds = dataset_from_spec({"kind": "csv", "path": str(path)}, seed=0)
        assert len(ds) == 1

    def test_unknown_kind(self):
        with pytest.raises(ContractViolation):
            dataset_from_spec({"kind": "moons"}, seed=0)

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "ring", "outer_radius": 12.0, "n": 5},
         "ring spec is missing 'inner_radius'"),
        ({"kind": "blobs", "classes": "four", "centers_radius": 4.0, "sigma": 0.5,
          "n_per_class": 5}, "blobs spec key 'classes' must be int, got 'four'"),
        ({"kind": "uniform", "low": None, "high": 1.0, "n": 5},
         "uniform spec key 'low' must be float, got None"),
        ({"kind": "csv"}, "csv spec is missing 'path'"),
    ])
    def test_missing_or_malformed_key_names_kind_and_key(self, spec, message):
        with pytest.raises(ContractViolation) as info:
            dataset_from_spec(spec, seed=0)
        assert str(info.value) == message

    def test_heldout_spec_builds_nothing_on_its_own(self):
        with pytest.raises(ContractViolation, match="train_classes"):
            dataset_from_spec({"kind": "heldout"}, seed=0)


RING = {"kind": "ring", "inner_radius": 8.0, "outer_radius": 12.0, "n": 5}


class TestCheckSpec:
    def test_fills_defaults_and_drops_name_and_train_classes(self):
        assert check_spec({**RING, "name": "r"}) == {
            "inner_radius": 8.0, "outer_radius": 12.0, "n": 5, "dims": 2}
        assert check_spec({"kind": "blobs", "classes": 4, "centers_radius": 4,
                           "sigma": 1, "n_per_class": 3, "train_classes": 2}) == {
            "classes": 4, "dims": 2, "centers_radius": 4.0, "sigma": 1.0, "n_per_class": 3}

    def test_every_kind_has_a_builder_and_typed_keys(self):
        assert set(SPEC_KINDS) == {"blobs", "uniform", "ring", "idx", "csv", "heldout"}
        for builder, keys in SPEC_KINDS.values():
            assert callable(builder)
            assert all(json_type in (int, float, str) for json_type, _ in keys.values())

    @pytest.mark.parametrize("spec, message", [
        ({**RING, "dim": 3}, "unknown ring spec keys: ['dim']"),
        ({**RING, "kind": []}, "unknown data spec kind []"),
        ({**RING, "kind": {}}, "unknown data spec kind {}"),
        ({**RING, "kind": None}, "unknown data spec kind None"),
        ({**RING, "n": 5.5}, "ring spec key 'n' must be int, got 5.5"),
        ({**RING, "n": "5"}, "ring spec key 'n' must be int, got '5'"),
        ({**RING, "n": True}, "ring spec key 'n' must be int, got True"),
        ({**RING, "n": -1}, "ring spec key 'n' must be nonnegative, got -1"),
        ({**RING, "inner_radius": float("nan")},
         "ring spec key 'inner_radius' must be float, got nan"),
        ({**RING, "outer_radius": float("inf")},
         "ring spec key 'outer_radius' must be float, got inf"),
        ({**RING, "inner_radius": -float("inf")},
         "ring spec key 'inner_radius' must be float, got -inf"),
        ({**RING, "inner_radius": 0}, "ring spec key 'inner_radius' must be positive, got 0"),
        ({**RING, "dims": 0}, "ring spec key 'dims' must be positive, got 0"),
        ({**RING, "name": 3}, "ring spec key 'name' must be str, got 3"),
        ({"kind": "idx", "images": "a"}, "idx spec is missing 'labels'"),
        ({"kind": "csv", "path": 1}, "csv spec key 'path' must be str, got 1"),
        ({"kind": "heldout", "n": 3}, "unknown heldout spec keys: ['n']"),
    ], ids=["unknown_key", "list_kind", "object_kind", "null_kind", "float_count",
            "string_count", "bool_count", "negative_count", "nan", "inf", "minus_inf",
            "zero_radius", "zero_dims", "int_name", "missing_labels", "int_path",
            "heldout_with_n"])
    def test_rejects_naming_kind_and_key(self, spec, message):
        with pytest.raises(ContractViolation) as info:
            check_spec(spec)
        assert str(info.value) == message

    @pytest.mark.parametrize("spec, key", [
        ({**RING, "n": 10**20}, "'n'"),
        ({"kind": "uniform", "low": 0.0, "high": 1.0, "n": 2**62}, "'n'"),
        ({"kind": "blobs", "classes": 4, "centers_radius": 4.0, "sigma": 1.0,
          "n_per_class": 2**61}, "'n_per_class'"),
    ], ids=["ring", "uniform_product", "blobs_product"])
    def test_rejects_a_set_too_large_to_index(self, spec, key):
        with pytest.raises(ContractViolation,
                           match=f"{spec['kind']} spec key {key} asks for more than "
                                 f"{np.iinfo(np.intp).max} elements"):
            check_spec(spec)
        check_spec({**spec, key.strip("'"): 5})


class TestDataset:
    @pytest.mark.parametrize("targets", [[0.5, 1.5], [0.0, np.nan], [np.inf, 1.0],
                                         [0.0, -np.inf]], ids=["fraction", "nan", "inf", "-inf"])
    def test_non_integer_targets_rejected(self, targets):
        with pytest.raises(ContractViolation, match="targets must be whole numbers"):
            Dataset(np.zeros((2, 2)), targets)

    def test_whole_valued_float_targets_pass(self):
        targets = Dataset(np.zeros((2, 2)), [1.0, 0.0]).targets
        assert targets.dtype == np.int64
        np.testing.assert_array_equal(targets, [1, 0])


def test_data_imports_no_oodkit_module_but_numerics():
    # data sits below heads and model: a batch is an (inputs, targets) pair.
    tree = ast.parse(Path(data.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            imported |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("oodkit"):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.startswith("oodkit")}
    assert imported == {"numerics"}
