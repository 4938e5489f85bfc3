"""Data generator, IDX parsing, and batching tests."""

import struct

import numpy as np
import pytest

from oodkit.data import (
    BatchStream,
    Dataset,
    IdxParseError,
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
        rows = np.concatenate([b.features for b in batches])
        assert len(rows) == len(stream.dataset)
        # multiset equality by sorting rows lexicographically
        np.testing.assert_array_equal(
            np.sort(rows.view([("", rows.dtype)] * 3), axis=0),
            np.sort(stream.dataset.inputs.view([("", rows.dtype)] * 3), axis=0))
        sizes = [len(b.targets) for b in batches]
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
        for ba, bb in zip(a.for_epoch(2), b.for_epoch(2)):
            np.testing.assert_array_equal(ba.features, bb.features)
            np.testing.assert_array_equal(ba.targets, bb.targets)

    def test_epochs_reshuffle(self):
        ds = self.dataset()
        stream, _ = split_and_batch(ds, 0.0, 8, seed=4)
        e1 = np.concatenate([b.features for b in stream.for_epoch(1)])
        e2 = np.concatenate([b.features for b in stream.for_epoch(2)])
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
