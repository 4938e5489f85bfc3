"""Synthetic data generators, IDX file ingestion, and seeded batching.

Every generator is a pure function of its parameters and seed, so a
dataset can always be regenerated bit for bit.
"""

from __future__ import annotations

import io
import math
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .numerics import ContractViolation, as_labels, as_matrix

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801
SPLIT_STREAM = 0


class IdxParseError(ValueError):
    """An IDX file did not match the expected binary layout."""


@dataclass
class Dataset:
    """Input rows with optional integer labels and a provenance tag."""

    inputs: np.ndarray
    targets: np.ndarray | None = None
    provenance: str = ""

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.inputs.ndim != 2:
            raise ContractViolation(f"inputs must be 2-D, got shape {self.inputs.shape}")
        if self.targets is not None:
            self.targets = as_labels(self.targets)
            if len(self.targets) != len(self.inputs):
                raise ContractViolation("targets length must match input rows")
            if len(self.targets) and self.targets.min() < 0:
                raise ContractViolation("targets must be nonnegative")

    def __len__(self) -> int:
        return len(self.inputs)

    @property
    def class_count(self) -> int:
        if self.targets is None or len(self.targets) == 0:
            return 0
        return int(self.targets.max()) + 1

    def subset(self, index) -> "Dataset":
        targets = None if self.targets is None else self.targets[index]
        return Dataset(self.inputs[index], targets, self.provenance)


def _class_centers(classes: int, dims: int, radius: float,
                   rng: np.random.Generator) -> np.ndarray:
    if dims == 2:
        # Deterministic placement, evenly spaced on the circle.
        angles = 2.0 * np.pi * np.arange(classes) / classes
        return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # Higher dimensions: seeded random directions, near-orthogonal once
    # dims grows, each scaled to the requested radius.
    dirs = rng.standard_normal((classes, dims))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return radius * dirs


# kind -> (the spec key that sets the set's size, the keys whose values
# are the dimensions of its largest array).
SIZE_KEYS = {"blobs": ("n_per_class", ("classes", "n_per_class", "dims")),
             "uniform": ("n", ("n", "dims")), "ring": ("n", ("n", "dims"))}


def _check_size(kind: str, args: dict):
    """Reject a set whose arrays numpy cannot index, before any is built;
    the sizes multiply as Python ints, which cannot overflow."""
    key, keys = SIZE_KEYS[kind]
    sizes = [int(args[k]) for k in keys]
    limit = np.iinfo(np.intp).max
    if max(*sizes, math.prod(sizes)) > limit:
        raise ContractViolation(f"{kind} spec key {key!r} asks for more than {limit} "
                                f"elements, got {args[key]}")


def gaussian_blobs(classes: int, dims: int, centers_radius: float, sigma: float,
                   n_per_class: int, seed) -> Dataset:
    """Labeled isotropic Gaussian clusters around evenly placed centers."""
    if classes < 2:
        raise ContractViolation("gaussian_blobs needs at least 2 classes")
    if sigma <= 0:
        raise ContractViolation("sigma must be positive")
    if dims < 1 or n_per_class < 1:
        raise ContractViolation("dims and n_per_class must be positive")
    _check_size("blobs", {"classes": classes, "n_per_class": n_per_class, "dims": dims})
    rng = np.random.default_rng(seed)
    centers = _class_centers(classes, dims, centers_radius, rng)
    inputs = np.repeat(centers, n_per_class, axis=0)
    inputs = inputs + sigma * rng.standard_normal(inputs.shape)
    targets = np.repeat(np.arange(classes), n_per_class)
    tag = (f"blobs(classes={classes}, dims={dims}, radius={centers_radius}, "
           f"sigma={sigma}, n_per_class={n_per_class})")
    return Dataset(inputs, targets, tag)


def ood_uniform(dims: int, low: float, high: float, n: int, seed) -> Dataset:
    """Unlabeled i.i.d. uniform samples over the box [low, high]^dims."""
    if not (low < high and math.isfinite(high - low)):
        raise ContractViolation(f"need low < high with a finite high - low, got [{low}, {high}]")
    if dims < 0 or n < 0:
        raise ContractViolation("dims and n must be nonnegative")
    _check_size("uniform", {"n": n, "dims": dims})
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(low, high, size=(n, dims))
    return Dataset(inputs, None, f"uniform(low={low}, high={high}, n={n})")


def ood_ring(inner_radius: float, outer_radius: float, n: int, seed,
             dims: int = 2) -> Dataset:
    """Unlabeled samples uniform over a 2-D annulus.

    Drawn by the polar transform: angle uniform on [0, 2 pi), radius as
    sqrt of a uniform draw between the squared radii, which is
    area-uniform over the annulus.
    """
    if dims != 2:
        raise ContractViolation("ood_ring only supports dims=2")
    if not (0 < inner_radius < outer_radius) or math.isinf(outer_radius * outer_radius):
        raise ContractViolation("need 0 < inner_radius < outer_radius with a finite "
                                "outer_radius ** 2")
    if n < 0:
        raise ContractViolation("n must be nonnegative")
    _check_size("ring", {"n": n, "dims": dims})
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    radius = np.sqrt(rng.uniform(inner_radius ** 2, outer_radius ** 2, size=n))
    inputs = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
    return Dataset(inputs, None, f"ring(inner={inner_radius}, outer={outer_radius}, n={n})")


def _read_exact(f, count: int, offset: int, path: str) -> bytes:
    # Checked against the file size first, so a header that claims more
    # than the file holds never becomes a huge allocation.
    available = max(os.fstat(f.fileno()).st_size - offset, 0)
    if count > available:
        raise IdxParseError(
            f"{path}: truncated, wanted {count} bytes at byte {offset}, got {available}")
    return f.read(count)


def load_idx(images_path, labels_path) -> Dataset:
    """Read an IDX image/label file pair into a flat, unit-scaled dataset.

    Pixels are scaled to [0, 1] and flattened row-major; labels pair by
    index. Big-endian headers, unsigned-byte payloads, magic 0x0803 for
    images and 0x0801 for labels.
    """
    images_path, labels_path = str(images_path), str(labels_path)
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(
            ">IIII", _read_exact(f, 16, 0, images_path))
        if magic != IMAGES_MAGIC:
            raise IdxParseError(
                f"{images_path}: bad magic 0x{magic:08x} at byte 0, "
                f"expected 0x{IMAGES_MAGIC:08x}")
        # numpy cannot shape even zero images of this size
        if rows * cols * 8 > np.iinfo(np.intp).max:
            raise IdxParseError(f"{images_path}: {rows} x {cols} images are too large")
        payload = _read_exact(f, count * rows * cols, 16, images_path)
        if f.read(1):
            raise IdxParseError(f"{images_path}: trailing bytes after byte {16 + len(payload)}")
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    inputs = pixels.reshape(count, rows * cols)

    with open(labels_path, "rb") as f:
        magic, label_count = struct.unpack(">II", _read_exact(f, 8, 0, labels_path))
        if magic != LABELS_MAGIC:
            raise IdxParseError(
                f"{labels_path}: bad magic 0x{magic:08x} at byte 0, "
                f"expected 0x{LABELS_MAGIC:08x}")
        label_bytes = _read_exact(f, label_count, 8, labels_path)
        if f.read(1):
            raise IdxParseError(f"{labels_path}: trailing bytes after byte {8 + label_count}")
    if label_count != count:
        raise IdxParseError(
            f"{labels_path}: {label_count} labels do not match {count} images")
    targets = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.int64)
    return Dataset(inputs, targets, f"idx({images_path}, {labels_path})")


def write_idx(ds: Dataset, images_path, labels_path):
    """Write a labeled dataset as an IDX pair, quantizing inputs to bytes.

    Inputs must already lie in [0, 1]; each row is stored as a 1 x d
    image. Rounding to 8 bits bounds the round-trip error by 0.5 / 255.
    """
    if ds.targets is None:
        raise ContractViolation("write_idx needs a labeled dataset")
    inputs = as_matrix(ds.inputs, "inputs")
    if inputs.min() < 0.0 or inputs.max() > 1.0:
        raise ContractViolation("write_idx expects inputs scaled to [0, 1]")
    if ds.targets.max() > 255:
        raise ContractViolation("IDX labels are single bytes; targets must be < 256")
    n, d = inputs.shape
    pixels = np.rint(inputs * 255.0).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGES_MAGIC, n, 1, d))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", LABELS_MAGIC, n))
        f.write(ds.targets.astype(np.uint8).tobytes())


def _csv_field(path: str, line_no: int, column: str, text: str, convert):
    try:
        value = convert(text)
    except ValueError:
        raise ContractViolation(f"{path}:{line_no}: field {column!r} must be "
                                f"{convert.__name__}, got {text!r}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ContractViolation(f"{path}:{line_no}: field {column!r} must be finite, "
                                f"got {text!r}")
    return value


def load_csv(path) -> Dataset:
    """Read a labeled tabular dataset with header label,f0,f1,...

    Labels sit in the first column; the remaining columns are float
    features in order.
    """
    path = str(path)
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ContractViolation(f"{path}: byte {exc.start} is not valid UTF-8") from None
    with io.StringIO(text, newline=None) as f:
        header = f.readline().strip()
        columns = header.split(",")
        if len(columns) < 2 or columns[0] != "label":
            raise ContractViolation(
                f"{path}: expected header label,f0,f1,..., got {header!r}")
        rows, labels = [], []
        for line_no, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(columns):
                raise ContractViolation(
                    f"{path}:{line_no}: expected {len(columns)} fields, got {len(parts)}")
            labels.append(_csv_field(path, line_no, columns[0], parts[0], int))
            rows.append([_csv_field(path, line_no, column, text, float)
                         for column, text in zip(columns[1:], parts[1:])])
    if not rows:
        raise ContractViolation(f"{path}: no data rows")
    return Dataset(np.array(rows), np.array(labels), f"csv({path})")


def write_csv(ds: Dataset, path):
    """Write a labeled dataset in the label,f0,f1,... layout."""
    if ds.targets is None:
        raise ContractViolation("write_csv needs a labeled dataset")
    d = ds.inputs.shape[1]
    with open(path, "w", encoding="utf-8") as f:
        f.write("label," + ",".join(f"f{i}" for i in range(d)) + "\n")
        for label, row in zip(ds.targets, ds.inputs):
            f.write(str(int(label)) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def split_dataset(ds: Dataset, val_fraction: float, seed):
    """Disjoint seeded train/validation split by index permutation."""
    if not (0 <= val_fraction < 1):
        raise ContractViolation("val_fraction must lie in [0, 1)")
    rng = np.random.default_rng(_stream(seed, SPLIT_STREAM))
    perm = rng.permutation(len(ds))
    n_val = int(round(val_fraction * len(ds)))
    return ds.subset(perm[n_val:]), ds.subset(perm[:n_val])


def _stream(seed, *suffix):
    if isinstance(seed, (tuple, list)):
        return [int(s) for s in seed] + [int(x) for x in suffix]
    return [int(seed)] + [int(x) for x in suffix]


class BatchStream:
    """Reshuffled batches of a labeled dataset, one permutation per epoch.

    Every epoch's shuffle comes from a generator seeded by (seed, epoch),
    so the full batch sequence replays from the seed alone. The final
    partial batch is kept.
    """

    def __init__(self, dataset: Dataset, batch_size: int, seed):
        if dataset.targets is None:
            raise ContractViolation("training batches need a labeled dataset")
        if batch_size < 1:
            raise ContractViolation("batch_size must be at least 1")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.seed = seed

    def for_epoch(self, epoch: int) -> list:
        """The epoch's batches as (inputs, targets) pairs."""
        rng = np.random.default_rng(_stream(self.seed, epoch))
        perm = rng.permutation(len(self.dataset))
        batches = []
        for start in range(0, len(perm), self.batch_size):
            index = perm[start:start + self.batch_size]
            batches.append((self.dataset.inputs[index], self.dataset.targets[index]))
        return batches


def _heldout(seed) -> Dataset:
    raise ContractViolation("a heldout set comes from in_distribution.train_classes")


# Python type -> check of a parsed JSON value. As in JSON, a bool is not a
# number, and neither is NaN or an infinity, which Python's json parses.
JSON_TYPES = {
    int: lambda v: isinstance(v, int) and not isinstance(v, bool),
    float: lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                      and abs(v) <= sys.float_info.max),
    str: lambda v: isinstance(v, str),
    bool: lambda v: isinstance(v, bool),
    dict: lambda v: isinstance(v, dict),
}

REQUIRED = object()
# kind -> (builder, {key: (JSON type, default or REQUIRED)}). Every spec
# may also carry SPEC_KEYS, which are not builder arguments. An int is a
# count, so it is nonnegative; a number under a POSITIVE key is above 0.
SPEC_KINDS = {
    "blobs": (gaussian_blobs, {"classes": (int, REQUIRED), "dims": (int, 2),
                               "centers_radius": (float, REQUIRED),
                               "sigma": (float, REQUIRED), "n_per_class": (int, REQUIRED)}),
    "uniform": (ood_uniform, {"dims": (int, 2), "low": (float, REQUIRED),
                              "high": (float, REQUIRED), "n": (int, REQUIRED)}),
    "ring": (ood_ring, {"inner_radius": (float, REQUIRED), "outer_radius": (float, REQUIRED),
                        "n": (int, REQUIRED), "dims": (int, 2)}),
    "idx": (lambda images, labels, seed: load_idx(images, labels),
            {"images": (str, REQUIRED), "labels": (str, REQUIRED)}),
    "csv": (lambda path, seed: load_csv(path), {"path": (str, REQUIRED)}),
    "heldout": (_heldout, {}),
}
SPEC_KEYS = {"name": (str, None), "train_classes": (int, None)}
POSITIVE = frozenset({"dims", "n_per_class", "sigma", "inner_radius", "outer_radius"})


def _spec_value(kind: str, key: str, value, json_type):
    if not JSON_TYPES[json_type](value):
        rule = json_type.__name__
    elif key in POSITIVE and value <= 0:
        rule = "positive"
    elif json_type is int and value < 0:
        rule = "nonnegative"
    else:
        return json_type(value)
    raise ContractViolation(f"{kind} spec key {key!r} must be {rule}, got {value!r}")


def check_spec(spec) -> dict:
    """The builder arguments of a data spec, defaults filled in.

    Raises a ContractViolation naming the kind and the key on an unknown
    kind or key, a missing key, a value of the wrong JSON type or sign, or
    a set too large for numpy to index.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ContractViolation("data spec must be a mapping with a 'kind' key")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in SPEC_KINDS:
        raise ContractViolation(f"unknown data spec kind {kind!r}")
    keys = SPEC_KINDS[kind][1]
    unknown = set(spec) - {"kind", *SPEC_KEYS, *keys}
    if unknown:
        raise ContractViolation(f"unknown {kind} spec keys: {sorted(unknown)}")
    args = {}
    for key, (json_type, default) in {**SPEC_KEYS, **keys}.items():
        if key in spec:
            args[key] = _spec_value(kind, key, spec[key], json_type)
        elif default is REQUIRED:
            raise ContractViolation(f"{kind} spec is missing {key!r}")
        else:
            args[key] = default
    if kind in SIZE_KEYS:
        _check_size(kind, args)
    return {key: args[key] for key in keys}


def dataset_from_spec(spec: dict, seed) -> Dataset:
    """Build a dataset from a declarative spec dict (the config file form)."""
    args = check_spec(spec)
    return SPEC_KINDS[spec["kind"]][0](**args, seed=seed)
