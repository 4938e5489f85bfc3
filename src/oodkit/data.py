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
    """Input rows with optional integer labels."""

    inputs: np.ndarray
    targets: np.ndarray | None = None

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
        return Dataset(self.inputs[index], targets)


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


def check_size(what: str, value, shape):
    """Reject a float64 array of this shape that numpy cannot make, before
    any is built: numpy bounds each dimension and the element count, and,
    counting an empty dimension as 1, the bytes. The sizes multiply as
    Python ints, which cannot overflow."""
    limit = np.iinfo(np.intp).max
    if max(*shape, math.prod(shape)) > limit:
        unit = "elements"
    elif math.prod(max(d, 1) for d in shape) * 8 > limit:
        unit = "bytes"
    else:
        return
    raise ContractViolation(f"{what} asks for more than {limit} {unit}, got {value}")


def _require(ok: bool, kind: str, key: str, rule: str, value):
    if not ok:
        raise ContractViolation(f"{kind} spec key {key!r} must {rule}, got {value!r}")


def _require_reach(kind: str, key: str, value, elements: int, largest: float, formula: str):
    """Require 4 * elements * largest**2 to be finite, largest being the
    greatest magnitude a drawn coordinate can take and formula the product
    in the spec's terms. Any two coordinates then lie within 2 * largest
    of each other, so every row's squared norm, and the input scaler's
    sums over the set, stay finite."""
    gap = 2.0 * largest
    _require(elements == 0 or math.isfinite(elements * gap * gap), kind, key,
             f"keep 4 * {formula} finite", value)


# The rules of each generated kind, run by its generator and by check_spec
# alike. Every comparison fails on NaN.

# A blobs coordinate lies within this many sigmas of its center: a
# standard normal draw lands beyond 16 with probability about 1e-57.
_BLOBS_REACH_SIGMAS = 16


def _blobs_rules(classes, dims, centers_radius, sigma, n_per_class):
    _require(classes >= 2, "blobs", "classes", "give at least 2 classes", classes)
    _require(dims >= 1, "blobs", "dims", "be positive", dims)
    _require(sigma > 0, "blobs", "sigma", "be positive", sigma)
    _require(n_per_class >= 1, "blobs", "n_per_class", "be positive", n_per_class)
    check_size("blobs spec key 'n_per_class'", n_per_class, (classes, n_per_class, dims))
    spread = _BLOBS_REACH_SIGMAS * float(sigma)
    radius = abs(float(centers_radius))
    key, value = ("sigma", sigma) if spread >= radius else ("centers_radius", centers_radius)
    _require_reach("blobs", key, value, classes * n_per_class * dims, radius + spread,
                   f"classes * n_per_class * dims * (|centers_radius| + "
                   f"{_BLOBS_REACH_SIGMAS} * sigma)**2")


def _uniform_rules(dims, low, high, n):
    _require(dims >= 0, "uniform", "dims", "be nonnegative", dims)
    _require(low < high and math.isfinite(float(high) - float(low)), "uniform", "high",
             f"exceed low {low!r} by a finite amount", high)
    _require(n >= 0, "uniform", "n", "be nonnegative", n)
    check_size("uniform spec key 'n'", n, (n, dims))
    key, value = ("high", high) if abs(high) >= abs(low) else ("low", low)
    _require_reach("uniform", key, value, n * dims, abs(float(value)),
                   "n * dims * max(|low|, |high|)**2")


def _ring_rules(inner_radius, outer_radius, n, dims):
    _require(dims >= 1, "ring", "dims", "be positive", dims)
    _require(dims == 2, "ring", "dims", "be 2", dims)
    _require(inner_radius > 0, "ring", "inner_radius", "be positive", inner_radius)
    _require(inner_radius < outer_radius and math.isfinite(float(outer_radius) * outer_radius),
             "ring", "outer_radius",
             f"exceed inner_radius {inner_radius!r} with a finite square", outer_radius)
    _require(n >= 0, "ring", "n", "be nonnegative", n)
    check_size("ring spec key 'n'", n, (n, dims))


def gaussian_blobs(classes: int, dims: int, centers_radius: float, sigma: float,
                   n_per_class: int, seed) -> Dataset:
    """Labeled isotropic Gaussian clusters around evenly placed centers."""
    _blobs_rules(classes, dims, centers_radius, sigma, n_per_class)
    rng = np.random.default_rng(seed)
    centers = _class_centers(classes, dims, centers_radius, rng)
    inputs = np.repeat(centers, n_per_class, axis=0)
    inputs = inputs + sigma * rng.standard_normal(inputs.shape)
    targets = np.repeat(np.arange(classes), n_per_class)
    return Dataset(inputs, targets)


def ood_uniform(dims: int, low: float, high: float, n: int, seed) -> Dataset:
    """Unlabeled i.i.d. uniform samples over the box [low, high]^dims."""
    _uniform_rules(dims, low, high, n)
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(low, high, size=(n, dims))
    return Dataset(inputs)


def ood_ring(inner_radius: float, outer_radius: float, n: int, seed,
             dims: int = 2) -> Dataset:
    """Unlabeled samples uniform over a 2-D annulus.

    Drawn by the polar transform: angle uniform on [0, 2 pi), radius as
    sqrt of a uniform draw between the squared radii, which is
    area-uniform over the annulus.
    """
    _ring_rules(inner_radius, outer_radius, n, dims)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    radius = np.sqrt(rng.uniform(inner_radius ** 2, outer_radius ** 2, size=n))
    inputs = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
    return Dataset(inputs)


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
    return Dataset(inputs, targets)


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
    return Dataset(np.array(rows), np.array(labels))


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
# count, so it is nonnegative; SPEC_RULES holds the rest of what a
# generated kind's values must satisfy.
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
SPEC_RULES = {"blobs": _blobs_rules, "uniform": _uniform_rules, "ring": _ring_rules}


def _spec_value(kind: str, key: str, value, json_type):
    if not JSON_TYPES[json_type](value):
        rule = json_type.__name__
    elif json_type is int and value < 0:
        rule = "nonnegative"
    else:
        return value
    raise ContractViolation(f"{kind} spec key {key!r} must be {rule}, got {value!r}")


def _spec_args(spec):
    """The kind of a data spec and its builder arguments, defaults filled
    in, after every check but its kind's rules: returns (kind, given,
    args), given holding each value as the spec gives it and args each of
    its key's Python type (a JSON 4 under a float key becomes 4.0)."""
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
    return kind, {key: args[key] for key in keys}, {
        key: json_type(args[key]) for key, (json_type, _) in keys.items()}


def check_spec(spec) -> dict:
    """The builder arguments of a data spec, defaults filled in.

    Raises a ContractViolation naming the kind and the key on an unknown
    kind or key, a missing key, a value of the wrong JSON type, a negative
    count, or a value its kind's SPEC_RULES reject, which include a set
    too large for numpy to make.
    """
    kind, given, args = _spec_args(spec)
    if kind in SPEC_RULES:
        SPEC_RULES[kind](**given)  # so a message shows a JSON 0 as 0
    return args


def dataset_from_spec(spec: dict, seed) -> Dataset:
    """Build a dataset from a declarative spec dict (the config file form).
    check_spec's checks all run once: the generator runs its kind's rules."""
    kind, _, args = _spec_args(spec)
    return SPEC_KINDS[kind][0](**args, seed=seed)
