"""Config-driven experiment orchestration.

A declarative config names a head, a backbone, the optimizer settings,
one in-distribution spec, a list of OOD specs, the score kinds to
evaluate, and the seeds. Running it trains one model per seed, scores
the held-out validation split against every OOD set, and aggregates the
detection metrics across seeds into a versioned JSON report.

OOD data never touches training: it is generated only after fitting,
inside the evaluation step.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import time
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from importlib import resources

import numpy as np

from . import data as data_mod
from . import heads, metrics, scores
from .heads import DISTANCE_HEAD_KINDS, HEAD_KINDS
from .model import (
    MlpBackbone,
    SgdConfig,
    TrainingDiverged,
    TrainState,
    backbone_forward,
    fit,
    make_train_state,
    named_parameters,
)
from .numerics import ContractViolation

REPORT_SCHEMA_VERSION = 1
CHECKPOINT_MAGIC = b"EOODCKPT"
CHECKPOINT_VERSION = 1
# A checkpoint stores the seed as a signed 64-bit integer.
MAX_SEED = 2**63 - 1

# Seed stream ids: every per-seed random draw derives from
# default_rng([seed, stream]) so a config plus its seed list fully
# determines each artifact.
IN_DATA_STREAM = 21
SPLIT_BATCH_STREAM = 22
OOD_STREAM_BASE = 30


class CheckpointError(ValueError):
    """A checkpoint file could not be read back."""


class ReportSchemaError(ValueError):
    """A report dict does not satisfy the shipped schema."""


# Annotation -> JSON type name; data.JSON_TYPES holds the checks.
_JSON_NAMES = {int: "int", float: "number", str: "string", bool: "boolean", dict: "object"}


def _check_fields(cls, d, prefix: str = ""):
    """Raise a ContractViolation naming the first key of d that the
    dataclass cls does not declare, the first required field d lacks, or
    the first value whose JSON type is not its field's annotation."""
    what = prefix.rstrip(".") or "config"
    if not isinstance(d, dict):
        raise ContractViolation(f"{what} must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ContractViolation(f"unknown {what} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if f.name in d:
            _check_json(hints[f.name], d[f.name], prefix + f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ContractViolation(f"{what} is missing required key {f.name!r}")


def _check_json(hint, value, name: str):
    if is_dataclass(hint):
        return _check_fields(hint, value, name + ".")
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        ok = data_mod.JSON_TYPES[args[0]]
        if not (isinstance(value, (list, tuple)) and all(ok(v) for v in value)):
            raise ContractViolation(
                f"{name} must be a list of {_JSON_NAMES[args[0]]}s, got {value!r}")
        return
    nullable = type(None) in args  # str | None
    base = args[0] if nullable else hint
    kind = _JSON_NAMES[base] + (" or null" if nullable else "")
    if not (data_mod.JSON_TYPES[base](value) or (nullable and value is None)):
        article = "an" if kind[0] in "aeiou" else "a"
        raise ContractViolation(f"{name} must be {article} {kind}, got {value!r}")


@dataclass
class ExperimentConfig:
    head: str
    backbone_widths: list[int]
    in_distribution: dict
    ood: list[dict] = field(default_factory=list)
    score_kinds: list[str] = field(default_factory=lambda: ["max_probability", "entropic"])
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3, 4, 5])
    sgd: SgdConfig = field(default_factory=SgdConfig)
    entropic_scale: float = heads.DEFAULT_ENTROPIC_SCALE
    val_fraction: float = 0.2
    standardize_inputs: bool = True
    out_dir: str | None = None

    def __post_init__(self):
        if self.head not in HEAD_KINDS:
            raise ContractViolation(f"unknown head kind {self.head!r}")
        self.backbone_widths = [int(w) for w in self.backbone_widths]
        if len(self.backbone_widths) < 1 or any(w < 1 for w in self.backbone_widths):
            raise ContractViolation("backbone_widths must be a non-empty list of positive ints")
        for fan_in, fan_out in zip(self.backbone_widths, self.backbone_widths[1:]):
            data_mod.check_size("backbone_widths", self.backbone_widths, (fan_out, fan_in))
        try:
            self.score_kinds = [str(scores.ScoreKind(k).value) for k in self.score_kinds]
        except ValueError as exc:
            raise ContractViolation(f"score_kinds: {exc}") from None
        for i, kind in enumerate(self.score_kinds):
            if kind in self.score_kinds[:i]:
                raise ContractViolation(f"score kind {kind!r} is listed twice")
        if "min_distance" in self.score_kinds and self.head not in DISTANCE_HEAD_KINDS:
            raise ContractViolation(
                "the min_distance score requires a distance-based head (isomax or isomaxplus)")
        self.seeds = [int(s) for s in self.seeds]
        if len(self.seeds) < 1:
            raise ContractViolation("at least one seed is required")
        if min(self.seeds) < 0:
            raise ContractViolation(f"seeds must be nonnegative, got {self.seeds}")
        if max(self.seeds) > MAX_SEED:
            raise ContractViolation(
                f"seeds must be at most {MAX_SEED}, the largest a checkpoint holds, "
                f"got {self.seeds}")
        if self.score_kinds and not self.ood:
            raise ContractViolation("detection metrics need at least one OOD spec")
        if not (0 <= self.val_fraction < 1):
            raise ContractViolation("val_fraction must lie in [0, 1)")
        if self.entropic_scale <= 0:
            raise ContractViolation("entropic_scale must be positive")
        self._check_data_specs()

    def _check_data_specs(self):
        """Check every data spec, so that train rejects a bad OOD spec
        before it trains; an OOD set is only built at evaluation."""
        in_spec = self.in_distribution
        self._check_spec(in_spec)
        if in_spec["kind"] == "heldout":
            raise ContractViolation("in_distribution cannot be of kind 'heldout'")
        names = []
        for i, spec in enumerate(self.ood):
            self._check_spec(spec)
            kind = spec["kind"]
            if "train_classes" in spec:
                raise ContractViolation(f"ood[{i}]: train_classes belongs to in_distribution")
            if spec.get("n", 1) < 1:
                raise ContractViolation(f"{kind} spec key 'n' of an OOD set must be at "
                                        f"least 1, got {spec['n']}")
            if kind == "heldout" and "train_classes" not in in_spec:
                raise ContractViolation(
                    "an OOD spec of kind 'heldout' needs in_distribution.train_classes")
            name = _ood_name(spec, i)
            if name in ("", ".", "..") or "/" in name or "\\" in name:
                raise ContractViolation(
                    f"OOD set name {name!r} must be a plain file name component")
            if name in names:
                raise ContractViolation(f"OOD set name {name!r} is used twice")
            names.append(name)

    def _check_spec(self, spec: dict):
        """data.check_spec, and a generated set must be as wide as the
        backbone's input."""
        dims = data_mod.check_spec(spec).get("dims")
        width = self.backbone_widths[0]
        if dims is not None and dims != width:
            raise ContractViolation(f"{spec['kind']} spec key 'dims' must match the backbone "
                                    f"input width {width}, got {dims}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config of a parsed JSON object; a missing key, an unknown
        key or a value of the wrong JSON type raises a ContractViolation
        that names the key."""
        _check_fields(cls, d)
        d = dict(d)
        return cls(sgd=SgdConfig(**d.pop("sgd", {})), **d)

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> bytes:
        """Digest of the experiment recipe.

        Seed list and output directory are excluded: the seed of a
        concrete run lives in its checkpoint, and neither field changes
        what gets trained or evaluated.
        """
        d = self.to_dict()
        d.pop("seeds")
        d.pop("out_dir")
        canonical = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).digest()


def _ood_name(spec: dict, index: int) -> str:
    return spec.get("name", f"{spec['kind']}_{index}")


def _split_heldout(cfg: ExperimentConfig, ds: data_mod.Dataset):
    """Apply the held-out-class protocol when the in-spec asks for it.

    With train_classes = k, classes 0..k-1 stay in-distribution and the
    remaining rows become an unlabeled pool for OOD specs of kind
    'heldout'."""
    k = cfg.in_distribution.get("train_classes")
    if k is None:
        return ds, None
    if ds.targets is None:
        raise ContractViolation("held-out protocol needs a labeled dataset")
    if k < 2 or k >= ds.class_count:
        raise ContractViolation(
            f"train_classes must lie in [2, {ds.class_count}), got {k}")
    keep = ds.targets < k
    pool = data_mod.Dataset(ds.inputs[~keep])
    return ds.subset(np.flatnonzero(keep)), pool


@dataclass
class InputScaler:
    """Per-coordinate standardization fitted on the training split.

    Validation and OOD inputs are transformed with the same statistics;
    OOD data never influences them. Constant coordinates pass through
    unchanged (guarded denominator).
    """

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, inputs: np.ndarray) -> "InputScaler":
        """Rejects inputs whose mean or standard deviation overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            mean, std = inputs.mean(axis=0), inputs.std(axis=0)
        overflowed = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
        if len(overflowed):
            j = overflowed[0]
            raise ContractViolation(
                f"input coordinate {j} of the training split overflows the scaler: "
                f"mean {float(mean[j])!r}, scale {float(std[j])!r}")
        return cls(mean=mean, scale=np.maximum(std, 1e-12))

    @classmethod
    def identity(cls, dim: int) -> "InputScaler":
        return cls(mean=np.zeros(dim), scale=np.ones(dim))

    def apply(self, ds: data_mod.Dataset) -> data_mod.Dataset:
        if ds.inputs.shape[1] != len(self.mean):
            raise ContractViolation(
                f"inputs of width {ds.inputs.shape[1]} do not match the training "
                f"split's width {len(self.mean)}")
        inputs = ds.inputs - self.mean
        inputs /= self.scale  # in place: one data-sized temporary, not two
        return data_mod.Dataset(inputs, ds.targets)


@dataclass(frozen=True)
class SeedData:
    """What evaluating one seed reads: the standardized validation split,
    the held-out pool (raw, or None without train_classes) and the scaler
    fitted on the training split. The training split itself is not kept,
    so it can be freed once training has standardized it."""

    seed: int
    val: data_mod.Dataset
    heldout: data_mod.Dataset | None
    scaler: InputScaler


def seed_data(cfg: ExperimentConfig, seed: int):
    """The datasets of one seed: returns (train, data), the raw training
    split and its SeedData."""
    full = data_mod.dataset_from_spec(cfg.in_distribution, [seed, IN_DATA_STREAM])
    in_ds, heldout = _split_heldout(cfg, full)
    if in_ds.class_count < 2:
        raise ContractViolation("in-distribution data needs at least 2 classes")
    if in_ds.inputs.shape[1] != cfg.backbone_widths[0]:
        raise ContractViolation(
            f"data dimension {in_ds.inputs.shape[1]} does not match backbone input "
            f"width {cfg.backbone_widths[0]}")
    train, val = data_mod.split_dataset(in_ds, cfg.val_fraction,
                                        (seed, SPLIT_BATCH_STREAM))
    if not (len(train) and len(val)):
        raise ContractViolation(
            f"val_fraction {cfg.val_fraction!r} splits {len(in_ds)} rows into {len(train)} "
            f"training and {len(val)} validation rows; each split needs at least one")
    del full, in_ds  # the split copied its rows
    if cfg.standardize_inputs:
        scaler = InputScaler.fit(train.inputs)
    else:
        scaler = InputScaler.identity(train.inputs.shape[1])
    return train, SeedData(seed, scaler.apply(val), heldout, scaler)


def ood_sets(cfg: ExperimentConfig, data: SeedData):
    """Yield (name, standardized dataset) per OOD spec, in config order,
    building each set only when it is reached."""
    for i, spec in enumerate(cfg.ood):
        if spec.get("kind") != "heldout":
            ood = data_mod.dataset_from_spec(spec, [data.seed, OOD_STREAM_BASE + i])
        elif data.heldout is not None and len(data.heldout):
            ood = data.heldout
        else:
            raise ContractViolation(
                "an OOD spec of kind 'heldout' needs in_distribution.train_classes")
        # Rebinding drops the raw set, so only the standardized one is held
        # while the generator waits at the yield.
        ood = data.scaler.apply(ood)
        yield _ood_name(spec, i), ood


def _check_seed(state: TrainState, data: SeedData):
    if data.seed != state.seed:
        raise ContractViolation(
            f"data of seed {data.seed} cannot evaluate a state of seed {state.seed}")


# An overflow shows up as a ContractViolation on non-finite entries, not
# as a warning.
@np.errstate(over="ignore", invalid="ignore")
def evaluate_checkpoint(cfg: ExperimentConfig, state: TrainState, data: SeedData):
    """Accuracy, detection metrics and score diagnostics for one trained
    state, on the SeedData of its seed.

    The head runs once on the validation split and once on each OOD set;
    every number comes from those outputs. Returns (record, dumps): the
    per-seed report record, and one (ood name, score kind, in_scores,
    out_scores) tuple per OOD set and score kind, in config order.
    """
    _check_seed(state, data)
    val = data.val
    val_out = heads.head_outputs(state.head, backbone_forward(state.backbone, val.inputs))
    accuracy = metrics.classification_accuracy(np.argmax(val_out.logits, axis=1), val.targets)
    in_scores = {kind: scores.compute_score(kind, val_out) for kind in cfg.score_kinds}
    in_diagnostics = {"mean_entropy_in": float(val_out.entropy.mean())}
    if val_out.distances is not None:
        in_diagnostics["median_min_distance_in"] = float(
            np.median(val_out.distances.min(axis=1)))

    ood_evaluations, dumps = [], []
    for name, ood_ds in ood_sets(cfg, data):
        ood_out = heads.head_outputs(state.head,
                                     backbone_forward(state.backbone, ood_ds.inputs))
        diagnostics = {**in_diagnostics, "mean_entropy_out": float(ood_out.entropy.mean())}
        if ood_out.distances is not None:
            diagnostics["median_min_distance_out"] = float(
                np.median(ood_out.distances.min(axis=1)))
        records = []
        for kind in cfg.score_kinds:
            out_scores = scores.compute_score(kind, ood_out)
            score_set = metrics.DetectionScoreSet(in_scores[kind], out_scores)
            records.append({
                "score": kind,
                "auroc": metrics.auroc(score_set),
                "tnr_at_tpr95": metrics.tnr_at_tpr95(score_set),
                "dtacc": metrics.dtacc(score_set),
            })
            dumps.append((name, kind, in_scores[kind], out_scores))
        ood_evaluations.append({
            "ood": name,
            "diagnostics": diagnostics,
            "metrics": records,
        })
    record = {"seed": state.seed, "accuracy": accuracy, "ood_evaluations": ood_evaluations}
    return record, dumps


def train_single_seed(cfg: ExperimentConfig, seed: int):
    """Train one model; returns (state, trace, data), data being the
    seed's SeedData for evaluate_checkpoint."""
    train, data = seed_data(cfg, seed)
    stream = data_mod.BatchStream(data.scaler.apply(train), cfg.sgd.batch_size,
                                  (seed, SPLIT_BATCH_STREAM))
    del train  # only the standardized split lives through fit
    state = make_train_state(cfg.backbone_widths, cfg.head,
                             stream.dataset.class_count, seed, cfg.entropic_scale)
    state.config_hash = cfg.config_hash()
    state, trace = fit(state, stream, cfg.sgd)
    return state, trace, data


def _mean_std(values) -> dict:
    values = np.asarray(values, dtype=np.float64)
    std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    return {"mean": float(values.mean()), "std": std}


def _aggregate(cfg: ExperimentConfig, per_seed: list) -> dict:
    if not per_seed:
        return {"accuracy": None, "detection": []}
    aggregate = {"accuracy": _mean_std([r["accuracy"] for r in per_seed])}
    detection = []
    # Every record lists its OOD sets and, within each, its scores in
    # config order.
    for i, spec in enumerate(cfg.ood):
        for j, kind in enumerate(cfg.score_kinds):
            rows = [record["ood_evaluations"][i]["metrics"][j] for record in per_seed]
            detection.append({
                "ood": _ood_name(spec, i), "score": kind,
                **{m: _mean_std([row[m] for row in rows])
                   for m in ("auroc", "tnr_at_tpr95", "dtacc")},
            })
    aggregate["detection"] = detection
    return aggregate


def make_report(cfg: ExperimentConfig, per_seed: list, warnings: list,
                wall_time_seconds: float) -> dict:
    """The report dict of per-seed evaluation records, aggregated across
    seeds, as schemas/report.schema.json describes it."""
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "per_seed": per_seed,
        "aggregate": _aggregate(cfg, per_seed),
        "warnings": warnings,
        "in_scores_from": "validation split (also used for accuracy)",
        "wall_time_seconds": wall_time_seconds,
    }


def json_text(d: dict) -> str:
    """The text of every JSON file oodkit writes: sorted keys, two-space
    indents and a closing newline."""
    return json.dumps(d, sort_keys=True, indent=2) + "\n"


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Train and evaluate over every seed; divergent seeds are recorded as
    warnings and skipped rather than aborting the whole run. Returns the
    report dict of make_report."""
    t0 = time.perf_counter()
    per_seed, warn = [], []
    for seed in cfg.seeds:
        try:
            state, _, data = train_single_seed(cfg, seed)
            per_seed.append(evaluate_checkpoint(cfg, state, data)[0])
        except TrainingDiverged as exc:
            warn.append(f"seed {seed}: training diverged: {exc}")
    report = make_report(cfg, per_seed, warn, time.perf_counter() - t0)
    validate_report(report)
    return report


# ---------------------------------------------------------------------------
# head comparison

ACCURACY_DROP_PP = 1.0


def _shared_config_view(cfg: ExperimentConfig) -> dict:
    d = cfg.to_dict()
    for key in ("head", "score_kinds", "entropic_scale", "out_dir"):
        d.pop(key)
    return d


def compare_heads(cfgs, reports=None) -> dict:
    """Side-by-side comparison of configs that differ only in their head
    (and score selections), as a dict that holds the compared reports.
    Flags any head whose mean accuracy trails the SoftMax baseline by more
    than one percentage point. Raises TrainingDiverged if every seed of a
    config diverged."""
    cfgs = list(cfgs)
    if not cfgs:
        raise ContractViolation("compare_heads needs at least one config")
    shared = _shared_config_view(cfgs[0])
    for other in cfgs[1:]:
        if _shared_config_view(other) != shared:
            raise ContractViolation(
                "compared configs must share data specs, seeds, backbone, and optimizer")
    if reports is None:
        reports = [run_experiment(c) for c in cfgs]
    else:
        reports = list(reports)
        if len(reports) != len(cfgs):
            raise ContractViolation("one report per config is required")
    for i, (cfg, rep) in enumerate(zip(cfgs, reports)):
        if rep["config"] != cfg.to_dict():
            raise ContractViolation("supplied report does not match its config")
        if rep["aggregate"]["accuracy"] is None:
            raise TrainingDiverged(
                f"config {i} ({cfg.head}) has no seed left to compare; {rep['warnings'][0]}")

    baseline_index = next((i for i, c in enumerate(cfgs) if c.head == "softmax"), None)
    baseline_head = None if baseline_index is None else "softmax"
    baseline_acc = (reports[baseline_index]["aggregate"]["accuracy"]["mean"]
                    if baseline_index is not None else None)

    columns, accuracy, flags = [], [], []
    for i, (cfg, rep) in enumerate(zip(cfgs, reports)):
        acc = rep["aggregate"]["accuracy"]
        columns.append({"index": i, "head": cfg.head, "score_kinds": cfg.score_kinds})
        entry = {"index": i, "head": cfg.head,
                 "mean": acc["mean"], "std": acc["std"]}
        if baseline_acc is not None:
            entry["delta_pp_vs_baseline"] = (acc["mean"] - baseline_acc) * 100.0
            drop_pp = (baseline_acc - acc["mean"]) * 100.0
            if drop_pp > ACCURACY_DROP_PP:
                flags.append({"index": i, "head": cfg.head, "drop_pp": drop_pp})
        accuracy.append(entry)

    detection = []
    ood_names = [_ood_name(spec, i) for i, spec in enumerate(cfgs[0].ood)]
    for name in ood_names:
        for metric in ("auroc", "tnr_at_tpr95", "dtacc"):
            cells = []
            for i, (cfg, rep) in enumerate(zip(cfgs, reports)):
                for row in rep["aggregate"]["detection"]:
                    if row["ood"] == name:
                        cells.append({"index": i, "head": cfg.head,
                                      "score": row["score"],
                                      "mean": row[metric]["mean"],
                                      "std": row[metric]["std"]})
            detection.append({"ood": name, "metric": metric, "cells": cells})

    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "columns": columns,
        "accuracy": accuracy,
        "accuracy_drop_flags": flags,
        "detection": detection,
        "baseline_head": baseline_head,
        "reports": reports,
    }


# ---------------------------------------------------------------------------
# histograms and score dumps

@np.errstate(over="ignore", invalid="ignore")  # as evaluate_checkpoint
def histogram_report(cfg: ExperimentConfig, state: TrainState, data: SeedData,
                     bins: int) -> dict:
    """Binned in/OOD counts of inference entropy and, for distance heads,
    of the minimum feature-prototype distance, on the validation split of
    the SeedData of the state's seed against the first OOD set of cfg.

    Returns {quantity: rows} where each row is
    (bin_left, bin_right, count_in, count_out) over shared bin edges.
    """
    if bins < 2:
        raise ContractViolation("bins must be at least 2")
    data_mod.check_size("bins", bins, (bins + 1,))
    if not cfg.ood:
        raise ContractViolation("histograms need at least one OOD spec in the config")
    _check_seed(state, data)
    _, ood_data = next(ood_sets(cfg, data))
    in_out = heads.head_outputs(state.head, backbone_forward(state.backbone, data.val.inputs))
    ood_out = heads.head_outputs(state.head, backbone_forward(state.backbone, ood_data.inputs))
    quantities = {"entropy": (in_out.entropy, ood_out.entropy)}
    if in_out.distances is not None:
        quantities["min_distance"] = (in_out.distances.min(axis=1),
                                      ood_out.distances.min(axis=1))

    out = {}
    for name, (v_in, v_out) in quantities.items():
        lo = float(min(v_in.min(), v_out.min()))
        hi = float(max(v_in.max(), v_out.max()))
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        edges = np.linspace(lo, hi, bins + 1)
        count_in, _ = np.histogram(v_in, bins=edges)
        count_out, _ = np.histogram(v_out, bins=edges)
        out[name] = [
            (float(edges[i]), float(edges[i + 1]), int(count_in[i]), int(count_out[i]))
            for i in range(bins)
        ]
    return out


def write_histogram_csv(rows, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write("bin_left,bin_right,count_in,count_out\n")
        for left, right, count_in, count_out in rows:
            f.write(f"{left!r},{right!r},{count_in},{count_out}\n")


def write_scores_csv(path, in_scores, out_scores):
    """Dump raw scores as `score,group` rows, group in {in, out}."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("score,group\n")
        for s in np.asarray(in_scores).ravel():
            f.write(f"{float(s)!r},in\n")
        for s in np.asarray(out_scores).ravel():
            f.write(f"{float(s)!r},out\n")


# ---------------------------------------------------------------------------
# checkpoints

def _write_block(f, name: str, arr: np.ndarray):
    payload = np.ascontiguousarray(arr, dtype="<f8")
    encoded = name.encode()
    f.write(struct.pack("<I", len(encoded)))
    f.write(encoded)
    f.write(struct.pack("<I", payload.ndim))
    for dim in payload.shape:
        f.write(struct.pack("<Q", dim))
    f.write(payload.tobytes())


def save_checkpoint(state: TrainState, path):
    """Binary snapshot: magic, version, head kind, epoch, seed, config
    hash, then named float64 arrays, all little-endian: the backbone's
    parameters, the head's `checkpointed` arrays and the velocities."""
    entries = [(name, arr) for name, arr in named_parameters(state)
               if name.startswith("backbone.")]
    entries += [(f"head.{name}", getattr(state.head, name))
                for name in state.head.checkpointed]
    entries += [(f"velocity.{name}", state.velocities[name])
                for name in sorted(state.velocities)]
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        kind = state.head.kind.encode()
        f.write(struct.pack("<I", len(kind)))
        f.write(kind)
        f.write(struct.pack("<Q", state.epoch))
        f.write(struct.pack("<q", state.seed))
        f.write(state.config_hash)
        f.write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            _write_block(f, name, arr)


def _read_exactly(f, count: int, what: str) -> bytes:
    # Checked against the file size first, so a corrupt length never
    # becomes a huge allocation.
    if count > os.fstat(f.fileno()).st_size - f.tell():
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return f.read(count)


def _read_name(f, what: str) -> str:
    (length,) = struct.unpack("<I", _read_exactly(f, 4, what))
    try:
        return _read_exactly(f, length, what).decode()
    except UnicodeDecodeError:
        raise CheckpointError(f"{what} is not valid UTF-8") from None


def load_checkpoint(path, expected_head_kind: str | None = None) -> TrainState:
    """Rebuild a TrainState bit-exactly from save_checkpoint output.

    The config hash is read, not checked. A head-kind mismatch or any
    structural problem raises CheckpointError, including a missing,
    unexpected or repeated array and array shapes that disagree with
    each other.
    """
    with open(path, "rb") as f:
        magic = _read_exactly(f, len(CHECKPOINT_MAGIC), "magic")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad magic {magic!r}, not a checkpoint file")
        (version,) = struct.unpack("<I", _read_exactly(f, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        kind = _read_name(f, "head kind")
        if kind not in HEAD_KINDS:
            raise CheckpointError(f"unknown head kind {kind!r} in checkpoint")
        if expected_head_kind is not None and kind != expected_head_kind:
            raise CheckpointError(
                f"checkpoint holds a {kind!r} head, expected {expected_head_kind!r}")
        (epoch,) = struct.unpack("<Q", _read_exactly(f, 8, "epoch"))
        (seed,) = struct.unpack("<q", _read_exactly(f, 8, "seed"))
        if seed < 0:
            raise CheckpointError(f"negative seed {seed} in checkpoint")
        config_hash = _read_exactly(f, 32, "config hash")
        (count,) = struct.unpack("<I", _read_exactly(f, 4, "array count"))
        arrays = {}
        for _ in range(count):
            name = _read_name(f, "array name")
            if name in arrays:
                raise CheckpointError(f"array {name!r} appears twice")
            (ndim,) = struct.unpack("<I", _read_exactly(f, 4, "array rank"))
            shape = tuple(
                struct.unpack("<Q", _read_exactly(f, 8, "array shape"))[0]
                for _ in range(ndim))
            payload = _read_exactly(f, math.prod(shape) * 8, f"array {name}")
            # An empty array reads no bytes, but numpy still bounds the
            # bytes of its nonzero dimensions by the largest intp.
            if math.prod(max(d, 1) for d in shape) * 8 > np.iinfo(np.intp).max:
                raise CheckpointError(f"array {name!r} has shape {shape}, too large to index")
            arrays[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        if f.read(1):
            raise CheckpointError("trailing bytes after the last array")

    backbone = _backbone_from_arrays(arrays)
    head_class = heads.HEAD_CLASSES[kind]
    head_arrays = {name: _take(arrays, f"head.{name}") for name in head_class.checkpointed}
    try:
        head = head_class(**head_arrays)
    except ContractViolation as exc:
        raise CheckpointError(str(exc)) from None
    state = TrainState(backbone=backbone, head=head, velocities={},
                       epoch=int(epoch), seed=int(seed), config_hash=config_hash)
    feature_dim = state.backbone.feature_dim
    if feature_dim >= 0 and state.head.dim != feature_dim:
        raise CheckpointError(
            f"head dimension {state.head.dim} does not match the backbone's "
            f"feature width {feature_dim}")
    params = dict(named_parameters(state))
    velocities = {}
    for name, arr in arrays.items():
        key = name[len("velocity."):] if name.startswith("velocity.") else None
        if key not in params:
            raise CheckpointError(f"unexpected array {name!r} in checkpoint")
        if arr.shape != params[key].shape:
            raise CheckpointError(
                f"array {name!r} has shape {arr.shape}, its parameter has "
                f"{params[key].shape}")
        velocities[key] = arr
    state.load_velocities(velocities)
    return state


def _take(arrays: dict, name: str) -> np.ndarray:
    """Remove and return one named array; whatever stays must be a velocity."""
    try:
        return arrays.pop(name)
    except KeyError:
        raise CheckpointError(f"checkpoint has no array {name!r}") from None


def _backbone_from_arrays(arrays: dict) -> MlpBackbone:
    weights, biases = [], []
    for i in range(sum(1 for name in arrays if name.startswith("backbone.w"))):
        w, b = _take(arrays, f"backbone.w{i}"), _take(arrays, f"backbone.b{i}")
        if (w.ndim != 2 or b.shape != w.shape[:1]
                or (weights and w.shape[1] != weights[-1].shape[0])):
            raise CheckpointError(
                f"backbone layer {i} has weights {w.shape} and bias {b.shape}, which do "
                f"not chain onto the layer before")
        weights.append(w)
        biases.append(b)
    return MlpBackbone(weights=weights, biases=biases)


# ---------------------------------------------------------------------------
# report schema validation

def report_schema() -> dict:
    return json.loads(
        resources.files("oodkit").joinpath("schemas/report.schema.json").read_text())


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _validate_node(instance, schema: dict, path: str):
    if "const" in schema and instance != schema["const"]:
        raise ReportSchemaError(f"{path}: expected constant {schema['const']!r}")
    if "enum" in schema and instance not in schema["enum"]:
        raise ReportSchemaError(f"{path}: {instance!r} not in {schema['enum']}")
    stated = schema.get("type")
    if stated is not None:
        allowed = stated if isinstance(stated, list) else [stated]
        ok = False
        for t in allowed:
            if t == "number":
                ok = ok or (isinstance(instance, (int, float))
                            and not isinstance(instance, bool))
            elif t == "integer":
                ok = ok or (isinstance(instance, int) and not isinstance(instance, bool))
            else:
                ok = ok or isinstance(instance, _TYPES[t])
        if not ok:
            raise ReportSchemaError(f"{path}: expected type {stated}, got {type(instance).__name__}")
    if isinstance(instance, dict):
        for key in schema.get("required", []):
            if key not in instance:
                raise ReportSchemaError(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                _validate_node(instance[key], sub, f"{path}.{key}")
    if isinstance(instance, list) and "items" in schema:
        for i, element in enumerate(instance):
            _validate_node(element, schema["items"], f"{path}[{i}]")


def validate_report(report_dict: dict):
    """Check a report dict against the shipped schema; raises on failure."""
    _validate_node(report_dict, report_schema(), "$")
