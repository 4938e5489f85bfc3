"""Config loading: the declared types, the data-spec checks at load, and
the config echo that reports and checkpoints hash."""

import copy
import json
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oodkit.experiment import (
    ExperimentConfig,
    load_checkpoint,
    ood_sets,
    save_checkpoint,
    seed_data,
)
from oodkit.heads import head_outputs
from oodkit.model import backbone_forward, make_train_state
from oodkit.numerics import ContractViolation
from oodkit.scores import compute_score

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = {head: ROOT / "configs" / f"blobs_{head}.json"
           for head in ("softmax", "isomax", "isomaxplus")}


@pytest.mark.parametrize("head, digest", [
    ("softmax", "9e34d8023d8e22a47b90695377b77b5596949d054d74e02f737b52313a310b9e"),
    ("isomax", "3c8530f7fd218de58893e5377391245d8fc781ba47673f6524215400c25829e6"),
    ("isomaxplus", "89b4aa3f37ff6b91d3834f26afca0640c2f7ae677bc5730f0bff10bc5ec1d69c"),
])
def test_shipped_config_hash_is_pinned(head, digest):
    raw = json.loads(CONFIGS[head].read_text(encoding="utf-8"))
    assert ExperimentConfig.from_dict(raw).config_hash().hex() == digest


def load_workloads():
    """perfbench/workloads.py, executed from its source so that nothing is
    written under perfbench/."""
    path = ROOT / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    finally:
        del sys.modules[module.__name__]
    return module


def test_every_shipped_and_benchmark_config_loads_and_round_trips():
    workloads = load_workloads()
    raws = [json.loads(path.read_text(encoding="utf-8")) for path in CONFIGS.values()]
    raws += [workload.config(head, 5, "out") for workload in workloads.WORKLOADS.values()
             for head in workloads.HEADS]
    for raw in raws:
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.to_dict() == {**raw, "entropic_scale": 10.0}
        assert ExperimentConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


def shipped(head="isomaxplus", **overrides) -> dict:
    raw = json.loads(CONFIGS[head].read_text(encoding="utf-8"))
    raw.update(overrides)
    return raw


RING = {"kind": "ring", "inner_radius": 8.0, "outer_radius": 12.0, "n": 10}


class TestOodNames:
    def test_default_name_counts_as_repeated(self):
        with pytest.raises(ContractViolation, match="'ring_1' is used twice"):
            ExperimentConfig.from_dict(shipped(ood=[{**RING, "name": "ring_1"}, RING]))

    @pytest.mark.parametrize("name", ["", ".", "..", "a/b", "a\\b"])
    def test_name_must_be_a_plain_file_name_component(self, name):
        with pytest.raises(ContractViolation, match="plain file name component"):
            ExperimentConfig.from_dict(shipped(ood=[{**RING, "name": name}]))

    def test_distinct_names_load(self):
        cfg = ExperimentConfig.from_dict(shipped(ood=[{**RING, "name": "ring_2"}, RING,
                                                      {**RING, "name": "a.b"}]))
        assert len(cfg.ood) == 3


@pytest.mark.parametrize("overrides, message", [
    ({"seeds": [1, -1]}, "seeds must be nonnegative, got [1, -1]"),
    ({"seeds": [1, 2**63]}, "seeds must be at most 9223372036854775807, the largest a "
                            "checkpoint holds, got [1, 9223372036854775808]"),
    ({"ood": [{**RING, "train_classes": 2}]},
     "ood[0]: train_classes belongs to in_distribution"),
    ({"in_distribution": {"kind": "heldout"}},
     "in_distribution cannot be of kind 'heldout'"),
    ({"sgd": {"decay_epochs": [1.5]}}, "sgd.decay_epochs must be a list of ints, got [1.5]"),
    ({"out_dir": 3}, "out_dir must be a string or null, got 3"),
    ({"standardize_inputs": 1}, "standardize_inputs must be a boolean, got 1"),
    ({"entropic_scale": 10 ** 400}, f"entropic_scale must be a number, got {10 ** 400}"),
], ids=["negative_seed", "seed_beyond_checkpoint", "train_classes_in_ood",
        "heldout_in_distribution", "float_decay_epoch", "int_out_dir", "int_boolean", "huge_int_number"])
def test_rejected_at_load(overrides, message):
    with pytest.raises(ContractViolation) as info:
        ExperimentConfig.from_dict(shipped(**overrides))
    assert str(info.value) == message


def test_largest_seed_loads_and_survives_a_checkpoint(tmp_path):
    cfg = ExperimentConfig.from_dict(shipped(seeds=[2**63 - 1]))
    state = make_train_state([2, 4], cfg.head, 3, cfg.seeds[0])
    save_checkpoint(state, tmp_path / "ckpt.bin")
    assert load_checkpoint(tmp_path / "ckpt.bin").seed == 2**63 - 1


def json_paths(node, prefix=()):
    """Every path to a value inside a parsed JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from json_paths(value, prefix + (key,))


def small(raw: dict) -> dict:
    """A shipped config with small sets, so that every draw builds fast,
    with every spec's dims key written out and an OOD set of kind blobs,
    so that the draws reach them."""
    raw = copy.deepcopy(raw)
    raw["in_distribution"]["n_per_class"] = 20
    for spec in raw["ood"]:
        spec.update(n=30, dims=2)
    raw["ood"].append({"name": "blobs", "kind": "blobs", "classes": 3, "dims": 2,
                       "centers_radius": 8.0, "sigma": 0.5, "n_per_class": 10})
    return raw


BASES = [small(shipped(head)) for head in CONFIGS]
MUTATIONS = [(base, path) for base in BASES for path in json_paths(base)]

# Counts stay small: a count large enough to exhaust memory fails only
# when its set is allocated.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 50),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.lists(st.integers(-5, 50), max_size=3), st.just({}),
    st.sampled_from(["ring", "uniform", "blobs", "idx", "csv", "heldout", "box", "ring_0"]),
)


def mutated(base: dict, path: tuple, value) -> dict:
    raw = copy.deepcopy(base)
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return raw


def load_and_build(raw: dict):
    """Load raw, build and standardize its sets, and score each with a
    fresh state of the config. Returns where a ContractViolation stopped
    it ("load" or "build", with the message), or None; any other exception
    propagates, and so does an intermediate that is not finite."""
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ContractViolation:
        return "load"
    try:
        train, data = seed_data(cfg, cfg.seeds[0])
        state = make_train_state(cfg.backbone_widths, cfg.head, train.class_count,
                                 cfg.seeds[0], cfg.entropic_scale)
        assert np.isfinite(data.scaler.mean).all() and np.isfinite(data.scaler.scale).all()
        for ds in [data.val] + [ood for _, ood in ood_sets(cfg, data)]:
            assert np.isfinite(ds.inputs).all()
            features = backbone_forward(state.backbone, ds.inputs)
            outputs = head_outputs(state.head, features)
            for kind in cfg.score_kinds:
                assert np.isfinite(compute_score(kind, outputs)).all()
    except ContractViolation as exc:
        return "build", str(exc)
    return None


def fails_only_on_an_empty_split(outcome) -> bool:
    return outcome in (None, "load") or bool(EMPTY_SPLIT.fullmatch(outcome[1]))


EDGE_VALUES = [None, True, "x", [], {}, -1, 0, 5.5, 1e308, float("nan"), float("inf"),
               -float("inf")]
# What a config still reports only when its sets are built: a split left
# empty by val_fraction, known only once the rows are counted.
EMPTY_SPLIT = re.compile(r"val_fraction \S+ splits \d+ rows into \d+ training and \d+ "
                         r"validation rows; each split needs at least one")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("base", BASES, ids=list(CONFIGS))
def test_edge_values_fail_at_load_or_on_an_empty_split(base):
    for path in json_paths(base):
        for value in EDGE_VALUES:
            outcome = load_and_build(mutated(base, path, value))
            assert fails_only_on_an_empty_split(outcome), (path, value, outcome)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(MUTATIONS), JSON_VALUES)
def test_any_single_value_loads_and_scores_or_fails_on_an_empty_split(mutation, value):
    outcome = load_and_build(mutated(*mutation, value))
    assert fails_only_on_an_empty_split(outcome), (mutation[1], value, outcome)
