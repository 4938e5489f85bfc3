"""Experiment orchestration tests: reports, comparisons, checkpoints."""

import copy
import json
import math
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest

from oodkit import data as data_mod
from oodkit import experiment, heads, numerics
from oodkit.data import gaussian_blobs
from oodkit.experiment import (
    CheckpointError,
    ExperimentConfig,
    ReportSchemaError,
    compare_heads,
    evaluate_checkpoint,
    histogram_report,
    load_checkpoint,
    ood_sets,
    run_experiment,
    save_checkpoint,
    seed_data,
    train_single_seed,
    validate_report,
    write_histogram_csv,
    write_scores_csv,
)
from oodkit.model import backbone_forward, make_train_state
from oodkit.numerics import ContractViolation
from oodkit.scores import compute_score


def tiny_config(head="isomaxplus", **overrides):
    base = {
        "head": head,
        "backbone_widths": [2, 8, 8],
        "in_distribution": {"kind": "blobs", "classes": 3, "dims": 2,
                            "centers_radius": 4.0, "sigma": 0.5, "n_per_class": 40},
        "ood": [{"name": "ring", "kind": "ring", "inner_radius": 8.0,
                 "outer_radius": 12.0, "n": 60}],
        "score_kinds": (["min_distance", "entropic"] if head != "softmax"
                        else ["entropic"]),
        "seeds": [1, 2],
        "sgd": {"epochs": 3, "batch_size": 16},
        "val_fraction": 0.25,
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def diverging_config():
    """The shipped isomaxplus config at a learning rate that overflows the
    squared feature norms in epoch 1 while every parameter stays finite."""
    path = Path(__file__).resolve().parent.parent / "configs" / "blobs_isomaxplus.json"
    cfg = ExperimentConfig.from_dict(json.loads(path.read_text(encoding="utf-8")))
    cfg.sgd.learning_rate = 1e6
    cfg.sgd.epochs = 2
    cfg.sgd.decay_epochs = []
    cfg.seeds = [1, 2]
    return cfg


class TestConfigValidation:
    def test_from_dict_round_trip(self):
        cfg = tiny_config()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_single_class_rejected(self):
        with pytest.raises(ContractViolation, match="at least 2 classes"):
            tiny_config(in_distribution={"kind": "blobs", "classes": 1, "dims": 2,
                                         "centers_radius": 4.0, "sigma": 0.5,
                                         "n_per_class": 10})

    def test_min_distance_needs_distance_head(self):
        with pytest.raises(ContractViolation):
            tiny_config(head="softmax", score_kinds=["min_distance"])

    def test_scores_need_an_ood_spec(self):
        with pytest.raises(ContractViolation):
            tiny_config(ood=[])

    def test_no_seeds_rejected(self):
        with pytest.raises(ContractViolation):
            tiny_config(seeds=[])

    def test_unknown_key_rejected(self):
        with pytest.raises(ContractViolation):
            ExperimentConfig.from_dict({**tiny_config().to_dict(), "dropout": 0.5})


class TestRunExperiment:
    def test_deterministic_report_bytes(self):
        cfg = tiny_config()
        a, b = (run_experiment(cfg).to_dict() for _ in range(2))
        a.pop("wall_time_seconds")
        b.pop("wall_time_seconds")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_validates_and_aggregates(self):
        report = run_experiment(tiny_config())
        validate_report(report.to_dict())
        assert len(report.per_seed) == 2
        agg = report.aggregate
        assert set(r["score"] for r in agg["detection"]) == {"min_distance", "entropic"}
        assert 0.0 <= agg["accuracy"]["mean"] <= 1.0
        assert agg["accuracy"]["std"] >= 0.0

    def test_single_seed_reports_zero_std(self):
        report = run_experiment(tiny_config(seeds=[3]))
        assert report.aggregate["accuracy"]["std"] == 0.0

    def test_aggregate_rows_follow_config_order(self):
        cfg = tiny_config(ood=[
            {"name": "near", "kind": "ring", "inner_radius": 3.0, "outer_radius": 5.0, "n": 40},
            {"kind": "uniform", "low": -12.0, "high": 12.0, "n": 40}])
        report = run_experiment(cfg)
        rows = report.aggregate["detection"]
        assert [(r["ood"], r["score"]) for r in rows] == [
            (name, kind) for name in ("near", "uniform_1") for kind in cfg.score_kinds]
        for i, row in enumerate(rows):
            per_seed = [record["ood_evaluations"][i // 2]["metrics"][i % 2]["auroc"]
                        for record in report.per_seed]
            assert row["auroc"]["mean"] == np.mean(per_seed)

    def test_heldout_class_protocol(self):
        cfg = tiny_config(
            in_distribution={"kind": "blobs", "classes": 4, "dims": 2,
                             "centers_radius": 4.0, "sigma": 0.5,
                             "n_per_class": 30, "train_classes": 2},
            ood=[{"name": "heldout", "kind": "heldout"}],
        )
        report = run_experiment(cfg)
        assert report.per_seed[0]["ood_evaluations"][0]["ood"] == "heldout"
        validate_report(report.to_dict())


def heldout_config(head):
    """Three trained classes, the fourth held out, plus a ring: two OOD sets."""
    return tiny_config(
        head, seeds=[1],
        in_distribution={"kind": "blobs", "classes": 4, "dims": 2, "centers_radius": 4.0,
                         "sigma": 0.5, "n_per_class": 30, "train_classes": 3},
        ood=[{"name": "heldout", "kind": "heldout"},
             {"name": "ring", "kind": "ring", "inner_radius": 8.0,
              "outer_radius": 12.0, "n": 40}],
        score_kinds=(["entropic", "max_probability"] if head == "softmax"
                     else ["min_distance", "entropic", "max_probability"]))


class TestEvaluateCheckpoint:
    @pytest.mark.parametrize("head", ["softmax", "isomax", "isomaxplus"])
    def test_one_distance_pass_per_dataset(self, monkeypatch, head):
        cfg = heldout_config(head)
        state, _, data = train_single_seed(cfg, 1)
        calls = []
        original = numerics.pairwise_euclidean

        def counting(a, b):
            calls.append(1)
            return original(a, b)

        monkeypatch.setattr(numerics, "pairwise_euclidean", counting)
        monkeypatch.setattr(heads, "pairwise_euclidean", counting)
        evaluate_checkpoint(cfg, state, data)
        assert len(calls) == (0 if head == "softmax" else 1 + len(cfg.ood))

    @pytest.mark.parametrize("head", ["softmax", "isomax", "isomaxplus"])
    def test_dumps_equal_per_dataset_scores(self, head):
        cfg = heldout_config(head)
        state, _, data = train_single_seed(cfg, 1)
        record, dumps = evaluate_checkpoint(cfg, state, data)
        assert record == run_experiment(cfg).per_seed[0]
        features = {"in": backbone_forward(state.backbone, data.val.inputs)}
        for name, ood in ood_sets(cfg, data):
            features[name] = backbone_forward(state.backbone, ood.inputs)
        assert [(name, kind) for name, kind, _, _ in dumps] == [
            (spec["name"], kind) for spec in cfg.ood for kind in cfg.score_kinds]
        for name, kind, in_scores, out_scores in dumps:
            np.testing.assert_array_equal(
                in_scores, compute_score(kind, heads.head_outputs(state.head, features["in"])))
            np.testing.assert_array_equal(
                out_scores, compute_score(kind, heads.head_outputs(state.head, features[name])))


def collected(refs):
    return all(ref() is None for ref in refs)


class TestSeedData:
    @pytest.mark.parametrize("standardize", [True, False])
    def test_scaler_rejects_data_of_another_width(self, standardize):
        _, data = seed_data(tiny_config(standardize_inputs=standardize), 1)
        with pytest.raises(ContractViolation) as info:
            data.scaler.apply(data_mod.Dataset(np.zeros((4, 3))))
        assert str(info.value) == "inputs of width 3 do not match the training split's width 2"

    def test_data_of_another_seed_rejected(self):
        cfg = tiny_config()
        state = make_train_state(cfg.backbone_widths, cfg.head, 3, seed=1)
        with pytest.raises(ContractViolation, match="data of seed 2"):
            evaluate_checkpoint(cfg, state, seed_data(cfg, 2)[1])

    @pytest.mark.parametrize("val_fraction, train_rows, val_rows",
                             [(0.0, 120, 0), (0.9999, 0, 120)], ids=["no_val", "no_train"])
    def test_empty_split_rejected_before_the_scaler_is_fitted(self, monkeypatch, val_fraction,
                                                              train_rows, val_rows):
        fitted = []
        monkeypatch.setattr(experiment.InputScaler, "fit", classmethod(
            lambda cls, inputs: fitted.append(inputs)))
        with pytest.raises(ContractViolation) as info:
            seed_data(tiny_config(val_fraction=val_fraction), 1)
        assert str(info.value) == (
            f"val_fraction {val_fraction!r} splits 120 rows into {train_rows} training and "
            f"{val_rows} validation rows; each split needs at least one")
        assert fitted == []

    def test_validation_split_arrives_standardized(self, monkeypatch):
        cfg = heldout_config("isomaxplus")
        state = make_train_state(cfg.backbone_widths, cfg.head, 3, seed=1)
        data = seed_data(cfg, 1)[1]
        applied = []
        original = experiment.InputScaler.apply

        def counting(self, ds):
            applied.append(ds)
            return original(self, ds)

        monkeypatch.setattr(experiment.InputScaler, "apply", counting)
        evaluate_checkpoint(cfg, state, data)
        assert len(applied) == len(cfg.ood)

    def test_raw_training_split_is_freed_before_fit(self, monkeypatch):
        refs = []
        original_seed_data, original_fit = experiment.seed_data, experiment.fit

        def tracking_seed_data(cfg, seed):
            train, data = original_seed_data(cfg, seed)
            refs.extend([weakref.ref(train), weakref.ref(train.inputs)])
            return train, data

        def checking_fit(state, stream, cfg):
            freed_at_fit.append(collected(refs))
            return original_fit(state, stream, cfg)

        freed_at_fit = []
        monkeypatch.setattr(experiment, "seed_data", tracking_seed_data)
        monkeypatch.setattr(experiment, "fit", checking_fit)
        train_single_seed(tiny_config(), 1)
        assert len(refs) == 2 and freed_at_fit == [True]

    def test_ood_sets_build_lazily_and_hold_only_the_standardized_set(self, monkeypatch):
        cfg = tiny_config(ood=[{"name": "ring", "kind": "ring", "inner_radius": 8.0,
                                "outer_radius": 12.0, "n": 60},
                               {"name": "box", "kind": "uniform", "low": -12.0,
                                "high": 12.0, "n": 50}])
        data = seed_data(cfg, 1)[1]
        refs = []
        original = data_mod.dataset_from_spec

        def tracking(spec, seed):
            ds = original(spec, seed)
            refs.append([weakref.ref(ds), weakref.ref(ds.inputs)])
            return ds

        monkeypatch.setattr(data_mod, "dataset_from_spec", tracking)
        names = []
        for name, _ in ood_sets(cfg, data):
            names.append(name)
            assert len(refs) == len(names)
            assert collected(ref for pair in refs for ref in pair)
        assert names == ["ring", "box"]


class TestValidateReport:
    def test_mutated_report_fails(self):
        report = run_experiment(tiny_config(seeds=[1])).to_dict()
        broken = copy.deepcopy(report)
        del broken["aggregate"]
        with pytest.raises(ReportSchemaError, match="aggregate"):
            validate_report(broken)
        broken = copy.deepcopy(report)
        broken["schema_version"] = 2
        with pytest.raises(ReportSchemaError):
            validate_report(broken)
        broken = copy.deepcopy(report)
        broken["per_seed"][0]["accuracy"] = "high"
        with pytest.raises(ReportSchemaError):
            validate_report(broken)


class TestCompareHeads:
    def configs(self):
        return [tiny_config("softmax"), tiny_config("isomax", score_kinds=["entropic"]),
                tiny_config("isomaxplus", score_kinds=["min_distance"])]

    def test_identical_heads_zero_deltas_no_flags(self):
        cfgs = [tiny_config("softmax"), tiny_config("softmax")]
        comparison = compare_heads(cfgs)
        assert comparison.accuracy_drop_flags == []
        assert all(row["delta_pp_vs_baseline"] == 0.0 for row in comparison.accuracy)

    def test_three_way_layout(self):
        comparison = compare_heads(self.configs())
        assert [c["head"] for c in comparison.columns] == [
            "softmax", "isomax", "isomaxplus"]
        assert comparison.baseline_head == "softmax"
        metrics_seen = {(b["ood"], b["metric"]) for b in comparison.detection}
        assert ("ring", "auroc") in metrics_seen
        assert ("ring", "tnr_at_tpr95") in metrics_seen
        assert ("ring", "dtacc") in metrics_seen

    def test_drop_flag_raised_for_broken_head(self):
        cfgs = self.configs()
        reports = [run_experiment(c) for c in cfgs]
        # sabotage the isomax accuracy by five points
        broken = reports[1]
        broken.aggregate["accuracy"]["mean"] -= 0.05
        comparison = compare_heads(cfgs, reports)
        assert any(f["head"] == "isomax" and f["drop_pp"] > 1.0
                   for f in comparison.accuracy_drop_flags)

    def test_mismatched_data_specs_rejected(self):
        cfgs = [tiny_config("softmax"), tiny_config("isomax", seeds=[5, 6])]
        with pytest.raises(ContractViolation):
            compare_heads(cfgs)

    def test_supplied_reports_must_match(self):
        cfgs = [tiny_config("softmax"), tiny_config("isomax")]
        reports = [run_experiment(cfgs[0])]
        with pytest.raises(ContractViolation):
            compare_heads(cfgs, reports)


def ring_config(n):
    """tiny_config with one ring OOD set of n rows."""
    return tiny_config(ood=[{"name": "ring", "kind": "ring", "inner_radius": 8.0,
                             "outer_radius": 12.0, "n": n}])


def unscaled(state, val):
    """SeedData of the state's seed with val as its validation split."""
    return experiment.SeedData(state.seed, val, None,
                               experiment.InputScaler.identity(val.inputs.shape[1]))


class TestHistogramReport:
    def test_untrained_isomax_single_occupied_entropy_bin(self):
        state = make_train_state([2], "isomax", 3, seed=0)
        in_data = gaussian_blobs(3, 2, 4.0, 0.5, 10, seed=1)
        tables = histogram_report(ring_config(20), state, unscaled(state, in_data), bins=10)
        rows = tables["entropy"]
        occupied = [r for r in rows if r[2] + r[3] > 0]
        assert len(occupied) == 1  # every entropy equals ln(3) at init
        left, right, count_in, count_out = occupied[0]
        assert left <= math.log(3.0) <= right
        assert count_in == 30 and count_out == 20

    def test_counts_sum_to_dataset_sizes(self):
        state, _, data = train_single_seed(tiny_config(seeds=[1]), 1)
        tables = histogram_report(ring_config(33), state, data, bins=12)
        for rows in tables.values():
            assert sum(r[2] for r in rows) == len(data.val)
            assert sum(r[3] for r in rows) == 33

    def test_min_distance_table_only_for_distance_heads(self):
        state = make_train_state([2], "softmax", 3, seed=0)
        in_data = gaussian_blobs(3, 2, 4.0, 0.5, 10, seed=1)
        tables = histogram_report(ring_config(20), state, unscaled(state, in_data), bins=5)
        assert "min_distance" not in tables
        assert "entropy" in tables

    def test_too_few_bins(self):
        state = make_train_state([2], "isomax", 3, seed=0)
        ds = gaussian_blobs(3, 2, 4.0, 0.5, 5, seed=1)
        with pytest.raises(ContractViolation):
            histogram_report(ring_config(5), state, unscaled(state, ds), bins=1)

    def test_needs_an_ood_spec_and_the_state_seed(self):
        state = make_train_state([2], "isomax", 3, seed=0)
        ds = gaussian_blobs(3, 2, 4.0, 0.5, 5, seed=1)
        with pytest.raises(ContractViolation, match="at least one OOD spec"):
            histogram_report(tiny_config(ood=[], score_kinds=[]), state,
                             unscaled(state, ds), bins=5)
        other = experiment.SeedData(1, ds, None, experiment.InputScaler.identity(2))
        with pytest.raises(ContractViolation, match="data of seed 1"):
            histogram_report(ring_config(5), state, other, bins=5)

    def test_csv_format(self, tmp_path):
        path = tmp_path / "hist.csv"
        write_histogram_csv([(0.0, 0.5, 3, 1), (0.5, 1.0, 0, 2)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,count_in,count_out"
        assert lines[1] == "0.0,0.5,3,1"


class TestScoreDump:
    def test_csv_rows(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_csv(path, [1.5, 2.0], [-0.25])
        lines = path.read_text().splitlines()
        assert lines[0] == "score,group"
        assert lines[1:] == ["1.5,in", "2.0,in", "-0.25,out"]


class TestCheckpoints:
    def trained_state(self, head="isomaxplus"):
        state, _, data = train_single_seed(tiny_config(head, seeds=[1]), 1)
        return state, data.val

    def test_round_trip_restores_bit_exact_inference(self, tmp_path):
        state, val = self.trained_state()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(state, path)
        restored = load_checkpoint(path)
        f0 = backbone_forward(state.backbone, val.inputs)
        f1 = backbone_forward(restored.backbone, val.inputs)
        np.testing.assert_array_equal(f0, f1)
        np.testing.assert_array_equal(
            heads.inference_probabilities(state.head, f0),
            heads.inference_probabilities(restored.head, f1))
        assert restored.seed == state.seed
        assert restored.epoch == state.epoch

    def test_save_load_save_identical_bytes(self, tmp_path):
        state, _ = self.trained_state()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(state, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_head_kind_is_typed_error(self, tmp_path):
        state, _ = self.trained_state("isomax")
        path = tmp_path / "ckpt.bin"
        save_checkpoint(state, path)
        with pytest.raises(CheckpointError, match="isomax"):
            load_checkpoint(path, expected_head_kind="softmax")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        state, _ = self.trained_state()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(state, path)
        clipped = tmp_path / "short.bin"
        clipped.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(clipped)

    @pytest.mark.parametrize("corrupt, match", [
        (lambda st: st.backbone.weights.__setitem__(1, st.backbone.weights[1][:, :5]),
         "backbone layer 1"),
        (lambda st: st.backbone.biases.__setitem__(0, st.backbone.biases[0][:3]),
         "backbone layer 0"),
        (lambda st: setattr(st.head, "prototypes", st.head.prototypes[:, :5]),
         "head dimension"),
        (lambda st: setattr(st.head, "prototypes", st.head.prototypes[:0]),
         "one row per class"),
        (lambda st: st.velocities.__setitem__("head.prototypes", np.zeros((2, 8))),
         "velocity.head.prototypes"),
        (lambda st: st.velocities.__setitem__("head.distance_scale", np.zeros(2)),
         "'velocity.head.distance_scale' has shape"),
        (lambda st: st.velocities.__setitem__("head.bogus", np.zeros(1)),
         "unexpected array"),
    ])
    def test_disagreeing_shapes_are_typed_errors(self, tmp_path, corrupt, match):
        state, _ = self.trained_state()
        corrupt(state)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(state, path)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_softmax_bias_must_match_weights(self, tmp_path):
        state, _ = self.trained_state("softmax")
        state.head.bias = state.head.bias[:2]
        path = tmp_path / "ckpt.bin"
        save_checkpoint(state, path)
        with pytest.raises(CheckpointError, match="head bias"):
            load_checkpoint(path)

    def test_renamed_array_is_typed_error(self, tmp_path):
        state, _ = self.trained_state()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(state, path)
        path.write_bytes(path.read_bytes().replace(b"head.prototypes", b"head.prototypez", 1))
        with pytest.raises(CheckpointError, match="no array 'head.prototypes'"):
            load_checkpoint(path)

    def test_oversized_header_shape_is_truncation(self, tmp_path):
        state, _ = self.trained_state()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(state, path)
        # magic, version, head kind, epoch, seed, config hash
        header = path.read_bytes()[:8 + 4 + 4 + len("isomaxplus") + 8 + 8 + 32]
        name = b"backbone.w0"
        path.write_bytes(header + struct.pack("<I", 1) + struct.pack("<I", len(name)) + name
                         + struct.pack("<I", 2) + struct.pack("<QQ", 2 ** 62, 2))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [(2 ** 62, 0), (0, 2 ** 64 - 1), (2 ** 31, 2 ** 31, 0)])
    def test_unindexable_shape_is_typed_error(self, tmp_path, shape):
        state, _ = self.trained_state()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(state, path)
        header = path.read_bytes()[:8 + 4 + 4 + len("isomaxplus") + 8 + 8 + 32]
        name = b"backbone.w0"
        path.write_bytes(header + struct.pack("<I", 1) + struct.pack("<I", len(name)) + name
                         + struct.pack("<I", len(shape)) + struct.pack(f"<{len(shape)}Q", *shape))
        with pytest.raises(CheckpointError, match="too large to index"):
            load_checkpoint(path)

    def test_softmax_round_trip(self, tmp_path):
        state, val = self.trained_state("softmax")
        path = tmp_path / "ckpt.bin"
        save_checkpoint(state, path)
        restored = load_checkpoint(path)
        f = backbone_forward(state.backbone, val.inputs)
        np.testing.assert_array_equal(heads.predict(state.head, f),
                                      heads.predict(restored.head, f))


class TestDivergence:
    def test_run_experiment_skips_each_diverged_seed_with_a_warning(self):
        report = run_experiment(diverging_config())
        assert report.per_seed == []
        assert report.aggregate == {"accuracy": None, "detection": []}
        assert len(report.warnings) == 2
        for seed, warning in zip((1, 2), report.warnings):
            assert warning.startswith(
                f"seed {seed}: training diverged: non-finite feature norms at epoch 1 batch ")
        validate_report(report.to_dict())

    def test_run_experiment_skips_a_seed_that_diverges_on_its_last_step(self):
        # One step per epoch: the update of the only step leaves finite
        # parameters whose features overflow.
        cfg = diverging_config()
        cfg.in_distribution["n_per_class"] = 20
        cfg.sgd.learning_rate = 1e308
        cfg.sgd.epochs = 1
        report = run_experiment(cfg)
        assert report.per_seed == []
        assert report.warnings == [
            f"seed {seed}: training diverged: non-finite features after the update of "
            f"epoch 1 batch 0" for seed in (1, 2)]
