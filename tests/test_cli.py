"""End-to-end CLI tests through cli_main."""

import ast
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oodkit import data, experiment
from oodkit.cli import cli_main
from oodkit.data import BatchStream
from oodkit.model import make_train_state

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def config_path(tmp_path):
    def write(head="isomaxplus", name="cfg.json", **overrides):
        cfg = {
            "head": head,
            "backbone_widths": [2, 8, 8],
            "in_distribution": {"kind": "blobs", "classes": 3, "dims": 2,
                                "centers_radius": 4.0, "sigma": 0.5,
                                "n_per_class": 40},
            "ood": [{"name": "ring", "kind": "ring", "inner_radius": 8.0,
                     "outer_radius": 12.0, "n": 60}],
            "score_kinds": (["min_distance", "entropic"] if head != "softmax"
                            else ["entropic"]),
            "seeds": [1],
            "sgd": {"epochs": 3, "batch_size": 16},
            "val_fraction": 0.25,
            "out_dir": str(tmp_path / "out"),
        }
        cfg.update(overrides)
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return path
    return write


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, capsys):
        assert cli_main(["train", "--nonsense"]) == 2
        capsys.readouterr()

    def test_missing_config_exits_2_with_path(self, capsys):
        code = cli_main(["train", "--config", "/no/such/config.json"])
        assert code == 2
        assert "/no/such/config.json" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["train", "--config", str(bad)]) == 2
        assert "bad.json" in capsys.readouterr().err

    def test_non_utf8_config_exits_2_with_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"head": "\xff"}')
        assert cli_main(["train", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: config {bad} ")

    def test_help_exits_0(self, capsys):
        assert cli_main(["--help"]) == 0
        capsys.readouterr()


RING = {"name": "ring", "kind": "ring", "inner_radius": 8.0, "outer_radius": 12.0, "n": 60}
BOX = {"name": "box", "kind": "uniform", "low": -12.0, "high": 12.0, "n": 60}
BLOBS = {"kind": "blobs", "classes": 3, "dims": 2, "centers_radius": 4.0, "sigma": 0.5,
         "n_per_class": 40}
BLOBS_REACH = ("blobs spec key 'sigma' must keep 4 * classes * n_per_class * dims * "
               "(|centers_radius| + 16 * sigma)**2 finite, got ")


def drop(section, key):
    def edit(cfg):
        target = cfg[section][0] if section == "ood" else cfg[section]
        del target[key]
        return cfg
    return edit


def update(section, **changes):
    def edit(cfg):
        cfg[section].update(changes)
        return cfg
    return edit


class TestMalformedConfig:
    @pytest.mark.parametrize("command, edit, message", [
        ("train", drop("in_distribution", "sigma"), "blobs spec is missing 'sigma'"),
        ("train", update("in_distribution", classes="four"),
         "blobs spec key 'classes' must be int, got 'four'"),
        ("train", lambda cfg: [cfg], "config must be a JSON object, got list"),
        ("train", update("sgd", nesterov=True), "unknown sgd keys: ['nesterov']"),
        ("train", lambda cfg: {**cfg, "seeds": None}, "seeds must be a list of ints, got None"),
        ("train", drop("ood", "inner_radius"), "ring spec is missing 'inner_radius'"),
        ("train", lambda cfg: {**cfg, "in_distribution": [1]},
         "in_distribution must be an object, got [1]"),
        ("train", update("sgd", epochs="two"), "sgd.epochs must be an int, got 'two'"),
        ("train", update("sgd", learning_rate="x"),
         "sgd.learning_rate must be a number, got 'x'"),
        ("train", lambda cfg: {**cfg, "ood": cfg["ood"][0]},
         "ood must be a list of objects, got {'name': 'ring', 'kind': 'ring', "
         "'inner_radius': 8.0, 'outer_radius': 12.0, 'n': 60}"),
        ("train", lambda cfg: {**cfg, "ood": [1]}, "ood must be a list of objects, got [1]"),
        ("train", lambda cfg: {**cfg, "seeds": ["a"]}, "seeds must be a list of ints, got ['a']"),
        ("train", lambda cfg: {**cfg, "backbone_widths": None},
         "backbone_widths must be a list of ints, got None"),
        ("train", lambda cfg: {**cfg, "entropic_scale": None},
         "entropic_scale must be a number, got None"),
        ("train", lambda cfg: {**cfg, "val_fraction": "a"},
         "val_fraction must be a number, got 'a'"),
        ("train", lambda cfg: {**cfg, "score_kinds": ["bogus"]},
         "score_kinds: 'bogus' is not a valid ScoreKind"),
        ("train", lambda cfg: {k: v for k, v in cfg.items() if k != "head"},
         "config is missing required key 'head'"),
    ], ids=["missing_sigma", "classes_four", "list_config", "unknown_sgd_key",
            "null_seeds", "ring_without_inner_radius", "in_distribution_list",
            "epochs_string", "learning_rate_string", "ood_object", "ood_entry_int",
            "seeds_string", "null_backbone_widths", "null_entropic_scale",
            "val_fraction_string", "unknown_score_kind", "missing_head"])
    def test_exits_1_with_one_line(self, config_path, tmp_path, capsys, command, edit,
                                   message):
        path = config_path()
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        argv = ["--config", str(path)]
        if command == "eval":
            # a bad OOD spec is only read once the OOD sets are built
            assert cli_main(["train", *argv]) == 0
            argv += ["--checkpoint", str(tmp_path / "out" / "checkpoint_seed1.bin")]
        capsys.readouterr()
        assert cli_main([command, *argv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


    @pytest.mark.parametrize("row, message", [
        ("x,0.5,1.5", "field 'label' must be int, got 'x'"),
        ("0,abc,1.5", "field 'f0' must be float, got 'abc'"),
    ], ids=["label_x", "value_abc"])
    def test_unparsable_csv_exits_1_with_one_line(self, config_path, tmp_path, capsys,
                                                  row, message):
        data = tmp_path / "data.csv"
        data.write_text(f"label,f0,f1\n{row}\n1,0.5,1.5\n")
        path = config_path(in_distribution={"kind": "csv", "path": str(data)})
        assert cli_main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {data}:2: {message}\n"

    def test_non_utf8_csv_exits_1_with_one_line(self, config_path, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(b"label,f0,f1\n0,0.5,1.5\n1,\xff,1.5\n")
        path = config_path(in_distribution={"kind": "csv", "path": str(data)})
        assert cli_main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {data}: byte 24 is not valid UTF-8\n"

    def test_idx_header_claiming_more_than_the_file_exits_1_with_one_line(
            self, config_path, tmp_path, capsys):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x0803, 50, 1000, 1000))
        labels.write_bytes(struct.pack(">II", 0x0801, 50))
        path = config_path(in_distribution={"kind": "idx", "images": str(images),
                                            "labels": str(labels)})
        assert cli_main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {images}: truncated, wanted 50000000 bytes at byte 16, got 0\n")

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("spec", [
        {"name": "ring", "kind": "ring", "inner_radius": 8.0, "outer_radius": 12.0, "n": -5},
        {"name": "box", "kind": "uniform", "low": -12.0, "high": 12.0, "n": -5},
    ], ids=["ring", "uniform"])
    def test_negative_ood_count_exits_1_with_one_line(self, config_path, tmp_path, capsys,
                                                      command, spec):
        path = config_path()
        argv = ["--config", str(path)]
        if command == "eval":
            assert cli_main(["train", *argv]) == 0
            argv += ["--checkpoint", str(tmp_path / "out" / "checkpoint_seed1.bin")]
        capsys.readouterr()
        config_path(ood=[spec])
        assert cli_main([command, *argv]) == 1
        assert capsys.readouterr().err == (
            f"error: {spec['kind']} spec key 'n' must be nonnegative, got -5\n")

    @pytest.mark.parametrize("overrides, message", [
        ({"in_distribution": {"kind": "blobs", "classes": 3, "dims": 2,
                              "centers_radius": 4.0, "sigma": 0.5, "n_per_class": 40,
                              "train_classes": "x"}},
         "blobs spec key 'train_classes' must be int, got 'x'"),
        ({"entropic_scale": float("inf")}, "entropic_scale must be a number, got inf"),
        ({"sgd": {"epochs": 3, "batch_size": 16, "learning_rate": float("nan")}},
         "sgd.learning_rate must be a number, got nan"),
    ], ids=["train_classes_string", "infinite_entropic_scale", "nan_learning_rate"])
    def test_rejected_before_training(self, config_path, capsys, monkeypatch, overrides,
                                      message):
        trained = []
        monkeypatch.setattr(experiment, "fit", lambda *args: trained.append(args))
        assert cli_main(["train", "--config", str(config_path(**overrides))]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert trained == []

    @pytest.mark.parametrize("overrides, message", [
        ({"ood": [{"kind": "ring", "inner_radius": 8.0, "outer_radius": 12.0, "n": 0}]},
         "ring spec key 'n' of an OOD set must be at least 1, got 0"),
        ({"ood": [{"name": "held", "kind": "heldout"}]},
         "an OOD spec of kind 'heldout' needs in_distribution.train_classes"),
        ({"in_distribution": {"kind": "blobs", "classes": 3, "dim": 3,
                              "centers_radius": 4.0, "sigma": 0.5, "n_per_class": 40}},
         "unknown blobs spec keys: ['dim']"),
        ({"ood": [{"name": "same", "kind": "ring", "inner_radius": 8.0,
                   "outer_radius": 12.0, "n": 60},
                  {"name": "same", "kind": "uniform", "low": -12.0, "high": 12.0, "n": 60}]},
         "OOD set name 'same' is used twice"),
        ({"ood": [{"name": "../x", "kind": "uniform", "low": -1.0, "high": 1.0, "n": 60}]},
         "OOD set name '../x' must be a plain file name component"),
        ({"ood": [{"name": "ring", "kind": "ring", "inner_radius": 8.0,
                   "outer_radius": 12.0, "n": 10**20}]},
         "ring spec key 'n' asks for more than 9223372036854775807 elements, "
         "got 100000000000000000000"),
    ], ids=["ood_n_zero", "heldout_without_train_classes", "blobs_dim_typo",
            "repeated_ood_name", "ood_name_with_slash", "ood_n_too_large"])
    def test_bad_data_spec_rejected_before_training(self, config_path, capsys, monkeypatch,
                                                    overrides, message):
        trained = []
        monkeypatch.setattr(experiment, "fit", lambda *args: trained.append(args))
        assert cli_main(["train", "--config", str(config_path(**overrides))]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert trained == []


    @pytest.mark.parametrize("overrides, message", [
        ({"ood": [{**RING, "dims": 3}]}, "ring spec key 'dims' must be 2, got 3"),
        ({"ood": [{**RING, "inner_radius": 12.0, "outer_radius": 8.0}]},
         "ring spec key 'outer_radius' must exceed inner_radius 12.0 with a finite square, "
         "got 8.0"),
        ({"ood": [{**RING, "outer_radius": 1e308}]},
         "ring spec key 'outer_radius' must exceed inner_radius 8.0 with a finite square, "
         "got 1e+308"),
        ({"ood": [{**BOX, "low": 12.0, "high": -12.0}]},
         "uniform spec key 'high' must exceed low 12.0 by a finite amount, got -12.0"),
        ({"ood": [{**BOX, "low": -1e308, "high": 1e308}]},
         "uniform spec key 'high' must exceed low -1e+308 by a finite amount, got 1e+308"),
        ({"ood": [{"name": "blobs", "kind": "blobs", "classes": 1, "centers_radius": 4.0,
                   "sigma": 0.5, "n_per_class": 20}]},
         "blobs spec key 'classes' must give at least 2 classes, got 1"),
        ({"ood": [{**BOX, "dims": 1}]},
         "uniform spec key 'dims' must match the backbone input width 2, got 1"),
        ({"ood": [{**BOX, "dims": 3}]},
         "uniform spec key 'dims' must match the backbone input width 2, got 3"),
        ({"ood": [{**BOX, "n": 2**61}]},
         "uniform spec key 'n' asks for more than 9223372036854775807 bytes, "
         "got 2305843009213693952"),
        ({"backbone_widths": [2, 2**62]},
         "backbone_widths asks for more than 9223372036854775807 elements, "
         "got [2, 4611686018427387904]"),
        ({"backbone_widths": [2, 2**61]},
         "backbone_widths asks for more than 9223372036854775807 bytes, "
         "got [2, 2305843009213693952]"),
        # Sets whose coordinates overflow once squared.
        ({"in_distribution": {**BLOBS, "sigma": 1e200}}, BLOBS_REACH + "1e+200"),
        ({"ood": [{**BOX, "low": -1e200, "high": 1e200}]},
         "uniform spec key 'high' must keep 4 * n * dims * max(|low|, |high|)**2 finite, "
         "got 1e+200"),
        ({"ood": [{**BLOBS, "name": "blobs", "classes": 2, "sigma": 1e308,
                   "n_per_class": 20}]}, BLOBS_REACH + "1e+308"),
    ], ids=["ring_dims_3", "ring_radii_swapped", "ring_square_overflows", "box_low_above_high",
            "box_range_overflows", "ood_blobs_one_class", "box_dims_1", "box_dims_3",
            "box_bytes_too_many", "layer_elements_too_many", "layer_bytes_too_many",
            "in_distribution_sigma_1e200", "box_1e200", "ood_blobs_sigma_1e308"])
    def test_what_eval_would_reject_is_rejected_before_training(
            self, config_path, tmp_path, capsys, monkeypatch, overrides, message):
        trained = []
        monkeypatch.setattr(experiment, "fit", lambda *args: trained.append(args))
        assert cli_main(["train", "--config", str(config_path(**overrides))]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert trained == []
        assert not (tmp_path / "out").exists()

    def test_training_file_that_overflows_the_scaler_is_rejected_before_training(
            self, config_path, tmp_path, capsys, monkeypatch):
        # Each value is finite, but their sum is not.
        path = tmp_path / "huge.csv"
        data.write_csv(data.Dataset(np.full((40, 2), 1e307), np.arange(40) % 2), path)
        trained = []
        monkeypatch.setattr(experiment, "fit", lambda *args: trained.append(args))
        cfg = config_path(in_distribution={"kind": "csv", "path": str(path)})
        assert cli_main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: input coordinate 0 of the training split overflows the scaler: "
            "mean inf, scale inf\n")
        assert trained == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "hist"])
    def test_ood_file_of_another_width_exits_1_with_one_line(self, config_path, tmp_path,
                                                             capsys, command):
        ood = tmp_path / "ood.csv"
        data.write_csv(data.Dataset([[0.0, 1.0, 2.0]], [0]), ood)
        path = config_path(ood=[{"name": "file", "kind": "csv", "path": str(ood)}])
        assert cli_main(["train", "--config", str(path)]) == 0
        capsys.readouterr()
        assert cli_main([command, "--config", str(path),
                         "--checkpoint", str(tmp_path / "out" / "checkpoint_seed1.bin")]) == 1
        assert capsys.readouterr().err == (
            "error: inputs of width 3 do not match the training split's width 2\n")

    @pytest.mark.parametrize("val_fraction, train_rows, val_rows",
                             [(0.0, 120, 0), (0.9999, 0, 120)], ids=["no_val", "no_train"])
    def test_empty_split_exits_1_with_one_line_before_training(
            self, config_path, tmp_path, capsys, monkeypatch, val_fraction, train_rows,
            val_rows):
        trained = []
        monkeypatch.setattr(experiment, "fit", lambda *args: trained.append(args))
        path = config_path(val_fraction=val_fraction)
        assert cli_main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: val_fraction {val_fraction!r} splits 120 rows into {train_rows} "
            f"training and {val_rows} validation rows; each split needs at least one\n")
        assert trained == []
        assert not (tmp_path / "out" / "checkpoint_seed1.bin").exists()

    def test_seed_a_checkpoint_cannot_hold_is_rejected_before_training(
            self, config_path, capsys, monkeypatch):
        trained = []
        monkeypatch.setattr(experiment, "fit", lambda *args: trained.append(args))
        assert cli_main(["train", "--config", str(config_path()), "--seed", str(2**63)]) == 1
        assert capsys.readouterr().err == (
            "error: seeds must be at most 9223372036854775807, the largest a checkpoint "
            "holds, got [9223372036854775808]\n")
        assert trained == []

    def test_out_of_memory_exits_1_with_one_line(self, config_path, capsys, monkeypatch):
        # A set too large for memory, faked: a real one could get the test
        # process killed on a machine that overcommits memory.
        def out_of_memory(**args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setitem(data.SPEC_KINDS, "blobs", (out_of_memory, data.SPEC_KINDS["blobs"][1]))
        assert cli_main(["train", "--config", str(config_path())]) == 1
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 7.28 TiB for an array\n")


class TestPublicApiOnly:
    def test_cli_reads_no_private_name_of_an_oodkit_module(self):
        tree = ast.parse((SRC / "oodkit" / "cli.py").read_text(encoding="utf-8"))
        relative = [node for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1]
        modules = {alias.asname or alias.name
                   for node in relative if node.module is None for alias in node.names}
        assert "experiment" in modules
        private = [alias.name for node in relative for alias in node.names
                   if alias.name.startswith("_")]
        private += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.attr.startswith("_")]
        assert private == []

    def test_eval_and_hist_build_no_batch_stream(self, config_path, tmp_path, capsys,
                                                 monkeypatch):
        cfg = config_path()
        assert cli_main(["train", "--config", str(cfg)]) == 0
        built = []
        original = BatchStream.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(BatchStream, "__init__", counting)
        ckpt = str(tmp_path / "out" / "checkpoint_seed1.bin")
        assert cli_main(["eval", "--config", str(cfg), "--checkpoint", ckpt]) == 0
        assert cli_main(["hist", "--config", str(cfg), "--checkpoint", ckpt]) == 0
        assert built == []
        assert cli_main(["train", "--config", str(cfg)]) == 0
        assert built == [1]
        capsys.readouterr()


@pytest.mark.parametrize("argv", [["--help"], ["gradcheck", "--instances", "1"]])
def test_module_entry_point_keeps_stderr_empty(argv):
    result = subprocess.run(
        [sys.executable, "-m", "oodkit.cli", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


class TestTrainEval:
    def test_train_then_eval_reproduces_accuracy(self, config_path, tmp_path, capsys):
        cfg = config_path()
        assert cli_main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        ckpt = out / "checkpoint_seed1.bin"
        assert ckpt.exists()
        summary = json.loads((out / "train_summary_seed1.json").read_text())

        assert cli_main(["eval", "--config", str(cfg),
                         "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        report = json.loads((out / "report_seed1.json").read_text())
        assert report["per_seed"][0]["accuracy"] == summary["val_accuracy"]
        # score dumps written for every (ood, kind) pair
        assert (out / "scores_seed1_ring_min_distance.csv").exists()
        assert (out / "scores_seed1_ring_entropic.csv").exists()

    def test_renamed_checkpoint_array_exits_1_with_one_line(self, config_path, tmp_path,
                                                             capsys):
        cfg = config_path()
        assert cli_main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "out" / "checkpoint_seed1.bin"
        ckpt.write_bytes(ckpt.read_bytes().replace(b"head.prototypes", b"head.prototypez", 1))
        assert cli_main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "head.prototypes" in err

    @pytest.mark.parametrize("corrupt", [
        lambda b: b"X" + b[1:],
        lambda b: b[:8] + struct.pack("<I", 2) + b[12:],
        lambda b: b[:16] + b"I" + b[17:],
        # the top byte of the seed, after magic, version, head kind and epoch
        lambda b: b[:41] + bytes([b[41] | 0x80]) + b[42:],
        lambda b: b[:-1],
        lambda b: b + b"\x00",
    ], ids=["magic", "version", "head_kind", "negative_seed", "truncated", "trailing_byte"])
    def test_broken_checkpoint_exits_1_with_the_load_error(self, config_path, tmp_path,
                                                           capsys, corrupt):
        cfg = config_path()
        assert cli_main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "out" / "checkpoint_seed1.bin"
        ckpt.write_bytes(corrupt(ckpt.read_bytes()))
        with pytest.raises(experiment.CheckpointError) as info:
            experiment.load_checkpoint(ckpt)
        capsys.readouterr()
        assert cli_main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 1
        assert capsys.readouterr() == ("", f"error: {info.value}\n")

    def test_unindexable_checkpoint_shape_exits_1_with_one_line(self, config_path, tmp_path,
                                                                capsys):
        cfg = config_path()
        assert cli_main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "out" / "checkpoint_seed1.bin"
        # magic, version, head kind, epoch, seed, config hash; then one empty
        # array whose other dimension numpy cannot index
        header = ckpt.read_bytes()[:8 + 4 + 4 + len("isomaxplus") + 8 + 8 + 32]
        name = b"backbone.w0"
        ckpt.write_bytes(header + struct.pack("<II", 1, len(name)) + name
                         + struct.pack("<IQQ", 2, 2 ** 62, 0))
        assert cli_main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 1
        assert capsys.readouterr().err == (
            "error: array 'backbone.w0' has shape (4611686018427387904, 0), "
            "too large to index\n")

    def test_trace_has_epoch_rows(self, config_path, tmp_path, capsys):
        cfg = config_path()
        assert cli_main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        trace = (tmp_path / "out" / "trace_seed1.csv").read_text().splitlines()
        assert trace[0] == "epoch,learning_rate,mean_loss,train_accuracy"
        assert len(trace) == 4  # header + 3 epochs

    def test_seed_override(self, config_path, tmp_path, capsys):
        cfg = config_path()
        assert cli_main(["train", "--config", str(cfg), "--seed", "9"]) == 0
        capsys.readouterr()
        assert (tmp_path / "out" / "checkpoint_seed9.bin").exists()


class TestConfigHashMismatch:
    @pytest.mark.parametrize("command", ["eval", "hist"])
    def test_prints_one_warning_line_and_exits_0(self, config_path, tmp_path, capsys,
                                                 command):
        assert cli_main(["train", "--config", str(config_path())]) == 0
        ckpt = str(tmp_path / "out" / "checkpoint_seed1.bin")
        other = config_path(name="other.json", entropic_scale=5.0)
        capsys.readouterr()
        assert cli_main([command, "--config", str(config_path()), "--checkpoint", ckpt]) == 0
        assert capsys.readouterr().err == ""
        assert cli_main([command, "--config", str(other), "--checkpoint", ckpt]) == 0
        assert capsys.readouterr().err == (
            "warning: checkpoint config hash does not match the supplied config\n")


class TestCompare:
    def test_compare_writes_comparison(self, config_path, tmp_path, capsys):
        a = config_path(head="softmax", name="a.json")
        b = config_path(head="isomaxplus", name="b.json",
                        score_kinds=["min_distance"])
        assert cli_main(["compare", "--config", str(a), "--config", str(b)]) == 0
        printed = capsys.readouterr().out
        assert "accuracy softmax" in printed
        comparison = json.loads((tmp_path / "out" / "comparison.json").read_text())
        assert comparison["baseline_head"] == "softmax"
        assert [c["head"] for c in comparison["columns"]] == ["softmax", "isomaxplus"]


class TestHist:
    def test_hist_writes_csvs(self, config_path, tmp_path, capsys):
        cfg = config_path()
        assert cli_main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "out" / "checkpoint_seed1.bin"
        assert cli_main(["hist", "--config", str(cfg), "--checkpoint", str(ckpt),
                         "--bins", "8"]) == 0
        capsys.readouterr()
        entropy = (tmp_path / "out" / "hist_entropy_seed1.csv").read_text().splitlines()
        assert entropy[0] == "bin_left,bin_right,count_in,count_out"
        assert len(entropy) == 9
        assert (tmp_path / "out" / "hist_min_distance_seed1.csv").exists()


class TestGradcheckCommand:
    def test_exits_zero_and_reports_error(self, capsys):
        assert cli_main(["gradcheck", "--instances", "5", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert "OK" in out

    @pytest.mark.parametrize("argv, message", [
        (["--instances", "0"], "instances must be at least 1, got 0"),
        (["--instances", "-3"], "instances must be at least 1, got -3"),
        (["--seed", "-1"], "seed must be nonnegative, got -1"),
    ], ids=["zero_instances", "negative_instances", "negative_seed"])
    def test_bad_bounds_exit_1_with_one_line(self, capsys, argv, message):
        assert cli_main(["gradcheck", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


class TestDivergence:
    @pytest.mark.filterwarnings("error")
    def test_diverged_training_exits_1_with_one_line(self, tmp_path, capsys):
        cfg = json.loads((Path(__file__).resolve().parent.parent
                          / "configs" / "blobs_isomaxplus.json").read_text())
        cfg["sgd"].update(learning_rate=1e6, epochs=2, decay_epochs=[])
        cfg.update(seeds=[1, 2], out_dir=str(tmp_path / "out"))
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        # The feature norms overflow under isomaxplus before the features do.
        assert err.startswith("error: non-finite feature norms at epoch 1 batch ")

    def test_divergence_on_the_last_step_writes_no_checkpoint(self, tmp_path, capsys):
        # One step per epoch: the update of the only step leaves finite
        # parameters whose features overflow.
        cfg = json.loads((Path(__file__).resolve().parent.parent
                          / "configs" / "blobs_isomaxplus.json").read_text())
        cfg["in_distribution"]["n_per_class"] = 20
        cfg["sgd"].update(learning_rate=1e308, epochs=1, decay_epochs=[])
        cfg.update(seeds=[1], out_dir=str(tmp_path / "out"))
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: non-finite features after the update of epoch 1 batch 0\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scale, message", [
        (None, "features contains non-finite entries"),
        # Finite features whose squared row norms overflow: isomaxplus
        # would score zero vectors.
        (1e160, "features have a row whose squared norm overflows float64"),
    ], ids=["features_overflow", "feature_norms_overflow"])
    @pytest.mark.parametrize("command", ["eval", "hist"])
    def test_overflowing_checkpoint_exits_1_with_one_line(self, config_path, tmp_path,
                                                          capsys, command, scale, message):
        path = config_path()
        cfg = experiment.ExperimentConfig.from_dict(json.loads(path.read_text()))
        state = make_train_state(cfg.backbone_widths, cfg.head, 3, 1)
        if scale is None:
            state.backbone.weights[0][...] = 1e308
        else:
            state.backbone.weights[0][...] *= scale
            state.backbone.biases[0][...] *= scale
        state.config_hash = cfg.config_hash()
        experiment.save_checkpoint(state, tmp_path / "ckpt.bin")
        assert cli_main([command, "--config", str(path),
                         "--checkpoint", str(tmp_path / "ckpt.bin")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
