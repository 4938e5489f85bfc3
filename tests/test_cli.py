"""End-to-end CLI tests through cli_main."""

import json

import pytest

from oodkit.cli import cli_main


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

    def test_help_exits_0(self, capsys):
        assert cli_main(["--help"]) == 0
        capsys.readouterr()


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
