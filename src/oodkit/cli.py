"""Command line interface.

Subcommands: train, eval, compare, hist, gradcheck. All experiment
configuration comes from a JSON config file; --seed and --out-dir
override the config in place. Exit codes: 0 success, 2 usage problems
(bad flags, unreadable config), 1 anything else, with a one-line
diagnostic on stderr. eval and hist go on with a checkpoint trained
under another config, after one warning line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import experiment, gradcheck, heads, metrics
from .data import IdxParseError
from .experiment import CheckpointError, ExperimentConfig
from .model import TrainingDiverged, backbone_forward
from .numerics import ContractViolation

GRADCHECK_TOLERANCE = 1e-4


class _UsageError(Exception):
    pass


def _load_config(path: str, args) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise _UsageError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if isinstance(raw, dict):  # from_dict rejects anything else in one line
        if getattr(args, "seed", None) is not None:
            raw["seeds"] = [args.seed]
        if getattr(args, "out_dir", None) is not None:
            raw["out_dir"] = args.out_dir
    return ExperimentConfig.from_dict(raw)


def _load_checkpoint(path: str, cfg: ExperimentConfig, expected_head_kind=None):
    """load_checkpoint, with one stderr line if the checkpoint was trained
    under another config; the command still goes on."""
    state = experiment.load_checkpoint(path, expected_head_kind)
    if state.config_hash != cfg.config_hash():
        print("warning: checkpoint config hash does not match the supplied config",
              file=sys.stderr)
    return state


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_train(args) -> int:
    cfg = _load_config(args.config, args)
    seed = cfg.seeds[0]
    state, trace, data = experiment.train_single_seed(cfg, seed)
    out = _out_dir(cfg)
    ckpt_path = out / f"checkpoint_seed{seed}.bin"
    experiment.save_checkpoint(state, ckpt_path)
    with open(out / f"trace_seed{seed}.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(
            f, fieldnames=["epoch", "learning_rate", "mean_loss", "train_accuracy"])
        writer.writeheader()
        writer.writerows(trace)
    # An overflow shows up as a ContractViolation, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        features = backbone_forward(state.backbone, data.val.inputs)
        logits = heads.head_outputs(state.head, features).logits
        accuracy = metrics.classification_accuracy(np.argmax(logits, axis=1),
                                                   data.val.targets)
    summary = {"seed": seed, "val_accuracy": accuracy,
               "checkpoint": str(ckpt_path), "epochs": cfg.sgd.epochs}
    with open(out / f"train_summary_seed{seed}.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")
    print(f"trained seed {seed}: val_accuracy={accuracy!r} checkpoint={ckpt_path}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_config(args.config, args)
    state = _load_checkpoint(args.checkpoint, cfg, expected_head_kind=cfg.head)
    seed = state.seed
    record, dumps = experiment.evaluate_checkpoint(
        cfg, state, experiment.seed_data(cfg, seed)[1])
    report = experiment.Report.from_records(cfg, [record], [], 0.0)
    out = _out_dir(cfg)
    report_path = out / f"report_seed{seed}.json"
    with open(report_path, "w", encoding="utf-8") as f:
        f.write(report.to_json())
    for name, kind, in_scores, out_scores in dumps:
        experiment.write_scores_csv(
            out / f"scores_seed{seed}_{name}_{kind}.csv", in_scores, out_scores)
    print(f"evaluated seed {seed}: accuracy={record['accuracy']!r} report={report_path}")
    return 0


def _cmd_compare(args) -> int:
    cfgs = [_load_config(path, args) for path in args.config]
    comparison = experiment.compare_heads(cfgs)
    out = _out_dir(cfgs[0])
    path = out / "comparison.json"
    with open(path, "w", encoding="utf-8") as f:
        f.write(comparison.to_json())
    for row in comparison.accuracy:
        print(f"accuracy {row['head']}: {row['mean']:.4f} +/- {row['std']:.4f}")
    for block in comparison.detection:
        cells = "  ".join(
            f"{c['head']}/{c['score']}={c['mean']:.4f}" for c in block["cells"])
        print(f"{block['ood']} {block['metric']}: {cells}")
    if comparison.accuracy_drop_flags:
        for flag in comparison.accuracy_drop_flags:
            print(f"accuracy drop flag: {flag['head']} trails softmax "
                  f"by {flag['drop_pp']:.2f} pp")
    else:
        print("no accuracy drop flags")
    print(f"comparison written to {path}")
    return 0


def _cmd_hist(args) -> int:
    cfg = _load_config(args.config, args)
    state = _load_checkpoint(args.checkpoint, cfg)
    seed = state.seed
    tables = experiment.histogram_report(
        cfg, state, experiment.seed_data(cfg, seed)[1], args.bins)
    out = _out_dir(cfg)
    for name, rows in tables.items():
        path = out / f"hist_{name}_seed{seed}.csv"
        experiment.write_histogram_csv(rows, path)
        print(f"wrote {path}")
    return 0


def _cmd_gradcheck(args) -> int:
    results = gradcheck.run_suite(instances=args.instances, seed=args.seed)
    worst = max(results.values())
    for name, err in results.items():
        print(f"{name}: max relative error {err:.3e}")
    print(f"overall max relative error {worst:.3e} "
          f"({'OK' if worst <= GRADCHECK_TOLERANCE else 'FAIL'}, "
          f"tolerance {GRADCHECK_TOLERANCE:.0e})")
    return 0 if worst <= GRADCHECK_TOLERANCE else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oodkit",
        description="Train classification heads and evaluate OOD detection.")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train one seed, write checkpoint and trace")
    train.add_argument("--config", required=True)
    train.add_argument("--seed", type=int, default=None)
    train.add_argument("--out-dir", default=None)
    train.set_defaults(func=_cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint, write report and score dumps")
    ev.add_argument("--config", required=True)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--out-dir", default=None)
    ev.set_defaults(func=_cmd_eval)

    comp = sub.add_parser("compare", help="run several configs and compare heads")
    comp.add_argument("--config", action="append", required=True,
                      help="repeat once per config file")
    comp.add_argument("--out-dir", default=None)
    comp.set_defaults(func=_cmd_compare)

    hist = sub.add_parser("hist", help="entropy / distance histograms from a checkpoint")
    hist.add_argument("--config", required=True)
    hist.add_argument("--checkpoint", required=True)
    hist.add_argument("--bins", type=int, default=30)
    hist.add_argument("--out-dir", default=None)
    hist.set_defaults(func=_cmd_hist)

    grad = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    grad.add_argument("--instances", type=int, default=100)
    grad.add_argument("--seed", type=int, default=0)
    grad.set_defaults(func=_cmd_gradcheck)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage or help; map to our exit codes.
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContractViolation, CheckpointError, IdxParseError,
            TrainingDiverged, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
