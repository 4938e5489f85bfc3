"""Every function the benchmark traces must exist in the package, and
run where the benchmark reads it.

perfbench/spans.py names the functions it wraps in TRACED. A name that
no longer resolves is skipped there and its per-layer metrics are
reported absent, so a rename would silently drop a metric. A metric is
also absent when its function still exists but no longer runs where the
metric reads it (heads.training_loss inside model.sgd_step, say). The
file is read and executed here without importing it as a module, so
nothing is written under perfbench/.
"""

import importlib
import json
import types
from pathlib import Path

from oodkit import experiment
from oodkit.cli import cli_main

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def load_spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), vars(module))
    return module


def resolve(module_name: str, name: str):
    """The function spans.Tracer.install would wrap, or None."""
    module = importlib.import_module(f"oodkit.{module_name}")
    if "." in name:
        cls_name, attr = name.split(".")
        cls = getattr(module, cls_name, None)
        return vars(cls).get(attr) if isinstance(cls, type) else None
    return vars(module).get(name)


def test_every_traced_name_resolves_to_a_callable():
    traced = load_spans().TRACED
    assert traced
    missing = [f"{module_name}.{name}"
               for module_name, functions in traced.items()
               for name in functions
               if not callable(resolve(module_name, name))]
    assert missing == []


def test_no_traced_metric_is_absent(tmp_path, capsys):
    """A traced train, eval and gradcheck, as the benchmark's traced run
    makes them, yields every per-layer metric."""
    spans = load_spans()
    cfg = json.loads((ROOT / "configs" / "blobs_isomaxplus.json").read_text())
    cfg["sgd"].update(epochs=2, decay_epochs=[])
    cfg["in_distribution"]["n_per_class"] = 50
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    common = ["--config", str(path), "--out-dir", str(out)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.root("cli.train"):
            assert cli_main(["train", *common, "--seed", "1"]) == 0
        with tracer.root("cli.eval",
                         scores_needed=(1 + len(cfg["ood"])) * len(cfg["score_kinds"])):
            assert cli_main(["eval", *common,
                             "--checkpoint", str(out / "checkpoint_seed1.bin")]) == 0
        experiment.validate_report(json.loads((out / "report_seed1.json").read_text()))
        with tracer.root("cli.gradcheck"):
            assert cli_main(["gradcheck", "--instances", "1"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.missing == set()
    absent = set(spans.PER_LAYER_UNITS) - set(spans.per_layer_metrics(tracer))
    assert absent == {"trace_overhead"}
