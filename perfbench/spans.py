"""Span tracing from outside the package, and the per-layer metrics.

`Tracer.install` wraps public oodkit functions in place: each wrapped
call records a span (name, start, end, parent) in memory. A function is
rebound everywhere it is bound, found by scanning every loaded oodkit
module for the same function object, so a module that imported it by
name (as `heads` does with `pairwise_euclidean`) calls the wrapper too.
`uninstall` puts the originals back. A name that no longer exists is
skipped and every metric that needs it is reported absent.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import sys
import time

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _pairwise_bytes(args, kwargs, result):
    # The n x c x d float64 difference tensor, computed from the shapes:
    # a count of bytes the kernel touches, not a measurement.
    n, d = np.shape(_arg(args, kwargs, 0, "a"))
    c = np.shape(_arg(args, kwargs, 1, "b"))[0]
    return n * c * d * 8


def _elements(args, kwargs, result):
    return np.size(_arg(args, kwargs, 0, "values"))


def _file_bytes(index, name):
    def measure(args, kwargs, result):
        return os.path.getsize(_arg(args, kwargs, index, name))
    return measure


def _batches(args, kwargs, result):
    return len(result)


# module -> {public name: quantity recorded per call, or None}.
# "Class.method" names a method, patched on its class.
TRACED = {
    "data": {"dataset_from_spec": None, "BatchStream.for_epoch": _batches},
    "model": {"fit": None, "sgd_step": None, "backbone_forward": None,
              "backbone_backward": None, "nesterov_update": None},
    "heads": {"training_loss": None, "backward": None, "predict": None,
              "inference_probabilities": None,
              "feature_prototype_distances": None},
    "numerics": {"as_matrix": _elements, "pairwise_euclidean": _pairwise_bytes,
                 "stable_softmax_rows": None, "shannon_entropy_rows": None},
    "scores": {"compute_score": None},
    "metrics": {"auroc": None, "tnr_at_tpr95": None, "dtacc": None},
    "experiment": {"save_checkpoint": _file_bytes(1, "path"),
                   "load_checkpoint": None,
                   "write_scores_csv": _file_bytes(0, "path"),
                   "validate_report": None},
    "gradcheck": {"run_suite": None, "finite_difference": None},
}


def span_name(module: str, name: str) -> str:
    return f"{module}.{name.rsplit('.', 1)[-1]}"


class Tracer:
    """In-memory spans; one list entry per field, indexed by span id."""

    def __init__(self):
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.quantities = {}
        self.meta = {}
        self._stack = [-1]
        self._patches = []
        self.missing = set()

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int):
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, **meta):
        """A span the benchmark opens itself, with metadata for the metrics."""
        index = self._open(name)
        self.meta[index] = meta
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn, quantity):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if quantity is not None:
                tracer.quantities[index] = quantity(args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "oodkit" or n.startswith("oodkit."))]
        for module_name, functions in TRACED.items():
            module = sys.modules.get(f"oodkit.{module_name}")
            for name, quantity in functions.items():
                full = span_name(module_name, name)
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name, None)
                    fn = vars(cls).get(attr) if isinstance(cls, type) else None
                    if not callable(fn):
                        self.missing.add(full)
                        continue
                    setattr(cls, attr, self._wrap(full, fn, quantity))
                    self._patches.append((cls, attr, fn))
                    continue
                fn = vars(module).get(name) if module is not None else None
                if not callable(fn):
                    self.missing.add(full)
                    continue
                wrapper = self._wrap(full, fn, quantity)
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapper)
                            self._patches.append((other, key, fn))

    def uninstall(self):
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches.clear()


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> unit; the order is the order of BENCHMARK.json's per_layer list.
PER_LAYER_UNITS = {
    "data.dataset_from_spec.s": "s/eval",
    "data.for_epoch.s": "s/train",
    "data.for_epoch.batches": "count/train",
    "model.sgd_step.calls": "count/train",
    "model.sgd_step.self_us": "us",
    "model.backbone_backward.us": "us",
    "model.nesterov_update.us_per_step": "us",
    "model.epoch_end.s": "s/train",
    "heads.training_loss.us": "us",
    "heads.backward.us": "us",
    "heads.training_loss.calls": "count/gradcheck",
    "heads.predict.s": "s/eval",
    "heads.inference_probabilities.s": "s/eval",
    "heads.feature_prototype_distances.calls": "count/eval",
    "numerics.pairwise_euclidean.calls": "count/eval",
    "numerics.pairwise_euclidean.s": "s/eval",
    "numerics.pairwise_euclidean.bytes_computed": "B/eval",
    "numerics.as_matrix.calls_per_step": "count",
    "numerics.as_matrix.elements": "count/step",
    "numerics.stable_softmax_rows.s": "s/eval",
    "numerics.shannon_entropy_rows.s": "s/eval",
    "scores.compute_score.calls_per_eval": "count",
    "scores.compute_score.s": "s/eval",
    "scores.useful_ratio": "ratio",
    "metrics.rank.s": "s/eval",
    "experiment.write_scores_csv.s": "s/eval",
    "experiment.write_scores_csv.bytes": "B/eval",
    "experiment.save_checkpoint.s": "s/train",
    "experiment.save_checkpoint.bytes": "B/train",
    "experiment.load_checkpoint.s": "s/eval",
    "experiment.validate_report.s": "s/eval",
    "gradcheck.run_suite.s": "s/gradcheck",
    "gradcheck.finite_difference.calls": "count/gradcheck",
    "cli.self_s": "s/op",
    "trace_overhead": "ratio",
}

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = ("model.sgd_step.calls", "scores.compute_score.calls_per_eval",
                "numerics.pairwise_euclidean.calls",
                "gradcheck.finite_difference.calls")


def per_layer_metrics(t: Tracer) -> dict:
    """Per-layer values from the recorded spans. A metric is absent when
    a span name it reads is missing from the package or nothing of its
    kind ran."""
    n = len(t.names)
    durations = [t.ends[i] - t.starts[i] for i in range(n)]
    child_time = [0.0] * n
    root = list(range(n))
    in_step = [False] * n
    by_name = {}
    for i in range(n):
        p = t.parents[i]
        if p >= 0:
            child_time[p] += durations[i]
            root[i] = root[p]
            in_step[i] = in_step[p] or t.names[p] == "model.sgd_step"
        by_name.setdefault(t.names[i], []).append(i)

    def spans(name, under=None, step=None, parent=None):
        return [i for i in by_name.get(name, [])
                if (under is None or t.names[root[i]] == under)
                and (step is None or in_step[i] == step)
                and (parent is None or (t.parents[i] >= 0
                                        and t.names[t.parents[i]] == parent))]

    ops = {kind: [i for i in by_name.get(f"cli.{kind}", []) if t.parents[i] < 0]
           for kind in ("train", "eval", "gradcheck")}
    steps = by_name.get("model.sgd_step", [])

    def total(indices, quantity=False):
        if quantity:
            return sum(t.quantities.get(i, 0) for i in indices)
        return sum(durations[i] for i in indices)

    def per(kind, value):
        return value / len(ops[kind]) if ops[kind] else None

    def per_step(value):
        return value / len(steps) if steps else None

    def median_us(indices, self_time=False):
        if not indices:
            return None
        return 1e6 * statistics.median(
            durations[i] - (child_time[i] if self_time else 0.0) for i in indices)

    def in_eval(name, quantity=False):
        return per("eval", total(spans(name, under="cli.eval"), quantity))

    def in_train(name, quantity=False):
        return per("train", total(spans(name, under="cli.train"), quantity))

    def useful_ratio():
        calls = spans("scores.compute_score", under="cli.eval")
        needed = sum(t.meta[i].get("scores_needed", 0) for i in ops["eval"])
        return needed / len(calls) if calls else None

    def cli_self():
        roots = [i for indices in ops.values() for i in indices]
        if not roots:
            return None
        return sum(durations[i] - child_time[i] for i in roots) / len(roots)

    rank = ("metrics.auroc", "metrics.tnr_at_tpr95", "metrics.dtacc")
    step_names = ("model.sgd_step",)
    # metric -> (span names it reads, how to compute it)
    table = {
        "data.dataset_from_spec.s": (
            ("data.dataset_from_spec",), lambda: in_eval("data.dataset_from_spec")),
        "data.for_epoch.s": (("data.for_epoch",), lambda: in_train("data.for_epoch")),
        "data.for_epoch.batches": (
            ("data.for_epoch",), lambda: in_train("data.for_epoch", quantity=True)),
        "model.sgd_step.calls": (
            step_names, lambda: per("train", len(spans("model.sgd_step", under="cli.train")))),
        "model.sgd_step.self_us": (step_names, lambda: median_us(steps, self_time=True)),
        "model.backbone_backward.us": (
            step_names + ("model.backbone_backward",),
            lambda: median_us(spans("model.backbone_backward", step=True))),
        "model.nesterov_update.us_per_step": (
            step_names + ("model.nesterov_update",),
            lambda: per_step(1e6 * total(spans("model.nesterov_update", step=True)))),
        "model.epoch_end.s": (
            ("model.fit", "model.backbone_forward", "heads.predict"),
            lambda: per("train", total(spans("model.backbone_forward", parent="model.fit")
                                       + spans("heads.predict", parent="model.fit")))),
        "heads.training_loss.us": (
            step_names + ("heads.training_loss",),
            lambda: median_us(spans("heads.training_loss", step=True))),
        "heads.backward.us": (
            step_names + ("heads.backward",),
            lambda: median_us(spans("heads.backward", step=True))),
        "heads.training_loss.calls": (
            ("heads.training_loss",),
            lambda: per("gradcheck", len(spans("heads.training_loss", under="cli.gradcheck")))),
        "heads.predict.s": (("heads.predict",), lambda: in_eval("heads.predict")),
        "heads.inference_probabilities.s": (
            ("heads.inference_probabilities",),
            lambda: in_eval("heads.inference_probabilities")),
        "heads.feature_prototype_distances.calls": (
            ("heads.feature_prototype_distances",),
            lambda: per("eval", len(spans("heads.feature_prototype_distances",
                                          under="cli.eval")))),
        "numerics.pairwise_euclidean.calls": (
            ("numerics.pairwise_euclidean",),
            lambda: per("eval", len(spans("numerics.pairwise_euclidean", under="cli.eval")))),
        "numerics.pairwise_euclidean.s": (
            ("numerics.pairwise_euclidean",), lambda: in_eval("numerics.pairwise_euclidean")),
        "numerics.pairwise_euclidean.bytes_computed": (
            ("numerics.pairwise_euclidean",),
            lambda: in_eval("numerics.pairwise_euclidean", quantity=True)),
        "numerics.as_matrix.calls_per_step": (
            step_names + ("numerics.as_matrix",),
            lambda: per_step(len(spans("numerics.as_matrix", step=True)))),
        "numerics.as_matrix.elements": (
            step_names + ("numerics.as_matrix",),
            lambda: per_step(total(spans("numerics.as_matrix", step=True), quantity=True))),
        "numerics.stable_softmax_rows.s": (
            ("numerics.stable_softmax_rows",), lambda: in_eval("numerics.stable_softmax_rows")),
        "numerics.shannon_entropy_rows.s": (
            ("numerics.shannon_entropy_rows",),
            lambda: in_eval("numerics.shannon_entropy_rows")),
        "scores.compute_score.calls_per_eval": (
            ("scores.compute_score",),
            lambda: per("eval", len(spans("scores.compute_score", under="cli.eval")))),
        "scores.compute_score.s": (
            ("scores.compute_score",), lambda: in_eval("scores.compute_score")),
        "scores.useful_ratio": (("scores.compute_score",), useful_ratio),
        "metrics.rank.s": (
            rank, lambda: per("eval", sum(total(spans(name, under="cli.eval"))
                                          for name in rank))),
        "experiment.write_scores_csv.s": (
            ("experiment.write_scores_csv",), lambda: in_eval("experiment.write_scores_csv")),
        "experiment.write_scores_csv.bytes": (
            ("experiment.write_scores_csv",),
            lambda: in_eval("experiment.write_scores_csv", quantity=True)),
        "experiment.save_checkpoint.s": (
            ("experiment.save_checkpoint",), lambda: in_train("experiment.save_checkpoint")),
        "experiment.save_checkpoint.bytes": (
            ("experiment.save_checkpoint",),
            lambda: in_train("experiment.save_checkpoint", quantity=True)),
        "experiment.load_checkpoint.s": (
            ("experiment.load_checkpoint",), lambda: in_eval("experiment.load_checkpoint")),
        # The CLI's eval does not validate its report; the benchmark's
        # output check does, once per evaluation, outside the eval span.
        "experiment.validate_report.s": (
            ("experiment.validate_report",),
            lambda: per("eval", total(spans("experiment.validate_report")))),
        "gradcheck.run_suite.s": (
            ("gradcheck.run_suite",),
            lambda: per("gradcheck", total(spans("gradcheck.run_suite")))),
        "gradcheck.finite_difference.calls": (
            ("gradcheck.finite_difference",),
            lambda: per("gradcheck", len(spans("gradcheck.finite_difference")))),
        "cli.self_s": ((), cli_self),
    }
    out = {}
    for metric, (reads, compute) in table.items():
        if t.missing.intersection(reads):
            continue
        value = compute()
        if value is not None:
            out[metric] = value
    return out
