"""Workload definitions: the configs each workload generates, and the
quality floors an evaluation must meet to count as correct.

Every config is built here from constants plus the benchmark seed; no
file of the repository outside this directory is read.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

HEADS = ("softmax", "isomax", "isomaxplus")

# Score kinds per head, in the order the shipped desk configs use.
SCORE_KINDS = {
    "softmax": ["entropic", "max_probability"],
    "isomax": ["entropic", "max_probability", "min_distance"],
    "isomaxplus": ["min_distance", "entropic", "max_probability"],
}

DESK_SGD = {"epochs": 30, "batch_size": 64, "learning_rate": 0.03,
            "momentum": 0.9, "weight_decay": 0.01,
            "decay_epochs": [25], "decay_factor": 10.0}

DESK_BLOBS = {"kind": "blobs", "classes": 4, "dims": 2,
              "centers_radius": 4.0, "sigma": 0.5, "n_per_class": 500}


@dataclass
class Workload:
    """One benchmark workload.

    `base` is the config shared by every head in HEADS; `train_in_setup`
    marks a workload whose timed passes only evaluate checkpoints trained
    during set-up. `floors` maps head -> {"accuracy": a, score kind: auroc}:
    an evaluation whose validation accuracy, or whose AUROC for a score
    on any OOD set, falls below the floor counts as failed.
    """

    name: str
    base: dict
    floors: dict
    train_in_setup: bool = False

    def config(self, head: str, seed: int, out_dir: str) -> dict:
        cfg = copy.deepcopy(self.base)
        cfg.update(head=head, score_kinds=list(SCORE_KINDS[head]),
                   seeds=[int(seed)], out_dir=out_dir)
        return cfg

    def train_rows(self) -> int:
        """Rows of the training split, as the experiment runner splits them."""
        spec = self.base["in_distribution"]
        classes = int(spec.get("train_classes", spec["classes"]))
        n = classes * int(spec["n_per_class"])
        return n - int(round(self.base["val_fraction"] * n))

    def eval_rows(self) -> int:
        """Validation rows plus OOD rows that one evaluation scores."""
        spec = self.base["in_distribution"]
        classes = int(spec.get("train_classes", spec["classes"]))
        n = classes * int(spec["n_per_class"])
        rows = int(round(self.base["val_fraction"] * n))
        for ood in self.base["ood"]:
            if ood["kind"] == "heldout":
                rows += (int(spec["classes"]) - classes) * int(spec["n_per_class"])
            else:
                rows += int(ood["n"])
        return rows


# Floors come from the seed code's results (README.md lists them): the
# lowest value over 24 seeds (8 on wide) and every OOD set, less the
# spread between seeds or 0.02, whichever is larger, rounded down to a
# multiple of 0.05. The rule gives the isomaxplus min_distance floor on
# desk the 0.95 that acceptance criterion 4 asserts. Softmax floors are
# low because its confidence grows away from the data, which is what the
# distance heads fix.
DESK = Workload(
    name="desk",
    base={
        "backbone_widths": [2, 64, 64],
        "in_distribution": dict(DESK_BLOBS),
        "ood": [
            {"name": "ring", "kind": "ring", "inner_radius": 8.0,
             "outer_radius": 12.0, "n": 1000},
            {"name": "box", "kind": "uniform", "low": -12.0, "high": 12.0,
             "n": 1000},
        ],
        "sgd": dict(DESK_SGD),
        "val_fraction": 0.2,
        "standardize_inputs": True,
    },
    floors={
        "softmax": {"accuracy": 0.95, "entropic": 0.2, "max_probability": 0.2},
        "isomax": {"accuracy": 0.95, "entropic": 0.65, "max_probability": 0.8,
                   "min_distance": 0.95},
        "isomaxplus": {"accuracy": 0.95, "entropic": 0.9, "max_probability": 0.9,
                       "min_distance": 0.95},
    },
)

WIDE = Workload(
    name="wide",
    base={
        "backbone_widths": [256, 256, 128],
        "in_distribution": {"kind": "blobs", "classes": 10, "dims": 256,
                            "centers_radius": 4.0, "sigma": 1.0,
                            "n_per_class": 1000},
        "ood": [
            {"name": "box", "kind": "uniform", "dims": 256, "low": -3.0,
             "high": 3.0, "n": 5000},
        ],
        "sgd": {"epochs": 3, "batch_size": 128, "learning_rate": 0.03,
                "momentum": 0.9, "weight_decay": 0.01,
                "decay_epochs": [], "decay_factor": 10.0},
        "val_fraction": 0.2,
        "standardize_inputs": True,
    },
    floors={
        "softmax": {"accuracy": 0.95, "entropic": 0.8, "max_probability": 0.8},
        "isomax": {"accuracy": 0.9, "entropic": 0.85, "max_probability": 0.85,
                   "min_distance": 0.75},
        "isomaxplus": {"accuracy": 0.9, "entropic": 0.85, "max_probability": 0.85,
                       "min_distance": 0.85},
    },
)

OOD_SWEEP = Workload(
    name="ood_sweep",
    base={
        "backbone_widths": [2, 64, 64],
        "in_distribution": dict(DESK_BLOBS, train_classes=3),
        "ood": [
            {"name": "heldout", "kind": "heldout"},
            {"name": "ring_near", "kind": "ring", "inner_radius": 6.0,
             "outer_radius": 8.0, "n": 4000},
            {"name": "ring_mid", "kind": "ring", "inner_radius": 8.0,
             "outer_radius": 12.0, "n": 4000},
            {"name": "ring_far", "kind": "ring", "inner_radius": 12.0,
             "outer_radius": 20.0, "n": 4000},
            {"name": "box_near", "kind": "uniform", "low": -8.0, "high": 8.0,
             "n": 4000},
            {"name": "box_far", "kind": "uniform", "low": -20.0, "high": 20.0,
             "n": 4000},
        ],
        "sgd": dict(DESK_SGD),
        "val_fraction": 0.2,
        "standardize_inputs": True,
    },
    floors={
        "softmax": {"accuracy": 0.95, "entropic": 0.05, "max_probability": 0.1},
        "isomax": {"accuracy": 0.95, "entropic": 0.7, "max_probability": 0.75,
                   "min_distance": 0.9},
        "isomaxplus": {"accuracy": 0.95, "entropic": 0.8, "max_probability": 0.8,
                       "min_distance": 0.85},
    },
    train_in_setup=True,
)

WORKLOADS = {w.name: w for w in (DESK, WIDE, OOD_SWEEP)}
