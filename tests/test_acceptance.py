"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Criteria 4, 5, and 6 share one desk-scale training fixture:
4-class 2-D blobs (radius 4, sigma 0.5, 500/class), annulus and box OOD,
MLP 2-64-64, 30 epochs, seeds 1..5, all three heads.
"""

import json
import math
import time

import numpy as np
import pytest

from oodkit import gradcheck, heads
from oodkit.experiment import (
    ExperimentConfig,
    compare_heads,
    load_checkpoint,
    run_experiment,
    save_checkpoint,
    train_single_seed,
)
from oodkit.heads import IsoMaxPlusHead
from oodkit.metrics import DetectionScoreSet, auroc, dtacc, tnr_at_tpr95
from oodkit.model import INIT_STREAM, backbone_forward, make_backbone, make_train_state
from oodkit.scores import min_distance_score
from oracles import auroc_oracle, dtacc_oracle, random_score_set, tnr_oracle

GRAD_TOLERANCE = 1e-4


def criterion(number: int, description: str, passed: bool):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def desk_config(head: str, score_kinds) -> ExperimentConfig:
    # lr / weight decay / decay placement are desk-scale choices inside
    # the fixed protocol shape (SGD, Nesterov 0.9, batch 64, step decay
    # by factor 10).
    return ExperimentConfig.from_dict({
        "head": head,
        "backbone_widths": [2, 64, 64],
        "in_distribution": {"kind": "blobs", "classes": 4, "dims": 2,
                            "centers_radius": 4.0, "sigma": 0.5,
                            "n_per_class": 500},
        "ood": [
            {"name": "ring", "kind": "ring", "inner_radius": 8.0,
             "outer_radius": 12.0, "n": 1000},
            {"name": "box", "kind": "uniform", "low": -12.0, "high": 12.0,
             "n": 1000},
        ],
        "score_kinds": score_kinds,
        "seeds": [1, 2, 3, 4, 5],
        "sgd": {"epochs": 30, "batch_size": 64, "learning_rate": 0.03,
                "momentum": 0.9, "weight_decay": 0.01,
                "decay_epochs": [25], "decay_factor": 10.0},
        "val_fraction": 0.2,
    })


@pytest.fixture(scope="module")
def desk_runs():
    cfgs = {
        "softmax": desk_config("softmax", ["entropic"]),
        "isomax": desk_config("isomax", ["entropic"]),
        "isomaxplus": desk_config("isomaxplus", ["min_distance", "entropic"]),
    }
    t0 = time.perf_counter()
    reports = {name: run_experiment(cfg) for name, cfg in cfgs.items()}
    elapsed = time.perf_counter() - t0
    return cfgs, reports, elapsed


def seed_values(report, ood_name, score, metric="auroc"):
    values = []
    for record in report.per_seed:
        ood_eval = next(e for e in record["ood_evaluations"] if e["ood"] == ood_name)
        values.append(next(r for r in ood_eval["metrics"] if r["score"] == score)[metric])
    return values


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    results = gradcheck.run_suite(instances=100, seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(results.values())
    criterion(
        1,
        f"analytic gradients match central differences, max rel err "
        f"{worst:.2e} <= {GRAD_TOLERANCE:.0e} over 100 instances per component "
        f"in {elapsed:.1f}s (< 10s)",
        worst <= GRAD_TOLERANCE and elapsed < 10.0,
    )


def test_criterion_2_metric_oracle_equivalence():
    rng = np.random.default_rng(20240)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        a, b = random_score_set(rng)
        s = DetectionScoreSet(a, b)
        if auroc(s) != auroc_oracle(a, b):
            mismatches += 1
        if tnr_at_tpr95(s) != tnr_oracle(a, b):
            mismatches += 1
        if dtacc(s) != dtacc_oracle(a, b):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    criterion(
        2,
        f"AUROC/TNR@TPR95/DTACC match brute-force oracles exactly on 1000 "
        f"random score sets in {elapsed:.1f}s (< 30s)",
        mismatches == 0 and elapsed < 30.0,
    )


def test_criterion_3_score_consistency():
    ok = True
    rng_master = np.random.default_rng(7)
    instances = []
    for _ in range(99):
        c = int(rng_master.integers(2, 6))
        d = int(rng_master.integers(2, 8))
        n = int(rng_master.integers(2, 40))
        head = IsoMaxPlusHead(
            prototypes=rng_master.standard_normal((c, d)),
            distance_scale=float(rng_master.uniform(0.3, 3.0)
                                 * rng_master.choice([-1.0, 1.0])))
        instances.append((head, rng_master.standard_normal((n, d))))
    trained, _, data = train_single_seed(
        desk_config("isomaxplus", ["min_distance"]), seed=1)
    instances.append((trained.head,
                      backbone_forward(trained.backbone, data.val.inputs[:40])))

    for head, features in instances:
        mds = min_distance_score(head, features)
        max_logit = heads.head_outputs(head, features).logits.max(axis=1)
        # (a) same ordering as the maximum logit: no strictly inverted pair
        inverted = ((mds[:, None] > mds[None, :])
                    & (max_logit[:, None] < max_logit[None, :]))
        ok &= not inverted.any()
        # (b) bit-identical under sign flip and arbitrary |d_s|
        for new_scale in (-head.distance_scale, 0.0, 7.25 * head.distance_scale + 0.1):
            other = IsoMaxPlusHead(prototypes=head.prototypes,
                                   distance_scale=new_scale,
                                   entropic_scale=head.entropic_scale)
            ok &= np.array_equal(mds, min_distance_score(other, features))
        # (c) predictions invariant to per-row positive rescaling
        alphas = np.abs(np.random.default_rng(3).uniform(0.05, 40.0,
                                                         size=(len(features), 1)))
        ok &= np.array_equal(heads.predict(head, features),
                             heads.predict(head, features * alphas))
    criterion(
        3,
        "minimum distance score orders like the max logit, ignores the "
        "distance scale bit-for-bit, and predictions survive positive "
        "feature rescaling (100 instances incl. one trained head)",
        bool(ok),
    )


def test_criterion_4_desk_scale_detection_trend(desk_runs):
    cfgs, reports, elapsed = desk_runs
    ok = elapsed < 300.0
    details = []
    for ood in ("ring", "box"):
        mds = seed_values(reports["isomaxplus"], ood, "min_distance")
        es = seed_values(reports["softmax"], ood, "entropic")
        mean_mds = float(np.mean(mds))
        wins = sum(m >= s for m, s in zip(mds, es))
        ok &= mean_mds >= 0.95 and wins >= 4
        details.append(f"{ood}: mean MDS AUROC {mean_mds:.3f} (>= 0.95), "
                       f"beats softmax ES in {wins}/5 seeds")
    criterion(4, "; ".join(details) + f"; runtime {elapsed:.0f}s (< 5 min)", bool(ok))


def test_desk_scale_three_way_ordering(desk_runs):
    # Not an acceptance criterion by itself, but the expected qualitative
    # ranking of the three configurations on this task: normalized
    # min-distance detection above isomax entropy above softmax entropy.
    _, reports, _ = desk_runs
    for ood in ("ring", "box"):
        mds_plus = np.mean(seed_values(reports["isomaxplus"], ood, "min_distance"))
        es_iso = np.mean(seed_values(reports["isomax"], ood, "entropic"))
        es_soft = np.mean(seed_values(reports["softmax"], ood, "entropic"))
        assert mds_plus > es_iso > es_soft, (ood, mds_plus, es_iso, es_soft)


def test_criterion_5_no_accuracy_drop(desk_runs):
    cfgs, reports, _ = desk_runs
    softmax_acc = reports["softmax"].aggregate["accuracy"]["mean"]
    drops = {name: (softmax_acc - rep.aggregate["accuracy"]["mean"]) * 100.0
             for name, rep in reports.items()}
    comparison = compare_heads(list(cfgs.values()), list(reports.values()))
    ok = all(d <= 1.0 for d in drops.values()) and not comparison.accuracy_drop_flags
    criterion(
        5,
        f"mean accuracy within 1 pp of softmax for every head "
        f"(drops in pp: { {k: round(v, 3) for k, v in drops.items()} }) and "
        f"compare_heads raises no drop flag",
        bool(ok),
    )


def test_criterion_6_distance_and_entropy_separation(desk_runs):
    _, reports, _ = desk_runs
    ok = True
    details = []
    for ood in ("ring", "box"):
        dist_seeds = 0
        for record in reports["isomaxplus"].per_seed:
            diag = next(e for e in record["ood_evaluations"]
                        if e["ood"] == ood)["diagnostics"]
            dist_seeds += diag["median_min_distance_in"] < diag["median_min_distance_out"]
        ok &= dist_seeds >= 4
        details.append(f"{ood}: median distance in<out in {dist_seeds}/5 seeds")
        for head in ("isomax", "isomaxplus"):
            ent_seeds = 0
            for record in reports[head].per_seed:
                diag = next(e for e in record["ood_evaluations"]
                            if e["ood"] == ood)["diagnostics"]
                ent_seeds += diag["mean_entropy_in"] < diag["mean_entropy_out"]
            ok &= ent_seeds >= 4
            details.append(f"{ood}/{head}: mean entropy in<out in {ent_seeds}/5 seeds")
    criterion(6, "; ".join(details), bool(ok))


def test_criterion_7_initialization_contracts():
    # isomax: zero prototypes make every logit equal, so inference is
    # uniform and entropy is exactly ln(c)
    state = make_train_state([3, 6, 5], "isomax", 4, seed=11)
    rng = np.random.default_rng(12)
    probs = heads.inference_probabilities(state.head, rng.standard_normal((20, 5)))
    entropy = -(probs * np.log(probs)).sum(axis=1)
    isomax_ok = (np.allclose(probs, 0.25, atol=1e-12)
                 and np.all(np.abs(entropy - math.log(4.0)) <= 1e-9))

    # isomaxplus: prototypes replay the documented N(0,1) stream (backbone
    # first, then prototypes in class-index order) and d_s is exactly 1
    plus_ok = True
    for widths, classes, seed in ([3, 6, 5], 4, 23), ([2, 64, 64], 4, 1):
        state_plus = make_train_state(widths, "isomaxplus", classes, seed=seed)
        replay = np.random.default_rng([seed, INIT_STREAM])
        make_backbone(widths, replay)  # consume the backbone draws
        expected = replay.standard_normal((classes, widths[-1]))
        plus_ok &= (np.array_equal(state_plus.head.prototypes, expected)
                    and state_plus.head.distance_scale == 1.0)
    # moment sanity on the larger draw (4 x 64 entries)
    plus_ok &= abs(expected.mean()) < 0.2 and 0.85 < expected.std() < 1.15
    criterion(
        7,
        "isomax starts uniform with entropy ln(c) within 1e-9; isomaxplus "
        "prototypes replay the seeded N(0,1) stream and d_s == 1 exactly",
        bool(isomax_ok and plus_ok),
    )


def test_criterion_8_determinism_and_persistence(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "head": "isomaxplus",
        "backbone_widths": [2, 8, 8],
        "in_distribution": {"kind": "blobs", "classes": 3, "dims": 2,
                            "centers_radius": 4.0, "sigma": 0.5,
                            "n_per_class": 40},
        "ood": [{"name": "ring", "kind": "ring", "inner_radius": 8.0,
                 "outer_radius": 12.0, "n": 60}],
        "score_kinds": ["min_distance", "entropic"],
        "seeds": [1, 2],
        "sgd": {"epochs": 3, "batch_size": 16},
        "val_fraction": 0.25,
    })
    reports = [run_experiment(cfg).to_dict() for _ in range(2)]
    for report in reports:
        report.pop("wall_time_seconds")
    reports_ok = json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)

    state, _, data = train_single_seed(cfg, 1)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(state, p1)
    restored = load_checkpoint(p1)
    save_checkpoint(restored, p2)
    f_live = backbone_forward(state.backbone, data.val.inputs)
    f_restored = backbone_forward(restored.backbone, data.val.inputs)
    ckpt_ok = (np.array_equal(
        heads.inference_probabilities(state.head, f_live),
        heads.inference_probabilities(restored.head, f_restored))
        and np.array_equal(f_live, f_restored)
        and p1.read_bytes() == p2.read_bytes())
    criterion(
        8,
        "identical config+seeds give byte-identical reports (wall time "
        "excluded); checkpoint round-trip preserves inference bit-exactly",
        bool(reports_ok and ckpt_ok),
    )
