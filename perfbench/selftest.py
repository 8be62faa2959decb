"""Tests of the benchmark itself: each correctness check passes on the
program's real output and fails on a deliberately corrupted one, and the
command's output parses.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own test run.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np
import pytest

import scalefuse.fusion as fusion_mod
import scalefuse.model as model_mod
from scalefuse.checkpoint import load_checkpoint, save_checkpoint
from scalefuse.model import ModelConfig, SegmentationModel
from scalefuse.tensor import no_grad
from scalefuse.train import ablate, eval_scene, evaluate, load_model

import checks
import workloads
from tracing import PER_LAYER, Patches

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_model():
    return SegmentationModel(ModelConfig.tiny(use_projection_on=()))


@pytest.fixture
def patches():
    p = Patches()
    yield p
    p.restore()


def _predictions(model, n):
    cfg = model.config
    out = []
    for j in range(n):
        image, labels = eval_scene(cfg, j)
        with no_grad():
            logits = model.forward(image, mode="infer").logits.data
        out.append((logits.argmax(axis=0), labels))
    return out


# -- training ---------------------------------------------------------------------


def test_training_check_passes_on_falling_binary_run():
    losses = np.linspace(2.0, 1.0, 20)
    hard = [np.array([[0.0, 1.0], [1.0, 1.0]])] * 20
    assert checks.check_training(losses, hard) == []


@pytest.mark.parametrize("corrupt", ["nan_loss", "soft_decision", "rising_loss", "missing_step"])
def test_training_check_fails_on_corruption(corrupt):
    losses = list(np.linspace(2.0, 1.0, 20))
    hard = [np.array([[0.0, 1.0], [1.0, 1.0]]) for _ in range(20)]
    if corrupt == "nan_loss":
        losses[7] = math.nan
    elif corrupt == "soft_decision":
        hard[3][1, 0] = 0.5
    elif corrupt == "rising_loss":
        losses = losses[::-1]
    else:
        hard.pop()
    assert checks.check_training(losses, hard)


def test_own_miou_matches_evaluate_and_a_flipped_prediction_fails(tiny_model):
    reported = evaluate(tiny_model, tiny_model.config, 3, step=0)["miou"]
    k = tiny_model.config.num_classes
    preds = _predictions(tiny_model, 3)
    cm = sum(checks.confusion(p, y, k) for p, y in preds)
    assert checks.check_miou("own", checks.miou(cm), reported) == []
    pred, labels = preds[0]
    pred = pred.copy()
    pred[0, 0] = (labels[0, 0] + 1) % k if pred[0, 0] == labels[0, 0] else labels[0, 0]
    cm = checks.confusion(pred, labels, k) + sum(checks.confusion(p, y, k) for p, y in preds[1:])
    assert checks.check_miou("flipped", checks.miou(cm), reported)


def test_fused_rows_check_passes_on_the_program(tiny_model):
    assert workloads.check_fused_rows(tiny_model, scene_index=0, noise_seed=5, scale=1) == []


def test_fused_rows_check_fails_on_a_perturbed_row(tiny_model, patches):
    def perturb(orig):
        def wrapper(*args, **kwargs):
            rows = orig(*args, **kwargs)
            rows.data[0, 2] += 1e-6
            return rows
        return wrapper
    patches.replace(fusion_mod, "mca_fuse", perturb)
    fails = workloads.check_fused_rows(tiny_model, scene_index=0, noise_seed=5, scale=1)
    assert any("fused rows" in f for f in fails)


def test_fused_rows_check_fails_on_a_flipped_decision(tiny_model, patches):
    def flip(orig):
        def wrapper(*args, **kwargs):
            decisions = orig(*args, **kwargs)
            decisions.Q.data[0, 0] = 1.0 - decisions.Q.data[0, 0]
            return decisions
        return wrapper
    patches.replace(model_mod, "gumbel_sample", flip)
    fails = workloads.check_fused_rows(tiny_model, scene_index=0, noise_seed=5, scale=1)
    assert any("Gumbel argmax" in f for f in fails)


# -- inference ------------------------------------------------------------------


def _infer(model):
    image, _ = eval_scene(model.config, 0)
    with no_grad():
        out = model.forward(image, mode="infer")
    return out.scores.P.data, [t.copy() for t in out.decisions.topk]


def test_topk_check_passes_on_the_program(tiny_model):
    P, topk = _infer(tiny_model)
    assert checks.check_topk(P, topk, tiny_model.config.target_ratio) == []


@pytest.mark.parametrize("corrupt", ["swap_in_low_score", "drop_one", "duplicate"])
def test_topk_check_fails_on_corruption(tiny_model, corrupt):
    P, topk = _infer(tiny_model)
    kept = topk[1]
    if corrupt == "swap_in_low_score":
        dropped = np.setdiff1d(np.arange(P.shape[0]), kept)
        kept[np.argmax(P[kept, 1])] = dropped[np.argmin(P[dropped, 1])]
    elif corrupt == "drop_one":
        topk[1] = kept[1:]
    else:
        kept[0] = kept[1]
    assert checks.check_topk(P, topk, tiny_model.config.target_ratio)


def test_round_trip_check_passes_on_the_program_and_fails_on_a_changed_weight(tmp_path):
    model = SegmentationModel(ModelConfig.tiny())
    saved = {k: v.data for k, v in model.parameters()}
    save_checkpoint(tmp_path / "m.bin", model.config.to_dict(), saved)
    loaded = {k: v.data for k, v in load_model(tmp_path / "m.bin").parameters()}
    assert checks.check_round_trip(saved, loaded) == []
    name = sorted(loaded)[0]
    loaded[name] = loaded[name].copy()
    loaded[name].flat[0] = np.nextafter(loaded[name].flat[0], np.inf)
    assert checks.check_round_trip(saved, loaded)
    del loaded[name]
    assert checks.check_round_trip(saved, loaded)


def test_mask_equals_gather_passes_with_and_without_projection():
    for proj in ((), (1,)):
        model = SegmentationModel(ModelConfig.tiny(use_projection_on=proj))
        assert workloads.check_mask_equals_gather(model, scene_index=2) == []


def test_mask_equals_gather_fails_when_the_gather_picks_wrong_tokens(tiny_model, patches):
    patches.replace(fusion_mod, "gather_rows",
                    lambda orig: lambda x, idx: orig(x, (np.asarray(idx) + 1) % x.shape[0]))
    assert workloads.check_mask_equals_gather(tiny_model, scene_index=2)


# -- ablation -------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_ladder(tmp_path_factory):
    out = tmp_path_factory.mktemp("ladder")
    summary = ablate(ModelConfig.tiny(), list(checks.VARIANT_FLAGS), 2, 2, out, eval_scenes=2)
    runs = {}
    for variant in checks.VARIANT_FLAGS:
        for seed in range(2):
            run_dir = out / variant.replace("+", "_") / f"seed{seed}"
            cfg, _ = load_checkpoint(run_dir / "checkpoint.bin")
            report = json.loads((run_dir / "report.json").read_text())
            own = workloads.own_miou(load_model(run_dir / "checkpoint.bin"), range(2))
            runs[variant, seed] = (cfg, report, own)
    return summary, runs


def test_ablation_check_passes_on_every_run(tiny_ladder):
    _, runs = tiny_ladder
    assert len(runs) == 8
    for (variant, seed), (cfg, report, own) in runs.items():
        assert checks.check_ablation_run(variant, seed, cfg, report, own) == []


def test_ablation_check_fails_on_swapped_run_directories(tiny_ladder):
    _, runs = tiny_ladder
    cfg, report, own = runs["fff", 0]
    assert checks.check_ablation_run("fff+sfs", 0, cfg, report, own)
    cfg, report, own = runs["fff+sfs+pm", 1]
    assert checks.check_ablation_run("fff+sfs+pm", 0, cfg, report, own)


def test_ablation_check_fails_on_baseline_fusion_and_wrong_miou(tiny_ladder):
    _, runs = tiny_ladder
    cfg, report, own = runs["baseline", 0]
    with_fusion = json.loads(json.dumps(report))
    with_fusion["fusion"]["per_scale"] = runs["fff", 0][1]["fusion"]["per_scale"]
    assert checks.check_ablation_run("baseline", 0, cfg, with_fusion, own)
    assert checks.check_ablation_run("baseline", 0, cfg, report, own + 1e-9)


def test_repeats_must_agree():
    report = {"final": {"miou": 0.5}, "timestamp": 1}
    same = dict(report, timestamp=2)
    assert workloads.check_repeats_agree("report", [workloads._without_timestamp(r)
                                                    for r in (report, same)]) == []
    changed = {"final": {"miou": 0.25}, "timestamp": 3}
    assert workloads.check_repeats_agree("report", [workloads._without_timestamp(r)
                                                    for r in (report, same, changed)])


# -- the command ------------------------------------------------------------------


def _run(cwd, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_command_output_parses(workload):
    proc = _run(ROOT, workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_output_lists_every_per_layer_metric():
    proc = _run(ROOT, "train-fff-sfs", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert expected == PER_LAYER
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "train-fff-sfs", trace=0)
    assert proc.returncode != 0
    assert proc.stdout == ""
