"""Training and evaluation loops plus run-report assembly.

Scenes are seed-partitioned: training draws scene seeds 2k (k = step index),
evaluation uses the fixed odd seeds 1, 3, 5, ... so every run - and every
ablation variant - sees the same held-out set.  All reports are JSON with
sorted keys; wall-clock data lives in the single `timestamp` field so the
rest of the file is byte-identical across reruns with the same flags.
"""

from __future__ import annotations

import datetime as _dt
import json
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint, write_atomic
from .metrics import MIoUAccumulator
from .model import IGNORE_INDEX, ModelConfig, SegmentationModel, total_loss
from .pyramid import NUM_LEVELS
from .scenes import SyntheticSceneSpec, generate_scene
from .selection import export_selection_maps
from .optim import AdamW
from .tensor import ConfigurationError, no_grad

TRAIN_SEED_STRIDE = 2     # train scenes: 2k
EVAL_SEED_OFFSET = 1      # eval scenes: 2j + 1


class NumericError(RuntimeError):
    """Loss or a parameter gradient went non-finite; carries the step index
    and the loss term breakdown."""

    def __init__(self, step: int, breakdown: Dict[str, float], what: str = "loss"):
        super().__init__(f"non-finite {what} at step {step}: {breakdown}")
        self.step = step
        self.breakdown = breakdown


def scene_spec_for(config: ModelConfig, seed: int) -> SyntheticSceneSpec:
    return SyntheticSceneSpec(
        height=config.image_h, width=config.image_w,
        num_classes=config.num_classes, seed=seed,
    )


def train_scene(config: ModelConfig, step: int):
    return generate_scene(scene_spec_for(config, TRAIN_SEED_STRIDE * step))


def eval_scene(config: ModelConfig, index: int):
    return generate_scene(scene_spec_for(config, TRAIN_SEED_STRIDE * index + EVAL_SEED_OFFSET))


def evaluate(model: SegmentationModel, config: ModelConfig, n_scenes: int, step: int) -> dict:
    """Inference-mode held-out evaluation; never touches parameters."""
    acc = MIoUAccumulator(config.num_classes, IGNORE_INDEX)
    score_means = np.zeros(NUM_LEVELS)
    keep = np.zeros(NUM_LEVELS)
    for j in range(n_scenes):
        image, labels = eval_scene(config, j)
        with no_grad():
            out = model.forward(image, mode="infer")
        pred = out.logits.data.argmax(axis=0)
        acc.update(pred, labels)
        if out.scores is not None:
            score_means += out.scores.column_means()
        keep += np.asarray(out.keep_ratios())
    per_class, miou = acc.result()
    return {
        "step": step,
        "scenes": n_scenes,
        "miou": miou,
        "per_class_iou": {str(k): v for k, v in per_class.items()},
        "mean_scores": (score_means / max(n_scenes, 1)).tolist(),
        "keep_ratios": (keep / max(n_scenes, 1)).tolist(),
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def write_report(path, report: dict) -> None:
    write_atomic(path, (json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n").encode("utf-8"))


def train(
    config: ModelConfig,
    steps: int,
    out_dir,
    eval_every: int = 500,
    eval_scenes: int = 8,
    export_maps: bool = True,
) -> dict:
    """Run the optimizer for `steps` scenes; write report, checkpoint, maps."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = _dt.datetime.now(_dt.timezone.utc).isoformat()
    t0 = time.monotonic()

    model = SegmentationModel(config)
    opt = AdamW(model.parameters(), lr=1e-3, weight_decay=0.01)
    gumbel_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5EED]))

    step_log: List[dict] = []
    evals: List[dict] = [evaluate(model, config, eval_scenes, step=0)]

    for step in range(steps):
        image, labels = train_scene(config, step)
        out = model.forward(image, mode="train", rng=gumbel_rng)
        loss, breakdown = total_loss(out, labels, config)
        if not np.isfinite(breakdown["total"]):
            raise NumericError(step, breakdown)
        loss.backward()
        if not np.isfinite(opt.grad).all():
            name = next(n for n, p in opt.params if not np.isfinite(p.grad).all())
            raise NumericError(step, breakdown, f"gradient of {name}")
        opt.step()
        opt.zero_grad()
        # training-mode realized keep ratio: mean of the hard decisions
        step_log.append({"step": step, **breakdown, "keep_ratios": out.keep_ratios()})
        done = step + 1
        if done % eval_every == 0 and done != steps:
            evals.append(evaluate(model, config, eval_scenes, step=done))

    if steps > 0:
        evals.append(evaluate(model, config, eval_scenes, step=steps))

    # fusion accounting, and the selection maps, from one representative inference forward
    image, _ = eval_scene(config, 0)
    with no_grad():
        probe = model.forward(image, mode="infer")

    report = {
        "config": config.to_dict(),
        "param_count": model.param_count(),
        "seeds": {
            "model": config.seed,
            "train_scene_stride": TRAIN_SEED_STRIDE,
            "eval_scene_offset": EVAL_SEED_OFFSET,
        },
        "steps": step_log,
        "evals": evals,
        "final": evals[-1],
        "fusion": probe.fusion_diagnostics.to_dict(),
        "timestamp": {"started_utc": started, "duration_seconds": time.monotonic() - t0},
    }

    ckpt_path = out_dir / "checkpoint.bin"
    save_checkpoint(ckpt_path, config.to_dict(), {k: v.data for k, v in model.parameters()})
    write_report(out_dir / "report.json", report)

    if export_maps and model.scorer is not None:
        export_selection_maps(out_dir / "selection", probe.sequence, probe.scores, probe.decisions)

    return report


def load_model(checkpoint_path) -> SegmentationModel:
    """Build the model a checkpoint's config describes and load its parameters.

    An invalid config, or parameter names or shapes that disagree with the
    model it builds, are defects of the file, so they raise CheckpointError,
    not ConfigurationError.
    """
    cfg_dict, arrays = load_checkpoint(checkpoint_path)
    try:
        model = SegmentationModel(ModelConfig.from_dict(cfg_dict))
        model.load_state(arrays)
    except ConfigurationError as e:
        raise CheckpointError(f"{checkpoint_path}: {e}") from None
    return model


def evaluate_checkpoint(checkpoint_path, n_scenes: int, out_dir=None) -> dict:
    model = load_model(checkpoint_path)
    started = _dt.datetime.now(_dt.timezone.utc).isoformat()
    result = evaluate(model, model.config, n_scenes, step=-1)
    report = {
        "config": model.config.to_dict(),
        "checkpoint": str(checkpoint_path),
        "eval": result,
        "timestamp": {"started_utc": started},
    }
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        write_report(Path(out_dir) / "eval_report.json", report)
    return report


ABLATION_VARIANTS = {
    "baseline": dict(use_fff=False, use_sfs=False, use_projection_on=()),
    "fff": dict(use_fff=True, use_sfs=False, use_projection_on=()),
    "fff+sfs": dict(use_fff=True, use_sfs=True, use_projection_on=()),
    "fff+sfs+pm": dict(use_fff=True, use_sfs=True, use_projection_on=(1,)),
}


def ablate(
    base_config: ModelConfig,
    variants: List[str],
    seeds: int,
    steps: int,
    out_dir,
    eval_every: int = 1000,
    eval_scenes: int = 8,
) -> dict:
    """Train every variant x seed and summarize median held-out mIoU.

    `variants` must name at least one variant and none twice: a repeated
    variant would train into, and overwrite, the same run directories.
    """
    if not variants:
        raise ValueError("no ablation variants given")
    unknown = [v for v in variants if v not in ABLATION_VARIANTS]
    if unknown:
        raise ValueError(f"unknown ablation variants: {unknown}")
    repeated = sorted({v for v in variants if variants.count(v) > 1})
    if repeated:
        raise ValueError(f"repeated ablation variants: {repeated}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    runs: Dict[str, List[dict]] = {}
    for variant in variants:
        flags = ABLATION_VARIANTS[variant]
        per_seed = []
        for seed in range(seeds):
            cfg = base_config.replace(seed=seed, **flags)
            run_dir = out_dir / variant.replace("+", "_") / f"seed{seed}"
            report = train(cfg, steps, run_dir, eval_every=eval_every,
                           eval_scenes=eval_scenes, export_maps=False)
            per_seed.append(report)
        runs[variant] = per_seed

    summary = {"steps": steps, "seeds": seeds, "variants": {}}
    for variant, reports in runs.items():
        mious = [r["final"]["miou"] for r in reports]
        summary["variants"][variant] = {
            "final_miou": mious,
            "median_miou": float(np.median(mious)),
        }
    med = {v: summary["variants"][v]["median_miou"] for v in variants if v in summary["variants"]}
    orderings = {}
    if "baseline" in med and "fff" in med:
        orderings["fff_ge_baseline"] = bool(med["fff"] >= med["baseline"])
    if "fff" in med and "fff+sfs" in med:
        orderings["sfs_ge_fff_within_slack"] = bool(med["fff+sfs"] >= med["fff"] - 0.01)
    summary["orderings"] = orderings
    write_report(out_dir / "ablation_summary.json", summary)
    return summary
