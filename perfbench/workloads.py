"""The benchmark's three workloads: set-up, timed body and correctness checks.

Work per run is a fixed amount per second of `--seconds`, sized so that the
timed body lasts about that long on a 2-CPU x86-64 host.  A fixed amount of
work, rather than a time limit, keeps the held-out mIoU and the number of
operations the same from run to run and from one commit to the next.

The reference host has spells, from a few seconds to half a minute, in which
everything runs about 1.45x slower.  So the body runs a few times on the same
inputs, each repeat doing an equal share of the work, and the benchmark reports
the fastest repeat; see run.py.  For the same reason, training runs evaluate
several times rather than once at the end, which spreads the inference scenes
they time over the run.
"""

from __future__ import annotations

import inspect
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

import scalefuse.fusion as fusion_mod
import scalefuse.train as train_mod
from scalefuse.checkpoint import load_checkpoint
from scalefuse.model import ModelConfig
from scalefuse.selection import DecisionSet
from scalefuse.tensor import Tensor, no_grad
from scalefuse.train import ablate, eval_scene, evaluate_checkpoint, load_model, train

import checks
from tracing import Patches

TRAIN_STEPS_PER_S = 15
TRAIN_EVAL_SCENES = 32
TRAIN_EVALS = 4
INFER_SCENES_PER_S = 120
INFER_SETUP_STEPS = 240
CHILD_TIMEOUT_S = 120
INFER_CHECK_SCENES = 16
ABLATE_STEPS_PER_S = 2.4
ABLATE_EVAL_SCENES = 16
ABLATE_SEEDS = 2
ABLATE_EVALS = 1

MCA_WEIGHTS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
MCA_FUSE_SIGNATURE = inspect.signature(fusion_mod.mca_fuse)


def own_miou(model, scene_indices) -> float:
    """Held-out mIoU from this benchmark's own argmax and confusion counts."""
    cfg = model.config
    cm = np.zeros((cfg.num_classes, cfg.num_classes), dtype=np.int64)
    for j in scene_indices:
        image, labels = eval_scene(cfg, j)
        with no_grad():
            out = model.forward(image, mode="infer")
        cm += checks.confusion(out.logits.data.argmax(axis=0), labels, cfg.num_classes)
    return checks.miou(cm)


def run_durations(run_dirs: Dict[str, List[Path]]) -> Dict[str, List[float]]:
    """Each run's own duration, from its report.json."""
    return {variant: [json.loads((d / "report.json").read_text())["timestamp"]["duration_seconds"]
                      for d in dirs]
            for variant, dirs in run_dirs.items()}


def check_fused_rows(model, scene_index: int, noise_seed: int, scale: int) -> List[str]:
    """A train-mode forward with fixed Gumbel noise against plain numpy.

    The hard decisions must be the two-class Gumbel argmax of the scores, and
    the scale's fused rows must be masked attention under those decisions.
    """
    cfg = model.config
    image, _ = eval_scene(cfg, scene_index)
    length = sum(cfg.image_h * cfg.image_w // 4 ** (i + 1) for i in range(1, checks.NUM_SCALES + 1))
    noise = np.random.default_rng(noise_seed).gumbel(size=(length, checks.NUM_SCALES, 2))
    fused = {}

    def capture(orig):
        def wrapper(*args, **kwargs):
            rows = orig(*args, **kwargs)
            fused[MCA_FUSE_SIGNATURE.bind(*args, **kwargs).arguments["scale"]] = rows.data
            return rows
        return wrapper

    patches = Patches()
    patches.replace(fusion_mod, "mca_fuse", capture)
    try:
        with no_grad():
            out = model.forward(image, mode="train", gumbel_noise=noise)
    finally:
        patches.restore()
    fails = []
    hard = checks.gumbel_hard_decisions(out.scores.P.data, noise)
    if not np.array_equal(hard, out.decisions.Q.data):
        fails.append("hard decisions differ from the Gumbel argmax of the scores")
    lo = sum(out.sequence.lengths[: scale - 1])
    hi = lo + out.sequence.lengths[scale - 1]
    weights = {n: getattr(model.mca[scale - 1], n).data for n in MCA_WEIGHTS}
    want = checks.reference_fused_rows(out.sequence.tokens.data, lo, hi, hard[:, scale - 1],
                                       weights, cfg.heads, cfg.residual)
    fails += checks.check_close(f"scale {scale} fused rows vs numpy masked attention",
                                fused.get(scale, np.empty(0)), want, 1e-8)
    return fails


def check_mask_equals_gather(model, scene_index: int) -> List[str]:
    """Every scale fused with the top-k indicator as a training mask equals the inference gather."""
    cfg = model.config
    image, _ = eval_scene(cfg, scene_index)
    with no_grad():
        out = model.forward(image, mode="infer")
    seq, topk = out.sequence, out.decisions.topk
    indicator = np.zeros((seq.length, checks.NUM_SCALES))
    for s in range(checks.NUM_SCALES):
        indicator[topk[s], s] = 1.0
    masked = DecisionSet(mode="training", Q=Tensor(indicator))
    fails = []
    for scale in range(1, checks.NUM_SCALES + 1):
        lo, hi = seq.scale_slice(scale)
        queries = Tensor(seq.tokens.data[lo:hi])
        params = model.mca[scale - 1]

        def fuse(decisions):
            kw = dict(residual=cfg.residual, literal=cfg.eq5_literal)
            with no_grad():
                if scale in model.generators:
                    return fusion_mod.mca_fuse_projected(
                        queries, seq, decisions, params, model.generators[scale], scale, **kw).data
                return fusion_mod.mca_fuse(queries, seq, decisions, params, scale, **kw).data

        fails += checks.check_close(f"scale {scale} masked vs gathered rows",
                                    fuse(masked), fuse(out.decisions), 1e-10)
    return fails


class Workload:
    """One workload: `setup` once, `repeats` runs of the timed `body`, then `check`.

    Each repeat does the same share of the run's work on the same inputs, so
    the repeats must agree on every output.  The step and scene times of
    `variant` give the end-to-end metrics.  `body` returns the seconds inside
    it that belong to checks.  `fixture_s` is the part of `setup` spent making
    inputs in a child process, which set-up time leaves out; `step_s` holds
    training step times measured there.
    """

    variant = "fff+sfs"
    keep_decisions = False
    repeats = 3

    def __init__(self, seed: int, seconds: int, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir
        self.miou = 0.0
        self.run_dirs: Dict[str, List[Path]] = {}
        self.fixture_s = 0.0
        self.step_s: Dict[str, List[float]] = {}

    def setup(self) -> None:
        pass


def _without_timestamp(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timestamp"}


def check_repeats_agree(name: str, outputs: list) -> List[str]:
    return [f"repeat {r}: {name} differs from repeat 0"
            for r, out in enumerate(outputs[1:], start=1) if out != outputs[0]]


class TrainFffSfs(Workload):
    """train() with SFS and FFF on and no projection; the model seed is --seed."""

    variant = "fff+sfs"
    keep_decisions = True

    def __init__(self, seed, seconds, run_dir):
        super().__init__(seed, seconds, run_dir)
        self.steps = max(TRAIN_EVALS, round(TRAIN_STEPS_PER_S * seconds / self.repeats))
        self.attempted = self.steps * self.repeats
        self.config = ModelConfig(use_projection_on=(), seed=seed).validate()
        self.run_dirs = {self.variant: [run_dir / f"train{r}" for r in range(self.repeats)]}
        self.reports: List[dict] = []

    def body(self, rep: int) -> float:
        self.reports.append(train(self.config, self.steps, self.run_dirs[self.variant][rep],
                                  eval_every=self.steps // TRAIN_EVALS,
                                  eval_scenes=TRAIN_EVAL_SCENES))
        self.miou = self.reports[-1]["final"]["miou"]
        return 0.0

    def completed(self, markers) -> int:
        return markers.steps_done

    def check(self, markers) -> List[str]:
        fails = check_repeats_agree("report.json apart from timestamp",
                                    [_without_timestamp(r) for r in self.reports])
        for rep, report in enumerate(self.reports):
            decisions = markers.decisions[rep * self.steps:(rep + 1) * self.steps]
            fails += checks.check_training([s["total"] for s in report["steps"]], decisions)
        model = load_model(self.run_dirs[self.variant][-1] / "checkpoint.bin")
        fails += checks.check_miou("reloaded checkpoint", own_miou(model, range(TRAIN_EVAL_SCENES)),
                                   self.miou)
        fails += check_fused_rows(model, scene_index=0, noise_seed=self.seed, scale=1)
        return fails


class InferHeldout(Workload):
    """The default fff+sfs+pm model, trained elsewhere, saved, reloaded and served.

    Set-up first trains the model for INFER_SETUP_STEPS steps with a fixed
    model seed in a child process (`train_served.py`), so every run serves the
    same model and this process never trains: it serves the checkpoint from a
    fresh heap, as `scalefuse eval` does.  The child's time is left out of
    `setup_s`; its step times give `train_step_ms_*`.  This process then loads
    the checkpoint, saves the model again with `save_checkpoint` and serves the
    copy it reloads with `load_model`.  --seed picks the held-out scenes.
    The scene loop is uniform work, so it is cut into more, shorter repeats.
    """

    variant = "fff+sfs+pm"
    repeats = 5

    def __init__(self, seed, seconds, run_dir):
        super().__init__(seed, seconds, run_dir)
        self.scenes = max(8, round(INFER_SCENES_PER_S * seconds / self.repeats))
        self.attempted = self.scenes * self.repeats
        self.first = seed * self.scenes
        self.trained = run_dir / "trained"
        self.served = run_dir / "served.bin"
        self.run_dirs = {self.variant: [self.trained]}
        self.done = 0
        self.confusions: List[list] = []
        self.fails: List[str] = []

    def setup(self) -> None:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).with_name("train_served.py")),
                        str(self.trained), str(INFER_SETUP_STEPS)],
                       check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        self.fixture_s = time.perf_counter() - t0
        self.step_s = json.loads((self.trained / "step_s.json").read_text())
        trained = train_mod.load_model(self.trained / "checkpoint.bin")
        self.params = {k: v.data for k, v in trained.parameters()}
        train_mod.save_checkpoint(self.served, trained.config.to_dict(), self.params)
        self.model = train_mod.load_model(self.served)

    def body(self, rep: int) -> float:
        cfg = self.model.config
        cm = np.zeros((cfg.num_classes, cfg.num_classes), dtype=np.int64)
        check_s = 0.0
        for j in range(self.first, self.first + self.scenes):
            image, labels = eval_scene(cfg, j)
            with no_grad():
                out = self.model.forward(image, mode="infer")
            cm += checks.confusion(out.logits.data.argmax(axis=0), labels, cfg.num_classes)
            t0 = time.perf_counter()
            self.fails += checks.check_topk(out.scores.P.data, out.decisions.topk, cfg.target_ratio)
            check_s += time.perf_counter() - t0
            self.done += 1
        self.confusions.append(cm.tolist())
        self.miou = checks.miou(cm)
        return check_s

    def completed(self, markers) -> int:
        return self.done

    def check(self, markers) -> List[str]:
        fails = list(self.fails)
        fails += check_repeats_agree("confusion matrix", self.confusions)
        fails += checks.check_round_trip(self.params, {k: v.data for k, v in self.model.parameters()})
        fails += check_mask_equals_gather(self.model, self.first)
        reported = evaluate_checkpoint(self.served, INFER_CHECK_SCENES)["eval"]["miou"]
        fails += checks.check_miou("evaluate_checkpoint subset",
                                   own_miou(self.model, range(INFER_CHECK_SCENES)), reported)
        return fails


class AblateLadder(Workload):
    """ablate() over the four variants x ABLATE_SEEDS seeds.

    ablate() numbers its runs' seeds 0..n-1 and draws scenes by step index, so
    the inputs are the same for every --seed.
    """

    variant = "fff+sfs+pm"

    def __init__(self, seed, seconds, run_dir):
        super().__init__(seed, seconds, run_dir)
        self.steps = max(ABLATE_EVALS, round(ABLATE_STEPS_PER_S * seconds / self.repeats))
        self.attempted = len(checks.VARIANT_FLAGS) * ABLATE_SEEDS * self.repeats
        self.outs = [run_dir / f"ablation{r}" for r in range(self.repeats)]
        self.run_dirs = {v: [out / v.replace("+", "_") / f"seed{s}"
                             for out in self.outs for s in range(ABLATE_SEEDS)]
                         for v in checks.VARIANT_FLAGS}
        self.summaries: List[dict] = []

    def body(self, rep: int) -> float:
        self.summaries.append(ablate(ModelConfig(), list(checks.VARIANT_FLAGS), ABLATE_SEEDS,
                                     self.steps, self.outs[rep],
                                     eval_every=self.steps // ABLATE_EVALS,
                                     eval_scenes=ABLATE_EVAL_SCENES))
        self.miou = self.summaries[-1]["variants"][self.variant]["median_miou"]
        return 0.0

    def completed(self, markers) -> int:
        return sum((d / "report.json").is_file() for dirs in self.run_dirs.values() for d in dirs)

    def check(self, markers) -> List[str]:
        fails = check_repeats_agree("ablation summary", self.summaries)
        for variant, dirs in self.run_dirs.items():
            summary_mious = self.summaries[-1]["variants"][variant]["final_miou"]
            for seed, run_dir in enumerate(dirs[-ABLATE_SEEDS:]):
                ckpt = run_dir / "checkpoint.bin"
                cfg_dict, _ = load_checkpoint(ckpt)
                report = json.loads((run_dir / "report.json").read_text())
                own = own_miou(load_model(ckpt), range(ABLATE_EVAL_SCENES))
                fails += checks.check_ablation_run(variant, seed, cfg_dict, report, own)
                fails += checks.check_miou(f"{variant} seed {seed} summary", own, summary_mious[seed])
        return fails


WORKLOADS = {
    "train-fff-sfs": TrainFffSfs,
    "infer-heldout": InferHeldout,
    "ablate-ladder": AblateLadder,
}
