"""Correctness checks for the benchmark's workloads.

Each check compares what the program produced with a computation made here
in plain numpy from the method's definition, or with a property the method
guarantees.  None compares against a stored copy of earlier output.  Every
check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

NUM_SCALES = 4

# The flags each ablation variant must carry: (use_fff, use_sfs, use_projection_on).
VARIANT_FLAGS = {
    "baseline": (False, False, []),
    "fff": (True, False, []),
    "fff+sfs": (True, True, []),
    "fff+sfs+pm": (True, True, [1]),
}


# -- mIoU from the benchmark's own confusion counts ----------------------------


def confusion(pred: np.ndarray, labels: np.ndarray, num_classes: int,
              ignore_index: int = 255) -> np.ndarray:
    """Rows are true classes, columns predicted classes."""
    valid = labels != ignore_index
    cells = labels[valid].astype(np.int64) * num_classes + pred[valid].astype(np.int64)
    return np.bincount(cells, minlength=num_classes * num_classes).reshape(num_classes, num_classes)


def miou(cm: np.ndarray) -> float:
    """Mean IoU over the classes that occur in the labels or the predictions."""
    tp = np.diag(cm).astype(np.float64)
    union = cm.sum(axis=0) + cm.sum(axis=1) - tp
    present = union > 0
    return float(np.mean(tp[present] / union[present])) if present.any() else 0.0


def check_miou(name: str, own: float, reported: float, tol: float = 1e-12) -> List[str]:
    if not abs(own - reported) <= tol:
        return [f"{name}: own mIoU {own!r} != reported {reported!r}"]
    return []


def check_round_trip(saved: Dict[str, np.ndarray], loaded: Dict[str, np.ndarray]) -> List[str]:
    """A model saved and reloaded has the same parameter names and the same values, bit for bit."""
    if saved.keys() != loaded.keys():
        return [f"reloaded parameters {sorted(loaded)} differ from saved {sorted(saved)}"]
    return [f"parameter {k} changed in the checkpoint round trip"
            for k in sorted(saved) if not np.array_equal(saved[k], loaded[k])]


# -- training ---------------------------------------------------------------------


def check_training(step_losses: Sequence[float], hard_decisions: Sequence[np.ndarray]) -> List[str]:
    """Finite losses, binary decisions, and a loss that falls over the run.

    The last quarter of the steps must have a lower mean loss than the first
    quarter.
    """
    fails = []
    losses = np.asarray(step_losses, dtype=np.float64)
    if losses.size == 0:
        return ["no training steps recorded"]
    bad = int((~np.isfinite(losses)).sum())
    if bad:
        fails.append(f"{bad} of {losses.size} step losses are not finite")
    if len(hard_decisions) != losses.size:
        fails.append(f"{len(hard_decisions)} decision sets for {losses.size} steps")
    for step, q in enumerate(hard_decisions):
        if not np.isin(q, (0.0, 1.0)).all():
            fails.append(f"step {step}: a hard decision is not exactly 0 or 1")
            break
    window = max(1, losses.size // 4)
    first, last = losses[:window].mean(), losses[-window:].mean()
    if not last < first:
        fails.append(f"mean loss of the last {window} steps {last:.4f} is not below "
                     f"the first {window} steps' {first:.4f}")
    return fails


def gumbel_hard_decisions(P: np.ndarray, noise: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Keep where log P + g_keep >= log(1 - P) + g_drop: the two-class Gumbel argmax."""
    keep = np.log(P + eps) + noise[..., 0]
    drop = np.log((1.0 - P) + eps) + noise[..., 1]
    return (keep >= drop).astype(np.float64)


def reference_fused_rows(tokens: np.ndarray, lo: int, hi: int, keep: np.ndarray,
                         w: Dict[str, np.ndarray], heads: int, residual: bool) -> np.ndarray:
    """One scale's fused rows: masked multi-head cross-attention over all L tokens.

    Scale i's tokens (rows lo:hi) attend to the whole sequence.  Dropped keys
    (keep == 0) get weight zero; the softmax is taken over the kept keys only,
    and a row with no kept key is zero.
    """
    queries = tokens[lo:hi]
    n, d = queries.shape
    dk = d // heads
    q = (queries @ w["wq"] + w["bq"]).reshape(n, heads, dk).transpose(1, 0, 2)
    k = (tokens @ w["wk"] + w["bk"]).reshape(-1, heads, dk).transpose(1, 0, 2)
    v = (tokens @ w["wv"] + w["bv"]).reshape(-1, heads, dk).transpose(1, 0, 2)
    logits = q @ k.transpose(0, 2, 1) / math.sqrt(dk)
    kept = keep > 0
    if kept.any():
        shifted = logits - logits[:, :, kept].max(axis=-1, keepdims=True)
        weights = np.exp(shifted) * keep
        attn = weights / weights.sum(axis=-1, keepdims=True)
    else:
        attn = np.zeros_like(logits)
    out = (attn @ v).transpose(1, 0, 2).reshape(n, d) @ w["wo"] + w["bo"]
    return out + queries if residual else out


def check_close(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> List[str]:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= tol:
        return [f"{name}: max abs difference {err:.3e} > {tol:.0e}"]
    return []


# -- inference ------------------------------------------------------------------


def check_topk(P: np.ndarray, topk: Sequence[np.ndarray], rho: float) -> List[str]:
    """Each scale keeps exactly ceil(rho L) distinct tokens and no dropped one outscores a kept one."""
    fails = []
    L = P.shape[0]
    k = math.ceil(rho * L)
    for s in range(NUM_SCALES):
        idx = np.asarray(topk[s])
        if idx.size != k or np.unique(idx).size != k or idx.min() < 0 or idx.max() >= L:
            fails.append(f"scale {s + 1}: keeps {idx.size} tokens (distinct, in range), expected {k}")
            continue
        kept = np.zeros(L, dtype=bool)
        kept[idx] = True
        if k < L and P[~kept, s].max() > P[kept, s].min():
            fails.append(f"scale {s + 1}: a dropped token scores above a kept one")
    return fails


# -- ablation -------------------------------------------------------------------


def check_ablation_run(variant: str, seed: int, ckpt_config: dict, report: dict,
                       own_miou: float) -> List[str]:
    """One (variant, seed) run directory against what the ladder asked for."""
    name = f"{variant} seed {seed}"
    fails = []
    use_fff, use_sfs, proj = VARIANT_FLAGS[variant]
    got = (ckpt_config["use_fff"], ckpt_config["use_sfs"], list(ckpt_config["use_projection_on"]))
    if got != (use_fff, use_sfs, proj):
        fails.append(f"{name}: checkpoint flags {got} != {(use_fff, use_sfs, proj)}")
    if ckpt_config["seed"] != seed:
        fails.append(f"{name}: checkpoint seed {ckpt_config['seed']} != {seed}")
    if report["config"] != ckpt_config:
        fails.append(f"{name}: report config differs from the checkpoint's")
    scales = report["fusion"]["per_scale"]
    if variant == "baseline" and scales:
        fails.append(f"{name}: baseline reports {len(scales)} fusion scales")
    if variant != "baseline" and len(scales) != NUM_SCALES:
        fails.append(f"{name}: reports {len(scales)} fusion scales, expected {NUM_SCALES}")
    fails += check_miou(name, own_miou, report["final"]["miou"])
    return fails
