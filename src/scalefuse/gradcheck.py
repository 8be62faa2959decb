"""Finite-difference verification of analytic gradients.

The generic helpers compare any scalar-valued function of numpy buffers
against central differences; the model-level entry point wires them to the
full training loss and reports one result per parameter group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np


def central_diff(f: Callable[[], float], arr: np.ndarray, flat_index: int, eps: float = 1e-5) -> float:
    """d f / d arr[flat_index] by central differences; restores arr."""
    flat = arr.reshape(-1)
    saved = flat[flat_index]
    flat[flat_index] = saved + eps
    fp = f()
    flat[flat_index] = saved - eps
    fm = f()
    flat[flat_index] = saved
    return (fp - fm) / (2.0 * eps)


def rel_error(a: float, b: float, floor: float = 1e-3) -> float:
    """|a-b| scaled by max(|a|, |b|, floor); floor absorbs FD noise near zero."""
    return abs(a - b) / max(abs(a), abs(b), floor)


def check_gradients(
    f: Callable[[], float],
    arrays: Dict[str, np.ndarray],
    grads: Dict[str, np.ndarray],
    eps: float = 1e-5,
    floor: float = 1e-3,
    samples_per_group: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> Dict[str, float]:
    """Max relative error per named array, sampling entries when asked.

    `grads` holds the analytic gradients (same shapes as `arrays`); `f`
    re-evaluates the scalar objective from the current array contents.  A
    non-finite gradient or finite difference makes its array's error inf.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    worst: Dict[str, float] = {}
    for name, arr in arrays.items():
        g = grads[name].reshape(-1)
        n = arr.size
        if samples_per_group is None or samples_per_group >= n:
            idxs = np.arange(n)
        else:
            idxs = rng.choice(n, size=samples_per_group, replace=False)
        err = 0.0
        for i in idxs:
            fd = central_diff(f, arr, int(i), eps)
            e = rel_error(float(g[i]), fd, floor)
            err = max(err, e) if math.isfinite(e) else math.inf  # max(0.0, nan) is 0.0
        worst[name] = err
    return worst


@dataclass
class GradCheckReport:
    tolerance: float
    per_group: Dict[str, float]

    @property
    def failures(self) -> Dict[str, float]:
        return {k: v for k, v in self.per_group.items() if not v < self.tolerance}

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def max_error(self) -> float:
        return max(self.per_group.values()) if self.per_group else 0.0


def gradcheck_model(config, tolerance: float = 1e-3, samples_per_group: int = 10, seed: int = 0,
                    corrupt_group: Optional[str] = None) -> GradCheckReport:
    """Central-difference check of d(total loss)/d(parameter) for every group.

    Runs the training forward with frozen Gumbel noise and soft (non-hardened)
    decisions: the straight-through estimator defines its backward as the soft
    path's gradient, and only a smooth forward has a finite difference to
    compare against.  `corrupt_group` multiplies that group's analytic
    gradient by 2 - a negative control proving the check can fail.
    """
    from .model import SegmentationModel, total_loss
    from .scenes import SyntheticSceneSpec, generate_scene

    model = SegmentationModel(config)
    spec = SyntheticSceneSpec(height=config.image_h, width=config.image_w,
                              num_classes=config.num_classes, seed=seed)
    image, labels = generate_scene(spec)
    noise_rng = np.random.default_rng(seed + 1)
    noise = model.draw_gumbel_noise(noise_rng)

    def run() -> float:
        out = model.forward(image, mode="train", hard_decisions=False, gumbel_noise=noise)
        loss, _ = total_loss(out, labels, config)
        return loss.item()

    out = model.forward(image, mode="train", hard_decisions=False, gumbel_noise=noise)
    loss, _ = total_loss(out, labels, config)
    loss.backward()

    params = dict(model.parameters())
    arrays = {name: p.data for name, p in params.items()}
    grads = {}
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if corrupt_group is not None and name == corrupt_group:
            g = g * 2.0 + 1e-2
        grads[name] = g

    per_group = check_gradients(run, arrays, grads, samples_per_group=samples_per_group,
                                rng=np.random.default_rng(seed + 2))
    return GradCheckReport(tolerance=tolerance, per_group=per_group)
