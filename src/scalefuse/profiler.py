"""MAC and activation-memory accounting for the fusion stage.

Runs one training-mode forward per input size with the projection on and
off, collecting the per-scale counters the fusion layer records while it
computes: attention-stage multiply-accumulates (score matrix plus
attention-times-values), projection overhead, and the peak of each scale's
fusion as traced bytes / 8 (float64 equivalents of every numpy buffer,
`tracemalloc`).  Forwards run without graph recording so intermediates are
released as soon as they die, which is what makes the peak meaningful.
"""

from __future__ import annotations

import tracemalloc
from typing import Dict, List, Optional

import numpy as np

from .model import ModelConfig, SegmentationModel
from .scenes import SyntheticSceneSpec, generate_scene
from .tensor import no_grad

# small channel budget so the largest size stays desk-friendly
PROFILE_DEFAULTS = dict(base_channels=4, common_dim=16, heads=2)


def profile_config(size: int, base: Optional[ModelConfig] = None, projected: bool = True) -> ModelConfig:
    cfg = base if base is not None else ModelConfig(**PROFILE_DEFAULTS)
    return cfg.replace(
        image_h=size, image_w=size,
        use_projection_on=(1,) if projected else (),
    )


def _run(config: ModelConfig) -> List[dict]:
    model = SegmentationModel(config)
    image, _ = generate_scene(SyntheticSceneSpec(
        height=config.image_h, width=config.image_w,
        num_classes=config.num_classes, seed=0))
    rng = np.random.default_rng(config.seed)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        with no_grad():
            out = model.forward(image, mode="train", rng=rng)
    finally:
        if started:
            tracemalloc.stop()
    return [s.to_dict() for s in out.fusion_diagnostics.per_scale]


def profile(sizes: List[int], base: Optional[ModelConfig] = None) -> dict:
    """Per-size base vs projected fusion counters, scale 1 highlighted."""
    results: Dict[str, dict] = {}
    for size in sizes:
        base_stats = _run(profile_config(size, base, projected=False))
        proj_stats = _run(profile_config(size, base, projected=True))
        scale1_base = next(s for s in base_stats if s["scale"] == 1)
        scale1_proj = next(s for s in proj_stats if s["scale"] == 1)
        results[str(size)] = {
            "base": base_stats,
            "projected": proj_stats,
            "scale1": {
                "attention_macs_base": scale1_base["attention_macs"],
                "attention_macs_projected": scale1_proj["attention_macs"],
                "attention_macs_saved": scale1_base["attention_macs"] - scale1_proj["attention_macs"],
                "peak_floats_base": scale1_base["peak_activation_floats"],
                "peak_floats_projected": scale1_proj["peak_activation_floats"],
                "peak_floats_saved": scale1_base["peak_activation_floats"]
                - scale1_proj["peak_activation_floats"],
            },
        }
    return {"sizes": [int(s) for s in sizes], "results": results}
