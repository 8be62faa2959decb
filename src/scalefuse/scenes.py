"""Deterministic synthetic scenes: colored shapes of mixed sizes on a noisy
background.

Classes carry both a color and a characteristic size mix (disks skew small,
rectangles large, triangles medium), so coarse levels see the big structures
and fine levels the small ones.  Every foreground class gets at least one
guaranteed shape per scene; later shapes occlude earlier ones.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .tensor import ConfigurationError, Tensor

log = logging.getLogger(__name__)

_PALETTE = np.array([
    [0.20, 0.20, 0.20],   # background
    [0.85, 0.25, 0.20],   # disks
    [0.20, 0.80, 0.30],   # rectangles
    [0.25, 0.35, 0.90],   # triangles
    [0.85, 0.80, 0.25],
    [0.70, 0.25, 0.80],
    [0.25, 0.80, 0.80],
    [0.90, 0.55, 0.20],
])

# each shape family's mix over the small/medium/large radius bands
_BAND_WEIGHTS = {
    "disk": (0.4, 0.4, 0.2),
    "rect": (0.1, 0.4, 0.5),
    "tri": (0.3, 0.5, 0.2),
}
_FAMILIES = ("disk", "rect", "tri")


@dataclass
class SyntheticSceneSpec:
    height: int = 64
    width: int = 64
    num_classes: int = 4          # background + shape classes
    # (small, medium, large) radius bands, pixels, inclusive
    radius_bands: tuple = ((3, 6), (7, 12), (14, 22))
    noise: float = 0.08
    min_extra_shapes: int = 2
    max_extra_shapes: int = 4
    seed: int = 0

    def validate(self) -> "SyntheticSceneSpec":
        if self.num_classes < 2 or self.num_classes > len(_PALETTE):
            raise ConfigurationError(f"num_classes must be in [2, {len(_PALETTE)}]")
        if self.height < 8 or self.width < 8:
            raise ConfigurationError("scene too small")
        if self.noise < 0:
            raise ConfigurationError("noise must be >= 0")
        if len(self.radius_bands) != 3 or any(lo < 2 or hi < lo for lo, hi in self.radius_bands):
            raise ConfigurationError(f"bad radius bands {self.radius_bands}")
        if self.seed < 0:
            raise ConfigurationError(f"scene seed must be >= 0, got {self.seed}")
        return self


def _draw_radius(rng: np.random.Generator, family: str, limit: int, bands) -> int:
    band = rng.choice(len(bands), p=_BAND_WEIGHTS[family])
    lo, hi = bands[band]
    r = int(rng.integers(lo, hi + 1))
    if r > limit:
        log.debug("shape radius %d does not fit (limit %d); respecified", r, limit)
        r = max(2, limit)
    return r


def _shape_mask(family: str, yy, xx, cy, cx, r, rng) -> np.ndarray:
    if family == "disk":
        return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    if family == "rect":
        aspect = rng.uniform(0.6, 1.4)
        ry = max(2, int(round(r * aspect)))
        return (np.abs(yy - cy) <= ry) & (np.abs(xx - cx) <= r)
    # upward wedge: widens linearly from its apex
    rise = yy - (cy - r)
    return (rise >= 0) & (yy <= cy + r) & (np.abs(xx - cx) <= rise * 0.6)


def generate_scene(spec: SyntheticSceneSpec,
                   rng: Optional[np.random.Generator] = None) -> Tuple[Tensor, np.ndarray]:
    """Render one scene; deterministic for a given spec (or passed rng)."""
    spec.validate()
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    H, W = spec.height, spec.width
    yy, xx = np.mgrid[0:H, 0:W]
    labels = np.zeros((H, W), dtype=np.int64)

    fg_classes = list(range(1, spec.num_classes))
    guaranteed = list(fg_classes)
    rng.shuffle(guaranteed)
    n_extra = int(rng.integers(spec.min_extra_shapes, spec.max_extra_shapes + 1))
    extras = [int(rng.choice(fg_classes)) for _ in range(n_extra)]

    def paint(cls):
        family = _FAMILIES[(cls - 1) % len(_FAMILIES)]
        limit = min(H, W) // 2 - 1
        r = _draw_radius(rng, family, limit, spec.radius_bands)
        cy = int(rng.integers(r, H - r)) if H - r > r else H // 2
        cx = int(rng.integers(r, W - r)) if W - r > r else W // 2
        labels[_shape_mask(family, yy, xx, cy, cx, r, rng)] = cls

    # extras first so the guaranteed shapes are least likely to be occluded
    for cls in extras + guaranteed:
        paint(cls)
    # occlusion can still erase a class entirely; repaint until all survive
    for _ in range(10):
        missing = [c for c in fg_classes if not (labels == c).any()]
        if not missing:
            break
        log.debug("classes %s occluded away; repainting", missing)
        for cls in missing:
            paint(cls)

    image = _PALETTE[labels].transpose(2, 0, 1).copy()
    if spec.noise > 0:
        image += rng.normal(0.0, spec.noise, size=image.shape)
    image = np.clip(image, 0.0, 1.0)

    assert (labels > 0).any(), "scene must contain a non-background pixel"
    return Tensor(image), labels
