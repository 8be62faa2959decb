"""Four-level feature pyramid, top-down enhancement and token flattening.

The backbone is a deliberately small stand-in: four strided patchify convs
with GELU, stage i reducing resolution to 1/2^(i+1) and emitting 2^(i-1)*C
channels.  The top-down pass is the classic lateral-1x1 + nearest-upsample +
add recipe, bringing every level to a common width D.  Flattening walks the
levels scale-major, row-major, which keeps each scale's tokens contiguous in
the full sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .tensor import (
    ConfigurationError,
    Tensor,
    concat,
    conv2d,
    glorot_uniform,
    upsample_nearest,
    zeros_param,
)

NUM_LEVELS = 4


def level_channels(base_channels: int, level: int) -> int:
    return (2 ** (level - 1)) * base_channels


def sequence_length(height: int, width: int) -> int:
    """Closed-form full-scale token count: sum of H*W / 2^(2i+2), i=1..4."""
    if height % 32 or width % 32:
        raise ConfigurationError(f"image {height}x{width} not divisible by 32")
    return sum((height * width) // (2 ** (2 * i + 2)) for i in range(1, 5))


@dataclass
class ConvStage:
    weight: Tensor
    bias: Tensor
    stride: int

    def __call__(self, x: Tensor, activate: bool = True) -> Tensor:
        out = conv2d(x, self.weight, stride=self.stride, pad=0, bias=self.bias)
        return out.gelu() if activate else out


@dataclass
class ToyBackbone:
    """Patchify stem (4x4/4) plus three 2x2/2 merging stages."""

    stages: List[ConvStage]
    base_channels: int

    @classmethod
    def create(cls, base_channels: int, rng: np.random.Generator) -> "ToyBackbone":
        stages = []
        in_ch = 3
        for i in range(1, NUM_LEVELS + 1):
            out_ch = level_channels(base_channels, i)
            k = 4 if i == 1 else 2
            fan_in = in_ch * k * k
            stages.append(
                ConvStage(
                    weight=glorot_uniform(rng, (out_ch, in_ch, k, k), fan_in, out_ch),
                    bias=zeros_param((out_ch,)),
                    stride=k,
                )
            )
            in_ch = out_ch
        return cls(stages=stages, base_channels=base_channels)

    def parameters(self):
        for i, st in enumerate(self.stages, start=1):
            yield f"backbone.stage{i}.weight", st.weight
            yield f"backbone.stage{i}.bias", st.bias


@dataclass
class LateralSet:
    """Per-level 1x1 projections to the common width D."""

    convs: List[ConvStage]
    common_dim: int

    @classmethod
    def create(cls, base_channels: int, common_dim: int, rng: np.random.Generator) -> "LateralSet":
        convs = []
        for i in range(1, NUM_LEVELS + 1):
            in_ch = level_channels(base_channels, i)
            convs.append(
                ConvStage(
                    weight=glorot_uniform(rng, (common_dim, in_ch, 1, 1), in_ch, common_dim),
                    bias=zeros_param((common_dim,)),
                    stride=1,
                )
            )
        return cls(convs=convs, common_dim=common_dim)

    def parameters(self):
        for i, c in enumerate(self.convs, start=1):
            yield f"lateral.{i}.weight", c.weight
            yield f"lateral.{i}.bias", c.bias


@dataclass
class FeaturePyramid:
    raw_levels: List[Tensor]
    base_channels: int
    common_dim: int
    enhanced_levels: Optional[List[Tensor]] = None


@dataclass
class TokenSequence:
    """Flattened full-scale sequence with per-token pyramid provenance."""

    tokens: Tensor                      # L x D
    provenance: np.ndarray              # L x 3 int array: (scale, row, col)
    lengths: List[int]                  # N_1..N_4
    level_shapes: List[tuple]           # (h_i, w_i) per level

    @property
    def length(self) -> int:
        return self.tokens.shape[0]

    def offset(self, level: int) -> int:
        return sum(self.lengths[: level - 1])

    def scale_slice(self, level: int) -> tuple:
        off = self.offset(level)
        return off, off + self.lengths[level - 1]


def extract_pyramid(image: Tensor, backbone: ToyBackbone, common_dim: int) -> FeaturePyramid:
    """Run the backbone stages; raw level i is 2^(i-1)*C x H/2^(i+1) x W/2^(i+1)."""
    if image.data.ndim != 3 or image.shape[0] != 3:
        raise ConfigurationError(f"expected a 3xHxW image, got {image.shape}")
    _, H, W = image.shape
    if H % 32 or W % 32:
        raise ConfigurationError(f"image {H}x{W} not divisible by 32")
    levels = []
    x = image
    for st in backbone.stages:
        x = st(x)
        levels.append(x)
    return FeaturePyramid(raw_levels=levels, base_channels=backbone.base_channels, common_dim=common_dim)


def top_down_enhance(pyramid: FeaturePyramid, laterals: LateralSet) -> FeaturePyramid:
    """Fill enhanced levels: lateral 1x1, then add the upsampled level above."""
    lat = [laterals.convs[i](pyramid.raw_levels[i], activate=False) for i in range(NUM_LEVELS)]
    enhanced: List[Optional[Tensor]] = [None] * NUM_LEVELS
    enhanced[3] = lat[3]
    for i in (2, 1, 0):
        enhanced[i] = lat[i] + upsample_nearest(enhanced[i + 1], 2)
    pyramid.enhanced_levels = enhanced
    return pyramid


def rearrange(pyramid: FeaturePyramid) -> TokenSequence:
    """Flatten enhanced levels scale-major / row-major into an L x D sequence."""
    if pyramid.enhanced_levels is None:
        raise ConfigurationError("rearrange needs enhanced levels; run top_down_enhance first")
    parts, prov, lengths, shapes = [], [], [], []
    for i, level in enumerate(pyramid.enhanced_levels, start=1):
        D, h, w = level.shape
        parts.append(level.reshape(D, h * w))
        rows, cols = np.divmod(np.arange(h * w), w)
        prov.append(np.stack([np.full(h * w, i), rows, cols], axis=1))
        lengths.append(h * w)
        shapes.append((h, w))
    return TokenSequence(
        tokens=concat(parts, axis=1).transpose(),
        provenance=np.concatenate(prov, axis=0).astype(np.int64),
        lengths=lengths,
        level_shapes=shapes,
    )


def scatter_tokens(seq_values: np.ndarray, seq: TokenSequence, common_dim: int) -> List[np.ndarray]:
    """Inverse of rearrange on raw values: rebuild each D x h x w level."""
    out = []
    for i in range(1, NUM_LEVELS + 1):
        lo, hi = seq.scale_slice(i)
        h, w = seq.level_shapes[i - 1]
        out.append(seq_values[lo:hi].T.reshape(common_dim, h, w))
    return out
