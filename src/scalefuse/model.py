"""Full segmentation model: backbone stub, top-down neck, selection, fusion,
FCN heads, and the composite training objective.

Pipeline (training): image -> pyramid -> top-down enhance -> flatten ->
importance scores -> hard Gumbel decisions -> masked full-scale fusion per
scale -> FCN head at stride 4 over the channel merge of the four fused maps
-> x4 upsample -> logits.  The head's first 3x3 conv reads each map at its
own resolution (`conv3x3_upsampled`), so the maps are never upsampled or
concatenated.  Inference swaps the mask for a top-k gather and needs no
sampling.  The ablation baseline keeps only the neck: a deeper FCN head at
stride 8 over the enhanced levels (the stride-4 level downsampled), and no
selection or fusion.

The auxiliary head reads the raw stage-3 backbone features and its loss is
weighted by `aux_weight`; the ratio loss pulls every score column's mean
toward `target_ratio`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import selection as selection_mod
from .fusion import FusionDiagnostics, MCAParams, ProjectionGenerator, fuse_all_scales
from .pyramid import (
    NUM_LEVELS,
    ConvStage,
    LateralSet,
    TokenSequence,
    ToyBackbone,
    extract_pyramid,
    rearrange,
    sequence_length,
    top_down_enhance,
)
from .selection import DecisionSet, ScoreMatrix, ScorerMLP, gumbel_sample, score, topk_select
from .tensor import (
    ConfigurationError,
    Tensor,
    concat,
    conv2d,
    conv3x3_upsampled,
    cross_entropy,
    downsample_nearest,
    glorot_uniform,
    upsample_nearest,
    zeros_param,
)

IGNORE_INDEX = 255


@dataclass
class ModelConfig:
    image_h: int = 64
    image_w: int = 64
    num_classes: int = 4
    base_channels: int = 8
    common_dim: int = 32          # 256 mirrors the reference large-scale setting
    heads: int = 8
    target_ratio: float = 0.6
    ratio_weight: float = 0.4
    aux_weight: float = 0.4
    reduction_ratio: int = 4
    gumbel_temperature: float = 1.0
    use_projection_on: Tuple[int, ...] = (1,)
    eq5_literal: bool = False
    residual: bool = True
    merge: str = "concat"
    use_fff: bool = True
    use_sfs: bool = True
    seed: int = 0

    def validate(self) -> "ModelConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not _is_int(value):
                raise ConfigurationError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not _is_finite_real(value):
                raise ConfigurationError(f"{f.name} must be a finite number, got {value!r}")
            if f.type == "bool" and not isinstance(value, bool):
                raise ConfigurationError(f"{f.name} must be true or false, got {value!r}")
        if not isinstance(self.use_projection_on, (list, tuple)) or not all(
                _is_int(s) for s in self.use_projection_on):
            raise ConfigurationError(f"use_projection_on must be a list of scales, got {self.use_projection_on!r}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        for name in ("image_h", "image_w", "heads", "base_channels", "common_dim"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be > 0, got {getattr(self, name)}")
        if min(self.aux_weight, self.ratio_weight) < 0:
            raise ConfigurationError("aux_weight and ratio_weight must be >= 0")
        if self.image_h % 32 or self.image_w % 32:
            raise ConfigurationError(f"image {self.image_h}x{self.image_w} not divisible by 32")
        if self.common_dim % self.heads:
            raise ConfigurationError(f"common_dim {self.common_dim} not divisible by heads {self.heads}")
        if not 0.0 < self.target_ratio <= 1.0:
            raise ConfigurationError(f"target_ratio {self.target_ratio} outside (0, 1]")
        if self.gumbel_temperature <= 0:
            raise ConfigurationError("gumbel_temperature must be > 0")
        if self.reduction_ratio < 1:
            raise ConfigurationError("reduction_ratio must be >= 1")
        if self.merge not in ("concat", "sum"):
            raise ConfigurationError(f"merge must be concat|sum, got {self.merge!r}")
        if self.num_classes < 2:
            raise ConfigurationError("num_classes must be >= 2")
        bad = set(self.use_projection_on) - set(range(1, NUM_LEVELS + 1))
        if bad:
            raise ConfigurationError(f"use_projection_on has invalid scales {sorted(bad)}")
        if len(set(self.use_projection_on)) != len(self.use_projection_on):
            raise ConfigurationError(f"use_projection_on repeats a scale: {list(self.use_projection_on)}")
        if self.use_sfs and not self.use_fff:
            raise ConfigurationError("use_sfs requires use_fff (selection gates the fusion)")
        return self

    @classmethod
    def tiny(cls, **overrides) -> "ModelConfig":
        base = dict(image_h=32, image_w=32, num_classes=3, base_channels=4,
                    common_dim=16, heads=4)
        base.update(overrides)
        return cls(**base).validate()

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        if not isinstance(data, dict):
            raise ConfigurationError(f"config must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        data = dict(data)
        if isinstance(data.get("use_projection_on"), list):  # validate rejects other types
            data["use_projection_on"] = tuple(data["use_projection_on"])
        return cls(**data).validate()

    def to_dict(self) -> dict:
        d = asdict(self)
        d["use_projection_on"] = list(self.use_projection_on)
        return d

    def replace(self, **overrides) -> "ModelConfig":
        d = asdict(self)
        d.update(overrides)
        d["use_projection_on"] = tuple(d["use_projection_on"])
        return ModelConfig(**d).validate()


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    try:  # math.isfinite overflows on an int too large for a float
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


@dataclass
class ForwardResult:
    logits: Tensor
    aux_logits: Tensor
    scores: Optional[ScoreMatrix]
    decisions: Optional[DecisionSet]
    sequence: Optional[TokenSequence]
    fusion_diagnostics: FusionDiagnostics
    mode: str

    def keep_ratios(self) -> List[float]:
        if self.scores is None or self.decisions is None:
            return [1.0] * NUM_LEVELS
        L = self.sequence.length
        return [self.decisions.keep_ratio(i, L) for i in range(1, NUM_LEVELS + 1)]


class FCNHead:
    """3x3 conv stack (depth 1 or 2) with GELU, then a 1x1 classifier.

    The first conv reads the channel merge of its input maps, each taken to
    the head's resolution by nearest upsampling, through one
    `conv3x3_upsampled` op that never forms the upsampled copies.  With
    `merge="sum"` its weight (in_ch input channels) is tied across the maps:
    a conv of the summed maps is the conv of their concat with the weight
    repeated once per map.
    """

    def __init__(self, in_ch: int, hidden: int, num_classes: int, depth: int,
                 rng: np.random.Generator, prefix: str, merge: str = "concat"):
        self.prefix = prefix
        self.merge = merge
        self.convs: List[ConvStage] = []
        ch = in_ch
        for _ in range(depth):
            self.convs.append(ConvStage(
                weight=glorot_uniform(rng, (hidden, ch, 3, 3), ch * 9, hidden),
                bias=zeros_param((hidden,)),
                stride=1,
            ))
            ch = hidden
        self.classifier = ConvStage(
            weight=glorot_uniform(rng, (num_classes, ch, 1, 1), ch, num_classes),
            bias=zeros_param((num_classes,)),
            stride=1,
        )

    def __call__(self, parts: Sequence[Tensor], factors: Sequence[int]) -> Tensor:
        """Head over the merge of `parts`, part g upsampled by factors[g]."""
        for conv in self.convs:
            weight = conv.weight
            if self.merge == "sum" and len(parts) > 1:
                weight = concat([weight] * len(parts), axis=1)
            x = conv3x3_upsampled(parts, factors, weight, conv.bias).gelu()
            parts, factors = [x], (1,)
        return conv2d(x, self.classifier.weight, bias=self.classifier.bias)

    def parameters(self):
        for i, conv in enumerate(self.convs, start=1):
            yield f"{self.prefix}.conv{i}.weight", conv.weight
            yield f"{self.prefix}.conv{i}.bias", conv.bias
        yield f"{self.prefix}.classifier.weight", self.classifier.weight
        yield f"{self.prefix}.classifier.bias", self.classifier.bias


class SegmentationModel:
    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        rng = np.random.default_rng(config.seed)
        C, D = config.base_channels, config.common_dim
        self.backbone = ToyBackbone.create(C, rng)
        self.laterals = LateralSet.create(C, D, rng)
        self.scorer = ScorerMLP.create(D, rng) if (config.use_sfs and config.use_fff) else None
        self.mca: List[MCAParams] = []
        self.generators: Dict[int, ProjectionGenerator] = {}
        if config.use_fff:
            self.mca = [MCAParams.create(D, config.heads, rng) for _ in range(NUM_LEVELS)]
            for scale in sorted(config.use_projection_on):
                n_tokens = (config.image_h // (2 ** (scale + 1))) * (config.image_w // (2 ** (scale + 1)))
                self.generators[scale] = ProjectionGenerator.create(
                    D, n_tokens, config.reduction_ratio, rng)
        merged = NUM_LEVELS * D if config.merge == "concat" else D
        self.head = FCNHead(merged, D, config.num_classes, depth=1 if config.use_fff else 2, rng=rng,
                            prefix="head", merge=config.merge)
        self.aux_head = FCNHead(4 * C, D, config.num_classes, depth=1, rng=rng, prefix="aux_head")

    # -- parameter registry ------------------------------------------------
    def parameters(self):
        yield from self.backbone.parameters()
        yield from self.laterals.parameters()
        if self.scorer is not None:
            yield from self.scorer.parameters()
        for i, p in enumerate(self.mca, start=1):
            yield from p.parameters(f"mca.{i}")
        for scale in sorted(self.generators):
            yield from self.generators[scale].parameters(f"projection.{scale}")
        yield from self.head.parameters()
        yield from self.aux_head.parameters()

    def param_count(self) -> int:
        return sum(p.size for _, p in self.parameters())

    def load_state(self, arrays: Dict[str, np.ndarray]) -> None:
        params = dict(self.parameters())
        if set(params) != set(arrays):
            missing = set(params) - set(arrays)
            extra = set(arrays) - set(params)
            raise ConfigurationError(f"checkpoint mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        for name, p in params.items():
            if p.shape != arrays[name].shape:
                raise ConfigurationError(f"shape mismatch for {name}: {p.shape} vs {arrays[name].shape}")
            p.data[...] = arrays[name]

    def draw_gumbel_noise(self, rng: np.random.Generator) -> np.ndarray:
        L = sequence_length(self.config.image_h, self.config.image_w)
        return selection_mod.draw_gumbel_noise(rng, L)

    # -- forward --------------------------------------------------------------
    def forward(
        self,
        image: Tensor,
        mode: str = "train",
        rng: Optional[np.random.Generator] = None,
        hard_decisions: bool = True,
        gumbel_noise: Optional[np.ndarray] = None,
    ) -> ForwardResult:
        cfg = self.config
        if mode not in ("train", "infer"):
            raise ConfigurationError(f"mode must be train|infer, got {mode!r}")
        if image.shape != (3, cfg.image_h, cfg.image_w):
            raise ConfigurationError(
                f"image shape {image.shape} != configured (3, {cfg.image_h}, {cfg.image_w})")

        diagnostics = FusionDiagnostics()
        p = extract_pyramid(image, self.backbone, cfg.common_dim)
        top_down_enhance(p, self.laterals)
        seq = rearrange(p)

        scores: Optional[ScoreMatrix] = None
        decisions: Optional[DecisionSet] = None
        if cfg.use_fff:
            if cfg.use_sfs:
                scores = score(seq, self.scorer)
                if mode == "train":
                    decisions = gumbel_sample(
                        scores, cfg.gumbel_temperature, rng=rng,
                        noise=gumbel_noise, hard=hard_decisions)
                else:
                    decisions = topk_select(scores, cfg.target_ratio)
            # eq. 5's count normalisation is a training rule; inference takes the plain softmax
            fused = fuse_all_scales(
                seq, decisions, self.mca, self.generators, residual=cfg.residual,
                literal=cfg.eq5_literal and mode == "train", diagnostics=diagnostics)
            # the head runs at stride 4, the scale-1 maps' resolution
            maps = [f.feature_map for f in fused]
            logits = upsample_nearest(self.head(maps, [2 ** i for i in range(NUM_LEVELS)]), 4)
        else:
            enhanced = p.enhanced_levels
            logits = upsample_nearest(self.head(
                [downsample_nearest(enhanced[0], 2), *enhanced[1:]], (1, 1, 2, 4)), 8)

        aux_logits = upsample_nearest(self.aux_head([p.raw_levels[2]], (1,)), 16)
        return ForwardResult(
            logits=logits,
            aux_logits=aux_logits,
            scores=scores,
            decisions=decisions,
            sequence=seq,
            fusion_diagnostics=diagnostics,
            mode=mode,
        )


def ratio_loss(P: Tensor, rho: float) -> Tensor:
    """Mean over scales of (rho - column mean)^2."""
    deviation = rho - P.mean(axis=0)
    return (deviation * deviation).mean()


def total_loss(result: ForwardResult, labels: np.ndarray, config: ModelConfig):
    """Composite objective and its per-term breakdown (floats)."""
    seg = cross_entropy(result.logits, labels, IGNORE_INDEX)
    aux = cross_entropy(result.aux_logits, labels, IGNORE_INDEX)
    total = seg + config.aux_weight * aux
    breakdown = {"seg": seg.item(), "aux": aux.item(), "ratio": 0.0}
    if result.scores is not None:
        ratio = ratio_loss(result.scores.P, config.target_ratio)
        total = total + config.ratio_weight * ratio
        breakdown["ratio"] = ratio.item()
    breakdown["total"] = total.item()
    return total, breakdown
