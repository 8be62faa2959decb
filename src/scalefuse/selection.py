"""Scale-level feature selection: importance scoring and keep/drop decisions.

A two-layer MLP scores every token's usefulness to each of the four query
scales.  It emits a (keep, drop) logit pair per scale and token; the keep
probability after a per-pair softmax is the importance score, so all four
columns can independently approach the target keep ratio.  Training samples
hard binary decisions with the Gumbel trick and a straight-through backward;
inference ranks scores and keeps the top ceil(rho * L) tokens per scale.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from .tensor import (
    ConfigurationError,
    Tensor,
    concat,
    glorot_uniform,
    matmul,
    straight_through,
    zeros_param,
)
from .pyramid import NUM_LEVELS, TokenSequence

_LOG_EPS = 1e-12


@dataclass
class ScorerMLP:
    """D -> D/2 -> 8 stack of `matmul(x, W, b)` maps with GELU; last axis packs 4 x (keep, drop)."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def create(cls, common_dim: int, rng: np.random.Generator) -> "ScorerMLP":
        hidden = max(common_dim // 2, 4)
        return cls(
            w1=glorot_uniform(rng, (common_dim, hidden), common_dim, hidden),
            b1=zeros_param((hidden,)),
            w2=glorot_uniform(rng, (hidden, 2 * NUM_LEVELS), hidden, 2 * NUM_LEVELS),
            b2=zeros_param((2 * NUM_LEVELS,)),
        )

    def parameters(self):
        yield "scorer.w1", self.w1
        yield "scorer.b1", self.b1
        yield "scorer.w2", self.w2
        yield "scorer.b2", self.b2


@dataclass
class ScoreMatrix:
    """L x 4 keep probabilities; column i scores all tokens for scale i."""

    P: Tensor
    produced_from: TokenSequence

    def column_means(self) -> np.ndarray:
        return self.P.data.mean(axis=0)


@dataclass
class DecisionSet:
    mode: str                                  # "training" | "inference"
    Q: Optional[Tensor] = None                 # L x 4 hard decisions (training)
    soft: Optional[Tensor] = None              # L x 4 soft samples (training)
    topk: Optional[List[np.ndarray]] = None    # ascending index lists (inference)

    def keep_ratio(self, level: int, length: int) -> float:
        if self.mode == "training":
            return float(self.Q.data[:, level - 1].mean())
        return len(self.topk[level - 1]) / length


def score(seq: TokenSequence, mlp: ScorerMLP) -> ScoreMatrix:
    """Per token and scale, softmax over the (keep, drop) logit pair."""
    h = matmul(seq.tokens, mlp.w1, mlp.b1).gelu()
    logits = matmul(h, mlp.w2, mlp.b2)
    P = logits.reshape(seq.length, NUM_LEVELS, 2).softmax(axis=2)[..., 0]
    return ScoreMatrix(P=P, produced_from=seq)


def draw_gumbel_noise(rng: np.random.Generator, length: int) -> np.ndarray:
    """Standard Gumbel noise for one sampling pass, shape L x 4 x 2."""
    u = rng.uniform(_LOG_EPS, 1.0, size=(length, NUM_LEVELS, 2))
    return -np.log(-np.log(u))


def gumbel_sample(
    scores: ScoreMatrix,
    temperature: float,
    rng: Optional[np.random.Generator] = None,
    noise: Optional[np.ndarray] = None,
    hard: bool = True,
) -> DecisionSet:
    """Two-class Gumbel-Softmax over (P, 1-P) per token and scale.

    The hard argmax decision is forwarded exactly; its backward is the soft
    sample's (straight-through).  `hard=False` returns the soft relaxation
    itself - the differentiable surrogate the estimator's gradient belongs to.
    """
    if temperature <= 0:
        raise ConfigurationError(f"gumbel temperature must be > 0, got {temperature}")
    P = scores.P
    L = P.shape[0]
    if noise is None:
        if rng is None:
            raise ConfigurationError("gumbel_sample needs an rng or explicit noise")
        noise = draw_gumbel_noise(rng, L)
    if noise.shape != (L, NUM_LEVELS, 2):
        raise ConfigurationError(f"gumbel noise shape {noise.shape} != {(L, NUM_LEVELS, 2)}")

    keep = P.reshape(L, NUM_LEVELS, 1)
    logits = (concat([keep, 1.0 - keep], axis=2) + _LOG_EPS).log()
    soft = ((logits + Tensor(noise)) * (1.0 / temperature)).softmax(axis=2)[..., 0]
    if not hard:
        return DecisionSet(mode="training", Q=soft, soft=soft)
    hard_vals = (soft.data >= 0.5).astype(np.float64)
    Q = straight_through(hard_vals, soft)
    return DecisionSet(mode="training", Q=Q, soft=soft)


def topk_select(scores: ScoreMatrix, rho: float) -> DecisionSet:
    """Indices of the ceil(rho*L) highest scores per scale, ties to lower index.

    Selection ranks by (-score, index); the stored lists are ascending, so
    rho = 1.0 yields the identity ordering.
    """
    if not 0.0 < rho <= 1.0:
        raise ConfigurationError(f"rho must be in (0, 1], got {rho}")
    P = scores.P.data
    L = P.shape[0]
    k = int(np.ceil(rho * L))
    picks = []
    for i in range(NUM_LEVELS):
        order = np.lexsort((np.arange(L), -P[:, i]))
        picks.append(np.sort(order[:k]).astype(np.int64))
    return DecisionSet(mode="inference", topk=picks)


# -- exports: per-query-scale score maps drawn on each pyramid grid -----------


def selected_flags(decisions: DecisionSet, level: int, length: int) -> np.ndarray:
    if decisions.mode == "training":
        return decisions.Q.data[:, level - 1] > 0.5
    flags = np.zeros(length, dtype=bool)
    flags[decisions.topk[level - 1]] = True
    return flags


def export_selection_csv(path, seq: TokenSequence, scores: ScoreMatrix,
                         decisions: DecisionSet, level: int) -> None:
    """token_index, scale, row, col, score, selected rows for one query scale."""
    flags = selected_flags(decisions, level, seq.length)
    col = scores.P.data[:, level - 1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["token_index", "scale", "row", "col", "score", "selected"])
        for j in range(seq.length):
            s, r, c = seq.provenance[j]
            w.writerow([j, int(s), int(r), int(c), repr(float(col[j])), int(flags[j])])


def export_selection_pgm(path, seq: TokenSequence, scores: ScoreMatrix,
                         level: int, source_level: int) -> None:
    """8-bit binary PGM of scale-`level` scores over one source level's grid."""
    h, w = seq.level_shapes[source_level - 1]
    lo, hi = seq.scale_slice(source_level)
    col = scores.P.data[lo:hi, level - 1].reshape(h, w)
    pixels = np.clip(np.rint(col * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def export_selection_maps(out_dir, seq: TokenSequence, scores: ScoreMatrix,
                          decisions: DecisionSet) -> List[str]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for level in range(1, NUM_LEVELS + 1):
        csv_path = out_dir / f"selection_q{level}.csv"
        export_selection_csv(csv_path, seq, scores, decisions, level)
        written.append(str(csv_path))
        for src in range(1, NUM_LEVELS + 1):
            pgm_path = out_dir / f"selection_q{level}_s{src}.pgm"
            export_selection_pgm(pgm_path, seq, scores, level, src)
            written.append(str(pgm_path))
    return written
