"""Full-scale feature fusion: multi-head cross-attention per scale.

Each query scale attends over the whole flattened pyramid sequence.  One
attention op (`tensor.attention`) serves every path: `mca_core` wraps it in
the q/k/v and output projections, and `mca_fuse` and `mca_fuse_projected`
both go through `mca_core`, the latter with compacted queries.  Scale-level
selection decides which keys are in play: during training the scale's
binary keep decisions go to the op as a mask shared by all heads and query
rows; at inference the selected tokens are gathered up front and the op
runs unmasked.  Without selection (no decision set) it runs unmasked over
all L tokens.  The projection variant compresses the query sequence to N/r
rows with a learned column-stochastic matrix, attends at the short length,
and re-projects the output, which is where the quadratic score-matrix cost
actually shrinks.

Normalization note: the exp-weighted, max-shifted masked softmax is the
default; the count-normalized literal variant (`eq5_literal`) divides the
masked exponentials by the number of kept keys instead, so its rows do not
sum to one and it overflows for large scores.  Both share the all-masked-row
rule: such rows come out exactly zero and are tallied in the diagnostics.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .pyramid import NUM_LEVELS, TokenSequence
from .selection import DecisionSet
from .tensor import (
    ConfigurationError,
    Tensor,
    attention,
    gather_rows,
    glorot_uniform,
    matmul,
    zeros_param,
)


@dataclass
class MCAParams:
    """Query/key/value and output maps x W + b (`matmul(x, W, b)`) for h heads of width D/h."""

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    head_count: int

    @classmethod
    def create(cls, common_dim: int, head_count: int, rng: np.random.Generator) -> "MCAParams":
        if common_dim % head_count:
            raise ConfigurationError(f"D={common_dim} not divisible by h={head_count}")
        mk = lambda: glorot_uniform(rng, (common_dim, common_dim), common_dim, common_dim)
        return cls(
            wq=mk(), bq=zeros_param((common_dim,)),
            wk=mk(), bk=zeros_param((common_dim,)),
            wv=mk(), bv=zeros_param((common_dim,)),
            wo=mk(), bo=zeros_param((common_dim,)),
            head_count=head_count,
        )

    def parameters(self, prefix: str):
        for n in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"):
            yield f"{prefix}.{n}", getattr(self, n)


@dataclass
class ProjectionGenerator:
    """Per-token map D -> N' (x W + b) whose column-softmax yields the projection."""

    w: Tensor
    b: Tensor
    reduction: int

    @classmethod
    def create(cls, common_dim: int, n_tokens: int, reduction: int, rng: np.random.Generator) -> "ProjectionGenerator":
        if reduction < 1:
            raise ConfigurationError(f"reduction ratio must be >= 1, got {reduction}")
        if n_tokens % reduction:
            raise ConfigurationError(f"N={n_tokens} not divisible by r={reduction}")
        n_short = n_tokens // reduction
        return cls(
            w=glorot_uniform(rng, (common_dim, n_short), common_dim, n_short),
            b=zeros_param((n_short,)),
            reduction=reduction,
        )

    def parameters(self, prefix: str):
        yield f"{prefix}.w", self.w
        yield f"{prefix}.b", self.b


@dataclass
class ScaleFusionStats:
    scale: int
    path: str  # "base" | "projected"
    attention_macs: int
    projection_macs: int = 0
    peak_activation_floats: Optional[int] = None  # traced bytes / 8, only while tracemalloc traces

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class FusionDiagnostics:
    per_scale: List[ScaleFusionStats] = field(default_factory=list)
    zero_mask_rows: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class FusedOutput:
    scale: int
    rows: Tensor   # N_i x D
    feature_map: Tensor  # D x h_i x w_i


def mca_core(
    queries: Tensor,
    source: Tensor,
    params: MCAParams,
    keep: Optional[Tensor],
    literal: bool = False,
    diagnostics: Optional[FusionDiagnostics] = None,
) -> Tensor:
    """Attention block without the residual: q/k/v projections, attention, output projection.

    `keep` holds the scale's decisions over all of `source` (training), or is
    None when `source` is already the gathered kept keys (inference).
    """
    if diagnostics is not None and keep is not None and not np.any(keep.data > 0):
        diagnostics.zero_mask_rows += queries.shape[0]
    fused = attention(
        matmul(queries, params.wq, params.bq),
        matmul(source, params.wk, params.bk),
        matmul(source, params.wv, params.bv),
        keep, params.head_count, literal=literal,
    )
    return matmul(fused, params.wo, params.bo)


def attention_stage_macs(n_queries: int, n_keys: int, common_dim: int) -> int:
    # score matrix + attention-times-values, summed over heads
    return 2 * n_queries * n_keys * common_dim


def projection_stage_macs(n_tokens: int, n_short: int, common_dim: int) -> int:
    # generate the matrix, compress the queries, re-project the output
    return 3 * n_tokens * n_short * common_dim


def scale_keys(seq: TokenSequence, decisions: Optional[DecisionSet], scale: int):
    """One scale's (keys, keep): all L tokens and their decisions in training,
    the gathered top-k tokens and None at inference, and all L tokens and
    None without selection (`decisions` None).

    Training passes all L keys even though dropped ones get zero weight: the
    straight-through gradient to a dropped token's decision needs that
    token's score, which a gathered key set would not have.  The attention
    op splits them itself, doing the full work only on kept keys and a score
    pass, an exp and a share of one matmul on dropped ones.
    """
    if decisions is None:
        return seq.tokens, None
    if decisions.mode == "training":
        return seq.tokens, decisions.Q[:, scale - 1]
    return gather_rows(seq.tokens, decisions.topk[scale - 1]), None


def mca_fuse(
    queries: Tensor,
    seq: TokenSequence,
    decisions: Optional[DecisionSet],
    params: MCAParams,
    scale: int,
    residual: bool = True,
    literal: bool = False,
    diagnostics: Optional[FusionDiagnostics] = None,
) -> Tensor:
    """One scale's fused rows (N_i x D): masked in training, gathered at inference."""
    n, d = queries.shape
    source, keep = scale_keys(seq, decisions, scale)
    out = mca_core(queries, source, params, keep, literal=literal, diagnostics=diagnostics)
    if diagnostics is not None:
        diagnostics.per_scale.append(ScaleFusionStats(scale, "base", attention_stage_macs(n, source.shape[0], d)))
    return (out + queries) if residual else out


def project_tokens(queries: Tensor, gen: ProjectionGenerator):
    """Column-stochastic projection matrix and the compacted query rows."""
    n, d = queries.shape
    if n % gen.reduction:
        raise ConfigurationError(f"N={n} not divisible by r={gen.reduction}")
    raw = matmul(queries, gen.w, gen.b)       # N x N'
    proj = raw.softmax(axis=0)                # each column sums to 1 over tokens
    compact = proj.transpose() @ queries      # N' x D convex combinations
    return proj, compact


def mca_fuse_projected(
    queries: Tensor,
    seq: TokenSequence,
    decisions: Optional[DecisionSet],
    params: MCAParams,
    gen: ProjectionGenerator,
    scale: int,
    residual: bool = True,
    literal: bool = False,
    diagnostics: Optional[FusionDiagnostics] = None,
) -> Tensor:
    """Projected variant: attend with N/r compact rows, then re-project."""
    n, d = queries.shape
    proj, compact = project_tokens(queries, gen)
    n_short = compact.shape[0]
    source, keep = scale_keys(seq, decisions, scale)
    core = mca_core(compact, source, params, keep, literal=literal, diagnostics=diagnostics)
    out = proj @ core
    if diagnostics is not None:
        diagnostics.per_scale.append(ScaleFusionStats(
            scale, "projected", attention_stage_macs(n_short, source.shape[0], d),
            projection_macs=projection_stage_macs(n, n_short, d)))
    return (out + queries) if residual else out


def fuse_all_scales(
    seq: TokenSequence,
    decisions: Optional[DecisionSet],
    params: List[MCAParams],
    generators: Dict[int, ProjectionGenerator],
    residual: bool = True,
    literal: bool = False,
    diagnostics: Optional[FusionDiagnostics] = None,
) -> List[FusedOutput]:
    """Fuse every scale against the full sequence; reshape via provenance order."""
    outputs = []
    tracing = tracemalloc.is_tracing()
    for scale in range(1, NUM_LEVELS + 1):
        lo, hi = seq.scale_slice(scale)
        queries = seq.tokens[lo:hi]
        if tracing:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
        if scale in generators:
            rows = mca_fuse_projected(
                queries, seq, decisions, params[scale - 1], generators[scale],
                scale, residual=residual, literal=literal, diagnostics=diagnostics,
            )
        else:
            rows = mca_fuse(
                queries, seq, decisions, params[scale - 1], scale,
                residual=residual, literal=literal, diagnostics=diagnostics,
            )
        if tracing and diagnostics is not None:
            peak = tracemalloc.get_traced_memory()[1]
            diagnostics.per_scale[-1].peak_activation_floats = (peak - start) // 8
        h, w = seq.level_shapes[scale - 1]
        d = rows.shape[1]
        outputs.append(FusedOutput(scale=scale, rows=rows, feature_map=rows.transpose().reshape(d, h, w)))
    return outputs
