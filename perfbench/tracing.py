"""Step/scene markers for the timed run and per-layer spans for the traced run.

Both work by replacing public functions at the module or class attribute
where the program looks them up, and put the originals back afterwards.
Nothing in the program itself is edited.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List

import numpy as np

import scalefuse.fusion as fusion_mod
import scalefuse.model as model_mod
import scalefuse.train as train_mod
from scalefuse.optim import AdamW
from scalefuse.tensor import Tape, Tensor

from checks import NUM_SCALES

perf = time.perf_counter

# Every op the model's training graphs record; each gets a backward time and
# a node count.  Ops outside this list are reported on the detail line.
OPS = ("add", "concat", "conv2d", "cross_entropy", "div", "downsample_nearest", "exp",
       "gelu", "log", "matmul", "mean", "mul", "reshape", "scale", "slice", "softmax",
       "straight_through", "sum", "transpose", "upsample_nearest")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "scenes.generate_ms": "ms",
    "pyramid.forward_ms": "ms",
    "selection.score_ms": "ms",
    "selection.gumbel_ms": "ms",
    "selection.topk_ms": "ms",
    **{f"selection.kept_keys.s{s}": "count" for s in range(1, NUM_SCALES + 1)},
    **{f"fusion.s{s}_ms": "ms" for s in range(1, NUM_SCALES + 1)},
    **{f"fusion.attention_macs.s{s}": "count" for s in range(1, NUM_SCALES + 1)},
    "fusion.zero_mask_rows": "count",
    "model.forward_ms": "ms",
    "model.heads_ms": "ms",
    "model.loss_ms": "ms",
    "tensor.backward_ms": "ms",
    "tensor.graph_nodes": "count",
    "tensor.graph_mb": "MB",
    **{f"tensor.bwd_ms.{op}": "ms" for op in OPS},
    **{f"tensor.nodes.{op}": "count" for op in OPS},
    "optim.step_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "bytes",
    "train.evaluate_ms": "ms",
    "train.run_s": "s",
    "tracing.overhead_s": "s",
    "tracing.overhead_pct": "%",
}


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo: List[tuple] = []

    def replace(self, owner, name: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def variant_of_config(cfg) -> str:
    if not cfg.use_fff:
        return "baseline"
    if not cfg.use_sfs:
        return "fff"
    return "fff+sfs+pm" if cfg.use_projection_on else "fff+sfs"


def _forward_mode(args, kwargs) -> str:
    return kwargs.get("mode", args[0] if args else "train")


class Markers:
    """Step and scene boundaries: the only wrappers the timed run installs.

    A training step runs from `train_scene` (its scene) to `AdamW.zero_grad`
    (after the update).  An inference scene is one `forward` in infer mode.
    Times are kept per ablation variant.  With `keep_decisions`, the hard
    decisions of every training forward are kept for the checks.
    """

    def __init__(self, keep_decisions: bool = False):
        self.keep_decisions = keep_decisions
        self.step_s: Dict[str, List[float]] = defaultdict(list)
        self.infer_s: Dict[str, List[float]] = defaultdict(list)
        self.decisions: List[np.ndarray] = []
        self.steps_done = 0
        self._step = None

    def install(self, patches: Patches) -> None:
        def train_scene(orig):
            def wrapper(config, step):
                self._step = (variant_of_config(config), perf())
                return orig(config, step)
            return wrapper

        def zero_grad(orig):
            def wrapper(opt):
                orig(opt)
                self.steps_done += 1
                if self._step is not None:
                    variant, start = self._step
                    self.step_s[variant].append(perf() - start)
                    self._step = None
            return wrapper

        def forward(orig):
            def wrapper(model, image, *args, **kwargs):
                if _forward_mode(args, kwargs) == "infer":
                    t0 = perf()
                    out = orig(model, image, *args, **kwargs)
                    self.infer_s[variant_of_config(model.config)].append(perf() - t0)
                    return out
                out = orig(model, image, *args, **kwargs)
                if self.keep_decisions and out.decisions is not None:
                    self.decisions.append(out.decisions.Q.data)
                return out
            return wrapper

        patches.replace(train_mod, "train_scene", train_scene)
        patches.replace(AdamW, "zero_grad", zero_grad)
        patches.replace(model_mod.SegmentationModel, "forward", forward)


class Tracer:
    """Spans around each layer's public functions; reports self time per call.

    A span's self time is its duration minus the time of the spans it
    encloses.  Backward rules are timed per op inside `Tensor.backward`; they
    are part of the tensor layer, so the backward span keeps their time.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = defaultdict(float)
        self.bwd_s = defaultdict(float)
        self.bwd_nodes = Counter()
        self._stack: List[list] = []

    def _timed(self, label_of: Callable, fn: Callable, after: Callable = None) -> Callable:
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self._stack.pop()
                label = label_of(args, kwargs)
                self.self_s[label] += dt - frame[0]
                self.calls[label] += 1
                if self._stack:
                    self._stack[-1][0] += dt
            if after is not None:
                after(out, args, kwargs)
            return out
        return wrapper

    def span(self, patches: Patches, owner, name: str, label: str, after: Callable = None) -> None:
        patches.replace(owner, name, lambda fn: self._timed(lambda a, k: label, fn, after))

    def install(self, patches: Patches) -> None:
        T, M, F = train_mod, model_mod, fusion_mod
        self.span(patches, T, "generate_scene", "scenes.generate")
        for fn in ("extract_pyramid", "top_down_enhance", "rearrange"):
            self.span(patches, M, fn, "pyramid." + fn)
        self.span(patches, M, "score", "selection.score")
        self.span(patches, M, "gumbel_sample", "selection.gumbel", after=self._kept_keys)
        self.span(patches, M, "topk_select", "selection.topk")
        for fn in ("mca_fuse", "mca_fuse_projected"):
            sig = inspect.signature(getattr(F, fn))
            label_of = lambda a, k, sig=sig: f"fusion.s{sig.bind(*a, **k).arguments['scale']}"
            patches.replace(F, fn, lambda orig, label_of=label_of: self._timed(label_of, orig))
        self.span(patches, M.SegmentationModel, "forward", "model.forward", after=self._diagnostics)
        self.span(patches, M.FCNHead, "__call__", "model.heads")
        self.span(patches, T, "total_loss", "model.loss")
        patches.replace(Tensor, "backward", self._backward)
        self.span(patches, AdamW, "step", "optim.step")
        self.span(patches, T, "save_checkpoint", "checkpoint.save", after=self._saved_bytes)
        self.span(patches, T, "load_checkpoint", "checkpoint.load")
        self.span(patches, T, "evaluate", "train.evaluate")

    # -- counters taken where the work happens ------------------------------
    def _kept_keys(self, decisions, args, kwargs) -> None:
        kept = decisions.Q.data.sum(axis=0)
        for s in range(NUM_SCALES):
            self.counts[f"kept.s{s + 1}"] += kept[s]

    def _diagnostics(self, out, args, kwargs) -> None:
        diag = out.fusion_diagnostics
        for stats in diag.per_scale:
            self.counts[f"macs.s{stats.scale}"] += stats.attention_macs
        self.counts["zero_mask_rows"] += diag.zero_mask_rows

    def _saved_bytes(self, out, args, kwargs) -> None:
        self.counts["checkpoint.bytes"] += os.path.getsize(args[0])

    def _backward(self, orig: Callable) -> Callable:
        timed = self._timed(lambda a, k: "tensor.backward", orig)

        def rule_timer(rule, op):
            def timed_rule(g):
                t0 = perf()
                rule(g)
                self.bwd_s[op] += perf() - t0
            return timed_rule

        def wrapper(root):
            tape = Tape.from_root(root)
            self.counts["graph.nodes"] += len(tape.ops)
            self.counts["graph.bytes"] += sum(t.data.nbytes for t in tape.ops)
            for node in tape.ops:
                if node._backward is not None:
                    self.bwd_nodes[node.op] += 1
                    node._backward = rule_timer(node._backward, node.op)
            return timed(root)
        return wrapper

    # -- report ------------------------------------------------------------------
    def metrics(self, run_seconds: Dict[str, List[float]], overhead_s: float,
                untraced_wall_s: float):
        """(per-layer metrics in PER_LAYER order, detail figures outside that list).

        `run_seconds` maps each variant trained to its runs' report durations.
        """
        def mean(total, n):
            return total / n if n else 0.0

        def per_call(label):
            return 1e3 * mean(self.self_s[label], self.calls[label])

        forwards = self.calls["model.forward"]
        backwards = self.calls["tensor.backward"]
        pyramid_s = sum(self.self_s["pyramid." + fn]
                        for fn in ("extract_pyramid", "top_down_enhance", "rearrange"))
        runs = sum(run_seconds.values(), [])
        values = {
            "scenes.generate_ms": per_call("scenes.generate"),
            "pyramid.forward_ms": 1e3 * mean(pyramid_s, forwards),
            "selection.score_ms": per_call("selection.score"),
            "selection.gumbel_ms": per_call("selection.gumbel"),
            "selection.topk_ms": per_call("selection.topk"),
            "fusion.zero_mask_rows": self.counts["zero_mask_rows"],
            "model.forward_ms": per_call("model.forward"),
            "model.heads_ms": per_call("model.heads"),
            "model.loss_ms": per_call("model.loss"),
            "tensor.backward_ms": per_call("tensor.backward"),
            "tensor.graph_nodes": mean(self.counts["graph.nodes"], backwards),
            "tensor.graph_mb": mean(self.counts["graph.bytes"], backwards) / 1e6,
            "optim.step_ms": per_call("optim.step"),
            "checkpoint.save_ms": per_call("checkpoint.save"),
            "checkpoint.load_ms": per_call("checkpoint.load"),
            "checkpoint.bytes": mean(self.counts["checkpoint.bytes"], self.calls["checkpoint.save"]),
            "train.evaluate_ms": per_call("train.evaluate"),
            "train.run_s": mean(sum(runs), len(runs)),
            "tracing.overhead_s": overhead_s,
            "tracing.overhead_pct": 100.0 * mean(overhead_s, untraced_wall_s),
        }
        for s in range(1, NUM_SCALES + 1):
            values[f"selection.kept_keys.s{s}"] = mean(self.counts[f"kept.s{s}"],
                                                       self.calls["selection.gumbel"])
            values[f"fusion.s{s}_ms"] = per_call(f"fusion.s{s}")
            values[f"fusion.attention_macs.s{s}"] = mean(self.counts[f"macs.s{s}"], forwards)
        detail = {f"train.run_s.{v.replace('+', '_')}": mean(sum(xs), len(xs))
                  for v, xs in run_seconds.items()}
        for op in sorted(set(OPS) | set(self.bwd_nodes)):
            target = values if op in OPS else detail
            target[f"tensor.bwd_ms.{op}"] = 1e3 * mean(self.bwd_s[op], backwards)
            target[f"tensor.nodes.{op}"] = mean(self.bwd_nodes[op], backwards)
        ordered = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        return ordered, detail
