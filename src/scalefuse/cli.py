"""Command-line interface.

Exit codes: 0 success, 1 usage/configuration error, 2 numeric failure
(non-finite loss or failed gradient check), 3 I/O error (including a
malformed checkpoint).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .checkpoint import CheckpointError
from .gradcheck import gradcheck_model
from .model import ModelConfig
from .profiler import profile
from .scenes import SyntheticSceneSpec, generate_scene
from .selection import export_selection_maps
from .tensor import ConfigurationError, no_grad
from .train import (
    ABLATION_VARIANTS,
    NumericError,
    ablate,
    evaluate_checkpoint,
    load_model,
    train,
    write_report,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for numerics
        raise UsageError(message)


def _count(minimum: int):
    """argparse type: an integer >= minimum; argparse reports a ValueError."""
    def count(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"{text} is below {minimum}")
        return int(text)
    return count


def size_list(text: str) -> list:
    """argparse type: comma-separated integers >= 1, at least one, none twice."""
    sizes = [_count(1)(s) for s in text.split(",") if s]
    if not sizes:
        raise argparse.ArgumentTypeError("must list at least one size")
    if len(set(sizes)) != len(sizes):
        raise argparse.ArgumentTypeError(f"repeated sizes in {text}")
    return sizes


def finite_positive(text: str) -> float:
    """argparse type: a finite float > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text} is not a finite number > 0")
    return value


def _load_config(path) -> ModelConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except UnicodeDecodeError as e:
            raise ConfigurationError(f"{path} is not UTF-8 text ({e.reason} at byte {e.start})") from None
    return ModelConfig.from_dict(data)


def build_parser() -> _Parser:
    parser = _Parser(prog="scalefuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on synthetic scenes")
    p.add_argument("--config", required=True)
    p.add_argument("--steps", required=True, type=_count(0))
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--eval-every", type=_count(1), default=500)
    p.add_argument("--eval-scenes", type=_count(1), default=8)

    p = sub.add_parser("eval", help="evaluate a checkpoint on held-out scenes")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scenes", required=True, type=_count(1))
    p.add_argument("--out", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p.add_argument("--profile", choices=("tiny", "default"), default="tiny")
    p.add_argument("--tol", type=finite_positive, default=1e-3)
    p.add_argument("--samples", type=_count(1), default=10)

    p = sub.add_parser("profile", help="MAC/memory accounting, projection on vs off")
    p.add_argument("--sizes", type=size_list, default="32,64,128,256")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)

    p = sub.add_parser("export-selection", help="write per-scale selection CSV/PGM maps")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scene-seed", required=True, type=_count(0))
    p.add_argument("--out", required=True)

    p = sub.add_parser("ablate", help="train the ablation ladder and summarize")
    p.add_argument("--variants", default=",".join(ABLATION_VARIANTS))
    p.add_argument("--seeds", type=_count(1), default=3)
    p.add_argument("--steps", type=_count(0), default=2000)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--eval-every", type=_count(1), default=1000)
    p.add_argument("--eval-scenes", type=_count(1), default=8)

    return parser


def _cmd_train(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    report = train(cfg, args.steps, args.out, eval_every=args.eval_every,
                   eval_scenes=args.eval_scenes)
    print(f"trained {args.steps} steps; final mIoU {report['final']['miou']:.4f}; "
          f"outputs in {args.out}")
    return 0


def _cmd_eval(args) -> int:
    report = evaluate_checkpoint(args.checkpoint, args.scenes, args.out)
    print(f"eval mIoU {report['eval']['miou']:.4f} over {args.scenes} scenes")
    return 0


def _cmd_gradcheck(args) -> int:
    cfg = ModelConfig.tiny() if args.profile == "tiny" else ModelConfig()
    report = gradcheck_model(cfg, tolerance=args.tol, samples_per_group=args.samples)
    for name in sorted(report.per_group):
        err = report.per_group[name]
        status = "PASS" if err < args.tol else "FAIL"
        print(f"{status} {name}: max rel err {err:.3e}")
    if not report.passed:
        print(f"gradcheck FAILED for {sorted(report.failures)}", file=sys.stderr)
        return 2
    print(f"gradcheck passed: {len(report.per_group)} groups, "
          f"max rel err {report.max_error:.3e} < {args.tol}")
    return 0


def _cmd_profile(args) -> int:
    base = _load_config(args.config) if args.config else None
    result = profile(args.sizes, base)
    write_report(args.out, result)
    print(f"profiled sizes {args.sizes}; wrote {args.out}")
    return 0


def _cmd_export_selection(args) -> int:
    model = load_model(args.checkpoint)
    if model.scorer is None:
        raise UsageError("checkpoint has no selection module (use_sfs is off)")
    cfg = model.config
    image, _ = generate_scene(SyntheticSceneSpec(
        height=cfg.image_h, width=cfg.image_w,
        num_classes=cfg.num_classes, seed=args.scene_seed))
    with no_grad():
        out = model.forward(image, mode="infer")
    files = export_selection_maps(args.out, out.sequence, out.scores, out.decisions)
    print(f"wrote {len(files)} selection files to {args.out}")
    return 0


def _cmd_ablate(args) -> int:
    variants = [v for v in args.variants.split(",") if v]
    base = _load_config(args.config) if args.config else ModelConfig()
    try:
        summary = ablate(base, variants, args.seeds, args.steps, args.out,
                         eval_every=args.eval_every, eval_scenes=args.eval_scenes)
    except ValueError as e:
        raise UsageError(str(e)) from None
    for variant in variants:
        stats = summary["variants"][variant]
        print(f"{variant}: median mIoU {stats['median_miou']:.4f} "
              f"(runs {['%.4f' % m for m in stats['final_miou']]})")
    print(f"orderings: {summary['orderings']}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "profile": _cmd_profile,
    "export-selection": _cmd_export_selection,
    "ablate": _cmd_ablate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as e:
        print(f"configuration error: invalid JSON ({e})", file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
