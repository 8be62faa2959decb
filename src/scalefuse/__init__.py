"""Scale-selective multi-scale feature fusion for semantic segmentation."""

from .tensor import (
    ConfigurationError,
    DimensionError,
    Tape,
    Tensor,
    concat,
    conv2d,
    cross_entropy,
    gather_rows,
    matmul,
    no_grad,
    straight_through,
    upsample_nearest,
)
from .model import ModelConfig, SegmentationModel, ratio_loss, total_loss

__all__ = [
    "ConfigurationError",
    "DimensionError",
    "ModelConfig",
    "SegmentationModel",
    "Tape",
    "Tensor",
    "concat",
    "conv2d",
    "cross_entropy",
    "gather_rows",
    "matmul",
    "no_grad",
    "ratio_loss",
    "straight_through",
    "total_loss",
    "upsample_nearest",
]

__version__ = "0.1.0"
