"""Cross-view isolated sign language recognition at desk scale.

A self-contained pipeline: dense float32 tensors with reverse-mode autodiff,
hierarchical 3-D shifted-window video transformers in three sizes, two-stage
weighted ensemble fusion over sizes and RGB/depth modalities, a deterministic
synthetic multi-view gesture dataset, and cross-entropy/AdamW training with
top-1 accuracy evaluation.
"""

from . import data, ensemble, tensor, train, vst
from .errors import (
    AlignmentError,
    ContractError,
    CvislrError,
    FormatError,
    GeometryError,
    NumericError,
    ShapeError,
)
from .tensor import GradTape, Tensor, backward, read_tensor, write_tensor

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "ContractError",
    "CvislrError",
    "FormatError",
    "GeometryError",
    "GradTape",
    "NumericError",
    "ShapeError",
    "Tensor",
    "backward",
    "data",
    "ensemble",
    "read_tensor",
    "tensor",
    "train",
    "vst",
    "write_tensor",
    "__version__",
]
