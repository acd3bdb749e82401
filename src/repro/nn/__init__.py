"""A compact NumPy NN framework with reverse-mode autodiff.

This package is the training/inference substrate for the paper's three
model families (DESIGN.md §2): tensors with autograd, layers, models,
optimizers, and the fake-quantization machinery for post-training
quantization (PTQ) and quantization-aware retraining (QAR).
"""

from . import decoding, functional, init, layers, optim, sanitize, trace
from .decoding import (AttentionKVCache, DecoderKVCache, LayerKVCache,
                       pad_hypotheses)
from .layers import (LSTM, AdditiveAttention, BatchNorm2d, Conv2d, Dropout,
                     Embedding, GELU, LayerNorm, Linear, LSTMCell,
                     MultiHeadAttention, ReLU, Sigmoid, Tanh)
from .module import Module, ModuleList, Parameter, Sequential
from .optim import Adam, SGD, clip_grad_norm
from .tensor import (Tensor, deterministic_matmul, is_deterministic_matmul,
                     is_grad_enabled, no_grad)
from . import models, prune, quantize, schedules
from .prune import magnitude_prune, sparsity_report
from .trainer import Trainer, TrainHistory
from .sanitize import (NumericFault, NumericFinding, SanitizeReport,
                       Sanitizer, scan_parameters)
from .trace import CallTrace
from .quantize import (ActFakeQuant, QuantSpec, WeightFakeQuant,
                       attach_act_quantizers, attach_weight_quantizers,
                       calibrate, detach_quantizers,
                       quantize_weights_inplace)

__all__ = [
    "ActFakeQuant", "Adam", "AdditiveAttention", "AttentionKVCache",
    "BatchNorm2d", "CallTrace", "Conv2d", "DecoderKVCache",
    "Dropout", "Embedding", "GELU", "LSTM", "LSTMCell", "LayerKVCache",
    "LayerNorm",
    "Linear", "Module", "ModuleList", "MultiHeadAttention", "NumericFault",
    "NumericFinding", "Parameter",
    "QuantSpec", "ReLU", "SGD", "SanitizeReport", "Sanitizer", "Sequential",
    "Sigmoid", "Tanh", "Tensor",
    "WeightFakeQuant", "attach_act_quantizers", "attach_weight_quantizers",
    "TrainHistory", "Trainer", "calibrate", "clip_grad_norm",
    "decoding", "detach_quantizers", "deterministic_matmul",
    "functional", "init", "is_deterministic_matmul", "is_grad_enabled",
    "layers",
    "magnitude_prune", "models", "no_grad", "optim", "pad_hypotheses",
    "prune", "quantize",
    "sanitize", "scan_parameters",
    "quantize_weights_inplace", "schedules", "sparsity_report", "trace",
]
