"""Shared experiment infrastructure: the model zoo, training, caching.

Each of the paper's three model families (Table 1) is wrapped in a
:class:`ModelBundle` exposing ``build`` / ``train`` / ``evaluate`` with
the metric conventions of the paper (BLEU up, WER down, Top-1 up).
Trained FP32 baselines are cached on disk (``REPRO_CACHE_DIR``,
defaulting to ``./artifacts``) so every experiment and benchmark starts
from the same plateaued checkpoint — mirroring the paper's procedure of
retraining *from the plateaued FP32 baseline* (Section 4.2).

Two profiles control cost: ``full`` (the numbers recorded in
EXPERIMENTS.md) and ``fast`` (scaled-down, used by the pytest
benchmarks so the whole harness runs in minutes on one CPU).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import threading
from typing import Callable, Dict, Iterator, Tuple

import numpy as np

from .. import nn
from ..cache import cache_dir
from ..data import ImageTask, SpeechTask, TranslationTask
from ..metrics import bleu_score, top1_accuracy, wer_score
from ..nn import functional as F
from ..rng import fresh_rng
from ..nn.models import (ResNet, ResNetConfig, Seq2Seq, Seq2SeqConfig,
                         Transformer, TransformerConfig)

__all__ = [
    "MODEL_NAMES", "ModelBundle", "TrainProfile", "PROFILES",
    "cache_dir", "checkpoint_path", "get_bundle", "trained_model",
    "qar_retrain",
]

MODEL_NAMES = ("transformer", "seq2seq", "resnet")


@dataclasses.dataclass(frozen=True)
class TrainProfile:
    """Cost knobs for baseline training / QAR / evaluation."""

    name: str
    train_steps: Dict[str, int]
    qar_steps: Dict[str, int]
    batch_size: int
    eval_size: int
    lr: float
    qar_lr: float


PROFILES: Dict[str, TrainProfile] = {
    "full": TrainProfile(
        name="full",
        train_steps={"transformer": 2200, "seq2seq": 1600, "resnet": 1500},
        qar_steps={"transformer": 250, "seq2seq": 300, "resnet": 300},
        batch_size=32, eval_size=128, lr=2e-3, qar_lr=5e-4),
    "fast": TrainProfile(
        name="fast",
        train_steps={"transformer": 1500, "seq2seq": 900, "resnet": 700},
        qar_steps={"transformer": 60, "seq2seq": 80, "resnet": 80},
        batch_size=32, eval_size=48, lr=2e-3, qar_lr=5e-4),
    # smoke-test scale: exercises every code path in seconds; the scores
    # are meaningless and asserted only structurally.
    "tiny": TrainProfile(
        name="tiny",
        train_steps={"transformer": 20, "seq2seq": 20, "resnet": 15},
        qar_steps={"transformer": 5, "seq2seq": 5, "resnet": 5},
        batch_size=8, eval_size=16, lr=2e-3, qar_lr=5e-4),
}


@dataclasses.dataclass
class ModelBundle:
    """One model family: constructors, training loop, evaluation."""

    name: str
    metric: str
    higher_is_better: bool
    paper_fp32: float
    build: Callable[[int], Tuple[nn.Module, object]]
    train_step: Callable[[nn.Module, object], nn.Tensor]   # (model, batch) -> loss
    batches: Callable[[object, int, int, int], Iterator]   # (task, bs, n, seed)
    evaluate: Callable[[nn.Module, object, int], float]

    def failure_score(self) -> float:
        """The score of a completely collapsed model (paper's 0.0 / inf)."""
        return 0.0 if self.higher_is_better else float("inf")


# ------------------------------------------------------------- transformer
def _build_transformer(seed: int = 1):
    rng = fresh_rng(seed)
    return Transformer(TransformerConfig(), rng=rng), TranslationTask()


def _transformer_step(model, batch):
    logits = model(batch.src, batch.tgt_in)
    return F.cross_entropy(logits, batch.tgt_out, ignore_index=0,
                           label_smoothing=0.05)


def _transformer_eval(model, task, eval_size: int) -> float:
    model.eval()
    batch = task.eval_set(eval_size)
    hyp = model.greedy_decode(batch.src, max_len=16)
    score = bleu_score(task.strip(batch.tgt_out), task.strip(hyp))
    model.train()
    return score


# ----------------------------------------------------------------- seq2seq
def _build_seq2seq(seed: int = 1):
    rng = fresh_rng(seed)
    return Seq2Seq(Seq2SeqConfig(), rng=rng), SpeechTask()


def _seq2seq_step(model, batch):
    logits = model(batch.frames, batch.tgt_in)
    return F.cross_entropy(logits, batch.tgt_out, ignore_index=0)


def _seq2seq_eval(model, task, eval_size: int) -> float:
    model.eval()
    batch = task.eval_set(eval_size)
    hyp = model.greedy_decode(batch.frames)
    score = wer_score(batch.refs, task.strip(hyp))
    model.train()
    return score


# ------------------------------------------------------------------ resnet
def _build_resnet(seed: int = 1):
    rng = fresh_rng(seed)
    return ResNet(ResNetConfig(blocks_per_stage=1), rng=rng), ImageTask()


def _resnet_step(model, batch):
    return F.cross_entropy(model(batch.images), batch.labels)


def _resnet_eval(model, task, eval_size: int) -> float:
    model.eval()
    batch = task.eval_set(max(eval_size, 256))
    with nn.no_grad():
        score = top1_accuracy(model(batch.images).data, batch.labels)
    model.train()
    return score


_BUNDLES: Dict[str, ModelBundle] = {
    "transformer": ModelBundle(
        name="transformer", metric="BLEU", higher_is_better=True,
        paper_fp32=27.4, build=_build_transformer,
        train_step=_transformer_step,
        batches=lambda task, bs, n, seed: task.batches(bs, n, seed),
        evaluate=_transformer_eval),
    "seq2seq": ModelBundle(
        name="seq2seq", metric="WER", higher_is_better=False,
        paper_fp32=13.34, build=_build_seq2seq,
        train_step=_seq2seq_step,
        batches=lambda task, bs, n, seed: task.batches(bs, n, seed),
        evaluate=_seq2seq_eval),
    "resnet": ModelBundle(
        name="resnet", metric="Top-1", higher_is_better=True,
        paper_fp32=76.2, build=_build_resnet,
        train_step=_resnet_step,
        batches=lambda task, bs, n, seed: task.batches(bs, n, seed),
        evaluate=_resnet_eval),
}


def get_bundle(name: str) -> ModelBundle:
    if name not in _BUNDLES:
        raise ValueError(f"unknown model {name!r}; known: {MODEL_NAMES}")
    return _BUNDLES[name]


# ---------------------------------------------------------------- training
def _train(model: nn.Module, task, bundle: ModelBundle, steps: int,
           batch_size: int, lr: float, seed_offset: int = 0) -> None:
    optimizer = nn.Adam(model.parameters(), lr=lr)
    model.train()
    for batch in bundle.batches(task, batch_size, steps, seed_offset):
        loss = bundle.train_step(model, batch)
        optimizer.zero_grad()
        loss.backward()
        nn.clip_grad_norm(model.parameters(), 5.0)
        optimizer.step()


def _cache_key(name: str, profile: TrainProfile) -> str:
    payload = json.dumps({
        "name": name, "steps": profile.train_steps[name],
        "batch": profile.batch_size, "lr": profile.lr, "version": 7,
    }, sort_keys=True)
    return hashlib.sha1(payload.encode()).hexdigest()[:12]


#: Serializes checkpoint loads and writes across threads.  numpy parses
#: every array header with ``ast.literal_eval``, and CPython 3.11 keeps
#: the AST constructor's recursion depth in interpreter-wide state, so
#: two threads loading at once can raise ``SystemError``; two threads
#: training one missing checkpoint would both write its file.
_CHECKPOINT_LOCK = threading.Lock()


def checkpoint_path(name: str, profile: str = "full") -> pathlib.Path:
    """Where :func:`trained_model` keeps the FP32 checkpoint of a model."""
    prof = PROFILES[profile]
    return cache_dir() / f"{name}_{prof.name}_{_cache_key(name, prof)}.npz"


def trained_model(name: str, profile: str = "full",
                  force_retrain: bool = False
                  ) -> Tuple[nn.Module, object, float]:
    """Return ``(model, task, fp32_score)``; trains and caches on first use."""
    bundle = get_bundle(name)
    prof = PROFILES[profile]
    model, task = bundle.build()
    path = checkpoint_path(name, profile)
    with _CHECKPOINT_LOCK:
        if path.exists() and not force_retrain:
            with np.load(path, allow_pickle=False) as blob:
                state = {k: blob[k] for k in blob.files if k != "__score__"}
                score = float(blob["__score__"])
            model.load_state_dict(state)
            model.eval()
            return model, task, score
        _train(model, task, bundle, prof.train_steps[name],
               prof.batch_size, prof.lr)
        score = bundle.evaluate(model, task, prof.eval_size)
        state = model.state_dict()
        state["__score__"] = np.asarray(score)
        np.savez(path, **state)
    model.eval()
    return model, task, score


def qar_retrain(model: nn.Module, task, bundle: ModelBundle,
                profile: TrainProfile, seed_offset: int = 50_000) -> None:
    """Quantization-aware retraining: short fine-tune with the fake
    quantizers already attached (paper Section 4.2, 'QAR')."""
    _train(model, task, bundle, profile.qar_steps[bundle.name],
           profile.batch_size, profile.qar_lr, seed_offset)
    model.eval()
