"""Synthetic image-classification task for the ResNet (DESIGN.md §2).

Substitute for ImageNet: each class has a fixed smooth template image
(band-limited random Fourier pattern); samples are the class template
under a random circular shift, per-sample gain jitter, and additive
Gaussian noise.  Shifts force the classifier to learn translation-
tolerant convolutional features (global pooling + conv, not a pixel
lookup), and the noise level keeps FP32 top-1 below 100% so quantization
deltas are visible.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, Tuple

import numpy as np

from ..rng import fresh_rng
from .shared import shared_batch

__all__ = ["ImageBatch", "ImageTask"]


@dataclasses.dataclass
class ImageBatch:
    images: np.ndarray   # (B, C, H, W) float32
    labels: np.ndarray   # (B,) int64


class ImageTask:
    """Template-plus-noise synthetic image classification generator."""

    def __init__(self, num_classes: int = 10, channels: int = 3,
                 image_size: int = 16, noise: float = 3.5,
                 max_shift: int = 3, seed: int = 0) -> None:
        self.num_classes = num_classes
        self.channels = channels
        self.image_size = image_size
        self.noise = noise
        self.max_shift = max_shift
        self.seed = seed
        self._templates = self._build_templates()
        self._eval_sets: Dict = {}

    def _build_templates(self) -> np.ndarray:
        """Smooth unit-variance class templates from low-frequency Fourier
        modes (keeps classes distinguishable under shifts and noise)."""
        rng = fresh_rng(self.seed + 555)
        size = self.image_size
        yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
        templates = np.zeros((self.num_classes, self.channels, size, size))
        for c in range(self.num_classes):
            for ch in range(self.channels):
                img = np.zeros((size, size))
                for _ in range(4):  # a few low-frequency modes
                    fy, fx = rng.integers(1, 4, size=2)
                    phase_y, phase_x = rng.uniform(0, 2 * np.pi, size=2)
                    img += rng.normal() * np.sin(
                        2 * np.pi * fy * yy / size + phase_y) * np.sin(
                        2 * np.pi * fx * xx / size + phase_x)
                img = (img - img.mean()) / (img.std() + 1e-8)
                templates[c, ch] = img
        return templates.astype(np.float32)

    # ------------------------------------------------------------ sampling
    def sample(self, count: int, rng: np.random.Generator) -> ImageBatch:
        labels = rng.integers(0, self.num_classes, size=count)
        images = self._templates[labels].copy()
        gains = rng.uniform(0.8, 1.2, size=(count, 1, 1, 1)).astype(np.float32)
        images *= gains
        for i in range(count):
            dy, dx = rng.integers(-self.max_shift, self.max_shift + 1, size=2)
            images[i] = np.roll(images[i], (dy, dx), axis=(1, 2))
        images += rng.normal(scale=self.noise,
                             size=images.shape).astype(np.float32)
        return ImageBatch(images.astype(np.float32), labels.astype(np.int64))

    def batches(self, batch_size: int, num_batches: int,
                seed_offset: int = 0) -> Iterator[ImageBatch]:
        rng = fresh_rng(self.seed + seed_offset)
        for _ in range(num_batches):
            yield self.sample(batch_size, rng)

    def eval_set(self, count: int = 256, seed_offset: int = 10_000) -> ImageBatch:
        """A fixed held-out batch, built once and shared read-only."""
        return shared_batch(
            self._eval_sets, (count, seed_offset, self.seed),
            lambda: self.sample(count, fresh_rng(self.seed + seed_offset)))
