"""Activation layers: ReLU and per-block softmax."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import GenerativeModelError
from repro.generative.nn.module import Module


class ReLU(Module):
    """Elementwise ``max(x, 0)``."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0.0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        mask = self._require_cache(self._mask, "mask")
        self._mask = None
        return grad_output * mask


class BlockSoftmax(Module):
    """Softmax over selected column blocks, identity elsewhere.

    The M-SWG output head (paper Sec. 5.3): *"We add a softmax layer for
    the categorical variable ... During training, we leave the softmax
    output continuous and only force the output to be binary for data
    generation."*  Each block is a ``(start, stop)`` column range holding
    one one-hot-encoded categorical attribute.
    """

    def __init__(self, blocks: Sequence[tuple[int, int]]):
        cleaned = []
        for start, stop in blocks:
            if stop <= start:
                raise GenerativeModelError(f"empty softmax block ({start}, {stop})")
            cleaned.append((int(start), int(stop)))
        for (_, prev_stop), (next_start, _) in zip(cleaned, cleaned[1:]):
            if next_start < prev_stop:
                raise GenerativeModelError("softmax blocks must not overlap")
        self.blocks = tuple(cleaned)
        self._cache: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x.copy()
        for start, stop in self.blocks:
            block = x[:, start:stop]
            shifted = block - block.max(axis=1, keepdims=True)
            exp = np.exp(shifted)
            out[:, start:stop] = exp / exp.sum(axis=1, keepdims=True)
        self._cache = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        y = self._require_cache(self._cache, "output")
        self._cache = None
        grad_input = grad_output.copy()
        for start, stop in self.blocks:
            g = grad_output[:, start:stop]
            s = y[:, start:stop]
            inner = (g * s).sum(axis=1, keepdims=True)
            grad_input[:, start:stop] = s * (g - inner)
        return grad_input
