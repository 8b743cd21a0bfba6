"""Module and Parameter: the building blocks of the numpy NN substrate.

The contract mirrors a minimal PyTorch:

- ``forward(x)`` computes the output and caches whatever ``backward`` needs.
- ``backward(grad_output)`` consumes the cache, accumulates parameter
  gradients into ``Parameter.grad``, and returns the gradient with respect
  to the input.
- ``parameters()`` yields every trainable :class:`Parameter`.

Caching means a module instance is not reentrant: one ``forward`` must be
matched by at most one ``backward`` before the next ``forward``.  The
training loop in :mod:`repro.generative.training` respects this.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import GenerativeModelError


class Parameter:
    """A trainable tensor with its accumulated gradient."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value: np.ndarray, name: str = ""):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Parameter({self.name or 'unnamed'}, shape={self.value.shape})"


class Module:
    """Base class for layers."""

    training: bool = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> Iterator[Parameter]:
        return iter(())

    def train(self) -> "Module":
        """Switch to training mode (affects BatchNorm statistics)."""
        self.training = True
        return self

    def eval(self) -> "Module":
        """Switch to inference mode."""
        self.training = False
        return self

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def __getstate__(self) -> dict:
        """Pickle parameters and statistics, not an activation cache (models
        pickled when generation still ran these layers carry large ones)."""
        state = self.__dict__.copy()
        for name in ("_cache", "_mask"):
            if name in state:
                state[name] = None
        return state

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def _require_cache(self, cache, what: str):
        if cache is None:
            raise GenerativeModelError(
                f"{type(self).__name__}.backward called without a matching "
                f"forward ({what} cache missing)"
            )
        return cache
