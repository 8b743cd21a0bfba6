"""Compiled eval-mode inference for a trained generator network.

Training needs the layer objects (activation caches, manual backprop);
generation only needs latents → pre-decode matrix.  A plan flattens the
network to one ``(W, b, relu)`` step per ``Linear[+BatchNorm1d][+ReLU]``
group.  Eval-mode BatchNorm is affine in its running statistics and folds
into the Linear before it: ``scale = γ/√(running_var+eps)``,
``W' = W·scale``, ``b' = (b − running_mean)·scale + β``.  A trailing
:class:`BlockSoftmax` is dropped: it is monotone within a block and leaves
other columns alone, and the decoder takes each block's argmax, so logits
decode to the same tuples.  Eval-mode ``network.forward`` stays the
reference the tests hold the plan to.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GenerativeModelError
from repro.generative.nn.activations import BlockSoftmax, ReLU
from repro.generative.nn.batchnorm import BatchNorm1d
from repro.generative.nn.linear import Linear
from repro.generative.nn.sequential import Sequential


class InferencePlan:
    """Fused forward pass over fixed-size row chunks.

    Every matmul multiplies exactly ``CHUNK_ROWS`` rows (a short last chunk
    is zero-padded).  BLAS picks its kernel by shape — one row is a gemv, a
    few rows a small-matrix path — and the kernels round differently; with
    one shape a row's output depends on that row alone, which is what lets
    serial, batched and chunked generation agree bit for bit.
    """

    #: Small enough that a chunk's activations stay in cache, large enough
    #: that the matmuls dominate the call overhead.  Not a knob: 20k rows
    #: read 23–30 ms at every size from 256 to 20000.
    CHUNK_ROWS = 1024

    def __init__(self, network: Sequential):
        steps: list[list] = []
        last = len(network.layers) - 1
        for position, layer in enumerate(network.layers):
            if isinstance(layer, Linear):
                steps.append([layer.weight.value.copy(), layer.bias.value.copy(), False])
            elif isinstance(layer, BatchNorm1d) and steps and not steps[-1][2]:
                scale = layer.gamma.value / np.sqrt(layer.running_var + layer.eps)
                weight, bias, _ = steps[-1]
                steps[-1][0] = weight * scale
                steps[-1][1] = (bias - layer.running_mean) * scale + layer.beta.value
            elif isinstance(layer, ReLU) and steps and not steps[-1][2]:
                steps[-1][2] = True
            elif isinstance(layer, BlockSoftmax) and steps and position == last:
                continue
            else:
                raise GenerativeModelError(
                    f"cannot compile {type(layer).__name__} at layer {position}: "
                    "a plan is Linear[+BatchNorm1d][+ReLU] groups and an "
                    "optional final BlockSoftmax"
                )
        self.steps = [tuple(step) for step in steps]
        # One output buffer per hidden step, ping-ponging: step i reads
        # buffer i-1, so it may write over buffer i-2 when the widths match.
        self._hidden: list[np.ndarray] = []
        for weight, _, _ in self.steps[:-1]:
            shape = (self.CHUNK_ROWS, weight.shape[1])
            reusable = len(self._hidden) >= 2 and self._hidden[-2].shape == shape
            self._hidden.append(self._hidden[-2] if reusable else np.empty(shape))
        self._tail = np.empty((self.CHUNK_ROWS, self.steps[0][0].shape[0]))
        self._output = np.empty((0, self.steps[-1][0].shape[1]))

    def run(self, latents: np.ndarray) -> np.ndarray:
        """``(rows, in)`` latents → the ``(rows, out)`` pre-decode matrix.

        The result is a view of a buffer the next ``run`` overwrites.
        """
        chunk = self.CHUNK_ROWS
        rows = latents.shape[0]
        padded_rows = -(-rows // chunk) * chunk
        if self._output.shape[0] != padded_rows:
            self._output = np.empty((padded_rows, self._output.shape[1]))
        for start in range(0, rows, chunk):
            x = latents[start : start + chunk]
            if x.shape[0] < chunk:
                self._tail[: x.shape[0]] = x
                self._tail[x.shape[0] :] = 0.0
                x = self._tail
            targets = [*self._hidden, self._output[start : start + chunk]]
            for (weight, bias, relu), target in zip(self.steps, targets):
                np.matmul(x, weight, out=target)
                target += bias
                if relu:
                    np.maximum(target, 0.0, out=target)
                x = target
        return self._output[:rows]
