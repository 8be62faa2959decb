"""Adam with decoupled weight decay (constant learning rate), over flat buffers.

At construction the optimizer copies every parameter into one flat float64
buffer and rebinds each ``p.data`` to its view of it; each ``p.grad`` is
likewise rebound to a zeroed view of one flat gradient buffer.  Code that
writes parameters in place (``load_state``, gradient checks) therefore keeps
working, and ``step()`` runs the update as a fixed sequence of whole-buffer
passes into preallocated scratch.  ``zero_grad()`` fills the gradient buffer
with zeros instead of dropping it, so backward accumulates into the views,
and every parameter updates on every step: one that got no gradient decays
and follows its moments as if its gradient were zero.  Nothing may rebind a
parameter's ``data`` or ``grad`` while the optimizer owns it.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from .tensor import Tensor


class AdamW:
    def __init__(self, named_params: Iterable[Tuple[str, Tensor]], lr: float = 1e-3,
                 betas: Tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01):
        self.params: List[Tuple[str, Tensor]] = list(named_params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        size = sum(p.size for _, p in self.params)
        self.data = np.empty(size)
        self.grad = np.zeros(size)
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._tmp = np.empty(size)
        self._update = np.empty(size)
        off = 0
        for _, p in self.params:
            view = self.data[off : off + p.size].reshape(p.shape)
            view[...] = p.data
            p.data = view
            p.grad = self.grad[off : off + p.size].reshape(p.shape)
            off += p.size

    def step(self) -> None:
        """p -= lr * ((m / bc1) / (sqrt(v / bc2) + eps) + wd * p), elementwise."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        g, m, v, tmp, update = self.grad, self._m, self._v, self._tmp, self._update
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=tmp)
        m += tmp
        v *= self.beta2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - self.beta2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        np.divide(m, bc1, out=update)
        update /= tmp
        np.multiply(self.data, self.weight_decay, out=tmp)
        update += tmp
        update *= self.lr
        self.data -= update

    def zero_grad(self) -> None:
        self.grad.fill(0.0)
