"""The flat-buffer AdamW against the per-tensor rule it runs."""

import numpy as np

from scalefuse.model import ModelConfig, SegmentationModel
from scalefuse.optim import AdamW
from scalefuse.tensor import Tensor

SHAPES = [(4, 3), (3,), (2, 2, 2, 2), (1,), (5, 1)]


def per_tensor_step(params, grads, m, v, t, lr, beta1, beta2, eps, wd):
    """The update written out per tensor, one expression at a time."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for p, g, mi, vi in zip(params, grads, m, v):
        mi *= beta1
        mi += (1.0 - beta1) * g
        vi *= beta2
        vi += (1.0 - beta2) * (g * g)
        update = (mi / bc1) / (np.sqrt(vi / bc2) + eps)
        p -= lr * (update + wd * p)


def test_flat_update_matches_per_tensor_rule_bit_for_bit():
    rng = np.random.default_rng(3)
    init = [rng.normal(size=s) for s in SHAPES]
    tensors = [Tensor(a, requires_grad=True) for a in init]
    opt = AdamW([(f"p{i}", p) for i, p in enumerate(tensors)], lr=1e-2, weight_decay=0.05)
    ref = [a.copy() for a in init]
    m = [np.zeros(s) for s in SHAPES]
    v = [np.zeros(s) for s in SHAPES]
    for step in range(1, 6):
        grads = [rng.normal(size=s) * rng.integers(0, 2, size=s) for s in SHAPES]  # exact zeros
        grads[step % len(SHAPES)].flat[0] = 1e6 if step % 2 else -3e7
        for p, g in zip(tensors, grads):
            p.accumulate_grad(g)
        opt.step()
        opt.zero_grad()
        per_tensor_step(ref, grads, m, v, step, 1e-2, 0.9, 0.999, 1e-8, 0.05)
        for p, want in zip(tensors, ref):
            assert np.array_equal(p.data, want)
            assert not p.grad.any()
        # the moments too: a last-bit change in them is mostly lost in p
        assert np.array_equal(opt._m, np.concatenate([a.reshape(-1) for a in m]))
        assert np.array_equal(opt._v, np.concatenate([a.reshape(-1) for a in v]))


def test_parameters_become_views_of_the_flat_buffers():
    model = SegmentationModel(ModelConfig.tiny())
    before = {name: p.data.copy() for name, p in model.parameters()}
    opt = AdamW(model.parameters())
    assert opt.data.size == model.param_count()
    for name, p in model.parameters():
        assert np.shares_memory(p.data, opt.data) and np.shares_memory(p.grad, opt.grad)
        assert p.data.flags.c_contiguous and p.grad.shape == p.shape
        assert np.array_equal(p.data, before[name]) and not p.grad.any()
    # writes in place, as load_state does, reach the optimizer's buffer
    model.load_state({name: a + 1.0 for name, a in before.items()})
    assert np.array_equal(opt.data, np.concatenate([a.reshape(-1) for a in before.values()]) + 1.0)
