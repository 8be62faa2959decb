"""Central finite differences against every backward rule.

Inputs drawn from [-2, 2] (shifted for log),
eps = 1e-5, max relative error < 1e-4 as required of every differentiable op.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scalefuse.gradcheck import central_diff, rel_error
from scalefuse.tensor import (
    Tensor,
    attention,
    concat,
    conv2d,
    conv3x3_upsampled,
    cross_entropy,
    gather_rows,
    masked_softmax,
    matmul,
    mul,
    straight_through,
    upsample_nearest,
)

EPS = 1e-5
TOL = 1e-4


def fd_check(build, arrays, tol=TOL, samples=12, seed=0):
    """build(list of Tensors) -> scalar Tensor; verifies each array's grad
    and returns the Tensors, their gradients filled in."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build(tensors)
    loss.backward()

    def f():
        fresh = [Tensor(t.data, requires_grad=True) for t in tensors]
        for ft, src in zip(fresh, tensors):
            ft.data[...] = src.data
        return build(tensors).item()

    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in tensors:
        assert t.grad is not None
        g = t.grad.reshape(-1)
        idxs = rng.choice(t.data.size, size=min(samples, t.data.size), replace=False)
        for i in idxs:
            fd = central_diff(f, t.data, int(i), EPS)
            worst = max(worst, rel_error(float(g[i]), fd, floor=1e-4))
    assert worst < tol, f"max rel err {worst:.3e}"
    return tensors


def rand(*shape, seed=0, lo=-2.0, hi=2.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


def test_add_mul_div_scale():
    fd_check(lambda ts: (ts[0] + ts[1]).sum(), [rand(4, 3, seed=1), rand(4, 3, seed=2)])
    fd_check(lambda ts: mul(ts[0], ts[1]).sum(), [rand(4, 3, seed=3), rand(4, 3, seed=4)])
    fd_check(lambda ts: (ts[0] * -1.7).sum(), [rand(5, seed=7)])


def test_add_mul_broadcast():
    fd_check(lambda ts: (ts[0] + ts[1]).sum(), [rand(4, 3, seed=8), rand(3, seed=9)])
    fd_check(lambda ts: mul(ts[0], ts[1]).sum(), [rand(2, 4, 3, seed=10), rand(1, 1, 3, seed=11)])


def test_matmul_2d_tight():
    # linear op: finite differences are exact to roundoff
    fd_check(lambda ts: matmul(ts[0], ts[1]).sum(),
             [rand(5, 7, seed=12), rand(7, 3, seed=13)], tol=1e-6)


def test_matmul_weighted_output():
    w = rand(5, 3, seed=14)
    fd_check(lambda ts: (matmul(ts[0], ts[1]) * Tensor(w)).sum(),
             [rand(5, 7, seed=15), rand(7, 3, seed=16)], tol=1e-6)


def test_affine():
    # matmul with its bias
    w = rand(5, 3, seed=17)
    fd_check(lambda ts: (matmul(ts[0], ts[1], ts[2]) * Tensor(w)).sum(),
             [rand(5, 7, seed=18), rand(7, 3, seed=22), rand(3, seed=49)], tol=1e-6)
    x = Tensor(rand(5, 7, seed=50))  # a constant input gets no gradient
    fd_check(lambda ts: (matmul(x, ts[0], ts[1]) * Tensor(w)).sum(),
             [rand(7, 3, seed=51), rand(3, seed=52)], tol=1e-6)
    assert x.grad is None


def test_pointwise():
    fd_check(lambda ts: ts[0].exp().sum(), [rand(4, 4, seed=19)])
    fd_check(lambda ts: ts[0].log().sum(), [rand(4, 4, seed=20, lo=0.3, hi=2.0)])
    fd_check(lambda ts: ts[0].gelu().sum(), [rand(4, 4, seed=21)])


def test_softmax_axes():
    w0 = rand(5, 4, seed=23)
    fd_check(lambda ts: (ts[0].softmax(axis=0) * Tensor(w0)).sum(), [rand(5, 4, seed=24)])
    w1 = rand(3, 4, 2, seed=25)
    fd_check(lambda ts: (ts[0].softmax(axis=-1) * Tensor(w1)).sum(), [rand(3, 4, 2, seed=26)])


def test_reductions():
    fd_check(lambda ts: mul(ts[0].mean(axis=0), Tensor(rand(5, seed=27))).sum(), [rand(3, 5, seed=28)])
    fd_check(lambda ts: mul(ts[0].sum(axis=1), Tensor(rand(3, seed=29))).sum(), [rand(3, 5, seed=30)])
    fd_check(lambda ts: ts[0].mean(), [rand(4, 2, seed=31)])


def test_shape_ops():
    w = rand(6, 2, seed=32)
    fd_check(lambda ts: (ts[0].reshape(6, 2) * Tensor(w)).sum(), [rand(3, 4, seed=33)])
    w2 = rand(4, 3, seed=34)
    fd_check(lambda ts: (ts[0].transpose() * Tensor(w2)).sum(), [rand(3, 4, seed=35)])
    fd_check(lambda ts: (ts[0].transpose(2, 0, 1)).exp().mean(), [rand(2, 3, 4, seed=36) * 0.5])


def test_concat_slice_gather():
    w = rand(7, 3, seed=37)
    fd_check(lambda ts: (concat([ts[0], ts[1]], axis=0) * Tensor(w)).sum(),
             [rand(4, 3, seed=38), rand(3, 3, seed=39)])
    fd_check(lambda ts: ts[0][:, 1:3].exp().sum(), [rand(4, 5, seed=40) * 0.5])
    idx = [0, 2, 2, 1]
    w3 = rand(4, 3, seed=41)
    fd_check(lambda ts: (gather_rows(ts[0], idx) * Tensor(w3)).sum(), [rand(3, 3, seed=42)])


def test_basic_indexing():
    # an int that drops an axis, a strided slice, and ... before an int
    fd_check(lambda ts: (ts[0][1] * Tensor(rand(3, 4, seed=60))).sum(), [rand(2, 3, 4, seed=61)])
    fd_check(lambda ts: ts[0][:, ::2, 1::3].exp().sum(), [rand(2, 4, 6, seed=62) * 0.5])
    fd_check(lambda ts: (ts[0][..., 0] * Tensor(rand(2, 3, seed=63))).sum(), [rand(2, 3, 2, seed=64)])


def test_spatial_ops():
    fd_check(lambda ts: conv2d(ts[0], ts[1], stride=1, pad=1).gelu().sum(),
             [rand(2, 5, 5, seed=43), rand(3, 2, 3, 3, seed=44) * 0.5])
    fd_check(lambda ts: conv2d(ts[0], ts[1], stride=2, pad=0).sum(),
             [rand(2, 6, 6, seed=45), rand(3, 2, 2, 2, seed=46)], tol=1e-6)
    fd_check(lambda ts: conv2d(ts[0], ts[1], stride=1, pad=1, bias=ts[2]).gelu().sum(),
             [rand(2, 5, 5, seed=53), rand(3, 2, 3, 3, seed=54) * 0.5, rand(3, seed=55)])
    fd_check(lambda ts: (conv2d(ts[0], ts[1], stride=2, pad=0, bias=ts[2]) * Tensor(rand(3, 3, 3, seed=56))).sum(),
             [rand(2, 6, 6, seed=57), rand(3, 2, 2, 2, seed=58), rand(3, seed=59)], tol=1e-6)
    fd_check(lambda ts: upsample_nearest(ts[0], 2).exp().sum(), [rand(2, 3, 3, seed=47) * 0.4])
    fd_check(lambda ts: ts[0][:, ::2, ::2].exp().sum(), [rand(2, 4, 4, seed=48) * 0.4])


def test_conv3x3_upsampled():
    # a linear op: finite differences are exact to roundoff
    g = rand(3, 4, 4, seed=80)
    fd_check(lambda ts: (conv3x3_upsampled(ts[:3], (1, 2, 4), ts[3], ts[4]) * Tensor(g)).sum(),
             [rand(2, 4, 4, seed=81), rand(1, 2, 2, seed=82), rand(2, 1, 1, seed=83),
              rand(3, 5, 3, 3, seed=84), rand(3, seed=85)], tol=1e-6)
    x = Tensor(rand(2, 2, 2, seed=86))  # a constant part gets no gradient
    fd_check(lambda ts: (conv3x3_upsampled([ts[0], x], (1, 2), ts[1], ts[2]) * Tensor(g)).gelu().sum(),
             [rand(2, 4, 4, seed=87), rand(3, 4, 3, 3, seed=88) * 0.5, rand(3, seed=89)])
    assert x.grad is None


# (channels per part, output channels, output size) of the model's 3x3 convs at
# the default and the tiny config: the fused-map head, the baseline head and
# its hidden conv, and the aux head
CONV3X3_CASES = {
    "head-default": (32, 32, 16, (1, 2, 4, 8)), "head-tiny": (16, 16, 8, (1, 2, 4, 8)),
    "baseline-default": (32, 32, 8, (1, 1, 2, 4)), "baseline-tiny": (16, 16, 4, (1, 1, 2, 4)),
    "hidden-default": (32, 32, 8, (1,)), "hidden-tiny": (16, 16, 4, (1,)),
    "aux-default": (32, 32, 4, (1,)), "aux-tiny": (16, 16, 2, (1,)),
}


@pytest.mark.parametrize("tied", [False, True], ids=["concat", "sum"])
@pytest.mark.parametrize("case", list(CONV3X3_CASES.values()), ids=list(CONV3X3_CASES))
def test_conv3x3_upsampled_matches_written_out_rule(case, tied):
    # concat merge: conv2d over the concat of the upsampled parts; sum merge:
    # conv2d of their sum, against the op with the weight repeated per part
    c, o, size, factors = case
    rng = np.random.default_rng(90)
    parts = [rng.normal(size=(c, size // f, size // f)) for f in factors]
    w = rng.normal(size=(o, c if tied else c * len(factors), 3, 3))
    b, g = rng.normal(size=o), rng.normal(size=(o, size, size))

    def run(fused):
        ts = [Tensor(a, requires_grad=True) for a in (*parts, w, b)]
        *ps, wt, bt = ts
        if fused:
            y = conv3x3_upsampled(ps, factors, concat([wt] * len(ps), axis=1) if tied else wt, bt)
        else:
            ups = [upsample_nearest(p, f) for p, f in zip(ps, factors)]
            merged = sum(ups[1:], ups[0]) if tied else concat(ups, axis=0)
            y = conv2d(merged, wt, stride=1, pad=1, bias=bt)
        (y * Tensor(g)).sum().backward()
        return [y.data] + [x.grad for x in ts]

    for got, want in zip(run(True), run(False)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_attention_masked_and_literal():
    # q, k, v and a soft keep in (0, 1), under both normalisations
    w = rand(5, 8, seed=53)
    arrays = [rand(5, 8, seed=54), rand(7, 8, seed=55), rand(7, 8, seed=56),
              rand(7, seed=57, lo=0.05, hi=0.95)]
    for literal in (False, True):
        fd_check(lambda ts: (attention(ts[0], ts[1], ts[2], ts[3], 2, literal=literal) * Tensor(w)).sum(),
                 arrays)


DROPPING_KEEP = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0])


@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("d, heads", [(8, 2), (12, 4)])  # scale 1/2, and 1/sqrt(3)
def test_attention_dropping_keep(literal, d, heads):
    # a 0/1 keep as in training: dropped keys still get a keep gradient,
    # and their key and value rows get exactly none
    w = rand(5, d, seed=62)
    arrays = [rand(5, d, seed=63), rand(7, d, seed=64), rand(7, d, seed=65), DROPPING_KEEP]
    q, k, v, keep = fd_check(
        lambda ts: (attention(ts[0], ts[1], ts[2], ts[3], heads, literal=literal) * Tensor(w)).sum(),
        arrays, samples=40)
    dropped = DROPPING_KEEP == 0
    assert np.all(k.grad[dropped] == 0.0) and np.all(v.grad[dropped] == 0.0)
    assert np.all(keep.grad[dropped] != 0.0)


def unfused_attention(q, k, v, keep, heads, g, literal):
    """The op's rules written out with P built: (out, dq, dk, dv, dkeep) for upstream g."""
    def by_head(x):
        return x.reshape(x.shape[0], heads, -1).transpose(1, 0, 2)

    def by_row(x):
        return x.transpose(1, 0, 2).reshape(x.shape[1], -1)

    scale = 1.0 / np.sqrt(q.shape[1] // heads)
    qh, kh, vh, gh = by_head(q), by_head(k), by_head(v), by_head(g)
    s = qh @ kh.transpose(0, 2, 1) * scale
    dead = float(not np.any(keep > 0))  # no kept key: no shift, S + 1
    if literal:
        total = keep.sum() + dead
        r = np.exp(s) / total
    else:
        e = np.exp(s - (0.0 if dead else s[..., keep > 0].max(axis=-1, keepdims=True)))
        r = e / ((e * keep).sum(axis=-1, keepdims=True) + dead)
    p = r * keep
    dp = gh @ vh.transpose(0, 2, 1)
    rowsum = (dp * p).sum(axis=-1, keepdims=True)
    if literal:
        ds = p * dp
        dkeep = (r * dp).sum(axis=(0, 1)) - rowsum.sum() / total
    else:
        ds = p * (dp - rowsum)
        dkeep = (r * (dp - rowsum)).sum(axis=(0, 1))
    return (by_row(p @ vh), by_row(ds @ kh) * scale, by_row(ds.transpose(0, 2, 1) @ qh) * scale,
            by_row(p.transpose(0, 2, 1) @ gh), dkeep)


# keep vectors over 7 keys: the op splits them into weighted (keep != 0) and zero-keep keys
KEEPS = {
    "dropping": DROPPING_KEEP,
    "soft": rand(7, seed=66, lo=0.05, hi=0.95),
    "all-ones": np.ones(7),
    "all-zeros": np.zeros(7),
    "single": np.eye(7)[3],
    "soft-with-zeros": rand(7, seed=71, lo=0.05, hi=0.95) * (DROPPING_KEEP == 0),
}


@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("keep", list(KEEPS.values()), ids=list(KEEPS))
def test_attention_matches_unfused_rules(keep, literal):
    q, k, v, g = rand(5, 12, seed=67), rand(7, 12, seed=68), rand(7, 12, seed=69), rand(5, 12, seed=70)
    ts = [Tensor(a, requires_grad=True) for a in (q, k, v, keep)]
    out = attention(*ts, 4, literal=literal)
    (out * Tensor(g)).sum().backward()
    for got, want in zip([out.data] + [t.grad for t in ts], unfused_attention(q, k, v, keep, 4, g, literal)):
        # exactly-zero references (dq and dk with one kept key) are held to 1e-12 absolute
        assert np.max(np.abs(got - want)) <= 1e-12 * (np.max(np.abs(want)) or 1.0)
    if not keep.any():
        assert np.all(out.data == 0.0)
        assert all(np.all(np.isfinite(t.grad)) for t in ts)


@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("keep", [None] + list(KEEPS.values()), ids=["none"] + list(KEEPS))
def test_attention_weights_are_masked_softmax(keep, literal):
    # one-hot values make each head's output row its weights over the 7 keys,
    # which must be masked_softmax(s, keep) * keep (criterion 03's rule)
    heads, n_keys = 2, 7
    q, k = rand(5, heads * n_keys, seed=72), rand(n_keys, heads * n_keys, seed=73)
    v = np.tile(np.eye(n_keys), (1, heads))
    out = attention(Tensor(q), Tensor(k), Tensor(v), None if keep is None else Tensor(keep), heads,
                    literal=literal)
    weights = out.data.reshape(5, heads, n_keys).transpose(1, 0, 2)
    qh, kh = (x.reshape(x.shape[0], heads, n_keys).transpose(1, 0, 2) for x in (q, k))
    s = qh @ kh.transpose(0, 2, 1) / np.sqrt(n_keys)
    want = masked_softmax(s, keep, literal) * (1.0 if keep is None else keep)
    assert np.max(np.abs(weights - want)) <= 1e-12 * np.max(np.abs(want))


def test_attention_backward_refuses_a_second_run():
    # the op's backward overwrites its saved exponentials, so a replay must fail loudly
    ts = [Tensor(a, requires_grad=True) for a in (rand(5, 8, seed=75), rand(7, 8, seed=76),
                                                  rand(7, 8, seed=77), DROPPING_KEEP)]
    loss = attention(*ts, 2).sum()
    loss.backward()
    with pytest.raises(RuntimeError, match="twice"):
        loss.backward()


def test_attention_peak_memory_independent_of_kept_count():
    # scale 1 at the default config: 8 heads, 256 queries, 340 keys, D = 32
    rng = np.random.default_rng(74)
    q, k, v, g = (rng.normal(size=shape) for shape in [(256, 32), (340, 32), (340, 32), (256, 32)])
    peaks = []
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        for ratio in (0.25, 0.75):
            keep = (rng.permutation(340) < ratio * 340).astype(float)
            ts = [Tensor(a, requires_grad=True) for a in (q, k, v, keep)]
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            (attention(*ts, 8) * Tensor(g)).sum().backward()
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        if started:
            tracemalloc.stop()
    assert abs(peaks[0] - peaks[1]) < 0.01 * max(peaks)


def attention_against_unfused(q, k, v, keep, heads, g, literal=False):
    """Run the op (keep None: all keys) and assert its output and gradients
    equal `unfused_attention`'s to 1e-12 of each reference's largest entry."""
    m = np.ones(k.shape[0]) if keep is None else keep
    ts = [Tensor(a, requires_grad=True) for a in (q, k, v, m)]
    out = attention(ts[0], ts[1], ts[2], None if keep is None else ts[3], heads, literal=literal)
    (out * Tensor(g)).sum().backward()
    got = [out.data] + [t.grad for t in ts[:3]] + ([] if keep is None else [ts[3].grad])
    for x, want in zip(got, unfused_attention(q, k, v, m, heads, g, literal)):
        assert np.max(np.abs(x - want)) <= 1e-12 * (np.max(np.abs(want)) or 1.0)


@pytest.mark.parametrize("keep", [DROPPING_KEEP, KEEPS["soft"], None], ids=["dropping", "soft", "none"])
def test_attention_redoes_rows_the_bound_shift_underflows(keep):
    # query rows x1e3 and one key of norm 1e3 per head pointing against
    # every query row (key 1, which the 0/1 keep drops): the shift bound
    # c = |q| max|k| then exceeds every row's kept max by far more than 700,
    # so exp(s - c) underflows on all kept keys and each row must be redone
    # with its exact kept-key max
    heads, d = 2, 8
    q = rand(5, d, seed=80, lo=0.5, hi=2.0) * 1e3
    k = rand(7, d, seed=81) * 1e-3
    k[1] = -1e3 / np.sqrt(d // heads)
    m = np.ones(7) if keep is None else keep
    qh, kh = q.reshape(5, heads, -1), k.reshape(7, heads, -1)
    s = np.einsum("nhc,lhc->hnl", qh, kh) / np.sqrt(d // heads)
    c = np.linalg.norm(qh, axis=-1).T * np.linalg.norm(kh, axis=-1).max(axis=0)[:, None] / np.sqrt(d // heads)
    assert np.all(c - s[..., m > 0].max(axis=-1) > 700)
    attention_against_unfused(q, k, rand(7, d, seed=82), keep, heads, rand(5, d, seed=83))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       log_mag=st.tuples(*[st.floats(-3.0, 2.0)] * 3),
       keep_kind=st.sampled_from(["none", "dropping", "soft"]),
       zero_query_row=st.booleans(), zero_keys=st.booleans(), literal=st.booleans())
def test_attention_matches_unfused_across_magnitudes(seed, log_mag, keep_kind, zero_query_row, zero_keys,
                                                     literal):
    # q, k and v each scaled by 10^[-3, 2], with q's and k's scales
    # multiplying to at most 10, so scores stay below about 25: past that the
    # softmax saturates and dq, dk become differences of nearly equal terms,
    # where neither the op nor the written-out rule keeps 12 digits (the
    # bound shift plays no part in that)
    assume(log_mag[0] + log_mag[1] <= 1.0)
    rng = np.random.default_rng(seed)
    q, k, v = (rng.uniform(-2, 2, size=shape) * 10.0 ** mag
               for shape, mag in zip([(5, 12), (7, 12), (7, 12)], log_mag))
    if zero_query_row:
        q[2] = 0.0
    if zero_keys:
        k[:] = 0.0
    keep = {"none": None, "dropping": DROPPING_KEEP, "soft": rng.uniform(0.05, 0.95, size=7)}[keep_kind]
    attention_against_unfused(q, k, v, keep, 4, rng.uniform(-2, 2, size=(5, 12)), literal)


def test_attention_unmasked():
    w = rand(4, 6, seed=58)
    for literal in (False, True):
        fd_check(lambda ts: (attention(ts[0], ts[1], ts[2], None, 3, literal=literal) * Tensor(w)).sum(),
                 [rand(4, 6, seed=59), rand(5, 6, seed=60), rand(5, 6, seed=61)])


def test_upsample_gradient_is_factor_squared():
    x = Tensor(rand(1, 2, 2, seed=49), requires_grad=True)
    upsample_nearest(x, 4).sum().backward()
    assert np.array_equal(x.grad, np.full((1, 2, 2), 16.0))


def test_cross_entropy_gradient():
    rng = np.random.default_rng(50)
    logits = rng.uniform(-2, 2, size=(3, 4, 4))
    labels = rng.integers(0, 3, size=(4, 4))
    labels[0, :2] = 255
    fd_check(lambda ts: cross_entropy(ts[0], labels, ignore_index=255), [logits])


def test_straight_through_routes_gradient_to_soft():
    soft = Tensor(rand(6, seed=51), requires_grad=True)
    hard = (soft.data > 0).astype(float)
    out = straight_through(hard, soft)
    (out * Tensor(np.arange(6.0))).sum().backward()
    assert np.array_equal(soft.grad, np.arange(6.0))


def test_gradients_accumulate_across_shared_use():
    a = Tensor(rand(3, 3, seed=52), requires_grad=True)
    ((a * a) + matmul(a, a)).sum().backward()
    fd = np.zeros_like(a.data)

    def f():
        return float((a.data * a.data + a.data @ a.data).sum())

    for i in range(a.data.size):
        fd.reshape(-1)[i] = central_diff(f, a.data, i, EPS)
    assert np.max(np.abs(a.grad - fd)) < 1e-6
