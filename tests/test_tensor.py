"""Forward contracts of the tensor core."""

import math

import numpy as np
import pytest

import scalefuse
import scalefuse.tensor
from scalefuse.tensor import (
    ConfigurationError,
    DimensionError,
    Tape,
    Tensor,
    concat,
    conv2d,
    conv3x3_upsampled,
    cross_entropy,
    gather_rows,
    matmul,
    no_grad,
    straight_through,
    upsample_nearest,
)


def t(data, rg=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


class TestMatmul:
    def test_identity(self):
        out = matmul(t([[1, 0], [0, 1]]), t([[3, 4], [5, 6]]))
        assert np.array_equal(out.data, [[3, 4], [5, 6]])

    def test_hand_arithmetic(self):
        out = matmul(t([[1, 2]]), t([[3], [4]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as e:
            matmul(t(np.zeros((2, 3))), t(np.zeros((4, 5))))
        assert "(2, 3)" in str(e.value) and "(4, 5)" in str(e.value)


class TestAffine:
    """`matmul(x, w, b)`: the affine map with its bias added inside the op."""

    def test_matches_matmul_plus_bias_bit_for_bit(self):
        rng = np.random.default_rng(23)
        arrays = rng.normal(size=(6, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
        g = rng.normal(size=(6, 5))

        def run(fused):
            x, w, b = (t(a, rg=True) for a in arrays)
            y = matmul(x, w, b) if fused else matmul(x, w) + b
            (y * t(g)).sum().backward()
            return [y.data, x.grad, w.grad, b.grad]

        for got, want in zip(run(True), run(False)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("shapes", [((2, 3), (4, 5), (5,)), ((2, 4), (4, 5), (4,)),
                                        ((2, 4), (4, 5), (1, 5)), ((4,), (4, 5), (5,))])
    def test_shape_mismatch_rejected(self, shapes):
        with pytest.raises(DimensionError):
            matmul(*(t(np.ones(s)) for s in shapes))


class TestSoftmax:
    def test_symmetry(self):
        out = t([0.0, 0.0, 0.0]).softmax(axis=0)
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_large_logits_no_overflow(self):
        out = t([1000.0, 0.0]).softmax(axis=0)
        assert np.all(np.isfinite(out.data))
        assert out.data[0] > 1 - 1e-12 and out.data[1] < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = t(rng.normal(size=(7, 9)) * 3).softmax(axis=1)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out.data > 0) and np.all(out.data < 1)


class TestConv2d:
    def test_one_by_one_identity(self):
        x = np.arange(12, dtype=np.float64).reshape(1, 3, 4)
        out = conv2d(t(x), t(np.ones((1, 1, 1, 1))))
        assert np.array_equal(out.data, x)

    def test_all_ones_center(self):
        out = conv2d(t(np.ones((1, 3, 3))), t(np.ones((1, 1, 3, 3))), stride=1, pad=1)
        assert out.data[0, 1, 1] == 9.0
        assert out.data[0, 0, 0] == 4.0  # corner sees a 2x2 patch

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 9, 7))
        w = rng.normal(size=(5, 3, 3, 3))
        stride, pad = 2, 1
        out = conv2d(t(x), t(w), stride=stride, pad=pad)

        Ho = (9 + 2 * pad - 3) // stride + 1
        Wo = (7 + 2 * pad - 3) // stride + 1
        xp = np.zeros((3, 9 + 2 * pad, 7 + 2 * pad))
        xp[:, pad : pad + 9, pad : pad + 7] = x
        ref = np.zeros((5, Ho, Wo))
        for o in range(5):
            for c in range(3):
                for a in range(Ho):
                    for b in range(Wo):
                        for i in range(3):
                            for j in range(3):
                                ref[o, a, b] += xp[c, a * stride + i, b * stride + j] * w[o, c, i, j]
        assert np.max(np.abs(out.data - ref)) < 1e-9

    @pytest.mark.parametrize("stride,pad,k", [(1, 1, 3), (2, 0, 2), (1, 0, 1)])
    def test_bias_matches_broadcast_add_bit_for_bit(self, stride, pad, k):
        rng = np.random.default_rng(19)
        arrays = rng.normal(size=(3, 8, 8)), rng.normal(size=(5, 3, k, k)), rng.normal(size=5)
        g = rng.normal(size=(5, (8 + 2 * pad - k) // stride + 1, (8 + 2 * pad - k) // stride + 1))

        def run(fused):
            x, w, b = (t(a, rg=True) for a in arrays)
            if fused:
                y = conv2d(x, w, stride=stride, pad=pad, bias=b)
            else:
                y = conv2d(x, w, stride=stride, pad=pad) + b.reshape(-1, 1, 1)
            (y * t(g)).sum().backward()
            return [y.data, x.grad, w.grad, b.grad]

        for got, want in zip(run(True), run(False)):
            assert np.array_equal(got, want)

    def test_bias_shape_checked(self):
        with pytest.raises(DimensionError):
            conv2d(t(np.ones((1, 3, 3))), t(np.ones((2, 1, 1, 1))), bias=t(np.ones(3)))

    def test_non_integral_output_rejected(self):
        with pytest.raises(ConfigurationError):
            conv2d(t(np.zeros((1, 5, 5))), t(np.zeros((1, 1, 2, 2))), stride=2)


class TestConv3x3Upsampled:
    def test_all_ones_counts_taps_per_upsampled_pixel(self):
        # a 2x2 part upsampled by 2: every 4x4 output pixel sees its in-image 3x3 taps
        out = conv3x3_upsampled([t(np.ones((1, 2, 2)))], [2], t(np.ones((1, 1, 3, 3))), t([0.5]))
        assert np.array_equal(out.data[0], [[4.5, 6.5, 6.5, 4.5], [6.5, 9.5, 9.5, 6.5],
                                            [6.5, 9.5, 9.5, 6.5], [4.5, 6.5, 6.5, 4.5]])

    @pytest.mark.parametrize("shapes,factors", [
        ([(2, 4, 4), (2, 3, 3)], (1, 2)),        # 4x4 against 6x6
        ([(2, 4, 4), (2, 2, 2)], (1, 1)),
        ([(2, 4, 4), (2, 2, 4)], (1, 2)),        # heights agree, widths do not
    ], ids=["factor-too-big", "factor-too-small", "width-only"])
    def test_part_sizes_times_factors_must_agree(self, shapes, factors):
        parts = [t(np.zeros(s)) for s in shapes]
        with pytest.raises(DimensionError, match="disagree"):
            conv3x3_upsampled(parts, factors, t(np.zeros((3, 4, 3, 3))), t(np.zeros(3)))

    @pytest.mark.parametrize("w_shape,b_shape", [
        ((3, 5, 3, 3), (3,)), ((3, 3, 3, 3), (3,)), ((3, 4, 1, 1), (3,)), ((3, 4, 3), (3,)),
        ((3, 4, 3, 3), (4,)),
    ], ids=["too-many-channels", "too-few-channels", "not-3x3", "rank-3", "bias"])
    def test_weight_and_bias_must_match_parts(self, w_shape, b_shape):
        parts = [t(np.zeros((2, 4, 4))), t(np.zeros((2, 2, 2)))]
        with pytest.raises(DimensionError):
            conv3x3_upsampled(parts, (1, 2), t(np.zeros(w_shape)), t(np.zeros(b_shape)))

    def test_part_and_factor_counts_and_factor_range(self):
        w, b = t(np.zeros((1, 2, 3, 3))), t(np.zeros(1))
        with pytest.raises(DimensionError):
            conv3x3_upsampled([t(np.zeros((2, 2, 2)))], (1, 1), w, b)
        with pytest.raises(DimensionError):
            conv3x3_upsampled([], (), w, b)
        with pytest.raises(ConfigurationError):
            conv3x3_upsampled([t(np.zeros((2, 2, 2)))], (0,), w, b)


class TestUpsampleNearest:
    def test_factor_one_identity(self):
        x = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
        assert np.array_equal(upsample_nearest(t(x), 1).data, x)

    def test_replication_pattern(self):
        out = upsample_nearest(t([[[1, 2], [3, 4]]]), 2)
        expect = [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]
        assert out.data[0].tolist() == expect

    def test_bad_factor(self):
        with pytest.raises(ConfigurationError):
            upsample_nearest(t(np.zeros((1, 2, 2))), 0)

    def test_gradient_sums_replicas(self):
        x = t(np.zeros((1, 2, 2)), rg=True)
        upsample_nearest(x, 3).sum().backward()
        assert np.array_equal(x.grad, np.full((1, 2, 2), 9.0))


class TestCrossEntropy:
    def test_perfect_prediction(self):
        labels = np.array([[0, 1], [2, 0]])
        logits = np.zeros((3, 2, 2))
        for i in range(2):
            for j in range(2):
                logits[labels[i, j], i, j] = 1000.0
        assert cross_entropy(t(logits), labels).item() < 1e-9

    def test_uniform_logits(self):
        loss = cross_entropy(t(np.zeros((4, 3, 3))), np.zeros((3, 3), dtype=int))
        assert abs(loss.item() - math.log(4)) < 1e-12

    def test_all_ignored(self):
        loss = cross_entropy(t(np.zeros((4, 2, 2)), rg=True), np.full((2, 2), 255))
        assert loss.item() == 0.0
        loss.backward()  # zero gradient path must not blow up

    def test_against_scalar_oracle(self):
        rng = np.random.default_rng(3)
        K, H, W = 5, 4, 6
        logits = rng.normal(size=(K, H, W)) * 2
        labels = rng.integers(0, K, size=(H, W))
        labels[0, 0] = 255
        loss = cross_entropy(t(logits), labels, ignore_index=255)

        acc, n = 0.0, 0
        for i in range(H):
            for j in range(W):
                if labels[i, j] == 255:
                    continue
                z = logits[:, i, j]
                acc += -(z[labels[i, j]] - math.log(sum(math.exp(v) for v in z - z.max())) - z.max())
                n += 1
        assert abs(loss.item() - acc / n) < 1e-10

    def test_label_out_of_range(self):
        with pytest.raises(ConfigurationError):
            cross_entropy(t(np.zeros((2, 2, 2))), np.full((2, 2), 7))


class TestStructuralOps:
    def test_concat_and_slice_roundtrip(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
        cat = concat([t(a), t(b)], axis=0)
        assert np.array_equal(cat[0:3].data, a)
        assert np.array_equal(cat[3:5].data, b)

    def test_gather_rows(self):
        x = np.arange(12, dtype=np.float64).reshape(4, 3)
        out = gather_rows(t(x), [2, 0, 2])
        assert np.array_equal(out.data, x[[2, 0, 2]])

    def test_reshape_is_a_view_transpose_and_indexing_copy(self):
        x = t(np.arange(6, dtype=np.float64).reshape(2, 3))
        assert np.shares_memory(x.reshape(3, 2).data, x.data)
        for out in (x.transpose(), x[0], x[:, ::2]):
            assert not np.shares_memory(out.data, x.data)
            assert out.data.flags.c_contiguous

    @pytest.mark.parametrize("index", [
        (slice(None), 1), 1, (..., 0), (0, ..., slice(1, None)), (-1, slice(None, None, -2)), (),
    ], ids=["column", "row", "ellipsis", "ellipsis-between", "negative", "empty-tuple"])
    def test_basic_indexing_matches_numpy(self, index):
        x = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        out = t(x, rg=True)[index]
        assert out.op == "slice" and np.array_equal(out.data, x[index])

    @pytest.mark.parametrize("index", [
        np.array([0, 1]), [0, 1], True, (0, False), None, (slice(None), None), 2, (0, 5), (0, 0, 0),
        (..., ...), 1.0, slice(None, None, 0), slice(0.5, None),
    ], ids=["array", "list", "bool", "bool-in-tuple", "none", "none-in-tuple", "row-out-of-range",
            "column-out-of-range", "too-many", "two-ellipses", "float", "zero-step", "float-in-slice"])
    def test_indexing_rejects_what_is_not_basic(self, index):
        with pytest.raises(DimensionError):
            t(np.zeros((2, 3)))[index]

    def test_tensor_is_not_iterable(self):
        with pytest.raises(TypeError):
            iter(t(np.zeros((2, 3))))

    def test_straight_through_forwards_hard_exactly(self):
        soft = t([0.3, 0.7], rg=True)
        out = straight_through(np.array([0.0, 1.0]), soft)
        assert out.data.tolist() == [0.0, 1.0]

    def test_downsample_nearest(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
        out = t(x)[:, ::2, ::2]
        assert np.array_equal(out.data, [[[0, 2], [8, 10]]])


class TestInvariants:
    def test_ops_do_not_mutate_inputs(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        ta, tb = t(a, rg=True), t(b, rg=True)
        snap_a, snap_b = ta.data.copy(), tb.data.copy()
        out = (matmul(ta, tb) + ta * tb).softmax(axis=1).sum()
        out.backward()
        assert np.array_equal(ta.data, snap_a)
        assert np.array_equal(tb.data, snap_b)

    def test_values_flat_row_major(self):
        x = t([[1, 2], [3, 4]])
        assert x.values.tolist() == [1, 2, 3, 4]
        assert x.size == 4 and np.prod(x.shape) == x.size

    def test_finite_after_forward_backward(self):
        rng = np.random.default_rng(13)
        x = t(rng.uniform(-2, 2, size=(6, 6)), rg=True)
        w = t(rng.uniform(-2, 2, size=(6, 6)), rg=True)
        y = matmul(x, w).gelu().softmax(axis=1).log().mean()
        y.backward()
        for arr in (y.data, x.grad, w.grad):
            assert np.all(np.isfinite(arr))

    def test_tape_topological_order(self):
        a = t([1.0], rg=True)
        b = t([2.0], rg=True)
        loss = ((a * b) + a.exp()).sum()
        tape = Tape.from_root(loss)
        pos = {id(node): i for i, node in enumerate(tape.ops)}
        for node in tape.ops:
            for parent in node._parents:
                assert pos[id(parent)] < pos[id(node)]
        assert set(id(leaf) for leaf in tape.leaves()) == {id(a), id(b)}

    def test_backward_populates_all_leaves(self):
        a = t(np.ones((2, 2)), rg=True)
        b = t(np.ones((2, 2)), rg=True)
        c = t(np.ones((2, 2)), rg=True)
        (matmul(a, b) * c).sum().backward()
        assert a.grad is not None and b.grad is not None and c.grad is not None

    def test_construction_order_invariance(self):
        rng = np.random.default_rng(17)
        av, bv, cv = (rng.normal(size=(3, 3)) for _ in range(3))

        def build(first_left):
            a, b, c = t(av, rg=True), t(bv, rg=True), t(cv, rg=True)
            left, right = (a * b), (matmul(a, c))
            loss = (left + right).sum() if first_left else (right + left).sum()
            loss.backward()
            return a.grad

        # same expression DAG (addition commutes pairwise) -> bit-identical grads
        assert np.array_equal(build(True), build(False))

    def test_no_grad_disables_recording(self):
        a = t(np.ones(3), rg=True)
        with no_grad():
            out = a * a + a
        assert out._parents == () and not out.requires_grad


@pytest.mark.parametrize("module", [scalefuse, scalefuse.tensor], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
