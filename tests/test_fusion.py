import math

import numpy as np
import pytest

from scalefuse.fusion import (
    FusionDiagnostics,
    MCAParams,
    ProjectionGenerator,
    fuse_all_scales,
    mca_core,
    mca_fuse,
    mca_fuse_projected,
    project_tokens,
)
from scalefuse.pyramid import TokenSequence
from scalefuse.selection import DecisionSet, ScorerMLP, gumbel_sample, score
from scalefuse.tensor import ConfigurationError, Tensor, attention, masked_softmax


def identity_params(D, h=1):
    params = MCAParams.create(D, h, np.random.default_rng(0))
    for w in (params.wq, params.wk, params.wv, params.wo):
        w.data[...] = np.eye(D)
    for b in (params.bq, params.bk, params.bv, params.bo):
        b.data[...] = 0.0
    return params


def random_params(D, h, seed=0):
    return MCAParams.create(D, h, np.random.default_rng(seed))


def scalar_mca_oracle(queries, source, params, mask_row=None, residual=False):
    """Triple-loop reference: heads, queries, keys — no vectorized attention."""
    N, D = queries.shape
    M = source.shape[0]
    h = params.head_count
    dk = D // h
    q = queries @ params.wq.data + params.bq.data
    k = source @ params.wk.data + params.bk.data
    v = source @ params.wv.data + params.bv.data
    out = np.zeros((N, D))
    for head in range(h):
        lo = head * dk
        for i in range(N):
            scores = []
            for j in range(M):
                s = sum(q[i, lo + t] * k[j, lo + t] for t in range(dk)) / math.sqrt(dk)
                scores.append(s)
            if mask_row is None:
                mx = max(scores)
                ws = [math.exp(s - mx) for s in scores]
            else:
                kept = [s for s, m in zip(scores, mask_row) if m > 0]
                mx = max(kept) if kept else 0.0
                ws = [math.exp(s - mx) * m for s, m in zip(scores, mask_row)]
            norm = sum(ws)
            ws = [w / norm if norm else 0.0 for w in ws]
            for t in range(dk):
                out[i, lo + t] = sum(ws[j] * v[j, lo + t] for j in range(M))
    out = out @ params.wo.data + params.bo.data
    return out + queries if residual else out


def projected(x, w, b):
    return x @ w.data + b.data


def op_weights(q, k, h):
    """The attention op's weights (h, N, L), read off by attending to one-hot values."""
    L, D = k.shape
    dk = D // h
    v = np.zeros((L, D))
    for head in range(h):
        v[:, head * dk : head * dk + L] = np.eye(L)
    out = attention(Tensor(q), Tensor(k), Tensor(v), None, h).data
    return out.reshape(len(q), h, dk)[:, :, :L].transpose(1, 0, 2)


def normalized(scores, m, literal=False):
    return masked_softmax(scores.copy(), m, literal) * m


def seq_from_tokens(tokens, lengths=None):
    L = tokens.shape[0]
    lengths = lengths or [L, 0, 0, 0]
    prov = np.stack([np.ones(L), np.arange(L), np.zeros(L)], axis=1).astype(np.int64)
    return TokenSequence(tokens=tokens, provenance=prov, lengths=lengths,
                         level_shapes=[(lengths[0], 1), (max(lengths[1], 0), 1),
                                       (lengths[2], 1), (lengths[3], 1)])


class TestAttentionScores:
    def test_orthogonal_rows_zero_off_diagonal(self):
        D = 4
        params = identity_params(D)
        q = projected(np.eye(D)[:2] * 2.0, params.wq, params.bq)
        k = projected(np.eye(D)[2:] * 3.0, params.wk, params.bk)  # disjoint one-hots -> all zero
        # all-zero scores give exactly uniform weights
        assert np.array_equal(op_weights(q, k, 1), np.full((1, 2, 2), 0.5))

    def test_one_hot_diagonal_half(self):
        D = 4
        params = identity_params(D)  # h=1 -> d_k = 4
        q = projected(np.eye(D), params.wq, params.bq)
        w = op_weights(q, q, 1)
        # diagonal scores 0.5, off-diagonal 0
        assert np.allclose(np.diag(w[0]), np.exp(0.5) / (np.exp(0.5) + 3.0))

    def test_heads_must_divide(self):
        with pytest.raises(ConfigurationError):
            MCAParams.create(6, 4, np.random.default_rng(0))

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(1)
        D, h, N, M = 8, 2, 5, 7
        params = random_params(D, h, seed=2)
        qv, kv = rng.normal(size=(N, D)), rng.normal(size=(M, D))
        q = projected(qv, params.wq, params.bq)
        k = projected(kv, params.wk, params.bk)
        v = projected(kv, params.wv, params.bv)
        out = attention(Tensor(q), Tensor(k), Tensor(v), None, h)
        dk = D // h
        for head in range(h):
            cols = slice(head * dk, (head + 1) * dk)
            for i in range(N):
                ref = [sum(q[i, head * dk + t] * k[j, head * dk + t] for t in range(dk)) / math.sqrt(dk)
                       for j in range(M)]
                w = np.exp(np.array(ref) - max(ref))
                expect = (w / w.sum()) @ v[:, cols]
                assert np.max(np.abs(out.data[i, cols] - expect)) < 1e-9


class TestMaskedNormalize:
    def test_uniform_row(self):
        out = normalized(np.zeros((1, 1, 4)), np.ones(4))
        assert np.allclose(out, 0.25, atol=1e-15)

    def test_two_key_symmetry(self):
        s = np.array([[[1.3, 1.3, -5.0, 9.9]]])
        out = normalized(s, np.array([1.0, 1.0, 0.0, 0.0]))
        assert np.allclose(out[0, 0], [0.5, 0.5, 0.0, 0.0], atol=1e-12)

    def test_properties_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            h, n, L = rng.integers(1, 3), int(rng.integers(1, 6)), int(rng.integers(2, 12))
            scores = rng.normal(size=(h, n, L)) * 5
            m = (rng.uniform(size=L) < 0.6).astype(float)
            if not m.any():
                m[rng.integers(0, L)] = 1.0
            out = normalized(scores, m)
            assert np.all(out[:, :, m == 0] == 0.0)
            assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-9)
            shifted = normalized(scores + 7.3, m)
            assert np.allclose(out, shifted, atol=1e-9)

    def test_all_masked_row_zero_and_counted(self):
        out = normalized(np.random.default_rng(4).normal(size=(2, 3, 5)), np.zeros(5))
        assert np.array_equal(out, np.zeros((2, 3, 5)))
        diag = FusionDiagnostics()
        rng = np.random.default_rng(4)
        mca_core(Tensor(rng.normal(size=(3, 8))), Tensor(rng.normal(size=(5, 8))),
                 random_params(8, 2), Tensor(np.zeros(5)), diagnostics=diag)
        assert diag.zero_mask_rows == 3

    def test_literal_variant_count_normalizes(self):
        s = np.array([[[0.5, -1.0, 2.0]]])
        m = np.array([1.0, 0.0, 1.0])
        out = normalized(s, m, literal=True)
        expect = np.exp(s[0, 0]) * m / m.sum()
        assert np.allclose(out[0, 0], expect, atol=1e-12)

    def test_mask_matrix_repeats_decisions_across_rows(self):
        m = np.array([1.0, 0.0, 1.0, 1.0])
        # all heads and all 5 query rows consume the same decision vector per scale
        scores = np.random.default_rng(0).normal(size=(3, 5, 4))
        out = normalized(scores, m)
        assert np.array_equal(out > 0, np.broadcast_to(m > 0, out.shape))
        assert np.all(out[:, :, m == 0] == 0.0)

    @pytest.mark.parametrize("literal", [False, True])
    def test_dead_rows_exact_zero_counted_finite_gradients(self, literal):
        rng = np.random.default_rng(24)
        D, h, L, N = 8, 2, 6, 4
        params = random_params(D, h, seed=25)
        queries = Tensor(rng.normal(size=(N, D)), requires_grad=True)
        tokens = Tensor(rng.normal(size=(L, D)), requires_grad=True)
        keep = Tensor(np.zeros(L), requires_grad=True)
        diag = FusionDiagnostics()
        out = mca_core(queries, tokens, params, keep, literal=literal, diagnostics=diag)
        # zero attention rows leave only the output bias
        assert np.array_equal(out.data, np.broadcast_to(params.bo.data, (N, D)))
        assert diag.zero_mask_rows == N
        (out * Tensor(rng.normal(size=(N, D)))).sum().backward()
        for t in (queries, tokens, keep, params.wq, params.wk, params.wv, params.wo):
            assert t.grad is not None and np.all(np.isfinite(t.grad))
        assert np.any(keep.grad != 0.0)  # the straight-through path still sees dropped keys


class TestMcaFuse:
    def test_single_key_degenerate(self):
        rng = np.random.default_rng(5)
        D, L = 8, 6
        params = random_params(D, 2, seed=6)
        tokens = Tensor(rng.normal(size=(L, D)))
        seq = seq_from_tokens(tokens)
        Q = np.zeros((L, 4))
        kstar = 3
        Q[kstar, :] = 1.0
        decisions = DecisionSet(mode="training", Q=Tensor(Q))
        queries = Tensor(rng.normal(size=(4, D)))
        out = mca_fuse(queries, seq, decisions, params, scale=1, residual=True)
        vrow = tokens.data[kstar] @ params.wv.data + params.bv.data
        expect = vrow @ params.wo.data + params.bo.data + queries.data
        assert np.max(np.abs(out.data - expect)) < 1e-10

    def test_rho_one_matches_all_ones_mask(self):
        rng = np.random.default_rng(7)
        D, L, N = 8, 12, 5
        params = random_params(D, 4, seed=8)
        tokens = Tensor(rng.normal(size=(L, D)))
        seq = seq_from_tokens(tokens)
        queries = Tensor(rng.normal(size=(N, D)))
        train = DecisionSet(mode="training", Q=Tensor(np.ones((L, 4))))
        infer = DecisionSet(mode="inference", topk=[np.arange(L)] * 4)
        a = mca_fuse(queries, seq, train, params, scale=1)
        b = mca_fuse(queries, seq, infer, params, scale=1)
        assert np.max(np.abs(a.data - b.data)) < 1e-10

    @pytest.mark.parametrize("literal", [False, True])
    def test_no_decisions_match_all_ones_mask(self, literal):
        rng = np.random.default_rng(16)
        D, L, N = 8, 12, 5
        tokens = rng.normal(size=(L, D))
        queries = rng.normal(size=(N, D))
        g = rng.normal(size=(N, D))

        def run(decisions):
            params = random_params(D, 4, seed=17)
            seq = seq_from_tokens(Tensor(tokens))
            out = mca_fuse(Tensor(queries), seq, decisions, params, scale=1, literal=literal)
            (out * Tensor(g)).sum().backward()
            return [out.data] + [p.grad for _, p in params.parameters("mca")]

        ones = DecisionSet(mode="training", Q=Tensor(np.ones((L, 4))))
        for got, want in zip(run(None), run(ones)):
            assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)

    def test_against_scalar_oracle_masked(self):
        rng = np.random.default_rng(9)
        D, h, L, N = 8, 2, 14, 5
        params = random_params(D, h, seed=10)
        tokens = Tensor(rng.normal(size=(L, D)))
        seq = seq_from_tokens(tokens)
        m = (rng.uniform(size=L) < 0.5).astype(float)
        m[0] = 1.0
        Q = np.tile(m[:, None], (1, 4))
        decisions = DecisionSet(mode="training", Q=Tensor(Q))
        queries = Tensor(rng.normal(size=(N, D)))
        out = mca_fuse(queries, seq, decisions, params, scale=1, residual=False)
        ref = scalar_mca_oracle(queries.data, tokens.data, params, mask_row=m)
        assert np.max(np.abs(out.data - ref)) < 1e-8

    def test_key_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        D, L, N = 8, 10, 4
        params = random_params(D, 2, seed=12)
        tokens = rng.normal(size=(L, D))
        m = (rng.uniform(size=L) < 0.7).astype(float)
        m[1] = 1.0
        queries = Tensor(rng.normal(size=(N, D)))
        perm = rng.permutation(L)

        def run(tok, mask):
            seq = seq_from_tokens(Tensor(tok))
            d = DecisionSet(mode="training", Q=Tensor(np.tile(mask[:, None], (1, 4))))
            return mca_fuse(queries, seq, d, params, scale=1).data

        assert np.max(np.abs(run(tokens, m) - run(tokens[perm], m[perm]))) < 1e-10

    def test_inference_ignores_unselected_tokens(self):
        rng = np.random.default_rng(13)
        D, L, N = 8, 12, 3
        params = random_params(D, 2, seed=14)
        tokens = rng.normal(size=(L, D))
        topk = [np.array([0, 4, 5]), np.array([1, 2, 3]), np.array([0, 1, 2]), np.array([3, 4, 5])]
        decisions = DecisionSet(mode="inference", topk=topk)
        queries = Tensor(rng.normal(size=(N, D)))
        base = mca_fuse(queries, seq_from_tokens(Tensor(tokens)), decisions, params, scale=1).data
        perturbed = tokens.copy()
        perturbed[7] += 100.0  # not selected for scale 1
        again = mca_fuse(queries, seq_from_tokens(Tensor(perturbed)), decisions, params, scale=1).data
        assert np.array_equal(base, again)


class TestProjection:
    def test_r1_identity_matrix_recovers_queries(self):
        rng = np.random.default_rng(15)
        D, N = 6, 5
        gen = ProjectionGenerator.create(D, N, 1, rng)
        queries = Tensor(rng.normal(size=(N, D)))
        gen.w.data[...] = 0.0
        gen.b.data[...] = 0.0
        proj, compact = project_tokens(queries, gen)
        # uniform columns; force identity to check the algebra of eq-style re-use
        proj.data[...] = np.eye(N)
        forced = proj.data.T @ queries.data
        assert np.allclose(forced, queries.data)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(16)
        gen = ProjectionGenerator.create(8, 12, 4, rng)
        proj, compact = project_tokens(Tensor(rng.normal(size=(12, 8))), gen)
        assert proj.shape == (12, 3)
        assert np.allclose(proj.data.sum(axis=0), 1.0, atol=1e-12)

    def test_compact_rows_are_convex_combinations(self):
        rng = np.random.default_rng(17)
        gen = ProjectionGenerator.create(8, 16, 2, rng)
        q = rng.normal(size=(16, 8))
        proj, compact = project_tokens(Tensor(q), gen)
        lo, hi = q.min(axis=0) - 1e-12, q.max(axis=0) + 1e-12
        assert np.all(compact.data >= lo) and np.all(compact.data <= hi)

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigurationError):
            ProjectionGenerator.create(8, 10, 4, np.random.default_rng(0))

    def test_projected_path_r1_identity_equals_base(self, monkeypatch):
        # a column softmax can never emit an exact identity, so the r=1
        # reduction case forces the projection matrix directly
        rng = np.random.default_rng(18)
        D, L, N = 8, 10, 6
        params = random_params(D, 2, seed=19)
        gen = ProjectionGenerator.create(D, N, 1, rng)
        tokens = Tensor(rng.normal(size=(L, D)))
        seq = seq_from_tokens(tokens)
        decisions = DecisionSet(mode="training", Q=Tensor(np.ones((L, 4))))
        queries = Tensor(rng.normal(size=(N, D)))

        base = mca_fuse(queries, seq, decisions, params, scale=1)

        from scalefuse import fusion as fmod

        monkeypatch.setattr(fmod, "project_tokens",
                            lambda q, g: (Tensor(np.eye(q.shape[0])), q))
        forced = mca_fuse_projected(queries, seq, decisions, params, gen, scale=1)
        assert np.max(np.abs(forced.data - base.data)) < 1e-10

    def test_output_shape_independent_of_r(self):
        rng = np.random.default_rng(20)
        D, L, N = 8, 12, 8
        params = random_params(D, 2, seed=21)
        tokens = Tensor(rng.normal(size=(L, D)))
        seq = seq_from_tokens(tokens)
        decisions = DecisionSet(mode="training", Q=Tensor(np.ones((L, 4))))
        for r in (1, 2, 4):
            gen = ProjectionGenerator.create(D, N, r, rng)
            out = mca_fuse_projected(Tensor(rng.normal(size=(N, D))), seq, decisions,
                                     params, gen, scale=1)
            assert out.shape == (N, D)

    def test_mac_counter_projected_below_base(self):
        # scale-1 geometry for a 64x64 image at D=32
        D, N, L, r = 32, 256, 340, 4
        rng = np.random.default_rng(22)
        params = random_params(D, 8, seed=23)
        gen = ProjectionGenerator.create(D, N, r, rng)
        tokens = Tensor(rng.normal(size=(L, D)))
        seq = seq_from_tokens(tokens, lengths=[N, 64, 16, 4])
        decisions = DecisionSet(mode="training", Q=Tensor(np.ones((L, 4))))
        queries = Tensor(rng.normal(size=(N, D)))

        diag_base = FusionDiagnostics()
        mca_fuse(queries, seq, decisions, params, scale=1, diagnostics=diag_base)
        diag_proj = FusionDiagnostics()
        mca_fuse_projected(queries, seq, decisions, params, gen, scale=1, diagnostics=diag_proj)
        base_macs = diag_base.per_scale[0].attention_macs
        proj = diag_proj.per_scale[0]
        assert proj.attention_macs == base_macs // r
        assert proj.attention_macs + 0 < base_macs
        assert proj.projection_macs > 0


class TestFuseAllScales:
    def make_pipeline(self, seed=0, h=64, w=64, c=4, d=16):
        from scalefuse.pyramid import LateralSet, ToyBackbone, extract_pyramid, rearrange, top_down_enhance

        rng = np.random.default_rng(seed)
        backbone = ToyBackbone.create(c, rng)
        laterals = LateralSet.create(c, d, rng)
        image = Tensor(rng.normal(size=(3, h, w)))
        p = top_down_enhance(extract_pyramid(image, backbone, d), laterals)
        return p, rearrange(p), rng

    def test_zero_decisions_degenerate_to_residual(self):
        p, seq, rng = self.make_pipeline(seed=1)
        params = [random_params(16, 4, seed=2 + i) for i in range(4)]
        decisions = DecisionSet(mode="training", Q=Tensor(np.zeros((seq.length, 4))))
        diag = FusionDiagnostics()
        outs = fuse_all_scales(seq, decisions, params, {}, diagnostics=diag)
        for out, lv in zip(outs, p.enhanced_levels):
            assert np.max(np.abs(out.feature_map.data - lv.data)) < 1e-12
        assert diag.zero_mask_rows == seq.length  # every query row of every scale

    def test_own_scale_tokens_in_candidate_set(self):
        p, seq, rng = self.make_pipeline(seed=3)
        # token rows for scale i are exactly the flattened enhanced level
        lo, hi = seq.scale_slice(2)
        d, hh, ww = p.enhanced_levels[1].shape
        expect = p.enhanced_levels[1].data.reshape(d, hh * ww).T
        assert np.array_equal(seq.tokens.data[lo:hi], expect)

    def test_gradients_reach_scorer_through_mask(self):
        p, seq, rng = self.make_pipeline(seed=4)
        mlp = ScorerMLP.create(16, np.random.default_rng(5))
        sm = score(seq, mlp)
        decisions = gumbel_sample(sm, 1.0, rng=np.random.default_rng(6))
        params = [random_params(16, 4, seed=7 + i) for i in range(4)]
        outs = fuse_all_scales(seq, decisions, params, {})
        total = outs[0].rows.sum()
        for o in outs[1:]:
            total = total + o.rows.sum()
        total.backward()
        assert mlp.w1.grad is not None and np.any(mlp.w1.grad != 0)

    def test_feature_map_geometry(self):
        p, seq, rng = self.make_pipeline(seed=8)
        params = [random_params(16, 4, seed=9 + i) for i in range(4)]
        decisions = DecisionSet(mode="training", Q=Tensor(np.ones((seq.length, 4))))
        outs = fuse_all_scales(seq, decisions, params, {})
        assert [o.feature_map.shape for o in outs] == [(16, 16, 16), (16, 8, 8), (16, 4, 4), (16, 2, 2)]
