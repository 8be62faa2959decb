"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line when it holds (pytest reports the FAIL side).
The three training-dependent criteria share one module-scoped ablation run
(4 variants x 3 seeds x 2000 steps at 64x64), which is also the runtime
budget check.
"""

import json
import time

import numpy as np
import pytest

from scalefuse.fusion import mca_fuse
from scalefuse.gradcheck import central_diff, gradcheck_model
from scalefuse.model import ModelConfig, ratio_loss
from scalefuse.profiler import profile
from scalefuse.pyramid import sequence_length
from scalefuse.selection import DecisionSet, ScoreMatrix, gumbel_sample
from scalefuse.tensor import Tensor, masked_softmax
from scalefuse.train import ablate, train

from test_fusion import scalar_mca_oracle, seq_from_tokens, random_params


def ok(n, msg):
    print(f"ACCEPTANCE {n:02d} PASS - {msg}")


@pytest.fixture(scope="module")
def ablation(tmp_path_factory):
    out = tmp_path_factory.mktemp("ablation")
    t0 = time.monotonic()
    summary = ablate(ModelConfig(), ["baseline", "fff", "fff+sfs", "fff+sfs+pm"],
                     seeds=3, steps=2000, out_dir=out, eval_every=1000, eval_scenes=8)
    elapsed = time.monotonic() - t0
    reports = {}
    for variant in ("baseline", "fff", "fff+sfs", "fff+sfs+pm"):
        reports[variant] = [
            json.loads((out / variant.replace("+", "_") / f"seed{s}" / "report.json").read_text())
            for s in range(3)
        ]
    return {"summary": summary, "reports": reports, "elapsed": elapsed}


def test_criterion_01_gradient_integrity():
    t0 = time.monotonic()
    cfg = ModelConfig.tiny()  # 32x32, C=4, D=16, h=4, K=3
    report = gradcheck_model(cfg, tolerance=1e-3, samples_per_group=10)
    elapsed = time.monotonic() - t0
    assert report.passed, f"failing groups: {report.failures}"
    assert elapsed < 300.0
    ok(1, f"{len(report.per_group)} groups, max rel err {report.max_error:.2e}, {elapsed:.0f}s")


def test_criterion_02_attention_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(50):
        h = int(rng.choice([1, 2, 4]))
        D = int(rng.choice([8, 16]))
        N = int(rng.integers(2, 25))
        L = int(rng.integers(4, 97))
        params = random_params(D, h, seed=int(rng.integers(0, 10_000)))
        tokens = rng.normal(size=(L, D))
        queries = rng.normal(size=(N, D))
        mask = (rng.uniform(size=L) < rng.uniform(0.2, 0.9)).astype(float)
        mask[int(rng.integers(0, L))] = 1.0
        seq = seq_from_tokens(Tensor(tokens))
        decisions = DecisionSet(mode="training", Q=Tensor(np.tile(mask[:, None], (1, 4))))
        out = mca_fuse(Tensor(queries), seq, decisions, params, scale=1, residual=False)
        ref = scalar_mca_oracle(queries, tokens, params, mask_row=mask)
        worst = max(worst, float(np.max(np.abs(out.data - ref))))
    assert worst < 1e-8
    ok(2, f"50 instances, max abs diff {worst:.2e}")


def test_criterion_03_masked_softmax_invariants():
    rng = np.random.default_rng(3)
    worst_sum = 0.0
    worst_shift = 0.0
    for _ in range(1000):
        h = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        L = int(rng.integers(2, 16))
        scores = rng.normal(size=(h, n, L)) * rng.uniform(0.5, 6)
        m = (rng.uniform(size=L) < rng.uniform(0.2, 0.9)).astype(float)
        if not m.any():
            m[int(rng.integers(0, L))] = 1.0
        out = masked_softmax(scores.copy(), m) * m
        assert np.all(out[:, :, m == 0] == 0.0), "masked-out entries must be exact zeros"
        worst_sum = max(worst_sum, float(np.max(np.abs(out.sum(axis=-1) - 1.0))))
        c = float(rng.normal() * 10)
        shifted = masked_softmax(scores + c, m) * m
        worst_shift = max(worst_shift, float(np.max(np.abs(out - shifted))))
    assert worst_sum < 1e-9 and worst_shift < 1e-9
    ok(3, f"1000 trials; row-sum err {worst_sum:.2e}, shift err {worst_shift:.2e}")


def test_criterion_04_gumbel_statistics():
    n = 10_000
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        sm = ScoreMatrix(P=Tensor(np.full((n, 4), p)), produced_from=None)
        d = gumbel_sample(sm, 1.0, rng=np.random.default_rng(int(p * 1000)))
        assert set(np.unique(d.Q.data)) <= {0.0, 1.0}
        freq = d.Q.data.mean(axis=0)
        assert np.all(np.abs(freq - p) < 0.02), f"p={p}: freq={freq}"
    ok(4, "keep frequencies within ±0.02 of P for P in {0.1..0.9}; decisions binary")


def test_criterion_05_ratio_loss_anchors():
    assert ratio_loss(Tensor(np.full((64, 4), 0.6)), 0.6).item() < 1e-30
    sat = ratio_loss(Tensor(np.ones((64, 4))), 0.6).item()
    assert abs(sat - 0.16) < 1e-15

    rng = np.random.default_rng(5)
    P = Tensor(rng.uniform(0.1, 0.9, size=(40, 4)), requires_grad=True)
    loss = ratio_loss(P, 0.6)
    loss.backward()

    def f():
        return ratio_loss(P, 0.6).item()

    worst = 0.0
    for idx in rng.choice(P.size, size=20, replace=False):
        fd = central_diff(f, P.data, int(idx), 1e-5)
        worst = max(worst, abs(fd - P.grad.reshape(-1)[int(idx)]))
    assert worst < 1e-6
    ok(5, f"anchors exact; analytic vs FD gradient diff {worst:.2e}")


def test_criterion_06_sequence_length_arithmetic():
    assert sequence_length(64, 64) == 340
    # the stated breakdown 4096+1024+256+64 = 5440 is the 256x256 length
    assert sequence_length(256, 256) == 5440
    assert sequence_length(512, 512) == 21760
    rng = np.random.default_rng(6)
    for _ in range(20):
        h = 32 * int(rng.integers(1, 20))
        w = 32 * int(rng.integers(1, 20))
        counted = sum((h // s) * (w // s) for s in (4, 8, 16, 32))
        assert sequence_length(h, w) == counted
    ok(6, "closed form matches token counts on anchors and 20 random valid sizes")


def test_criterion_07_path_equivalences():
    rng = np.random.default_rng(7)
    D, L, N = 16, 30, 9
    params = random_params(D, 4, seed=70)
    tokens = Tensor(rng.normal(size=(L, D)))
    seq = seq_from_tokens(tokens)
    queries = Tensor(rng.normal(size=(N, D)))
    train_d = DecisionSet(mode="training", Q=Tensor(np.ones((L, 4))))
    infer_d = DecisionSet(mode="inference", topk=[np.arange(L)] * 4)
    a = mca_fuse(queries, seq, train_d, params, scale=1)
    b = mca_fuse(queries, seq, infer_d, params, scale=1)
    diff_mask = float(np.max(np.abs(a.data - b.data)))
    assert diff_mask < 1e-10

    from scalefuse import fusion as fmod
    from scalefuse.fusion import ProjectionGenerator, mca_fuse_projected

    gen = ProjectionGenerator.create(D, N, 1, rng)
    original = fmod.project_tokens
    fmod.project_tokens = lambda q, g: (Tensor(np.eye(q.shape[0])), q)
    try:
        c = mca_fuse_projected(queries, seq, train_d, params, gen, scale=1)
    finally:
        fmod.project_tokens = original
    diff_proj = float(np.max(np.abs(c.data - a.data)))
    assert diff_proj < 1e-10
    ok(7, f"rho=1 vs all-ones mask {diff_mask:.2e}; r=1 identity projection {diff_proj:.2e}")


def test_criterion_08_efficiency_trend():
    sizes = [64, 128, 256]
    result = profile(sizes)
    prev_mac_gap = prev_peak_gap = -1
    for size in sizes:
        s1 = result["results"][str(size)]["scale1"]
        assert s1["attention_macs_projected"] < s1["attention_macs_base"]
        assert s1["peak_floats_projected"] < s1["peak_floats_base"]
        assert s1["attention_macs_saved"] > prev_mac_gap
        assert s1["peak_floats_saved"] > prev_peak_gap
        prev_mac_gap = s1["attention_macs_saved"]
        prev_peak_gap = s1["peak_floats_saved"]
    ok(8, "projected path strictly cheaper at 64/128/256 with growing gaps")


def test_criterion_09_ablation_ordering(ablation):
    med = {v: ablation["summary"]["variants"][v]["median_miou"]
           for v in ("baseline", "fff", "fff+sfs", "fff+sfs+pm")}
    assert med["baseline"] <= med["fff"], med
    assert med["fff"] <= med["fff+sfs"] + 0.01, med
    assert ablation["elapsed"] < 3600.0
    ok(9, f"medians {med}; wall time {ablation['elapsed']:.0f}s < 3600s")


def test_criterion_10_trainability_floor(ablation):
    # the full default config is exactly the fff+sfs+pm variant
    mious = [r["final"]["miou"] for r in ablation["reports"]["fff+sfs+pm"]]
    median = float(np.median(mious))
    assert median >= 0.80, mious
    ok(10, f"median held-out mIoU {median:.4f} >= 0.80 (runs {['%.4f' % m for m in mious]})")


def test_criterion_11_determinism(tmp_path):
    cfg = ModelConfig.tiny(seed=3)
    r1 = train(cfg, 25, tmp_path / "a", eval_every=25, eval_scenes=2)
    r2 = train(cfg, 25, tmp_path / "b", eval_every=25, eval_scenes=2)
    ck1 = (tmp_path / "a" / "checkpoint.bin").read_bytes()
    ck2 = (tmp_path / "b" / "checkpoint.bin").read_bytes()
    assert ck1 == ck2
    j1 = json.loads((tmp_path / "a" / "report.json").read_text())
    j2 = json.loads((tmp_path / "b" / "report.json").read_text())
    j1.pop("timestamp")
    j2.pop("timestamp")
    assert json.dumps(j1, sort_keys=True) == json.dumps(j2, sort_keys=True)
    ok(11, "checkpoints byte-identical; reports identical modulo timestamp")


def test_criterion_12_ratio_drift(ablation):
    rho = 0.6
    for variant in ("fff+sfs", "fff+sfs+pm"):
        start = np.array([r["evals"][0]["mean_scores"] for r in ablation["reports"][variant]])
        end = np.array([r["evals"][-1]["mean_scores"] for r in ablation["reports"][variant]])
        med_start = np.median(np.abs(start - rho), axis=0)
        med_end = np.median(np.abs(end - rho), axis=0)
        assert np.all(med_end < med_start), (variant, med_start, med_end)
    ok(12, "per-scale |mean score - 0.6| shrinks over training (median of 3 seeds)")


def test_trainability_smoke_loss_decreases(ablation):
    # supporting invariant: the composite loss falls over the first 200 steps
    # (median across the default seed set)
    drops = []
    for report in ablation["reports"]["fff+sfs+pm"]:
        totals = [entry["total"] for entry in report["steps"][:200]]
        drops.append(np.mean(totals[-20:]) - np.mean(totals[:20]))
    assert float(np.median(drops)) < 0.0
    print("SUPPORTING PASS - loss decreases over the first 200 steps (median of 3 seeds)")
