import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalefuse.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from scalefuse.gradcheck import central_diff
from scalefuse.model import (
    ModelConfig,
    SegmentationModel,
    ratio_loss,
    total_loss,
)
from scalefuse.scenes import SyntheticSceneSpec, generate_scene
from scalefuse.tensor import ConfigurationError, Tape, Tensor, no_grad
from scalefuse.train import ABLATION_VARIANTS, load_model


# a few keys per dict, each drawn three times in four from values of its own
# type (ints kept small so a valid config builds in milliseconds)
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 70), st.text(max_size=3),
                  st.floats(allow_nan=True, allow_infinity=True), st.lists(st.integers(-1, 5), max_size=3))
_TYPED = {"int": st.sampled_from([1, 2, 4, 8, 16, 32, 64]), "float": st.floats(0, 1),
          "bool": st.booleans(), "str": st.sampled_from(["concat", "sum"]),
          "Tuple[int, ...]": st.lists(st.integers(1, 4), max_size=2)}
_VALUES = {f.name: st.one_of(_TYPED[f.type], _TYPED[f.type], _TYPED[f.type], _JUNK)
           for f in fields(ModelConfig)}
CONFIG_DICTS = st.lists(st.sampled_from(sorted(_VALUES)), max_size=4, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({k: _VALUES[k] for k in keys}))


def tiny_model(**overrides):
    cfg = ModelConfig.tiny(**overrides)
    return SegmentationModel(cfg), cfg


def tiny_scene(cfg, seed=0):
    spec = SyntheticSceneSpec(height=cfg.image_h, width=cfg.image_w,
                              num_classes=cfg.num_classes, seed=seed)
    return generate_scene(spec)


class TestForward:
    @pytest.mark.parametrize("overrides", [
        {},
        {"merge": "sum"},
        {"use_sfs": False},
        {"use_fff": False, "use_sfs": False},
        {"eq5_literal": True},
        {"use_projection_on": (1, 2)},
        {"residual": False},
    ])
    def test_logit_shapes(self, overrides):
        model, cfg = tiny_model(**overrides)
        image, _ = tiny_scene(cfg)
        out = model.forward(image, mode="train", rng=np.random.default_rng(0))
        assert out.logits.shape == (cfg.num_classes, cfg.image_h, cfg.image_w)
        assert out.aux_logits.shape == (cfg.num_classes, cfg.image_h, cfg.image_w)

    def test_infer_mode_shapes_and_keep_ratio(self):
        model, cfg = tiny_model()
        image, _ = tiny_scene(cfg)
        with no_grad():
            out = model.forward(image, mode="infer")
        assert out.logits.shape == (cfg.num_classes, cfg.image_h, cfg.image_w)
        L = out.sequence.length
        expect = np.ceil(cfg.target_ratio * L) / L
        assert all(abs(r - expect) < 1e-12 for r in out.keep_ratios())

    def test_same_seed_bit_identical(self):
        outs = []
        for _ in range(2):
            model, cfg = tiny_model()
            image, _ = tiny_scene(cfg)
            out = model.forward(image, mode="train", rng=np.random.default_rng(33))
            outs.append(out)
        assert np.array_equal(outs[0].logits.data, outs[1].logits.data)
        assert np.array_equal(outs[0].decisions.Q.data, outs[1].decisions.Q.data)

    def test_saturated_train_equals_rho_one_infer(self):
        model, cfg = tiny_model()
        model.scorer.w2.data[...] = 0.0
        model.scorer.b2.data[...] = 0.0
        model.scorer.b2.data[0::2] = 1000.0  # keep logits saturate P -> 1
        image, _ = tiny_scene(cfg)
        train_out = model.forward(image, mode="train", rng=np.random.default_rng(0))
        assert np.all(train_out.decisions.Q.data == 1.0)

        rho_one = SegmentationModel(cfg.replace(target_ratio=1.0))
        rho_one.load_state({k: v.data for k, v in model.parameters()})
        with no_grad():
            infer_out = rho_one.forward(image, mode="infer")
        assert np.max(np.abs(train_out.logits.data - infer_out.logits.data)) < 1e-8

    def test_config_image_mismatch(self):
        model, cfg = tiny_model()
        with pytest.raises(ConfigurationError):
            model.forward(Tensor(np.zeros((3, 64, 64))), mode="train",
                          rng=np.random.default_rng(0))

    def test_param_count_pure_function_of_config(self):
        m1, _ = tiny_model()
        m2, _ = tiny_model()
        assert m1.param_count() == m2.param_count()
        m3, _ = tiny_model(use_fff=False, use_sfs=False)
        assert m3.param_count() != m1.param_count()


class TestRatioLoss:
    def test_exact_target_zero(self):
        P = Tensor(np.full((50, 4), 0.6))
        # column means differ from 0.6 by at most one ulp, squared away
        assert ratio_loss(P, 0.6).item() < 1e-30

    def test_saturated_value(self):
        P = Tensor(np.ones((50, 4)))
        assert abs(ratio_loss(P, 0.6).item() - 0.16) < 1e-15

    def test_gradient_closed_form_and_fd(self):
        rng = np.random.default_rng(0)
        L, S, rho = 30, 4, 0.6
        P = Tensor(rng.uniform(0.1, 0.9, size=(L, S)), requires_grad=True)
        loss = ratio_loss(P, rho)
        loss.backward()
        means = P.data.mean(axis=0)
        expect = np.tile(-2.0 * (rho - means) / (S * L), (L, 1))
        assert np.max(np.abs(P.grad - expect)) < 1e-12

        def f():
            return ratio_loss(P, rho).item()

        for idx in [0, 17, 63, 119]:
            fd = central_diff(f, P.data, idx, 1e-5)
            assert abs(fd - P.grad.reshape(-1)[idx]) < 1e-6


class TestTotalLoss:
    def test_alpha_beta_zero_equals_seg(self):
        model, cfg = tiny_model(ratio_weight=0.0, aux_weight=0.0)
        image, labels = tiny_scene(cfg)
        out = model.forward(image, mode="train", rng=np.random.default_rng(1))
        total, breakdown = total_loss(out, labels, cfg)
        assert abs(total.item() - breakdown["seg"]) < 1e-15

    def test_breakdown_recombines(self):
        model, cfg = tiny_model()
        image, labels = tiny_scene(cfg)
        out = model.forward(image, mode="train", rng=np.random.default_rng(2))
        total, b = total_loss(out, labels, cfg)
        recombined = b["seg"] + cfg.ratio_weight * b["ratio"] + cfg.aux_weight * b["aux"]
        assert abs(total.item() - recombined) < 1e-12

    def test_perfect_predictions_and_target_scores(self):
        model, cfg = tiny_model()
        image, labels = tiny_scene(cfg)
        out = model.forward(image, mode="train", rng=np.random.default_rng(3))
        K = cfg.num_classes
        onehot = np.zeros((K, cfg.image_h, cfg.image_w))
        for k in range(K):
            onehot[k][labels == k] = 1000.0
        out.logits = Tensor(onehot)
        out.aux_logits = Tensor(onehot)
        out.scores.P = Tensor(np.full(out.scores.P.shape, cfg.target_ratio))
        total, _ = total_loss(out, labels, cfg)
        assert total.item() < 1e-9


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model, cfg = tiny_model()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, cfg.to_dict(), {k: v.data for k, v in model.parameters()})
        loaded_cfg, arrays = load_checkpoint(path)
        assert ModelConfig.from_dict(loaded_cfg) == cfg
        fresh = SegmentationModel(ModelConfig.from_dict(loaded_cfg))
        fresh.load_state(arrays)
        for (n1, p1), (n2, p2) in zip(model.parameters(), fresh.parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)

    def test_byte_determinism(self, tmp_path):
        model, cfg = tiny_model()
        params = {k: v.data for k, v in model.parameters()}
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(p1, cfg.to_dict(), params)
        save_checkpoint(p2, cfg.to_dict(), params)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        model, cfg = tiny_model()
        path = tmp_path / "c.bin"
        save_checkpoint(path, cfg.to_dict(), {"w": np.zeros((2, 3))})
        raw = path.read_bytes()
        assert raw[:4] == b"FSFM"
        assert int.from_bytes(raw[4:8], "little") == 2

    def test_every_truncation_and_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "tiny.bin"
        save_checkpoint(path, {"seed": 0}, {"a.w": np.arange(6.0).reshape(2, 3), "b": np.array(1.5)})
        raw = path.read_bytes()
        bad = tmp_path / "bad.bin"
        for cut in range(len(raw)):
            bad.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError):
                load_checkpoint(bad)
        bad.write_bytes(raw + b"\x00\x01\x02")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(bad)
        bad.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(bad)

    def test_state_mismatch_rejected(self):
        model, cfg = tiny_model()
        with pytest.raises(ConfigurationError):
            model.load_state({"bogus": np.zeros(3)})

    def test_repeated_name_rejected(self, tmp_path):
        path = tmp_path / "dup.bin"
        save_checkpoint(path, {"seed": 0}, {"a.1": np.zeros(2), "a.2": np.ones(2)})
        path.write_bytes(path.read_bytes().replace(b"a.2", b"a.1"))
        with pytest.raises(CheckpointError, match="'a.1' appears twice"):
            load_checkpoint(path)


class TestCheckpointBitFlips:
    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        """A tiny model's checkpoint: path, bytes, arrays, the offsets of the
        parameter values' bytes and the offsets of every other byte."""
        model, cfg = tiny_model()
        arrays = {name: p.data.copy() for name, p in model.parameters()}
        path = tmp_path_factory.mktemp("flips") / "tiny.bin"
        save_checkpoint(path, cfg.to_dict(), arrays)
        raw = path.read_bytes()
        values = set()
        for name, a in arrays.items():
            record = struct.pack("<Q", len(name)) + name.encode()
            start = raw.index(record) + len(record) + 8 + 8 * a.ndim
            values.update(range(start, start + 8 * a.size))
        structure = [i for i in range(len(raw)) if i not in values]
        return path, raw, arrays, values, structure

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_single_bit_flip_loads_the_same_arrays_or_raises(self, valid, data):
        # a flip in a value changes that one value; anywhere else it is caught
        # as a CheckpointError or changes nothing the model loads
        path, raw, arrays, values, structure = valid
        byte = data.draw(st.one_of(st.sampled_from(structure), st.integers(0, len(raw) - 1)))
        flipped = bytearray(raw)
        flipped[byte] ^= 1 << data.draw(st.integers(0, 7))
        bad = path.with_name("flipped.bin")
        bad.write_bytes(flipped)
        try:
            model = load_model(bad)
        except CheckpointError:
            return
        changed = sum(int(np.count_nonzero(p.data.view(np.int64) != arrays[name].view(np.int64)))
                      for name, p in model.parameters())
        assert changed == (byte in values)


class TestTrainingGraph:
    @pytest.mark.parametrize("overrides", [
        *ABLATION_VARIANTS.values(), {"eq5_literal": True}, {"merge": "sum"},
    ], ids=[*ABLATION_VARIANTS, "eq5_literal", "merge-sum"])
    def test_every_parameter_gets_a_gradient(self, overrides):
        # AdamW zero-fills gradients, so a parameter left off the graph would
        # still decay; this pins that no variant leaves one off
        model, cfg = tiny_model(**overrides)
        image, labels = tiny_scene(cfg)
        out = model.forward(image, mode="train", rng=np.random.default_rng(0))
        total_loss(out, labels, cfg)[0].backward()
        assert [name for name, p in model.parameters() if p.grad is None] == []

    def test_default_step_census(self):
        cfg = ModelConfig().replace(**ABLATION_VARIANTS["fff+sfs"])
        model = SegmentationModel(cfg)
        image, labels = tiny_scene(cfg)
        out = model.forward(image, mode="train", rng=np.random.default_rng(0))
        ops = Tape.from_root(total_loss(out, labels, cfg)[0]).ops
        # leaves included; 224 before biases were fused, 182 before the head's
        # upsampling and channel concat moved into conv3x3_upsampled
        assert len(ops) <= 178
        params = {id(p) for _, p in model.parameters()}
        assert not [n for n in ops if n.op == "add" and any(id(p) in params for p in n._parents)]


class TestConfig:
    def test_unknown_keys_hard_error(self):
        with pytest.raises(ConfigurationError) as e:
            ModelConfig.from_dict({"imge_h": 64})
        assert "imge_h" in str(e.value)

    def test_invalid_values(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(image_h=48).validate()
        with pytest.raises(ConfigurationError):
            ModelConfig(common_dim=30, heads=8).validate()
        with pytest.raises(ConfigurationError):
            ModelConfig(target_ratio=0.0).validate()
        with pytest.raises(ConfigurationError):
            ModelConfig(merge="mean").validate()
        with pytest.raises(ConfigurationError):
            ModelConfig(use_fff=False, use_sfs=True).validate()
        with pytest.raises(ConfigurationError, match="repeats"):
            ModelConfig(use_projection_on=(1, 3, 1)).validate()

    @pytest.mark.parametrize("field,value", [
        ("image_h", 0), ("image_w", 0), ("image_h", -32), ("image_w", -64),
        ("heads", 0), ("heads", -2), ("base_channels", 0), ("base_channels", -4),
        ("common_dim", 0), ("common_dim", -32), ("aux_weight", -1.0), ("ratio_weight", -1.0),
    ])
    def test_nonpositive_sizes_and_negative_weights_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            ModelConfig(**{field: value}).validate()

    @settings(max_examples=200, deadline=None)
    @given(CONFIG_DICTS)
    def test_random_dicts_raise_or_build(self, data):
        try:
            cfg = ModelConfig.from_dict(data)
        except ConfigurationError:
            return
        try:
            SegmentationModel(cfg)
        except ConfigurationError:
            pass

    def test_roundtrip_dict(self):
        cfg = ModelConfig(common_dim=16, heads=4, use_projection_on=(1, 3))
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg
