import numpy as np
import pytest

from scalefuse.metrics import MIoUAccumulator
from scalefuse.scenes import SyntheticSceneSpec, generate_scene, _PALETTE
from scalefuse.tensor import ConfigurationError


class TestScenes:
    def test_deterministic_per_seed(self):
        spec = SyntheticSceneSpec(seed=7)
        img1, lab1 = generate_scene(spec)
        img2, lab2 = generate_scene(SyntheticSceneSpec(seed=7))
        assert np.array_equal(img1.data, img2.data)
        assert np.array_equal(lab1, lab2)
        img3, _ = generate_scene(SyntheticSceneSpec(seed=8))
        assert not np.array_equal(img1.data, img3.data)

    def test_noise_free_colors_match_labels(self):
        spec = SyntheticSceneSpec(noise=0.0, seed=3)
        img, labels = generate_scene(spec)
        # with zero noise every pixel carries its class color exactly
        expect = _PALETTE[labels].transpose(2, 0, 1)
        assert np.array_equal(img.data, expect)

    def test_labels_in_range_and_nonempty(self):
        for seed in range(10):
            _, labels = generate_scene(SyntheticSceneSpec(seed=seed))
            assert labels.min() >= 0 and labels.max() < 4
            assert (labels > 0).any()

    def test_every_class_appears_in_most_scenes(self):
        spec = SyntheticSceneSpec()
        hits = np.zeros(4)
        n = 1000
        for seed in range(n):
            _, labels = generate_scene(SyntheticSceneSpec(seed=seed))
            present = np.unique(labels)
            hits[present] += 1
        assert np.all(hits / n > 0.95)

    def test_shapes_validate(self):
        with pytest.raises(ConfigurationError):
            SyntheticSceneSpec(num_classes=1).validate()
        with pytest.raises(ConfigurationError):
            SyntheticSceneSpec(noise=-0.1).validate()
        with pytest.raises(ConfigurationError):
            SyntheticSceneSpec(seed=-1).validate()

    def test_image_shape_and_range(self):
        img, labels = generate_scene(SyntheticSceneSpec(height=32, width=64, seed=1))
        assert img.shape == (3, 32, 64) and labels.shape == (32, 64)
        assert img.data.min() >= 0.0 and img.data.max() <= 1.0

    def test_custom_radius_bands(self):
        big = SyntheticSceneSpec(radius_bands=((20, 24), (20, 24), (20, 24)),
                                 noise=0.0, seed=2)
        _, labels = generate_scene(big)
        small = SyntheticSceneSpec(radius_bands=((2, 3), (2, 3), (2, 3)),
                                   noise=0.0, seed=2)
        _, labels_small = generate_scene(small)
        assert (labels > 0).sum() > (labels_small > 0).sum()


class TestMIoU:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=(16, 16))
        acc = MIoUAccumulator(4)
        acc.update(labels, labels)
        per_class, miou = acc.result()
        assert miou == 1.0 and all(v == 1.0 for v in per_class.values())

    def test_hand_counted_case(self):
        labels = np.zeros((2, 4), dtype=int)
        labels[:, 2:] = 1
        pred = np.zeros_like(labels)
        acc = MIoUAccumulator(4)
        acc.update(pred, labels)
        per_class, miou = acc.result()
        assert per_class[0] == 0.5 and per_class[1] == 0.0
        assert miou == 0.25  # classes 2,3 absent from both sides -> excluded

    def test_ignore_index_excluded(self):
        labels = np.array([[0, 255], [1, 255]])
        pred = np.array([[0, 1], [0, 1]])
        acc = MIoUAccumulator(2)
        acc.update(pred, labels)
        assert acc.matrix.sum() == 2

    def test_against_set_arithmetic_oracle(self):
        rng = np.random.default_rng(5)
        K = 5
        labels = rng.integers(0, K, size=(20, 20))
        pred = rng.integers(0, K, size=(20, 20))
        acc = MIoUAccumulator(K)
        acc.update(pred, labels)
        per_class, miou = acc.result()
        ious = []
        for k in range(K):
            inter = int(((labels == k) & (pred == k)).sum())
            union = int(((labels == k) | (pred == k)).sum())
            if union:
                assert abs(per_class[k] - inter / union) < 1e-15
                ious.append(inter / union)
        assert abs(miou - np.mean(ious)) < 1e-15

    def test_accumulates_across_updates(self):
        acc = MIoUAccumulator(2)
        acc.update(np.array([[0]]), np.array([[0]]))
        acc.update(np.array([[1]]), np.array([[0]]))
        per_class, _ = acc.result()
        assert per_class[0] == 0.5
