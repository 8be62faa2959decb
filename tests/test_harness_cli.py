import csv
import hashlib
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from scalefuse.checkpoint import save_checkpoint
from scalefuse.cli import main
from scalefuse.gradcheck import GradCheckReport, check_gradients
from scalefuse.model import ModelConfig, SegmentationModel
from scalefuse.profiler import PROFILE_DEFAULTS, profile
from scalefuse.pyramid import sequence_length
from scalefuse.selection import export_selection_maps
from scalefuse.tensor import Tensor, no_grad
from scalefuse.train import NumericError, ablate, evaluate, load_model, train, write_report
import scalefuse.checkpoint as checkpoint_mod
import scalefuse.train as train_mod

TINY = dict(image_h=32, image_w=32, num_classes=3, base_channels=4,
            common_dim=16, heads=4, seed=0)


def write_config(tmp_path, **overrides) -> Path:
    cfg = dict(TINY)
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def params_digest(model) -> str:
    h = hashlib.sha256()
    for name, p in model.parameters():
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


class TestTrainLoop:
    def test_zero_steps_initial_eval_only(self, tmp_path):
        cfg = ModelConfig.tiny()
        report = train(cfg, 0, tmp_path, eval_scenes=2)
        assert report["steps"] == []
        assert len(report["evals"]) == 1 and report["evals"][0]["step"] == 0
        assert (tmp_path / "checkpoint.bin").exists()
        assert (tmp_path / "report.json").exists()

    def test_eval_does_not_mutate_parameters(self):
        model = SegmentationModel(ModelConfig.tiny())
        before = params_digest(model)
        evaluate(model, model.config, 3, step=0)
        assert params_digest(model) == before

    def test_keep_ratio_drifts_toward_target(self, tmp_path):
        # alpha = 0.4 pulls both the mean score and the realized training
        # keep ratio toward rho between the start and the end of the run
        cfg = ModelConfig.tiny(seed=1)
        report = train(cfg, 150, tmp_path, eval_every=150, eval_scenes=3,
                       export_maps=False)
        rho = cfg.target_ratio
        start = np.abs(np.array(report["evals"][0]["mean_scores"]) - rho)
        end = np.abs(np.array(report["evals"][-1]["mean_scores"]) - rho)
        assert end.mean() < start.mean()

        early = np.mean([s["keep_ratios"] for s in report["steps"][:10]], axis=0)
        late = np.mean([s["keep_ratios"] for s in report["steps"][-10:]], axis=0)
        assert np.abs(late - rho).mean() < np.abs(early - rho).mean()

    def test_numeric_abort_carries_step_and_breakdown(self, tmp_path, monkeypatch):
        real = train_mod.total_loss

        def poisoned(result, labels, config):
            loss, breakdown = real(result, labels, config)
            breakdown = dict(breakdown, total=float("nan"))
            return loss, breakdown

        monkeypatch.setattr(train_mod, "total_loss", poisoned)
        with pytest.raises(NumericError) as e:
            train(ModelConfig.tiny(), 3, tmp_path, eval_scenes=1, export_maps=False)
        assert e.value.step == 0 and "seg" in e.value.breakdown

    def test_non_finite_gradient_names_parameter(self, tmp_path, monkeypatch, capsys):
        built = []

        class Recorded(SegmentationModel):
            def __init__(self, config):
                super().__init__(config)
                built.append(self)

        real_backward = Tensor.backward

        def poisoned(loss):  # a finite loss whose backward yields a NaN
            real_backward(loss)
            list(built[-1].parameters())[-1][1].grad.flat[0] = np.nan

        monkeypatch.setattr(train_mod, "SegmentationModel", Recorded)
        monkeypatch.setattr(Tensor, "backward", poisoned)
        with pytest.raises(NumericError) as e:
            train(ModelConfig.tiny(), 3, tmp_path / "api", eval_scenes=1, export_maps=False)
        name = list(built[0].parameters())[-1][0]
        assert e.value.step == 0 and f"non-finite gradient of {name} at step 0" in str(e.value)
        cfg = write_config(tmp_path)
        code = main(["train", "--config", str(cfg), "--steps", "2", "--out", str(tmp_path / "cli"),
                     "--eval-scenes", "1"])
        assert code == 2 and f"gradient of {name}" in capsys.readouterr().err

    def test_selection_maps_match_a_fresh_inference_forward(self, tmp_path):
        # train() exports the maps from its fusion-accounting forward; they
        # must be the files a fresh forward of the saved model writes
        cfg = ModelConfig.tiny()
        train(cfg, 2, tmp_path / "run", eval_scenes=1)
        model = load_model(tmp_path / "run" / "checkpoint.bin")
        image, _ = train_mod.eval_scene(cfg, 0)
        with no_grad():
            out = model.forward(image, mode="infer")
        export_selection_maps(tmp_path / "ref", out.sequence, out.scores, out.decisions)
        got = sorted(p.name for p in (tmp_path / "run" / "selection").iterdir())
        assert got and got == sorted(p.name for p in (tmp_path / "ref").iterdir())
        for name in got:
            assert (tmp_path / "run" / "selection" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    def test_training_mode_keep_ratios_logged(self, tmp_path):
        report = train(ModelConfig.tiny(), 2, tmp_path, eval_scenes=1, export_maps=False)
        assert all(len(entry["keep_ratios"]) == 4 for entry in report["steps"])


class TestAtomicWrites:
    @pytest.mark.parametrize("write", [
        lambda path: save_checkpoint(path, {"a": 1}, {"w": np.ones((4, 4))}),
        lambda path: write_report(path, {"a": list(range(100))}),
    ], ids=["checkpoint", "report"])
    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch, write):
        path = tmp_path / "out"
        path.write_bytes(b"earlier")
        real_open = open

        class HalfWriter:  # writes half of the bytes, then fails like a full disk
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(checkpoint_mod, "open", lambda p, mode: HalfWriter(real_open(p, mode)),
                            raising=False)
        with pytest.raises(OSError):
            write(path)
        assert path.read_bytes() == b"earlier"
        assert list(tmp_path.iterdir()) == [path]
        monkeypatch.undo()
        write(path)
        assert path.read_bytes() != b"earlier" and list(tmp_path.iterdir()) == [path]


class TestProfiler:
    def test_reduction_one_equalizes_attention_macs(self):
        base = ModelConfig(base_channels=4, common_dim=16, heads=2, reduction_ratio=1)
        result = profile([32], base)
        s1 = result["results"]["32"]["scale1"]
        assert s1["attention_macs_base"] == s1["attention_macs_projected"]

    def test_counts_monotone_in_size(self):
        result = profile([32, 64])
        small = result["results"]["32"]["scale1"]
        big = result["results"]["64"]["scale1"]
        for key in ("attention_macs_base", "attention_macs_projected",
                    "peak_floats_base", "peak_floats_projected"):
            assert big[key] > small[key]

    def test_projected_strictly_cheaper(self):
        result = profile([64])
        s1 = result["results"]["64"]["scale1"]
        assert s1["attention_macs_projected"] < s1["attention_macs_base"]
        assert s1["peak_floats_projected"] < s1["peak_floats_base"]

    @pytest.mark.parametrize("size", [64, 128])
    def test_scale1_peak_covers_score_array(self, size):
        cfg = ModelConfig(**PROFILE_DEFAULTS)
        s1 = profile([size])["results"][str(size)]["scale1"]
        n, length = (size // 4) ** 2, sequence_length(size, size)
        assert s1["peak_floats_base"] >= cfg.heads * n * length
        assert s1["peak_floats_projected"] >= cfg.heads * (n // cfg.reduction_ratio) * length

    @pytest.mark.parametrize("tracing", [False, True])
    def test_profile_leaves_tracing_as_found(self, tracing):
        if tracing:
            tracemalloc.start()
        try:
            profile([32])
            assert tracemalloc.is_tracing() == tracing
        finally:
            tracemalloc.stop()

    def test_train_report_has_no_peak(self, tmp_path):
        train(ModelConfig.tiny(), 0, tmp_path, eval_scenes=1, export_maps=False)
        report = json.loads((tmp_path / "report.json").read_text())
        stats = report["fusion"]["per_scale"]
        assert len(stats) == 4
        assert all(s["peak_activation_floats"] is None for s in stats)


class TestAblate:
    def test_variant_map_and_summary(self, tmp_path):
        base = ModelConfig.tiny()
        summary = ablate(base, ["baseline", "fff"], seeds=1, steps=2,
                         out_dir=tmp_path, eval_every=5, eval_scenes=1)
        assert set(summary["variants"]) == {"baseline", "fff"}
        assert (tmp_path / "ablation_summary.json").exists()
        assert (tmp_path / "baseline" / "seed0" / "report.json").exists()

    def test_unknown_variant_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ablate(ModelConfig.tiny(), ["bogus"], 1, 1, tmp_path)

    @pytest.mark.parametrize("variants", [[], ["fff", "baseline", "fff"]], ids=["empty", "repeated"])
    def test_empty_or_repeated_variants_rejected_before_training(self, tmp_path, variants):
        out = tmp_path / "ablation"
        with pytest.raises(ValueError, match="no ablation variants|repeated"):
            ablate(ModelConfig.tiny(), variants, 1, 1, out)
        assert not out.exists()


class TestGradCheck:
    @pytest.mark.parametrize("where", ["analytic", "finite-difference"])
    def test_non_finite_error_fails_its_group(self, where):
        # negative control: max(0.0, nan) is 0.0, so a NaN must not fold away
        a, b = np.array([0.5, -1.0, 2.0]), np.array([1.5, 0.25])
        grads = {"a": 2 * a, "b": 3 * b * b}
        if where == "analytic":
            grads["a"][1] = np.nan

        def f():
            fa = np.nan if where == "finite-difference" and a[1] != -1.0 else np.sum(a * a)
            return float(fa + np.sum(b ** 3))

        report = GradCheckReport(1e-3, check_gradients(f, {"a": a, "b": b}, grads))
        assert report.failures == {"a": np.inf} and not report.passed
        assert report.per_group["b"] < 1e-6


class TestCLI:
    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"imge_h": 32}))
        rc = main(["train", "--config", str(path), "--steps", "1", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "imge_h" in capsys.readouterr().err

    def test_invalid_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        rc = main(["train", "--config", str(path), "--steps", "1", "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_missing_config_file_exits_three(self, tmp_path):
        rc = main(["train", "--config", str(tmp_path / "absent.json"),
                   "--steps", "1", "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_bad_subcommand_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_gradcheck_failure_exits_two(self, capsys):
        rc = main(["gradcheck", "--profile", "tiny", "--tol", "1e-12", "--samples", "2"])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out

    def test_train_eval_export_pipeline(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--steps", "3",
                     "--out", str(out), "--eval-scenes", "2"]) == 0
        assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                     "--scenes", "2", "--out", str(tmp_path / "ev")]) == 0
        assert (tmp_path / "ev" / "eval_report.json").exists()

        sel = tmp_path / "sel"
        assert main(["export-selection", "--checkpoint", str(out / "checkpoint.bin"),
                     "--scene-seed", "9", "--out", str(sel)]) == 0
        # inference exports carry exactly ceil(rho * L) selected flags per scale
        cfg_obj = ModelConfig.from_dict(json.loads(cfg.read_text()))
        L = sequence_length(cfg_obj.image_h, cfg_obj.image_w)
        expect = int(np.ceil(cfg_obj.target_ratio * L))
        for q in range(1, 5):
            with open(sel / f"selection_q{q}.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert sum(int(r["selected"]) for r in rows) == expect

    @pytest.mark.parametrize("config,flags", [
        (3, []),
        ({"use_projection_on": 3}, []),
        ({"use_projection_on": [1, 1]}, []),
        ({"heads": True}, []),
        ({"image_h": 64.0}, []),
        ({"seed": -1}, []),
        ({"gumbel_temperature": float("nan")}, []),
        ({}, ["--steps", "-3"]),
        ({}, ["--eval-every", "0"]),
        ({}, ["--eval-scenes", "0"]),
        (None, ["eval", "--checkpoint", "c.bin", "--scenes", "0", "--out", "o"]),
        (None, ["ablate", "--seeds", "0", "--out", "o"]),
        (None, ["ablate", "--steps", "-1", "--out", "o"]),
        (None, ["profile", "--sizes", "abc", "--out", "o"]),
        (None, ["gradcheck", "--samples", "0"]),
        (None, ["export-selection", "--checkpoint", "c.bin", "--scene-seed", "-1", "--out", "o"]),
        (json.dumps(TINY).encode("utf-16"), []),  # a valid config, but not UTF-8
        (None, ["gradcheck", "--tol", "nan"]),
        (None, ["gradcheck", "--tol", "inf"]),
        (None, ["gradcheck", "--tol", "-1"]),
        (None, ["ablate", "--variants", "fff,fff", "--seeds", "1", "--steps", "0", "--eval-scenes", "1",
                "--out", "o"]),
        (None, ["ablate", "--variants", ",", "--seeds", "1", "--steps", "0", "--out", "o"]),
    ], ids=["number-config", "projection-not-list", "repeated-projection-scale",
            "bool-heads", "float-size", "negative-seed",
            "nan-temperature", "negative-steps", "zero-eval-every", "zero-eval-scenes",
            "zero-scenes", "zero-seeds", "negative-ablate-steps", "non-integer-sizes", "zero-samples",
            "negative-scene-seed", "utf16-config", "nan-tol", "inf-tol", "negative-tol",
            "repeated-variant", "empty-variants"])
    def test_bad_config_or_count_exits_one(self, tmp_path, capsys, config, flags):
        if config is None:
            argv = flags
        else:
            path = tmp_path / "config.json"
            if isinstance(config, bytes):
                path.write_bytes(config)
            else:
                path.write_text(json.dumps(config if not isinstance(config, dict) else {**TINY, **config}))
            argv = ["train", "--config", str(path), "--steps", "1", "--out", str(tmp_path / "o"),
                    "--eval-scenes", "1", *flags]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    def test_profile_cli_writes_json(self, tmp_path):
        out = tmp_path / "prof.json"
        assert main(["profile", "--sizes", "32", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert "32" in data["results"]
        stats = data["results"]["32"]["base"]
        assert {s["scale"] for s in stats} == {1, 2, 3, 4}
        for s in stats:
            assert {"scale", "path", "attention_macs", "projection_macs",
                    "peak_activation_floats"} <= set(s)

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, seed=0)
        o1, o2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg), "--steps", "1", "--out", str(o1),
                     "--seed", "7", "--eval-scenes", "1"]) == 0
        report = json.loads((o1 / "report.json").read_text())
        assert report["config"]["seed"] == 7

    def test_malformed_checkpoint_exits_three(self, tmp_path, capsys):
        path = tmp_path / "c.bin"
        save_checkpoint(path, ModelConfig.tiny().to_dict(), {"w": np.zeros(3)})
        raw = path.read_bytes()
        for blob in (raw[:-5], raw + b"\x00\x01\x02", b"XXXX" + raw[4:]):
            path.write_bytes(blob)
            rc = main(["eval", "--checkpoint", str(path), "--scenes", "1", "--out", str(tmp_path / "ev")])
            assert rc == 3
            assert "checkpoint error" in capsys.readouterr().err
        proc = subprocess.run([sys.executable, "-m", "scalefuse.cli", "eval", "--checkpoint", str(path),
                               "--scenes", "1", "--out", str(tmp_path / "ev")],
                              capture_output=True, text=True)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr and "checkpoint error" in proc.stderr

    @pytest.mark.parametrize("defect", ["flipped-name", "reshaped", "repeated-name", "invalid-config",
                                        "flipped-rank"])
    def test_checkpoint_disagreeing_with_its_model_exits_three(self, tmp_path, capsys, defect):
        cfg = ModelConfig.tiny()
        params = {name: p.data for name, p in SegmentationModel(cfg).parameters()}
        if defect == "reshaped":
            params["aux_head.classifier.bias"] = params["aux_head.classifier.bias"].reshape(1, -1)
        path = tmp_path / "c.bin"
        save_checkpoint(path, dict(cfg.to_dict(), heads=5) if defect == "invalid-config" else cfg.to_dict(),
                        params)
        raw = bytearray(path.read_bytes())
        if defect == "flipped-name":
            raw[raw.index(b"aux_head.classifier.bias")] ^= 1  # one flipped bit in the name
        elif defect == "repeated-name":
            raw = raw.replace(b"lateral.2.bias", b"lateral.1.bias")
        elif defect == "flipped-rank":  # rank 1 -> 9: the dims that follow include zeros
            raw[raw.index(b"aux_head.classifier.bias") + len(b"aux_head.classifier.bias")] ^= 8
        path.write_bytes(raw)
        rc = main(["eval", "--checkpoint", str(path), "--scenes", "1", "--out", str(tmp_path / "ev")])
        err = capsys.readouterr().err
        assert rc == 3 and len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("checkpoint error") and str(path) in err

    def test_console_script_installed(self):
        proc = subprocess.run([sys.executable, "-m", "scalefuse.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gradcheck" in proc.stdout
