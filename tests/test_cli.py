import csv
import json
import re
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from disagg import cli, sliding
from disagg.cli import _write_estimate_csv, main
from disagg.config import load_config, parse_config
from disagg.errors import ConfigError
from disagg.nn import Network, load_checkpoint, save_checkpoint
from disagg.synthworld import DESK_APPLIANCES, write_world
from disagg.timeseries import CSV_WRITE_CHUNK, PowerSeries
from disagg.util import canonical_json, sha256_text


def world_config(tmp_path, length=700, seed=11, window=24, budget=4, batch=8,
                 stride=6) -> Path:
    data_dir = tmp_path / "data"
    write_world(data_dir, houses=(1, 2), length=length, seed=seed)
    config = {
        "version": 1,
        "seed": seed,
        "profile": "paper",
        "paths": {"data_dir": "data", "out_dir": "out"},
        "sample_period": 6,
        "std_sample_count": 40,
        "appliances": [
            {"name": "kettle", "max_power": 2400, "on_power_threshold": 1000,
             "min_on_duration": 12, "min_off_duration": 0, "window_width": window,
             "train_houses": [1], "test_houses": [2], "state_count": 2},
            {"name": "microwave", "max_power": 1500, "on_power_threshold": 600,
             "min_on_duration": 12, "min_off_duration": 0, "window_width": window,
             "train_houses": [1], "test_houses": [2], "state_count": 2},
            {"name": "fridge", "max_power": 500, "on_power_threshold": 150,
             "min_on_duration": 30, "min_off_duration": 12, "window_width": window,
             "train_houses": [1], "test_houses": [2], "state_count": 2},
        ],
        "architectures": {
            "dae": {"update_budget": budget, "batch_size": batch, "learning_rate": 0.01},
            "rectangles": {"update_budget": budget, "batch_size": batch,
                           "learning_rate": 0.001},
            "lstm": {"update_budget": 2, "batch_size": 4, "learning_rate": 0.01},
        },
        "disagg": {"stride": stride, "probability_threshold": 0.5},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestConfig:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = world_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["surprise"] = 1
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="surprise"):
            load_config(path)

    def test_unknown_appliance_key_rejected(self, tmp_path):
        path = world_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["appliances"][0]["colour"] = "red"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="colour"):
            load_config(path)

    def test_seed_mandatory(self, tmp_path):
        path = world_config(tmp_path)
        raw = json.loads(path.read_text())
        del raw["seed"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="seed"):
            load_config(path)

    def test_house_in_both_partitions_rejected(self, tmp_path):
        path = world_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["appliances"][0]["test_houses"] = [1]
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="both train and test"):
            load_config(path)

    def test_missing_data_dir_rejected(self, tmp_path):
        path = world_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["paths"]["data_dir"] = "nowhere"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(path)

    @pytest.mark.parametrize("section, key, value", [
        ("top", "seed", "abc"), ("top", "seed", -1), ("top", "sample_period", 0),
        ("top", "max_forward_fill", "long"), ("top", "max_forward_fill", float("inf")),
        ("top", "std_sample_count", 2.5), ("top", "disagg", 5),
        ("appliance", "window_width", "wide"), ("appliance", "max_power", -5),
        ("appliance", "on_power_threshold", 5000), ("appliance", "state_count", True),
        ("appliance", "train_houses", 5), ("appliance", "test_houses", ["2"]),
        ("appliance", "train_houses", [1, 1]), ("appliance", "test_houses", [2, 3, 2]),
        ("dae", "update_budget", "10"), ("dae", "batch_size", 0),
        ("dae", "learning_rate", None),
        ("disagg", "stride", "16"), ("disagg", "stride", 0),
        ("disagg", "probability_threshold", 1.5),
    ])
    def test_wrong_value_rejected_naming_its_key(self, tmp_path, section, key, value):
        (tmp_path / "data").mkdir()
        raw = {"version": 1, "seed": 1, "paths": {"data_dir": "data", "out_dir": "out"},
               "appliances": [{"name": "kettle", "train_houses": [1], "test_houses": [2]}],
               "architectures": {"dae": {}}, "disagg": {}}
        target = {"top": raw, "appliance": raw["appliances"][0],
                  "dae": raw["architectures"]["dae"], "disagg": raw["disagg"]}[section]
        target[key] = value
        with pytest.raises(ConfigError, match=key):
            parse_config(raw, base_dir=tmp_path)

    @pytest.mark.parametrize("key, value", [("window_width", "wide"), ("max_power", -5),
                                            ("train_houses", 5)])
    def test_wrong_value_exits_1(self, tmp_path, capsys, key, value):
        path = world_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["appliances"][0][key] = value
        path.write_text(json.dumps(raw))
        assert main(["extract", "--config", str(path)]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["train_houses", "test_houses"])
    def test_house_listed_twice_exits_1(self, tmp_path, capsys, key):
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        raw = json.loads(path.read_text())
        raw["appliances"][0][key] *= 2
        path.write_text(json.dumps(raw))
        capsys.readouterr()
        for argv in (["extract"], ["train", "--appliance", "kettle", "--kind", "dae"]):
            assert main([*argv, "--config", str(path)]) == 1
            assert f"{key} must list each house once" in capsys.readouterr().err

    def test_desk_profile_scales_budget_and_window(self, tmp_path):
        path = world_config(tmp_path)
        cfg = load_config(path, profile_override="desk")
        assert cfg.architectures["dae"].update_budget == 1  # ceil(4 / 100)
        assert cfg.appliance("kettle").window_width == 16  # floor to the minimum
        paper = load_config(path)
        assert paper.architectures["dae"].update_budget == 4
        assert paper.appliance("kettle").window_width == 24

    def test_paper_appliance_defaults(self, tmp_path):
        (tmp_path / "data").mkdir()
        raw = {
            "version": 1, "seed": 1,
            "paths": {"data_dir": "data", "out_dir": "out"},
            "appliances": [{"name": "kettle", "train_houses": [1, 2, 3, 4],
                            "test_houses": [5]},
                           {"name": "dish washer", "train_houses": [1]}],
        }
        cfg = parse_config(raw, base_dir=tmp_path)
        app = cfg.appliance("kettle")
        assert app.activation_params.max_power == 3100
        assert app.activation_params.on_power_threshold == 2000
        assert app.activation_params.min_on_duration == 12
        assert app.activation_params.min_off_duration == 0
        assert app.window_width == 128
        assert app.state_count == 2
        dish_washer = cfg.appliance("dish washer")
        assert dish_washer.activation_params.min_off_duration == 1800
        assert (dish_washer.window_width, dish_washer.state_count) == (1536, 3)
        assert cfg.architectures["dae"].update_budget == 100_000

    def test_stride_wider_than_desk_window_exits_1_before_training(self, tmp_path, capsys):
        # Stride 96 fits the paper width 128, not the desk width 32.
        path = world_config(tmp_path, window=128, stride=96)
        assert main(["extract", "--config", str(path)]) == 0
        capsys.readouterr()
        assert main(["train", "--config", str(path), "--profile", "desk",
                     "--appliance", "kettle", "--kind", "dae"]) == 1
        assert "disagg.stride 96 exceeds appliance 'kettle'" in capsys.readouterr().err
        assert not list((tmp_path / "out").rglob("*.ckpt"))

    def test_readme_config_example_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
        (tmp_path / "data").mkdir()
        cfg = parse_config(json.loads(block), base_dir=tmp_path)
        assert cfg.appliance("kettle").window_width == 16  # max(16, 32 // 4)
        assert cfg.architectures["dae"].update_budget == 1_000  # 100,000 / 100


class TestCliPipeline:
    def test_extract_prints_counts_in_config_order(self, tmp_path, capsys):
        path = world_config(tmp_path)
        assert main(["extract", "--config", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "house,kettle,microwave,fridge"
        assert len(out) == 3  # houses 1 and 2
        counts = [int(c) for c in out[1].split(",")[1:]]
        assert all(c > 0 for c in counts)

    def test_extract_empty_channel_zero_count(self, tmp_path, capsys):
        path = world_config(tmp_path)
        empty = tmp_path / "data" / "house_1" / "kettle.csv"
        empty.write_text("timestamp,watts\n")
        assert main(["extract", "--config", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1].split(",")[1] == "0"

    def test_extract_missing_channel_exits_2(self, tmp_path, capsys):
        path = world_config(tmp_path)
        (tmp_path / "data" / "house_1" / "kettle.csv").unlink()
        assert main(["extract", "--config", str(path)]) == 2
        assert "kettle.csv" in capsys.readouterr().err

    def test_unknown_kind_usage_error(self, tmp_path, capsys):
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        capsys.readouterr()
        assert main(["train", "--config", str(path), "--appliance", "kettle",
                     "--kind", "mlp"]) == 1
        err = capsys.readouterr().err
        for kind in ("lstm", "dae", "rectangles"):
            assert kind in err

    def test_train_writes_artifacts(self, tmp_path):
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        assert main(["train", "--config", str(path), "--appliance", "kettle",
                     "--kind", "dae"]) == 0
        out = tmp_path / "out" / "models"
        assert (out / "kettle_dae.ckpt").exists()
        manifest = json.loads((out / "kettle_dae_manifest.json").read_text())
        assert manifest["appliance_id"] == "kettle"
        assert manifest["window_width"] == 24
        assert manifest["input_std"] > 0
        with open(out / "kettle_dae_loss.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["step", "loss", "smoothed_loss", "wallclock_s"]
        assert len(rows) == 5  # 4 updates logged

    def test_train_budget_zero_checkpoints_initial_weights(self, tmp_path):
        path = world_config(tmp_path, budget=0)
        main(["extract", "--config", str(path)])
        assert main(["train", "--config", str(path), "--appliance", "kettle",
                     "--kind", "dae"]) == 0
        assert (tmp_path / "out" / "models" / "kettle_dae.ckpt").exists()

    def test_batch_draw_error_exits_2(self, tmp_path, capsys):
        # An odd batch size is rejected by the batch stream on the producer thread.
        path = world_config(tmp_path, batch=7)
        main(["extract", "--config", str(path)])
        capsys.readouterr()
        assert main(["train", "--config", str(path), "--appliance", "kettle",
                     "--kind", "dae"]) == 2
        assert "even" in capsys.readouterr().err

    def test_numeric_abort_keeps_loss_log(self, tmp_path, capsys, monkeypatch):
        path = world_config(tmp_path, budget=6)
        main(["extract", "--config", str(path)])
        original = Network.loss_and_gradients
        calls = []

        def non_finite_at_step_4(self, x, target):
            calls.append(1)
            loss, grads = original(self, x, target)
            return (float("nan") if len(calls) == 4 else loss), grads

        monkeypatch.setattr(Network, "loss_and_gradients", non_finite_at_step_4)
        assert main(["train", "--config", str(path), "--appliance", "kettle",
                     "--kind", "dae"]) == 3
        assert "non-finite loss at step 4" in capsys.readouterr().err
        out = tmp_path / "out" / "models"
        with open(out / "kettle_dae_loss.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["step", "loss", "smoothed_loss", "wallclock_s"]
        assert [row[0] for row in rows[1:]] == ["1", "2", "3"]
        assert (out / "kettle_dae_abort.ckpt").exists()

    def test_same_seed_identical_loss_log(self, tmp_path):
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        logs = []
        for _ in range(2):
            main(["train", "--config", str(path), "--appliance", "kettle",
                  "--kind", "dae"])
            with open(tmp_path / "out" / "models" / "kettle_dae_loss.csv") as f:
                rows = [row[:3] for row in csv.reader(f)]  # drop wallclock
            logs.append(rows)
        assert logs[0] == logs[1]

    def test_disaggregate_and_evaluate(self, tmp_path, capsys):
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        main(["train", "--config", str(path), "--appliance", "kettle", "--kind", "dae"])
        assert main(["disaggregate", "--config", str(path), "--appliance", "kettle",
                     "--kind", "dae"]) == 0
        est = tmp_path / "out" / "estimates" / "kettle_dae_house2.csv"
        assert est.exists()
        report = json.loads(est.with_suffix(".json").read_text())
        assert report["algorithm"] == "dae"
        manifest = tmp_path / "out" / "models" / "kettle_dae_manifest.json"
        assert report["manifest_sha256"] == sha256_text(manifest.read_text())

        assert main(["evaluate", "--config", str(path), "--appliance", "kettle"]) == 0
        payload = json.loads(
            (tmp_path / "out" / "evaluation" / "metrics_kettle_house2.json").read_text())
        scores = payload["algorithms"]["dae"]
        assert set(scores) >= {"recall", "precision", "f1", "accuracy",
                               "relative_error_total_energy", "mean_absolute_error",
                               "proportion_energy_correct"}

        assert main(["report", "--config", str(path)]) == 0
        table = (tmp_path / "out" / "evaluation" / "report.csv").read_text().splitlines()
        assert table[0] == "appliance,house,algorithm,metric,value"
        assert len(table) == 1 + 7  # one algorithm, seven metrics

    @pytest.mark.parametrize("text, message", [
        ('{"appliance": "kettle", "ho', "not a JSON evaluation file"),
        ('{"appliance": "kettle", "house": 2}', "lacks algorithms"),
        ('{"appliance": "kettle", "house": 2, "algorithms": {"co": {"f1": 1.0}}}',
         "each metric as a number"),
    ], ids=["truncated", "no-algorithms", "missing-metric"])
    def test_report_malformed_evaluation_exits_2(self, tmp_path, capsys, text, message):
        path = world_config(tmp_path)
        evaluation = tmp_path / "out" / "evaluation" / "metrics_kettle_house2.json"
        evaluation.parent.mkdir(parents=True)
        evaluation.write_text(text)
        assert main(["report", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(evaluation) in err and message in err

    def test_evaluate_misaligned_grid_names_timestamps(self, tmp_path, capsys):
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        main(["train", "--config", str(path), "--appliance", "kettle", "--kind", "dae"])
        main(["disaggregate", "--config", str(path), "--appliance", "kettle",
              "--kind", "dae"])
        truth = tmp_path / "data" / "house_2" / "kettle.csv"
        rows = truth.read_text().splitlines()
        truth.write_text("\n".join(rows[:1] + rows[2:]) + "\n")  # shift the grid start
        capsys.readouterr()
        assert main(["evaluate", "--config", str(path), "--appliance", "kettle"]) == 2
        assert "misaligned grids" in capsys.readouterr().err

    def test_evaluate_skips_estimates_of_an_appliance_with_a_longer_name(self, tmp_path):
        # An appliance named "fridge freezer" writes fridge_freezer_dae_house2.csv,
        # which a pattern like fridge_*_house2.csv would take for a fridge estimate.
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        main(["disaggregate", "--config", str(path), "--appliance", "fridge",
              "--baseline", "co"])
        estimates = tmp_path / "out" / "estimates"
        (estimates / "fridge_freezer_dae_house2.csv").write_bytes(
            (estimates / "fridge_co_house2.csv").read_bytes())
        assert main(["evaluate", "--config", str(path), "--appliance", "fridge"]) == 0
        payload = json.loads(
            (tmp_path / "out" / "evaluation" / "metrics_fridge_house2.json").read_text())
        assert list(payload["algorithms"]) == ["co"]

    def test_evaluate_malformed_estimate_row_exits_2(self, tmp_path, capsys):
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        main(["train", "--config", str(path), "--appliance", "kettle", "--kind", "dae"])
        main(["disaggregate", "--config", str(path), "--appliance", "kettle",
              "--kind", "dae"])
        est = tmp_path / "out" / "estimates" / "kettle_dae_house2.csv"
        rows = est.read_text().splitlines()
        rows[4] = "oops,1"
        est.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(path), "--appliance", "kettle"]) == 2
        err = capsys.readouterr().err
        assert f"{est}: malformed row at line 5: could not convert string to float: 'oops'" in err

    @pytest.mark.parametrize("argv, message", [
        (["disaggregate", "--appliance", "kettle", "--kind", "dae"], "train first"),
        (["evaluate", "--appliance", "kettle", "--algorithm", "dae"], "missing estimate"),
        (["report"], "run evaluate first"),
    ], ids=["disaggregate-before-train", "evaluate-before-disaggregate",
            "report-before-evaluate"])
    def test_failed_read_creates_no_directory(self, tmp_path, capsys, argv, message):
        # A directory is made only by the command that writes a file into it.
        path = world_config(tmp_path)
        assert main([*argv, "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_hash_mismatch_refuses_to_run(self, tmp_path, capsys):
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        main(["train", "--config", str(path), "--appliance", "kettle", "--kind", "dae"])
        manifest_path = tmp_path / "out" / "models" / "kettle_dae_manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["input_std"] += 1.0
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["disaggregate", "--config", str(path), "--appliance", "kettle",
                     "--kind", "dae"]) == 2
        assert "hash mismatch" in capsys.readouterr().err

    def _disaggregate_with_manifest(self, tmp_path, capsys, edit, sign=True):
        """Exit status and stderr of `disaggregate` after `edit` rewrote the
        trained manifest's text; with `sign` the checkpoint is re-signed
        with the new manifest's hash, so only its content can be at fault."""
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        main(["train", "--config", str(path), "--appliance", "kettle", "--kind", "dae"])
        models = tmp_path / "out" / "models"
        manifest_path = models / "kettle_dae_manifest.json"
        text = edit(manifest_path.read_text())
        manifest_path.write_text(text)
        if sign:
            params, meta = load_checkpoint(models / "kettle_dae.ckpt")
            meta["manifest_sha256"] = sha256_text(canonical_json(json.loads(text)))
            save_checkpoint(models / "kettle_dae.ckpt", params, meta=meta)
        capsys.readouterr()
        code = main(["disaggregate", "--config", str(path), "--appliance", "kettle",
                     "--kind", "dae"])
        return code, capsys.readouterr().err

    def test_misshaped_checkpoint_tensor_exits_3_naming_it(self, tmp_path, capsys):
        def reshape_code_weights(text):
            models = tmp_path / "out" / "models"
            params, meta = load_checkpoint(models / "kettle_dae.ckpt")
            params["code/weights"] = np.zeros((3, 3), np.float32)
            save_checkpoint(models / "kettle_dae.ckpt", params, meta=meta)
            return text

        code, err = self._disaggregate_with_manifest(tmp_path, capsys, reshape_code_weights,
                                                     sign=False)
        assert code == 3 and "code: shape mismatch for 'weights'" in err

    def test_checkpoint_value_beyond_float32_exits_2_naming_it(self, tmp_path, capsys):
        # A float64 tensor is refused before the float32 net is built, so
        # 1e300, which has no float32 value, never reaches it.
        def overflow_code_weights(text):
            ckpt = tmp_path / "out" / "models" / "kettle_dae.ckpt"
            params, meta = load_checkpoint(ckpt)
            params["code/weights"] = params["code/weights"].astype(np.float64)
            params["code/weights"][0, 0] = 1e300
            save_checkpoint(ckpt, params, meta=meta)
            return text

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self._disaggregate_with_manifest(tmp_path, capsys,
                                                         overflow_code_weights, sign=False)
        assert code == 2 and "kettle_dae.ckpt: tensor 'code/weights'" in err

    def test_inference_draws_no_random_weights(self, tmp_path, capsys, monkeypatch):
        # The network is built from the checkpoint: nothing is drawn from
        # the manifest's seed.
        def no_rng(*args):
            raise AssertionError(f"rng_for{args} called")

        def check(text):
            monkeypatch.setattr(cli, "rng_for", no_rng)
            return text

        code, err = self._disaggregate_with_manifest(tmp_path, capsys, check, sign=False)
        assert code == 0, err

    def test_truncated_manifest_exits_2(self, tmp_path, capsys):
        code, err = self._disaggregate_with_manifest(
            tmp_path, capsys, lambda text: '{"oops', sign=False)
        assert code == 2 and "not a JSON manifest" in err

    def test_non_object_manifest_exits_2(self, tmp_path, capsys):
        code, err = self._disaggregate_with_manifest(tmp_path, capsys, lambda text: "[1, 2]")
        assert code == 2 and "not a JSON object" in err

    @pytest.mark.parametrize("key", ["window_width", "seed", "max_power", "input_std"])
    def test_manifest_without_key_exits_2(self, tmp_path, capsys, key):
        def drop(text):
            manifest = json.loads(text)
            del manifest[key]
            return canonical_json(manifest)

        code, err = self._disaggregate_with_manifest(tmp_path, capsys, drop)
        assert code == 2 and f"manifest lacks {key}" in err

    @pytest.mark.parametrize("key, value, match", [
        ("window_width", None, "window_width must be a non-negative integer"),
        ("window_width", 24.5, "window_width must be a non-negative integer"),
        ("seed", "7", "seed must be a non-negative integer"),
        ("seed", -1, "seed must be a non-negative integer"),
        ("input_std", float("inf"), "input_std must be positive"),
        ("max_power", True, "max_power must be positive"),
    ])
    def test_manifest_with_bad_value_exits_2(self, tmp_path, capsys, key, value, match):
        def replace(text):
            manifest = json.loads(text)
            manifest[key] = value
            return canonical_json(manifest)

        code, err = self._disaggregate_with_manifest(tmp_path, capsys, replace)
        assert code == 2 and match in err

    def _train_with_store(self, tmp_path, capsys, edit, appliance="kettle"):
        """Exit status and stderr of `train --appliance kettle` after `edit`
        rewrote the `appliance` activation store of house 1, and that
        store's path."""
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        store = tmp_path / "out" / "activations" / f"{appliance}_house1.json"
        store.write_text(edit(store.read_text()))
        capsys.readouterr()
        code = main(["train", "--config", str(path), "--appliance", "kettle", "--kind", "dae"])
        return code, capsys.readouterr().err, store

    @staticmethod
    def _edit_store(change):
        def edit(text):
            payload = json.loads(text)
            change(payload)
            return canonical_json(payload)
        return edit

    @pytest.mark.parametrize("edit, match", [
        (lambda text: '{"oops', "not a JSON activation store"),
        (lambda text: "[1, 2]", "activation store is not a JSON object"),
        (lambda text: "{}", "activation store lacks activations, series_start_time"),
    ], ids=["truncated", "non-object", "empty-object"])
    def test_malformed_store_exits_2(self, tmp_path, capsys, edit, match):
        code, err, store = self._train_with_store(tmp_path, capsys, edit)
        assert code == 2 and match in err and str(store) in err

    @pytest.mark.parametrize("key", ["activations", "series_start_time"])
    def test_store_without_key_exits_2(self, tmp_path, capsys, key):
        code, err, store = self._train_with_store(
            tmp_path, capsys, self._edit_store(lambda payload: payload.pop(key)))
        assert code == 2 and f"activation store lacks {key}" in err and str(store) in err

    @pytest.mark.parametrize("key", ["source_offset", "values"])
    def test_store_activation_without_key_exits_2(self, tmp_path, capsys, key):
        code, err, store = self._train_with_store(
            tmp_path, capsys,
            self._edit_store(lambda payload: payload["activations"][-1].pop(key)))
        assert code == 2 and "every activation needs a source_offset and values" in err
        assert str(store) in err

    @pytest.mark.parametrize("appliance, key, value", [
        ("kettle", "values", ["x"]),
        ("kettle", "values", "12"),
        ("kettle", "values", [1.0, True]),
        ("kettle", "values", [1.0, None]),
        ("kettle", "source_offset", "5"),
        ("kettle", "source_offset", -1),
        ("kettle", "source_offset", 5.0),
        ("kettle", "source_offset", True),
        ("microwave", "source_offset", "5"),  # a store of an appliance not trained here
    ])
    def test_store_activation_with_bad_value_exits_2(self, tmp_path, capsys, appliance,
                                                     key, value):
        def change(payload):
            payload["activations"][0][key] = value

        code, err, store = self._train_with_store(tmp_path, capsys, self._edit_store(change),
                                                  appliance)
        assert code == 2 and "every activation needs a source_offset and values" in err
        assert str(store) in err

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "1e999", "1" + "0" * 400],
                             ids=["nan", "infinity", "float-overflow", "int-overflow"])
    def test_store_value_not_a_finite_float_exits_2(self, tmp_path, capsys, number):
        def edit(text):
            payload = json.loads(text)
            payload["activations"][0]["values"][0] = "NUMBER"
            return canonical_json(payload).replace('"NUMBER"', number)

        code, err, store = self._train_with_store(tmp_path, capsys, edit)
        assert code == 2 and "every activation needs a source_offset and values" in err

    def test_lstm_disaggregate_leaves_no_foreground_thread(self, tmp_path):
        # Bidirectional layers run a worker thread; it must not keep the
        # process alive once the command has returned.
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        before = set(threading.enumerate())
        assert main(["train", "--config", str(path), "--appliance", "kettle",
                     "--kind", "lstm"]) == 0
        assert main(["disaggregate", "--config", str(path), "--appliance", "kettle",
                     "--kind", "lstm"]) == 0
        left = [t for t in set(threading.enumerate()) - before if not t.daemon]
        assert not left

    def test_zero_length_aggregate_empty_estimate(self, tmp_path):
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        main(["train", "--config", str(path), "--appliance", "kettle", "--kind", "dae"])
        (tmp_path / "data" / "house_2" / "aggregate.csv").write_text("timestamp,watts\n")
        assert main(["disaggregate", "--config", str(path), "--appliance", "kettle",
                     "--kind", "dae"]) == 0
        est = tmp_path / "out" / "estimates" / "kettle_dae_house2.csv"
        assert est.read_text().splitlines() == ["timestamp,estimated_watts"]

    def test_baseline_routes(self, tmp_path):
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        for algo in ("co", "fhmm"):
            assert main(["disaggregate", "--config", str(path), "--appliance", "kettle",
                         "--baseline", algo]) == 0
            est = tmp_path / "out" / "estimates" / f"kettle_{algo}_house2.csv"
            assert est.exists()
        models = json.loads(
            (tmp_path / "out" / "baselines" / "co_models.json").read_text())
        assert len(models) == 3

    def test_baseline_and_kind_mutually_exclusive(self, tmp_path, capsys):
        path = world_config(tmp_path)
        assert main(["disaggregate", "--config", str(path), "--appliance", "kettle",
                     "--kind", "dae", "--baseline", "co"]) == 1

    @staticmethod
    def _two_train_houses(tmp_path) -> Path:
        """A world whose appliances train on houses 3 and 1 and test on 2."""
        path = world_config(tmp_path)
        write_world(tmp_path / "data", houses=(3,), length=700, seed=11)
        raw = json.loads(path.read_text())
        for entry in raw["appliances"]:
            entry["train_houses"] = [3, 1]
        path.write_text(json.dumps(raw))
        assert main(["extract", "--config", str(path)]) == 0
        return path

    def test_each_train_house_store_read_once_and_no_test_house_store(
            self, tmp_path, monkeypatch):
        path = self._two_train_houses(tmp_path)
        reads = []
        load_store = cli._load_store

        def counted(cfg, appliance, house):
            reads.append((appliance, house))
            return load_store(cfg, appliance, house)

        monkeypatch.setattr(cli, "_load_store", counted)
        train_stores = sorted((name, house) for name in ("kettle", "microwave", "fridge")
                              for house in (3, 1))
        for argv in (["train", "--appliance", "kettle", "--kind", "dae"],
                     ["synth-preview", "--appliance", "kettle"],
                     ["disaggregate", "--appliance", "kettle", "--baseline", "co"]):
            reads.clear()
            assert main([*argv, "--config", str(path)]) == 0
            assert sorted(reads) == train_stores, argv[0]

    def test_unreadable_test_house_store_is_not_read(self, tmp_path):
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        for store in (tmp_path / "out" / "activations").glob("*_house2.json"):
            store.write_text('{"oops')
        for argv in (["train", "--appliance", "kettle", "--kind", "dae"],
                     ["synth-preview", "--appliance", "kettle"],
                     ["disaggregate", "--appliance", "kettle", "--baseline", "co"],
                     ["disaggregate", "--appliance", "kettle", "--baseline", "fhmm"]):
            assert main([*argv, "--config", str(path)]) == 0, argv

    def test_synth_preview(self, tmp_path, capsys):
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        assert main(["synth-preview", "--config", str(path), "--appliance", "kettle",
                     "--count", "6"]) == 0
        payload = json.loads(
            (tmp_path / "out" / "preview" / "kettle_synth.json").read_text())
        assert payload["count"] == 6
        assert len(payload["windows"]) == 6
        assert all(len(w["input"]) == 24 for w in payload["windows"])

    def test_synth_preview_negative_count_exits_1(self, tmp_path, capsys):
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        preview = tmp_path / "out" / "preview" / "kettle_synth.json"
        capsys.readouterr()
        assert main(["synth-preview", "--config", str(path), "--appliance", "kettle",
                     "--count", "-3"]) == 1
        assert "--count must be >= 0, got -3" in capsys.readouterr().err
        assert not preview.exists()
        assert main(["synth-preview", "--config", str(path), "--appliance", "kettle",
                     "--count", "0"]) == 0
        payload = json.loads(preview.read_text())
        assert payload["count"] == 0 and payload["windows"] == []


def run_pipeline(config_path):
    assert main(["extract", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path), "--appliance", "kettle",
                 "--kind", "dae"]) == 0
    assert main(["disaggregate", "--config", str(config_path), "--appliance", "kettle",
                 "--kind", "dae"]) == 0
    assert main(["disaggregate", "--config", str(config_path), "--appliance", "kettle",
                 "--baseline", "co"]) == 0
    assert main(["evaluate", "--config", str(config_path), "--appliance", "kettle"]) == 0
    assert main(["report", "--config", str(config_path)]) == 0


def snapshot_outputs(out_dir: Path) -> dict:
    """Map of relative path -> bytes, with the loss log's wallclock column
    (real elapsed time) stripped before comparison."""
    snapshot = {}
    for path in sorted(out_dir.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.name.endswith("_loss.csv"):
            rows = [line.rsplit(",", 1)[0] for line in data.decode().splitlines()]
            data = "\n".join(rows).encode()
        snapshot[str(path.relative_to(out_dir))] = data
    return snapshot


class TestReproducibility:
    def test_pipeline_byte_identical_across_runs(self, tmp_path, capsys):
        path_a = world_config(tmp_path / "a")
        path_b = world_config(tmp_path / "b")
        run_pipeline(path_a)
        run_pipeline(path_b)
        snap_a = snapshot_outputs(tmp_path / "a" / "out")
        snap_b = snapshot_outputs(tmp_path / "b" / "out")
        assert snap_a.keys() == snap_b.keys()
        for name in snap_a:
            assert snap_a[name] == snap_b[name], f"{name} differs between runs"


def reference_write_estimate_csv(path, estimate):
    """The one-`csv.writer`-call-per-row estimate writer, kept as the oracle."""
    series = estimate.series
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        if estimate.probability is None:
            writer.writerow(["timestamp", "estimated_watts"])
            for t, w in zip(series.timestamps(), series.values):
                writer.writerow([int(t), format(float(w), ".6f")])
        else:
            writer.writerow(["timestamp", "estimated_watts", "probability"])
            for t, w, p in zip(series.timestamps(), series.values, estimate.probability):
                writer.writerow([int(t), format(float(w), ".6f"), format(p, ".6f")])


# Values whose sixth decimal rounds (binary halves and near-halves), a
# zero, and large watts.
ROUNDING_VALUES = [0.0, 5e-7, 1.5e-6, 2.5e-7, 0.9999995, 1.2345675, 0.1234565,
                   123456.1234565, 999999.9999995, 3e7 + 0.25]


class TestEstimateCsv:
    @pytest.mark.parametrize("length", [0, 1, CSV_WRITE_CHUNK, CSV_WRITE_CHUNK + 1,
                                        2 * CSV_WRITE_CHUNK + 3])
    @pytest.mark.parametrize("start_time", [1_300_000_000.7, 2.0**31 + 5.5])
    @pytest.mark.parametrize("with_probability", [False, True], ids=["two-col", "three-col"])
    def test_bytes_match_csv_writer_loop(self, tmp_path, length, start_time,
                                         with_probability):
        rng = np.random.default_rng(length)
        values = rng.uniform(0, 3000, size=length)
        values[: len(ROUNDING_VALUES)] = ROUNDING_VALUES[:length]
        probability = None
        if with_probability:
            probability = rng.uniform(0, 1, size=length)
            probability[: len(ROUNDING_VALUES)] = [v / 3e7 if v > 1 else v
                                                   for v in ROUNDING_VALUES[:length]]
        estimate = sliding.EstimateSeries(PowerSeries(start_time, 6, values), probability)
        ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
        _write_estimate_csv(ours, estimate)
        reference_write_estimate_csv(reference, estimate)
        assert ours.read_bytes() == reference.read_bytes()
