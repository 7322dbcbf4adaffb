import csv
import json
from pathlib import Path

import numpy as np
import pytest

from disagg.cli import main
from disagg.config import load_config, parse_config
from disagg.errors import ConfigError
from disagg.synthworld import DESK_APPLIANCES, write_world


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

    def test_desk_profile_scales_budget_and_window(self, tmp_path):
        path = world_config(tmp_path)
        cfg = load_config(path, profile_override="desk")
        assert cfg.update_budget("dae") == 1  # ceil(4 / 100)
        assert cfg.window_width("kettle") == 16  # floor to the minimum
        paper = load_config(path)
        assert paper.update_budget("dae") == 4
        assert paper.window_width("kettle") == 24

    def test_paper_appliance_defaults(self, tmp_path):
        (tmp_path / "data").mkdir()
        raw = {
            "version": 1, "seed": 1,
            "paths": {"data_dir": "data", "out_dir": "out"},
            "appliances": [{"name": "kettle", "train_houses": [1, 2, 3, 4],
                            "test_houses": [5]}],
        }
        cfg = parse_config(raw, base_dir=tmp_path)
        app = cfg.appliance("kettle")
        assert app.activation_params.max_power == 3100
        assert app.activation_params.on_power_threshold == 2000
        assert app.activation_params.min_on_duration == 12
        assert app.activation_params.min_off_duration == 0
        assert app.window_width == 128
        assert cfg.architecture("dae").update_budget == 100_000


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
        assert report["checkpoint_sha256"]

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
