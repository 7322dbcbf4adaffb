import argparse
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import traced_peak
from disagg import architectures, blas, cli, sliding
from disagg import timeseries as ts
from disagg.cli import _write_estimate_csv, main
from disagg.config import ExperimentConfig, load_config, parse_config
from disagg.errors import ConfigError
from disagg.metrics import MetricsReport
from disagg.nn import Network, layers, load_checkpoint, save_checkpoint
from disagg.synthworld import DESK_APPLIANCES, write_world
from disagg.timeseries import CSV_WRITE_CHUNK, PowerSeries
from disagg.util import canonical_json, is_number


# Each command, with the arguments it requires besides --config.
COMMAND_ARGS = {
    "extract": [],
    "synth-preview": ["--appliance", "kettle"],
    "train": ["--appliance", "kettle", "--kind", "dae"],
    "disaggregate": ["--appliance", "kettle", "--kind", "dae"],
    "evaluate": ["--appliance", "kettle"],
    "report": [],
}


def cli_env():
    """The environment of a child Python that imports this checkout's `disagg`."""
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


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


FLOAT_MAX = int(sys.float_info.max)  # exactly


class TestIsNumber:
    """The one rule for a number read from a file: finite as a float."""

    JSON_VALUES = st.one_of(
        st.none(), st.booleans(), st.integers(-10**400, 10**400),
        st.integers(FLOAT_MAX - 2**972, FLOAT_MAX + 2**972),  # the edge of the float range
        st.floats(), st.text())

    @given(JSON_VALUES, st.booleans())
    def test_agrees_with_a_float_conversion(self, value, integer):
        try:
            finite = (type(value) in ((int,) if integer else (int, float))
                      and math.isfinite(float(value)))
        except OverflowError:  # an int beyond the float range
            finite = False
        # An int just above the largest float rounds down to it, yet lies beyond it.
        beyond = type(value) is int and abs(value) > FLOAT_MAX
        assert is_number(value, integer) is (finite and not beyond)

    @pytest.mark.parametrize("value, expected", [
        (FLOAT_MAX, True), (-FLOAT_MAX, True), (FLOAT_MAX + 1, False), (sys.float_info.max, True),
        (0, True), (-0.0, True), (True, False), (float("nan"), False), (float("-inf"), False),
        ("1", False), (None, False),
    ], ids=["int-max", "int-min", "int-above-max", "float-max", "zero", "minus-zero", "bool",
            "nan", "minus-inf", "text", "null"])
    def test_edges(self, value, expected):
        assert is_number(value) is expected


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

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"version": 1, "seed": \xff1}')
        assert main(["extract", "--config", str(path)]) == 1
        assert f"{path}: invalid JSON" in capsys.readouterr().err

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
        pytest.param("appliance", "max_power", 10**400, id="appliance-max_power-10**400"),
        pytest.param("top", "max_forward_fill", 10**400, id="top-max_forward_fill-10**400"),
        pytest.param("dae", "learning_rate", 10**400, id="dae-learning_rate-10**400"),
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

    @pytest.mark.parametrize("warnings_as_errors", [False, True], ids=["default", "W-error"])
    @pytest.mark.parametrize("section, key", [("appliance", "max_power"),
                                              ("top", "max_forward_fill"),
                                              ("dae", "learning_rate")])
    def test_integer_beyond_float_range_exits_1(self, tmp_path, section, key,
                                                warnings_as_errors):
        path = world_config(tmp_path)
        raw = json.loads(path.read_text())
        target = {"top": raw, "appliance": raw["appliances"][0],
                  "dae": raw["architectures"]["dae"]}[section]
        target[key] = 10**400
        path.write_text(json.dumps(raw))
        flags = ["-W", "error"] if warnings_as_errors else []
        child = subprocess.run(
            [sys.executable, *flags, "-m", "disagg.cli", "extract", "--config", str(path)],
            env=cli_env(), capture_output=True, text=True, timeout=120)
        assert child.returncode == 1, child.stderr
        assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1
        assert key in child.stderr
        assert not (tmp_path / "out").exists()

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
        paper = load_config(path)
        raw = json.loads(path.read_text())
        raw["profile"] = "desk"
        path.write_text(json.dumps(raw))
        cfg = load_config(path)
        assert cfg.architectures["dae"].update_budget == 1  # ceil(4 / 100)
        assert cfg.appliance("kettle").window_width == 16  # floor to the minimum
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
        raw = json.loads(path.read_text())
        raw["profile"] = "desk"
        path.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["train", "--config", str(path), "--appliance", "kettle",
                     "--kind", "dae"]) == 1
        assert "disagg.stride 96 exceeds appliance 'kettle'" in capsys.readouterr().err
        assert not list((tmp_path / "out").rglob("*.ckpt"))

    def test_no_option_names_a_config_field(self):
        # Every run setting comes from the config file: no option may
        # override one of its fields.
        fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
        parser = cli.make_parser()
        (subparsers,) = [action for action in parser._actions
                         if isinstance(action, argparse._SubParsersAction)]
        assert sorted(subparsers.choices) == sorted(COMMAND_ARGS)
        for name, subparser in [("disagg", parser), *subparsers.choices.items()]:
            dests = {action.dest for action in subparser._actions}
            assert not dests & fields, name

    @pytest.mark.parametrize("command", COMMAND_ARGS)
    @pytest.mark.parametrize("option", [["--seed", "1"], ["--profile", "desk"]],
                             ids=["seed", "profile"])
    def test_seed_and_profile_options_are_usage_errors(self, tmp_path, capsys, command,
                                                       option):
        path = world_config(tmp_path)
        assert main([command, "--config", str(path), *COMMAND_ARGS[command], *option]) == 1
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

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

    def test_extract_store_bytes_match_canonical_json(self, tmp_path):
        # The store is written one activation at a time; its bytes are those
        # of `canonical_json` of the whole store, also with no activation.
        # It records every setting the activations were extracted with.
        path = world_config(tmp_path)
        (tmp_path / "data" / "house_2" / "kettle.csv").write_text("timestamp,watts\n")
        assert main(["extract", "--config", str(path)]) == 0
        cfg = load_config(path)
        for name, app in cfg.appliances.items():
            for house in (1, 2):
                series = cli._load_channel(cfg, house, name)
                acts = ts.extract_activations(series, app.activation_params)
                payload = {"appliance": name, "house": house,
                           "sample_period": cfg.sample_period,
                           "max_forward_fill": cfg.max_forward_fill,
                           **dataclasses.asdict(app.activation_params),
                           "series_start_time": series.start_time,
                           "activations": [{"source_offset": a.source_offset,
                                            "values": a.values.tolist()} for a in acts]}
                stored = cli._store_path(cfg, name, house).read_text()
                assert stored == canonical_json(payload), (name, house)
                assert (name, house) == ("kettle", 2) or payload["activations"]

    def test_store_write_holds_one_activation_at_a_time(self, tmp_path):
        values = np.random.default_rng(4).uniform(0, 3000, size=2_000)
        acts = [ts.Activation(offset, values) for offset in range(200)]
        store = tmp_path / "store.json"
        fields = {"appliance": "kettle", "house": 1, "sample_period": 6,
                  "series_start_time": 0.0}
        peak = traced_peak(lambda: cli._write_store(store, acts, fields))
        # The whole store's text is 7.4 MB, and its values as Python floats
        # take 12.8 MB; one activation's take 64 kB.
        assert store.stat().st_size > 7_000_000
        assert peak < store.stat().st_size / 10

    def test_extract_missing_channel_exits_2(self, tmp_path, capsys):
        path = world_config(tmp_path)
        (tmp_path / "data" / "house_1" / "kettle.csv").unlink()
        assert main(["extract", "--config", str(path)]) == 2
        assert "kettle.csv" in capsys.readouterr().err

    def test_failed_extract_writes_no_store(self, tmp_path, capsys):
        # The last pair's channel fails after five others were extracted.
        path = world_config(tmp_path)
        channel = tmp_path / "data" / "house_2" / "fridge.csv"
        channel.unlink()
        channel.mkdir()
        assert main(["extract", "--config", str(path)]) == 2
        assert str(channel) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_extract_keeps_the_earlier_stores(self, tmp_path, capsys):
        # Five stores of the second run are written under temporary names
        # before its last channel fails; none replaces a store of the first.
        path = world_config(tmp_path)
        assert main(["extract", "--config", str(path)]) == 0
        stores = tmp_path / "out" / "activations"
        before = {store.name: store.read_bytes() for store in stores.iterdir()}
        assert len(before) == 6
        for name in ("kettle", "microwave"):  # channels that now give other stores
            channel = tmp_path / "data" / "house_1" / f"{name}.csv"
            channel.write_text("timestamp,watts\n")
        channel = tmp_path / "data" / "house_2" / "fridge.csv"
        channel.unlink()
        channel.mkdir()
        capsys.readouterr()
        assert main(["extract", "--config", str(path)]) == 2
        assert str(channel) in capsys.readouterr().err
        assert {store.name: store.read_bytes() for store in stores.iterdir()} == before

    def test_interrupted_extract_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        path = world_config(tmp_path)
        extract_activations = ts.extract_activations
        calls = []

        def interrupted(series, params):
            calls.append(params)
            if len(calls) == 4:
                raise KeyboardInterrupt
            return extract_activations(series, params)

        monkeypatch.setattr(ts, "extract_activations", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["extract", "--config", str(path)])
        assert len(calls) == 4
        assert not (tmp_path / "out").exists()

    def test_extract_holds_one_channel_at_a_time(self, tmp_path, capsys):
        # Three houses of three appliances: nine channels, whose activations
        # together outweigh any one channel's read and extraction.
        path = world_config(tmp_path, length=10_000)
        write_world(tmp_path / "data", houses=(3,), length=10_000, seed=11)
        raw = json.loads(path.read_text())
        for entry in raw["appliances"]:
            entry["train_houses"] = [1, 3]
        path.write_text(json.dumps(raw))
        cfg = load_config(path)
        one_channel = max(
            traced_peak(lambda: ts.extract_activations(cli._load_channel(cfg, house, name),
                                                       app.activation_params))
            for name, app in cfg.appliances.items() for house in (1, 2, 3))
        peak = traced_peak(lambda: main(["extract", "--config", str(path)]))
        assert capsys.readouterr().out.count("\n") == 4
        assert peak < 1.25 * one_channel, (peak, one_channel)

    def test_extract_non_utf8_channel_exits_2(self, tmp_path, capsys):
        path = world_config(tmp_path)
        channel = tmp_path / "data" / "house_1" / "kettle.csv"
        data = bytearray(channel.read_bytes())
        data[40] = 0xFF
        channel.write_bytes(bytes(data))
        assert main(["extract", "--config", str(path)]) == 2
        assert f"{channel}: unreadable CSV" in capsys.readouterr().err

    def test_extract_stray_far_timestamp_exits_2(self, tmp_path, capsys):
        # A millisecond stamp among seconds: its 6 s grid cannot be allocated.
        path = world_config(tmp_path)
        channel = tmp_path / "data" / "house_1" / "kettle.csv"
        channel.write_text("0,10\n6,20\n6000000000000,30\n")
        assert main(["extract", "--config", str(path)]) == 2
        assert (f"data error: {channel}: timestamps 0.0 to 6000000000000.0 need a grid of "
                "1000000000001 slots of 6 s") in capsys.readouterr().err

    @pytest.mark.parametrize("warnings_as_errors", [False, True], ids=["default", "W-error"])
    def test_extract_timestamp_beyond_an_index_exits_2(self, tmp_path, warnings_as_errors):
        # The span of 1e300 s has more 6 s slots than an index can hold:
        # refused before any cast, so no cast warning and no traceback.
        path = world_config(tmp_path)
        channel = tmp_path / "data" / "house_1" / "kettle.csv"
        channel.write_text("0,10\n1e300,20\n")
        flags = ["-W", "error"] if warnings_as_errors else []
        child = subprocess.run(
            [sys.executable, *flags, "-m", "disagg.cli", "extract", "--config", str(path)],
            env=cli_env(), capture_output=True, text=True, timeout=120)
        assert child.returncode == 2, child.stderr
        assert child.stderr == (f"data error: {channel}: timestamps 0.0 to 1e+300 need a grid "
                                "of 1.667e+299 slots of 6 s, more than an index holds\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_kind_usage_error(self, tmp_path, capsys):
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        capsys.readouterr()
        assert main(["train", "--config", str(path), "--appliance", "kettle",
                     "--kind", "mlp"]) == 1
        err = capsys.readouterr().err
        for kind in ("lstm", "dae", "rectangles"):
            assert kind in err

    def test_unknown_evaluate_algorithm_usage_error(self, tmp_path, capsys):
        path = world_config(tmp_path)
        assert main(["evaluate", "--config", str(path), "--appliance", "kettle",
                     "--algorithm", "bogus"]) == 1
        err = capsys.readouterr().err
        assert "'bogus'" in err and all(algo in err for algo in ("lstm", "dae", "co", "fhmm"))

    def test_train_writes_artifacts(self, tmp_path):
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        assert main(["train", "--config", str(path), "--appliance", "kettle",
                     "--kind", "dae"]) == 0
        out = tmp_path / "out" / "models"
        assert sorted(p.name for p in out.iterdir()) == ["kettle_dae.ckpt",
                                                         "kettle_dae_loss.csv"]
        _, meta = load_checkpoint(out / "kettle_dae.ckpt")
        manifest = meta["manifest"]
        assert meta == {"manifest": manifest, "step": 4}
        assert manifest["appliance_id"] == "kettle" and manifest["kind"] == "dae"
        assert manifest["window_width"] == 24
        assert manifest["input_std"] > 0
        assert manifest["learning_rate"] == 0.01
        assert manifest["blas_threads"] == blas.threads()
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
        _, meta = load_checkpoint(out / "kettle_dae_abort.ckpt")
        assert meta["manifest"]["kind"] == "dae"

    @pytest.mark.parametrize("kind", ["dae", "lstm"])
    def test_diverging_train_exits_3_without_numpy_warnings(self, tmp_path, capsys, kind):
        # Overflow in a matmul must not surface as a RuntimeWarning (an error
        # under `-W error`, as here): the finite checks give the verdict.
        # The LSTM also runs half of each bidirectional layer on a worker thread.
        path = world_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["architectures"][kind]["learning_rate"] = 1e30
        path.write_text(json.dumps(raw))
        main(["extract", "--config", str(path)])
        capsys.readouterr()
        assert main(["train", "--config", str(path), "--appliance", "kettle",
                     "--kind", kind]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: non-finite values after")
        assert "Warning" not in err

    def test_interval_checkpoints_stop_before_the_final_step(self, tmp_path):
        path = world_config(tmp_path, budget=1000)
        main(["extract", "--config", str(path)])
        assert main(["train", "--config", str(path), "--appliance", "kettle",
                     "--kind", "dae"]) == 0
        out = tmp_path / "out" / "models"
        _, final_meta = load_checkpoint(out / "kettle_dae.ckpt")
        assert final_meta["step"] == 1000
        for step in (250, 500, 750):
            _, meta = load_checkpoint(out / f"kettle_dae_step{step}.ckpt")
            assert meta == {"manifest": final_meta["manifest"], "step": step}
        assert not (out / "kettle_dae_step1000.ckpt").exists()

    def test_failed_retrain_keeps_the_earlier_checkpoint_usable(self, tmp_path, capsys,
                                                                monkeypatch):
        # A re-train with another learning rate aborts before its final
        # checkpoint, so the earlier run's checkpoint stays in place.
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        train = ["train", "--config", str(path), "--appliance", "kettle", "--kind", "dae"]
        assert main(train) == 0
        raw = json.loads(path.read_text())
        raw["architectures"]["dae"]["learning_rate"] = 0.02
        path.write_text(json.dumps(raw))
        original = Network.loss_and_gradients

        def non_finite(self, x, target):
            return float("nan"), original(self, x, target)[1]

        monkeypatch.setattr(Network, "loss_and_gradients", non_finite)
        capsys.readouterr()
        assert main(train) == 3
        assert "non-finite loss at step 1" in capsys.readouterr().err
        assert main(["disaggregate", "--config", str(path), "--appliance", "kettle",
                     "--kind", "dae"]) == 0
        report = json.loads(
            (tmp_path / "out" / "estimates" / "kettle_dae_house2.json").read_text())
        assert report["manifest"]["learning_rate"] == 0.01

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
        _, meta = load_checkpoint(tmp_path / "out" / "models" / "kettle_dae.ckpt")
        assert report["manifest"] == meta["manifest"]
        assert report["baseline_models"] is None
        assert report["runtime"]["blas_threads"] == blas.threads()

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
        (json.dumps({"appliance": "kettle", "house": 2, "algorithms": {
            "co": dict.fromkeys(MetricsReport.METRIC_NAMES, 0.5) | {"f1": float("nan")}}}),
         "each metric as a number, and a finite one"),
        (json.dumps({"appliance": "kettle", "house": 2, "algorithms": {
            "dae": dict.fromkeys(MetricsReport.METRIC_NAMES, 0.5) | {"recall": float("inf")}}}),
         "each metric as a number, and a finite one"),
        (json.dumps({"appliance": None, "house": 2, "algorithms": {
            "co": dict.fromkeys(MetricsReport.METRIC_NAMES, 1.0)}}),
         "appliance must be a string and house an integer"),
        (json.dumps({"appliance": "kettle", "house": {"a": [1, 2]}, "algorithms": {
            "co": dict.fromkeys(MetricsReport.METRIC_NAMES, 1.0)}}),
         "appliance must be a string and house an integer"),
    ], ids=["truncated", "no-algorithms", "missing-metric", "nan-metric", "infinite-metric",
            "null-appliance", "object-house"])
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

    def test_evaluate_off_grid_estimate_exits_2(self, tmp_path, capsys):
        # One row dropped and one appended: the start and the length still match.
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        main(["disaggregate", "--config", str(path), "--appliance", "kettle",
              "--baseline", "co"])
        est = tmp_path / "out" / "estimates" / "kettle_co_house2.csv"
        rows = est.read_text().splitlines()
        last = int(rows[-1].split(",")[0])
        del rows[10]  # the sample at 54 s
        rows.append(f"{last + 6},0.000000")
        est.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(path), "--appliance", "kettle"]) == 2
        assert f"{est}: timestamp 60.0 is off the 6 s grid starting 0.0" in capsys.readouterr().err

    def test_pipeline_on_a_house_with_fractional_timestamps(self, tmp_path):
        path = world_config(tmp_path)
        for channel in (tmp_path / "data" / "house_2").iterdir():
            header, *rows = channel.read_text().splitlines()
            shifted = [f"{int(t)}.5,{w}" for t, w in (row.split(",") for row in rows)]
            channel.write_text("\n".join([header, *shifted]) + "\n")
        run_pipeline(path)
        estimate = (tmp_path / "out" / "estimates" / "kettle_dae_house2.csv").read_text()
        assert [row.split(",")[0] for row in estimate.splitlines()[1:3]] == ["0.5", "6.5"]

    @pytest.mark.parametrize("case, code", [
        ("config-is-a-directory", 1), ("channel-is-a-directory", 2), ("out-dir-is-a-file", 2),
        ("train-store-is-a-directory", 2), ("estimates-dir-is-a-file", 2),
    ])
    def test_os_error_exits_with_its_code(self, tmp_path, capsys, case, code):
        path = world_config(tmp_path)
        extract = ["extract", "--config", str(path)]
        if case in ("train-store-is-a-directory", "estimates-dir-is-a-file"):
            assert main(extract) == 0
        argv, culprit = {
            "config-is-a-directory": (["extract", "--config", str(tmp_path / "data")],
                                      tmp_path / "data"),
            "channel-is-a-directory": (extract, tmp_path / "data" / "house_1" / "kettle.csv"),
            "out-dir-is-a-file": (extract, tmp_path / "out"),
            "train-store-is-a-directory": (
                ["train", "--config", str(path), "--appliance", "kettle", "--kind", "dae"],
                tmp_path / "out" / "activations" / "kettle_house1.json"),
            "estimates-dir-is-a-file": (
                ["disaggregate", "--config", str(path), "--appliance", "kettle",
                 "--baseline", "co"], tmp_path / "out" / "estimates"),
        }[case]
        if culprit.is_file():  # a file where a directory is read
            culprit.unlink()
            culprit.mkdir()
        elif not culprit.exists():  # a file where a directory is made
            culprit.write_text("")
        capsys.readouterr()
        assert main(argv) == code
        err = capsys.readouterr().err
        assert str(culprit) in err and "Traceback" not in err

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

    def _disaggregate_with_manifest(self, tmp_path, capsys, edit):
        """Exit status and stderr of `disaggregate` after the manifest in the
        trained checkpoint's header line was replaced by `edit(manifest)`.
        The header's tensor offsets count from the end of that line, so the
        tensor bytes stay valid whatever length the new header has."""
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        main(["train", "--config", str(path), "--appliance", "kettle", "--kind", "dae"])
        ckpt = tmp_path / "out" / "models" / "kettle_dae.ckpt"
        manifest = edit(load_checkpoint(ckpt)[1]["manifest"])  # `edit` may rewrite `ckpt`
        header_line, body = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["meta"]["manifest"] = manifest
        ckpt.write_bytes(canonical_json(header).encode() + body)
        capsys.readouterr()
        code = main(["disaggregate", "--config", str(path), "--appliance", "kettle",
                     "--kind", "dae"])
        return code, capsys.readouterr().err

    def test_misshaped_checkpoint_tensor_exits_3_naming_it(self, tmp_path, capsys):
        def reshape_code_weights(manifest):
            models = tmp_path / "out" / "models"
            params, meta = load_checkpoint(models / "kettle_dae.ckpt")
            params["code/weights"] = np.zeros((3, 3), np.float32)
            save_checkpoint(models / "kettle_dae.ckpt", params, meta=meta)
            return manifest

        code, err = self._disaggregate_with_manifest(tmp_path, capsys, reshape_code_weights)
        assert code == 3 and "code: shape mismatch for 'weights'" in err

    def test_checkpoint_value_beyond_float32_exits_2_naming_it(self, tmp_path, capsys):
        # A float64 tensor is refused before the float32 net is built, so
        # 1e300, which has no float32 value, never reaches it.
        def overflow_code_weights(manifest):
            ckpt = tmp_path / "out" / "models" / "kettle_dae.ckpt"
            params, meta = load_checkpoint(ckpt)
            params["code/weights"] = params["code/weights"].astype(np.float64)
            params["code/weights"][0, 0] = 1e300
            save_checkpoint(ckpt, params, meta=meta)
            return manifest

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self._disaggregate_with_manifest(tmp_path, capsys,
                                                         overflow_code_weights)
        assert code == 2 and "kettle_dae.ckpt: tensor 'code/weights'" in err

    def test_inference_draws_no_random_weights(self, tmp_path, capsys, monkeypatch):
        # The network is built from the checkpoint: nothing is drawn from
        # the manifest's seed.
        def no_rng(*args):
            raise AssertionError(f"rng_for{args} called")

        def check(manifest):
            monkeypatch.setattr(cli, "rng_for", no_rng)
            return manifest

        code, err = self._disaggregate_with_manifest(tmp_path, capsys, check)
        assert code == 0, err

    def test_truncated_manifest_exits_2(self, tmp_path, capsys):
        code, err = self._disaggregate_with_manifest(tmp_path, capsys, lambda m: '{"oops')
        assert code == 2 and "not a JSON manifest" in err

    def test_non_object_manifest_exits_2(self, tmp_path, capsys):
        code, err = self._disaggregate_with_manifest(tmp_path, capsys, lambda m: [1, 2])
        assert code == 2 and "not a JSON object" in err

    def test_checkpoint_without_manifest_exits_2(self, tmp_path, capsys):
        # The header meta of a checkpoint written while the manifest was a
        # file of its own.
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        main(["train", "--config", str(path), "--appliance", "kettle", "--kind", "dae"])
        ckpt = tmp_path / "out" / "models" / "kettle_dae.ckpt"
        params, _ = load_checkpoint(ckpt)
        save_checkpoint(ckpt, params, meta={"manifest_sha256": "0" * 64, "step": 4})
        capsys.readouterr()
        assert main(["disaggregate", "--config", str(path), "--appliance", "kettle",
                     "--kind", "dae"]) == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: not a JSON manifest" in err and "retrain" in err

    @pytest.mark.parametrize("key", ["window_width", "max_power", "input_std"])
    def test_manifest_without_key_exits_2(self, tmp_path, capsys, key):
        def drop(manifest):
            del manifest[key]
            return manifest

        code, err = self._disaggregate_with_manifest(tmp_path, capsys, drop)
        assert code == 2 and f"manifest lacks {key}" in err

    @pytest.mark.parametrize("key, value, match", [
        ("window_width", None, "window_width must be positive and an integer"),
        ("window_width", 24.5, "window_width must be positive and an integer"),
        ("input_std", float("inf"), "input_std must be positive"),
        ("max_power", True, "max_power must be positive"),
    ])
    def test_manifest_with_bad_value_exits_2(self, tmp_path, capsys, key, value, match):
        def replace(manifest):
            manifest[key] = value
            return manifest

        code, err = self._disaggregate_with_manifest(tmp_path, capsys, replace)
        ckpt = tmp_path / "out" / "models" / "kettle_dae.ckpt"
        assert code == 2 and f"data error: {ckpt}: manifest {match}" in err

    def test_manifest_seed_is_not_read(self, tmp_path, capsys):
        def drop_seed(manifest):
            del manifest["seed"]
            return manifest

        code, err = self._disaggregate_with_manifest(tmp_path, capsys, drop_seed)
        assert code == 0, err

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

    @pytest.mark.parametrize("value", ["x", None, float("nan")])
    def test_store_start_time_not_a_number_exits_2(self, tmp_path, capsys, value):
        code, err, store = self._train_with_store(
            tmp_path, capsys,
            self._edit_store(lambda payload: payload.update(series_start_time=value)))
        assert code == 2
        assert err == f"data error: {store}: series_start_time must be a finite number\n"

    def test_store_off_the_aggregate_exits_2(self, tmp_path, capsys):
        code, err, store = self._train_with_store(
            tmp_path, capsys,
            self._edit_store(lambda payload: payload.update(series_start_time=1e20)))
        assert code == 2 and str(store) in err
        assert "activations lies on the aggregate (series_start_time 1e+20" in err
        assert not list((tmp_path / "out" / "models").glob("*.ckpt"))

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
        ("kettle", "values", [1.0, [2.0]]),
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

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400,
                                        str(int(sys.float_info.max) + 1)],
                             ids=["nan", "infinity", "minus-infinity", "float-overflow",
                                  "int-overflow", "int-above-float-max"])
    def test_store_value_not_a_finite_float_exits_2(self, tmp_path, capsys, number):
        def edit(text):
            payload = json.loads(text)
            payload["activations"][0]["values"][0] = "NUMBER"
            return canonical_json(payload).replace('"NUMBER"', number)

        code, err, store = self._train_with_store(tmp_path, capsys, edit)
        assert code == 2 and "every activation needs a source_offset and values" in err

    @pytest.mark.parametrize("argv", [
        ["train", "--appliance", "kettle", "--kind", "dae"],
        ["disaggregate", "--appliance", "kettle", "--baseline", "co"],
    ], ids=["train", "baseline"])
    def test_store_of_another_sample_period_exits_2(self, tmp_path, capsys, argv):
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        raw = json.loads(path.read_text())
        raw["sample_period"] = 30
        path.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(argv[:1] + ["--config", str(path)] + argv[1:]) == 2
        err = capsys.readouterr().err
        store = tmp_path / "out" / "activations" / "kettle_house1.json"
        assert str(store) in err and "extracted at 6 s" in err
        assert "sample_period is 30 s" in err and "run `disagg extract` again" in err

    @pytest.mark.parametrize("key, value", [
        ("on_power_threshold", 1100), ("min_on_duration", 18), ("min_off_duration", 6),
        ("max_power", 2500), ("max_forward_fill", 60),
    ])
    def test_store_of_other_extraction_settings_exits_2(self, tmp_path, capsys, key, value):
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        raw = json.loads(path.read_text())
        if key == "max_forward_fill":
            raw[key] = value
        else:
            raw["appliances"][0][key] = value
        path.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["train", "--config", str(path), "--appliance", "kettle",
                     "--kind", "dae"]) == 2
        err = capsys.readouterr().err
        store = tmp_path / "out" / "activations" / "kettle_house1.json"
        assert str(store) in err and f"the config's {key} is {float(value)}" in err
        assert "run `disagg extract` again" in err
        assert not (tmp_path / "out" / "models").exists()

    def test_train_without_activations_of_its_appliance_exits_2(self, tmp_path, capsys):
        # A threshold above the kettle's 2,000 W leaves every store without
        # a kettle activation.
        path = world_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["appliances"][0]["on_power_threshold"] = 2300
        path.write_text(json.dumps(raw))
        assert main(["extract", "--config", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["1,0,7,7", "2,0,7,9"]
        assert main(["train", "--config", str(path), "--appliance", "kettle",
                     "--kind", "dae"]) == 2
        store = tmp_path / "out" / "activations" / "kettle_house1.json"
        assert capsys.readouterr().err == (
            f"data error: no training activations for 'kettle' in {store}\n")
        assert not (tmp_path / "out" / "models").exists()

    def test_lstm_disaggregate_leaves_no_foreground_thread(self, tmp_path):
        # Bidirectional layers run a worker thread; it must not keep the
        # process alive once the command has returned, so the command run
        # as its own process exits.
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        assert main(["train", "--config", str(path), "--appliance", "kettle",
                     "--kind", "lstm"]) == 0
        child = subprocess.run(
            [sys.executable, "-m", "disagg.cli", "disaggregate", "--config", str(path),
             "--appliance", "kettle", "--kind", "lstm"],
            env=cli_env(), capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr

    @pytest.mark.parametrize("warnings_as_errors", [False, True], ids=["default", "W-error"])
    def test_aggregate_sample_beyond_float32_exits_3(self, tmp_path, warnings_as_errors):
        # 1e300 W has no float32 value: the float32 net's input cast gives
        # Infinity, which the finite checks report, with no cast warning.
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        assert main(["train", "--config", str(path), "--appliance", "kettle",
                     "--kind", "dae"]) == 0
        aggregate = tmp_path / "data" / "house_2" / "aggregate.csv"
        lines = aggregate.read_text().splitlines(keepends=True)
        lines[10] = lines[10].split(",")[0] + ",1e300\n"
        aggregate.write_text("".join(lines))
        flags = ["-W", "error"] if warnings_as_errors else []
        child = subprocess.run(
            [sys.executable, *flags, "-m", "disagg.cli", "disaggregate", "--config", str(path),
             "--appliance", "kettle", "--kind", "dae"],
            env=cli_env(), capture_output=True, text=True, timeout=120)
        assert child.returncode == 3, child.stderr
        assert re.fullmatch(r"numeric failure: non-finite values after forward of layer "
                            r"'\w+'\n", child.stderr), child.stderr
        assert not (tmp_path / "out" / "estimates").exists()

    @pytest.mark.parametrize("shape, nbytes", [([10**30], 4 * 10**30), ([2**62, 4], 0),
                                               ([10**30, 0], 0)],
                             ids=["beyond-int64", "wraps-int64", "empty-beyond-int64"])
    def test_checkpoint_dimension_beyond_int64_exits_2(self, tmp_path, capsys, shape, nbytes):
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        main(["train", "--config", str(path), "--appliance", "kettle", "--kind", "dae"])
        ckpt = tmp_path / "out" / "models" / "kettle_dae.ckpt"
        header_line, body = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["tensors"][0].update(shape=shape, nbytes=nbytes)
        ckpt.write_bytes(canonical_json(header).encode() + body)
        capsys.readouterr()
        assert main(["disaggregate", "--config", str(path), "--appliance", "kettle",
                     "--kind", "dae"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {ckpt}: ") and err.count("\n") == 1

    def test_non_finite_second_block_of_a_pair_exits_3(self, tmp_path, capsys, monkeypatch,
                                                       lane_jobs):
        # The net's output is non-finite in the second of the two blocks of
        # the test house's aggregate alone, its partial block.  With that
        # block on the lane worker the command fails as it does in turn.
        path = world_config(tmp_path)
        main(["extract", "--config", str(path)])
        assert main(["train", "--config", str(path), "--appliance", "kettle",
                     "--kind", "dae"]) == 0
        aggregate = tmp_path / "data" / "house_2" / "aggregate.csv"
        lines = aggregate.read_text().splitlines(keepends=True)
        width, stride = 24, 6
        total = 99 * stride - width  # 100 windows: a block of 64 and one of 36
        aggregate.write_text("".join(lines[: 1 + total]))
        build_network = architectures.build_network

        class PartialBlockPoison:
            name, params = "poison", {}

            def forward(self, x):
                return x if len(x) == sliding.SLIDE_BATCH else x * np.nan

        def poisoned(*args):
            net = build_network(*args)
            return Network(net.layers + [PartialBlockPoison()], net.output_kind,
                           net.output_offset)

        monkeypatch.setattr(architectures, "build_network", poisoned)
        argv = ["disaggregate", "--config", str(path), "--appliance", "kettle", "--kind", "dae"]
        estimate = tmp_path / "out" / "estimates" / "kettle_dae_house2.csv"
        capsys.readouterr()
        monkeypatch.setattr(blas, "threads", lambda: 2)
        assert main(argv) == 3
        in_turn = capsys.readouterr().err
        assert not lane_jobs
        monkeypatch.setattr(blas, "threads", lambda: 1)
        monkeypatch.setattr(layers, "LANE_MIN_WORK", 0)
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert len(lane_jobs) == 1
        assert err == in_turn == ("numeric failure: non-finite values after forward of layer "
                                  "'poison'\n")
        assert not estimate.exists() and not estimate.with_suffix(".json").exists()

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

    def test_no_command_is_a_usage_error(self, capsys):
        assert main([]) == 1
        assert "the following arguments are required: command" in capsys.readouterr().err

    def test_neither_baseline_nor_kind_is_a_usage_error(self, tmp_path, capsys):
        path = world_config(tmp_path)
        assert main(["disaggregate", "--config", str(path), "--appliance", "kettle"]) == 1
        assert "one of the arguments --kind --baseline is required" in capsys.readouterr().err

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
    """The one-`csv.writer`-call-per-row estimate writer, kept as the oracle.

    Timestamps are integers when the series starts on a whole second;
    otherwise `csv.writer` writes each float as its repr."""
    series = estimate.series
    timestamps = series.timestamps().tolist()
    if float(series.start_time).is_integer():
        timestamps = [int(t) for t in timestamps]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        if estimate.probability is None:
            writer.writerow(["timestamp", "estimated_watts"])
            for t, w in zip(timestamps, series.values):
                writer.writerow([t, format(float(w), ".6f")])
        else:
            writer.writerow(["timestamp", "estimated_watts", "probability"])
            for t, w, p in zip(timestamps, series.values, estimate.probability):
                writer.writerow([t, format(float(w), ".6f"), format(p, ".6f")])


# Values whose sixth decimal rounds (binary halves and near-halves), a
# zero, and large watts.
ROUNDING_VALUES = [0.0, 5e-7, 1.5e-6, 2.5e-7, 0.9999995, 1.2345675, 0.1234565,
                   123456.1234565, 999999.9999995, 3e7 + 0.25]


class TestEstimateCsv:
    @pytest.mark.parametrize("length", [0, 1, CSV_WRITE_CHUNK, CSV_WRITE_CHUNK + 1,
                                        2 * CSV_WRITE_CHUNK + 3])
    @pytest.mark.parametrize("start_time", [1_300_000_000.7, 2.0**31 + 5.5, 1_300_000_000.0])
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
