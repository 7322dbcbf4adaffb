"""Command-line pipeline: extract, synth-preview, train, disaggregate,
evaluate, report.

Every command is a pure function of the config file: the seed and the
profile are set there and no option overrides them.  Artifacts are
written with stable formatting and derived RNG streams, so re-running a
command reproduces its outputs byte for byte.  The one exception is the
training loss log's wallclock column, which records real elapsed time.

Exit codes: 0 ok, 1 usage/config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__, architectures, baselines, blas, datagen, metrics, sliding
from . import timeseries as ts
from .config import ApplianceConfig, ExperimentConfig, load_config
from .errors import ConfigError, DataError, DimensionError, NumericError, UsageError
from .nn import NesterovSGD, load_checkpoint, save_checkpoint
from .util import canonical_json, channel_slug, is_number, rng_for

BASELINE_ALGOS = ("co", "fhmm")
ALGORITHMS = architectures.KINDS + BASELINE_ALGOS
MANIFEST_KEYS = ("window_width", "max_power", "input_std")  # read by inference


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def make_parser() -> _Parser:
    parser = _Parser(prog="disagg", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")

    p = sub.add_parser("extract", help="extract appliance activations from channel CSVs")
    common(p)

    p = sub.add_parser("synth-preview", help="write a sample of synthetic training windows")
    common(p)
    p.add_argument("--appliance", required=True)
    p.add_argument("--count", type=int, default=8)

    p = sub.add_parser("train", help="train one network for one appliance")
    common(p)
    p.add_argument("--appliance", required=True)
    p.add_argument("--kind", required=True, choices=architectures.KINDS)

    p = sub.add_parser("disaggregate", help="estimate appliance power from an aggregate")
    common(p)
    p.add_argument("--appliance", required=True)
    algo = p.add_mutually_exclusive_group(required=True)
    algo.add_argument("--kind", choices=architectures.KINDS, help="trained architecture to use")
    algo.add_argument("--baseline", choices=BASELINE_ALGOS)
    p.add_argument("--house", type=int, default=None, help="test house (default: first)")

    p = sub.add_parser("evaluate", help="score estimates against ground truth")
    common(p)
    p.add_argument("--appliance", required=True)
    p.add_argument("--algorithm", action="append", default=None, choices=ALGORITHMS,
                   help="algorithms to score (repeatable; default: all found)")
    p.add_argument("--house", type=int, default=None)

    p = sub.add_parser("report", help="merge evaluation results into one CSV table")
    common(p)
    return parser


def main(argv=None) -> int:
    try:
        return run(argv)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, DimensionError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # names its path: a directory read as a file, a file in the way
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def run(argv=None) -> int:
    args = make_parser().parse_args(argv)
    cfg = load_config(args.config)
    if args.command == "extract":
        cmd_extract(cfg)
    elif args.command == "synth-preview":
        cmd_synth_preview(cfg, args.appliance, args.count)
    elif args.command == "train":
        cmd_train(cfg, args.appliance, args.kind)
    elif args.command == "disaggregate":
        cmd_disaggregate(cfg, args.appliance, kind=args.kind, baseline=args.baseline,
                         house=args.house)
    elif args.command == "evaluate":
        cmd_evaluate(cfg, args.appliance, algorithms=args.algorithm, house=args.house)
    elif args.command == "report":
        cmd_report(cfg)
    return 0


# -- extract ------------------------------------------------------------

def _channel_path(cfg: ExperimentConfig, house: int, channel: str) -> Path:
    return cfg.data_dir / f"house_{house}" / f"{channel_slug(channel)}.csv"


def _store_path(cfg: ExperimentConfig, appliance: str, house: int) -> Path:
    return cfg.out_dir / "activations" / f"{channel_slug(appliance)}_house{house}.json"


def _load_channel(cfg: ExperimentConfig, house: int, channel: str) -> ts.PowerSeries:
    path = _channel_path(cfg, house, channel)
    if not path.exists():
        raise DataError(f"missing channel file: {path}")
    return ts.load_csv(path, cfg.sample_period, cfg.max_forward_fill)


def _extraction_settings(cfg: ExperimentConfig, appliance: str) -> dict:
    """The settings an appliance's stores are extracted with, each of which
    a store records and `_load_store` checks."""
    return {"sample_period": cfg.sample_period, "max_forward_fill": cfg.max_forward_fill,
            **dataclasses.asdict(cfg.appliance(appliance).activation_params)}


def _models_path(cfg: ExperimentConfig) -> Path:
    return cfg.out_dir / "baselines" / "models.json"


def _model_settings(cfg: ExperimentConfig, appliance: str) -> dict:
    """The settings an appliance's baseline state models are fitted with,
    each of which `models.json` records and `_run_baseline` checks."""
    app = cfg.appliance(appliance)
    return {"state_count": app.state_count, "train_houses": list(app.train_houses),
            **_extraction_settings(cfg, appliance)}


def cmd_extract(cfg: ExperimentConfig):
    """Extract and store activations for every (appliance, house) pair, and
    fit each appliance's baseline state models from its train houses'.

    One channel is held at a time: its activations are written to a
    temporary file beside their store as soon as it is extracted, and an
    appliance's train-house activations are kept only until its models
    are fitted.  The temporary files replace the stores and `models.json`
    only once every channel has been extracted, so a run that fails or is
    interrupted before then leaves every file of an earlier run as it
    was.  A failed run leaves no temporary file, nor a directory it made."""
    store_dir = cfg.out_dir / "activations"
    models_path = _models_path(cfg)
    made = [d for d in (models_path.parent, store_dir, *store_dir.parents)
            if not d.exists()]  # deepest first
    pending = {}  # artifact -> its temporary file
    counts = {}
    models = {}
    try:
        store_dir.mkdir(parents=True, exist_ok=True)
        for name, app in cfg.appliances.items():
            train_acts = []  # in `_library`'s order
            for house in app.train_houses + app.test_houses:
                series = _load_channel(cfg, house, name)
                acts = ts.extract_activations(series, app.activation_params)
                store = _store_path(cfg, name, house)
                pending[store] = store.with_name(store.name + ".tmp")
                _write_store(pending[store], acts, {
                    "appliance": name,
                    "house": house,
                    "series_start_time": series.start_time,
                    **_extraction_settings(cfg, name),
                })
                counts[name, house] = len(acts)
                if house in app.train_houses:
                    train_acts += acts
                if house == app.train_houses[-1]:
                    model = (baselines.fit_states(train_acts, app.state_count, appliance_id=name)
                             if train_acts else None)
                    models[name] = {"model": model.to_dict() if model else None,
                                    **_model_settings(cfg, name)}
                    train_acts = None  # before the test houses are read
                del series, acts  # before the next channel is read
        models_path.parent.mkdir(exist_ok=True)
        pending[models_path] = models_path.with_name(models_path.name + ".tmp")
        pending[models_path].write_text(canonical_json(models))
        for artifact, temporary in pending.items():
            os.replace(temporary, artifact)
    except BaseException:
        for temporary in pending.values():
            with contextlib.suppress(OSError):  # not written yet
                temporary.unlink()
        for directory in made:
            with contextlib.suppress(OSError):  # not made yet, or holds another's file
                directory.rmdir()
        raise

    names = list(cfg.appliances)  # column order = config appliance order
    print("house," + ",".join(channel_slug(n) for n in names))
    for house in sorted({house for _, house in counts}):
        row = [str(counts.get((n, house), "")) for n in names]
        print(f"{house}," + ",".join(row))


def _write_store(path: Path, acts, fields: dict):
    """Write `canonical_json` of the store {"activations": [...], **fields}
    one activation at a time, so that no list or string of the whole
    store is built.  Every key of `fields` sorts after "activations"."""
    with open(path, "w") as f:
        f.write('{"activations":[')
        for i, a in enumerate(acts):
            entry = {"source_offset": a.source_offset, "values": a.values.tolist()}
            f.write("," * (i > 0) + canonical_json(entry)[:-1])  # without its newline
        f.write("]," + canonical_json(fields)[1:])


def _read_json_object(path: Path, what: str, keys) -> dict:
    """The JSON object in `path`; a DataError naming the file unless it is
    UTF-8 JSON holding an object with every one of `keys`."""
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:  # also a file that is not UTF-8
        raise DataError(f"{path}: not a JSON {what}: {exc}") from None
    return _json_object(path, what, payload, keys)


def _json_object(path: Path, what: str, payload, keys) -> dict:
    """`payload`, read from `path`; a DataError naming the file unless it is
    an object with every one of `keys`."""
    if not isinstance(payload, dict):
        raise DataError(f"{path}: {what} is not a JSON object")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise DataError(f"{path}: {what} lacks {', '.join(missing)}")
    return payload


def _stored_activation(entry, house: int) -> ts.Activation | None:
    """The activation of one store entry, or None unless its source_offset
    is a non-negative integer and its values a list of finite numbers."""
    if not isinstance(entry, dict):
        return None
    offset, values = entry.get("source_offset"), entry.get("values")
    if not (is_number(offset, integer=True) and offset >= 0
            and isinstance(values, list) and set(map(type, values)) <= {int, float}):
        return None
    try:
        array = np.array(values, dtype=np.float64)
    except OverflowError:  # an int beyond the float range
        return None
    # An int just above the largest float rounds to it: those (and NaN) go one by one.
    if not ((np.abs(array) < sys.float_info.max).all() or all(map(is_number, values))):
        return None
    return ts.Activation(source_offset=offset, values=array, house=house)


def _same_setting(recorded, value) -> bool:
    """Whether a setting read from a file is the config's `value`: an equal
    number (`is_number`), or a list of such numbers where `value` is a list."""
    if isinstance(value, list):
        return (isinstance(recorded, list) and len(recorded) == len(value)
                and all(map(_same_setting, recorded, value)))
    return is_number(recorded) and recorded == value


def _check_settings(source: str, payload: dict, settings: dict):
    """A DataError naming `source`, the file `payload` was read from, and the
    first of `settings` that it records with another value than the config's."""
    for key, value in settings.items():
        if not _same_setting(payload[key], value):
            unit = (" W" if "power" in key  # max_power, on_power_threshold
                    else "" if key in ("state_count", "train_houses") else " s")
            raise DataError(f"{source}: extracted at {payload[key]!r}{unit}, but the config's "
                            f"{key} is {value}{unit}; run `disagg extract` again")


def _load_store(cfg: ExperimentConfig, appliance: str, house: int):
    """Returns (activations, channel start time) for one store file."""
    path = _store_path(cfg, appliance, house)
    if not path.exists():
        raise DataError(f"missing activation store {path}; run `disagg extract` first")
    settings = _extraction_settings(cfg, appliance)
    payload = _read_json_object(path, "activation store",
                                ("activations", "series_start_time", *settings))
    _check_settings(str(path), payload, settings)
    acts = None
    if isinstance(payload["activations"], list):
        acts = [_stored_activation(entry, house) for entry in payload["activations"]]
    if acts is None or None in acts:
        raise DataError(f"{path}: every activation needs a source_offset and values "
                        "(a non-negative integer and a list of finite numbers)")
    if not is_number(payload["series_start_time"]):
        raise DataError(f"{path}: series_start_time must be a finite number")
    return acts, payload["series_start_time"]


def _train_stores(cfg: ExperimentConfig) -> dict:
    """{(appliance, house): (activations, channel start)} of every train-house
    store, each read once.  Test-house stores are never read: evaluation
    scores against the test house's own channel CSV."""
    return {(name, house): _load_store(cfg, name, house)
            for name, app in cfg.appliances.items() for house in app.train_houses}


def _library(cfg: ExperimentConfig, stores: dict) -> dict:
    """{appliance: tuple of its train-house activations}, houses in config
    order; every configured appliance is a key."""
    return {name: tuple(a for house in app.train_houses for a in stores[name, house][0])
            for name, app in cfg.appliances.items()}


def _no_activations(cfg: ExperimentConfig, appliance: str) -> DataError:
    stores = ", ".join(str(_store_path(cfg, appliance, house))
                       for house in cfg.appliance(appliance).train_houses)
    return DataError(f"no training activations for {appliance!r} in {stores}")


# -- train ----------------------------------------------------------------

def _model_base(cfg: ExperimentConfig, appliance: str, kind: str) -> Path:
    return cfg.out_dir / "models" / f"{channel_slug(appliance)}_{kind}"


def _train_houses(cfg: ExperimentConfig, appliance: str, stores: dict):
    """(aggregate, target activations on the aggregate's grid) of every train house.
    An activation off that grid is dropped, as a channel may outlast the
    aggregate, but a store with none on it is a DataError."""
    houses = []
    for house in cfg.appliance(appliance).train_houses:
        aggregate = _load_channel(cfg, house, "aggregate")
        acts, channel_start = stores[appliance, house]
        # Shift channel-relative offsets onto the aggregate's grid.
        shift = round((channel_start - aggregate.start_time) / cfg.sample_period)
        house_acts = []
        for a in acts:
            offset = a.source_offset + shift
            if 0 <= offset and offset + len(a) <= len(aggregate):
                house_acts.append(ts.Activation(offset, a.values, house=house))
        if acts and not house_acts:
            raise DataError(f"{_store_path(cfg, appliance, house)}: none of its {len(acts)} "
                            f"activations lies on the aggregate (series_start_time "
                            f"{channel_start!r}, aggregate start {aggregate.start_time!r})")
        houses.append((aggregate, house_acts))
    return houses


def cmd_train(cfg: ExperimentConfig, appliance: str, kind: str):
    app = cfg.appliance(appliance)
    arch = cfg.architectures[kind]

    stores = _train_stores(cfg)
    library = _library(cfg, stores)
    if not library[appliance]:
        raise _no_activations(cfg, appliance)
    real, synth, spec = datagen.training_sources(
        _train_houses(cfg, appliance, stores), library, appliance,
        app.window_width, app.activation_params.max_power, cfg.std_sample_count,
        rng_for(cfg.seed, "std", appliance, kind))

    manifest = {
        "toolkit_version": __version__,
        "appliance_id": appliance,
        "kind": kind,
        **dataclasses.asdict(spec),
        **dataclasses.asdict(arch),
        "seed": cfg.seed,
        "profile": cfg.profile,
        "sample_period": cfg.sample_period,
        "train_houses": list(app.train_houses),
        "test_houses": list(app.test_houses),
        # The BLAS thread count sets the GEMMs' summation order, so the
        # parameters' bits are reproducible only at the same count.
        "blas_threads": blas.threads(),
    }
    network = architectures.build_network(kind, app.window_width,
                                          rng_for(cfg.seed, "init", appliance, kind))
    optimizer = NesterovSGD(network.parameters(), arch.learning_rate)
    base = _model_base(cfg, appliance, kind)
    base.parent.mkdir(parents=True, exist_ok=True)
    batches = datagen.prefetch(datagen.batch_stream(
        real, synth, spec, network.output_kind, arch.batch_size,
        rng_for(cfg.seed, "batches", appliance, kind)))

    def on_checkpoint(tag, step):
        suffix = "" if tag == "final" else f"_step{step}" if tag == "interval" else "_abort"
        save_checkpoint(base.with_name(base.name + suffix + ".ckpt"), network.parameters(),
                        meta={"manifest": manifest, "step": step})

    budget = arch.update_budget
    # Rows are written as they are logged, so an aborted run keeps its log.
    with open(base.with_name(base.name + "_loss.csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "loss", "smoothed_loss", "wallclock_s"])

        def log_row(step, loss, smoothed, wallclock):
            writer.writerow([step, format(loss, ".10g"), format(smoothed, ".10g"),
                             format(wallclock, ".3f")])

        try:
            result = architectures.train(
                network, batches, optimizer, budget, on_checkpoint=on_checkpoint,
                on_log=log_row)
        finally:
            batches.close()
    final_loss = result.smoothed[-1] if result.smoothed else float("nan")
    print(f"trained {appliance}/{kind}: {budget} updates, "
          f"final smoothed loss {final_loss:.6g}, input_std {spec.input_std:.3f}")


# -- synth-preview ----------------------------------------------------------

def cmd_synth_preview(cfg: ExperimentConfig, appliance: str, count: int):
    if count < 0:
        raise UsageError(f"--count must be >= 0, got {count}")
    app = cfg.appliance(appliance)
    rng = rng_for(cfg.seed, "synth-preview", appliance)
    # No real houses: the preview shows the simulator alone.
    _, synth, spec = datagen.training_sources(
        [], _library(cfg, _train_stores(cfg)), appliance, app.window_width,
        app.activation_params.max_power, min(cfg.std_sample_count, 100), rng)

    preview_dir = cfg.out_dir / "preview"
    preview_dir.mkdir(parents=True, exist_ok=True)
    windows = []
    with_target = 0
    for _ in range(count):
        raw_input, raw_target, placements = synth.sample(rng)
        with_target += any(p.is_target for p in placements)
        windows.append({
            "input": [round(float(v), 6) for v in spec.standardize(raw_input)],
            "target": [round(float(v), 6) for v in spec.scale_target(raw_target)],
            "placements": [
                {"appliance": p.appliance, "offset": p.offset, "length": len(p.values),
                 "is_target": p.is_target} for p in placements
            ],
        })
    payload = {"appliance": appliance, "window_width": app.window_width,
               "input_std": spec.input_std, "count": count, "windows": windows}
    out = preview_dir / f"{channel_slug(appliance)}_synth.json"
    out.write_text(canonical_json(payload))
    print(f"wrote {count} synthetic windows ({with_target} with target) to {out}")


# -- disaggregate -----------------------------------------------------------

def _estimate_path(cfg, appliance, algo, house) -> Path:
    return cfg.out_dir / "estimates" / f"{channel_slug(appliance)}_{algo}_house{house}.csv"


def _write_estimate_csv(path, estimate: sliding.EstimateSeries):
    if estimate.probability is None:
        ts.write_rows(path, ("timestamp", "estimated_watts"), estimate.series)
    else:
        ts.write_rows(path, ("timestamp", "estimated_watts", "probability"),
                      estimate.series, estimate.probability)


def _runtime_info() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "toolkit": __version__, "blas_threads": blas.threads()}


def _test_house(app: ApplianceConfig, house: int | None) -> int:
    """`house`, or by default the appliance's first test house."""
    if house is not None:
        return house
    if not app.test_houses:
        raise ConfigError(f"appliance {app.name!r} has no test houses")
    return app.test_houses[0]


def cmd_disaggregate(cfg: ExperimentConfig, appliance: str, kind: str | None = None,
                     baseline: str | None = None, house: int | None = None):
    app = cfg.appliance(appliance)
    house = _test_house(app, house)
    aggregate = _load_channel(cfg, house, "aggregate")
    algo = baseline if baseline else kind

    if baseline:
        estimate, model_dicts = _run_baseline(cfg, appliance, baseline, aggregate)
        manifest = None
    else:
        estimate, manifest = _run_network(cfg, appliance, kind, aggregate)
        model_dicts = None

    est_path = _estimate_path(cfg, appliance, algo, house)
    est_path.parent.mkdir(parents=True, exist_ok=True)
    _write_estimate_csv(est_path, estimate)
    report = {
        "appliance": appliance,
        "algorithm": algo,
        "house": house,
        "samples": len(aggregate),
        "estimated_energy_watt_samples": float(np.sum(estimate.series.values)),
        "disagg_config": {"stride": cfg.disagg.stride,
                          "power_threshold": app.activation_params.on_power_threshold,
                          "probability_threshold": cfg.disagg.probability_threshold},
        "manifest": manifest,
        "baseline_models": model_dicts,
        "config": cfg.raw,
        "runtime": _runtime_info(),
    }
    est_path.with_suffix(".json").write_text(canonical_json(report))
    print(f"wrote estimate for {appliance}/{algo} house {house} -> {est_path}")


def _checkpoint_manifest(path: Path, meta: dict):
    """(training manifest, window spec) of a checkpoint header's meta; a DataError
    naming `path` unless the manifest is a JSON object holding a `WindowSpec`."""
    manifest = meta.get("manifest")
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: not a JSON manifest: the checkpoint header's manifest "
                        "is not a JSON object; retrain")
    missing = [key for key in MANIFEST_KEYS if key not in manifest]
    if missing:
        raise DataError(f"{path}: manifest lacks {', '.join(missing)}")
    try:
        return manifest, datagen.WindowSpec(**{key: manifest[key] for key in MANIFEST_KEYS})
    except DataError as exc:
        raise DataError(f"{path}: manifest {exc}") from None


def _run_network(cfg: ExperimentConfig, appliance: str, kind: str, aggregate):
    app = cfg.appliance(appliance)
    base = _model_base(cfg, appliance, kind)
    ckpt_path = base.with_name(base.name + ".ckpt")
    if not ckpt_path.exists():
        raise DataError(f"missing checkpoint {ckpt_path} for {appliance}/{kind}; train first")
    params, meta = load_checkpoint(ckpt_path)
    manifest, spec = _checkpoint_manifest(ckpt_path, meta)
    for name, value in params.items():
        if value.dtype != architectures.NETWORK_DTYPE:
            raise DataError(f"{ckpt_path}: tensor {name!r} is {value.dtype}, not "
                            f"{np.dtype(architectures.NETWORK_DTYPE)}; retrain")

    network = architectures.build_network(kind, spec.window_width, params)
    estimate = sliding.disaggregate(network, aggregate, spec, cfg.disagg,
                                    app.activation_params.on_power_threshold)
    return estimate, manifest


def _stored_model(entry, appliance: str) -> baselines.ApplianceStateModel | None:
    """The state model of one `models.json` entry, or None unless it is the
    `to_dict` of a valid model of `appliance`, every array a list of numbers."""
    depths = {"state_powers": 1, "transition": 2, "initial": 1, "emission_std": 1}

    def numbers(value, depth):
        return isinstance(value, list) and all(
            numbers(v, depth - 1) if depth > 1 else is_number(v) for v in value)

    if not (isinstance(entry, dict) and entry.get("appliance_id") == appliance
            and all(numbers(entry.get(key), depth) for key, depth in depths.items())):
        return None
    try:
        return baselines.ApplianceStateModel(appliance, *(entry[key] for key in depths))
    except (DataError, ValueError):  # an invalid model; a ragged transition matrix
        return None


def _read_models(cfg: ExperimentConfig) -> list:
    """The baseline state model of every configured appliance, in config
    order, from the `models.json` that `extract` fitted them into."""
    path = _models_path(cfg)
    if not path.exists():
        raise DataError(f"missing baseline models {path}; run `disagg extract` first")
    payload = _read_json_object(path, "baseline models file", cfg.appliances)
    models = []
    for name in cfg.appliances:
        settings = _model_settings(cfg, name)
        entry = _json_object(path, f"the entry of {name!r}", payload[name], ("model", *settings))
        _check_settings(f"{path} ({name!r})", entry, settings)
        if entry["model"] is None:
            raise _no_activations(cfg, name)
        model = _stored_model(entry["model"], name)
        if model is None:
            raise DataError(f"{path}: the model of {name!r} is not a valid state model; "
                            "run `disagg extract` again")
        models.append(model)
    return models


def _run_baseline(cfg: ExperimentConfig, appliance: str, algo: str, aggregate):
    models = _read_models(cfg)
    # The models the estimate is decoded with, as the benchmark's output
    # check (`perfbench/run.py`) reads them.
    model_dicts = [m.to_dict() for m in models]
    _models_path(cfg).with_name(f"{algo}_models.json").write_text(canonical_json(model_dicts))

    if algo == "co":
        estimates = baselines.co_disaggregate(aggregate, models)
    else:
        estimates = baselines.fhmm_disaggregate(aggregate, models)
    return estimates[appliance], model_dicts


# -- evaluate / report --------------------------------------------------------

def _check_alignment(name_a, series_a, name_b, series_b):
    if (series_a.start_time != series_b.start_time
            or series_a.sample_period != series_b.sample_period
            or len(series_a) != len(series_b)):
        raise DataError(
            f"misaligned grids: {name_a} starts {series_a.start_time} "
            f"({len(series_a)} x {series_a.sample_period}s) but {name_b} starts "
            f"{series_b.start_time} ({len(series_b)} x {series_b.sample_period}s)")


def _read_estimate_csv(path, sample_period: int) -> ts.PowerSeries:
    """The estimate series; a DataError naming the first timestamp that is
    not start + i * sample_period."""
    rows = ts.read_rows(path, extra_columns=True)  # a probability column is ignored
    if not len(rows):
        return ts.PowerSeries(0.0, sample_period, np.empty(0))
    series = ts.PowerSeries(float(rows[0, 0]), sample_period, np.ascontiguousarray(rows[:, 1]))
    off_grid = np.flatnonzero(series.timestamps() != rows[:, 0])
    if off_grid.size:
        raise DataError(f"{path}: timestamp {float(rows[off_grid[0], 0])} is off the "
                        f"{sample_period} s grid starting {series.start_time}")
    return series


def cmd_evaluate(cfg: ExperimentConfig, appliance: str, algorithms=None,
                 house: int | None = None):
    app = cfg.appliance(appliance)
    house = _test_house(app, house)
    truth = _load_channel(cfg, house, appliance)
    aggregate = _load_channel(cfg, house, "aggregate")
    _check_alignment("truth", truth, "aggregate", aggregate)

    if not algorithms:
        algorithms = sorted(algo for algo in ALGORITHMS
                            if _estimate_path(cfg, appliance, algo, house).exists())
        if not algorithms:
            raise DataError(f"no estimates found for {appliance} house {house}; "
                            "run disaggregate first")

    results = {}
    for algo in algorithms:
        path = _estimate_path(cfg, appliance, algo, house)
        if not path.exists():
            raise DataError(f"missing estimate {path}")
        estimate = _read_estimate_csv(path, cfg.sample_period)
        _check_alignment(f"estimate[{algo}]", estimate, "truth", truth)
        report = metrics.metrics_report(estimate.values, truth.values, aggregate.values,
                                        app.activation_params.on_power_threshold)
        results[algo] = report.to_dict()

    eval_dir = cfg.out_dir / "evaluation"
    eval_dir.mkdir(parents=True, exist_ok=True)
    payload = {"appliance": appliance, "house": house,
               "on_threshold": app.activation_params.on_power_threshold,
               "algorithms": results}
    out = eval_dir / f"metrics_{channel_slug(appliance)}_house{house}.json"
    out.write_text(canonical_json(payload))
    for algo in algorithms:
        scores = results[algo]
        print(f"{appliance}/{algo} house {house}: " +
              " ".join(f"{name}={scores[name]:.4f}" for name in metrics.MetricsReport.METRIC_NAMES))
    print(f"wrote {out}")


def _read_evaluation(path: Path) -> dict:
    """An evaluation file; a DataError unless it is a JSON object with an
    appliance (a string), a house (an integer) and every metric of each
    algorithm as a finite number."""
    payload = _read_json_object(path, "evaluation file", ("appliance", "house", "algorithms"))
    if not (isinstance(payload["appliance"], str) and is_number(payload["house"], integer=True)):
        raise DataError(f"{path}: appliance must be a string and house an integer")
    if not isinstance(payload["algorithms"], dict) or not all(
            isinstance(scores, dict) and all(is_number(scores.get(name))
                                             for name in metrics.MetricsReport.METRIC_NAMES)
            for scores in payload["algorithms"].values()):
        raise DataError(f"{path}: every algorithm needs each metric as a number, and a finite one")
    return payload


def cmd_report(cfg: ExperimentConfig):
    eval_dir = cfg.out_dir / "evaluation"
    rows = []
    for path in sorted(eval_dir.glob("metrics_*.json")):
        payload = _read_evaluation(path)
        for algo, scores in sorted(payload["algorithms"].items()):
            for metric in metrics.MetricsReport.METRIC_NAMES:
                rows.append((payload["appliance"], payload["house"], algo, metric,
                             scores[metric]))
    if not rows:
        raise DataError(f"no evaluation results under {eval_dir}; run evaluate first")
    out = eval_dir / "report.csv"
    with open(out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["appliance", "house", "algorithm", "metric", "value"])
        for row in rows:
            writer.writerow([row[0], row[1], row[2], row[3], format(row[4], ".6f")])
    print(f"wrote {out} ({len(rows)} rows)")


if __name__ == "__main__":
    sys.exit(main())
