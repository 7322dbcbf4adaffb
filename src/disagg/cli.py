"""Command-line pipeline: extract, synth-preview, train, disaggregate,
evaluate, report.

Every command is a pure function of (config, seed): artifacts are
written with stable formatting and derived RNG streams, so re-running a
command reproduces its outputs byte for byte.  The one exception is the
training loss log's wallclock column, which records real elapsed time.

Exit codes: 0 ok, 1 usage/config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__, architectures, baselines, datagen, metrics, sliding
from . import timeseries as ts
from .config import ApplianceConfig, ExperimentConfig, load_config
from .errors import ConfigError, DataError, DimensionError, NumericError, UsageError
from .nn import NesterovSGD, load_checkpoint, save_checkpoint
from .synthworld import channel_slug
from .util import canonical_json, rng_for, sha256_text

BASELINE_ALGOS = ("co", "fhmm")
MANIFEST_KEYS = ("window_width", "seed", "max_power", "input_std")  # checked by inference


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def make_parser() -> _Parser:
    parser = _Parser(prog="disagg", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--profile", choices=("paper", "desk"), default=None)

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
    p.add_argument("--kind", choices=architectures.KINDS, default=None,
                   help="trained architecture to use")
    p.add_argument("--baseline", choices=BASELINE_ALGOS, default=None)
    p.add_argument("--house", type=int, default=None, help="test house (default: first)")

    p = sub.add_parser("evaluate", help="score estimates against ground truth")
    common(p)
    p.add_argument("--appliance", required=True)
    p.add_argument("--algorithm", action="append", default=None,
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


def run(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if not args.command:
        raise UsageError("no command given (try --help)")
    cfg = load_config(args.config, seed_override=args.seed,
                      profile_override=args.profile)
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


def cmd_extract(cfg: ExperimentConfig):
    """Extract and store activations for every (appliance, house) pair."""
    store_dir = cfg.out_dir / "activations"
    store_dir.mkdir(parents=True, exist_ok=True)
    houses = sorted({h for a in cfg.appliances.values()
                     for h in a.train_houses + a.test_houses})
    counts = {}
    for name, app in cfg.appliances.items():
        for house in app.train_houses + app.test_houses:
            series = _load_channel(cfg, house, name)
            acts = ts.extract_activations(series, app.activation_params)
            payload = {
                "appliance": name,
                "house": house,
                "sample_period": cfg.sample_period,
                "series_start_time": series.start_time,
                "activations": [
                    {"source_offset": a.source_offset, "values": list(map(float, a.values))}
                    for a in acts
                ],
            }
            _store_path(cfg, name, house).write_text(canonical_json(payload))
            counts[(name, house)] = len(acts)

    names = list(cfg.appliances)  # column order = config appliance order
    print("house," + ",".join(channel_slug(n) for n in names))
    for house in houses:
        row = [str(counts.get((n, house), "")) for n in names]
        print(f"{house}," + ",".join(row))


def _read_json_object(path: Path, what: str, keys) -> dict:
    """The JSON object in `path`; a DataError naming the file unless it is
    UTF-8 JSON holding an object with every one of `keys`."""
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:  # also a file that is not UTF-8
        raise DataError(f"{path}: not a JSON {what}: {exc}") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: {what} is not a JSON object")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise DataError(f"{path}: {what} lacks {', '.join(missing)}")
    return payload


def _is_stored_activation(entry) -> bool:
    if not isinstance(entry, dict):
        return False
    offset, values = entry.get("source_offset"), entry.get("values")
    return (type(offset) is int and offset >= 0  # bool is an int subclass
            and isinstance(values, list)
            # A number that is finite as a float (NaN fails the comparison).
            and all(type(v) in (int, float) and abs(v) <= sys.float_info.max
                    for v in values))


def _load_store(cfg: ExperimentConfig, appliance: str, house: int):
    """Returns (activations, channel start time) for one store file."""
    path = _store_path(cfg, appliance, house)
    if not path.exists():
        raise DataError(f"missing activation store {path}; run `disagg extract` first")
    payload = _read_json_object(path, "activation store", ("activations", "series_start_time"))
    if not isinstance(payload["activations"], list) or not all(
            map(_is_stored_activation, payload["activations"])):
        raise DataError(f"{path}: every activation needs a source_offset and values "
                        "(a non-negative integer and a list of finite numbers)")
    acts = [ts.Activation(source_offset=a["source_offset"], values=a["values"], house=house)
            for a in payload["activations"]]
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


# -- train ----------------------------------------------------------------

def _model_base(cfg: ExperimentConfig, appliance: str, kind: str) -> Path:
    return cfg.out_dir / "models" / f"{channel_slug(appliance)}_{kind}"


def _train_houses(cfg: ExperimentConfig, appliance: str, stores: dict):
    """(aggregate, target activations on the aggregate's grid) of every train house."""
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
        houses.append((aggregate, house_acts))
    return houses


def cmd_train(cfg: ExperimentConfig, appliance: str, kind: str):
    app = cfg.appliance(appliance)
    arch = cfg.architectures[kind]

    stores = _train_stores(cfg)
    real, synth, spec = datagen.training_sources(
        _train_houses(cfg, appliance, stores), _library(cfg, stores), appliance,
        app.window_width, app.activation_params.max_power, cfg.std_sample_count,
        rng_for(cfg.seed, "std", appliance, kind))

    manifest = {
        "toolkit_version": __version__,
        "appliance_id": appliance,
        "kind": kind,
        "window_width": app.window_width,
        "max_power": app.activation_params.max_power,
        "input_std": spec.input_std,
        "seed": cfg.seed,
        "profile": cfg.profile,
        "sample_period": cfg.sample_period,
        "train_houses": list(app.train_houses),
        "test_houses": list(app.test_houses),
        "update_budget": arch.update_budget,
        "batch_size": arch.batch_size,
        "learning_rate": arch.learning_rate,
    }
    manifest_text = canonical_json(manifest)
    manifest_hash = sha256_text(manifest_text)
    base = _model_base(cfg, appliance, kind)
    base.parent.mkdir(parents=True, exist_ok=True)
    base.with_name(base.name + "_manifest.json").write_text(manifest_text)

    network = architectures.build_network(kind, app.window_width,
                                          rng_for(cfg.seed, "init", appliance, kind))
    optimizer = NesterovSGD(network.parameters(), arch.learning_rate)
    batches = datagen.prefetch(datagen.batch_stream(
        real, synth, spec, network.output_kind, arch.batch_size,
        rng_for(cfg.seed, "batches", appliance, kind)))

    def on_checkpoint(tag, step):
        suffix = "" if tag == "final" else f"_step{step}" if tag == "interval" else "_abort"
        save_checkpoint(base.with_name(base.name + suffix + ".ckpt"), network.parameters(),
                        meta={"manifest_sha256": manifest_hash, "appliance": appliance,
                              "kind": kind, "step": step})

    budget = arch.update_budget
    checkpoint_every = max(1, budget // 4) if budget >= 1000 else None
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
                checkpoint_every=checkpoint_every, on_log=log_row)
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
        pair = datagen.finish_pair(synth.sample(rng), spec, "sequence")
        has_target = any(p.is_target for p in pair.placements)
        with_target += has_target
        windows.append({
            "input": [round(float(v), 6) for v in pair.input],
            "target": [round(float(v), 6) for v in pair.target],
            "placements": [
                {"appliance": p.appliance, "offset": p.offset, "length": len(p.values),
                 "is_target": p.is_target} for p in pair.placements
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
            "toolkit": __version__}


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
    if (kind is None) == (baseline is None):
        raise UsageError("pass exactly one of --kind or --baseline")
    house = _test_house(app, house)
    aggregate = _load_channel(cfg, house, "aggregate")
    algo = baseline if baseline else kind

    if baseline:
        estimate, model_dicts = _run_baseline(cfg, appliance, baseline, aggregate)
        manifest_hash = None
    else:
        estimate, manifest_hash = _run_network(cfg, appliance, kind, aggregate)
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
        "manifest_sha256": manifest_hash,
        "baseline_models": model_dicts,
        "seed": cfg.seed,
        "config": cfg.raw,
        "runtime": _runtime_info(),
    }
    est_path.with_suffix(".json").write_text(canonical_json(report))
    print(f"wrote estimate for {appliance}/{algo} house {house} -> {est_path}")


def _read_manifest(path: Path) -> dict:
    """The trained manifest; a DataError unless it is a JSON object with
    every key inference reads and a non-negative integer width and seed."""
    manifest = _read_json_object(path, "manifest", MANIFEST_KEYS)
    for key in ("window_width", "seed"):
        if type(manifest[key]) is not int or manifest[key] < 0:  # bool is an int subclass
            raise DataError(f"{path}: manifest {key} must be a non-negative integer")
    return manifest


def _run_network(cfg: ExperimentConfig, appliance: str, kind: str, aggregate):
    app = cfg.appliance(appliance)
    base = _model_base(cfg, appliance, kind)
    ckpt_path = base.with_name(base.name + ".ckpt")
    manifest_path = base.with_name(base.name + "_manifest.json")
    if not ckpt_path.exists() or not manifest_path.exists():
        raise DataError(f"missing checkpoint or manifest for {appliance}/{kind}; train first")
    manifest = _read_manifest(manifest_path)
    params, meta = load_checkpoint(ckpt_path)
    for name, value in params.items():
        if value.dtype != architectures.NETWORK_DTYPE:
            raise DataError(f"{ckpt_path}: tensor {name!r} is {value.dtype}, not "
                            f"{np.dtype(architectures.NETWORK_DTYPE)}; retrain")
    actual_hash = sha256_text(canonical_json(manifest))
    if meta.get("manifest_sha256") != actual_hash:
        raise DataError(
            f"checkpoint/manifest hash mismatch for {appliance}/{kind}: "
            f"checkpoint says {meta.get('manifest_sha256')}, manifest is {actual_hash}")

    spec = datagen.WindowSpec(appliance, manifest["window_width"], manifest["max_power"],
                              manifest["input_std"])
    network = architectures.build_network(kind, manifest["window_width"], params)
    estimate = sliding.disaggregate(network, aggregate, spec, cfg.disagg,
                                    app.activation_params.on_power_threshold)
    return estimate, actual_hash


def _run_baseline(cfg: ExperimentConfig, appliance: str, algo: str, aggregate):
    library = _library(cfg, _train_stores(cfg))
    models = []
    for name, app in cfg.appliances.items():
        acts = library[name]
        if not acts:
            raise DataError(f"no training activations for {name!r}; run extract first")
        models.append(baselines.fit_states(acts, app.state_count, appliance_id=name))
    model_dicts = [m.to_dict() for m in models]
    models_dir = cfg.out_dir / "baselines"
    models_dir.mkdir(parents=True, exist_ok=True)
    (models_dir / f"{algo}_models.json").write_text(canonical_json(model_dicts))

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
    rows = ts.read_rows(path, extra_columns=True)  # a probability column is ignored
    if not len(rows):
        return ts.PowerSeries(0.0, sample_period, np.empty(0))
    return ts.PowerSeries(float(rows[0, 0]), sample_period, np.ascontiguousarray(rows[:, 1]))


def cmd_evaluate(cfg: ExperimentConfig, appliance: str, algorithms=None,
                 house: int | None = None):
    app = cfg.appliance(appliance)
    house = _test_house(app, house)
    truth = _load_channel(cfg, house, appliance)
    aggregate = _load_channel(cfg, house, "aggregate")
    _check_alignment("truth", truth, "aggregate", aggregate)

    if not algorithms:
        algorithms = sorted(algo for algo in architectures.KINDS + BASELINE_ALGOS
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
    appliance, a house and every metric of each algorithm as a number."""
    payload = _read_json_object(path, "evaluation file", ("appliance", "house", "algorithms"))
    if not isinstance(payload["algorithms"], dict) or not all(
            isinstance(scores, dict) and all(type(scores.get(name)) in (int, float)
                                             for name in metrics.MetricsReport.METRIC_NAMES)
            for scores in payload["algorithms"].values()):
        raise DataError(f"{path}: every algorithm needs each metric as a number")
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
