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
from .config import ExperimentConfig, load_config
from .errors import ConfigError, DataError, DimensionError, NumericError, UsageError
from .nn import NesterovSGD, load_checkpoint, save_checkpoint
from .synthworld import channel_slug
from .util import canonical_json, format_watts, rng_for, sha256_text

BASELINE_ALGOS = ("co", "fhmm")


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
    p.add_argument("--kind", required=True)

    p = sub.add_parser("disaggregate", help="estimate appliance power from an aggregate")
    common(p)
    p.add_argument("--appliance", required=True)
    p.add_argument("--kind", default=None, help="trained architecture to use")
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
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
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


def _load_store(cfg: ExperimentConfig, appliance: str, house: int):
    """Returns (activations, channel start time) for one store file."""
    path = _store_path(cfg, appliance, house)
    if not path.exists():
        raise DataError(f"missing activation store {path}; run `disagg extract` first")
    payload = json.loads(path.read_text())
    acts = [ts.Activation(source_offset=a["source_offset"], values=a["values"], house=house)
            for a in payload["activations"]]
    return acts, payload["series_start_time"]


def _build_library(cfg: ExperimentConfig) -> ts.ActivationLibrary:
    library = ts.ActivationLibrary()
    for name, app in cfg.appliances.items():
        library.assign_houses(name, app.train_houses, app.test_houses)
        for house in app.train_houses + app.test_houses:
            library.add(name, house, _load_store(cfg, name, house)[0])
    return library


# -- train ----------------------------------------------------------------

def _model_base(cfg: ExperimentConfig, appliance: str, kind: str) -> Path:
    models = cfg.out_dir / "models"
    models.mkdir(parents=True, exist_ok=True)
    return models / f"{channel_slug(appliance)}_{kind}"


def _build_sources(cfg: ExperimentConfig, appliance: str, target_kind: str,
                   library: ts.ActivationLibrary, spec: datagen.WindowSpec):
    """Real windows from every train house, and the activation-sum simulator."""
    app = cfg.appliance(appliance)
    real_sources = []
    for house in app.train_houses:
        aggregate = _load_channel(cfg, house, "aggregate")
        _, channel_start = _load_store(cfg, appliance, house)
        # Shift channel-relative offsets onto the aggregate's grid.
        shift = round((channel_start - aggregate.start_time) / cfg.sample_period)
        house_acts = []
        for a in library.train_activations(appliance):
            if a.house != house:
                continue
            offset = a.source_offset + shift
            if 0 <= offset and offset + len(a) <= len(aggregate):
                house_acts.append(ts.Activation(offset, a.values, house=house))
        real_sources.append(datagen.RealWindowSource(aggregate, house_acts, spec,
                                                     target_kind))
    real = datagen.MultiSource(real_sources) if len(real_sources) != 1 else real_sources[0]
    synth = datagen.SyntheticSource(library, appliance, spec, target_kind)
    return real, synth


def _estimate_std(real, synth, sample_count: int, rng) -> float:
    def draw(r):
        # Mirror the 50:50 training mixture.
        if r.random() < 0.5:
            return real.sample_raw_input(r)
        return synth.sample_raw_input(r)

    return datagen.estimate_input_std(draw, sample_count, rng)


def cmd_train(cfg: ExperimentConfig, appliance: str, kind: str):
    if kind not in architectures.KINDS:
        raise UsageError(f"unknown kind {kind!r}; choose from {architectures.KINDS}")
    app = cfg.appliance(appliance)
    arch = cfg.architecture(kind)
    width = cfg.window_width(appliance)
    budget = cfg.update_budget(kind)
    target_kind = "rectangle" if kind == "rectangles" else "sequence"

    library = _build_library(cfg)
    base_spec = datagen.WindowSpec(appliance, width, app.activation_params.max_power)
    real, synth = _build_sources(cfg, appliance, target_kind, library, base_spec)
    input_std = _estimate_std(real, synth, cfg.std_sample_count,
                              rng_for(cfg.seed, "std", appliance, kind))
    spec = base_spec.with_input_std(input_std)
    for source in ([real] if not isinstance(real, datagen.MultiSource) else real.sources):
        source.spec = spec
    synth.spec = spec

    manifest = {
        "toolkit_version": __version__,
        "appliance_id": appliance,
        "kind": kind,
        "window_width": width,
        "max_power": app.activation_params.max_power,
        "input_std": input_std,
        "seed": cfg.seed,
        "profile": cfg.profile,
        "sample_period": cfg.sample_period,
        "train_houses": list(app.train_houses),
        "test_houses": list(app.test_houses),
        "update_budget": budget,
        "batch_size": arch.batch_size,
        "learning_rate": arch.learning_rate,
    }
    manifest_text = canonical_json(manifest)
    manifest_hash = sha256_text(manifest_text)
    base = _model_base(cfg, appliance, kind)
    base.with_name(base.name + "_manifest.json").write_text(manifest_text)

    network = architectures.build_network(kind, width, rng_for(cfg.seed, "init", appliance, kind))
    optimizer = NesterovSGD(network.parameters(), arch.learning_rate)
    batches = datagen.prefetch(datagen.batch_stream(
        real, synth, arch.batch_size, rng_for(cfg.seed, "batches", appliance, kind)))

    def on_checkpoint(tag, step):
        suffix = "" if tag == "final" else f"_step{step}" if tag == "interval" else "_abort"
        save_checkpoint(base.with_name(base.name + suffix + ".ckpt"), network.parameters(),
                        meta={"manifest_sha256": manifest_hash, "appliance": appliance,
                              "kind": kind, "step": step})

    checkpoint_every = max(1, budget // 4) if budget >= 1000 else None
    try:
        result = architectures.train(
            network, batches, optimizer, budget,
            on_checkpoint=on_checkpoint, checkpoint_every=checkpoint_every)
    finally:
        batches.close()

    with open(base.with_name(base.name + "_loss.csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "loss", "smoothed_loss", "wallclock_s"])
        for step, loss, smoothed, wallclock in zip(result.steps, result.losses,
                                                   result.smoothed, result.wallclock):
            writer.writerow([step, format(loss, ".10g"), format(smoothed, ".10g"),
                             format(wallclock, ".3f")])
    final_loss = result.smoothed[-1] if result.smoothed else float("nan")
    print(f"trained {appliance}/{kind}: {budget} updates, "
          f"final smoothed loss {final_loss:.6g}, input_std {input_std:.3f}")


# -- synth-preview ----------------------------------------------------------

def cmd_synth_preview(cfg: ExperimentConfig, appliance: str, count: int):
    app = cfg.appliance(appliance)
    width = cfg.window_width(appliance)
    library = _build_library(cfg)
    spec = datagen.WindowSpec(appliance, width, app.activation_params.max_power)
    synth = datagen.SyntheticSource(library, appliance, spec)
    rng = rng_for(cfg.seed, "synth-preview", appliance)
    std = _estimate_std(synth, synth, min(cfg.std_sample_count, 100), rng)
    synth.spec = spec.with_input_std(std)

    preview_dir = cfg.out_dir / "preview"
    preview_dir.mkdir(parents=True, exist_ok=True)
    windows = []
    with_target = 0
    for _ in range(count):
        pair = synth.sample(rng)
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
    payload = {"appliance": appliance, "window_width": width, "input_std": std,
               "count": count, "windows": windows}
    out = preview_dir / f"{channel_slug(appliance)}_synth.json"
    out.write_text(canonical_json(payload))
    print(f"wrote {count} synthetic windows ({with_target} with target) to {out}")


# -- disaggregate -----------------------------------------------------------

def _estimate_path(cfg, appliance, algo, house) -> Path:
    est_dir = cfg.out_dir / "estimates"
    est_dir.mkdir(parents=True, exist_ok=True)
    return est_dir / f"{channel_slug(appliance)}_{algo}_house{house}.csv"


def _write_estimate_csv(path, estimate: sliding.EstimateSeries):
    series = estimate.series
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        if estimate.probability is None:
            writer.writerow(["timestamp", "estimated_watts"])
            for t, w in zip(series.timestamps(), series.values):
                writer.writerow([int(t), format_watts(w)])
        else:
            writer.writerow(["timestamp", "estimated_watts", "probability"])
            for t, w, p in zip(series.timestamps(), series.values, estimate.probability):
                writer.writerow([int(t), format_watts(w), format(p, ".6f")])


def _runtime_info() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "toolkit": __version__}


def cmd_disaggregate(cfg: ExperimentConfig, appliance: str, kind: str | None = None,
                     baseline: str | None = None, house: int | None = None):
    app = cfg.appliance(appliance)
    if (kind is None) == (baseline is None):
        raise UsageError("pass exactly one of --kind or --baseline")
    if house is None:
        if not app.test_houses:
            raise ConfigError(f"appliance {appliance!r} has no test houses")
        house = app.test_houses[0]
    aggregate = _load_channel(cfg, house, "aggregate")
    algo = baseline if baseline else kind

    if baseline:
        estimate, model_dicts = _run_baseline(cfg, appliance, baseline, aggregate)
        checkpoint_hash = None
    else:
        estimate, checkpoint_hash = _run_network(cfg, appliance, kind, aggregate)
        model_dicts = None

    est_path = _estimate_path(cfg, appliance, algo, house)
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
        "checkpoint_sha256": checkpoint_hash,
        "baseline_models": model_dicts,
        "seed": cfg.seed,
        "config": cfg.raw,
        "runtime": _runtime_info(),
    }
    est_path.with_suffix(".json").write_text(canonical_json(report))
    print(f"wrote estimate for {appliance}/{algo} house {house} -> {est_path}")


def _run_network(cfg: ExperimentConfig, appliance: str, kind: str, aggregate):
    if kind not in architectures.KINDS:
        raise UsageError(f"unknown kind {kind!r}; choose from {architectures.KINDS}")
    app = cfg.appliance(appliance)
    base = _model_base(cfg, appliance, kind)
    ckpt_path = base.with_name(base.name + ".ckpt")
    manifest_path = base.with_name(base.name + "_manifest.json")
    if not ckpt_path.exists() or not manifest_path.exists():
        raise DataError(f"missing checkpoint or manifest for {appliance}/{kind}; train first")
    manifest_text = manifest_path.read_text()
    manifest = json.loads(manifest_text)
    params, meta = load_checkpoint(ckpt_path)
    actual_hash = sha256_text(canonical_json(manifest))
    if meta.get("manifest_sha256") != actual_hash:
        raise DataError(
            f"checkpoint/manifest hash mismatch for {appliance}/{kind}: "
            f"checkpoint says {meta.get('manifest_sha256')}, manifest is {actual_hash}")

    network = architectures.build_network(kind, manifest["window_width"],
                                          rng_for(manifest["seed"], "init", appliance, kind))
    network.load_parameters(params)
    spec = datagen.WindowSpec(appliance, manifest["window_width"], manifest["max_power"],
                              manifest["input_std"])
    config = sliding.DisaggConfig(
        stride=cfg.disagg.stride,
        power_threshold=app.activation_params.on_power_threshold,
        probability_threshold=cfg.disagg.probability_threshold)
    return sliding.disaggregate(network, aggregate, spec, config), actual_hash


def _run_baseline(cfg: ExperimentConfig, appliance: str, algo: str, aggregate):
    library = _build_library(cfg)
    models = []
    for name, app in cfg.appliances.items():
        acts = library.train_activations(name)
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
    timestamps, watts = [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)  # header
        for row in reader:
            timestamps.append(float(row[0]))
            watts.append(float(row[1]))
    if not timestamps:
        return ts.PowerSeries(0.0, sample_period, np.empty(0))
    return ts.PowerSeries(timestamps[0], sample_period, np.array(watts))


def cmd_evaluate(cfg: ExperimentConfig, appliance: str, algorithms=None,
                 house: int | None = None):
    app = cfg.appliance(appliance)
    if house is None:
        if not app.test_houses:
            raise ConfigError(f"appliance {appliance!r} has no test houses")
        house = app.test_houses[0]
    truth = _load_channel(cfg, house, appliance)
    aggregate = _load_channel(cfg, house, "aggregate")
    _check_alignment("truth", truth, "aggregate", aggregate)

    if not algorithms:
        prefix = f"{channel_slug(appliance)}_"
        suffix = f"_house{house}.csv"
        est_dir = cfg.out_dir / "estimates"
        algorithms = sorted(p.name[len(prefix):-len(suffix)]
                            for p in est_dir.glob(f"{prefix}*{suffix}"))
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


def cmd_report(cfg: ExperimentConfig):
    eval_dir = cfg.out_dir / "evaluation"
    rows = []
    for path in sorted(eval_dir.glob("metrics_*.json")):
        payload = json.loads(path.read_text())
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
