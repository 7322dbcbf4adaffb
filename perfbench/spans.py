"""Spans around calls into the program's layers, for the traced run.

The traced run executes the CLI in-process.  `Tracer.install` replaces
each traced function under the name its caller looks it up by (a module
attribute, or a method on its class) with a wrapper that records a span:
metric name, start, end, parent span, thread and the tag of the command
that produced it.  Spans stay in memory until `write` is called.

A span's self time is its duration minus the durations of its direct
children; children are always on the span's own thread, so they never
overlap one another.  Batch production runs on the `datagen.prefetch`
producer thread and its spans are tagged with the command that started
that thread.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict

KINDS = ("dae", "lstm", "rectangles")
LAYERS = {"dae": ("Conv1D", "Dense"), "lstm": ("Conv1D", "LSTM", "Dense"),
          "rectangles": ("Conv1D", "Dense")}
COMMANDS = ("extract", "train", "disaggregate", "evaluate", "report")

# Per-layer metric name -> unit.  Templates use {kind} (network kind of
# the command) and {cmd} (CLI command).
PER_LAYER = {
    "timeseries.load_csv.s": "s", "timeseries.load_csv.rows": "count",
    "timeseries.extract_activations.s": "s",
    "datagen.estimate_input_std.s": "s",
    "datagen.real_window.s": "s", "datagen.real_window.count": "count",
    "datagen.synth_window.s": "s", "datagen.synth_window.count": "count",
    "datagen.stack_pairs.s": "s", "datagen.batch_wait.s": "s",
    "architectures.train.s": "s", "architectures.train.updates": "count",
    **{f"nn.{k}.{layer}.{d}_s": "s" for k in KINDS for layer in LAYERS[k]
       for d in ("fwd", "bwd")},
    **{f"nn.{k}.{m}": u for k in KINDS for m, u in
       (("clip_s", "s"), ("step_s", "s"), ("infer_s", "s"), ("infer_windows", "count"))},
    "architectures.build_network.s": "s", "architectures.build_network.params": "count",
    "nn.load_checkpoint.s": "s",
    "nn.save_checkpoint.s": "s", "nn.save_checkpoint.bytes": "bytes",
    "sliding.slide.self_s": "s", "sliding.slide.windows": "count",
    "sliding.combine_mean.s": "s", "sliding.combine_rectangles.s": "s",
    "baselines.fit_states.s": "s", "baselines.co_disaggregate.s": "s",
    "baselines.fhmm_disaggregate.s": "s", "baselines.fhmm.samples": "count",
    "baselines.fhmm.joint_states": "count",
    "metrics.metrics_report.s": "s",
    **{f"cli.{c}.self_s": "s" for c in COMMANDS},
}


SIZES = {"baselines.fhmm.joint_states"}


def _one(args, result):
    return 1


def _patches():
    """(owner, attribute, time metric, counters, only-under-command)."""
    from disagg import architectures, baselines, cli, datagen, metrics, sliding, timeseries
    from disagg.nn import layers, network, optim

    table = [
        (timeseries, "load_csv", "timeseries.load_csv.s",
         {"timeseries.load_csv.rows": lambda a, r: len(r)}, None),
        (timeseries, "extract_activations", "timeseries.extract_activations.s", {}, None),
        (datagen, "estimate_input_std", "datagen.estimate_input_std.s", {}, None),
        (datagen.RealWindowSource, "sample", "datagen.real_window.s",
         {"datagen.real_window.count": _one}, None),
        (datagen.SyntheticSource, "sample", "datagen.synth_window.s",
         {"datagen.synth_window.count": _one}, None),
        (datagen, "stack_pairs", "datagen.stack_pairs.s", {}, None),
        (architectures, "train", "architectures.train.s",
         {"architectures.train.updates": lambda a, r: len(r.steps)}, None),
        (architectures, "clip_gradients", "nn.{kind}.clip_s", {}, "train"),
        (optim.NesterovSGD, "step", "nn.{kind}.step_s", {}, "train"),
        (network.Network, "forward", "nn.{kind}.infer_s",
         {"nn.{kind}.infer_windows": lambda a, r: len(a[1])}, "disaggregate"),
        (architectures, "build_network", "architectures.build_network.s",
         {"architectures.build_network.params": lambda a, r: r.parameter_count()},
         "disaggregate"),
        (cli, "load_checkpoint", "nn.load_checkpoint.s", {}, "disaggregate"),
        (cli, "save_checkpoint", "nn.save_checkpoint.s",
         {"nn.save_checkpoint.bytes": lambda a, r: os.path.getsize(a[0])}, None),
        (sliding, "slide", "sliding.slide.self_s",
         {"sliding.slide.windows": lambda a, r: len(r.origins)}, None),
        (sliding, "combine_mean", "sliding.combine_mean.s", {}, None),
        (sliding, "combine_rectangles", "sliding.combine_rectangles.s", {}, None),
        (baselines, "fit_states", "baselines.fit_states.s", {}, None),
        (baselines, "co_disaggregate", "baselines.co_disaggregate.s", {}, None),
        (baselines, "fhmm_disaggregate", "baselines.fhmm_disaggregate.s",
         {"baselines.fhmm.samples": lambda a, r: len(a[0]),
          "baselines.fhmm.joint_states": lambda a, r: _joint_states(a[1])}, None),
        (metrics, "metrics_report", "metrics.metrics_report.s", {}, None),
    ]
    for cls in (layers.Dense, layers.Conv1D, layers.LSTM):
        table.append((cls, "forward_cached", f"nn.{{kind}}.{cls.__name__}.fwd_s", {}, "train"))
        table.append((cls, "backward", f"nn.{{kind}}.{cls.__name__}.bwd_s", {}, "train"))
    return table, datagen


def _joint_states(models) -> int:
    count = 1
    for m in models:
        count *= m.num_states
    return count


class Span:
    __slots__ = ("metric", "start", "end", "parent", "thread", "tag", "counts", "only")

    def __init__(self, metric, parent, thread, tag, only):
        self.metric, self.parent, self.thread, self.tag, self.only = \
            metric, parent, thread, tag, only
        self.counts = None
        self.end = None
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.tag = None                 # tag of the command running on the main thread
        self._stacks = threading.local()
        self._thread_tags = {}
        self._restore = []

    def open(self, metric, only=None) -> Span:
        stack = self._stacks.__dict__.setdefault("stack", [])
        thread = threading.get_ident()
        if threading.current_thread() is threading.main_thread():
            tag = self.tag
        else:
            tag = self._thread_tags.setdefault(thread, self.tag)
        span = Span(metric, stack[-1] if stack else None, thread, tag, only)
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span, counts=None):
        span.end = time.perf_counter()
        span.counts = counts
        self._stacks.stack.pop()

    def wrap(self, fn, metric, counters, only):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(metric, only)
            counts = None
            try:
                result = fn(*args, **kwargs)
                counts = {name: f(args, result) for name, f in counters.items()}
                return result
            finally:
                self.close(span, counts)
        return traced

    def install(self):
        table, datagen = _patches()
        for owner, attr, metric, counters, only in table:
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, metric, counters, only))
        original_prefetch = datagen.prefetch
        self._restore.append((datagen, "prefetch", original_prefetch))
        datagen.prefetch = self._timed_prefetch(original_prefetch)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _timed_prefetch(self, prefetch):
        """Time each wait of the training loop on the prefetch queue."""
        @functools.wraps(prefetch)
        def traced(*args, **kwargs):
            batches = prefetch(*args, **kwargs)
            while True:
                span = self.open("datagen.batch_wait.s")
                try:
                    item = next(batches)
                except StopIteration:
                    return
                finally:
                    self.close(span)
                yield item
        return traced

    def write(self, path):
        """One JSON line per span; `parent` is the parent's line number."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps({
                    "name": span.metric, "start": span.start, "end": span.end,
                    "parent": index.get(id(span.parent)), "thread": span.thread,
                    "tag": span.tag, "counts": span.counts}) + "\n")


def per_layer(spans) -> dict:
    """Every PER_LAYER metric, summed over the finished spans given."""
    spans = [span for span in spans if span.end is not None]
    out = dict.fromkeys(PER_LAYER, 0.0)
    children = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)] += span.duration
    for span in spans:
        command, _, kind = (span.tag or "").partition(":")
        if span.only and span.only != command:
            continue
        fields = {"kind": kind, "cmd": command}
        seconds = span.duration
        if span.metric.endswith("self_s"):
            seconds -= children[id(span)]
        out[span.metric.format(**fields)] += seconds
        for name, value in (span.counts or {}).items():
            name = name.format(**fields)
            # A size, not an amount of work: repeated decodes do not add up.
            out[name] = max(out[name], value) if name in SIZES else out[name] + value
    return out
