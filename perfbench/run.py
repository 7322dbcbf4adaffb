"""Pipeline benchmark: the desk CLI from `extract` to `report`, end to end.

    python3 perfbench/run.py --workload long-house --seed 1 --seconds 30 --trace 0

From the seed it writes the workload's houses and config (set-up, timed
three times or more, until a second has passed), then runs whole rounds of the pipeline, at least
two and more while `--seconds` have not passed since the first began.
Each round runs every command, one at a time, and checks its outputs
(see checks.py); a workload may run its short command groups (extract,
baselines, evaluate) several times per round, and a group's time is then
the median of its passes.

--trace 0: each command runs as its own `python -m disagg.cli` child.
    Reports per command group the median over rounds of the wall time
    and of the highest child peak RSS, plus the median set-up time.
--trace 1: the same rounds run in-process through `disagg.cli.main`
    with spans around calls into each layer (spans.py).  Reports the
    median over rounds of every per-layer metric, and writes the spans
    to .perfbench_runs/trace-<workload>-s<seed>.jsonl.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Operations are commands; a non-zero exit or a failed
output check is a failure.  `correct` is false when the output of a
command that did not fail could not be checked.  The line before it records the machine.  BLAS
and OpenMP are held to one thread, in this process and every child.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from statistics import median

import spans
import workloads
from workloads import TARGET, TEST_HOUSE

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3      # at least, and until SETUP_MIN_S have been spent
SETUP_MIN_S = 1.0
MIN_ROUNDS = 2
COMMAND_TIMEOUT_S = 120


class Launcher:
    """Client of launch.py, which spawns and times the CLI children."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launch.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, cwd, env, log) -> dict:
        request = {"argv": argv, "cwd": str(cwd), "env": env, "log": str(log),
                   "timeout": COMMAND_TIMEOUT_S}
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        return json.loads(self.process.stdout.readline())

    def close(self):
        self.process.stdin.close()
        self.process.wait(timeout=30)


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration"),
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}}


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Verifier:
    """Checks each command's outputs in the working directory `inputs`.

    Expectations that depend only on the inputs are computed once; hashes
    of checkpoints and estimates are compared across rounds.
    """

    def __init__(self, workload, inputs):
        import checks  # loads NumPy

        self.checks, self.workload, self.inputs = checks, workload, inputs
        self.out = inputs / "out"
        self.config = workload.config()
        self.apps = {a["name"]: a for a in self.config["appliances"]}
        self.target = self.apps[TARGET]
        self.hashes = {}
        self.expected_counts = {}
        for name, app in self.apps.items():
            for house in app["train_houses"] + app["test_houses"]:
                values = checks.read_table(self._channel(house, name))[:, 1]
                self.expected_counts[(name, house)] = checks.count_activations(
                    values, self.config["sample_period"], app["on_power_threshold"],
                    app["min_on_duration"], app["min_off_duration"])
        aggregate = checks.read_table(self._channel(TEST_HOUSE, "aggregate"))
        self.timestamps, self.aggregate = aggregate[:, 0], aggregate[:, 1]
        self.truth = checks.read_table(self._channel(TEST_HOUSE, TARGET))[:, 1]

    def _channel(self, house, name):
        return self.inputs / "data" / f"house_{house}" / f"{name}.csv"

    def _estimate(self, algo):
        return self.out / "estimates" / f"{TARGET}_{algo}_house{TEST_HOUSE}.csv"

    def _same_as_before(self, path):
        digest = sha256(path)
        first = self.hashes.setdefault(path.name, digest)
        if digest != first:
            raise self.checks.CheckFailed(f"{path.name} differs from an earlier round "
                                          "of the same code and seed")

    def check(self, op):
        c = self.checks
        if op.command == "extract":
            stored = {}
            for name, house in self.expected_counts:
                path = self.out / "activations" / f"{name}_house{house}.json"
                stored[(name, house)] = len(json.loads(path.read_text())["activations"])
            c.check_activation_counts(stored, self.expected_counts)
        elif op.command == "train":
            base = self.out / "models" / f"{TARGET}_{op.kind}"
            budget = self.config["architectures"][op.kind]["update_budget"]
            c.check_loss_log(c.read_table(f"{base}_loss.csv"), budget)
            ckpt = Path(f"{base}.ckpt")
            c.check_parameter_count(c.checkpoint_parameter_count(ckpt), op.kind,
                                    self.target["window_width"])
            self._same_as_before(ckpt)
        elif op.command == "disaggregate":
            path = self._estimate(op.algo)
            estimate = c.read_table(path)
            c.check_estimate(estimate, self.timestamps, op.kind == "rectangles",
                             self.target["on_power_threshold"])
            if op.algo in ("co", "fhmm"):
                models = json.loads((self.out / "baselines" / f"{op.algo}_models.json")
                                    .read_text())
                if op.algo == "co":
                    c.check_co(estimate[:, 1], self.aggregate, models, TARGET)
                else:
                    c.check_state_powers(estimate[:, 1], models, TARGET)
            self._same_as_before(path)
        elif op.command == "evaluate":
            payload = self._evaluation()
            algorithms = self.workload.algorithms()
            if sorted(payload["algorithms"]) != algorithms:
                raise c.CheckFailed(f"evaluated {sorted(payload['algorithms'])}, "
                                    f"expected {algorithms}")
            for algo in algorithms:
                expected = c.seven_metrics(c.read_table(self._estimate(algo))[:, 1],
                                           self.truth, self.aggregate,
                                           self.target["on_power_threshold"])
                c.check_metrics(payload["algorithms"][algo], expected)
        elif op.command == "report":
            with open(self.out / "evaluation" / "report.csv") as f:
                rows = [line.rstrip("\n").split(",") for line in f][1:]
            c.check_report(rows, self._evaluation())

    def _evaluation(self):
        path = self.out / "evaluation" / f"metrics_{TARGET}_house{TEST_HOUSE}.json"
        return json.loads(path.read_text())


class Bench:
    def __init__(self, workload, seed, seconds, tracer, launcher, work, log):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.tracer, self.launcher, self.work, self.log = tracer, launcher, work, log
        self.attempted = self.failed = 0
        self.correct = True

    def run(self) -> dict:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            directory = self.work / f"setup{len(setup_times)}"
            start = time.perf_counter()
            workloads.write_inputs(self.workload, directory, self.seed)
            setup_times.append(time.perf_counter() - start)
            if len(setup_times) > 1:
                shutil.rmtree(directory)
        self.inputs = self.work / "setup0"
        self.verifier = Verifier(self.workload, self.inputs)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

        rounds = []
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < self.seconds:
            shutil.rmtree(self.inputs / "out", ignore_errors=True)
            rounds.append(self.round(len(rounds)))
            print(f"round {len(rounds)}: " + json.dumps(rounds[-1]), flush=True)

        if self.tracer:
            metrics = {name: median(r["per_layer"][name] for r in rounds)
                       for name in rounds[0]["per_layer"]}
        else:
            metrics = {"setup_s": median(setup_times)}
            metrics.update({name: median(r[name] for r in rounds)
                            for name in rounds[0] if name != "per_layer"})
        return metrics

    def round(self, index) -> dict:
        walls = defaultdict(float)          # (group, pass) -> seconds
        rss = defaultdict(float)            # group -> MB
        first_span = len(self.tracer.spans) if self.tracer else 0
        for op in self.workload.ops():
            argv = [*op.argv, "--config", str(self.inputs / "config.json")]
            code, wall, maxrss_kb = self.execute(op, argv)
            walls[op.group, op.repeat] += wall
            rss[op.group] = max(rss[op.group], maxrss_kb / 1024)
            self.attempted += 1
            if code != 0:
                self.failed += 1
                print(f"round {index + 1}: {' '.join(op.argv)} exited {code} "
                      f"(log: {self.log})", file=sys.stderr)
                continue
            try:
                self.verifier.check(op)
            except (self.verifier.checks.CheckFailed, OSError, ValueError, KeyError,
                    IndexError) as exc:
                self.failed += 1
                print(f"round {index + 1}: {' '.join(op.argv)}: check failed: {exc!r}",
                      file=sys.stderr)
            except Exception:
                # The output could not be checked: a fault of the benchmark.
                self.correct = False
                traceback.print_exc()
        out = {f"{g}_s": median(t for (group, _), t in walls.items() if group == g)
               for g in workloads.GROUPS}
        out["pipeline_s"] = sum(out.values())
        if self.tracer:
            out["per_layer"] = spans.per_layer(self.tracer.spans[first_span:])
        else:
            out.update({f"{g}_peak_rss_mb": rss[g] for g in workloads.GROUPS})
        return out

    def execute(self, op, argv):
        """Run one command; returns (exit code, wall seconds, peak RSS kB)."""
        if not self.tracer:
            result = self.launcher.run([sys.executable, "-m", "disagg.cli", *argv],
                                       self.inputs, self.env, self.log)
            return result["code"], result["wall_s"], result["maxrss_kb"]
        from disagg import cli

        self.tracer.tag = op.tag
        span = self.tracer.open(f"cli.{op.command}.self_s")
        with open(self.log, "a") as log, contextlib.redirect_stdout(log), \
                contextlib.redirect_stderr(log):
            try:
                code = cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = -1
        self.tracer.close(span)
        return code, span.duration, 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "disagg" / "cli.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src' / 'disagg'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before NumPy loads, here and in every child
    sys.path.insert(0, str(ROOT / "src"))
    # Start the launcher while this process is still small (see launch.py).
    launcher = None if args.trace else Launcher()
    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = RUNS / f"{name}-{os.getpid()}"
    log = RUNS / f"{name}.log"
    try:
        workload = workloads.get(args.workload)
        RUNS.mkdir(exist_ok=True)
        log.unlink(missing_ok=True)
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
        bench = Bench(workload, args.seed, args.seconds, tracer, launcher, work, log)
        try:
            values = bench.run()
        finally:
            if tracer:
                tracer.uninstall()
                tracer.write(RUNS / f"trace-{args.workload}-s{args.seed}.jsonl")
    finally:
        if launcher:
            launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        units = spans.PER_LAYER
    else:
        units = {name: ("MB" if name.endswith("_mb") else "s") for name in workloads.END_TO_END}
    print("machine " + json.dumps(machine()))
    print(json.dumps({"correct": bench.correct, "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
