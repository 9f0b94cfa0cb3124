"""tadoc benchmark: ingest, seven analytics jobs and restore on a seeded corpus.

    env PYTHONHASHSEED=0 python3 perfbench/run.py --workload repetitive \
        --seed 1 --seconds 45 --trace 0

Acts as a user of tadoc would, from the root of a source checkout (tadoc
is imported from `src/`): generate the workload's corpus from the seed and
lay it out as files, `tadoc compress` it, run each analytics task as a
`tadoc analyze` job against the stored container, and restore the token
streams in memory. Every output is checked against `reference.py`, which
never imports tadoc. The measured part is a closed loop with one client:
rounds of ingest, restore and each job, repeated until `--seconds` have
passed. Every call is a sample, scaled by the host's speed around it
(see `calibrate.py`); each metric is the median of its samples.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` the run alternates untraced and traced
rounds, reports per-layer metrics from the spans recorded by `spans.py`,
prints the tracing overhead, and writes the spans under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import functools
import gc
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback

import calibrate
import reference
import selftest
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

# Each round repeats an operation until its calls cover at least this
# long, so a cheap operation gets many samples and one preempted call
# cannot move its median.
MIN_OP_S = 0.3
MIN_ROUNDS = 3
# Set-up is repeated until it has taken this long (within the rep limits).
SETUP_TOTAL_S = 2.5
SETUP_REPS = (5, 20)
ORDER_SENSITIVE = ("sequence-count", "ranked-inverted-index")
TASK_KEYS = {task: task.replace("-", "_") for task in reference.TASKS}

END_TO_END = [
    ("setup_s", "s"),
    ("ingest_mb_per_s", "MB/s"),
    ("compression_ratio", "x"),
    ("decompress_mb_per_s", "MB/s"),
    *[(f"{key}_ms", "ms") for key in TASK_KEYS.values()],
    ("ingest_peak_mb", "MB"),
    ("analyze_peak_mb", "MB"),
]

PER_LAYER = [
    ("corpus.encode_ms", "ms"),
    ("corpus.decode_ms", "ms"),
    ("sequitur.infer_ms", "ms"),
    ("sequitur.expand_ms", "ms"),
    ("sequitur.rules", "count"),
    ("sequitur.symbols", "count"),
    ("container.write_ms", "ms"),
    ("container.read_ms", "ms"),
    ("container.bytes", "bytes"),
    ("dag.load_ms", "ms"),
    ("dag.coarsen_ms", "ms"),
    ("dag.nodes", "count"),
    ("dag.coarse_nodes", "count"),
    *[(f"kernels.{key}_ms", "ms") for key in TASK_KEYS.values()],
    *[(f"bitmap.{kind}.inverted_index_ms", "ms") for kind in ("set", "bitmap", "twolevel")],
    ("scheduler.run_parallel_ms", "ms"),
    ("scheduler.plan_ms", "ms"),
    ("scheduler.max_load_tokens", "tokens"),
    ("scheduler.avg_load_tokens", "tokens"),
    ("scheduler.split_files", "count"),
    ("cli.serialize_ms", "ms"),
    ("cli.output_bytes", "bytes"),
]

# span name -> per-layer time metric, summed over one traced round
SPAN_METRICS = {
    "corpus.encode_corpus": "corpus.encode_ms",
    "corpus.decode_stream": "corpus.decode_ms",
    "sequitur.infer_grammar": "sequitur.infer_ms",
    "sequitur.expand": "sequitur.expand_ms",
    "container.write_container": "container.write_ms",
    "container.read_container": "container.read_ms",
    "dag.load_merge_graph": "dag.load_ms",
    "dag.coarsen": "dag.coarsen_ms",
    "cli._emit": "cli.serialize_ms",
}
# the same for the scheduler, whose spans also count inside the probe
SCHEDULER_METRICS = {
    "scheduler.run_parallel": "scheduler.run_parallel_ms",
    "scheduler.plan_partitions": "scheduler.plan_ms",
}


def load_tadoc() -> None:
    """Import tadoc from the checkout's sources; exit 2 when they are absent."""
    if not os.path.isfile(os.path.join(SRC, "tadoc", "__init__.py")):
        print(f"error: no tadoc sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import tadoc.cli  # noqa: F401


def run_cli(argv: list[str]):
    """tadoc's CLI entry point in-process: (exit code, stdout, stderr)."""
    from tadoc import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    return code, out, err


def analyze_argv(container: str, task: str, workers: int) -> list[str]:
    argv = ["analyze", container, task, "--variant", "auto", "--workers", str(workers)]
    if task in ORDER_SENSITIVE:
        argv += ["--l", str(reference.L)]
    return argv


def freeze_heap() -> None:
    """Keep the benchmark's own objects out of the collector's way.

    The corpus and the reference results stay alive through the run. Once
    frozen, a full collection that starts inside a timed call does not walk
    them, so it costs what it would in a tadoc process of its own.
    """
    gc.collect()
    gc.freeze()


def scaled_median(calls: list[tuple[float, float]]) -> float:
    """Median seconds of (seconds, speed factor) samples, each scaled."""
    return statistics.median(seconds / factor for seconds, factor in calls)


def round_seconds(calls: dict[str, list[tuple[float, float]]]) -> float:
    """Scaled seconds of a whole round."""
    return sum(seconds / factor for c in calls.values() for seconds, factor in c)


def describe(name: str, calls: list[tuple[float, float]]) -> None:
    """Print a timing's sample count, median and, from 40 samples, its tail.

    The tail is the highest percentile with at least ten samples above it.
    Times are scaled to the nominal speed; the unscaled median and the
    median speed factor follow in brackets.
    """
    values = sorted(seconds / factor for seconds, factor in calls)
    line = f"{name}: {len(values)} samples, median {statistics.median(values) * 1000:.3f} ms"
    if len(values) >= 40:
        pct = 100 * (len(values) - 10) / len(values)
        line += f", p{pct:.0f} {values[-11] * 1000:.3f} ms"
    raw = statistics.median(seconds for seconds, _ in calls)
    speed = statistics.median(factor for _, factor in calls)
    print(line + f" (unscaled median {raw * 1000:.3f} ms, speed factor {speed:.3f})")


class OpFailed(Exception):
    pass


class Bench:
    def __init__(self, spec: workloads.Spec, seed: int, workdir: str):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.corpus_dir = os.path.join(workdir, "corpus")
        self.container = os.path.join(workdir, "corpus.tdoc")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.verified: dict[str, str] = {}  # task -> output checked correct
        self.container_bytes = b""
        self.files: list[tuple[str, str]] = []
        self.raw_bytes = 0
        self.want: dict[str, list[tuple]] = {}

    # -- operations ------------------------------------------------------

    def call(self, fn):
        """One operation; a raised error or a non-zero exit counts as failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # the benchmark keeps running and reports it
            self.failed += 1
            print(traceback.format_exc(), file=sys.stderr)
            return None

    def sample(self, fn, reps: int, check, before: float) -> tuple[list, float]:
        """`reps` calls, each checked; (seconds, speed factor) of each call.

        Each call is timed on its own, after `gc.collect()`, and its result
        is checked and dropped before the next starts, so every call runs
        against the same heap. A pass of the reference loop follows each
        call; `before` is the pass that preceded the first, and the last
        pass is returned for the next sample.
        """
        calls = []
        for _ in range(reps):
            gc.collect()
            start = time.perf_counter()
            result = self.call(fn)
            seconds = time.perf_counter() - start
            if result is not None:
                check(result)
            after = calibrate.loop()
            calls.append((seconds, calibrate.factor(before, after)))
            before = after
        return calls, before

    def ingest(self):
        code, _, err = run_cli(["compress", self.corpus_dir, "--out", self.container])
        if code != 0:
            raise OpFailed(f"compress exited {code}: {err.getvalue().strip()}")
        return True

    def restore(self):
        from tadoc import container, corpus, sequitur

        dictionary, grammar, header = container.read_container(self.container_bytes)
        symbols = sequitur.expand(grammar)
        return header, corpus.decode_stream(symbols, dictionary)

    def job(self, task: str):
        def run():
            argv = analyze_argv(self.container, task, self.spec.workers)
            code, out, err = run_cli(argv)
            if code != 0:
                raise OpFailed(f"{task} exited {code}: {err.getvalue().strip()}")
            return out, err

        return run

    # -- checks (never inside a timed region) -----------------------------

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            print(f"check failed: {message}", file=sys.stderr)
        self.problems.append(message)

    def check_ingest(self, result) -> None:
        with open(self.container, "rb") as handle:
            data = handle.read()
        if not self.container_bytes:
            self.container_bytes = data
        elif data != self.container_bytes:
            self.problem("compress is not deterministic: container bytes differ")

    def check_restore(self, result) -> None:
        header, decoded = result
        if [entry.name for entry in header.file_table] != [n for n, _ in self.files]:
            self.problem("restore: file names differ from the corpus")
        if not reference.restored_matches([t for _, t in decoded], self.files):
            self.problem("restore: token streams differ from str.split()")

    def check_job(self, task: str, result) -> None:
        out, err = result
        if f"variant auto: {self.spec.variant} " not in err.getvalue():
            self.problem(f"{task}: auto did not pick {self.spec.variant}")
        text = out.getvalue()
        if text == self.verified.get(task):
            return
        verdict = reference.compare(
            task, reference.parse_tsv(task, text), self.want[task]
        )
        if verdict is None:
            self.verified[task] = text
        else:
            self.problem(verdict)

    # -- phases ----------------------------------------------------------

    def setup(self, reps: tuple[int, int]) -> list[tuple[float, float]]:
        """Generate the corpus and lay it out as files.

        Returns (CPU seconds, speed factor) of each rep, the factor from
        passes of the reference loop before and after it. CPU time, not
        wall time: on `many-files` half the set-up is writing 1200 files,
        and how long those writes wait on the disk depends on the
        writeback of earlier runs, which moved the wall-time median of ten
        runs by a fifth. Repeats at least reps[0] and at most reps[1]
        times, stopping once the reps have taken SETUP_TOTAL_S together.
        Every rep, and every
        run, overwrites the same files: creating and deleting a thousand
        files per run makes the file system's cleanup of one run slow down
        the next one's set-up several-fold, which measures the disk, not
        tadoc's users' set-up.
        """
        times: list[tuple[float, float]] = []
        before = calibrate.loop()
        while len(times) < reps[0] or (
            len(times) < reps[1] and sum(t for t, _ in times) < SETUP_TOTAL_S
        ):
            gc.collect()
            start = time.process_time()
            files = workloads.generate(self.spec, self.seed)
            raw = workloads.lay_out(files, self.corpus_dir)
            seconds = time.process_time() - start
            after = calibrate.loop()
            times.append((seconds, calibrate.factor(before, after)))
            before = after
        self.files, self.raw_bytes = files, raw
        self.want = reference.expected(files)
        return times

    def warm_up(self) -> dict[str, int]:
        """Two checked rounds; returns each operation's calls per round.

        The first round sizes the rounds; the second, at full size, lets
        the heap settle: without it the first restores of a run on
        `repetitive` could read 60% slower than the rest.
        """
        from tadoc import scheduler

        for problem in selftest.check_checker(run_cli, self.workdir):
            self.problem(problem)
        if self.spec.workers > 1:
            sizes = [len(text.split()) for _, text in self.files]
            if not scheduler.plan_partitions(sizes, self.spec.workers).split_files:
                self.problem("no file is split across the workers")
        calls = self.round({})
        reps = {key: max(1, math.ceil(MIN_OP_S / c[0][0])) for key, c in calls.items()}
        self.round(reps)
        return reps

    def round(self, reps: dict[str, int], tracer=None, round_no: int = 0):
        """Every operation once or more, checked.

        Returns (seconds, speed factor) of each call by key. Keys are
        "ingest", "restore" and the task names; a key missing from `reps`
        gets one call.
        """
        ops = [("ingest", self.ingest, self.check_ingest)]
        ops.append(("restore", self.restore, self.check_restore))
        for task in reference.TASKS:
            ops.append((task, self.job(task), functools.partial(self.check_job, task)))
        calls = {}
        before = calibrate.loop()
        for key, fn, check in ops:
            if tracer is not None:
                tracer.begin_op(round_no, key)
            calls[key], before = self.sample(fn, reps.get(key, 1), check, before)
        return calls

    def peaks(self) -> tuple[str, float | None, float | None]:
        """Peak memory of two fresh processes, one per metric, in turn.

        The first only compresses the corpus, to a container of its own;
        the second only runs the seven jobs against that container. This
        runs on a helper thread while the warm-up goes on, which is why it
        does not use the container the warm-up rewrites. Returns the
        children's stderr and the two peaks, None where a child failed.
        """
        peak_container = os.path.join(self.workdir, "peak.tdoc")
        runs = [
            [["compress", self.corpus_dir, "--out", peak_container]],
            [analyze_argv(peak_container, task, self.spec.workers) for task in reference.TASKS],
        ]
        errors, values = "", []
        for commands in runs:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "peak.py"), SRC, json.dumps(commands)],
                capture_output=True,
                text=True,
                timeout=120,
            )
            errors += proc.stderr
            ok = proc.returncode == 0
            values.append(float(proc.stdout.strip().splitlines()[-1]) if ok else None)
            if not ok:
                values.append(None)
                break
        return errors, values[0], values[1]

    def result(self, metrics: dict[str, float], units: list[tuple[str, str]]) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit} for name, unit in units
            },
        }

    # -- the two kinds of run -------------------------------------------

    def run_untraced(self, seconds: float) -> dict:
        setup_times = self.setup(SETUP_REPS)
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            peaks = pool.submit(self.peaks)
            reps = self.warm_up()
            errors, ingest_peak, analyze_peak = peaks.result()
        # one compress and seven jobs
        self.attempted += 1 + len(reference.TASKS)
        self.failed += (ingest_peak is None) + len(reference.TASKS) * (analyze_peak is None)
        if errors:
            print(errors, file=sys.stderr)
        freeze_heap()

        samples: dict[str, list[tuple[float, float]]] = {key: [] for key in reps}
        deadline = time.perf_counter() + seconds
        rounds = 0
        round_s = 0.0
        # whole rounds only, none that would end past the deadline
        while rounds < MIN_ROUNDS or time.perf_counter() + round_s < deadline:
            start = time.perf_counter()
            for key, calls in self.round(reps).items():
                samples[key] += calls
            round_s = time.perf_counter() - start
            rounds += 1

        mb = self.raw_bytes / 1e6
        metrics = {
            "setup_s": scaled_median(setup_times),
            "ingest_mb_per_s": mb / scaled_median(samples["ingest"]),
            "compression_ratio": self.raw_bytes / len(self.container_bytes),
            "decompress_mb_per_s": mb / scaled_median(samples["restore"]),
            "ingest_peak_mb": ingest_peak or 0.0,
            "analyze_peak_mb": analyze_peak or 0.0,
        }
        for task, key in TASK_KEYS.items():
            metrics[f"{key}_ms"] = scaled_median(samples[task]) * 1000
        print(f"rounds: {rounds}")
        describe("setup", setup_times)
        for key, calls in samples.items():
            describe(key, calls)
        return self.result(metrics, END_TO_END)

    def run_traced(self, seconds: float) -> dict:
        from tadoc import container, dag as dag_mod, kernels, scheduler, sequitur
        from spans import Tracer

        self.setup((1, 1))
        self.warm_up()
        freeze_heap()
        dictionary, grammar, header = container.read_container(self.container_bytes)
        loaded = dag_mod.load_merge_graph(grammar)
        counts = {
            "sequitur.rules": len(grammar.rules),
            "sequitur.symbols": sum(len(body) for body in grammar.rules),
            "container.bytes": len(self.container_bytes),
            "dag.nodes": len(loaded.nodes),
            "dag.coarse_nodes": len(dag_mod.coarsen(loaded, 100).nodes),
        }
        streams = None
        if self.spec.workers == 1:
            # The scheduler is off this workload's job path; a word-count run
            # through run_parallel with two workers gives its numbers.
            streams = [[] for _ in header.file_table]
            file_id = 0
            for sym in sequitur.expand(grammar):
                if dictionary.is_separator(sym):
                    file_id += 1
                else:
                    streams[file_id].append(sym)

        names = [entry.name for entry in header.file_table]
        tracer = Tracer()
        output_bytes = sum(len(self.verified.get(task, "")) for task in reference.TASKS)
        untraced, traced, factors = [], [], []
        deadline = time.perf_counter() + seconds
        rounds = 0
        pair_s = 0.0
        while rounds < MIN_ROUNDS or time.perf_counter() + pair_s < deadline:
            start = time.perf_counter()
            untraced.append(round_seconds(self.round({})))
            tracer.install()
            try:
                calls = self.round({}, tracer, rounds)
                traced.append(round_seconds(calls))
                factors.append(statistics.median(f for c in calls.values() for _, f in c))
                for kind in ("set", "bitmap", "twolevel"):
                    tracer.begin_op(rounds, f"bitmap:{kind}")
                    index = self.call(
                        lambda: kernels.inverted_index(loaded, dictionary, f"preorder_{kind}")
                    )
                    if index is not None and [
                        (word, [names[i] for i in ids]) for word, ids in index.items()
                    ] != self.want["inverted-index"]:
                        self.problem(f"preorder_{kind} inverted index differs from the reference")
                if streams is not None:
                    tracer.begin_op(rounds, "probe")
                    result = self.call(
                        lambda: scheduler.run_parallel(dictionary, streams, "word_count", 2)
                    )
                    if result is not None and list(result.items()) != self.want["word-count"]:
                        self.problem("run_parallel word count differs from the reference")
            finally:
                tracer.uninstall()
            rounds += 1
            pair_s = time.perf_counter() - start

        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"trace-{self.spec.name}-seed{self.seed}.json"))
        metrics = self.layer_metrics(tracer, factors)
        metrics.update(counts)
        loads = tracer.plans[-1][1].loads if tracer.plans else [0]
        metrics["scheduler.max_load_tokens"] = max(loads)
        metrics["scheduler.avg_load_tokens"] = statistics.mean(loads)
        metrics["scheduler.split_files"] = (
            len(tracer.plans[-1][1].split_files) if tracer.plans else 0
        )
        metrics["cli.output_bytes"] = output_bytes
        before, after = statistics.median(untraced), statistics.median(traced)
        print(f"traced rounds: {rounds}, {len(tracer.spans)} spans")
        print(
            f"trace overhead: {100 * (after / before - 1):+.2f}% "
            f"({after * 1000:.1f} ms traced vs {before * 1000:.1f} ms untraced per round)"
        )
        return self.result(metrics, PER_LAYER)

    def layer_metrics(self, tracer, factors: list[float]) -> dict[str, float]:
        """Median over traced rounds of each layer's self time per round, in ms.

        Each round's times are scaled by the median speed factor of its calls.
        """
        self_times = tracer.self_times()
        per_round = [dict() for _ in factors]
        for span in tracer.spans:
            round_no, kind = tracer.ops[span.op]
            if span.name in SCHEDULER_METRICS:
                metric = SCHEDULER_METRICS[span.name]
            elif kind == "probe":
                continue
            elif span.name in SPAN_METRICS:
                metric = SPAN_METRICS[span.name]
            elif span.layer == "kernels" and kind in TASK_KEYS:
                metric = f"kernels.{TASK_KEYS[kind]}_ms"
            elif span.layer == "kernels" and kind.startswith("bitmap:"):
                metric = f"bitmap.{kind.removeprefix('bitmap:')}.inverted_index_ms"
            else:
                continue
            sums = per_round[round_no]
            sums[metric] = sums.get(metric, 0.0) + self_times[span.id] / factors[round_no]
        names = {name for name, unit in PER_LAYER if unit == "ms"}
        return {
            name: statistics.median(sums.get(name, 0.0) for sums in per_round) * 1000
            for name in names
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    load_tadoc()

    # Kept between runs (see Bench.setup), so one checkout runs one
    # benchmark at a time.
    workdir = os.path.join(WORK, args.workload)
    os.makedirs(workdir, exist_ok=True)
    bench = Bench(workloads.SPECS[args.workload], args.seed, workdir)
    if args.trace:
        result = bench.run_traced(args.seconds)
    else:
        result = bench.run_untraced(args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
