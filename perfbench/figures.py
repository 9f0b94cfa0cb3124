"""Reference figures for the README: tadoc beside the uncompressed baseline.

    env PYTHONHASHSEED=0 python3 perfbench/figures.py --seed 1

For each workload: the job time of `tadoc analyze --engine baseline` on the
raw files beside the same job on the container (median of three, in
process), and tadoc's compression ratio beside DEFLATE (level 6, one
gzip stream per file) of the raw files. Not part of the gated benchmark.
"""

from __future__ import annotations

import argparse
import gzip
import os
import shutil
import statistics
import time

import reference
import workloads
from run import WORK, analyze_argv, load_tadoc, run_cli


def job_ms(argv: list[str]) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        code, _, err = run_cli(argv)
        times.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"{argv} exited {code}: {err.getvalue()}")
    return statistics.median(times) * 1000


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    load_tadoc()
    workdir = os.path.join(WORK, f"figures-{os.getpid()}")
    try:
        for name, spec in workloads.SPECS.items():
            corpus = os.path.join(workdir, name)
            files = workloads.generate(spec, args.seed)
            raw = workloads.lay_out(files, corpus)
            container = os.path.join(workdir, f"{name}.tdoc")
            run_cli(["compress", corpus, "--out", container])
            deflated = sum(len(gzip.compress(text.encode(), 6)) for _, text in files)
            print(
                f"{name}: raw {raw} B, tadoc ratio "
                f"{raw / os.path.getsize(container):.2f}x, "
                f"DEFLATE-of-raw ratio {raw / deflated:.2f}x"
            )
            for task in reference.TASKS:
                cd = job_ms(analyze_argv(container, task, spec.workers))
                base = job_ms(
                    ["analyze", corpus, task, "--engine", "baseline", "--l", str(reference.L)]
                )
                print(f"  {task:22s} tadoc {cd:9.1f} ms   baseline {base:9.1f} ms")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
