"""Self-test of the benchmark's reference checker.

Runs every task through the tadoc CLI on a tiny corpus and requires that
the checker accepts tadoc's output and rejects, for each task, one
perturbed copy of it: a count changed, a file dropped, or two ranks
swapped. The benchmark runs this at the start of every run; it also runs
alone:

    python3 perfbench/selftest.py      # exit 0 when the checker is sound
"""

from __future__ import annotations

import os
import sys

import reference
import workloads

TINY = [
    ("a.txt", "the cat sat on the mat\nthe cat sat on the mat\nthe dog ran\n"),
    ("b.txt", "a dog sat on the mat\nthe cat ran\nthe cat ran home\n"),
    ("c.txt", "the mat was red\nthe cat sat on the mat\nred red red\n"),
    ("d.txt", "home is where the cat sat\nthe dog ran home\n"),
]


def _swap_ranks(rows, key, value):
    """Swap the first adjacent pair with the same key and different values."""
    for i in range(len(rows) - 1):
        if key(rows[i]) == key(rows[i + 1]) and value(rows[i]) != value(rows[i + 1]):
            rows[i], rows[i + 1] = rows[i + 1], rows[i]
            return rows
    raise AssertionError("no rank pair to swap")


def _drop_file(rows):
    for i, (word, names) in enumerate(rows):
        if len(names) > 1:
            rows[i] = (word, names[1:])
            return rows
    raise AssertionError("no word in two files")


def _bump_count(rows):
    rows[0] = rows[0][:-1] + (rows[0][-1] + 1,)
    return rows


PERTURB = {
    "word-count": _bump_count,
    "sort": lambda rows: _swap_ranks(rows, lambda r: 0, lambda r: r[0]),
    "inverted-index": _drop_file,
    "term-vector": lambda rows: _swap_ranks(rows, lambda r: r[0], lambda r: r[2]),
    "sequence-count": _bump_count,
    "ranked-inverted-index": lambda rows: _swap_ranks(
        rows, lambda r: r[0], lambda r: r[2]
    ),
    "tfidf": lambda rows: [r for r in rows if r != rows[0]],
}


def check_checker(run_cli, workdir: str) -> list[str]:
    """Problems found; empty when the checker accepts and rejects as it must."""
    corpus = os.path.join(workdir, "selftest")
    workloads.lay_out(TINY, corpus)
    container = os.path.join(workdir, "selftest.tdoc")
    problems = []
    code, _, err = run_cli(["compress", corpus, "--out", container])
    if code != 0:
        return [f"selftest: compress exited {code}: {err.getvalue().strip()}"]
    want = reference.expected(TINY)
    for task in reference.TASKS:
        argv = ["analyze", container, task, "--workers", "1"]
        code, out, err = run_cli(argv + ["--l", str(reference.L)])
        if code != 0:
            problems.append(f"selftest: {task} exited {code}")
            continue
        rows = reference.parse_tsv(task, out.getvalue())
        verdict = reference.compare(task, rows, want[task])
        if verdict is not None:
            problems.append(f"selftest: checker rejects tadoc's output: {verdict}")
        if reference.compare(task, PERTURB[task](list(rows)), want[task]) is None:
            problems.append(f"selftest: checker accepts a perturbed {task} result")
    return problems


def main() -> int:
    from run import WORK, load_tadoc, run_cli

    load_tadoc()
    problems = check_checker(run_cli, WORK)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("selftest ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
