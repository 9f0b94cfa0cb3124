"""Traversal-variant selection and coarse-grained partitioning.

`select_variant` applies the published thresholds: small average file size
favors postorder; otherwise preorder, with the two-level bitmap once the
corpus has many files.

Partitioning packs whole files largest-first onto workers; a file is split
into equal token-range sections, never more than it has tokens, only when
it exceeds h_split = S/(2*n_w) and keeping it whole would leave some
partition above 1.25x the average worker load.

No CLI path calls `run_parallel`: every `analyze` job runs on the loaded
grammar. It stays because the benchmark's traced probe calls it. It counts
each unit (a whole file or one section) of plain code streams with the
kernels' run counters: word-code counts, or l-gram counts by gram name for
the order-sensitive tasks. A section's codes run l-1 tokens past its end, so
each window is counted by the one section it starts in and a file's table is
the sum of its sections' tables. The tables per file are finished with
`kernels.finish`, as the one-worker kernels do, so results are invariant in
the worker count.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

from . import kernels
from .corpus import Dictionary
from .dag import DatasetFeatures
from .kernels import ORDER_SENSITIVE, TASKS


def select_variant(features: DatasetFeatures) -> str:
    """Pick a traversal variant from the published thresholds."""
    if features.avg_file_tokens < 2860:
        return "postorder"
    if features.file_count >= 801:
        return "preorder_twolevel"
    return "preorder_bitmap"


# -- partitioning ---------------------------------------------------------------


@dataclass
class Section:
    """A token range of one file; whole files are their only section."""

    file_id: int
    seq: int
    n_sections: int
    start: int
    end: int

    @property
    def size(self) -> int:
        return self.end - self.start


@dataclass
class PartitionPlan:
    partitions: list[list[Section]]
    h_split: float
    load_cap: float
    split_files: set[int] = field(default_factory=set)

    @property
    def loads(self) -> list[int]:
        return [sum(s.size for s in p) for p in self.partitions]

    @property
    def max_load(self) -> int:
        return max(self.loads)


def _pack(items: list[Section], n_workers: int) -> list[list[Section]]:
    """Largest-first greedy onto the least-loaded partition."""
    partitions: list[list[Section]] = [[] for _ in range(n_workers)]
    heap = [(0, i) for i in range(n_workers)]
    heapq.heapify(heap)
    for section in sorted(items, key=lambda s: (-s.size, s.file_id, s.seq)):
        load, index = heapq.heappop(heap)
        partitions[index].append(section)
        heapq.heappush(heap, (load + section.size, index))
    return partitions


def _split(file_id: int, size: int, n_sections: int) -> list[Section]:
    base, extra = divmod(size, n_sections)
    sections = []
    start = 0
    for seq in range(n_sections):
        end = start + base + (1 if seq < extra else 0)
        sections.append(Section(file_id, seq, n_sections, start, end))
        start = end
    return sections


def plan_partitions(sizes: list[int], n_workers: int) -> PartitionPlan:
    """Assign files (in token counts) to n_workers partitions."""
    if n_workers < 1:
        raise ValueError("worker count must be >= 1")
    total = sum(sizes)
    h_split = total / (2 * n_workers)
    cap = (total / n_workers) * 1.25
    items = [Section(i, 0, 1, 0, size) for i, size in enumerate(sizes)]
    plan = PartitionPlan(_pack(items, n_workers), h_split, cap)
    if n_workers == 1:
        return plan
    while plan.max_load > cap:
        # a file of one token cannot be split
        candidates = [
            s for p in plan.partitions for s in p
            if s.n_sections == 1 and s.size > max(h_split, 1)
        ]
        if not candidates:
            break  # nothing may be split; best effort
        target = max(candidates, key=lambda s: (s.size, -s.file_id))
        n_sections = min(math.ceil(target.size / h_split), target.size)
        items = [
            s for p in plan.partitions for s in p if s.file_id != target.file_id
        ]
        items.extend(_split(target.file_id, target.size, n_sections))
        plan.split_files.add(target.file_id)
        plan = PartitionPlan(
            _pack(items, n_workers), h_split, cap, plan.split_files
        )
    return plan


# -- parallel execution ----------------------------------------------------------


def run_parallel(
    dictionary: Dictionary,
    file_codes: list[list[int]],
    task: str,
    n_workers: int,
    l: int = 3,
    top_k: int | None = None,
):
    """Partition, count each partition's units on a worker, then merge.

    file_codes holds each file's word-code stream (no separators). The
    merged result is identical for any worker count.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if task in ORDER_SENSITIVE:
        if l < 2:
            raise ValueError(f"sequence length must be >= 2, got {l}")
        count_runs = partial(kernels._count_gram_runs, dictionary.words, l)
        # a section's l-gram windows run up to l-1 tokens past its end
        overlap = l - 1
    else:
        count_runs = kernels._count_code_runs
        overlap = 0
    plan = plan_partitions([len(codes) for codes in file_codes], n_workers)
    partitions = [
        sorted(partition, key=lambda s: (s.file_id, s.seq))
        for partition in plan.partitions
        if partition
    ]

    def work(sections):
        return count_runs(
            file_codes[s.file_id][s.start : s.end + overlap] for s in sections
        )

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        partials = list(pool.map(work, partitions))

    tables: list[Counter] = [Counter() for _ in file_codes]
    for sections, counted in zip(partitions, partials):
        for section, table in zip(sections, counted):
            tables[section.file_id].update(table)
    return kernels.finish(task, tables, dictionary, top_k)
