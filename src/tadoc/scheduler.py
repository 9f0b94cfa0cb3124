"""Coarse-grained partitioning of files onto workers.

Whole files are packed largest-first onto workers; a file is split
into equal token-range sections, never more than it has tokens, only when
it exceeds h_split = S/(2*n_w) and keeping it whole would leave some
partition above 1.25x the average worker load.

No CLI path calls `run_parallel`: every `analyze` job runs on the loaded
grammar. It stays, for word count only, because the benchmark's traced
probe calls it that way. Each worker counts the sections of its partition
of plain code streams with one `Counter`, and the counts are summed, so the
result is the same for any worker count.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, namedtuple

from . import kernels
from .corpus import Dictionary


# -- partitioning ---------------------------------------------------------------


class Section(namedtuple("Section", "file_id seq n_sections start end")):
    """A token range of one file; whole files are their only section."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return self.end - self.start


class PartitionPlan(
    namedtuple("PartitionPlan", "partitions h_split load_cap split_files")
):
    __slots__ = ()

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
    plan = PartitionPlan(_pack(items, n_workers), h_split, cap, set())
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
    dictionary: Dictionary, file_codes: list[list[int]], task: str, n_workers: int
) -> dict[str, int]:
    """Word totals of `file_codes`, each file's word-code stream (no
    separators), counted one partition per worker and then summed. The only
    task is "word_count"; the result is the same for any worker count."""
    # imported here: it loads threading and logging, which no other path needs
    from concurrent.futures import ThreadPoolExecutor

    if task != "word_count":
        raise ValueError(f"run_parallel counts words only, not {task!r}")
    plan = plan_partitions([len(codes) for codes in file_codes], n_workers)

    def work(sections):
        counts = Counter()
        for s in sections:
            counts.update(file_codes[s.file_id][s.start : s.end])
        return counts

    totals = Counter()
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        for counts in pool.map(work, plan.partitions):
            totals.update(counts)
    return kernels._by_word(totals, dictionary.words)
