"""Traversal-variant selection and coarse-grained parallel execution.

`select_variant` applies the published thresholds: small average file size
favors postorder; otherwise preorder, with the two-level bitmap once the
corpus has many files.

Partitioning packs whole files largest-first onto workers; a file is split
into equal token-range sections only when it exceeds h_split = S/(2*n_w)
and keeping it whole would leave some partition above 1.25x the average
worker load. Each worker compresses its partition against the shared
dictionary and runs the partial through the same `kernels.load_dag` and
`kernels.run_task` as the serial path; merging is a sequential fold in
partition order that ends in the same `kernels` finalizers, so results are
invariant in the worker count.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import kernels
from .corpus import Dictionary
from .dag import DatasetFeatures
from .kernels import ORDER_SENSITIVE, TASKS
from .sequitur import infer_grammar


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


def plan_partitions(
    sizes: list[int], n_workers: int, allow_split: bool = True
) -> PartitionPlan:
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
    while allow_split and plan.max_load > cap:
        candidates = [
            s for p in plan.partitions for s in p
            if s.n_sections == 1 and s.size > h_split
        ]
        if not candidates:
            break  # nothing may be split; best effort
        target = max(candidates, key=lambda s: (s.size, -s.file_id))
        n_sections = math.ceil(target.size / h_split)
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


def _worker(dictionary, units, task, variant, l, threshold):
    """Compress and analyze one partition; returns mergeable partials.

    units: list of (file_id, seq, token codes). The partition gets its own
    grammar over the shared word codes, with one fresh separator per unit.
    """
    word_count = dictionary.word_count
    n_terminals = word_count + len(units)
    symbols = []
    for index, (_, _, codes) in enumerate(units):
        symbols.extend(codes)
        symbols.append(word_count + index)
    grammar = infer_grammar(symbols, n_terminals, word_count)
    dag = kernels.load_dag(grammar, task, threshold)

    if task in ("word_count", "sort"):
        return kernels.run_task("word_count", dag, dictionary, variant)
    if task == "inverted_index":
        local = kernels.run_task(task, dag, dictionary, variant)
        return {
            word: {units[i][0] for i in ids} for word, ids in local.items()
        }
    if task in ("term_vector", "tfidf"):
        per_unit = kernels._per_file_code_counts(dag)
        words = dictionary.words
        out: dict[int, Counter] = {}
        for (file_id, _, _), counts in zip(units, per_unit):
            decoded = Counter({words[c]: n for c, n in counts.items()})
            if file_id in out:
                out[file_id].update(decoded)
            else:
                out[file_id] = decoded
        return out
    if task in ORDER_SENSITIVE:
        per_unit = kernels.run_task("sequence_count", dag, dictionary, variant, l)
        words = dictionary.words
        partials = []
        for (file_id, seq, codes), table in zip(units, per_unit):
            boundary = min(l - 1, len(codes))
            partials.append(
                {
                    "file_id": file_id,
                    "seq": seq,
                    "grams": table,
                    "head": [words[c] for c in codes[:boundary]],
                    "tail": [words[c] for c in codes[-boundary:]] if boundary else [],
                    "tokens": len(codes),
                }
            )
        return partials
    raise ValueError(f"unknown task {task!r}")


def _merge_sequence_partials(partials_by_file, l):
    """Sum per-section tables and count the windows crossing section cuts."""
    merged = []
    for file_id in sorted(partials_by_file):
        sections = sorted(partials_by_file[file_id], key=lambda p: p["seq"])
        counts: Counter = Counter()
        context: list[str] = []
        for section in sections:
            counts.update(section["grams"])
            boundary = section["head"]
            seam = context + boundary
            for start in range(len(context)):
                if start + l <= len(seam):
                    counts["_".join(seam[start : start + l])] += 1
            if section["tokens"] >= l - 1:
                context = section["tail"]
            else:
                context = (context + section["head"])[-(l - 1) :]
        merged.append(
            (file_id, {gram: counts[gram] for gram in sorted(counts)})
        )
    return [table for _, table in merged]


def run_parallel(
    dictionary: Dictionary,
    file_codes: list[list[int]],
    task: str,
    n_workers: int,
    variant: str = "auto",
    l: int = 3,
    top_k: int | None = None,
    coarsen_threshold: int | None = None,
):
    """Partition, compress and analyze per worker, then merge.

    file_codes holds each file's word-code stream (no separators). The
    merged result is identical for any worker count.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    total = sum(len(codes) for codes in file_codes)
    if variant == "auto":
        features = DatasetFeatures(
            file_count=len(file_codes),
            total_tokens=total,
            vocab_size=dictionary.word_count,
            rule_count=0,
        )
        variant = select_variant(features)

    plan = plan_partitions([len(codes) for codes in file_codes], n_workers)
    partition_units = []
    for partition in plan.partitions:
        units = [
            (s.file_id, s.seq, file_codes[s.file_id][s.start : s.end])
            for s in sorted(partition, key=lambda s: (s.file_id, s.seq))
        ]
        if units:
            partition_units.append(units)

    if len(partition_units) <= 1:
        partials = [
            _worker(dictionary, units, task, variant, l, coarsen_threshold)
            for units in partition_units
        ]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            futures = [
                pool.submit(
                    _worker, dictionary, units, task, variant, l, coarsen_threshold
                )
                for units in partition_units
            ]
            partials = [f.result() for f in futures]

    return _merge(task, partials, len(file_codes), l, top_k)


def _merge(task, partials, file_count, l, top_k):
    if task in ("word_count", "sort"):
        counts: Counter = Counter()
        for partial in partials:
            counts.update(partial)
        merged = {word: counts[word] for word in sorted(counts)}
        return list(merged.items()) if task == "sort" else merged

    if task == "inverted_index":
        index: dict[str, set[int]] = {}
        for partial in partials:
            for word, ids in partial.items():
                index.setdefault(word, set()).update(ids)
        return {word: sorted(index[word]) for word in sorted(index)}

    if task in ("term_vector", "tfidf"):
        per_file: list[Counter] = [Counter() for _ in range(file_count)]
        for partial in partials:
            for file_id, counts in partial.items():
                per_file[file_id].update(counts)
        if task == "term_vector":
            return kernels.rank_term_vectors(
                (counts.items() for counts in per_file), top_k
            )
        return kernels.tfidf_scores(per_file)

    if task in ORDER_SENSITIVE:
        by_file: dict[int, list] = {}
        for partial in partials:
            for section in partial:
                by_file.setdefault(section["file_id"], []).append(section)
        tables = [dict() for _ in range(file_count)]
        merged = _merge_sequence_partials(by_file, l)
        for file_id, table in zip(sorted(by_file), merged):
            tables[file_id] = table
        if task == "sequence_count":
            return tables
        return kernels.rank_gram_files(tables)

    raise ValueError(f"unknown task {task!r}")
