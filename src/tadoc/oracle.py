"""Baseline kernels over uncompressed text.

Ground truth for the equivalence tests and the `baseline`/`gzip` engines of
the benchmark. Deliberately plain: single or double passes over raw token
lists, no grammar, no memoization. Tokenization and output ordering match
the compressed path exactly.

The `*_tokens` functions take pre-tokenized files so the benchmark can time
tokenization (init) apart from counting (compute). `run_task` is the plain
engine's one task dispatch over them, which the CLI's `baseline` and `gzip`
engines use; `run` takes (name, text) pairs instead.
"""

from __future__ import annotations

import math
from collections import Counter

from .corpus import tokenize


def word_count_tokens(lists: list[list[str]]) -> dict[str, int]:
    counts: Counter = Counter()
    for tokens in lists:
        counts.update(tokens)
    return {word: counts[word] for word in sorted(counts)}


def sort_words_tokens(lists: list[list[str]]) -> list[tuple[str, int]]:
    return list(word_count_tokens(lists).items())


def inverted_index_tokens(lists: list[list[str]]) -> dict[str, list[int]]:
    index: dict[str, set[int]] = {}
    for file_id, tokens in enumerate(lists):
        for token in tokens:
            index.setdefault(token, set()).add(file_id)
    return {word: sorted(index[word]) for word in sorted(index)}


def term_vector_tokens(lists, top_k=None) -> list[list[tuple[str, int]]]:
    out = []
    for tokens in lists:
        counts = Counter(tokens)
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        out.append(ranked[:top_k] if top_k is not None else ranked)
    return out


def sequence_count_tokens(lists, l=3) -> list[dict[str, int]]:
    if l < 2:
        raise ValueError(f"sequence length must be >= 2, got {l}")
    out = []
    for tokens in lists:
        counts: Counter = Counter()
        for i in range(len(tokens) - l + 1):
            counts["_".join(tokens[i : i + l])] += 1
        out.append({gram: counts[gram] for gram in sorted(counts)})
    return out


def ranked_inverted_index_tokens(lists, l=3) -> dict[str, list[tuple[int, int]]]:
    by_gram: dict[str, list[tuple[int, int]]] = {}
    for file_id, table in enumerate(sequence_count_tokens(lists, l)):
        for gram, count in table.items():
            by_gram.setdefault(gram, []).append((file_id, count))
    return {
        gram: sorted(by_gram[gram], key=lambda item: (-item[1], item[0]))
        for gram in sorted(by_gram)
    }


def tfidf_tokens(lists) -> dict[str, dict[int, float]]:
    file_count = len(lists)
    df: Counter = Counter()
    per_file = []
    for tokens in lists:
        counts = Counter(tokens)
        per_file.append(counts)
        df.update(set(counts))
    scores: dict[str, dict[int, float]] = {}
    for file_id, counts in enumerate(per_file):
        for word, count in counts.items():
            scores.setdefault(word, {})[file_id] = count * math.log(
                file_count / df[word]
            )
    return {word: dict(sorted(scores[word].items())) for word in sorted(scores)}


def run_task(task, lists, l=3, top_k=None):
    """Run one of `kernels.TASKS` on pre-tokenized files, as `kernels.run_task`
    runs it on a DAG."""
    if task == "word_count":
        return word_count_tokens(lists)
    if task == "sort":
        return sort_words_tokens(lists)
    if task == "inverted_index":
        return inverted_index_tokens(lists)
    if task == "term_vector":
        return term_vector_tokens(lists, top_k)
    if task == "sequence_count":
        return sequence_count_tokens(lists, l)
    if task == "ranked_inverted_index":
        return ranked_inverted_index_tokens(lists, l)
    if task == "tfidf":
        return tfidf_tokens(lists)
    raise ValueError(f"unknown task {task!r}")


def run(task, files, l=3, top_k=None, lowercase=False):
    """`run_task` on (name, text) pairs."""
    return run_task(task, [tokenize(text, lowercase) for _, text in files], l, top_k)
