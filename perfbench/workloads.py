"""Seeded corpus generators for the three benchmark workloads.

Every workload has a fixed shape -- file count, exact token count per file,
vocabulary size and word lengths, sentence-pool size, sentence lengths and
the positions of pooled and fresh sentences -- so that two seeds give
corpora of the same size and redundancy and differ only in which words and
pool sentences were drawn. Words are lowercase
ASCII letters only, so they never contain the `_` that joins l-grams, the
`,` that joins file names, or whitespace.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Spec:
    name: str
    workers: int
    variant: str  # what `--variant auto` must pick for this corpus
    file_tokens: tuple[int, ...]  # exact token count of each file, in order
    vocabulary: int
    pool_sentences: int
    pool_share: tuple[float, ...]  # per file: probability a sentence is pooled
    sentence_len: tuple[int, int]
    zipf: float  # exponent of the word-frequency law (0 = uniform)


def _many_file_sizes(count: int) -> tuple[int, ...]:
    # 40..120 tokens, a fixed sequence so every seed has the same sizes
    return tuple(40 + (i * 37) % 81 for i in range(count))


SPECS = {
    "repetitive": Spec(
        name="repetitive",
        workers=1,
        variant="preorder_bitmap",
        file_tokens=(40000,) * 4,
        vocabulary=2000,
        pool_sentences=200,
        pool_share=(0.95,) * 4,
        sentence_len=(8, 20),
        zipf=0.0,
    ),
    "many-files": Spec(
        name="many-files",
        workers=1,
        variant="postorder",
        file_tokens=_many_file_sizes(1200),
        vocabulary=20000,
        pool_sentences=500,
        pool_share=(0.0, 0.9) * 600,
        sentence_len=(6, 16),
        zipf=1.0,
    ),
    "two-workers": Spec(
        name="two-workers",
        workers=2,
        variant="preorder_bitmap",
        file_tokens=(1500,) * 12 + (40000,),
        vocabulary=3000,
        pool_sentences=300,
        pool_share=(0.8,) * 13,
        sentence_len=(8, 20),
        zipf=0.8,
    ),
}


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    """Distinct random words; the length of each rank is the same for all
    seeds, so the corpus byte count does not depend on the seed."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        word = "".join(rng.choices(_LETTERS, k=3 + len(words) % 7))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def generate(spec: Spec, seed: int) -> list[tuple[str, str]]:
    """(file name, text) pairs; the same seed gives the same corpus.

    File names are zero-padded, so their sorted order -- the order in which
    `tadoc compress` reads a directory -- is the generation order.
    """
    rng = random.Random(f"{spec.name}:{seed}")
    vocab = _vocabulary(rng, spec.vocabulary)
    weights = [1.0 / (rank + 1) ** spec.zipf for rank in range(len(vocab))]
    cum = list(itertools.accumulate(weights))
    lo, hi = spec.sentence_len

    def sentence(length: int) -> list[str]:
        return rng.choices(vocab, cum_weights=cum, k=length)

    # pool sentence lengths cycle through lo..hi, the same for every seed
    pool = [
        sentence(lo + i % (hi - lo + 1)) for i in range(spec.pool_sentences)
    ]
    files = []
    fresh = 0
    for index, (size, share) in enumerate(zip(spec.file_tokens, spec.pool_share)):
        lines: list[str] = []
        remaining = size
        k = 0
        while remaining > 0:
            # exactly `share` of the sentences are pooled, at fixed positions;
            # fresh sentence lengths cycle too, so only the words are random
            if math.floor((k + 1) * share) > math.floor(k * share):
                words = rng.choice(pool)
            else:
                words = sentence(lo + fresh % (hi - lo + 1))
                fresh += 1
            k += 1
            words = words[:remaining]
            remaining -= len(words)
            lines.append(" ".join(words))
        files.append((f"doc{index:05d}.txt", "\n".join(lines) + "\n"))
    return files


def lay_out(files: list[tuple[str, str]], directory: str) -> int:
    """Write the corpus as one file per document; returns the raw byte count.

    Files of an earlier corpus in `directory` are overwritten in place, and
    any file not in this corpus is removed.
    """
    os.makedirs(directory, exist_ok=True)
    names = {name for name, _ in files}
    for stale in set(os.listdir(directory)) - names:
        os.remove(os.path.join(directory, stale))
    total = 0
    for name, text in files:
        data = text.encode("utf-8")
        with open(os.path.join(directory, name), "wb") as handle:
            handle.write(data)
        total += len(data)
    return total
