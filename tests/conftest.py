"""Shared corpus and stream generators, grammar invariant checks and
result helpers for the test suite."""

from __future__ import annotations

import random
import zlib

from tadoc import kernels
from tadoc.corpus import encode_corpus
from tadoc.dag import coarsen, load_merge_graph
from tadoc.sequitur import Grammar, infer_grammar

WORDS = [f"w{i}" for i in range(40)] + ["alpha", "beta", "gamma", "x,y", "Zed!"]


def random_stream(rng: random.Random, max_len=600, max_vocab=12):
    """A raw symbol stream: half purely random, half block-repetitive."""
    n = rng.randint(1, max_vocab)
    length = rng.randint(0, max_len)
    if rng.random() < 0.5:
        stream = [rng.randrange(n) for _ in range(length)]
    else:
        block = [rng.randrange(n) for _ in range(rng.randint(1, 30))]
        stream = (block * (length // max(1, len(block)) + 1))[:length]
        for _ in range(rng.randint(0, 10)):
            if stream:
                stream[rng.randrange(len(stream))] = rng.randrange(n)
    return stream, n


def pooled_stream(rng: random.Random, max_files=5, max_sentences=30):
    """(stream, n_terminals, n_words): files of sentences drawn mostly from
    a small pool, with fresh sentences, word runs and back-to-back repeats
    mixed in, each file closed by its own separator code."""
    n_words = rng.randint(2, 16)
    pool = [
        [rng.randrange(n_words) for _ in range(rng.randint(2, 9))]
        for _ in range(rng.randint(1, 10))
    ]
    files = rng.randint(1, max_files)
    stream = []
    for sep in range(n_words, n_words + files):
        for _ in range(rng.randint(0, max_sentences)):
            roll = rng.random()
            if roll < 0.65:
                stream += rng.choice(pool)
            elif roll < 0.8:
                stream += [rng.randrange(n_words) for _ in range(rng.randint(1, 6))]
            elif roll < 0.9:
                stream += [rng.randrange(n_words)] * rng.randint(2, 7)
            else:
                stream += rng.choice(pool) * rng.randint(2, 4)
        stream.append(sep)
    return stream, n_words + files, n_words


def random_corpus(rng: random.Random, max_files=6, max_sentences=14, vocab=None):
    """(name, text) files mixing a repeated-sentence pool with fresh text."""
    words = vocab or WORDS
    pool = [
        " ".join(rng.choices(words, k=rng.randint(3, 8)))
        for _ in range(rng.randint(2, 8))
    ]
    files = []
    for i in range(rng.randint(1, max_files)):
        parts = []
        for _ in range(rng.randint(0, max_sentences)):
            if rng.random() < 0.6:
                parts.append(rng.choice(pool))
            else:
                parts.append(" ".join(rng.choices(words, k=rng.randint(1, 7))))
        files.append((f"f{i}", "\n".join(parts)))
    if not any(text.strip() for _, text in files):
        files[0] = ("f0", "solo token")
    return files


def build_dag(files, threshold=0):
    """encode -> infer -> load (-> coarsen); returns (dictionary, encoded, dag)."""
    dictionary, encoded = encode_corpus(files)
    grammar = infer_grammar(
        encoded.symbols, dictionary.n_total, dictionary.word_count
    )
    dag = load_merge_graph(grammar)
    if threshold:
        dag = coarsen(dag, threshold)
    return dictionary, encoded, dag


def whole(task, result):
    """A kernel's result as the oracle gives it: the ranked index, which
    streams (gram, postings) pairs, as a dict, and the per-file results,
    which stream one file at a time, as a list."""
    if task == "ranked_inverted_index":
        return dict(result)
    if task in ("term_vector", "sequence_count"):
        return list(result)
    return result


def rule_reference_counts(grammar: Grammar) -> dict[int, int]:
    """How often each rule id is referenced across all bodies."""
    counts = {grammar.n_terminals + i: 0 for i in range(len(grammar.rules))}
    for body in grammar.rules:
        for sym in body:
            if sym >= grammar.n_terminals:
                counts[sym] += 1
    return counts


def duplicate_digrams(grammar: Grammar) -> list[tuple[int, int]]:
    """Digram-uniqueness violations, for invariant scans.

    Pairs containing separators are exempt, as are immediately overlapping
    repeats of the same pair (``a a a``) which online inference cannot
    replace.
    """
    seen: set[tuple[int, int]] = set()
    violations = []
    for body in grammar.rules:
        previous = None
        for i in range(len(body) - 1):
            pair = (body[i], body[i + 1])
            if grammar.is_separator(pair[0]) or grammar.is_separator(pair[1]):
                previous = None
                continue
            if pair == previous:
                previous = None  # overlap consumed; a third repeat is distinct
                continue
            if pair in seen:
                violations.append(pair)
            seen.add(pair)
            previous = pair
    return violations


def traversal_index(dag, dictionary):
    """The inverted index of every file through the file-set push-down, as
    `kernels.inverted_index` would give it if no file were short."""
    index = kernels._push_file_sets(dag, list(enumerate(dag.segments)))
    return kernels._by_word(
        {code: sorted(ids) for code, ids in index.items()}, dictionary.words
    )


def sentence_pool(
    rng: random.Random,
    n_sentences,
    vocab_size,
    min_len=6,
    max_len=12,
    word_format="tok%d",
):
    vocab = [word_format % i for i in range(vocab_size)]
    return [
        " ".join(rng.choices(vocab, k=rng.randint(min_len, max_len)))
        for _ in range(n_sentences)
    ], vocab


def repetitive_corpus(
    seed: int,
    target_bytes: int,
    n_sentences: int = 200,
    repeat_fraction: float = 1.0,
    vocab_size: int = 800,
    n_files: int = 4,
    sentence_words: tuple[int, int] = (6, 12),
    word_format: str = "tok%d",
):
    """Corpus of `n_files` files built from a repeated sentence pool.

    `repeat_fraction` of the sentence draws come from the pool; the rest are
    fresh random word sequences over the same vocabulary.
    """
    rng = random.Random(seed)
    pool, vocab = sentence_pool(
        rng, n_sentences, vocab_size, *sentence_words, word_format
    )
    per_file = target_bytes // n_files
    files = []
    for i in range(n_files):
        chunks = []
        size = 0
        while size < per_file:
            if rng.random() < repeat_fraction:
                sentence = rng.choice(pool)
            else:
                sentence = " ".join(
                    rng.choices(vocab, k=rng.randint(*sentence_words))
                )
            chunks.append(sentence)
            size += len(sentence) + 1
        files.append((f"doc{i}.txt", "\n".join(chunks)))
    return files


def reseal(blob: bytes) -> bytes:
    """`blob` with the preamble's CRC32 recomputed over the bytes after it,
    so an edited container reaches the structural check the edit targets."""
    sealed = bytearray(blob)
    sealed[6:10] = zlib.crc32(sealed[16:]).to_bytes(4, "little")
    return bytes(sealed)
