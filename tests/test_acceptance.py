"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
The two large-corpus tests (compression ratio, compute speedup) generate
their corpora on the fly and take a few minutes combined; they are marked
`slow`, so `pytest -m "not slow"` leaves them out.
"""

import io
import json
import contextlib
import random
import sys
import time
import zlib

import pytest

from conftest import (
    build_dag,
    duplicate_digrams,
    random_corpus,
    repetitive_corpus,
    reseal,
    rule_reference_counts,
)
from tadoc import container as C
from tadoc import kernels, oracle
from tadoc.cli import main
from tadoc.corpus import encode_corpus, tokenize
from tadoc.kernels import TASKS, select_variant
from tadoc.scheduler import plan_partitions, run_parallel
from tadoc.sequitur import expand, infer_grammar


def _verdict(number: int, message: str) -> None:
    print(f"acceptance {number}: PASS - {message}", file=sys.stderr)


def _fuzz_corpus(rng: random.Random, big: bool):
    words = [f"w{i}" for i in range(rng.randint(1, 50))]
    n_files = rng.randint(1, 10)
    budget = rng.randint(200, 5000) if big else rng.randint(2, 500)
    files = []
    remaining = budget
    for i in range(n_files):
        share = remaining if i == n_files - 1 else rng.randint(0, remaining)
        remaining -= share
        if rng.random() < 0.5:
            tokens = rng.choices(words, k=share)
        else:
            block = rng.choices(words, k=rng.randint(1, 25))
            tokens = (block * (share // max(1, len(block)) + 1))[:share]
        files.append((f"f{i}", " ".join(tokens)))
    if not any(text for _, text in files):
        files[0] = ("f0", "w0")
    return files


def test_acceptance_1_grammar_round_trip_1000_corpora():
    rng = random.Random(1001)
    start = time.monotonic()
    total_tokens = 0
    for trial in range(1000):
        files = _fuzz_corpus(rng, big=trial % 10 == 0)
        dictionary, encoded = encode_corpus(files)
        total_tokens += encoded.total_tokens
        grammar = infer_grammar(
            encoded.symbols, dictionary.n_total, dictionary.word_count
        )
        assert expand(grammar) == encoded.symbols, trial
        assert duplicate_digrams(grammar) == [], trial
        for rid, count in rule_reference_counts(grammar).items():
            if rid != grammar.root_id:
                assert count >= 2, (trial, rid)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"round-trip suite took {elapsed:.1f}s"
    _verdict(1, f"1000 corpora ({total_tokens} tokens) round-tripped in {elapsed:.1f}s")


def test_acceptance_2_reference_grammar_and_word_count():
    stream = [0, 1, 2, 0, 1, 3, 0, 1, 2, 0, 1, 3, 0, 1, 0]
    grammar = infer_grammar(stream, 4)
    mapping = {grammar.root_id: 0}
    order = [grammar.root_id]
    i = 0
    while i < len(order):
        for sym in grammar.body(order[i]):
            if grammar.is_rule(sym) and sym not in mapping:
                mapping[sym] = len(mapping)
                order.append(sym)
        i += 1
    shape = [
        [("R", mapping[s]) if grammar.is_rule(s) else s for s in grammar.body(r)]
        for r in order
    ]
    assert shape == [
        [("R", 1), ("R", 1), ("R", 2), 0],
        [("R", 2), 2, ("R", 2), 3],
        [0, 1],
    ]
    dictionary, _, dag = build_dag([("f0", "a b c a b d a b c a b d a b a")])
    expected = {"a": 6, "b": 5, "c": 2, "d": 2}
    assert kernels.word_count_postorder(dag, dictionary) == expected
    assert kernels.word_count_preorder(dag, dictionary) == expected
    _verdict(2, "reference grammar shape and word counts match")


def _sequential_results(files, threshold):
    dictionary, _, dag = build_dag(files, threshold)
    results = {
        "word_count": [
            kernels.word_count_postorder(dag, dictionary),
            kernels.word_count_preorder(dag, dictionary),
        ],
        "sort": [kernels.sort_words(dag, dictionary)],
        "inverted_index": [kernels.inverted_index(dag, dictionary)],
        "term_vector": [list(kernels.term_vector(dag, dictionary))],
        "sequence_count": [list(kernels.sequence_count(dag, dictionary, 3))],
        "ranked_inverted_index": [dict(kernels.ranked_inverted_index(dag, dictionary, 3))],
        "tfidf": [kernels.tfidf(dag, dictionary)],
    }
    return results


def test_acceptance_3_oracle_equivalence_all_kernels():
    rng = random.Random(3003)
    checked = 0
    for trial in range(200):
        files = random_corpus(rng)
        dictionary, encoded = encode_corpus(files)
        streams = [
            [dictionary.code_for(t) for t in tokenize(text)] for _, text in files
        ]
        truth = {task: oracle.run(task, files) for task in TASKS}
        for threshold in (0, 100):
            for task, outputs in _sequential_results(files, threshold).items():
                for result in outputs:
                    assert result == truth[task], (trial, threshold, task)
                    checked += 1
        for workers in (1, 4):
            merged = run_parallel(dictionary, streams, "word_count", workers)
            assert merged == truth["word_count"], (trial, workers)
            checked += 1
    _verdict(3, f"{checked} kernel runs equal the oracle exactly")


def test_acceptance_4_traversal_order_property():
    rng = random.Random(4004)
    for trial in range(100):
        files = random_corpus(rng)
        _, encoded, dag = build_dag(files, threshold=rng.choice((0, 0, 5, 100)))
        assert expand(dag) == encoded.symbols, trial
    _verdict(4, "the DAG's grammar expands to the encoded stream on 100 grammars")


def test_acceptance_6_variant_selector_goldens():
    # (files, tokens): averages of 1000 and 5000 tokens
    assert select_variant(10, 10_000) == "postorder"
    assert select_variant(2000, 10_000_000) == "preorder_twolevel"
    assert select_variant(100, 500_000) == "preorder_bitmap"
    assert select_variant(10_000, 28_599_000) == "postorder"  # avg 2859.9
    assert select_variant(801, 2860 * 801) == "preorder_twolevel"
    assert select_variant(800, 2860 * 800) == "preorder_bitmap"
    _verdict(6, "selector picks postorder/twolevel/bitmap on the golden cases")


def test_acceptance_7_partitioning_500_multisets():
    rng = random.Random(7007)
    capped = 0
    best_effort = 0
    for trial in range(500):
        sizes = [rng.randint(0, 5000) for _ in range(rng.randint(1, 40))]
        if sum(sizes) == 0:
            sizes[0] = 1
        for workers in (2, 4, 8):
            plan = plan_partitions(sizes, workers)
            for file_id in plan.split_files:
                assert sizes[file_id] > plan.h_split, (trial, workers, file_id)
            by_file: dict[int, list] = {}
            for partition in plan.partitions:
                for section in partition:
                    by_file.setdefault(section.file_id, []).append(section)
            assert sorted(by_file) == list(range(len(sizes)))
            for file_id, sections in by_file.items():
                sections.sort(key=lambda s: s.seq)
                assert sections[0].start == 0
                assert sections[-1].end == sizes[file_id]
                for before, after in zip(sections, sections[1:]):
                    assert before.end == after.start
            if plan.max_load <= plan.load_cap:
                capped += 1
            else:
                # splitting exhausted: nothing above the threshold is whole
                best_effort += 1
                assert not any(
                    s.n_sections == 1 and s.size > plan.h_split
                    for p in plan.partitions for s in p
                ), (trial, workers)
    _verdict(
        7,
        f"{capped} plans within the 1.25x cap, {best_effort} best-effort "
        "with nothing left to split; sections always reassemble",
    )


@pytest.mark.slow
def test_acceptance_8_compression_ratio_property():
    start = time.monotonic()
    files = repetitive_corpus(
        seed=88, target_bytes=10_000_000, n_sentences=200,
        repeat_fraction=1.0, vocab_size=120_000,
        sentence_words=(150, 350), word_format="token%07d",
    )
    raw_size = sum(len(text.encode()) for _, text in files)
    assert raw_size >= 10_000_000
    dictionary, encoded = encode_corpus(files)
    grammar = infer_grammar(
        encoded.symbols, dictionary.n_total, dictionary.word_count
    )
    layered = C.write_container(dictionary, grammar, encoded.file_table, True)
    grammar_only = C.write_container(dictionary, grammar, encoded.file_table, False)

    # deflate of the dictionary-encoded raw stream, as LEB128 varints
    def write_varint(value):
        while value >= 0x80:
            buf.append(value & 0x7F | 0x80)
            value >>= 7
        buf.append(value)

    buf = bytearray()
    for sym in encoded.symbols:
        write_varint(sym)
    for word in dictionary.words:
        raw = word.encode()
        write_varint(len(raw))
        buf += raw
    compressor = zlib.compressobj(6, zlib.DEFLATED, -15)
    deflated_raw = compressor.compress(bytes(buf)) + compressor.flush()

    container_ratio = raw_size / len(layered)
    deflate_ratio = raw_size / len(deflated_raw)
    grammar_only_ratio = raw_size / len(grammar_only)
    assert container_ratio >= deflate_ratio
    assert container_ratio >= 2 * grammar_only_ratio
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"took {elapsed:.1f}s"
    _verdict(
        8,
        f"ratios: container {container_ratio:.1f} >= deflate-of-encoded "
        f"{deflate_ratio:.1f} and >= 2x grammar-only "
        f"{grammar_only_ratio:.1f}, in {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_acceptance_9_compute_speedup_on_100mb(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    files = repetitive_corpus(
        seed=90, target_bytes=100_000_000, n_sentences=150,
        repeat_fraction=0.995, vocab_size=3000, n_files=6,
    )
    for name, text in files:
        (corpus_dir / name).write_text(text)
    del files

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([
            "bench", str(corpus_dir), "word-count",
            "--repeat", "3", "--output", "json",
            "--workdir", str(tmp_path / "work"),
        ])
    assert code == 0
    report = json.loads(buffer.getvalue())
    cd = report["engines"]["cd"]
    baseline = report["engines"]["baseline"]
    gz = report["engines"]["gzip"]
    assert baseline["compute"] >= 1.2 * cd["compute"], (
        f"compute: cd {cd['compute']:.3f}s vs baseline {baseline['compute']:.3f}s"
    )
    assert cd["init"] < gz["init"], (
        f"init: cd {cd['init']:.3f}s vs gzip {gz['init']:.3f}s"
    )
    _verdict(
        9,
        f"word-count compute {baseline['compute'] / cd['compute']:.1f}x faster "
        f"on compressed data; init {cd['init']:.2f}s < gzip {gz['init']:.2f}s",
    )


def test_acceptance_10_container_bit_exactness():
    rng = random.Random(1010)
    for trial in range(200):
        files = random_corpus(rng)
        dictionary, encoded = encode_corpus(files)
        grammar = infer_grammar(
            encoded.symbols, dictionary.n_total, dictionary.word_count
        )
        deflate = trial % 2 == 0
        blob = C.write_container(dictionary, grammar, encoded.file_table, deflate)
        read_dict, read_grammar, header = C.read_container(blob)
        rewritten = C.write_container(
            read_dict, read_grammar, header.file_table, deflate
        )
        assert rewritten == blob, trial

    corrupted = bytearray(blob)
    corrupted[0] ^= 0xFF
    try:
        C.read_container(bytes(corrupted))
        raise AssertionError("bad magic accepted")
    except C.BadMagicError:
        pass
    try:
        C.read_container(reseal(blob[: len(blob) // 2]))
        raise AssertionError("truncated container accepted")
    except (C.TruncatedContainerError, C.DeflateError):
        pass
    _verdict(10, "200 write-read round trips byte-identical; errors are distinct")
