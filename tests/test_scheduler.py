import random

import pytest

from conftest import build_dag, random_corpus, whole
from tadoc import kernels, oracle
from tadoc.corpus import encode_corpus, encode_tokens, tokenize
from tadoc.kernels import select_variant
from tadoc.scheduler import TASKS, plan_partitions, run_parallel


def test_selector_published_thresholds():
    # (files, tokens): averages of 1000 and 5000 tokens
    assert select_variant(10, 10_000) == "postorder"
    assert select_variant(2000, 10_000_000) == "preorder_twolevel"
    assert select_variant(100, 500_000) == "preorder_bitmap"
    # boundary behavior: avg below 2860 goes postorder, files above 800 twolevel
    assert select_variant(10_000, 28_599_000) == "postorder"  # avg 2859.9
    assert select_variant(801, 2860 * 801) == "preorder_twolevel"
    assert select_variant(800, 2860 * 800) == "preorder_bitmap"


def test_balanced_whole_files_are_not_split():
    plan = plan_partitions([10, 10, 10, 10], 2)
    assert sorted(plan.loads) == [20, 20]
    assert plan.split_files == set()
    assert all(s.n_sections == 1 for p in plan.partitions for s in p)


def test_oversized_file_is_split():
    # in the second case h_split is below one token
    for sizes, workers, split in (([100, 1, 1], 2, {0}), ([12, 2, 1], 16, {0, 1})):
        plan = plan_partitions(sizes, workers)
        assert plan.split_files == split
        assert plan.max_load <= plan.load_cap
        for file_id in split:
            sections = sorted(
                (s for p in plan.partitions for s in p if s.file_id == file_id),
                key=lambda s: s.seq,
            )
            assert [s.seq for s in sections] == list(range(len(sections)))
            assert all(s.size > 0 for s in sections)
            assert sections[0].start == 0 and sections[-1].end == sizes[file_id]
            for before, after in zip(sections, sections[1:]):
                assert before.end == after.start


def test_single_worker_never_splits():
    plan = plan_partitions([1000, 1, 1], 1)
    assert len(plan.partitions) == 1
    assert plan.split_files == set()


def test_partition_fuzz_properties():
    rng = random.Random(41)
    for _ in range(150):
        sizes = [rng.randint(0, 2000) for _ in range(rng.randint(1, 30))]
        if sum(sizes) == 0:
            sizes[0] = 10
        for workers in (2, 4, 8):
            plan = plan_partitions(sizes, workers)
            # only files above the split threshold are ever split
            for file_id in plan.split_files:
                assert sizes[file_id] > plan.h_split
            # sections concatenate back to the original files
            by_file = {}
            for partition in plan.partitions:
                for section in partition:
                    by_file.setdefault(section.file_id, []).append(section)
            for file_id, sections in by_file.items():
                sections.sort(key=lambda s: s.seq)
                assert sections[0].start == 0
                assert sections[-1].end == sizes[file_id]
                for before, after in zip(sections, sections[1:]):
                    assert before.end == after.start
            # balance holds whenever anything splittable remains
            if plan.max_load > plan.load_cap:
                assert not any(
                    s.n_sections == 1 and s.size > plan.h_split
                    for p in plan.partitions
                    for s in p
                )


def _file_streams(files):
    dictionary, _ = encode_corpus(files)
    streams = [encode_tokens(tokenize(text), dictionary) for _, text in files]
    return dictionary, streams


def run_task_sequential(files, task, l=3):
    dictionary, encoded, dag = build_dag(files)
    return whole(task, kernels.run_task(task, dag, dictionary, l))


def run_oracle(files, task, l=3):
    return oracle.run(task, files, l)


def test_results_invariant_under_worker_count():
    rng = random.Random(43)
    for _ in range(12):
        files = random_corpus(rng)
        dictionary, streams = _file_streams(files)
        for task in TASKS:
            reference = run_task_sequential(files, task)
            assert run_oracle(files, task) == reference
            for workers in (1, 2, 4, 8):
                merged = whole(task, run_parallel(dictionary, streams, task, workers))
                assert merged == reference, (task, workers)
        for top_k in (0, 1, 3):
            reference = oracle.run("term_vector", files, top_k=top_k)
            for workers in (1, 2, 4, 8):
                merged = list(run_parallel(
                    dictionary, streams, "term_vector", workers, top_k=top_k
                ))
                assert merged == reference, (top_k, workers)


def test_run_parallel_never_infers_a_grammar(monkeypatch):
    def no_inference(*args):
        raise AssertionError("run_parallel inferred a grammar")

    rng = random.Random(59)
    files = random_corpus(rng)
    files.append(("big", " ".join(rng.choices(["u", "v", "w"], k=400))))
    references = {task: run_task_sequential(files, task) for task in TASKS}
    dictionary, streams = _file_streams(files)
    monkeypatch.setattr("tadoc.sequitur._infer", no_inference)
    for workers in (1, 2, 3):
        for task in TASKS:
            merged = whole(task, run_parallel(dictionary, streams, task, workers))
            assert merged == references[task], (task, workers)


def test_split_file_sequence_count_matches_oracle():
    rng = random.Random(47)
    # one dominating file forces a split under several worker counts
    big = " ".join(rng.choices(["u", "v", "w", "x", "y"], k=900))
    cases = [(big, (2, 4, 8), (2, 3, 5))]
    # sections shorter than l-1 tokens: windows run over several sections
    for size in (12, 25, 60):
        short = " ".join(rng.choices(["u", "v", "w", "x", "y"], k=size))
        cases.append((short, (8, 16), (5, 8)))
    for text, worker_counts, lengths in cases:
        files = [("big", text), ("s0", "u v"), ("s1", "w"), ("s2", "")]
        dictionary, streams = _file_streams(files)
        for workers in worker_counts:
            plan = plan_partitions([len(s) for s in streams], workers)
            assert 0 in plan.split_files
            for l in lengths:
                merged = list(run_parallel(
                    dictionary, streams, "sequence_count", workers, l=l
                ))
                assert merged == oracle.run("sequence_count", files, l), (workers, l)
                ranked = dict(run_parallel(
                    dictionary, streams, "ranked_inverted_index", workers, l=l
                ))
                assert ranked == oracle.run("ranked_inverted_index", files, l)


def test_split_file_with_underscore_words_matches_oracle():
    # (a_b, c) and (a, b_c) join alike; the worker tables are summed by name
    rng = random.Random(53)
    words = ["a_b", "c", "a", "b_c", "x", "_", "a_"]
    big = " ".join(rng.choices(words, k=600))
    files = [("big", big), ("s0", "a_b c a b_c"), ("s1", "_ a_ _")]
    dictionary, streams = _file_streams(files)
    for workers in (1, 2, 3):
        if workers > 1:
            plan = plan_partitions([len(s) for s in streams], workers)
            assert 0 in plan.split_files
        for l in (2, 3, 4):
            counts = list(
                run_parallel(dictionary, streams, "sequence_count", workers, l=l)
            )
            assert counts == oracle.run("sequence_count", files, l), (workers, l)
            ranked = dict(run_parallel(
                dictionary, streams, "ranked_inverted_index", workers, l=l
            ))
            assert ranked == oracle.run("ranked_inverted_index", files, l), (workers, l)


def test_run_parallel_rejects_unknown_task():
    dictionary, streams = _file_streams([("f0", "a b")])
    with pytest.raises(ValueError):
        run_parallel(dictionary, streams, "word-frequency", 2)


def test_run_parallel_rejects_negative_top_k():
    dictionary, streams = _file_streams([("f0", "a b a"), ("f1", "b c")])
    for workers in (1, 2):
        with pytest.raises(ValueError):
            run_parallel(dictionary, streams, "term_vector", workers, top_k=-1)
