import random

import pytest

from conftest import build_dag, random_corpus, whole
from tadoc import kernels, oracle
from tadoc.corpus import encode_corpus, encode_tokens, tokenize
from tadoc.kernels import TASKS, select_variant
from tadoc.scheduler import plan_partitions, run_parallel


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
            assert run_task_sequential(files, task) == run_oracle(files, task), task
        reference = run_oracle(files, "word_count")
        for workers in (1, 2, 4, 8):
            merged = run_parallel(dictionary, streams, "word_count", workers)
            assert merged == reference, workers


def test_run_parallel_never_infers_a_grammar(monkeypatch):
    def no_inference(*args):
        raise AssertionError("run_parallel inferred a grammar")

    rng = random.Random(59)
    files = random_corpus(rng)
    files.append(("big", " ".join(rng.choices(["u", "v", "w"], k=400))))
    for task in TASKS:
        assert run_task_sequential(files, task) == run_oracle(files, task), task
    reference = run_oracle(files, "word_count")
    dictionary, streams = _file_streams(files)
    monkeypatch.setattr("tadoc.sequitur._infer", no_inference)
    for workers in (1, 2, 3):
        merged = run_parallel(dictionary, streams, "word_count", workers)
        assert merged == reference, workers


def test_split_file_word_count_matches_oracle():
    # the benchmark's probe: run_parallel(dictionary, streams, "word_count", w)
    rng = random.Random(47)
    big = " ".join(rng.choices(["u", "v", "w", "x", "y"], k=900))
    files = [("big", big), ("s0", "u v"), ("s1", "w"), ("s2", "")]
    dictionary, streams = _file_streams(files)
    expected = list(run_oracle(files, "word_count").items())
    for workers in range(1, 9):
        if workers > 1:
            plan = plan_partitions([len(s) for s in streams], workers)
            assert plan.split_files == {0}, workers
        result = run_parallel(dictionary, streams, "word_count", workers)
        assert list(result.items()) == expected, workers
        for task in TASKS:
            if task != "word_count":
                with pytest.raises(ValueError):
                    run_parallel(dictionary, streams, task, workers)


def test_run_parallel_rejects_unknown_task():
    dictionary, streams = _file_streams([("f0", "a b")])
    with pytest.raises(ValueError):
        run_parallel(dictionary, streams, "word-frequency", 2)
