"""Exactness of the per-file kernels.

A short file is counted over its expanded run, any other file by pushing
rule tables down the grammar. Every table is compared with the oracle,
which slides the window over the plain token lists, for l = 2..8: tables
and their order must be equal. The word tasks (inverted index, term vector,
tfidf) and both word count kernels are checked on the same corpora. Every
file of the small corpora is short, so each corpus also goes through both
per-file paths, and the inverted index's push-down, called directly; mixed
corpora check which file takes which path.
"""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter

from hypothesis import assume, given, settings, strategies as st

from conftest import build_dag, traversal_index, whole
from tadoc import kernels, oracle
from tadoc.cli import main
from tadoc.corpus import Dictionary, encode_corpus, tokenize
from tadoc.dag import load_merge_graph
from tadoc.scheduler import run_parallel
from tadoc.sequitur import EXPANSION_CAP, Grammar, expansions, parents_first

LENGTHS = range(2, 9)


def _items(result):
    """Results as nested item lists, so that the order of keys is compared too."""
    if isinstance(result, dict):
        return [(key, _items(value)) for key, value in result.items()]
    if isinstance(result, list):
        return [_items(value) for value in result]
    return result


def both_path_tables(dag, words, l=None):
    """Per path, the per-file tables of every file: word-code counts, or
    l-word window counts when `l` is given. Every file must be short."""
    runs = kernels._short_runs(dag)
    assert list(runs) == list(range(dag.file_count))
    if l is None:
        return [
            list(map(Counter, runs.values())),
            kernels._push_code_counts(dag, dag.segments),
        ]
    return [
        [kernels._count_gram_run(words, l, run) for run in runs.values()],
        kernels._push_gram_tables(dag, words, l, dag.segments),
    ]


def assert_words_exact(files, thresholds=(0, 5, 100), workers=(1, 3), both_paths=True):
    truth = {
        "word_count": oracle.run("word_count", files),
        "inverted_index": oracle.run("inverted_index", files),
        "term_vector": oracle.run("term_vector", files),
        "tfidf": oracle.run("tfidf", files),
    }
    for threshold in thresholds:
        dictionary, _, dag = build_dag(files, threshold)
        got = {
            "word_count": [
                kernels.word_count_postorder(dag, dictionary),
                kernels.word_count_preorder(dag, dictionary),
                kernels.run_task("word_count", dag, dictionary),
            ],
            "inverted_index": [kernels.inverted_index(dag, dictionary)],
            "term_vector": [kernels.term_vector(dag, dictionary)],
            "tfidf": [kernels.tfidf(dag, dictionary)],
        }
        if both_paths:
            for tables in both_path_tables(dag, dictionary.words):
                for task in truth:
                    got[task].append(kernels.finish(task, tables, dictionary))
            got["inverted_index"].append(traversal_index(dag, dictionary))
        for task, results in got.items():
            for result in results:
                assert _items(whole(task, result)) == _items(truth[task]), (
                    threshold, task
                )
    dictionary, _ = encode_corpus(files)
    streams = [[dictionary.code_for(t) for t in tokenize(text)] for _, text in files]
    for n in workers:
        for task, expected in truth.items():
            got = whole(task, run_parallel(dictionary, streams, task, n))
            assert _items(got) == _items(expected), (n, task)


def assert_exact(files, thresholds=(0, 5, 100), workers=(1, 3), both_paths=True):
    assert_words_exact(files, thresholds, workers, both_paths)
    for l in LENGTHS:
        counts = _items(oracle.run("sequence_count", files, l))
        ranked = _items(oracle.run("ranked_inverted_index", files, l))
        for threshold in thresholds:
            dictionary, _, dag = build_dag(files, threshold)
            got = list(kernels.sequence_count(dag, dictionary, l))
            assert _items(got) == counts, (threshold, l)
            got = dict(kernels.ranked_inverted_index(dag, dictionary, l))
            assert _items(got) == ranked, (threshold, l)
            if both_paths:
                for tables in both_path_tables(dag, dictionary.words, l):
                    got = list(kernels.finish("sequence_count", tables, dictionary))
                    assert _items(got) == counts, (threshold, l)
                    got = kernels.finish("ranked_inverted_index", tables, dictionary)
                    assert _items(dict(got)) == ranked, (threshold, l)
        dictionary, _ = encode_corpus(files)
        streams = [[dictionary.code_for(t) for t in tokenize(text)] for _, text in files]
        for n in workers:
            got = run_parallel(dictionary, streams, "sequence_count", n, l=l)
            assert _items(list(got)) == counts, (n, l)
            got = run_parallel(dictionary, streams, "ranked_inverted_index", n, l=l)
            assert _items(dict(got)) == ranked, (n, l)


@st.composite
def small_alphabet_corpora(draw):
    """1-4 files over 2 or 3 words, so that Sequitur rules repeat heavily."""
    alphabet = ["a", "b", "c"][: draw(st.integers(2, 3))]
    files = draw(
        st.lists(
            st.lists(st.sampled_from(alphabet), max_size=80), min_size=1, max_size=4
        )
    )
    assume(any(files))
    return [(f"f{i}", " ".join(tokens)) for i, tokens in enumerate(files)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_alphabet_corpora())
def test_small_alphabet_corpora_match_oracle(files):
    assert_exact(files)


def test_empty_file():
    assert_exact([("f0", ""), ("f1", "a b c a b c a b c"), ("f2", "")])


def test_files_shorter_than_window():
    assert_exact([("f0", "a"), ("f1", "a b"), ("f2", "a b c d a b c d"), ("f3", "d c")])


def test_file_that_is_one_rule_occurrence():
    files = [("f0", "p q r s t"), ("f1", "p q r s t"), ("f2", "t p q r s t p")]
    dictionary, _, dag = build_dag(files)
    start, end = dag.segments[1]
    segment = dag.body(dag.root_id)[start:end]
    assert len(segment) == 1 and dag.is_rule(segment[0])
    assert_exact(files)


def test_adjacent_occurrences_of_one_rule():
    assert_exact([("f0", "a b " * 16), ("f1", "a b a b a b a"), ("f2", "b " + "a b " * 9)])


def test_one_word_repeated():
    assert_exact([("f0", "a a a a a"), ("f1", "a " * 37), ("f2", "a a")])


def test_words_with_underscores_sum_like_the_oracle():
    # (a_b, c, x) and (a, b_c, x) both read a_b_c_x
    files = [("f0", "a_b c x a b_c x"), ("f1", "a b_c x")]
    dictionary, _, dag = build_dag(files)
    assert next(kernels.sequence_count(dag, dictionary, 3))["a_b_c_x"] == 2
    ranked = dict(kernels.ranked_inverted_index(dag, dictionary, 3))
    assert ranked["a_b_c_x"] == [(0, 2), (1, 1)]
    assert_exact(files)


def test_window_tables_are_keyed_by_gram_name():
    # grams that join alike are summed where they are counted
    files = [("f0", "a_b c x a b_c x"), ("f1", "a b_c x")]
    dictionary, _, dag = build_dag(files)
    expected = [{"a_b_c_x": 2, "c_x_a": 1, "x_a_b_c": 1}, {"a_b_c_x": 1}]
    tables = kernels._gram_tables(dag, dictionary.words, 3)
    assert [dict(table) for table in tables] == expected


def test_doubling_grammar_is_counted_without_expansion():
    # R0 -> a b, Ri -> Ri-1 Ri-1, root -> R39 separator: (a b) repeated
    # 2^39 times, 2^40 tokens; the counts follow from the grammar alone.
    # The rules are built children first and renumbered parents first.
    depth = 40
    n = 3  # a, b and one file separator
    rules = [[n + depth, 2], [0, 1]]
    rules += [[n + i, n + i] for i in range(1, depth)]
    dag = load_merge_graph(parents_first(Grammar(n, 2, rules)))
    dictionary = Dictionary(["a", "b"], 1)
    half = 2 ** (depth - 1)
    expected = {
        2: {"a_b": half, "b_a": half - 1},
        3: {"a_b_a": half - 1, "b_a_b": half - 1},
        5: {"a_b_a_b_a": half - 2, "b_a_b_a_b": half - 2},
    }
    for l, counts in expected.items():
        assert list(kernels.sequence_count(dag, dictionary, l)) == [counts]
        ranked = dict(kernels.ranked_inverted_index(dag, dictionary, l))
        assert ranked == {gram: [(0, count)] for gram, count in counts.items()}
    words = {"a": half, "b": half}
    assert kernels.word_count_postorder(dag, dictionary) == words
    assert kernels.word_count_preorder(dag, dictionary) == words
    assert kernels.run_task("word_count", dag, dictionary) == words
    assert list(kernels.term_vector(dag, dictionary)) == [[("a", half), ("b", half)]]
    # one file: every word is in every file, so ln(1 / 1) scores 0
    assert kernels.tfidf(dag, dictionary) == {"a": {0: 0.0}, "b": {0: 0.0}}


def _fresh_text(seed, count):
    """`count` words drawn from 5000, so that few digrams repeat."""
    rng = random.Random(seed)
    return " ".join(f"v{rng.randrange(5000)}" for _ in range(count))


def _mixed_corpus():
    """Short files, a file over the segment limit, an empty file, a file
    shorter than the window, words with "_", and a file of two occurrences
    of a rule over the cap."""
    long_text = _fresh_text(2, EXPANSION_CAP + 44)
    return [
        ("f0", "a b c a b c x_y"),
        ("f1", _fresh_text(1, 3 * kernels._SHORT_SEGMENT) + " a b c x_y"),
        ("f2", ""),
        ("f3", "a_b"),
        ("f4", "a b_c x a_b c x"),
        ("f5", "x_y a b c " * 4),
        ("f6", f"{long_text} {long_text}"),
    ]


def test_mixed_corpus_takes_both_paths():
    files = _mixed_corpus()
    for threshold in (0, 4, 5, 100):
        _, _, dag = build_dag(files, threshold)
        assert list(kernels._short_runs(dag)) == [0, 2, 3, 4, 5], threshold
        start, end = dag.segments[6]
        assert end - start <= kernels._SHORT_SEGMENT, threshold
    assert_exact(files, both_paths=False)


def test_mixed_corpus_inverted_index(capsys, tmp_path):
    files = _mixed_corpus()
    expected = oracle.run("inverted_index", files)
    for threshold in (0, 4, 100):
        dictionary, _, dag = build_dag(files, threshold)
        # the names select nothing, but callers such as the benchmark pass them
        for variant in kernels.INDEX_VARIANTS:
            got = kernels.inverted_index(dag, dictionary, variant)
            assert _items(got) == _items(expected), (threshold, variant)

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, text in files:
        (corpus / name).write_text(text)
    container = tmp_path / "mixed.tdoc"
    assert main(["compress", str(corpus), "--out", str(container)]) == 0
    outputs = []
    for argv in (
        [str(container), "inverted-index"],
        [str(corpus), "inverted-index", "--engine", "baseline"],
    ):
        capsys.readouterr()
        assert main(["analyze", *argv]) == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1]


def test_one_long_file_pays_only_for_the_rules_it_reaches(monkeypatch):
    # the short files share phrases among themselves that the long file,
    # fresh text and a phrase of its own repeated into nested rules, never
    # holds
    files = [(f"s{i}", "p q r s t u p q r s t u " * (1 + i % 3)) for i in range(8)]
    files.append(("long", _fresh_text(3, 600) + " k l m n" * 64))
    dictionary, _, dag = build_dag(files)
    assert list(kernels._short_runs(dag)) == list(range(8))
    start, end = dag.segments[8]
    root = dag.body(dag.root_id)
    reached = {sym for sym in root[start:end] if dag.is_rule(sym)}
    stack = list(reached)
    while stack:
        for child in dag.body(stack.pop()):
            if dag.is_rule(child) and child not in reached:
                reached.add(child)
                stack.append(child)
    assert 0 < len(reached) < len(dag.rules) - 1

    calls = []
    crossing_windows = kernels._crossing_windows

    def spy(elements, *args):
        calls.append(elements)
        return crossing_windows(elements, *args)

    monkeypatch.setattr(kernels, "_crossing_windows", spy)
    got = list(kernels.sequence_count(dag, dictionary, 3))
    # one call per reached rule, and one for the long file's segment
    assert len(calls) == len(reached) + 1
    assert _items(got) == _items(oracle.run("sequence_count", files, 3))


def test_rule_over_the_cap_is_never_expanded(monkeypatch):
    # f1 and f2 are each one occurrence of a rule of more words than the cap
    long_text = _fresh_text(2, EXPANSION_CAP + 44)
    files = [
        ("f0", "a b c a b"),
        ("f1", long_text),
        ("f2", long_text),
        ("f3", "c a b c"),
    ]
    _, _, dag = build_dag(files)
    root = dag.body(dag.root_id)
    (rule,) = root[slice(*dag.segments[1])]
    assert root[slice(*dag.segments[2])] == [rule]
    assert list(kernels._short_runs(dag)) == [0, 3]
    assert expansions(dag.rules, dag.n_terminals, EXPANSION_CAP)[rule] is None

    built = []

    def spy(rules, n_terminals, cap):
        built.append(expansions(rules, n_terminals, cap))
        return built[-1]

    monkeypatch.setattr(kernels, "expansions", spy)
    assert_exact(files, both_paths=False)
    assert built
    longest = max(len(words) for table in built for words in table if words is not None)
    assert longest <= EXPANSION_CAP


def test_a_window_longer_than_every_file_costs_no_memory():
    # each short file's run used to be sliced l times, whatever its length
    files = [("f0", "a b c d"), ("f1", "b c d e")]
    dictionary, _, dag = build_dag(files)
    streams = [[dictionary.code_for(t) for t in tokenize(text)] for _, text in files]
    l = 10**5
    expected = oracle.run("sequence_count", files, l)
    assert expected == [{}, {}]
    for count in (
        lambda: list(kernels.sequence_count(dag, dictionary, l)),
        lambda: list(run_parallel(dictionary, streams, "sequence_count", 1, l)),
    ):
        tracemalloc.start()
        try:
            got = count()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected
        assert peak < 1 << 20


def test_a_window_longer_than_the_text_reads_no_rule():
    # a 2^16-token doubling grammar: no segment holds 10^9 words, so no rule
    # gets an edge summary, which would hold its whole expansion
    depth = 16
    n = 3  # a, b and one file separator
    rules = [[n + depth, 2], [0, 1]]
    rules += [[n + i, n + i] for i in range(1, depth)]
    dag = load_merge_graph(parents_first(Grammar(n, 2, rules)))
    dictionary = Dictionary(["a", "b"], 1)
    assert dag.total_tokens == 2**depth
    for task, expected in (("sequence_count", [{}]), ("ranked_inverted_index", {})):
        tracemalloc.start()
        try:
            got = whole(task, kernels.run_task(task, dag, dictionary, 10**9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected, task
        assert peak < 1 << 20, task


def _short_files(seed, count=400):
    """`count` files of 32-128 words over 3000, every other one drawn from
    a pool of 60 sentences."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(3000)]
    pool = [" ".join(rng.choices(vocab, k=rng.randint(8, 16))) for _ in range(60)]
    files = []
    for index in range(count):
        sentences = []
        for _ in range(rng.randint(4, 8)):
            fresh = " ".join(rng.choices(vocab, k=rng.randint(8, 16)))
            sentences.append(rng.choice(pool) if index % 2 else fresh)
        files.append((f"f{index}", " ".join(sentences)))
    return files


def test_ranked_index_holds_one_file_table_at_a_time():
    # the per-file tables are merged as they are counted: the kernel's peak
    # stays near what the merged postings hold
    dictionary, _, dag = build_dag(_short_files(5))
    assert len(kernels._short_runs(dag)) == dag.file_count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = kernels.ranked_inverted_index(dag, dictionary, 3)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert next(result, None) is not None
    assert peak - before < 1.5 * (held - before)
