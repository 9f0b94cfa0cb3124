import math
import random
import sys
from collections import Counter

import pytest

from conftest import build_dag, random_corpus, traversal_index
from tadoc import kernels, oracle

REF_FILES = [("f0", "a b c a b d a b c a b d a b a")]


def test_word_count_reference_values():
    dictionary, _, dag = build_dag(REF_FILES)
    expected = {"a": 6, "b": 5, "c": 2, "d": 2}
    assert kernels.word_count_postorder(dag, dictionary) == expected
    assert kernels.word_count_preorder(dag, dictionary) == expected


def test_single_token_corpus():
    dictionary, _, dag = build_dag([("f0", "x")])
    assert kernels.word_count_postorder(dag, dictionary) == {"x": 1}


def test_chain_frequencies_are_one():
    # one file, no repetition: the root is the only rule, read once
    dictionary, _, dag = build_dag([("f0", "p q r s t")])
    assert len(dag.rules) == 1
    assert kernels.word_count_preorder(dag, dictionary) == dict.fromkeys("pqrst", 1)


def test_work_queue_gate():
    rng = random.Random(123)
    for _ in range(30):
        dictionary, encoded, dag = build_dag(random_corpus(rng))
        # rule-id order is the work queue: a rule comes after every parent
        for rid, body in enumerate(dag.rules, dag.n_terminals):
            assert all(rid < sym for sym in body if dag.is_rule(sym)), rid
        # so each rule's frequency is complete when its turn comes
        words = Counter(
            dictionary.words[code] for code in encoded.symbols if code < dag.n_words
        )
        assert kernels.word_count_preorder(dag, dictionary) == dict(words)


def test_sort_words_reference():
    dictionary, _, dag = build_dag(REF_FILES)
    assert kernels.sort_words(dag, dictionary) == [
        ("a", 6), ("b", 5), ("c", 2), ("d", 2),
    ]


def test_inverted_index_two_files():
    dictionary, _, dag = build_dag([("f0", "a b"), ("f1", "a c")])
    assert kernels.inverted_index(dag, dictionary) == {"a": [0, 1], "b": [0], "c": [1]}


def test_shared_rule_collects_union_of_files():
    # the same phrase occurs in three files; a rule for it is referenced from
    # all three segments, so its words index to the union of the file ids
    phrase = "lorem ipsum dolor sit"
    files = [
        ("f0", f"{phrase} alpha {phrase}"),
        ("f1", f"beta {phrase} beta {phrase}"),
        ("f2", f"{phrase} {phrase} gamma"),
    ]
    dictionary, _, dag = build_dag(files)
    # every file is short, so the push-down is also run on all of them
    for index in (kernels.inverted_index(dag, dictionary), traversal_index(dag, dictionary)):
        for word in ("lorem", "ipsum", "dolor", "sit"):
            assert index[word] == [0, 1, 2]
        assert index["alpha"] == [0]
        assert index["beta"] == [1]
        assert index["gamma"] == [2]


def test_unknown_variant():
    dictionary, _, dag = build_dag(REF_FILES)
    with pytest.raises(ValueError):
        kernels.inverted_index(dag, dictionary, "preorder_btree")


def test_term_vector_small():
    dictionary, _, dag = build_dag([("f0", "a a b")])
    assert list(kernels.term_vector(dag, dictionary)) == [[("a", 2), ("b", 1)]]


def test_term_vector_reference_and_top_k():
    dictionary, _, dag = build_dag(REF_FILES)
    assert list(kernels.term_vector(dag, dictionary)) == [
        [("a", 6), ("b", 5), ("c", 2), ("d", 2)]
    ]
    assert list(kernels.term_vector(dag, dictionary, top_k=2)) == [[("a", 6), ("b", 5)]]


def test_sequence_count_reference():
    dictionary, _, dag = build_dag(REF_FILES)
    assert list(kernels.sequence_count(dag, dictionary, 3)) == [
        {
            "a_b_a": 1, "a_b_c": 2, "a_b_d": 2, "b_c_a": 2,
            "b_d_a": 2, "c_a_b": 2, "d_a_b": 2,
        }
    ]


def test_sequence_count_short_file():
    dictionary, _, dag = build_dag([("f0", "a b"), ("f1", "a b c d")])
    tables = list(kernels.sequence_count(dag, dictionary, 3))
    assert tables[0] == {}
    assert tables[1] == {"a_b_c": 1, "b_c_d": 1}


def test_sequence_length_validation():
    dictionary, _, dag = build_dag(REF_FILES)
    with pytest.raises(ValueError):
        kernels.sequence_count(dag, dictionary, 1)


def test_window_count_conservation():
    rng = random.Random(17)
    for _ in range(20):
        files = random_corpus(rng)
        dictionary, encoded, dag = build_dag(files)
        for l in (2, 3, 5):
            tables = kernels.sequence_count(dag, dictionary, l)
            for entry, table in zip(encoded.file_table, tables):
                expected = max(entry.token_count - l + 1, 0)
                assert sum(table.values()) == expected


def test_ranked_inverted_index_single_and_disjoint():
    dictionary, _, dag = build_dag([("f0", "a b c a b c")])
    ranked = dict(kernels.ranked_inverted_index(dag, dictionary))
    assert ranked["a_b_c"] == [(0, 2)]
    dictionary, _, dag = build_dag([("f0", "p q r"), ("f1", "x y z")])
    ranked = dict(kernels.ranked_inverted_index(dag, dictionary))
    assert ranked == {"p_q_r": [(0, 1)], "x_y_z": [(1, 1)]}


def test_ranked_inverted_index_orders_by_count_then_file():
    files = [("f0", "a b c"), ("f1", "a b c a b c"), ("f2", "a b c")]
    dictionary, _, dag = build_dag(files)
    ranked = dict(kernels.ranked_inverted_index(dag, dictionary))
    assert ranked["a_b_c"] == [(1, 2), (0, 1), (2, 1)]


@pytest.mark.parametrize(
    "tables, expected",
    [
        # count descending, ties by file
        (
            [Counter(g=1), Counter(g=3), Counter(g=1), Counter(g=2)],
            [("g", [(1, 3), (3, 2), (0, 1), (2, 1)])],
        ),
        # the first file holds the highest count
        (
            [Counter(g=5), Counter(g=2, h=2), Counter(g=5)],
            [("g", [(0, 5), (2, 5), (1, 2)]), ("h", [(1, 2)])],
        ),
        # grams in one file each
        (
            [Counter(x=2, y=1), Counter(), Counter(z=1)],
            [("x", [(0, 2)]), ("y", [(0, 1)]), ("z", [(2, 1)])],
        ),
        # keys ascending where one gram is a prefix of another
        (
            [Counter({"a_b_c": 1, "a0_b": 1}), Counter({"a_b": 2, "a_b_c": 1})],
            [("a0_b", [(0, 1)]), ("a_b", [(1, 2)]), ("a_b_c", [(0, 1), (1, 1)])],
        ),
    ],
)
def test_rank_gram_files(tables, expected):
    assert list(kernels.rank_gram_files(tables)) == expected


def test_rank_gram_files_gives_each_gram_its_own_list():
    # p, q and r share a count in each file
    tables = [Counter(p=1, q=1), Counter(p=1, r=1), Counter(q=1, r=1)]
    ranked = dict(kernels.rank_gram_files(tables))
    ranked["q"].append((7, 9))
    ranked["r"].sort(reverse=True)
    assert ranked == {
        "p": [(0, 1), (1, 1)],
        "q": [(0, 1), (2, 1), (7, 9)],
        "r": [(2, 1), (1, 1)],
    }


def test_rank_gram_files_matches_a_sorted_dict_reference():
    rng = random.Random(31)
    for case in range(60):
        # few names and counts, so both repeat across many files; some
        # tables are empty, and case 0 has no tables at all
        names = [f"g{i}" for i in range(rng.randint(1, 12))]
        tables = [
            Counter({rng.choice(names): rng.randint(1, 3) for _ in range(rng.randint(0, 8))})
            for _ in range(0 if case == 0 else rng.randint(1, 40))
        ]
        by_gram: dict[str, list[tuple[int, int]]] = {}
        for file_id, table in enumerate(tables):
            for gram, count in table.items():
                by_gram.setdefault(gram, []).append((file_id, count))
        expected = [
            (gram, sorted(by_gram[gram], key=lambda pair: (-pair[1], pair[0])))
            for gram in sorted(by_gram)
        ]
        ranked = list(kernels.rank_gram_files(iter(tables)))
        assert ranked == expected
        assert len({id(postings) for _, postings in ranked}) == len(ranked)


def test_rank_gram_files_streams_each_gram_and_keeps_none_it_gave():
    tables = [Counter(c=1, a=2), Counter(c=1, b=1), Counter(b=3)]
    ranked = kernels.rank_gram_files(iter(tables))
    got, last = [], None
    for gram, postings in ranked:
        assert type(postings) is list
        if last is not None:
            # once the next gram is out, the kernel holds no reference to
            # the postings it gave before: `last` and getrefcount's argument
            # are all that refer to them
            assert sys.getrefcount(last) == 2
        got.append((gram, postings[:]))
        last = postings
        del postings
    assert got == [("a", [(0, 2)]), ("b", [(2, 3), (1, 1)]), ("c", [(0, 1), (1, 1)])]


def test_tfidf_reference_values():
    dictionary, _, dag = build_dag([("f0", "a b"), ("f1", "a c")])
    scores = kernels.tfidf(dag, dictionary)
    assert scores["a"] == {0: 0.0, 1: 0.0}
    assert scores["b"] == {0: 1 * math.log(2)}
    assert scores["c"] == {1: 1 * math.log(2)}


def test_all_kernels_match_oracle():
    rng = random.Random(23)
    for _ in range(40):
        files = random_corpus(rng)
        for threshold in (0, 4, 100):
            dictionary, encoded, dag = build_dag(files, threshold)
            counts = oracle.run("word_count", files)
            assert kernels.word_count_postorder(dag, dictionary) == counts
            assert kernels.word_count_preorder(dag, dictionary) == counts
            assert kernels.sort_words(dag, dictionary) == oracle.run("sort", files)
            assert kernels.inverted_index(dag, dictionary) == \
                oracle.run("inverted_index", files)
            assert list(kernels.term_vector(dag, dictionary)) == \
                oracle.run("term_vector", files)
            for l in (2, 3):
                assert list(kernels.sequence_count(dag, dictionary, l)) == \
                    oracle.run("sequence_count", files, l)
            assert dict(kernels.ranked_inverted_index(dag, dictionary)) == \
                oracle.run("ranked_inverted_index", files)
            assert kernels.tfidf(dag, dictionary) == oracle.run("tfidf", files)


def test_word_count_conservation():
    rng = random.Random(29)
    for _ in range(20):
        files = random_corpus(rng)
        dictionary, encoded, dag = build_dag(files)
        counts = kernels.word_count_preorder(dag, dictionary)
        assert sum(counts.values()) == encoded.total_tokens
