import math
import random

from conftest import random_corpus
from tadoc import oracle

REF_FILES = [("f0", "a b c a b d a b c a b d a b a")]


def test_word_count_reference():
    assert oracle.run("word_count", REF_FILES) == {"a": 6, "b": 5, "c": 2, "d": 2}


def test_empty_file_gets_empty_tables():
    files = [("f0", ""), ("f1", "a b a")]
    assert oracle.run("term_vector", files)[0] == []
    assert oracle.run("sequence_count", files)[0] == {}
    assert oracle.run("inverted_index", files) == {"a": [1], "b": [1]}


def test_ranked_inverted_index_orders_by_count_then_file():
    files = [("f0", "a b c"), ("f1", "x"), ("f2", "a b c a b c"), ("f3", "a b c")]
    assert oracle.run("ranked_inverted_index", files) == {
        "a_b_c": [(2, 2), (0, 1), (3, 1)],
        "b_c_a": [(2, 1)],
        "c_a_b": [(2, 1)],
    }


def test_tfidf_recomposable_from_term_vector_and_inverted_index():
    rng = random.Random(61)
    for _ in range(20):
        files = random_corpus(rng)
        scores = oracle.run("tfidf", files)
        vectors = oracle.run("term_vector", files)
        index = oracle.run("inverted_index", files)
        file_count = len(files)
        recomposed: dict[str, dict[int, float]] = {}
        for file_id, ranked in enumerate(vectors):
            for word, count in ranked:
                recomposed.setdefault(word, {})[file_id] = count * math.log(
                    file_count / len(index[word])
                )
        recomposed = {
            word: dict(sorted(recomposed[word].items()))
            for word in sorted(recomposed)
        }
        assert scores == recomposed


def test_sort_is_word_count_sorted():
    rng = random.Random(67)
    files = random_corpus(rng)
    ranked = oracle.run("sort", files)
    assert ranked == sorted(ranked)
    assert dict(ranked) == oracle.run("word_count", files)
