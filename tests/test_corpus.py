import random

import pytest

from conftest import random_corpus
from tadoc.corpus import (
    Dictionary,
    EmptyCorpusError,
    FileEntry,
    MalformedStreamError,
    decode_stream,
    encode_corpus,
    encode_tokens,
    tokenize,
)


def test_encode_repeated_sentence_corpus():
    dictionary, encoded = encode_corpus([("f0", "a b c a b d a b c a b d a b a")])
    assert dictionary.words == ["a", "b", "c", "d"]
    assert dictionary.separator_count == 1
    assert dictionary.n_total == 5
    assert encoded.symbols == [0, 1, 2, 0, 1, 3, 0, 1, 2, 0, 1, 3, 0, 1, 0, 4]
    assert encoded.file_table == [FileEntry("f0", 15)]


def test_encode_single_token():
    dictionary, encoded = encode_corpus([("f0", "x")])
    assert dictionary.words == ["x"]
    assert encoded.symbols == [0, 1]


def test_encode_two_files_first_appearance_coding():
    dictionary, encoded = encode_corpus([("f0", "a b"), ("f1", "a c")])
    assert dictionary.words == ["a", "b", "c"]
    assert encoded.file_table == [FileEntry("f0", 2), FileEntry("f1", 2)]
    # file i's separator code is word_count + i
    assert encoded.symbols == [0, 1, 3, 0, 2, 4]
    # a last file of words seen before adds no code but its separator
    dictionary, encoded = encode_corpus([("f0", "a b"), ("f1", "a c"), ("f2", "c a")])
    assert dictionary.words == ["a", "b", "c"]
    assert encoded.symbols == [0, 1, 3, 0, 2, 4, 2, 0, 5]
    # the finished dictionary refuses a word it has not coded
    with pytest.raises(MalformedStreamError):
        encode_tokens(["a", "z"], dictionary)
    assert dictionary.codes == {"a": 0, "b": 1, "c": 2}


def test_empty_corpus_is_an_error():
    with pytest.raises(EmptyCorpusError):
        encode_corpus([])
    with pytest.raises(EmptyCorpusError):
        encode_corpus([("f0", "   \n\t "), ("f1", "")])


def test_empty_file_among_nonempty_is_fine():
    dictionary, encoded = encode_corpus([("f0", ""), ("f1", "a")])
    assert encoded.file_table[0].token_count == 0
    assert decode_stream(encoded.symbols, dictionary) == [(0, []), (1, ["a"])]
    # empty first and last files: a separator at both ends of the stream
    files = [("f0", ""), ("f1", "a b"), ("f2", "b a"), ("f3", " \n")]
    dictionary, encoded = encode_corpus(files)
    assert dictionary.words == ["a", "b"]
    assert encoded.symbols == [2, 0, 1, 3, 1, 0, 4, 5]
    assert [entry.token_count for entry in encoded.file_table] == [0, 2, 2, 0]
    assert decode_stream(encoded.symbols, dictionary) == [
        (0, []), (1, ["a", "b"]), (2, ["b", "a"]), (3, [])
    ]


def test_decode_two_files():
    dictionary, encoded = encode_corpus([("f0", "a b"), ("f1", "a c")])
    assert decode_stream(encoded.symbols, dictionary) == [
        (0, ["a", "b"]),
        (1, ["a", "c"]),
    ]


def test_decode_empty_stream():
    dictionary = Dictionary(["a"], separator_count=1)
    assert decode_stream([], dictionary) == []


def test_word_index_is_built_on_first_lookup():
    dictionary = Dictionary(["a", "b", "c"], separator_count=1)
    assert dictionary._codes is None
    assert dictionary.code_for("c") == 2
    assert dictionary._codes == {"a": 0, "b": 1, "c": 2}
    assert encode_tokens(["b", "a"], dictionary) == [1, 0]


def test_decode_out_of_range_code():
    dictionary = Dictionary(["a", "b", "c"], separator_count=2)  # N = 5
    with pytest.raises(MalformedStreamError):
        decode_stream([0, 99], dictionary)


def test_decode_negative_code():
    # a negative code would otherwise read a word from the end of the list
    dictionary = Dictionary(["a", "b", "c"], separator_count=1)
    with pytest.raises(MalformedStreamError, match="negative"):
        decode_stream([-1, 0, 3], dictionary)


def test_round_trip_and_conservation():
    rng = random.Random(42)
    for _ in range(60):
        files = random_corpus(rng)
        dictionary, encoded = encode_corpus(files)
        decoded = decode_stream(encoded.symbols, dictionary)
        assert [tokens for _, tokens in decoded] == [
            tokenize(text) for _, text in files
        ]
        # every separator appears exactly once
        for code in range(dictionary.word_count, dictionary.n_total):
            assert encoded.symbols.count(code) == 1
        assert encoded.total_tokens == len(encoded.symbols) - len(files)


def test_dictionary_determinism():
    rng = random.Random(9)
    files = random_corpus(rng)
    first, _ = encode_corpus(files)
    second, _ = encode_corpus(files)
    assert first.words == second.words


def test_lowercase_flag():
    dictionary, _ = encode_corpus([("f0", "Foo FOO foo")], lowercase=True)
    assert dictionary.words == ["foo"]
    dictionary, _ = encode_corpus([("f0", "Foo FOO foo")])
    assert dictionary.words == ["Foo", "FOO", "foo"]


def test_tokenize_keeps_punctuation_and_splits_unicode_whitespace():
    assert tokenize("don't stop, now!") == ["don't", "stop,", "now!"]
