import random
import zlib

import pytest

from conftest import random_corpus, repetitive_corpus
from tadoc import container as C
from tadoc.corpus import FileEntry, encode_corpus
from tadoc.sequitur import Grammar, infer_grammar


def build(files):
    dictionary, encoded = encode_corpus(files)
    grammar = infer_grammar(
        encoded.symbols, dictionary.n_total, dictionary.word_count
    )
    return dictionary, encoded, grammar


def test_round_trip_both_layers():
    rng = random.Random(21)
    for _ in range(25):
        dictionary, encoded, grammar = build(random_corpus(rng))
        for deflate in (True, False):
            blob = C.write_container(dictionary, grammar, encoded.file_table, deflate)
            read_dict, read_grammar, header = C.read_container(blob)
            assert read_dict.words == dictionary.words
            assert read_dict.separator_count == dictionary.separator_count
            assert read_grammar == grammar
            assert header.total_tokens == encoded.total_tokens
            assert header.file_table == encoded.file_table
            # byte determinism
            assert (
                C.write_container(dictionary, grammar, encoded.file_table, deflate)
                == blob
            )


def test_preambles_differ_only_in_flag_byte():
    dictionary, encoded, grammar = build([("f0", "a b a b a b")])
    with_layer = C.write_container(dictionary, grammar, encoded.file_table, True)
    without = C.write_container(dictionary, grammar, encoded.file_table, False)
    assert with_layer[:5] == without[:5]
    assert with_layer[6:16] == without[6:16]
    assert with_layer[5] != without[5]


def test_deflate_layer_shrinks_repetitive_corpus():
    files = repetitive_corpus(seed=1, target_bytes=200_000, n_sentences=50)
    dictionary, encoded, grammar = build(files)
    with_layer = C.write_container(dictionary, grammar, encoded.file_table, True)
    without = C.write_container(dictionary, grammar, encoded.file_table, False)
    assert len(with_layer) < len(without)


def test_bad_magic():
    dictionary, encoded, grammar = build([("f0", "a b")])
    blob = C.write_container(dictionary, grammar, encoded.file_table)
    with pytest.raises(C.BadMagicError):
        C.read_container(b"XXXX" + blob[4:])


def test_unsupported_version():
    dictionary, encoded, grammar = build([("f0", "a b")])
    blob = bytearray(C.write_container(dictionary, grammar, encoded.file_table))
    blob[4] = 99
    with pytest.raises(C.UnsupportedVersionError):
        C.read_container(bytes(blob))


def test_truncation_never_yields_partial_grammar():
    dictionary, encoded, grammar = build([("f0", "a b c a b c a b")])
    for deflate in (True, False):
        blob = C.write_container(dictionary, grammar, encoded.file_table, deflate)
        for cut in range(len(blob)):
            with pytest.raises(C.ContainerError):
                C.read_container(blob[:cut])


def test_trailing_bytes_after_grammar_are_counted():
    dictionary, encoded, grammar = build([("f0", "a b a b a b")])
    blob = C.write_container(dictionary, grammar, encoded.file_table, False)
    # two complete varints, one of them two bytes long
    with pytest.raises(C.ContainerError, match="^3 trailing bytes after grammar$"):
        C.read_container(blob + b"\x05\x85\x01")
    # a varint whose final byte is missing
    with pytest.raises(C.ContainerError, match="^2 trailing bytes after grammar$"):
        C.read_container(blob + b"\x85\x85")


def test_cyclic_grammar_is_rejected():
    dictionary, encoded, grammar = build([("f0", "a b a b")])
    n = grammar.n_terminals
    rules = [list(body) for body in grammar.rules]
    # a new rule that the root references and that references itself
    rules[0].insert(0, n + len(rules))
    rules.append([0, n + len(rules)])
    cyclic = Grammar(n, grammar.n_words, rules)
    blob = C.write_container(dictionary, cyclic, encoded.file_table, False)
    with pytest.raises(C.ContainerError, match="cyclic"):
        C.read_container(blob)
    # a rule that references the root
    rules[-1] = [0, n]
    back_edge = Grammar(n, grammar.n_words, rules)
    blob = C.write_container(dictionary, back_edge, encoded.file_table, False)
    with pytest.raises(C.ContainerError, match="cyclic"):
        C.read_container(blob)


def test_undefined_or_missing_rules_are_rejected():
    dictionary, encoded, grammar = build([("f0", "a b a b")])
    n = grammar.n_terminals
    rules = [list(body) for body in grammar.rules]
    rules[0].insert(0, n + len(rules))
    dangling = Grammar(n, grammar.n_words, rules)
    blob = C.write_container(dictionary, dangling, encoded.file_table, False)
    with pytest.raises(C.ContainerError, match="undefined rule"):
        C.read_container(blob)
    rootless = Grammar(n, grammar.n_words, [])
    blob = C.write_container(dictionary, rootless, encoded.file_table, False)
    with pytest.raises(C.ContainerError, match="no root rule"):
        C.read_container(blob)


def test_deflate_garbage():
    dictionary, encoded, grammar = build([("f0", "a b")])
    blob = C.write_container(dictionary, grammar, encoded.file_table, True)
    with pytest.raises(C.DeflateError):
        C.read_container(blob[:16] + b"\x07garbage-not-deflate")


def test_feature_mismatch_is_detected():
    dictionary, encoded, grammar = build([("f0", "a b a b"), ("f1", "c d")])
    table = [
        FileEntry(e.name, e.token_count + 1, e.separator_code)
        for e in encoded.file_table
    ]
    blob = C.write_container(dictionary, grammar, table, False)
    with pytest.raises(C.FeatureMismatchError):
        C.read_container(blob)


def test_read_header_matches_full_read():
    rng = random.Random(8)
    dictionary, encoded, grammar = build(random_corpus(rng))
    for deflate in (True, False):
        blob = C.write_container(dictionary, grammar, encoded.file_table, deflate)
        header = C.read_header(blob)
        _, _, full = C.read_container(blob)
        assert header == full


def test_varint_round_trip():
    buf = bytearray()
    values = [0, 1, 127, 128, 300, 16383, 16384, 2**21, 2**35 + 17]
    for value in values:
        C.write_varint(buf, value)
    pos = 0
    out = []
    for _ in values:
        value, pos = C.read_varint(buf, pos)
        out.append(value)
    assert out == values and pos == len(buf)
    assert C.decode_varint_stream(bytes(buf), 0) == (values, False)
    # from an offset, and with the final byte of the last varint missing
    first = len(buf) - 6  # 2**35 + 17 takes six bytes
    assert C.decode_varint_stream(bytes(buf), first) == (values[-1:], False)
    assert C.decode_varint_stream(bytes(buf[:-1]), 0) == (values[:-1], True)


def test_compression_report_arithmetic():
    report = C.compression_report(100, 10, 25)
    assert report.container_ratio == 10.0
    assert report.deflate_ratio == 4.0


def test_outer_layer_recovers_identical_inner_payload():
    dictionary, encoded, grammar = build([("f0", "a b c a b c")])
    payload = C.build_payload(dictionary, grammar, encoded.file_table)
    blob = C.write_container(dictionary, grammar, encoded.file_table, True)
    assert zlib.decompress(blob[16:], -15) == payload
