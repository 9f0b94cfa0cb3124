import random
import re
import zlib
from pathlib import Path

import pytest

from conftest import random_corpus, repetitive_corpus, reseal
from tadoc import container as C
from tadoc.corpus import Dictionary, FileEntry, encode_corpus
from tadoc.dag import load_merge_graph
from tadoc.sequitur import Grammar, GrammarError, expand, infer_grammar, parents_first


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
    assert with_layer[10:16] == without[10:16] == bytes(6)
    assert with_layer[5] != without[5]
    # bytes 6..9 differ too: each is the CRC32 of its own payload
    for blob in (with_layer, without):
        assert blob[6:10] == zlib.crc32(blob[16:]).to_bytes(4, "little")


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


def test_version_1_is_rejected():
    # the version-1 encoding of one file "f0" holding "a b a b"
    v1 = bytes.fromhex(
        "54444f43 01 00" + "00" * 10
        + "030201 026630 0402 040202 0161 0162 03040402 020001"
    )
    for read in (C.read_container, C.read_header):
        with pytest.raises(C.UnsupportedVersionError, match="version 1"):
            read(v1)


def test_version_2_is_rejected():
    # the version-2 encoding of one file "f0" holding "a b a b"
    v2 = bytes.fromhex(
        "54444f43 02 00 5b9ed368" + "00" * 6
        + "03000000 02000000 01000000 04000000 02000000 02000000 02000000 03000000"
        + "04000000 02000000 6630 610a62"
        + "0302" + "00" * 6 + "0404020001" + "00" * 15
    )
    for read in (C.read_container, C.read_header):
        with pytest.raises(C.UnsupportedVersionError, match="version 2"):
            read(v2)
    # the same bytes with the current version byte are a valid container
    current = C.read_container(v2[:4] + bytes([C.VERSION]) + v2[5:])
    assert current[1].rules == [[4, 4, 2], [0, 1]]


def test_checksum_mismatch_is_rejected():
    dictionary, encoded, grammar = build([("f0", "a b a b a b"), ("f1", "c a b")])
    for deflate in (True, False):
        blob = C.write_container(dictionary, grammar, encoded.file_table, deflate)
        for offset in (6, 16, len(blob) - 1):
            bad = bytearray(blob)
            bad[offset] ^= 0x20
            for read in (C.read_container, C.read_header):
                with pytest.raises(C.ChecksumError):
                    read(bytes(bad))
        with pytest.raises(C.ChecksumError):
            C.read_container(blob + b"\x00")


def test_reserved_preamble_bits_are_rejected():
    dictionary, encoded, grammar = build([("f0", "a b")])
    blob = C.write_container(dictionary, grammar, encoded.file_table)
    for offset, bit in ((5, 0x02), (10, 0x01), (15, 0x80)):
        bad = bytearray(blob)
        bad[offset] |= bit
        with pytest.raises(C.ContainerError, match="reserved"):
            C.read_container(bytes(bad))


def test_writer_rejects_what_the_layout_cannot_hold():
    dictionary, encoded, grammar = build([("f0", "a b a b"), ("f1", "c d")])
    table = encoded.file_table

    newline = Dictionary(["a\nb", *dictionary.words[1:]], dictionary.separator_count)
    with pytest.raises(C.ContainerError, match="dictionary word contains"):
        C.write_container(newline, grammar, table)
    nul = [FileEntry("f\0", table[0].token_count, table[0].separator_code), table[1]]
    with pytest.raises(C.ContainerError, match="file name contains"):
        C.write_container(dictionary, grammar, nul)

    rules = [list(body) for body in grammar.rules]
    rules[-1].append(2**32)
    wide = Grammar(grammar.n_terminals, grammar.n_words, rules)
    with pytest.raises(C.ContainerError, match="32 bits"):
        C.write_container(dictionary, wide, table)
    wide_count = [FileEntry("f0", 2**32, table[0].separator_code), table[1]]
    with pytest.raises(C.ContainerError, match="32 bits"):
        C.write_container(dictionary, grammar, wide_count)
    # 2**32 - 1 still fits
    rules[-1][-1] = 2**32 - 1
    blob = C.write_container(
        dictionary, Grammar(grammar.n_terminals, grammar.n_words, rules), table, False
    )
    with pytest.raises(C.ContainerError, match="undefined rule"):
        C.load_container(blob)


def test_random_byte_flips_are_rejected_or_harmless():
    """1-3 flipped bytes: a ContainerError, or exactly the original read."""
    rng = random.Random(2024)
    dictionary, encoded, grammar = build(random_corpus(random.Random(7)))
    blobs = [
        C.write_container(dictionary, grammar, encoded.file_table, deflate)
        for deflate in (True, False)
    ]
    originals = [C.read_container(blob) for blob in blobs]
    for trial in range(4000):
        blob = blobs[trial % 2]
        want_dict, want_grammar, want_header = originals[trial % 2]
        bad = bytearray(blob)
        for _ in range(rng.randint(1, 3)):
            bad[rng.randrange(len(bad))] ^= rng.randint(1, 255)
        bad = bytes(bad)
        try:
            got_dict, got_grammar, got_header = C.read_container(bad)
        except C.ContainerError:
            pass
        else:
            assert (got_dict, got_grammar, got_header) == (
                want_dict, want_grammar, want_header
            ), trial
        try:
            header = C.read_header(bad)
        except C.ContainerError:
            pass
        else:
            assert header == want_header, trial


def test_truncation_never_yields_partial_grammar():
    dictionary, encoded, grammar = build([("f0", "a b c a b c a b")])
    for deflate in (True, False):
        blob = C.write_container(dictionary, grammar, encoded.file_table, deflate)
        for cut in range(len(blob)):
            with pytest.raises(C.ContainerError):
                C.read_container(blob[:cut])
            # behind a valid checksum the cut is found by the layout
            with pytest.raises(C.TruncatedContainerError):
                C.read_container(reseal(blob[:cut]))


def test_trailing_bytes_after_grammar_are_counted():
    dictionary, encoded, grammar = build([("f0", "a b a b a b")])
    blob = C.write_container(dictionary, grammar, encoded.file_table, False)
    with pytest.raises(C.ContainerError, match="^3 trailing bytes after grammar$"):
        C.read_container(reseal(blob + b"\x05\x85\x01"))
    # fewer bytes than one more symbol
    with pytest.raises(C.ContainerError, match="^2 trailing bytes after grammar$"):
        C.read_container(reseal(blob + b"\x85\x85"))


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
        C.load_container(blob)
    # a rule that references the root
    rules[-1] = [0, n]
    back_edge = Grammar(n, grammar.n_words, rules)
    blob = C.write_container(dictionary, back_edge, encoded.file_table, False)
    with pytest.raises(C.ContainerError, match="cyclic"):
        C.load_container(blob)


def renumbered(grammar, order):
    """`grammar` with rule `order[i]` stored as rule i."""
    n = grammar.n_terminals
    number = {n + old: n + new for new, old in enumerate(order)}
    rules = [
        [number.get(sym, sym) for sym in grammar.rules[old]] for old in order
    ]
    return Grammar(n, grammar.n_words, rules)


def test_rules_not_stored_parents_first_are_rejected():
    dictionary, encoded, grammar = build([("f0", "a b c a b d a b c a b d a b a")])
    n = grammar.n_terminals
    assert len(grammar.rules) == 3 and n + 2 in grammar.rules[1]
    # acyclic, but rule 1 references rule 2 and rule 2 now comes first
    swapped = renumbered(grammar, [0, 2, 1])
    assert expand(swapped) == expand(grammar)
    blob = C.write_container(dictionary, swapped, encoded.file_table, False)
    with pytest.raises(C.ContainerError, match="cyclic or not stored parents first"):
        C.load_container(blob)
    with pytest.raises(GrammarError, match="not stored parents first"):
        load_merge_graph(swapped)
    # parents_first restores the stored order
    assert parents_first(swapped) == grammar


def test_unreferenced_rule_is_rejected():
    dictionary, encoded, grammar = build([("f0", "a b a b")])
    n = grammar.n_terminals
    orphan = Grammar(n, grammar.n_words, grammar.rules + [[0, 1]])
    blob = C.write_container(dictionary, orphan, encoded.file_table, False)
    with pytest.raises(C.ContainerError, match="unreachable"):
        C.load_container(blob)
    with pytest.raises(GrammarError, match="unreachable"):
        load_merge_graph(orphan)
    with pytest.raises(GrammarError, match="unreachable"):
        parents_first(orphan)


def test_file_token_counts_must_sum_to_total():
    dictionary, encoded, grammar = build([("f0", "a b a b"), ("f1", "c d")])
    blob = bytearray(C.write_container(dictionary, grammar, encoded.file_table, False))
    # the low-byte plane of the token counts follows the 32-byte header block
    offset = C.PREAMBLE_SIZE + 32
    assert list(blob[offset : offset + 2]) == [4, 2]
    blob[offset + 1] += 1
    bad = reseal(bytes(blob))
    for read in (C.read_container, C.read_header):
        with pytest.raises(C.FeatureMismatchError, match="file table sum 7"):
            read(bad)


def test_undefined_or_missing_rules_are_rejected():
    dictionary, encoded, grammar = build([("f0", "a b a b")])
    n = grammar.n_terminals
    rules = [list(body) for body in grammar.rules]
    rules[0].insert(0, n + len(rules))
    dangling = Grammar(n, grammar.n_words, rules)
    blob = C.write_container(dictionary, dangling, encoded.file_table, False)
    with pytest.raises(C.ContainerError, match="undefined rule"):
        C.load_container(blob)
    rootless = Grammar(n, grammar.n_words, [])
    blob = C.write_container(dictionary, rootless, encoded.file_table, False)
    with pytest.raises(C.ContainerError, match="no root rule"):
        C.load_container(blob)


def test_non_utf8_names_and_words_are_container_errors():
    dictionary, encoded, grammar = build([("zz", "qq a b qq")])
    blob = C.write_container(dictionary, grammar, encoded.file_table, False)
    for field in (b"zz", b"qq"):
        assert blob.count(field) == 1
        bad = reseal(blob.replace(field, b"\xff\xfe"))
        with pytest.raises(C.ContainerError, match="not valid UTF-8"):
            C.read_container(bad)
        if field == b"zz":
            with pytest.raises(C.ContainerError, match="not valid UTF-8"):
                C.read_header(bad)


def test_root_symbols_after_last_separator_are_rejected():
    dictionary, encoded, grammar = build([("f0", "a b a b"), ("f1", "c d")])
    rules = [list(body) for body in grammar.rules]
    # swap the last separator with the element before it: token count unchanged
    rules[0][-2:] = rules[0][-1], rules[0][-2]
    moved = Grammar(grammar.n_terminals, grammar.n_words, rules)
    blob = C.write_container(dictionary, moved, encoded.file_table, False)
    with pytest.raises(C.ContainerError, match="after the last file separator"):
        C.load_container(blob)


def test_separators_outside_the_root_are_rejected():
    dictionary, encoded, grammar = build([("f0", "a b"), ("f1", "c d"), ("f2", "e")])
    n, n_words = grammar.n_terminals, grammar.n_words
    assert (n, n_words) == (8, 5)  # words 0..4, separators 5, 6 and 7
    # the corpus's expansion, but the root holds one separator of three
    inside = Grammar(n, n_words, [[0, 1, 9, 4, 7], [5, 2, 3, 6]])
    assert expand(inside) == encoded.symbols
    blob = C.write_container(dictionary, inside, encoded.file_table, False)
    C.read_container(blob)  # the bytes themselves are well formed
    with pytest.raises(C.ContainerError, match="separator code 5 in rule 9, outside"):
        C.load_container(blob)
    # one separator twice, another not at all: the same token count
    twice = Grammar(n, n_words, [[0, 1, 5, 2, 3, 5, 4, 7]])
    blob = C.write_container(dictionary, twice, encoded.file_table, False)
    with pytest.raises(C.ContainerError, match="exactly once"):
        C.load_container(blob)


def test_load_container_is_read_then_load():
    rng = random.Random(22)
    for _ in range(10):
        dictionary, encoded, grammar = build(random_corpus(rng))
        blob = C.write_container(dictionary, grammar, encoded.file_table)
        read_dict, read_grammar, read_header = C.read_container(blob)
        loaded_dict, dag, loaded_header = C.load_container(blob)
        assert (loaded_dict, loaded_header) == (read_dict, read_header)
        assert dag == load_merge_graph(read_grammar)
        assert dag.total_tokens == encoded.total_tokens


def test_deflate_garbage():
    dictionary, encoded, grammar = build([("f0", "a b")])
    blob = C.write_container(dictionary, grammar, encoded.file_table, True)
    with pytest.raises(C.DeflateError):
        C.read_container(reseal(blob[:16] + b"\x07garbage-not-deflate"))


def test_feature_mismatch_is_detected():
    dictionary, encoded, grammar = build([("f0", "a b a b"), ("f1", "c d")])
    table = [
        FileEntry(e.name, e.token_count + 1, e.separator_code)
        for e in encoded.file_table
    ]
    blob = C.write_container(dictionary, grammar, table, False)
    with pytest.raises(C.FeatureMismatchError):
        C.load_container(blob)


def with_separator_codes(blob: bytes, codes: list[int]) -> bytes:
    """An undeflated container with the separator-code plane of its file
    table replaced by `codes`, resealed."""
    count = len(codes)
    start = C.PREAMBLE_SIZE + C._HEADER.size + 4 * count  # after the token counts
    patched = bytearray(blob)
    patched[start : start + 4 * count] = C._plane(codes)
    return reseal(bytes(patched))


def test_separator_codes_must_follow_the_words_in_file_order():
    dictionary, encoded, grammar = build([("f0", "a b a b"), ("f1", "c d")])
    codes = [e.separator_code for e in encoded.file_table]
    assert codes == [dictionary.word_count, dictionary.word_count + 1]
    blob = C.write_container(dictionary, grammar, encoded.file_table, False)
    assert with_separator_codes(blob, codes) == blob
    for bad in ([0, 0], codes[::-1], [codes[0], codes[0]]):
        patched = with_separator_codes(blob, bad)
        for reader in (C.read_header, C.read_container, C.load_container):
            with pytest.raises(C.ContainerError, match="separator codes"):
                reader(patched)


def test_writer_rejects_separator_codes_out_of_file_order():
    dictionary, encoded, grammar = build([("f0", "a b a b"), ("f1", "c d")])
    codes = [e.separator_code for e in encoded.file_table]
    for bad in ([0, 0], codes[::-1], [codes[0], codes[0]], [codes[0], codes[1] + 1]):
        table = [
            FileEntry(e.name, e.token_count, code)
            for e, code in zip(encoded.file_table, bad)
        ]
        for deflate in (True, False):
            with pytest.raises(C.ContainerError, match="separator codes"):
                C.write_container(dictionary, grammar, table, deflate)


def test_read_header_matches_full_read():
    rng = random.Random(8)
    dictionary, encoded, grammar = build(random_corpus(rng))
    for deflate in (True, False):
        blob = C.write_container(dictionary, grammar, encoded.file_table, deflate)
        header = C.read_header(blob)
        _, _, full = C.read_container(blob)
        assert header == full


def test_empty_file_table_is_rejected():
    dictionary, grammar = Dictionary(["a"], 0), Grammar(1, 1, [[]])
    with pytest.raises(C.ContainerError, match="no files"):
        C.write_container(dictionary, grammar, [])
    payload = C.build_payload(dictionary, grammar, [])
    blob = reseal(C.MAGIC + bytes([C.VERSION, 0]) + bytes(10) + payload)
    for read in (C.read_header, C.read_container, C.load_container):
        with pytest.raises(C.ContainerError, match="no files"):
            read(blob)


def test_outer_layer_recovers_identical_inner_payload():
    dictionary, encoded, grammar = build([("f0", "a b c a b c")])
    payload = C.build_payload(dictionary, grammar, encoded.file_table)
    blob = C.write_container(dictionary, grammar, encoded.file_table, True)
    assert zlib.decompress(blob[16:], -15) == payload


def test_format_doc_example_matches_the_writer():
    doc = (Path(__file__).parents[1] / "docs" / "format.md").read_text()
    example = doc.split("## Hex-annotated example", 1)[1].split("```")[1]
    expected = bytearray()
    for line in example.splitlines():
        # leading "hh" or "hh*count" tokens; the annotation follows
        for token in line.split():
            match = re.fullmatch(r"([0-9a-f]{2})(?:\*(\d+))?", token)
            if not match:
                break
            expected += bytes.fromhex(match[1]) * int(match[2] or 1)
    dictionary, encoded, grammar = build([("f0", "a b a b")])
    assert grammar.rules == [[4, 4, 2], [0, 1]]
    blob = C.write_container(dictionary, grammar, encoded.file_table, False)
    assert blob == bytes(expected)
