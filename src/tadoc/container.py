"""Bit-exact on-disk format for (dictionary, grammar, metadata).

Layout: a fixed 16-byte preamble (magic ``TDOC``, version, flags, reserved)
followed by the payload -- header block, dictionary block, grammar block.
With the deflate flag set, everything after the preamble is one raw DEFLATE
stream (RFC 1951). Varints are unsigned LEB128; fixed-width fields are
little-endian. See docs/format.md for a hex-annotated example.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from .corpus import Dictionary, FileEntry
from .sequitur import Grammar

MAGIC = b"TDOC"
VERSION = 1
PREAMBLE_SIZE = 16
FLAG_DEFLATE = 0x01


class ContainerError(ValueError):
    """Malformed container (CLI exit code 3)."""


class BadMagicError(ContainerError):
    pass


class UnsupportedVersionError(ContainerError):
    pass


class TruncatedContainerError(ContainerError):
    pass


class DeflateError(ContainerError):
    pass


class FeatureMismatchError(ContainerError):
    """Header feature block disagrees with recomputed payload values."""


@dataclass
class ContainerHeader:
    version: int
    deflate: bool
    n_terminals: int
    word_count: int
    file_table: list[FileEntry]
    total_tokens: int
    vocab_size: int
    rule_count: int
    container_size: int = 0

    @property
    def file_count(self) -> int:
        return len(self.file_table)


# -- varints -------------------------------------------------------------------


def write_varint(buf: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def read_varint(data, pos: int) -> tuple[int, int]:
    value = 0
    shift = 0
    size = len(data)
    while True:
        if pos >= size:
            raise TruncatedContainerError("varint runs past end of payload")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def decode_varint_stream(data, pos: int) -> tuple[list[int], bool]:
    """Every varint from `pos` to the end of `data`, in one pass.

    The flag is True when the data ends inside a varint, its final byte
    missing.
    """
    out = []
    append = out.append
    stream = iter(data[pos:])
    for byte in stream:
        if byte < 0x80:
            append(byte)
            continue
        value = byte & 0x7F
        shift = 7
        # the rest of this varint, from the same iterator
        for byte in stream:
            if byte < 0x80:
                append(value | (byte << shift))
                break
            value |= (byte & 0x7F) << shift
            shift += 7
        else:
            return out, True
    return out, False


# -- writing -------------------------------------------------------------------


def build_payload(
    dictionary: Dictionary, grammar: Grammar, file_table: list[FileEntry]
) -> bytes:
    buf = bytearray()
    write_varint(buf, grammar.n_terminals)
    write_varint(buf, dictionary.word_count)
    write_varint(buf, len(file_table))
    for entry in file_table:
        name = entry.name.encode("utf-8")
        write_varint(buf, len(name))
        buf += name
        write_varint(buf, entry.token_count)
        write_varint(buf, entry.separator_code)
    # feature block
    write_varint(buf, sum(e.token_count for e in file_table))
    write_varint(buf, dictionary.word_count)
    write_varint(buf, len(grammar.rules))
    # dictionary block
    for word in dictionary.words:
        encoded = word.encode("utf-8")
        write_varint(buf, len(encoded))
        buf += encoded
    # grammar block
    for body in grammar.rules:
        write_varint(buf, len(body))
        for sym in body:
            write_varint(buf, sym)
    return bytes(buf)


def write_container(
    dictionary: Dictionary,
    grammar: Grammar,
    file_table: list[FileEntry],
    deflate: bool = True,
) -> bytes:
    if dictionary.n_total != grammar.n_terminals:
        raise ContainerError("dictionary and grammar disagree on terminal count")
    if dictionary.separator_count != len(file_table):
        raise ContainerError("file table does not match separator count")
    payload = build_payload(dictionary, grammar, file_table)
    flags = FLAG_DEFLATE if deflate else 0
    preamble = MAGIC + bytes([VERSION, flags]) + b"\x00" * (PREAMBLE_SIZE - 6)
    if deflate:
        compressor = zlib.compressobj(6, zlib.DEFLATED, -15)
        payload = compressor.compress(payload) + compressor.flush()
    return preamble + payload


# -- reading -------------------------------------------------------------------


def _read_preamble(data: bytes) -> tuple[int, bool]:
    if len(data) < PREAMBLE_SIZE:
        raise TruncatedContainerError(
            f"container shorter than the {PREAMBLE_SIZE}-byte preamble"
        )
    if data[:4] != MAGIC:
        raise BadMagicError(f"bad magic {data[:4]!r}")
    version = data[4]
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported container version {version}")
    return version, bool(data[5] & FLAG_DEFLATE)


def _inflate(data: bytes) -> bytes:
    try:
        decompressor = zlib.decompressobj(-15)
        payload = decompressor.decompress(data)
        payload += decompressor.flush()
        if not decompressor.eof:
            raise TruncatedContainerError("deflate stream ends prematurely")
        if decompressor.unused_data:
            raise ContainerError(
                f"{len(decompressor.unused_data)} trailing bytes after "
                "the deflate stream"
            )
        return payload
    except zlib.error as exc:
        raise DeflateError(f"deflate layer is corrupt: {exc}") from exc


def _parse_header(payload, version: int, deflate: bool) -> tuple[ContainerHeader, int]:
    pos = 0
    n_terminals, pos = read_varint(payload, pos)
    word_count, pos = read_varint(payload, pos)
    file_count, pos = read_varint(payload, pos)
    file_table = []
    for _ in range(file_count):
        name_len, pos = read_varint(payload, pos)
        if pos + name_len > len(payload):
            raise TruncatedContainerError("file name runs past end of payload")
        name = bytes(payload[pos : pos + name_len]).decode("utf-8")
        pos += name_len
        token_count, pos = read_varint(payload, pos)
        separator, pos = read_varint(payload, pos)
        file_table.append(FileEntry(name, token_count, separator))
    total_tokens, pos = read_varint(payload, pos)
    vocab_size, pos = read_varint(payload, pos)
    rule_count, pos = read_varint(payload, pos)
    header = ContainerHeader(
        version=version,
        deflate=deflate,
        n_terminals=n_terminals,
        word_count=word_count,
        file_table=file_table,
        total_tokens=total_tokens,
        vocab_size=vocab_size,
        rule_count=rule_count,
    )
    return header, pos


def read_header(data: bytes) -> ContainerHeader:
    """Parse preamble and header block only (grammar left untouched).

    On deflated containers the stream is inflated incrementally, just far
    enough to cover the header.
    """
    version, deflate = _read_preamble(data)
    body = data[PREAMBLE_SIZE:]
    if not deflate:
        header, _ = _parse_header(body, version, deflate)
        header.container_size = len(data)
        return header
    decompressor = zlib.decompressobj(-15)
    inflated = bytearray()
    feed = body
    while feed:
        try:
            inflated += decompressor.decompress(feed, 64 * 1024)
        except zlib.error as exc:
            raise DeflateError(f"deflate layer is corrupt: {exc}") from exc
        try:
            header, _ = _parse_header(inflated, version, deflate)
            header.container_size = len(data)
            return header
        except TruncatedContainerError:
            feed = decompressor.unconsumed_tail
    # all input consumed; either the header really is truncated or the
    # final parse succeeds on the complete payload
    header, _ = _parse_header(inflated, version, deflate)
    header.container_size = len(data)
    return header


def read_container(data: bytes) -> tuple[Dictionary, Grammar, ContainerHeader]:
    """Exact inverse of write_container; verifies the feature block."""
    version, deflate = _read_preamble(data)
    payload = data[PREAMBLE_SIZE:]
    if deflate:
        payload = _inflate(payload)
    header, pos = _parse_header(payload, version, deflate)
    header.container_size = len(data)

    words = []
    for _ in range(header.word_count):
        word_len, pos = read_varint(payload, pos)
        if pos + word_len > len(payload):
            raise TruncatedContainerError("dictionary word runs past end of payload")
        words.append(bytes(payload[pos : pos + word_len]).decode("utf-8"))
        pos += word_len
    separator_count = header.n_terminals - header.word_count
    dictionary = Dictionary(words, separator_count)

    bodies = _split_rules(payload, pos, header.rule_count)
    grammar = Grammar(header.n_terminals, header.word_count, bodies)

    _verify_features(header, dictionary, grammar)
    return dictionary, grammar, header


def _split_rules(payload, pos: int, rule_count: int) -> list[list[int]]:
    """The grammar block: `rule_count` bodies, each a length and its symbols."""
    values, unterminated = decode_varint_stream(payload, pos)
    bodies = []
    index = 0
    for _ in range(rule_count):
        if index >= len(values):
            raise TruncatedContainerError("varint runs past end of payload")
        end = index + 1 + values[index]
        if end > len(values):
            raise TruncatedContainerError("varint runs past end of payload")
        bodies.append(values[index + 1 : end])
        index = end
    if index != len(values) or unterminated:
        for _ in range(index):
            _, pos = read_varint(payload, pos)
        raise ContainerError(f"{len(payload) - pos} trailing bytes after grammar")
    return bodies


def _verify_features(header, dictionary: Dictionary, grammar: Grammar) -> None:
    if header.vocab_size != dictionary.word_count:
        raise FeatureMismatchError(
            f"vocabulary size {header.vocab_size} != dictionary {dictionary.word_count}"
        )
    if header.file_count != dictionary.separator_count:
        raise FeatureMismatchError(
            f"file count {header.file_count} != separator count "
            f"{dictionary.separator_count}"
        )
    recomputed = _grammar_token_count(grammar)
    if recomputed != header.total_tokens:
        raise FeatureMismatchError(
            f"token count {header.total_tokens} != recomputed {recomputed}"
        )


def _grammar_token_count(grammar: Grammar) -> int:
    """Word tokens in the expansion, via each rule's expanded length.

    The rules are ordered parents first over their distinct references,
    which also finds cycles and unreachable rules; lengths then fill in
    children first, each a sum over the body, so no body is expanded.
    """
    n = grammar.n_terminals
    rules = grammar.rules
    rule_count = len(rules)
    if not rule_count:
        raise ContainerError("grammar has no root rule")
    children = [[sym - n for sym in set(body) if sym >= n] for body in rules]
    in_deg = [0] * rule_count
    try:
        for kids in children:
            for kid in kids:
                in_deg[kid] += 1
    except IndexError:
        raise ContainerError("grammar references an undefined rule") from None
    order = [0]
    if in_deg[0] == 0:
        for index in order:
            for kid in children[index]:
                in_deg[kid] -= 1
                if in_deg[kid] == 0:
                    order.append(kid)
    if in_deg[0] or len(order) != rule_count:
        raise ContainerError("grammar graph is cyclic or has unreachable rules")

    # words in each symbol's expansion: 1 per word, 0 per separator
    length = [1] * grammar.n_words + [0] * (n - grammar.n_words + rule_count)
    expanded = length.__getitem__
    for index in reversed(order):
        length[n + index] = sum(map(expanded, rules[index]))
    return length[n]


# -- reporting -----------------------------------------------------------------


@dataclass
class CompressionReport:
    """Size ratios, defined as size(original) / size(compressed)."""

    raw_size: int
    container_size: int
    deflate_of_raw_size: int

    @property
    def container_ratio(self) -> float:
        return self.raw_size / self.container_size

    @property
    def deflate_ratio(self) -> float:
        return self.raw_size / self.deflate_of_raw_size


def compression_report(
    raw_size: int, container_size: int, deflate_of_raw_size: int
) -> CompressionReport:
    return CompressionReport(raw_size, container_size, deflate_of_raw_size)
