"""Bit-exact on-disk format for (dictionary, grammar, metadata).

Layout: a fixed 16-byte preamble (magic ``TDOC``, version, flags, CRC32 of
the rest, reserved) followed by the payload -- header block, file table,
dictionary block, grammar block. With the deflate flag set, everything after
the preamble is one raw DEFLATE stream (RFC 1951). Integer arrays are stored
as byte planes of little-endian uint32s: the low byte of every value, then
every second byte, and so on. The upper planes of small values are runs of
zeros that DEFLATE shrinks, and the reader turns planes back into ints in a
few C-level calls. Words and file names are each one UTF-8 blob. See
docs/format.md for a hex-annotated example.

Each fact is stored once. The header holds the word count V, the file
count F, the rule count R and the two blob sizes; what follows from them
is derived, not stored: the terminal count N = V + F, file *i*'s
separator code V + *i*, and the token total W, the sum of the file
table's token counts.

`read_container` checks what the bytes say: preamble, CRC32, layout, a
file table of at least one file, and blob counts. The grammar's structure
(parents-first order, defined and reachable rules, separator placement,
the token total) is checked once, by the DAG load, which visits every rule
anyway; `load_container` runs the read and then that load.
"""

from __future__ import annotations

import itertools
import os
import struct
import sys
import zlib
from array import array
from collections import namedtuple

from .corpus import Dictionary, FileEntry
from .dag import Dag, load_merge_graph
from .sequitur import Grammar, GrammarError

MAGIC = b"TDOC"
VERSION = 4
PREAMBLE_SIZE = 16
FLAG_DEFLATE = 0x01
# preamble bytes 6..9: CRC32 of every byte after the preamble
_CRC = struct.Struct("<I")
_CRC_OFFSET = 6
# header block: word_count, file_count, rule_count, byte sizes of the
# names and words blobs
_HEADER = struct.Struct("<5I")
_NAME_SEP = "\0"
_WORD_SEP = "\n"

# TSV output separates fields by tabs, rows by line breaks and the files of
# an inverted-index row by commas. The breaks are every character that
# `str.splitlines` splits at.
_TSV_BREAKS = frozenset(",\t\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029")

_UINT32 = "I"
assert array(_UINT32).itemsize == 4, "array typecode 'I' must be 4 bytes wide"
_BIG_ENDIAN = sys.byteorder == "big"


class ContainerError(ValueError):
    """Malformed container (CLI exit code 3)."""


class BadMagicError(ContainerError):
    pass


class UnsupportedVersionError(ContainerError):
    pass


class ChecksumError(ContainerError):
    """The CRC32 in the preamble does not match the bytes after it."""


class TruncatedContainerError(ContainerError):
    pass


class DeflateError(ContainerError):
    pass


class FeatureMismatchError(ContainerError):
    """A stored token count disagrees with the grammar's expansion."""


class ContainerHeader(
    namedtuple(
        "ContainerHeader",
        "version deflate word_count file_table total_tokens rule_count container_size",
    )
):
    """What the preamble, header block and file table say. total_tokens is
    the sum of the file table's token counts, container_size the byte size
    of the whole container."""

    __slots__ = ()

    @property
    def file_count(self) -> int:
        return len(self.file_table)

    @property
    def n_terminals(self) -> int:
        """N: the word codes, then one separator code per file."""
        return self.word_count + self.file_count


# -- byte planes and blobs -----------------------------------------------------


def _plane(values) -> bytes:
    """`values` as uint32 byte planes: all low bytes first, high bytes last."""
    try:
        raw = array(_UINT32, values)
    except OverflowError:
        raise ContainerError("a value does not fit in 32 bits") from None
    if _BIG_ENDIAN:
        raw.byteswap()
    data = raw.tobytes()
    return b"".join(data[k::4] for k in range(4))


def _read_plane(payload: memoryview, pos: int, count: int) -> tuple[list[int], int]:
    """`count` values from the byte planes at `pos`, and the offset after them."""
    end = pos + 4 * count
    if end > len(payload):
        raise TruncatedContainerError("byte plane runs past end of payload")
    raw = bytearray(4 * count)
    for k in range(4):
        raw[k::4] = payload[pos + k * count : pos + (k + 1) * count]
    values = array(_UINT32)
    values.frombytes(raw)
    if _BIG_ENDIAN:
        values.byteswap()
    return values.tolist(), end


def _blob(items: list[str], sep: str, what: str) -> bytes:
    text = sep.join(items)
    if text.count(sep) != max(len(items) - 1, 0):
        raise ContainerError(f"a {what} contains {sep!r}")
    return text.encode("utf-8")


def _read_blob(
    payload: memoryview, pos: int, size: int, sep: str, count: int, what: str
) -> list[str]:
    """The `count` strings of the blob at `pos`, joined by `sep`."""
    if pos + size > len(payload):
        raise TruncatedContainerError(f"{what}s run past end of payload")
    try:
        text = str(payload[pos : pos + size], "utf-8")
    except UnicodeDecodeError as exc:
        raise ContainerError(f"{what} is not valid UTF-8: {exc}") from None
    # an empty blob is one empty string or none, as the count says
    items = text.split(sep) if count or text else []
    if len(items) != count:
        raise ContainerError(f"{len(items)} {what}s in the blob, {count} expected")
    return items


# -- writing -------------------------------------------------------------------


def check_file_names(names: list[str], error: type[Exception]) -> None:
    """Raise `error` unless each name is UTF-8 text that holds no comma, tab
    or line break, which would split the fields of TSV output."""
    # one encode and one scan of all the names; the loop below runs only to
    # name the first file at fault
    joined = "".join(names)
    try:
        joined.encode("utf-8")
        if _TSV_BREAKS.isdisjoint(joined):
            return
    except UnicodeEncodeError:
        pass
    for name in names:
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise error(f"file name {name!r} is not valid UTF-8") from None
        if not _TSV_BREAKS.isdisjoint(name):
            raise error(
                f"file name {name!r} holds a comma, tab or line break, which "
                "would split the fields of TSV output"
            )


def output_paths(names: list[str], error: type[Exception]) -> list[str]:
    """Each name's path under `decompress --out`: the normalized name less its
    root anchor and leading ".." parts, as tar extracts. Raise `error` unless
    every path is non-empty, is no other name's and is no name's directory."""
    # below a root, normpath drops the ".." parts that would climb above it
    paths = [os.path.normpath(os.sep + name).lstrip(os.sep) for name in names]
    dirs = {
        os.sep.join(parts[:i])
        for parts in (path.split(os.sep) for path in paths)
        for i in range(1, len(parts))
    }
    seen: set[str] = set()
    for name, path in zip(names, paths):
        if not path or path in seen or path in dirs:
            raise error(f"file name {name!r} has no output path of its own: {path!r}")
        seen.add(path)
    return paths


def build_payload(
    dictionary: Dictionary, grammar: Grammar, file_table: list[FileEntry]
) -> bytes:
    names = _blob([e.name for e in file_table], _NAME_SEP, "file name")
    words = _blob(dictionary.words, _WORD_SEP, "dictionary word")
    try:
        header = _HEADER.pack(
            dictionary.word_count,
            len(file_table),
            len(grammar.rules),
            len(names),
            len(words),
        )
    except struct.error:
        raise ContainerError("a header field does not fit in 32 bits") from None
    return b"".join((
        header,
        _plane([e.token_count for e in file_table]),
        names,
        words,
        _plane(map(len, grammar.rules)),
        _plane(itertools.chain.from_iterable(grammar.rules)),
    ))


def write_container(
    dictionary: Dictionary,
    grammar: Grammar,
    file_table: list[FileEntry],
    deflate: bool = True,
) -> bytes:
    if not file_table:
        raise ContainerError("the file table holds no files")
    if dictionary.n_total != grammar.n_terminals:
        raise ContainerError("dictionary and grammar disagree on terminal count")
    if dictionary.separator_count != len(file_table):
        raise ContainerError("file table does not match separator count")
    names = [e.name for e in file_table]
    check_file_names(names, ContainerError)
    output_paths(names, ContainerError)
    payload = build_payload(dictionary, grammar, file_table)
    flags = FLAG_DEFLATE if deflate else 0
    if deflate:
        compressor = zlib.compressobj(6, zlib.DEFLATED, -15)
        payload = compressor.compress(payload) + compressor.flush()
    preamble = (
        MAGIC
        + bytes([VERSION, flags])
        + _CRC.pack(zlib.crc32(payload))
        + bytes(PREAMBLE_SIZE - _CRC_OFFSET - _CRC.size)
    )
    return preamble + payload


# -- reading -------------------------------------------------------------------


def _read_preamble(data: bytes) -> tuple[int, bool]:
    """Check the preamble and the CRC32 of everything after it."""
    if len(data) < PREAMBLE_SIZE:
        raise TruncatedContainerError(
            f"container shorter than the {PREAMBLE_SIZE}-byte preamble"
        )
    if data[:4] != MAGIC:
        raise BadMagicError(f"bad magic {data[:4]!r}")
    version = data[4]
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported container version {version}")
    (stored,) = _CRC.unpack_from(data, _CRC_OFFSET)
    actual = zlib.crc32(memoryview(data)[PREAMBLE_SIZE:])
    if stored != actual:
        raise ChecksumError(
            f"payload checksum {actual:08x} does not match the stored {stored:08x}"
        )
    if data[5] & ~FLAG_DEFLATE or any(data[_CRC_OFFSET + _CRC.size : PREAMBLE_SIZE]):
        raise ContainerError("reserved preamble bits are set")
    return version, bool(data[5] & FLAG_DEFLATE)


def _payload(data: bytes, deflate: bool) -> memoryview:
    """The payload after the preamble, inflated when the flag says so."""
    body = memoryview(data)[PREAMBLE_SIZE:]
    if not deflate:
        return body
    try:
        decompressor = zlib.decompressobj(-15)
        payload = decompressor.decompress(body)
        payload += decompressor.flush()
        if not decompressor.eof:
            raise TruncatedContainerError("deflate stream ends prematurely")
        if decompressor.unused_data:
            raise ContainerError(
                f"{len(decompressor.unused_data)} trailing bytes after "
                "the deflate stream"
            )
        return memoryview(payload)
    except zlib.error as exc:
        raise DeflateError(f"deflate layer is corrupt: {exc}") from exc


def _parse_header(
    payload: memoryview, version: int, deflate: bool, container_size: int
) -> tuple[ContainerHeader, int, int]:
    """The header block and file table: the header, the byte size of the
    words blob, and the offset after the table."""
    if len(payload) < _HEADER.size:
        raise TruncatedContainerError("header block runs past end of payload")
    word_count, file_count, rule_count, names_size, words_size = _HEADER.unpack_from(
        payload
    )
    if not file_count:
        raise ContainerError("the file table holds no files")
    token_counts, pos = _read_plane(payload, _HEADER.size, file_count)
    names = _read_blob(payload, pos, names_size, _NAME_SEP, file_count, "file name")
    header = ContainerHeader(
        version=version,
        deflate=deflate,
        word_count=word_count,
        file_table=list(map(FileEntry, names, token_counts)),
        total_tokens=sum(token_counts),
        rule_count=rule_count,
        container_size=container_size,
    )
    return header, words_size, pos + names_size


def read_header(data: bytes) -> ContainerHeader:
    """Parse preamble, header block and file table only (grammar left untouched)."""
    version, deflate = _read_preamble(data)
    header, _, _ = _parse_header(_payload(data, deflate), version, deflate, len(data))
    return header


def read_container(data: bytes) -> tuple[Dictionary, Grammar, ContainerHeader]:
    """Exact inverse of write_container.

    Checks the byte layout, the CRC32, the header and the file table; the
    grammar's structure is left to the DAG load (`load_container`).
    """
    version, deflate = _read_preamble(data)
    payload = _payload(data, deflate)
    header, words_size, pos = _parse_header(payload, version, deflate, len(data))

    words = _read_blob(
        payload, pos, words_size, _WORD_SEP, header.word_count, "dictionary word"
    )
    dictionary = Dictionary(words, header.file_count)

    lengths, pos = _read_plane(payload, pos + words_size, header.rule_count)
    symbols, pos = _read_plane(payload, pos, sum(lengths))
    if pos != len(payload):
        raise ContainerError(f"{len(payload) - pos} trailing bytes after grammar")
    bounds = list(itertools.accumulate(lengths, initial=0))
    bodies = list(map(symbols.__getitem__, map(slice, bounds, bounds[1:])))
    grammar = Grammar(header.n_terminals, header.word_count, bodies)
    return dictionary, grammar, header


def load_container(data: bytes) -> tuple[Dictionary, Dag, ContainerHeader]:
    """`read_container`, then the checked DAG load of its grammar.

    The load checks the grammar's structure (`dag.load_merge_graph`); a
    fault it finds is a ContainerError here, and so is an expansion whose
    word count differs from the file table's total.
    """
    dictionary, grammar, header = read_container(data)
    try:
        dag = load_merge_graph(grammar)
    except GrammarError as exc:
        raise ContainerError(str(exc)) from None
    if dag.total_tokens != header.total_tokens:
        raise FeatureMismatchError(
            f"token count {header.total_tokens} != recomputed {dag.total_tokens}"
        )
    return dictionary, dag, header
