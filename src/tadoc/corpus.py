"""Tokenization and dictionary encoding of text corpora.

Every word is mapped to a dense non-negative integer code (first-appearance
order). One reserved separator code is appended after every file -- including
the last -- so that downstream root-rule segmentation is uniform. Separator
codes sit above the word codes: words occupy [0, word_count), separators
[word_count, n_total).
"""

from __future__ import annotations

import itertools
import unicodedata
from collections import defaultdict
from dataclasses import dataclass, field


class CorpusError(ValueError):
    """Bad corpus input (CLI exit code 4)."""


class EmptyCorpusError(CorpusError):
    """No files, or no file contains a single token."""


class MalformedStreamError(CorpusError):
    """A symbol stream contains a code outside the dictionary range."""


def tokenize(text: str, lowercase: bool = False) -> list[str]:
    """Split on Unicode whitespace; punctuation stays attached to words."""
    if lowercase:
        text = unicodedata.normalize("NFC", text).lower()
    return text.split()


@dataclass
class Dictionary:
    """Bijective word<->code table plus reserved file-separator codes."""

    words: list[str]
    separator_count: int
    # word -> code, built on first use: analytics on a read container never
    # look a word up
    _codes: dict[str, int] | None = field(repr=False, compare=False, default=None)

    @property
    def codes(self) -> dict[str, int]:
        if self._codes is None:
            self._codes = {w: i for i, w in enumerate(self.words)}
        return self._codes

    @property
    def word_count(self) -> int:
        return len(self.words)

    @property
    def n_total(self) -> int:
        """Total terminal count N; rule ids live at N and above."""
        return len(self.words) + self.separator_count

    def code_for(self, word: str) -> int:
        return self.codes[word]

    def is_separator(self, code: int) -> bool:
        return len(self.words) <= code < self.n_total


@dataclass
class FileEntry:
    name: str
    token_count: int  # words in the file; its separator code is word_count + index


@dataclass
class EncodedCorpus:
    """Symbol stream for a whole corpus plus its file table."""

    symbols: list[int]
    file_table: list[FileEntry]

    @property
    def total_tokens(self) -> int:
        return sum(entry.token_count for entry in self.file_table)


def encode_corpus(
    files: list[tuple[str, str]], lowercase: bool = False
) -> tuple[Dictionary, EncodedCorpus]:
    """Tokenize files in order and dictionary-encode them into one stream.

    One pass: each file's tokens are coded straight into the stream, in
    first-appearance order across the corpus, and dropped before the next
    file is tokenized. A placeholder follows each file until the word count
    V is known; then file *i*'s becomes its separator code V + *i*.
    """
    if not files:
        raise EmptyCorpusError("corpus contains no files")

    # a word not seen before gets the next code
    codes = defaultdict(itertools.count().__next__)
    symbols: list[int] = []
    file_table: list[FileEntry] = []
    separators: list[int] = []  # the stream position after each file
    for name, text in files:
        start = len(symbols)
        symbols.extend(map(codes.__getitem__, tokenize(text, lowercase)))
        file_table.append(FileEntry(name, len(symbols) - start))
        separators.append(len(symbols))
        symbols.append(-1)
    if not codes:
        raise EmptyCorpusError("corpus contains no tokens")

    codes.default_factory = None  # a lookup of an unknown word is a KeyError
    for index, position in enumerate(separators):
        symbols[position] = len(codes) + index
    # insertion order is code order
    dictionary = Dictionary(list(codes), separator_count=len(files), _codes=codes)
    return dictionary, EncodedCorpus(symbols, file_table)


def encode_tokens(tokens: list[str], dictionary: Dictionary) -> list[int]:
    """Encode pre-tokenized text against an existing dictionary."""
    codes = dictionary.codes
    try:
        return [codes[t] for t in tokens]
    except KeyError as exc:
        raise MalformedStreamError(f"token {exc.args[0]!r} not in dictionary") from None


def decode_stream(
    symbols: list[int], dictionary: Dictionary
) -> list[tuple[int, list[str]]]:
    """Split a symbol stream at separator codes and decode words per file.

    Returns (file index, token list) pairs in stream order.
    """
    n_total = dictionary.n_total
    word_count = dictionary.word_count
    words = dictionary.words
    out: list[tuple[int, list[str]]] = []
    current: list[str] = []
    # `words[code]` would read a negative code from the end; testing for a
    # word first keeps a word at two comparisons with that check
    for code in symbols:
        if code < word_count:
            if code < 0:
                raise MalformedStreamError(f"code {code} is negative")
            current.append(words[code])
        elif code < n_total:
            out.append((len(out), current))
            current = []
        else:
            raise MalformedStreamError(f"code {code} out of range (N={n_total})")
    if current:
        out.append((len(out), current))
    return out
