"""Independent reference results for the seven analytics tasks.

Everything here is computed from the generated text with plain Python
(`str.split`, `collections.Counter`, sliding windows, `count * ln(files /
df)`), and never imports `tadoc`: `tadoc.oracle` borrows the ranking from
`tadoc.kernels`, so comparing against it would check the ranking against
itself.

Results are compared as parsed TSV rows in output order, so the order the
CLI promises (words ascending, term vectors by count descending, ranked
files by count descending then file order) is checked too.
"""

from __future__ import annotations

import math
from collections import Counter

TASKS = (
    "word-count",
    "sort",
    "inverted-index",
    "term-vector",
    "sequence-count",
    "ranked-inverted-index",
    "tfidf",
)

L = 3  # window length passed as --l to the order-sensitive tasks


def expected(files: list[tuple[str, str]], l: int = L) -> dict[str, list[tuple]]:
    """Rows each task's TSV must hold, for (name, text) files in file order."""
    names = [name for name, _ in files]
    per_file = [Counter(text.split()) for _, text in files]
    totals: Counter = Counter()
    files_of: dict[str, list[int]] = {}
    for file_id, counts in enumerate(per_file):
        totals.update(counts)
        for word in counts:
            files_of.setdefault(word, []).append(file_id)
    counts_rows = sorted(totals.items())

    grams_per_file = []
    for _, text in files:
        tokens = text.split()
        grams_per_file.append(
            Counter("_".join(tokens[i : i + l]) for i in range(len(tokens) - l + 1))
        )
    ranked: dict[str, list[tuple[int, int]]] = {}
    for file_id, grams in enumerate(grams_per_file):
        for gram, count in grams.items():
            ranked.setdefault(gram, []).append((file_id, count))

    n_files = len(files)
    return {
        "word-count": counts_rows,
        "sort": counts_rows,
        "inverted-index": [
            (word, [names[i] for i in files_of[word]]) for word, _ in counts_rows
        ],
        "term-vector": [
            (names[i], word, count)
            for i, counts in enumerate(per_file)
            for word, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        ],
        "sequence-count": [
            (names[i], gram, grams[gram])
            for i, grams in enumerate(grams_per_file)
            for gram in sorted(grams)
        ],
        "ranked-inverted-index": [
            (gram, names[file_id], count)
            for gram in sorted(ranked)
            for file_id, count in sorted(ranked[gram], key=lambda fc: (-fc[1], fc[0]))
        ],
        "tfidf": [
            (
                word,
                names[i],
                per_file[i][word] * math.log(n_files / len(files_of[word])),
            )
            for word, _ in counts_rows
            for i in files_of[word]
        ],
    }


def parse_tsv(task: str, text: str) -> list[tuple]:
    """The CLI's TSV output as rows typed like `expected`'s."""
    rows = []
    for line in text.splitlines():
        fields = line.split("\t")
        if task in ("word-count", "sort"):
            rows.append((fields[0], int(fields[1])))
        elif task == "inverted-index":
            rows.append((fields[0], fields[1].split(",")))
        elif task == "tfidf":
            rows.append((fields[0], fields[1], float(fields[2])))
        else:
            rows.append((fields[0], fields[1], int(fields[2])))
    return rows


def compare(task: str, got: list[tuple], want: list[tuple]) -> str | None:
    """None when the rows agree, else a description of the first difference.

    tf-idf scores are compared with a small relative tolerance, so that a
    program computing the same formula in another order still passes.
    """
    if len(got) != len(want):
        return f"{task}: {len(got)} rows, expected {len(want)}"
    for index, (g, w) in enumerate(zip(got, want)):
        if task == "tfidf":
            same = g[:2] == w[:2] and math.isclose(
                g[2], w[2], rel_tol=1e-9, abs_tol=1e-12
            )
        else:
            same = g == w
        if not same:
            return f"{task}: row {index} is {g!r}, expected {w!r}"
    return None


def restored_matches(decoded: list[list[str]], files: list[tuple[str, str]]) -> bool:
    """Round-trip property: each restored token stream is the file's split()."""
    return decoded == [text.split() for _, text in files]
