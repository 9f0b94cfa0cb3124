"""Analytics kernels that run directly on the grammar DAG.

Whole-corpus word counts fold or push the merged-edge tables over
`dag.nodes`. Grammars number their rules parents first, and `dag.nodes`
holds them in rule-id order, so it lists every parent before its children:
a node's frequency or file set is complete when its turn comes, and the
per-file push-down below orders its heap by rule id.

Per-file tasks, the inverted index among them, choose a path per file,
reading only the grammar. A short file (`_short_runs`), whose root segment
has at most 256 elements that each expand to at most 256 words, is read as
its expanded run: counted with one C-level `Counter` call, or, for the
inverted index, taken as a `set`. Its rule expansions come from
`sequitur.expansions`, the memo that `sequitur.expand` restores the text
with, built only when some segment is that short. Files of 40-120 tokens
rarely repeat a rule inside themselves, so the grammar saves them nothing.
Every other file goes through the grammar, over only the rules that such
files reach (`_reached`). For the inverted index that is the traversal the
variant names: word sets folded up (postorder) or file sets pushed down
(preorder). For the other tasks it is the push-down (`_push_down`): a
file's table is what its root segment holds directly plus each reached
rule's own table times the rule's frequency in the segment. For word
counts a rule's own table is its terminal counts. For l-word windows one
bottom-up pass first keeps each rule's first and last l-1 words (its edge
summary) and counts the windows that cross the boundaries between its
elements (its crossing table). Window tables are keyed by gram name, the
words joined with "_", from the first window on: a `str` caches its hash,
and grams that join alike (words may contain "_") are summed where they
are counted, as the oracle sums them.

`finish` turns the per-file tables (word-code counts, or window counts by
gram name for the order-sensitive tasks) into a task's result; the per-file
kernels and `run_parallel`, which counts plain code streams with the same
run counters as short files, share it. The CLI and `tadoc bench` share
`run_task` (task to kernel) and `select_variant`, which picks the
inverted-index traversal for the files that are not short from the
corpus's file and token counts.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from itertools import chain, islice
from operator import itemgetter

from .bitmap import make_file_set
from .corpus import Dictionary
from .dag import Dag, node_frequencies
from .sequitur import EXPANSION_CAP, expansions

TASKS = (
    "word_count",
    "sort",
    "inverted_index",
    "term_vector",
    "sequence_count",
    "ranked_inverted_index",
    "tfidf",
)

ORDER_SENSITIVE = ("sequence_count", "ranked_inverted_index")

INDEX_VARIANTS = ("postorder", "preorder_set", "preorder_bitmap", "preorder_twolevel")


def select_variant(file_count: int, total_tokens: int) -> str:
    """The inverted-index traversal for a corpus, by the published
    thresholds: postorder when files average under 2860 tokens, else
    preorder over a two-level bitmap from 801 files and a bitmap below."""
    if total_tokens < 2860 * file_count:
        return "postorder"
    if file_count >= 801:
        return "preorder_twolevel"
    return "preorder_bitmap"


def run_task(
    task: str,
    dag: Dag,
    dictionary: Dictionary,
    variant: str = "postorder",
    l: int = 3,
    top_k: int | None = None,
):
    """Run one of TASKS on `dag`; `variant` picks the inverted-index traversal.

    Word count always runs preorder, which is faster than postorder on
    every corpus measured.
    """
    if task == "word_count":
        return word_count_preorder(dag, dictionary)
    if task == "sort":
        return sort_words(dag, dictionary)
    if task == "inverted_index":
        return inverted_index(dag, dictionary, variant)
    if task == "term_vector":
        return term_vector(dag, dictionary, top_k)
    if task == "sequence_count":
        return sequence_count(dag, dictionary, l)
    if task == "ranked_inverted_index":
        return ranked_inverted_index(dag, dictionary, l)
    if task == "tfidf":
        return tfidf(dag, dictionary)
    raise ValueError(f"unknown task {task!r}")


# -- word count / sort --------------------------------------------------------


def word_count_postorder(dag: Dag, dictionary: Dictionary) -> dict[str, int]:
    """Word totals from a full count table per node, children folded first."""
    tables: dict[int, Counter] = {}
    for rid, node in reversed(dag.nodes.items()):
        table = Counter(node.term_counts)
        for child, mult in node.child_counts.items():
            child_table = tables[child]
            if mult == 1:
                table.update(child_table)
            else:
                for code, count in child_table.items():
                    table[code] += count * mult
        tables[rid] = table
    return _by_word(tables[dag.root_id], dictionary.words)


def word_count_preorder(dag: Dag, dictionary: Dictionary) -> dict[str, int]:
    freq = node_frequencies(dag)
    counts: Counter = Counter()
    for rid, node in dag.nodes.items():
        f = freq[rid]
        if f == 1:
            counts.update(node.term_counts)
        elif f:
            for code, count in node.term_counts.items():
                counts[code] += count * f
    return _by_word(counts, dictionary.words)


def _by_word(table: dict, words: list[str]) -> dict:
    """`table` keyed by word instead of word code, in word order."""
    return {words[code]: table[code] for code in sorted(table, key=words.__getitem__)}


def sort_words(dag: Dag, dictionary: Dictionary) -> list[tuple[str, int]]:
    """All words with their totals, ascending lexicographic."""
    return list(word_count_preorder(dag, dictionary).items())


# -- inverted index -----------------------------------------------------------


def inverted_index(
    dag: Dag, dictionary: Dictionary, variant: str = "postorder"
) -> dict[str, list[int]]:
    """Per word: the ids of the files holding it, ascending.

    A short file (`_short_runs`) is indexed as the set of its expanded run;
    only the other files go through the `variant` traversal.
    """
    if variant not in INDEX_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    runs = _short_runs(dag)
    postings = _postings(zip(runs, map(set, runs.values())))
    rest = _other_files(dag, runs)
    if rest:
        if variant == "postorder":
            index = _inverted_postorder(dag, rest)
        else:
            index = _inverted_preorder(dag, rest, variant.removeprefix("preorder_"))
        if postings:
            for code, files in index.items():
                short = postings.get(code)
                postings[code] = sorted([*short, *files]) if short else sorted(files)
        else:
            # one comprehension: the merge loop costs this kernel about 3% on repetitive
            postings = {code: sorted(files) for code, files in index.items()}
    return _by_word(postings, dictionary.words)


def _postings(tables: Iterable[tuple[int, Iterable[int]]]) -> dict[int, list[int]]:
    """By word code, the file ids of the (file id, table) pairs whose table
    holds it, in the order the pairs come."""
    postings: dict[int, list[int]] = {}
    for file_id, table in tables:
        for code in table:
            files = postings.get(code)
            if files is None:
                postings[code] = [file_id]
            else:
                files.append(file_id)
    return postings


def _inverted_postorder(
    dag: Dag, files: list[tuple[int, tuple[int, int]]]
) -> dict[int, set[int]]:
    """Fold word sets up the rules that the (file id, root segment) pairs
    reach, then cross them with the segments."""
    nodes = dag.nodes
    word_sets: dict[int, set[int]] = {}
    for rid in reversed(_reached(dag, [segment for _, segment in files])):
        merged = set(nodes[rid].term_counts)
        for child in nodes[rid].child_counts:
            merged |= word_sets[child]
        word_sets[rid] = merged

    root = nodes[dag.root_id].elements
    index: dict[int, set[int]] = {}
    for file_id, (start, end) in files:
        for sym in root[start:end]:
            if sym < dag.n_terminals:
                index.setdefault(sym, set()).add(file_id)
            else:
                for code in word_sets[sym]:
                    index.setdefault(code, set()).add(file_id)
    return index


def _inverted_preorder(
    dag: Dag, files: list[tuple[int, tuple[int, int]]], kind: str
) -> dict[int, set[int]]:
    """Seed file sets from the (file id, root segment) pairs and push them
    down the rules they reach."""
    nodes = dag.nodes
    rules = _reached(dag, [segment for _, segment in files])
    file_sets = {rid: make_file_set(kind, dag.file_count) for rid in rules}
    index: dict[int, set[int]] = {}

    root = nodes[dag.root_id].elements
    for file_id, (start, end) in files:
        for sym in root[start:end]:
            if sym < dag.n_terminals:
                index.setdefault(sym, set()).add(file_id)
            else:
                file_sets[sym].set(file_id)

    # parents before children: every set is complete before it is pushed on
    for rid in rules:
        fs = file_sets[rid]
        for child in nodes[rid].child_counts:
            file_sets[child].update(fs)
        members = list(fs.iter_set())
        for code in nodes[rid].term_counts:
            index.setdefault(code, set()).update(members)
    return index


# -- per-file tables -----------------------------------------------------------


def _by_path(
    dag: Dag,
    count_runs: Callable[[Iterable[Iterator[int]]], list[Counter]],
    push_down: Callable[[list[tuple[int, int]]], list[Counter]],
) -> list[Counter]:
    """Per file: `count_runs` over its expanded run when `_short_runs` gives
    one, else `push_down` over its root segment. Both take and return lists
    in file order."""
    runs = _short_runs(dag)
    tables = dict(zip(runs, count_runs(runs.values())))
    rest = _other_files(dag, runs)
    if rest:
        file_ids, segments = zip(*rest)
        tables.update(zip(file_ids, push_down(list(segments))))
    return [tables[file_id] for file_id in range(dag.file_count)]


def _other_files(
    dag: Dag, runs: dict[int, Iterator[int]]
) -> list[tuple[int, tuple[int, int]]]:
    """(file id, root segment) of each file without a short run in `runs`."""
    return [pair for pair in enumerate(dag.segments) if pair[0] not in runs]


def _reached(dag: Dag, segments: list[tuple[int, int]]) -> list[int]:
    """Ids of the rules that the root segments reach, ascending: parents
    first. `dag.load_merge_graph` checks that the root reaches every rule,
    so the segments of all files reach them all."""
    nodes = dag.nodes
    if len(segments) == dag.file_count:
        return list(islice(nodes, 1, None))
    n = dag.n_terminals
    root = nodes[dag.root_id].elements
    seen = {sym for start, end in segments for sym in root[start:end] if sym >= n}
    stack = list(seen)
    while stack:
        for child in nodes[stack.pop()].child_counts:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return sorted(seen)


# A file is short when its root segment has at most _SHORT_SEGMENT elements
# and each of them has a memoized expansion (at most EXPANSION_CAP words);
# both limits are set by measurement (CHANGES.md).
_SHORT_SEGMENT = 256


def _short_runs(dag: Dag) -> dict[int, Iterator[int]]:
    """By file id, the word codes of each short file, as a one-pass iterator.

    Rule expansions (`sequitur.expansions`) are built only when some
    segment is short enough; no rule over the cap is expanded.
    """
    short = [
        (file_id, start, end)
        for file_id, (start, end) in enumerate(dag.segments)
        if end - start <= _SHORT_SEGMENT
    ]
    if not short:
        return {}
    rules = dag.grammar().rules
    memo = expansions(rules, dag.n_terminals, EXPANSION_CAP)
    too_long = {rid for rid in dag.nodes if memo[rid] is None and rid != dag.root_id}
    root = rules[0]
    runs = {}
    for file_id, start, end in short:
        segment = root[start:end]
        if not too_long or too_long.isdisjoint(segment):
            runs[file_id] = chain.from_iterable(map(memo.__getitem__, segment))
    return runs


def _push_down(
    dag: Dag,
    own: dict[int, dict],
    segments: list[tuple[int, int]],
    seeds: list[Counter],
) -> list[Counter]:
    """Per root segment: its seed table plus each reached rule's `own` table
    times the rule's frequency in the segment.

    `own` holds a table for each rule the segments reach (`_reached`),
    children first. Frequencies are pushed down, parents first, only
    through the rules a segment reaches; rules with nothing to count in
    their expansion are skipped, so no loop runs over all of `dag.nodes`
    per file. The seed tables are added to in place and returned.
    """
    nodes = dag.nodes
    # rules with something to count in their expansion: (such children, own table)
    counted: dict[int, tuple[list[tuple[int, int]], dict]] = {}
    for rid, rule_table in own.items():
        children = [
            (child, mult)
            for child, mult in nodes[rid].child_counts.items()
            if child in counted
        ]
        if rule_table or children:
            counted[rid] = (children, rule_table)

    root = nodes[dag.root_id].elements
    for (start, end), table in zip(segments, seeds):
        freq: dict[int, int] = {}
        for sym in root[start:end]:
            if sym in counted:
                freq[sym] = freq.get(sym, 0) + 1
        # rule ids number parents first: a rule's frequency is complete when popped
        heap = list(freq)
        heapq.heapify(heap)
        # a bound get: `Counter.__missing__` is a Python call per new key
        get = table.get
        while heap:
            rid = heapq.heappop(heap)
            f = freq[rid]
            children, rule_table = counted[rid]
            for child, mult in children:
                if child in freq:
                    freq[child] += f * mult
                else:
                    freq[child] = f * mult
                    heapq.heappush(heap, child)
            for key, count in rule_table.items():
                table[key] = get(key, 0) + count * f
    return seeds


def _per_file_code_counts(dag: Dag) -> list[Counter]:
    """Word-code counts per file: counted over the expanded run of a short
    file, pushed down for the others."""
    return _by_path(dag, _count_code_runs, partial(_push_code_counts, dag))


def _count_code_runs(runs: Iterable[Iterator[int]]) -> list[Counter]:
    return [Counter(run) for run in runs]


def _push_code_counts(dag: Dag, segments: list[tuple[int, int]]) -> list[Counter]:
    """Per segment: its own words plus each reached rule's terminal counts
    times its frequency in the segment."""
    n = dag.n_terminals
    nodes = dag.nodes
    root = nodes[dag.root_id].elements
    seeds = [
        Counter(sym for sym in root[start:end] if sym < n) for start, end in segments
    ]
    own = {rid: nodes[rid].term_counts for rid in reversed(_reached(dag, segments))}
    return _push_down(dag, own, segments, seeds)


def finish(
    task: str, tables: list[Counter], dictionary: Dictionary, top_k: int | None = None
):
    """The result of `task` from its per-file tables: keyed by gram name
    for the order-sensitive tasks, whose same-name grams are already
    summed, and by word code for the others.

    top_k keeps each file's first top_k terms of a term vector; None keeps
    them all.
    """
    if task == "sequence_count":
        return gram_counts(tables)
    if task == "ranked_inverted_index":
        return rank_gram_files(tables)
    words = dictionary.words
    if task == "term_vector":
        if top_k is not None and top_k < 0:
            raise ValueError(f"top_k must be >= 0, got {top_k}")
        vectors = []
        for table in tables:
            items = [(words[code], count) for code, count in table.items()]
            # by word, then stably by count descending: ties stay by word
            items.sort(key=itemgetter(0))
            items.sort(key=itemgetter(1), reverse=True)
            vectors.append(items[:top_k])
        return vectors
    if task == "tfidf":
        # the document frequency of a word is the number of files counting it
        df = Counter(chain.from_iterable(tables))
        file_count = len(tables)
        idf = {code: math.log(file_count / files) for code, files in df.items()}
        scores: dict[int, dict[int, float]] = {}
        for file_id, table in enumerate(tables):
            for code, count in table.items():
                weight = idf[code]
                by_file = scores.get(code)
                if by_file is None:
                    by_file = scores[code] = {}
                # 1 * weight is weight exactly
                by_file[file_id] = weight if count == 1 else count * weight
        return _by_word(scores, words)
    if task == "inverted_index":
        return _by_word(_postings(enumerate(tables)), words)
    totals: Counter = Counter()
    for table in tables:
        totals.update(table)
    counts = _by_word(totals, words)
    return list(counts.items()) if task == "sort" else counts


# -- term vector and tfidf -------------------------------------------------------


def term_vector(
    dag: Dag, dictionary: Dictionary, top_k: int | None = None
) -> list[list[tuple[str, int]]]:
    """Per file: (word, count) sorted by count descending, ties by word."""
    return finish("term_vector", _per_file_code_counts(dag), dictionary, top_k)


def tfidf(dag: Dag, dictionary: Dictionary) -> dict[str, dict[int, float]]:
    """Raw in-file term frequency times ln(file count / document frequency)."""
    return finish("tfidf", _per_file_code_counts(dag), dictionary)


# -- sequence count -----------------------------------------------------------


def _crossing_windows(
    elements: list[int], n: int, words: list[str], edges: dict[int, list[str]], l: int
) -> tuple[list[str], Counter]:
    """Edge summary and crossing table of one run of body elements.

    Each element stands for its words: a terminal for its word in `words`,
    a rule for its edge summary from `edges`. The crossing table counts, by
    gram name, the l-word windows that start in the last l-1 words of one
    element and end in a later one; every other window lies inside one rule
    occurrence. Such a window reaches at most l-1 words into any element,
    so it never needs more than a rule's first and last l-1 words.
    """
    k = l - 1
    run: list[str] = []
    starts: list[int] = []
    for sym in elements:
        begin = len(run)
        if sym < n:
            run.append(words[sym])
            starts.append(begin)
        else:
            run += edges[sym]
            end = len(run)
            starts.extend(range(max(begin, end - k), end))
    last = len(run) - l
    table = Counter("_".join(run[i : i + l]) for i in starts if i <= last)
    edge = run if len(run) <= 2 * k else run[:k] + run[-k:]
    return edge, table


def _gram_tables(dag: Dag, words: list[str], l: int) -> list[Counter]:
    """Per file: counts of every l-word window, keyed by gram name; counted
    over the expanded run of a short file, pushed down for the others."""
    if l < 2:
        raise ValueError(f"sequence length must be >= 2, got {l}")
    count_runs = partial(_count_gram_runs, words, l)
    return _by_path(dag, count_runs, partial(_push_gram_tables, dag, words, l))


def _count_gram_runs(
    words: list[str], l: int, runs: Iterable[Iterator[int]]
) -> list[Counter]:
    tables = []
    for run in runs:
        run = list(map(words.__getitem__, run))
        tables.append(Counter(map("_".join, zip(*(run[i:] for i in range(l))))))
    return tables


def _push_gram_tables(
    dag: Dag, words: list[str], l: int, segments: list[tuple[int, int]]
) -> list[Counter]:
    """Per segment: the l-word windows, by gram name.

    One bottom-up pass gives each rule that the segments reach its edge
    summary (its words when there are at most 2(l-1), else its first and
    last l-1) and its crossing table. A segment's table is its own crossing
    windows plus each reached rule's crossing table times the rule's
    frequency in the segment. Grams with the same name are summed as they
    are counted.
    """
    nodes = dag.nodes
    n = dag.n_terminals
    edges: dict[int, list[str]] = {}
    crossing: dict[int, Counter] = {}
    for rid in reversed(_reached(dag, segments)):
        edges[rid], crossing[rid] = _crossing_windows(
            nodes[rid].elements, n, words, edges, l
        )
    root = nodes[dag.root_id].elements
    seeds = [
        _crossing_windows(root[start:end], n, words, edges, l)[1]
        for start, end in segments
    ]
    return _push_down(dag, crossing, segments, seeds)


def gram_counts(tables: list[Counter]) -> list[dict[str, int]]:
    """Per file: {gram: count} sorted by gram, from name-keyed tables."""
    return [{gram: table[gram] for gram in sorted(table)} for table in tables]


def sequence_count(
    dag: Dag, dictionary: Dictionary, l: int = 3
) -> list[dict[str, int]]:
    """Per file: counts of every l-word window, keyed by the joined words."""
    return finish("sequence_count", _gram_tables(dag, dictionary.words, l), dictionary)


def ranked_inverted_index(
    dag: Dag, dictionary: Dictionary, l: int = 3
) -> dict[str, list[tuple[int, int]]]:
    """Per l-gram: (file, count) sorted by count descending, ties by file."""
    return finish(
        "ranked_inverted_index", _gram_tables(dag, dictionary.words, l), dictionary
    )


def rank_gram_files(tables: list[Counter]) -> dict[str, list[tuple[int, int]]]:
    """Per gram: (file, count) by count descending, ties by file, from the
    name-keyed tables of `_gram_tables`, where same-name grams are summed.

    Postings share one (file, count) tuple per distinct count in a file:
    most grams occur once in their file, so a file's postings need only a
    few tuples. Only the lists that gain a second file are sorted.
    """
    by_gram: dict[str, list[tuple[int, int]]] = {}
    shared: list[list[tuple[int, int]]] = []
    for file_id, table in enumerate(tables):
        pairs: dict[int, tuple[int, int]] = {}
        for gram, count in table.items():
            pair = pairs.get(count)
            if pair is None:
                pair = pairs[count] = (file_id, count)
            postings = by_gram.get(gram)
            if postings is None:
                by_gram[gram] = [pair]
            else:
                if len(postings) == 1:
                    shared.append(postings)
                postings.append(pair)
    for postings in shared:
        # postings are in file order and the sort is stable, also reversed:
        # ties stay ordered by file
        postings.sort(key=itemgetter(1), reverse=True)
    return {gram: by_gram[gram] for gram in sorted(by_gram)}
