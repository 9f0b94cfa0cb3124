"""Analytics kernels that run directly on the grammar DAG.

Kernels read the rule bodies (`dag.rules`) and the words each symbol
expands to (`dag.lengths`); no per-rule count table is built at load time.
Grammars number their rules parents first, and `dag.rules` holds them in
rule-id order, so it lists every parent before its children: a rule's
frequency or file set is complete when its turn comes, and the per-file
push-down below orders its heap by rule id. Whole-corpus word counts
count each body times its rule's frequency in one table, or fold a full
table per rule, children first.

Per-file tasks, the inverted index among them, choose a path per file,
reading only the grammar. A short file (`_short_runs`), whose root segment
has at most 256 elements that each expand to at most 256 words, is read as
its expanded run: counted with one C-level `Counter` call, or, for the
inverted index, taken as a `set`. Its rule expansions come from
`sequitur.expansions`, the memo that `sequitur.expand` restores the text
with, built only when some segment is that short. Files of 40-120 tokens
rarely repeat a rule inside themselves, so the grammar saves them nothing.
Every other file goes through the grammar, over only the rules that such
files reach (`_reached`). For the inverted index each reached rule's set of
files is pushed down to its children, parents first (`_push_file_sets`).
For the other tasks it is the push-down of frequencies (`_push_down`): a
file's table is what its root segment holds directly plus each reached
rule's own table times the rule's frequency in the segment. For word
counts a rule's own table is the words of its body, counted for the
reached rules only. For l-word windows one bottom-up pass first keeps each
rule's first and last l-1 words (its edge summary) and counts the windows
that cross the boundaries between its elements (its crossing table); a
segment of fewer than l words is skipped, with the rules only it reaches.
Window tables are keyed by gram name, the
words joined with "_", from the first window on: a `str` caches its hash,
and grams that join alike (words may contain "_") are summed where they
are counted, as the oracle sums them.

Each per-file kernel finishes its own result from its per-file tables
(word-code counts, or window counts by gram name for sequence count and the
ranked index). The tables come in file order (`_by_path`): the pushed-down
tables are computed first, a short file is counted when its turn comes, and
each table is dropped once merged, so a job holds its result and about one
file's table, not every file's (tfidf alone keeps them all, for its
document frequencies, and drops each once scored). The file-major and
gram-major results stream to the emit: term vectors and sequence counts
are iterators that count and finish a file only when the emit pulls it,
and the ranked index merges every file when called, then yields one gram's
postings at a time, in gram order, popping each gram as it goes. A gram
seen in one file holds its shared (file, count) tuple alone, not a
one-element list. The CLI and `tadoc bench` share `run_task` (task to
kernel); bench drains a streamed result inside its timed compute step.

`select_variant` and INDEX_VARIANTS name the published inverted-index
traversals (a postorder word-set fold, a preorder file-set push-down over a
set, a bitmap or a two-level bitmap). None of them runs: in CPython builtin
sets beat the int-backed bitmaps on every corpus measured, so one set
push-down serves every name. The names stay because `perfbench/run.py`
checks the logged pick (`check_job`) and passes the preorder names to
`inverted_index`.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from itertools import chain
from operator import itemgetter

from .corpus import Dictionary
from .dag import Dag
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

INDEX_VARIANTS = ("postorder", "preorder_set", "preorder_bitmap", "preorder_twolevel")


def select_variant(file_count: int, total_tokens: int) -> str:
    """The published inverted-index pick for a corpus: postorder when files
    average under 2860 tokens, else preorder over a two-level bitmap from
    801 files and a bitmap below.

    The pick is only logged, for `perfbench/run.py`'s `check_job`; it runs
    on no file, since `inverted_index` has one traversal.
    """
    if total_tokens < 2860 * file_count:
        return "postorder"
    if file_count >= 801:
        return "preorder_twolevel"
    return "preorder_bitmap"


def run_task(
    task: str, dag: Dag, dictionary: Dictionary, l: int = 3, top_k: int | None = None
):
    """Run one of TASKS on `dag`. Term vector, sequence count and the ranked
    index return iterators, which compute as they are pulled (module
    docstring); the other tasks return a dict or a list.

    Word count always runs preorder, which is faster than postorder on
    every corpus measured.
    """
    if task == "word_count":
        return word_count_preorder(dag, dictionary)
    if task == "sort":
        return sort_words(dag, dictionary)
    if task == "inverted_index":
        return inverted_index(dag, dictionary)
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
    """Word totals from a full count table per rule, children folded first."""
    n, n_words = dag.n_terminals, dag.n_words
    tables: dict[int, Counter] = {}
    for rid in range(n + len(dag.rules) - 1, n - 1, -1):
        table: Counter = Counter()
        for sym in dag.rules[rid - n]:
            if sym >= n:
                table.update(tables[sym])
            elif sym < n_words:
                table[sym] += 1
        tables[rid] = table
    return _by_word(tables[n], dictionary.words)


def word_count_preorder(dag: Dag, dictionary: Dictionary) -> dict[str, int]:
    """Word totals: each rule's body counted times the rule's frequency.

    One table counts, by symbol, the words and the rule occurrences met so
    far. Rules number parents first, so a rule's count is its frequency in
    the expansion when its turn comes.
    """
    n = dag.n_terminals
    rules = dag.rules
    counts = Counter(rules[0])
    for rid in range(n + 1, n + len(rules)):
        f = counts[rid]
        if f == 1:
            counts.update(rules[rid - n])
        else:
            for sym in rules[rid - n]:
                counts[sym] += f
    words = dictionary.words
    codes = sorted(filter(dag.n_words.__gt__, counts), key=words.__getitem__)
    return {words[code]: counts[code] for code in codes}


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
    the other files' sets are pushed down the grammar (`_push_file_sets`).
    `variant` must name one of INDEX_VARIANTS but selects nothing (see the
    module docstring).
    """
    if variant not in INDEX_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    runs = _short_runs(dag)
    postings = _postings(zip(runs, map(set, runs.values())))
    rest = _other_files(dag, runs)
    if rest:
        for code, files in _push_file_sets(dag, rest).items():
            short = postings.get(code)
            postings[code] = sorted([*short, *files]) if short else sorted(files)
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


def _push_file_sets(
    dag: Dag, files: list[tuple[int, tuple[int, int]]]
) -> dict[int, set[int]]:
    """By word code, the ids of the files holding it: each rule's set of
    files is seeded from the (file id, root segment) pairs that use it and
    pushed down the rules they reach, parents first."""
    n = dag.n_terminals
    rules = dag.rules
    reached = _reached(dag, [segment for _, segment in files])
    file_sets: dict[int, set[int]] = {rid: set() for rid in reached}
    index: dict[int, set[int]] = {}

    root = rules[0]
    for file_id, (start, end) in files:
        for sym in root[start:end]:
            if sym < n:
                index.setdefault(sym, set()).add(file_id)
            else:
                file_sets[sym].add(file_id)

    # parents before children: every set is complete before it is pushed
    # on, and is freed once pushed
    for rid in reached:
        fs = file_sets.pop(rid)
        for sym in rules[rid - n]:
            if sym >= n:
                file_sets[sym] |= fs
            else:
                index.setdefault(sym, set()).update(fs)
    return index


# -- per-file tables -----------------------------------------------------------


def _by_path(
    dag: Dag,
    count_run: Callable[[Iterator[int]], Counter],
    push_down: Callable[[list[tuple[int, int]]], list[Counter]],
) -> Iterator[Counter]:
    """Per file, in file order: `count_run` over its expanded run when
    `_short_runs` gives one, else its table from `push_down`, which takes
    the root segments of all such files and runs first. A short file is
    counted only when its turn comes, and no table is held once given."""
    runs = _short_runs(dag)
    rest = _other_files(dag, runs)
    pushed = {}
    if rest:
        file_ids, segments = zip(*rest)
        pushed = dict(zip(file_ids, push_down(list(segments))))
    return (
        count_run(runs.pop(file_id)) if file_id in runs else pushed.pop(file_id)
        for file_id in range(dag.file_count)
    )


def _other_files(
    dag: Dag, runs: dict[int, Iterator[int]]
) -> list[tuple[int, tuple[int, int]]]:
    """(file id, root segment) of each file without a short run in `runs`."""
    return [pair for pair in enumerate(dag.segments) if pair[0] not in runs]


def _reached(dag: Dag, segments: list[tuple[int, int]]) -> list[int]:
    """Ids of the rules that the root segments reach, ascending: parents
    first. `dag.load_merge_graph` checks that the root reaches every rule,
    so the segments of all files reach them all."""
    n = dag.n_terminals
    rules = dag.rules
    if len(segments) == dag.file_count:
        return list(range(n + 1, n + len(rules)))
    root = rules[0]
    seen = {sym for start, end in segments for sym in root[start:end] if sym >= n}
    stack = list(seen)
    while stack:
        for sym in rules[stack.pop() - n]:
            if sym >= n and sym not in seen:
                seen.add(sym)
                stack.append(sym)
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
    n = dag.n_terminals
    rules = dag.rules
    memo = expansions(rules, n, EXPANSION_CAP)
    too_long = {rid for rid in range(n + 1, n + len(rules)) if memo[rid] is None}
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
    their expansion are skipped, so no loop runs over all of `dag.rules`
    per file. The seed tables are added to in place and returned.
    """
    n = dag.n_terminals
    rules = dag.rules
    # rules with something to count in their expansion: (such children
    # with their multiplicities, own table)
    counted: dict[int, tuple[list[tuple[int, int]], dict]] = {}
    for rid, rule_table in own.items():
        children: dict[int, int] = {}
        for sym in rules[rid - n]:
            if sym in counted:
                children[sym] = children.get(sym, 0) + 1
        if rule_table or children:
            counted[rid] = (list(children.items()), rule_table)

    root = rules[0]
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


def _per_file_code_counts(dag: Dag) -> Iterator[Counter]:
    """Word-code counts per file, in file order: counted over the expanded
    run of a short file, pushed down for the others."""
    return _by_path(dag, Counter, partial(_push_code_counts, dag))


def _push_code_counts(dag: Dag, segments: list[tuple[int, int]]) -> list[Counter]:
    """Per segment: its own words plus each reached rule's word counts
    times its frequency in the segment."""
    n = dag.n_terminals
    rules = dag.rules
    root = rules[0]
    seeds = [Counter(filter(n.__gt__, root[start:end])) for start, end in segments]
    own = {}
    for rid in reversed(_reached(dag, segments)):
        own[rid] = table = {}
        for sym in rules[rid - n]:
            if sym < n:
                table[sym] = table.get(sym, 0) + 1
    return _push_down(dag, own, segments, seeds)


# -- term vector and tfidf -------------------------------------------------------


def _term_vectors(
    tables: Iterable[Counter], words: list[str], top_k: int | None
) -> Iterator[list[tuple[str, int]]]:
    """Per file, as its table is pulled: (word, count) by count descending,
    ties by word, cut to top_k."""
    for table in tables:
        items = [(words[code], count) for code, count in table.items()]
        # by word, then stably by count descending: ties stay by word
        items.sort(key=itemgetter(0))
        items.sort(key=itemgetter(1), reverse=True)
        yield items[:top_k]


def term_vector(
    dag: Dag, dictionary: Dictionary, top_k: int | None = None
) -> Iterator[list[tuple[str, int]]]:
    """Per file, in file order: (word, count) sorted by count descending,
    ties by word, cut to top_k (None keeps every word). Each file is counted
    as its vector is pulled."""
    if top_k is not None and top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    return _term_vectors(_per_file_code_counts(dag), dictionary.words, top_k)


def tfidf(dag: Dag, dictionary: Dictionary) -> dict[str, dict[int, float]]:
    """Raw in-file term frequency times ln(file count / document frequency)."""
    tables = list(_per_file_code_counts(dag))
    # the document frequency of a word is the number of files counting it
    df = Counter(chain.from_iterable(tables))
    file_count = len(tables)
    idf = {code: math.log(file_count / files) for code, files in df.items()}
    scores: dict[int, dict[int, float]] = {}
    for file_id in range(file_count):
        # each table is dropped once scored
        table, tables[file_id] = tables[file_id], None
        for code, count in table.items():
            weight = idf[code]
            by_file = scores.get(code)
            if by_file is None:
                by_file = scores[code] = {}
            # 1 * weight is weight exactly
            by_file[file_id] = weight if count == 1 else count * weight
    return _by_word(scores, dictionary.words)


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


def _gram_tables(dag: Dag, words: list[str], l: int) -> Iterator[Counter]:
    """Per file, in file order: counts of every l-word window, keyed by gram
    name; counted over the expanded run of a short file, pushed down for
    the others."""
    if l < 2:
        raise ValueError(f"sequence length must be >= 2, got {l}")
    count_run = partial(_count_gram_run, words, l)
    return _by_path(dag, count_run, partial(_push_gram_tables, dag, words, l))


def _count_gram_run(words: list[str], l: int, run: Iterable[int]) -> Counter:
    """The l-word windows of one run of word codes, by gram name."""
    run = list(map(words.__getitem__, run))
    if len(run) < l:
        # no window, and the zip below would copy the run l times
        return Counter()
    return Counter(map("_".join, zip(*(run[i:] for i in range(l)))))


def _push_gram_tables(
    dag: Dag, words: list[str], l: int, segments: list[tuple[int, int]]
) -> list[Counter]:
    """Per segment: the l-word windows, by gram name.

    A segment of fewer than l words (`Dag.lengths`) holds no window and
    gets an empty table. One bottom-up pass gives each rule that the other
    segments reach its edge summary (its words when there are at most
    2(l-1), else its first and last l-1) and its crossing table. Such a
    segment's table is its own crossing windows plus each reached rule's
    crossing table times the rule's frequency in the segment. Grams with
    the same name are summed as they are counted.
    """
    n = dag.n_terminals
    rules = dag.rules
    root = rules[0]
    length = dag.lengths.__getitem__
    windowed = {
        index: (start, end)
        for index, (start, end) in enumerate(segments)
        if sum(map(length, root[start:end])) >= l
    }
    spans = list(windowed.values())
    edges: dict[int, list[str]] = {}
    crossing: dict[int, Counter] = {}
    for rid in reversed(_reached(dag, spans)):
        edges[rid], crossing[rid] = _crossing_windows(
            rules[rid - n], n, words, edges, l
        )
    seeds = [
        _crossing_windows(root[start:end], n, words, edges, l)[1]
        for start, end in spans
    ]
    tables = dict(zip(windowed, _push_down(dag, crossing, spans, seeds)))
    return [tables.get(index, Counter()) for index in range(len(segments))]


def gram_counts(tables: Iterable[Counter]) -> Iterator[dict[str, int]]:
    """Per file, as its table is pulled: {gram: count} sorted by gram, from
    name-keyed tables in file order."""
    return ({gram: table[gram] for gram in sorted(table)} for table in tables)


def sequence_count(
    dag: Dag, dictionary: Dictionary, l: int = 3
) -> Iterator[dict[str, int]]:
    """Per file, in file order: counts of every l-word window, keyed by the
    joined words. Each file is counted as its table is pulled."""
    return gram_counts(_gram_tables(dag, dictionary.words, l))


def ranked_inverted_index(
    dag: Dag, dictionary: Dictionary, l: int = 3
) -> Iterator[tuple[str, list[tuple[int, int]]]]:
    """Per l-gram, in gram order: (gram, [(file, count), ...]) sorted by
    count descending, ties by file."""
    return rank_gram_files(_gram_tables(dag, dictionary.words, l))


def rank_gram_files(
    tables: Iterable[Counter],
) -> Iterator[tuple[str, list[tuple[int, int]]]]:
    """Per gram, in gram order: (gram, [(file, count), ...]) by count
    descending, ties by file, from the name-keyed tables of `_gram_tables`
    in file order, where same-name grams are summed. Each table is dropped
    once merged.

    The merge runs when this is called; the postings go out one gram at a
    time. They share one (file, count) tuple per distinct count in a file:
    most grams occur once in their file, so a file's postings need only a
    few tuples. Most grams occur in one file, too: such a gram holds its
    tuple alone, and gets a list only when it gains a second file or is
    yielded. Each gram is popped as it goes, so its postings are freed once
    emitted and no gram-keyed result is built.
    """
    by_gram: dict[str, tuple[int, int] | list[tuple[int, int]]] = {}
    for file_id, table in enumerate(tables):
        pairs: dict[int, tuple[int, int]] = {}
        for gram, count in table.items():
            pair = pairs.get(count)
            if pair is None:
                pair = pairs[count] = (file_id, count)
            postings = by_gram.get(gram)
            if postings is None:
                by_gram[gram] = pair
            elif postings.__class__ is tuple:
                by_gram[gram] = [postings, pair]
            else:
                postings.append(pair)
    return _ranked_postings(by_gram, sorted(by_gram))


def _ranked_postings(
    by_gram: dict[str, tuple[int, int] | list[tuple[int, int]]], grams: list[str]
) -> Iterator[tuple[str, list[tuple[int, int]]]]:
    """Pop each of `grams` from `by_gram` in turn, with its postings ranked."""
    pop = by_gram.pop
    for gram in grams:
        postings = pop(gram)
        if postings.__class__ is tuple:
            yield gram, [postings]
        else:
            # postings are in file order and the sort is stable, also
            # reversed: ties stay ordered by file
            postings.sort(key=itemgetter(1), reverse=True)
            yield gram, postings
