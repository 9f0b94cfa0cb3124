"""Analytics kernels that run directly on the grammar DAG.

Count-style kernels use the merged-edge tables. Order-sensitive kernels
also run on the grammar: one bottom-up pass keeps each rule's first and
last l-1 words (its edge summary) and counts the l-word windows that cross
the boundaries between its elements (its crossing table); a file's window
counts are its root segment's crossing windows plus each rule's crossing
table times the rule's frequency in that segment. Preorder phases walk
`dag.topo`, which lists every parent before its children: the in-edge gate
is applied once, when the DAG is loaded, and a node's frequency or file set
is complete when its turn comes.

The CLI, `tadoc bench` and the scheduler share `load_dag` and the
finalizers `rank_term_vectors`, `tfidf_scores`, `gram_counts` and
`rank_gram_files`; the CLI and `tadoc bench` also share `run_task` (task
to kernel), while the scheduler's workers return the per-file tables of
`_per_file_code_counts` and `_gram_tables`.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from operator import itemgetter

from .bitmap import make_file_set
from .corpus import Dictionary
from .dag import Dag, coarsen, load_merge_graph, node_frequencies
from .sequitur import Grammar

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


def load_dag(grammar: Grammar, threshold: int | None = None) -> Dag:
    """The DAG every task runs on: merged edges, coarsened at `threshold`.

    With threshold None or 0 the DAG runs as loaded.
    """
    dag = load_merge_graph(grammar)
    return coarsen(dag, threshold) if threshold else dag


def run_task(
    task: str,
    dag: Dag,
    dictionary: Dictionary,
    variant: str = "postorder",
    l: int = 3,
    top_k: int | None = None,
):
    """Run one of TASKS on `dag` with the given traversal variant."""
    if task == "word_count":
        if variant == "postorder":
            return word_count_postorder(dag, dictionary)
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


def _subtree_code_counts(dag: Dag) -> dict[int, Counter]:
    """Full word-code count table per node, children folded before parents."""
    tables: dict[int, Counter] = {}
    for rid in reversed(dag.topo):
        node = dag.nodes[rid]
        table = Counter(node.term_counts)
        for child, mult in node.child_counts.items():
            child_table = tables[child]
            if mult == 1:
                table.update(child_table)
            else:
                for code, count in child_table.items():
                    table[code] += count * mult
        tables[rid] = table
    return tables


def word_count_postorder(dag: Dag, dictionary: Dictionary) -> dict[str, int]:
    counts = _subtree_code_counts(dag)[dag.root_id]
    return _decode_counts(counts, dictionary)


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
    return _decode_counts(counts, dictionary)


def _decode_counts(counts: Counter, dictionary: Dictionary) -> dict[str, int]:
    words = dictionary.words
    return {words[code]: counts[code] for code in sorted(counts, key=lambda c: words[c])}


def sort_words(dag: Dag, dictionary: Dictionary) -> list[tuple[str, int]]:
    """All words with their totals, ascending lexicographic."""
    return list(word_count_preorder(dag, dictionary).items())


# -- inverted index -----------------------------------------------------------


def inverted_index(
    dag: Dag, dictionary: Dictionary, variant: str = "postorder"
) -> dict[str, list[int]]:
    if variant not in INDEX_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "postorder":
        index = _inverted_postorder(dag)
    else:
        index = _inverted_preorder(dag, variant.removeprefix("preorder_"))
    words = dictionary.words
    return {
        words[code]: sorted(index[code])
        for code in sorted(index, key=lambda c: words[c])
    }


def _inverted_postorder(dag: Dag) -> dict[int, set[int]]:
    """Fold word sets up to the root's children, then cross with segments."""
    word_sets: dict[int, set[int]] = {}
    for rid in reversed(dag.topo):
        if rid == dag.root_id:
            continue
        node = dag.nodes[rid]
        merged = set(node.term_counts)
        for child in node.child_counts:
            merged |= word_sets[child]
        word_sets[rid] = merged

    root = dag.nodes[dag.root_id]
    index: dict[int, set[int]] = {}
    for file_id, (start, end) in enumerate(dag.segments):
        for sym in root.elements[start:end]:
            if sym < dag.n_terminals:
                index.setdefault(sym, set()).add(file_id)
            else:
                for code in word_sets[sym]:
                    index.setdefault(code, set()).add(file_id)
    return index


def _inverted_preorder(dag: Dag, kind: str) -> dict[int, set[int]]:
    """Seed file sets from the root segments and push them down the DAG."""
    nodes = dag.nodes
    universe = dag.file_count
    file_sets = {
        rid: make_file_set(kind, universe) for rid in nodes if rid != dag.root_id
    }
    index: dict[int, set[int]] = {}

    root = nodes[dag.root_id]
    for file_id, (start, end) in enumerate(dag.segments):
        for sym in root.elements[start:end]:
            if sym < dag.n_terminals:
                index.setdefault(sym, set()).add(file_id)
            else:
                file_sets[sym].set(file_id)

    # dag.topo is root first, then parents before children: every set is
    # complete before it is pushed on
    for rid in dag.topo[1:]:
        fs = file_sets[rid]
        for child in nodes[rid].child_counts:
            file_sets[child].update(fs)
        members = list(fs.iter_set())
        for code in nodes[rid].term_counts:
            index.setdefault(code, set()).update(members)
    return index


# -- term vector --------------------------------------------------------------


def _per_file_code_counts(dag: Dag) -> list[Counter]:
    """Word-code counts per file: child tables folded into each segment."""
    tables = _subtree_code_counts(dag)
    root = dag.nodes[dag.root_id]
    per_file = []
    for start, end in dag.segments:
        counts: Counter = Counter()
        child_occurrences: Counter = Counter()
        for sym in root.elements[start:end]:
            if sym < dag.n_terminals:
                counts[sym] += 1
            else:
                child_occurrences[sym] += 1
        for child, mult in child_occurrences.items():
            for code, count in tables[child].items():
                counts[code] += count * mult
        per_file.append(counts)
    return per_file


def term_vector(
    dag: Dag, dictionary: Dictionary, top_k: int | None = None
) -> list[list[tuple[str, int]]]:
    """Per file: (word, count) sorted by count descending, ties by word."""
    words = dictionary.words
    return rank_term_vectors(
        (
            ((words[code], count) for code, count in counts.items())
            for counts in _per_file_code_counts(dag)
        ),
        top_k,
    )


def rank_term_vectors(per_file, top_k: int | None) -> list[list[tuple[str, int]]]:
    """Rank each file's (word, count) pairs: count descending, ties by word.

    top_k keeps each file's first top_k terms; None keeps them all.
    """
    if top_k is not None and top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    out = []
    for pairs in per_file:
        ranked = sorted(pairs, key=lambda item: (-item[1], item[0]))
        out.append(ranked[:top_k] if top_k is not None else ranked)
    return out


# -- sequence count -----------------------------------------------------------


def depth_first_words(dag: Dag):
    """Word codes of all files in traversal order (separators skipped)."""
    nodes = dag.nodes
    n = dag.n_terminals
    root = nodes[dag.root_id].elements
    for start, end in dag.segments:
        stack = [iter(root[start:end])]
        while stack:
            for sym in stack[-1]:
                if sym < n:
                    yield sym
                else:
                    stack.append(iter(nodes[sym].elements))
                    break
            else:
                stack.pop()


def _crossing_windows(
    elements: list[int], n: int, edges: dict[int, list[int]], l: int
) -> tuple[list[int], Counter]:
    """Edge summary and crossing table of one run of body elements.

    Each element stands for its words: a terminal for itself, a rule for
    its edge summary from `edges`. The crossing table counts the l-word
    windows that start in the last l-1 words of one element and end in a
    later one; every other window lies inside one rule occurrence. Such a
    window reaches at most l-1 words into any element, so it never needs
    more than a rule's first and last l-1 words.
    """
    k = l - 1
    words: list[int] = []
    starts: list[int] = []
    for sym in elements:
        begin = len(words)
        if sym < n:
            words.append(sym)
            starts.append(begin)
        else:
            edge = edges[sym]
            words += edge
            end = len(words)
            starts.extend(range(max(begin, end - k), end))
    last = len(words) - l
    table = Counter(tuple(words[i : i + l]) for i in starts if i <= last)
    edge = words if len(words) <= 2 * k else words[:k] + words[-k:]
    return edge, table


def _gram_tables(dag: Dag, l: int) -> list[Counter]:
    """Per file: counts of every l-word window, keyed by word-code tuples.

    One bottom-up pass gives each rule its edge summary (its words when
    there are at most 2(l-1), else its first and last l-1) and its crossing
    table. A file's table is the crossing table of its root segment plus
    each rule's crossing table times the rule's frequency in the segment;
    frequencies are pushed down only through the rules the segment reaches.
    """
    if l < 2:
        raise ValueError(f"sequence length must be >= 2, got {l}")
    nodes = dag.nodes
    n = dag.n_terminals
    topo = dag.topo
    edges: dict[int, list[int]] = {}
    # rules with a window in their expansion: (such children, crossing table)
    counted: dict[int, tuple[list[tuple[int, int]], Counter]] = {}
    for rid in reversed(topo):
        if rid != dag.root_id:
            edges[rid], crossing = _crossing_windows(nodes[rid].elements, n, edges, l)
            children = [
                (child, mult)
                for child, mult in nodes[rid].child_counts.items()
                if child in counted
            ]
            if crossing or children:
                counted[rid] = (children, crossing)

    position = {rid: i for i, rid in enumerate(topo)}
    root = nodes[dag.root_id].elements
    tables = []
    for start, end in dag.segments:
        segment = root[start:end]
        _, table = _crossing_windows(segment, n, edges, l)
        freq: dict[int, int] = {}
        for sym in segment:
            if sym in counted:
                freq[sym] = freq.get(sym, 0) + 1
        # topo lists parents first: a rule's frequency is complete when popped
        heap = [position[rid] for rid in freq]
        heapq.heapify(heap)
        while heap:
            rid = topo[heapq.heappop(heap)]
            f = freq[rid]
            children, crossing = counted[rid]
            for child, mult in children:
                if child in freq:
                    freq[child] += f * mult
                else:
                    freq[child] = f * mult
                    heapq.heappush(heap, position[child])
            for gram, count in crossing.items():
                table[gram] += count * f
        tables.append(table)
    return tables


def _gram_names(tables: list[Counter], dictionary: Dictionary) -> dict[tuple, str]:
    """The words of each distinct gram joined with "_", decoded once."""
    words = dictionary.words
    names: dict[tuple, str] = {}
    for table in tables:
        for gram in table:
            if gram not in names:
                names[gram] = "_".join([words[code] for code in gram])
    return names


def gram_counts(tables: list[Counter], dictionary: Dictionary) -> list[dict[str, int]]:
    """Per file: {gram: count} sorted by gram, from code-keyed tables.

    Grams that decode to the same string (words may contain "_") have their
    counts summed, as in the oracle.
    """
    names = _gram_names(tables, dictionary)
    out = []
    for table in tables:
        pairs = sorted(zip(map(names.__getitem__, table), table.values()))
        counts = dict(pairs)
        if len(counts) < len(pairs):
            counts = {}
            for name, count in pairs:
                counts[name] = counts.get(name, 0) + count
        out.append(counts)
    return out


def sequence_count(
    dag: Dag, dictionary: Dictionary, l: int = 3
) -> list[dict[str, int]]:
    """Per file: counts of every l-word window, keyed by the joined words."""
    return gram_counts(_gram_tables(dag, l), dictionary)


def ranked_inverted_index(
    dag: Dag, dictionary: Dictionary, l: int = 3
) -> dict[str, list[tuple[int, int]]]:
    """Per l-gram: (file, count) sorted by count descending, ties by file."""
    return rank_gram_files(_gram_tables(dag, l), dictionary)


def rank_gram_files(
    tables: list[Counter], dictionary: Dictionary
) -> dict[str, list[tuple[int, int]]]:
    """Per gram: (file, count) by count descending, ties by file.

    Takes code-keyed per-file tables; grams that decode to the same string
    have their counts summed per file, as in `gram_counts`.
    """
    names = _gram_names(tables, dictionary)
    by_gram: dict[str, list[tuple[int, int]]] = {}
    for file_id, table in enumerate(tables):
        for gram, count in zip(map(names.__getitem__, table), table.values()):
            postings = by_gram.get(gram)
            if postings is None:
                by_gram[gram] = [(file_id, count)]
            elif postings[-1][0] == file_id:
                # another code gram of this file with the same name
                postings[-1] = (file_id, postings[-1][1] + count)
            else:
                postings.append((file_id, count))
    ranked = {}
    for gram in sorted(by_gram):
        postings = by_gram[gram]
        if len(postings) > 1:
            # postings are in file order and the sort is stable, also
            # reversed: ties stay ordered by file
            postings.sort(key=itemgetter(1), reverse=True)
        ranked[gram] = postings
    return ranked


# -- tfidf ---------------------------------------------------------------------


def tfidf(dag: Dag, dictionary: Dictionary) -> dict[str, dict[int, float]]:
    """Raw in-file term frequency times ln(file count / document frequency)."""
    words = dictionary.words
    return tfidf_scores(
        [
            {words[code]: count for code, count in counts.items()}
            for counts in _per_file_code_counts(dag)
        ]
    )


def tfidf_scores(per_file: list[dict[str, int]]) -> dict[str, dict[int, float]]:
    """Scores per word and file from each file's word counts.

    The document frequency of a word is the number of files that count it.
    """
    file_count = len(per_file)
    df: Counter = Counter()
    for counts in per_file:
        df.update(counts.keys())
    scores: dict[str, dict[int, float]] = {}
    for file_id, counts in enumerate(per_file):
        for word, count in counts.items():
            scores.setdefault(word, {})[file_id] = count * math.log(
                file_count / df[word]
            )
    return {word: dict(sorted(scores[word].items())) for word in sorted(scores)}
