"""Analytics kernels that run directly on the grammar DAG.

Count-style kernels use the merged-edge tables; order-sensitive kernels walk
the ordered element lists depth-first, which visits words in their original
document order. Preorder phases propagate through a work queue where a node
is enqueued only once all of its in-edges have delivered.

The CLI, `tadoc bench` and the scheduler's workers share `load_dag` (with
the coarsening default), `run_task` (task to kernel), and the finalizers
`rank_term_vectors` and `tfidf_scores` over per-file counts.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque

from .bitmap import make_file_set
from .corpus import Dictionary
from .dag import Dag, coarsen, load_merge_graph
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


def load_dag(grammar: Grammar, task: str, threshold: int | None) -> Dag:
    """The DAG `task` runs on: merged edges, coarsened at `threshold`.

    With threshold None, order-sensitive tasks coarsen at 100 elements and
    the others run on the DAG as loaded.
    """
    dag = load_merge_graph(grammar)
    if threshold is None:
        threshold = 100 if task in ORDER_SENSITIVE else 0
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


# -- frequency propagation ----------------------------------------------------


def preorder_schedule(dag: Dag) -> tuple[dict[int, int], list[int]]:
    """Rule frequencies via parent-first propagation.

    Returns (frequency per node, dequeue order). Each node is dequeued
    exactly once, after updates == in_edges.
    """
    nodes = dag.nodes
    freq = dict.fromkeys(nodes, 0)
    updates = dict.fromkeys(nodes, 0)
    freq[dag.root_id] = 1
    queue = deque([dag.root_id])
    order = []
    while queue:
        rid = queue.popleft()
        order.append(rid)
        f = freq[rid]
        for child, mult in nodes[rid].child_counts.items():
            freq[child] += f * mult
            updates[child] += mult
            if updates[child] == nodes[child].in_edges:
                queue.append(child)
    return freq, order


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
    freq, _ = preorder_schedule(dag)
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
    updates = dict.fromkeys(nodes, 0)
    queue: deque[int] = deque()
    index: dict[int, set[int]] = {}

    root = nodes[dag.root_id]
    for file_id, (start, end) in enumerate(dag.segments):
        for sym in root.elements[start:end]:
            if sym < dag.n_terminals:
                index.setdefault(sym, set()).add(file_id)
            else:
                file_sets[sym].set(file_id)
                updates[sym] += 1
                if updates[sym] == nodes[sym].in_edges:
                    queue.append(sym)

    while queue:
        rid = queue.popleft()
        fs = file_sets[rid]
        for child, mult in nodes[rid].child_counts.items():
            file_sets[child].update(fs)
            updates[child] += mult
            if updates[child] == nodes[child].in_edges:
                queue.append(child)
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


def _segment_words(dag: Dag, span: tuple[int, int], instances, rule_done=None):
    """Depth-first word stream of one file segment.

    Yields (word code, instance token, rule id); the instance token is fresh
    per rule occurrence so windows spanning adjacent occurrences of the same
    rule are still recognized as crossing. The segment frame itself has
    rule id None. rule_done fires when a rule body has been fully walked.
    """
    nodes = dag.nodes
    n = dag.n_terminals
    root = nodes[dag.root_id]
    stack = [[root.elements, span[0], span[1], 0, None]]
    while stack:
        frame = stack[-1]
        elements, i, end = frame[0], frame[1], frame[2]
        if i >= end:
            stack.pop()
            if frame[4] is not None and rule_done is not None:
                rule_done(frame[4])
            continue
        sym = elements[i]
        frame[1] = i + 1
        if sym < n:
            yield sym, frame[3], frame[4]
        else:
            body = nodes[sym].elements
            stack.append([body, 0, len(body), next(instances), sym])


def depth_first_words(dag: Dag):
    """Word codes of all files in traversal order (separators skipped)."""
    instances = itertools.count(1)
    for span in dag.segments:
        for code, _, _ in _segment_words(dag, span, instances):
            yield code


def sequence_count(
    dag: Dag, dictionary: Dictionary, l: int = 3
) -> list[dict[str, int]]:
    """Per file: counts of every l-word window, via the two-level tables.

    Windows that stay inside one rule occurrence are counted once in that
    rule's local table and folded in with the rule's per-segment frequency;
    windows crossing occurrences go straight to the per-file global table.
    """
    if l < 2:
        raise ValueError(f"sequence length must be >= 2, got {l}")
    nodes = dag.nodes
    local_tables: dict[int, Counter] = {}
    ready: set[int] = set()
    instances = itertools.count(1)
    results = []
    for span in dag.segments:
        global_table: Counter = Counter()
        window: deque = deque(maxlen=l)
        for item in _segment_words(dag, span, instances, ready.add):
            window.append(item)
            if len(window) < l:
                continue
            first = window[0]
            instance = first[1]
            if all(entry[1] == instance for entry in window):
                rid = first[2]
                if rid is not None and rid not in ready:
                    gram = tuple(entry[0] for entry in window)
                    local_tables.setdefault(rid, Counter())[gram] += 1
                elif rid is None:
                    global_table[tuple(entry[0] for entry in window)] += 1
            else:
                global_table[tuple(entry[0] for entry in window)] += 1

        # per-segment rule frequencies, then fold the local tables in
        segment_freq: Counter = Counter()
        root = nodes[dag.root_id]
        for sym in root.elements[span[0] : span[1]]:
            if sym >= dag.n_terminals:
                segment_freq[sym] += 1
        for rid in dag.topo:
            f = segment_freq.get(rid)
            if f:
                for child, mult in nodes[rid].child_counts.items():
                    segment_freq[child] += f * mult
        for rid, f in segment_freq.items():
            table = local_tables.get(rid)
            if table:
                for gram, count in table.items():
                    global_table[gram] += count * f
        results.append(global_table)

    words = dictionary.words
    out = []
    for table in results:
        decoded = {
            "_".join(words[code] for code in gram): table[gram] for gram in table
        }
        out.append({gram: decoded[gram] for gram in sorted(decoded)})
    return out


def ranked_inverted_index(
    dag: Dag, dictionary: Dictionary, l: int = 3
) -> dict[str, list[tuple[int, int]]]:
    """Per l-gram: (file, count) sorted by count descending, ties by file."""
    per_file = sequence_count(dag, dictionary, l)
    return rank_gram_files(per_file)


def rank_gram_files(
    per_file: list[dict[str, int]],
) -> dict[str, list[tuple[int, int]]]:
    by_gram: dict[str, list[tuple[int, int]]] = {}
    for file_id, table in enumerate(per_file):
        for gram, count in table.items():
            by_gram.setdefault(gram, []).append((file_id, count))
    return {
        gram: sorted(by_gram[gram], key=lambda item: (-item[1], item[0]))
        for gram in sorted(by_gram)
    }


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
