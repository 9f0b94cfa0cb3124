"""In-memory analytic view of a grammar.

Each node keeps both the ordered rule body (for order-sensitive walks) and
the merged-edge view: per-node tables of direct terminal counts and child
multiplicities. Separator codes are excluded from terminal counts; their
positions in the root body delimit the per-file segments.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from .corpus import CorpusError
from .sequitur import Grammar, GrammarError


@dataclass(slots=True)
class Node:
    """One grammar rule as seen by the analytics kernels.

    The count tables are plain dicts; kernels that fold them use Counter
    arithmetic on their own accumulators.
    """

    elements: list[int]
    term_counts: dict[int, int]
    child_counts: dict[int, int]
    in_edges: int = 0


@dataclass
class Dag:
    n_terminals: int
    n_words: int
    root_id: int
    nodes: dict[int, Node]
    segments: list[tuple[int, int]]  # root-body span per file, separator excluded
    topo: list[int]  # parents before children, root first

    def is_rule(self, symbol: int) -> bool:
        return symbol >= self.n_terminals

    def is_separator(self, symbol: int) -> bool:
        return self.n_words <= symbol < self.n_terminals

    @property
    def file_count(self) -> int:
        return len(self.segments)


def load_merge_graph(grammar: Grammar) -> Dag:
    """Build nodes with merged weighted edges and per-file root segments.

    Nodes borrow the grammar's body lists; neither side mutates them.
    """
    n = grammar.n_terminals
    n_words = grammar.n_words
    nodes: dict[int, Node] = {}
    for index, body in enumerate(grammar.rules):
        term_counts: dict[int, int] = {}
        child_counts: dict[int, int] = {}
        for sym, count in _symbol_counts(body).items():
            if sym >= n:
                child_counts[sym] = count
            elif sym < n_words:
                term_counts[sym] = count
        nodes[n + index] = Node(body, term_counts, child_counts)

    for node in nodes.values():
        for child, mult in node.child_counts.items():
            if child not in nodes:
                raise GrammarError(f"dangling rule id {child}")
            nodes[child].in_edges += mult

    root_id = grammar.root_id
    segments = _root_segments(nodes[root_id].elements, n_words, n)
    topo = _topo_order(nodes, root_id)
    return Dag(n, n_words, root_id, nodes, segments, topo)


# bodies longer than this are counted with Counter
_COUNTER_MIN_BODY = 16


def _symbol_counts(body: list[int]) -> dict[int, int]:
    """Occurrences of each symbol in one rule body, in first-seen order.

    Building a Counter costs more than counting a short body directly, and
    most rules hold only a few symbols.
    """
    if len(body) > _COUNTER_MIN_BODY:
        return Counter(body)
    counts: dict[int, int] = {}
    for sym in body:
        counts[sym] = counts.get(sym, 0) + 1
    return counts


def _root_segments(elements: list[int], n_words: int, n: int) -> list[tuple[int, int]]:
    segments = []
    start = 0
    for i, sym in enumerate(elements):
        if n_words <= sym < n:
            segments.append((start, i))
            start = i + 1
    if start != len(elements):
        if n_words == n:
            # no separator codes reserved: the whole root is one file
            segments.append((start, len(elements)))
        else:
            raise GrammarError("root symbols after the last file separator")
    return segments


def _topo_order(nodes: dict[int, Node], root_id: int) -> list[int]:
    remaining = {rid: node.in_edges for rid, node in nodes.items()}
    order = []
    queue = deque([root_id])
    while queue:
        rid = queue.popleft()
        order.append(rid)
        for child, mult in nodes[rid].child_counts.items():
            remaining[child] -= mult
            if remaining[child] == 0:
                queue.append(child)
    if len(order) != len(nodes):
        raise GrammarError("grammar graph is cyclic or has unreachable rules")
    return order


def coarsen(dag: Dag, threshold: int = 100) -> Dag:
    """Inline every non-root node with fewer than `threshold` elements.

    Children are processed before parents, so inlining cascades upward;
    the expansion of the result equals the expansion of the input.
    """
    inlined: dict[int, list[int]] = {}
    final: dict[int, list[int]] = {}
    for rid in reversed(dag.topo):
        node = dag.nodes[rid]
        if not node.child_counts:
            elements = node.elements
        else:
            elements = []
            for sym in node.elements:
                spliced = inlined.get(sym)
                if spliced is not None:
                    elements.extend(spliced)
                else:
                    elements.append(sym)
        if rid != dag.root_id and len(elements) < threshold:
            inlined[rid] = elements
        else:
            final[rid] = elements

    survivors = [dag.root_id] + sorted(rid for rid in final if rid != dag.root_id)
    mapping = {rid: dag.n_terminals + i for i, rid in enumerate(survivors)}
    bodies = []
    for rid in survivors:
        bodies.append(
            [mapping.get(sym, sym) if sym >= dag.n_terminals else sym for sym in final[rid]]
        )
    return load_merge_graph(Grammar(dag.n_terminals, dag.n_words, bodies))


def node_frequencies(dag: Dag) -> dict[int, int]:
    """Occurrences of each rule in the full expansion (root has 1)."""
    freq = dict.fromkeys(dag.nodes, 0)
    freq[dag.root_id] = 1
    for rid in dag.topo:
        f = freq[rid]
        if f:
            for child, mult in dag.nodes[rid].child_counts.items():
                freq[child] += f * mult
    return freq


def total_tokens(dag: Dag) -> int:
    """Token count of the expansion, separators excluded."""
    freq = node_frequencies(dag)
    return sum(
        freq[rid] * sum(node.term_counts.values()) for rid, node in dag.nodes.items()
    )


@dataclass
class DatasetFeatures:
    file_count: int
    total_tokens: int
    vocab_size: int
    rule_count: int
    container_size: int = 0

    @property
    def avg_file_tokens(self) -> float:
        return self.total_tokens / self.file_count


def extract_features(dag: Dag, header=None) -> DatasetFeatures:
    """Corpus features driving traversal-variant selection.

    With a container header the values are passed through from metadata;
    otherwise they are recomputed from the graph.
    """
    if header is not None:
        features = DatasetFeatures(
            file_count=len(header.file_table),
            total_tokens=header.total_tokens,
            vocab_size=header.word_count,
            rule_count=header.rule_count,
            container_size=header.container_size,
        )
    else:
        features = DatasetFeatures(
            file_count=dag.file_count,
            total_tokens=total_tokens(dag),
            vocab_size=dag.n_words,
            rule_count=len(dag.nodes),
        )
    if features.file_count < 1:
        raise CorpusError("corpus has no files")
    return features
