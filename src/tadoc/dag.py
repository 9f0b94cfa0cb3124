"""In-memory analytic view of a grammar.

Each node keeps both the ordered rule body (for order-sensitive walks) and
the merged-edge view: per-node tables of direct terminal counts and child
multiplicities. Separator codes are excluded from terminal counts; their
positions in the root body delimit the per-file segments.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import mul

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


@dataclass
class Dag:
    n_terminals: int
    n_words: int
    root_id: int
    nodes: dict[int, Node]
    segments: list[tuple[int, int]]  # root-body span per file, separator excluded
    topo: list[int]  # rule ids in order: root first, parents before children
    total_tokens: int  # words in the expansion, separators excluded

    def is_rule(self, symbol: int) -> bool:
        return symbol >= self.n_terminals

    def is_separator(self, symbol: int) -> bool:
        return self.n_words <= symbol < self.n_terminals

    @property
    def file_count(self) -> int:
        return len(self.segments)

    def grammar(self) -> Grammar:
        """The rules as a Grammar again; it shares the nodes' body lists."""
        rules = [node.elements for node in self.nodes.values()]
        return Grammar(self.n_terminals, self.n_words, rules)


def load_merge_graph(grammar: Grammar) -> Dag:
    """Build nodes with merged weighted edges and per-file root segments,
    checking the grammar's structure in the same pass.

    Raises GrammarError unless the rules are stored parents first (see
    `sequitur.parents_first`), every reference names a rule, every rule but
    the root is referenced, and each separator code appears exactly once, in
    the root only. Rule-id order is then the DAG's topological order. Nodes
    borrow the grammar's body lists; neither side mutates them.
    """
    n = grammar.n_terminals
    n_words = grammar.n_words
    rules = grammar.rules
    if not rules:
        raise GrammarError("grammar has no root rule")
    root_id = grammar.root_id
    end = n + len(rules)
    built: list[Node] = []
    # words in the expansion of each rule built so far; the pass runs from
    # the last rule back to the root, so with parents first every reference
    # is to a rule already here
    length: dict[int, int] = {}
    referenced: set[int] = set()
    try:
        for rid, body in zip(range(end - 1, n - 1, -1), reversed(rules)):
            # counts in first-seen order; a Counter pays off on long bodies
            # only, and most rules hold two symbols
            term_counts: dict[int, int] = {}
            child_counts: dict[int, int] = {}
            if len(body) > _COUNTER_MIN_BODY:
                for sym, count in Counter(body).items():
                    if sym >= n:
                        child_counts[sym] = count
                    elif sym < n_words:
                        term_counts[sym] = count
                    elif rid != root_id:
                        raise _separator_in_rule(sym, rid)
                size = sum(term_counts.values()) + sum(
                    map(mul, map(length.__getitem__, child_counts), child_counts.values())
                )
            else:
                size = 0
                for sym in body:
                    if sym >= n:
                        child_counts[sym] = child_counts.get(sym, 0) + 1
                        size += length[sym]
                    elif sym < n_words:
                        term_counts[sym] = term_counts.get(sym, 0) + 1
                        size += 1
                    elif rid != root_id:
                        raise _separator_in_rule(sym, rid)
            if child_counts:
                referenced.update(child_counts)
            length[rid] = size
            built.append(Node(body, term_counts, child_counts))
    except KeyError as exc:
        if exc.args[0] >= end:
            raise GrammarError(f"rule {rid} references an undefined rule") from None
        raise GrammarError(
            f"rule {rid} references rule {exc.args[0]}: the grammar is cyclic or "
            "not stored parents first"
        ) from None
    # every reference is to a later rule, so all are reached when the
    # references name as many rules as follow the root
    if len(referenced) != len(rules) - 1:
        raise GrammarError("grammar has unreachable rules")
    nodes = dict(zip(range(n, end), reversed(built)))
    segments = _root_segments(nodes[root_id], n_words, n)
    return Dag(n, n_words, root_id, nodes, segments, list(nodes), length[root_id])


# bodies longer than this are counted with Counter
_COUNTER_MIN_BODY = 16


def _separator_in_rule(sym: int, rid: int) -> GrammarError:
    return GrammarError(f"separator code {sym} in rule {rid}, outside the root")


def _separator_positions(root: Node, n_words: int, n: int) -> list[int]:
    """Positions of the separator codes in the root body, in order.

    An encoded corpus holds each code once, in code order, which
    `list.index` finds in C; any other placement is found by a scan, and
    must still hold each code exactly once.
    """
    elements = root.elements
    held = len(elements) - sum(root.term_counts.values()) - sum(root.child_counts.values())
    if held == n - n_words:
        ends = []
        end = -1
        try:
            for code in range(n_words, n):
                end = elements.index(code, end + 1)
                ends.append(end)
            return ends
        except ValueError:
            pass
    ends = [i for i, sym in enumerate(elements) if n_words <= sym < n]
    if len({elements[i] for i in ends}) != len(ends) or len(ends) != n - n_words:
        raise GrammarError(
            f"the root holds {len(ends)} separator codes; each of the "
            f"{n - n_words} must appear exactly once"
        )
    return ends


def _root_segments(root: Node, n_words: int, n: int) -> list[tuple[int, int]]:
    ends = _separator_positions(root, n_words, n)
    segments = list(zip([0, *(end + 1 for end in ends)], ends))
    start = ends[-1] + 1 if ends else 0
    if start != len(root.elements):
        if n_words == n:
            # no separator codes reserved: the whole root is one file
            segments.append((start, len(root.elements)))
        else:
            raise GrammarError("root symbols after the last file separator")
    return segments


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

    # a surviving rule's references are to its descendants, so the old ids'
    # order stays parents first
    survivors = sorted(final)
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
