"""In-memory analytic view of a grammar.

The DAG holds the rule bodies as the grammar stores them, parents first,
and by symbol the number of words it expands to (`Dag.lengths`). The
separator codes' positions in the root body delimit the per-file segments.
Kernels read the bodies directly. `Dag.nodes`, per-rule tables of terminal
counts and child multiplicities, is built on first use; no job reads it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .sequitur import Grammar, GrammarError


@dataclass(slots=True)
class Node:
    """One grammar rule with its merged-edge tables, in first-seen order."""

    elements: list[int]
    term_counts: dict[int, int]
    child_counts: dict[int, int]


@dataclass
class Dag:
    n_terminals: int
    n_words: int
    # rule bodies in rule-id order: root first, parents before children;
    # rule rid is rules[rid - n_terminals]
    rules: list[list[int]]
    # by symbol, the words it expands to: a word 1, a separator 0
    lengths: list[int]
    segments: list[tuple[int, int]]  # root-body span per file, separator excluded

    @property
    def root_id(self) -> int:
        return self.n_terminals

    @property
    def total_tokens(self) -> int:
        """Words in the expansion, separators excluded."""
        return self.lengths[self.n_terminals]

    def is_rule(self, symbol: int) -> bool:
        return symbol >= self.n_terminals

    @property
    def file_count(self) -> int:
        return len(self.segments)

    def grammar(self) -> Grammar:
        """The rules as a Grammar again; it shares the body lists."""
        return Grammar(self.n_terminals, self.n_words, self.rules)

    @cached_property
    def nodes(self) -> dict[int, Node]:
        """Rule id -> Node, in rule-id order; built on first use."""
        n, n_words = self.n_terminals, self.n_words
        nodes = {}
        for rid, body in enumerate(self.rules, n):
            term_counts: dict[int, int] = {}
            child_counts: dict[int, int] = {}
            for sym, count in Counter(body).items():
                if sym >= n:
                    child_counts[sym] = count
                elif sym < n_words:
                    term_counts[sym] = count
            nodes[rid] = Node(body, term_counts, child_counts)
        return nodes


def load_merge_graph(grammar: Grammar) -> Dag:
    """Check the grammar's structure and count the words of each rule's
    expansion, in one pass over the bodies; find the per-file root segments.

    Raises GrammarError unless every symbol is non-negative, the rules are
    stored parents first (see `sequitur.parents_first`), every reference
    names a rule, every rule but the root is referenced, and each separator
    code appears exactly once, in the root only. Rule-id order is then the
    DAG's topological order. The DAG borrows the grammar's body lists;
    neither side mutates them.
    """
    n = grammar.n_terminals
    n_words = grammar.n_words
    rules = grammar.rules
    if not rules:
        raise GrammarError("grammar has no root rule")
    end = n + len(rules)
    # A separator or a rule reads None until its turn, so a sum that meets
    # one raises TypeError. The pass runs from the last rule back to the
    # root: with parents first, every reference is to a rule counted already.
    lengths: list = [1] * n_words + [None] * (end - n_words)
    get = lengths.__getitem__
    rid = n
    try:
        for rid in range(end - 1, n, -1):
            lengths[rid] = sum(map(get, rules[rid - n]))
        rid = n
        root = rules[0]
        # In the root a separator weighs more than all the words the root
        # can expand to, so that one sum counts both.
        weight = len(root) * max(1, max(lengths[n + 1 :], default=1)) + 1
        lengths[n_words:n] = [weight] * (n - n_words)
        separators, total = divmod(sum(map(get, root)), weight)
    except (IndexError, TypeError):
        raise _fault(rid, rules[rid - n], n, lengths) from None
    lengths[n_words:n] = [0] * (n - n_words)
    lengths[n] = total

    used = set(chain.from_iterable(rules))
    if min(used, default=0) < 0:
        # a negative symbol that indexes `lengths` from its end counts wrongly
        rid = next(
            r for r in range(end - 1, n - 1, -1) if min(rules[r - n], default=0) < 0
        )
        raise _fault(rid, rules[rid - n], n, lengths)
    # every reference is to a later rule, so all are reached when the
    # references name as many rules as follow the root
    if sum(map(n.__le__, used)) != len(rules) - 1:
        raise GrammarError("grammar has unreachable rules")
    segments = _root_segments(root, n_words, n, separators)
    return Dag(n, n_words, rules, lengths, segments)


def _fault(rid: int, body: list[int], n: int, lengths: list) -> GrammarError:
    """The fault of the first symbol in rule `rid`'s body without a length:
    a negative symbol, an undefined rule, a separator code outside the root
    or a rule not counted yet."""
    sym = next(s for s in body if s < 0 or s >= len(lengths) or lengths[s] is None)
    if sym < 0:
        return GrammarError(f"negative symbol {sym} in rule {rid}")
    if sym >= len(lengths):
        return GrammarError(f"rule {rid} references an undefined rule")
    if sym < n:
        return GrammarError(f"separator code {sym} in rule {rid}, outside the root")
    return GrammarError(
        f"rule {rid} references rule {sym}: the grammar is cyclic or "
        "not stored parents first"
    )


def _separator_positions(
    root: list[int], n_words: int, n: int, held: int
) -> list[int]:
    """Positions of the separator codes in the root body, in order; the
    root holds `held` symbols that are separator codes.

    An encoded corpus holds each code once, in code order, which
    `list.index` finds in C; any other placement is found by a scan, and
    must still hold each code exactly once.
    """
    if held == n - n_words:
        ends = []
        end = -1
        try:
            for code in range(n_words, n):
                end = root.index(code, end + 1)
                ends.append(end)
            return ends
        except ValueError:
            pass
    ends = [i for i, sym in enumerate(root) if n_words <= sym < n]
    if len({root[i] for i in ends}) != len(ends) or len(ends) != n - n_words:
        raise GrammarError(
            f"the root holds {len(ends)} separator codes; each of the "
            f"{n - n_words} must appear exactly once"
        )
    return ends


def _root_segments(
    root: list[int], n_words: int, n: int, held: int
) -> list[tuple[int, int]]:
    ends = _separator_positions(root, n_words, n, held)
    segments = list(zip([0, *(end + 1 for end in ends)], ends))
    start = ends[-1] + 1 if ends else 0
    if start != len(root):
        if n_words == n:
            # no separator codes reserved: the whole root is one file
            segments.append((start, len(root)))
        else:
            raise GrammarError("root symbols after the last file separator")
    return segments


def coarsen(dag: Dag, threshold: int = 100) -> Dag:
    """Inline every non-root rule with fewer than `threshold` elements.

    Children are processed before parents, so inlining cascades upward;
    the expansion of the result equals the expansion of the input.
    """
    n = dag.n_terminals
    inlined: dict[int, list[int]] = {}
    final: dict[int, list[int]] = {}
    for rid in range(n + len(dag.rules) - 1, n - 1, -1):
        body = dag.rules[rid - n]
        if inlined.keys().isdisjoint(body):
            elements = body
        else:
            elements = []
            for sym in body:
                spliced = inlined.get(sym)
                if spliced is not None:
                    elements.extend(spliced)
                else:
                    elements.append(sym)
        if rid != n and len(elements) < threshold:
            inlined[rid] = elements
        else:
            final[rid] = elements

    # a surviving rule's references are to its descendants, so the old ids'
    # order stays parents first
    survivors = sorted(final)
    mapping = {rid: n + i for i, rid in enumerate(survivors)}
    bodies = []
    for rid in survivors:
        bodies.append(
            [mapping.get(sym, sym) if sym >= n else sym for sym in final[rid]]
        )
    return load_merge_graph(Grammar(n, dag.n_words, bodies))


def node_frequencies(dag: Dag) -> dict[int, int]:
    """Occurrences of each rule in the full expansion (root has 1)."""
    n = dag.n_terminals
    freq = dict.fromkeys(range(n, n + len(dag.rules)), 0)
    freq[n] = 1
    # parents first: a rule's frequency is complete when its turn comes
    for rid, body in enumerate(dag.rules, n):
        f = freq[rid]
        for sym in body:
            if sym >= n:
                freq[sym] += f
    return freq
