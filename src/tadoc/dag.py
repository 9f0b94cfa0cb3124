"""The loaded grammar: a checked `Grammar` with what the kernels read.

A `Dag` is the grammar whose structure `load_merge_graph` has checked. Its
rule bodies are the grammar's, parents first; it adds, by symbol, the
number of words it expands to (`Dag.lengths`), and the per-file spans of
the root body that the separator codes delimit (`Dag.segments`). Kernels
read the bodies directly; no per-rule count table is built.
"""

from __future__ import annotations

from itertools import chain

from .sequitur import Grammar, GrammarError


class Dag(Grammar):
    __slots__ = ("lengths", "segments")

    def __init__(self, n_terminals, n_words, rules, lengths, segments):
        super().__init__(n_terminals, n_words, rules)
        # by symbol, the words it expands to: a word 1, a separator 0
        self.lengths: list[int] = lengths
        # root-body span per file, separator excluded
        self.segments: list[tuple[int, int]] = segments

    @property
    def total_tokens(self) -> int:
        """Words in the expansion, separators excluded."""
        return self.lengths[self.n_terminals]

    @property
    def file_count(self) -> int:
        return len(self.segments)

    @property
    def nodes(self) -> dict[int, list[int]]:
        """Rule id -> body, in rule-id order. No job reads it: it stays for
        `perfbench/run.py`, which reports its length as the `dag.nodes` and
        `dag.coarse_nodes` counts."""
        return dict(enumerate(self.rules, self.n_terminals))


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
    # every reference is to a later rule, so all are reached when every rule
    # after the root is referenced. The lengths pass has rejected every
    # symbol at or above `end`, and every reference to the root, whose
    # length is None until the pass ends
    if not used.issuperset(range(n + 1, end)):
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
    # terminals are below n, so none is a key of `mapping`
    bodies = [[mapping.get(sym, sym) for sym in final[rid]] for rid in survivors]
    return load_merge_graph(Grammar(n, dag.n_words, bodies))

