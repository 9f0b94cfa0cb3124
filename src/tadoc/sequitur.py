"""Online grammar inference over integer symbol streams, and its inverse.

The inference maintains two invariants while scanning left to right:

* digram uniqueness -- no ordered pair of adjacent symbols appears more than
  once across all rule bodies (overlapping repeats like ``a a a`` are the
  usual exception, and pairs containing a file separator are never indexed);
* rule utility -- every non-root rule is referenced at least twice; a rule
  whose reference count drops to one is inlined at its remaining use.

Rules are kept as circular doubly-linked lists over parallel arrays
(``val``/``nxt``/``prv``) with recycled slots, so the live structure stays
proportional to the compressed size rather than the stream length.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass

from .corpus import MalformedStreamError


class GrammarError(ValueError):
    """Structurally invalid grammar (dangling rule id, cycle, ...)."""


@dataclass
class Grammar:
    """A context-free grammar for one symbol stream.

    Codes below ``n_terminals`` are terminals; rule ids are assigned densely
    from ``n_terminals`` upward, root first. Separator codes occupy
    [n_words, n_terminals) and only ever appear in the root body.

    Inferred grammars, containers and the DAG number rules parents first:
    every rule id in rule i's body is greater than i (`parents_first`
    renumbers any acyclic grammar so).
    """

    n_terminals: int
    n_words: int
    rules: list[list[int]]

    @property
    def root_id(self) -> int:
        return self.n_terminals

    def body(self, rule_id: int) -> list[int]:
        index = rule_id - self.n_terminals
        if index < 0 or index >= len(self.rules):
            raise GrammarError(f"dangling rule id {rule_id}")
        return self.rules[index]

    def is_rule(self, symbol: int) -> bool:
        return symbol >= self.n_terminals

    def is_separator(self, symbol: int) -> bool:
        return self.n_words <= symbol < self.n_terminals


class _Builder:
    """Mutable inference state; produces an immutable Grammar."""

    def __init__(self, n_terminals: int, n_words: int):
        self.n = n_terminals
        self.sep_lo = n_words
        self.sep_hi = n_terminals
        self.val: list[int] = []  # symbol value; negative marks a rule guard
        self.nxt: list[int] = []
        self.prv: list[int] = []
        self.free: list[int] = []
        self.digram_at: dict[tuple[int, int], int] = {}
        self.rules: dict[int, int] = {}  # rule id -> guard slot
        self.use_sites: dict[int, set[int]] = {}
        self.next_rule_id = n_terminals
        self.root = self._new_rule()

    # -- slot plumbing ------------------------------------------------------

    def _new_slot(self, value: int) -> int:
        if self.free:
            slot = self.free.pop()
            self.val[slot] = value
        else:
            slot = len(self.val)
            self.val.append(value)
            self.nxt.append(-1)
            self.prv.append(-1)
        return slot

    def _new_rule(self) -> int:
        rid = self.next_rule_id
        self.next_rule_id += 1
        guard = self._new_slot(-rid - 1)
        self.nxt[guard] = guard
        self.prv[guard] = guard
        self.rules[rid] = guard
        self.use_sites[rid] = set()
        return rid

    def _link(self, x: int, y: int) -> None:
        self.nxt[x] = y
        self.prv[y] = x

    def _unindex(self, x: int, dead: tuple[int, ...] = ()) -> None:
        """Drop the digram starting at slot x if the index points there.

        ``dead`` holds the slots the caller is about to delete. A run like
        ``v v v`` keeps only its first pair indexed (the second overlaps);
        if the indexed pair dies while its overlapping twin survives, the
        entry is transferred to the twin instead of dropped, so the twin
        stays visible to future checks.
        """
        y = self.nxt[x]
        vx = self.val[x]
        vy = self.val[y]
        if vx < 0 or vy < 0:
            return
        if self.sep_lo <= vx < self.sep_hi or self.sep_lo <= vy < self.sep_hi:
            return
        key = (vx, vy)
        if self.digram_at.get(key) != x:
            return
        if vx == vy:
            w = self.prv[x]
            if self.val[w] == vx and w not in dead and x not in dead:
                self.digram_at[key] = w
                return
            z = self.nxt[y]
            if self.val[z] == vx and y not in dead and z not in dead:
                self.digram_at[key] = y
                return
        del self.digram_at[key]

    # -- the algorithm ------------------------------------------------------

    def append(self, code: int) -> None:
        guard = self.rules[self.root]
        last = self.prv[guard]
        slot = self._new_slot(code)
        self._link(last, slot)
        self._link(slot, guard)
        self._check(last)

    def _check(self, x: int) -> bool:
        """Enforce digram uniqueness for the digram starting at slot x."""
        y = self.nxt[x]
        vx = self.val[x]
        vy = self.val[y]
        if vx < 0 or vy < 0:
            return False
        if self.sep_lo <= vx < self.sep_hi or self.sep_lo <= vy < self.sep_hi:
            return False
        key = (vx, vy)
        m = self.digram_at.get(key)
        if m is None:
            self.digram_at[key] = x
            return False
        if m == x:
            return False
        if self.nxt[m] == x or self.nxt[x] == m:
            return False  # overlapping occurrences share a symbol
        self._match(x, m, key)
        return True

    def _match(self, x: int, m: int, key: tuple[int, int]) -> None:
        a, b = key
        before = self.prv[m]
        after = self.nxt[self.nxt[m]]
        root_guard = self.rules[self.root]
        if (
            self.val[before] < 0
            and before == after
            and before != root_guard
        ):
            # m spans the entire body of an existing rule: reuse it.
            rid = -self.val[before] - 1
            self._substitute(x, rid)
        else:
            rid = self._new_rule()
            guard = self.rules[rid]
            s1 = self._new_slot(a)
            s2 = self._new_slot(b)
            self._link(guard, s1)
            self._link(s1, s2)
            self._link(s2, guard)
            if a >= self.n:
                self.use_sites[a].add(s1)
            if b >= self.n:
                self.use_sites[b].add(s2)
            self.digram_at[key] = s1
            self._substitute(m, rid)
            self._substitute(x, rid)
        # Reference counts of a and b each dropped; enforce rule utility.
        for v in (a, b) if a != b else (a,):
            if v >= self.n:
                sites = self.use_sites.get(v)
                if sites is not None and len(sites) == 1:
                    self._inline(v)

    def _substitute(self, pos: int, rid: int) -> None:
        """Replace the digram starting at slot pos with a reference to rid."""
        second = self.nxt[pos]
        left = self.prv[pos]
        right = self.nxt[second]
        dead = (pos, second)
        self._unindex(left, dead)
        self._unindex(pos, dead)
        self._unindex(second, dead)
        for slot in (pos, second):
            v = self.val[slot]
            if v >= self.n:
                self.use_sites[v].discard(slot)
            self.free.append(slot)
        slot = self._new_slot(rid)
        self._link(left, slot)
        self._link(slot, right)
        self.use_sites[rid].add(slot)
        if not self._check(left):
            self._check(slot)

    def _inline(self, rid: int) -> None:
        """Splice the body of a once-referenced rule into its only use."""
        (use,) = self.use_sites[rid]
        guard = self.rules[rid]
        first = self.nxt[guard]
        last = self.prv[guard]
        left = self.prv[use]
        right = self.nxt[use]
        self._unindex(left, (use,))
        self._unindex(use, (use,))
        del self.rules[rid]
        del self.use_sites[rid]
        self.free.append(use)
        self.free.append(guard)
        self._link(left, first)
        self._link(last, right)
        if not self._check(left):
            self._check(last)

    def finalize(self) -> Grammar:
        """The grammar, its live rules numbered parents first."""
        n = self.n
        bodies: dict[int, list[int]] = {}

        def walk(rid: int) -> list[int]:
            guard = self.rules[rid]
            body = bodies[rid] = []
            slot = self.nxt[guard]
            while slot != guard:
                body.append(self.val[slot])
                slot = self.nxt[slot]
            return body

        # a rule's use sites are the references to it in the live bodies
        in_edges = {rid: len(sites) for rid, sites in self.use_sites.items()}
        order = _parents_first_order(self.root, n, in_edges, walk)
        number = {rid: n + i for i, rid in enumerate(order)}
        rules = [bodies[rid] for rid in order]
        for body in rules:
            body[:] = [number[v] if v >= n else v for v in body]
        return Grammar(n, self.sep_lo, rules)


def infer_grammar(
    symbols: list[int], n_terminals: int, n_words: int | None = None
) -> Grammar:
    """Infer the grammar for a code stream; expand(result) == symbols.

    n_words marks the start of the separator code range [n_words,
    n_terminals); digrams touching separators are never indexed, which keeps
    separators in the root by construction.
    """
    if n_terminals < 1:
        raise MalformedStreamError("terminal count must be >= 1")
    if n_words is None:
        n_words = n_terminals
    builder = _Builder(n_terminals, n_words)
    append = builder.append
    # Substitution cascades recurse; headroom is raised process-wide (never
    # restored: concurrent inferences on worker threads share the limit).
    if sys.getrecursionlimit() < 20000:
        sys.setrecursionlimit(20000)
    for code in symbols:
        if not 0 <= code < n_terminals:
            raise MalformedStreamError(f"code {code} out of range (N={n_terminals})")
        append(code)
    return builder.finalize()


def parents_first(grammar: Grammar) -> Grammar:
    """`grammar` with its rules renumbered parents first.

    The root stays rule 0, and every rule id in rule i's body is greater
    than i; the expansion is unchanged. Raises GrammarError for an
    undefined, cyclic or unreachable rule.
    """
    n = grammar.n_terminals
    rules = grammar.rules
    if not rules:
        raise GrammarError("grammar has no rules")
    in_edges = dict.fromkeys(range(n, n + len(rules)), 0)
    try:
        for body in rules:
            for sym in body:
                if sym >= n:
                    in_edges[sym] += 1
    except KeyError as exc:
        raise GrammarError(f"dangling rule id {exc.args[0]}") from None
    order = _parents_first_order(n, n, in_edges, lambda rid: rules[rid - n])
    number = {rid: n + i for i, rid in enumerate(order)}
    return Grammar(
        n,
        grammar.n_words,
        [[number[v] if v >= n else v for v in rules[rid - n]] for rid in order],
    )


def _parents_first_order(
    root: int, n: int, in_edges: dict[int, int], body: Callable[[int], list[int]]
) -> list[int]:
    """Rule ids in Kahn's order from `root`, each after every rule that
    references it.

    `in_edges` holds every rule's reference count and is used up. Bodies,
    from `body`, are read in that order, once each, and a rule is placed
    when the last reference to it has been read.
    """
    order = [root]
    if not in_edges[root]:
        for rid in order:
            for sym in body(rid):
                if sym >= n:
                    left = in_edges[sym] - 1
                    in_edges[sym] = left
                    if not left:
                        order.append(sym)
    if in_edges[root] or len(order) != len(in_edges):
        raise GrammarError("grammar graph is cyclic or has unreachable rules")
    return order


def expand(grammar: Grammar) -> list[int]:
    """Depth-first left-to-right substitution of rule ids, root first."""
    n = grammar.n_terminals
    rules = grammar.rules
    out: list[int] = []
    if not rules:
        raise GrammarError("grammar has no rules")
    stack: list[tuple[list[int], int]] = [(rules[0], 0)]
    while stack:
        body, i = stack[-1]
        while i < len(body):
            sym = body[i]
            if sym < n:
                out.append(sym)
                i += 1
            else:
                index = sym - n
                if index >= len(rules):
                    raise GrammarError(f"dangling rule id {sym}")
                if len(stack) > len(rules):
                    raise GrammarError("rule reference cycle")
                stack[-1] = (body, i + 1)
                stack.append((rules[index], 0))
                break
        else:
            stack.pop()
    return out


def grammar_stats(grammar: Grammar) -> tuple[int, int, int]:
    """(rule count, total symbols across bodies, max rule depth)."""
    n = grammar.n_terminals
    rules = parents_first(grammar).rules
    # parents first: each rule's children have their depth when it is reached
    depth = [0] * len(rules)
    for index in range(len(rules) - 1, -1, -1):
        depth[index] = 1 + max(
            (depth[sym - n] for sym in rules[index] if sym >= n), default=0
        )
    return len(rules), sum(map(len, rules)), max(depth)


def rule_reference_counts(grammar: Grammar) -> dict[int, int]:
    """How often each rule id is referenced across all bodies."""
    counts = {grammar.n_terminals + i: 0 for i in range(len(grammar.rules))}
    for body in grammar.rules:
        for sym in body:
            if sym >= grammar.n_terminals:
                counts[sym] += 1
    return counts


def duplicate_digrams(grammar: Grammar) -> list[tuple[int, int]]:
    """Digram-uniqueness violations, for invariant scans.

    Pairs containing separators are exempt, as are immediately overlapping
    repeats of the same pair (``a a a``) which online inference cannot
    replace.
    """
    seen: set[tuple[int, int]] = set()
    violations = []
    for body in grammar.rules:
        previous = None
        for i in range(len(body) - 1):
            pair = (body[i], body[i + 1])
            if grammar.is_separator(pair[0]) or grammar.is_separator(pair[1]):
                previous = None
                continue
            if pair == previous:
                previous = None  # overlap consumed; a third repeat is distinct
                continue
            if pair in seen:
                violations.append(pair)
            seen.add(pair)
            previous = pair
    return violations
