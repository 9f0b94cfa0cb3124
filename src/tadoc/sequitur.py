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

Most matches on repetitive text are one sentence growing by a word per
append: the root ends ``... A c``, the digram (A, c) occurred before, and
rule A is used only at those two places. Plain Sequitur makes a rule
R -> A c, puts R at both occurrences and then inlines A, now used once,
into R. `infer_grammar` instead moves the later c to the end of A's body
and drops the earlier one, which is the same grammar with R named A. It
indexes what the long way would: the pairs either side of each use of A,
then a check of (last symbol of A's old body, c), as the inline makes.
The shortcut is taken only where every step it skips would index a fresh
pair and do nothing else: c is not A; c is a word or a rule with other
than two uses (with two, the long way would inline c as well); the
earlier occurrence is not directly followed by the later; the later is at
the root's end; and the symbols before the two occurrences differ. Rule
ids never reach the output, whose rules are numbered by structure, so the
renaming cannot show.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterator
from itertools import chain, count

from .corpus import MalformedStreamError


class GrammarError(ValueError):
    """Structurally invalid grammar (dangling rule id, cycle, ...)."""


class Grammar:
    """A context-free grammar for one symbol stream.

    Codes below ``n_terminals`` are terminals; rule ids are assigned densely
    from ``n_terminals`` upward, root first. Separator codes occupy
    [n_words, n_terminals) and only ever appear in the root body.

    Inferred grammars, containers and the DAG number rules parents first:
    every rule id in rule i's body is greater than i (`parents_first`
    renumbers any acyclic grammar so).

    Two grammars of one class are equal when these three fields are; what
    a subclass adds is derived from them.
    """

    __slots__ = ("n_terminals", "n_words", "rules")

    def __init__(self, n_terminals: int, n_words: int, rules: list[list[int]]):
        self.n_terminals = n_terminals
        self.n_words = n_words
        self.rules = rules

    def __eq__(self, other):
        return other.__class__ is self.__class__ and (
            self.n_terminals, self.n_words, self.rules
        ) == (other.n_terminals, other.n_words, other.rules)

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


def _infer(symbols: list[int], n: int, sep_lo: int) -> Grammar:
    """The grammar for `symbols`, every code already checked to be in [0, n).

    A rule's guard slot holds ``-rid - 1``. The helpers are closures over
    the slot arrays and indexes, which is cheaper than method calls on the
    hot path. They call one another, so `check` is deleted on the way out:
    that breaks the closures' reference cycle, and the arrays go when the
    call returns, not at the next collection.
    """
    val: list[int] = []
    nxt: list[int] = []
    prv: list[int] = []
    free: list[int] = []
    digram_at: dict[tuple[int, int], int] = {}
    guards: dict[int, int] = {}  # rule id -> guard slot
    use_sites: dict[int, set[int]] = {}  # rule id -> slots that reference it
    new_rule_id = count(n).__next__

    def new_rule() -> int:
        rid = new_rule_id()
        guard = new_slot(-rid - 1)
        nxt[guard] = guard
        prv[guard] = guard
        guards[rid] = guard
        use_sites[rid] = set()
        return rid

    def new_slot(value: int) -> int:
        if free:
            slot = free.pop()
            val[slot] = value
        else:
            slot = len(val)
            val.append(value)
            nxt.append(-1)
            prv.append(-1)
        return slot

    def unindex(x: int, dead: tuple[int, ...]) -> None:
        """Drop the digram starting at slot x if the index points there.

        ``dead`` holds the slots the caller is about to delete. A run like
        ``v v v`` keeps only its first pair indexed (the second overlaps);
        if the indexed pair dies while its overlapping twin survives, the
        entry is transferred to the twin instead of dropped, so the twin
        stays visible to future checks.
        """
        y = nxt[x]
        vx = val[x]
        vy = val[y]
        if vx < 0 or vy < 0 or sep_lo <= vx < n or sep_lo <= vy < n:
            return
        key = (vx, vy)
        if digram_at.get(key) != x:
            return
        if vx == vy:
            w = prv[x]
            if val[w] == vx and w not in dead and x not in dead:
                digram_at[key] = w
                return
            z = nxt[y]
            if val[z] == vx and y not in dead and z not in dead:
                digram_at[key] = y
                return
        del digram_at[key]

    def check(x: int) -> bool:
        """Enforce digram uniqueness for the digram starting at slot x."""
        y = nxt[x]
        a = val[x]
        b = val[y]
        if a < 0 or b < 0 or sep_lo <= a < n or sep_lo <= b < n:
            return False
        key = (a, b)
        m = digram_at.get(key)
        if m is None:
            digram_at[key] = x
            return False
        if m == x:
            return False
        m2 = nxt[m]
        if m2 == x or y == m:
            return False  # overlapping occurrences share a symbol
        pm = prv[m]
        qm = nxt[m2]
        if val[pm] < 0 and pm == qm and pm != root_guard:
            # m spans the entire body of an existing rule: reuse it.
            substitute(x, -val[pm] - 1)
        elif (
            a >= n
            and b != a
            and len(use_sites[a]) == 2  # used at m and x only
            and qm != x
            # The three tests below never failed on thousands of seeded
            # random streams, but no proof rules them out: without them,
            # the skipped steps could do more than index fresh pairs.
            and (b < n or len(use_sites[b]) != 2)
            and nxt[y] == root_guard
            and val[pm] != val[prv[x]]
        ):
            # Grow rule a by b in place (see the module docstring): y
            # moves to the end of a's body, and the b after m goes.
            px = prv[x]
            guard = guards[a]
            last = prv[guard]
            unindex(m2, (m, m2))
            del digram_at[key]
            nxt[x] = root_guard
            prv[root_guard] = x
            nxt[last] = y
            prv[y] = last
            nxt[y] = guard
            prv[guard] = y
            nxt[m] = qm
            prv[qm] = m
            free.append(m2)
            if b >= n:
                use_sites[b].discard(m2)
            v = val[pm]
            if v >= 0 and not sep_lo <= v < n:
                digram_at[(v, a)] = pm
            v = val[px]
            if v >= 0 and not sep_lo <= v < n:
                digram_at[(v, a)] = px
            v = val[qm]
            if v >= 0 and not sep_lo <= v < n:
                digram_at[(a, v)] = m
            check(last)
            return True
        else:
            rid = new_rule()
            guard = guards[rid]
            s1 = new_slot(a)
            s2 = new_slot(b)
            nxt[guard] = s1
            prv[s1] = guard
            nxt[s1] = s2
            prv[s2] = s1
            nxt[s2] = guard
            prv[guard] = s2
            if a >= n:
                use_sites[a].add(s1)
            if b >= n:
                use_sites[b].add(s2)
            digram_at[key] = s1
            substitute(m, rid)
            substitute(x, rid)
        # Reference counts of a and b each dropped; enforce rule utility.
        for v in (a, b) if a != b else (a,):
            if v >= n:
                sites = use_sites.get(v)
                if sites is not None and len(sites) == 1:
                    inline(v)
        return True

    def substitute(pos: int, rid: int) -> None:
        """Replace the digram starting at slot pos with a reference to rid."""
        second = nxt[pos]
        left = prv[pos]
        right = nxt[second]
        dead = (pos, second)
        unindex(left, dead)
        unindex(pos, dead)
        unindex(second, dead)
        for slot in dead:
            v = val[slot]
            if v >= n:
                use_sites[v].discard(slot)
            free.append(slot)
        slot = free.pop()  # second's slot, freed just above
        val[slot] = rid
        nxt[left] = slot
        prv[slot] = left
        nxt[slot] = right
        prv[right] = slot
        use_sites[rid].add(slot)
        if not check(left):
            check(slot)

    def inline(rid: int) -> None:
        """Splice the body of a once-referenced rule into its only use."""
        (use,) = use_sites.pop(rid)
        guard = guards.pop(rid)
        first = nxt[guard]
        last = prv[guard]
        left = prv[use]
        right = nxt[use]
        unindex(left, (use,))
        unindex(use, (use,))
        free.append(use)
        free.append(guard)
        nxt[left] = first
        prv[first] = left
        nxt[last] = right
        prv[right] = last
        if not check(left):
            check(last)

    root = new_rule()
    root_guard = guards[root]
    try:
        # new_slot written out: the call cost about 7% of `repetitive` ingest
        for code in symbols:
            last = prv[root_guard]
            if free:
                slot = free.pop()
                val[slot] = code
            else:
                slot = len(val)
                val.append(code)
                nxt.append(-1)
                prv.append(-1)
            nxt[last] = slot
            prv[slot] = last
            nxt[slot] = root_guard
            prv[root_guard] = slot
            check(last)
    finally:
        del check
    return _finalize(root, n, sep_lo, val, nxt, guards, use_sites)


def _finalize(
    root: int,
    n: int,
    n_words: int,
    val: list[int],
    nxt: list[int],
    guards: dict[int, int],
    use_sites: dict[int, set[int]],
) -> Grammar:
    """The builder's live rules as a Grammar, numbered parents first.

    Each body is read from the slot arrays once; the rule references and
    their positions are noted on the way, so the ordering and the
    renumbering touch only those.
    """
    bodies: dict[int, list[int]] = {}
    references: dict[int, list[int]] = {}

    def walk(rid: int) -> list[int]:
        guard = guards[rid]
        body = bodies[rid] = []
        children = []
        positions = references[rid] = []
        slot = nxt[guard]
        while slot != guard:
            v = val[slot]
            if v >= n:
                positions.append(len(body))
                children.append(v)
            body.append(v)
            slot = nxt[slot]
        return children

    # a rule's use sites are the references to it in the live bodies
    in_edges = {rid: len(sites) for rid, sites in use_sites.items()}
    order = _parents_first_order(root, n, in_edges, walk)
    number = {rid: n + i for i, rid in enumerate(order)}
    rules = []
    for rid in order:
        body = bodies[rid]
        for i in references[rid]:
            body[i] = number[body[i]]
        rules.append(body)
    return Grammar(n, n_words, rules)


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
    if symbols and (min(symbols) < 0 or max(symbols) >= n_terminals):
        code = next(code for code in symbols if not 0 <= code < n_terminals)
        raise MalformedStreamError(f"code {code} out of range (N={n_terminals})")
    # Substitution cascades recurse. The limit is process-wide, so the one
    # the caller set is restored when the call returns.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20000))
    try:
        return _infer(symbols, n_terminals, n_words)
    finally:
        sys.setrecursionlimit(limit)


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
    or just their rule references, from `body`, are read in that order,
    once each, and a rule is placed when the last reference to it has been
    read.
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


# Rules of at most this many words have a memoized expansion: `expand` adds
# them to its output whole, and short files are counted over them
# (`kernels._short_runs`). Set by measurement (CHANGES.md).
EXPANSION_CAP = 256


def expansions(
    rules: list[list[int]], n_terminals: int, cap: int
) -> list[tuple[int, ...] | None]:
    """By symbol: the codes it expands to, or None where there is no entry.

    Every terminal, separators included, is a 1-tuple. A rule other than
    the root gets the tuple of its expansion when that has at most `cap`
    words. Rules are built from the last to the first, so with parents
    first (see `parents_first`) a rule's children are built before it. The
    root, a body longer than `cap` (not read), a rule over the cap and a
    rule whose body holds a negative or undefined symbol or a rule not yet
    built (not parents first, or cyclic) get None.
    """
    n = n_terminals
    memo: list = list(zip(range(n)))
    memo += [None] * len(rules)
    get = memo.__getitem__
    for rid, body in zip(range(n + len(rules) - 1, n, -1), reversed(rules)):
        if len(body) > cap:
            continue
        # IndexError: an undefined id; TypeError: a symbol without an entry
        try:
            if len(body) == 2:  # most rules: one tuple concatenation
                a, b = body
                if a < 0 or b < 0:
                    continue
                words = get(a) + get(b)
            elif body and min(body) < 0:
                continue
            else:
                words = tuple(chain.from_iterable(map(get, body)))
        except (IndexError, TypeError):
            continue
        if len(words) <= cap:
            memo[rid] = words
    return memo


def expand(grammar: Grammar) -> list[int]:
    """The code stream the grammar derives: rule ids substituted depth-first,
    left to right, from the root.

    Rule expansions come from `expansions`. A body whose every symbol has
    an entry, which on text is usually the root, is added in one C-level
    extend; any other body is walked, its symbols with an entry added
    whole and the others descended into. Raises GrammarError for a
    negative or undefined symbol and for a cycle.
    """
    n = grammar.n_terminals
    rules = grammar.rules
    if not rules:
        raise GrammarError("grammar has no rules")
    memo = expansions(rules, n, EXPANSION_CAP)
    get = memo.__getitem__
    end = len(memo)
    out: list[int] = []
    # the bodies being walked, outermost first, as iterators over the rest
    stack: list[Iterator[int]] = []

    def enter(body: list[int]) -> None:
        """Add `body`'s expansion whole, or push it to be walked; which is
        decided before anything is added."""
        try:
            parts = list(map(get, body)) if min(body, default=0) >= 0 else [None]
        except IndexError:  # an undefined id, which the walk reports
            parts = [None]
        if all(parts):
            out.extend(chain.from_iterable(parts))
        elif len(stack) == len(rules):
            raise GrammarError("rule reference cycle")
        else:
            stack.append(iter(body))

    enter(rules[0])
    while stack:
        for sym in stack[-1]:
            if sym < 0:
                raise GrammarError(f"negative symbol {sym}")
            if sym >= end:
                raise GrammarError(f"dangling rule id {sym}")
            words = memo[sym]
            if words is None:
                enter(rules[sym - n])
                break
            out.extend(words)
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
