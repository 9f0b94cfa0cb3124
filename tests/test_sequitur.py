import gc
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    duplicate_digrams,
    pooled_stream,
    random_corpus,
    random_stream,
    rule_reference_counts,
)
from tadoc.corpus import MalformedStreamError, encode_corpus
from tadoc.sequitur import (
    EXPANSION_CAP,
    Grammar,
    GrammarError,
    expand,
    expansions,
    grammar_stats,
    infer_grammar,
    parents_first,
)


def canonical(grammar: Grammar):
    """Bodies with rule ids renamed by first appearance in a root-first walk."""
    mapping = {grammar.root_id: 0}
    order = [grammar.root_id]
    i = 0
    while i < len(order):
        for sym in grammar.body(order[i]):
            if grammar.is_rule(sym) and sym not in mapping:
                mapping[sym] = len(mapping)
                order.append(sym)
        i += 1
    return [
        [("R", mapping[sym]) if grammar.is_rule(sym) else sym for sym in grammar.body(rid)]
        for rid in order
    ]


def test_reference_grammar_structure():
    stream = [0, 1, 2, 0, 1, 3, 0, 1, 2, 0, 1, 3, 0, 1, 0]
    grammar = infer_grammar(stream, 4)
    assert expand(grammar) == stream
    # root -> A A B a; A -> B c B d; B -> a b  (modulo numbering)
    assert canonical(grammar) == [
        [("R", 1), ("R", 1), ("R", 2), 0],
        [("R", 2), 2, ("R", 2), 3],
        [0, 1],
    ]


def test_single_symbol_stream():
    grammar = infer_grammar([0], 1)
    assert grammar.rules == [[0]]
    assert expand(grammar) == [0]


def test_out_of_range_code():
    with pytest.raises(MalformedStreamError):
        infer_grammar([0, 5], 5)
    with pytest.raises(MalformedStreamError):
        infer_grammar([0], 0)


def test_round_trip_and_invariants_fuzz():
    rng = random.Random(99)
    for trial in range(300):
        stream, n = random_stream(rng)
        grammar = infer_grammar(stream, n)
        assert expand(grammar) == stream, trial
        assert duplicate_digrams(grammar) == [], trial
        for rid, count in rule_reference_counts(grammar).items():
            if rid != grammar.root_id:
                assert count >= 2, (trial, rid)


def test_separators_stay_in_root():
    rng = random.Random(5)
    for _ in range(40):
        files = random_corpus(rng)
        dictionary, encoded = encode_corpus(files)
        grammar = infer_grammar(
            encoded.symbols, dictionary.n_total, dictionary.word_count
        )
        root = grammar.body(grammar.root_id)
        for code in range(dictionary.word_count, dictionary.n_total):
            assert root.count(code) == 1
        for body in grammar.rules[1:]:
            assert not any(grammar.is_separator(sym) for sym in body)


def test_expand_single_indirection():
    grammar = Grammar(5, 5, [[6], [0, 1]])
    assert expand(grammar) == [0, 1]


def test_expand_dangling_rule():
    for grammar in (Grammar(5, 5, [[9]]), Grammar(4, 4, [[5], [0, 9]]), Grammar(4, 4, [[0, 7]])):
        with pytest.raises(GrammarError, match="dangling"):
            expand(grammar)


def test_expand_negative_symbol():
    for rules in ([[-1, 0, 3]], [[5, 0], [0, -1]], [[5, 5], [-5, 1]]):
        with pytest.raises(GrammarError, match="negative"):
            expand(Grammar(4, 3, rules))


def reference_expand(grammar: Grammar, rid: int | None = None) -> list[int]:
    """What rule `rid` (the root by default) derives, by plain recursion;
    GrammarError for a negative or undefined symbol or a cycle on the way."""
    n = grammar.n_terminals
    out: list[int] = []

    def walk(rid: int, path: frozenset) -> None:
        if rid in path:
            raise GrammarError("cycle")
        for sym in grammar.body(rid):
            if sym < 0:
                raise GrammarError("negative")
            if sym < n:
                out.append(sym)
            else:
                walk(sym, path | {rid})

    walk(grammar.root_id if rid is None else rid, frozenset())
    return out


def outcome(fn, grammar: Grammar):
    try:
        return fn(grammar)
    except GrammarError:
        return GrammarError


def shuffled(grammar: Grammar, rng: random.Random) -> Grammar:
    """`grammar` with its rules other than the root stored in random order."""
    n = grammar.n_terminals
    order = [0] + rng.sample(range(1, len(grammar.rules)), len(grammar.rules) - 1)
    number = {n + old: n + new for new, old in enumerate(order)}
    rules = [[number.get(sym, sym) for sym in grammar.rules[old]] for old in order]
    return Grammar(n, grammar.n_words, rules)


def assert_memo_matches_reference(grammar: Grammar, cap: int) -> None:
    """Each entry is the rule's expansion or None; with parents first, it
    is None exactly for the root and the rules over the cap."""
    memo = expansions(grammar.rules, grammar.n_terminals, cap)
    assert memo[: grammar.n_terminals] == [(code,) for code in range(grammar.n_terminals)]
    assert memo[grammar.root_id] is None
    exact = is_parents_first(grammar)
    for rid in range(grammar.root_id + 1, len(memo)):
        words = tuple(reference_expand(grammar, rid))
        if len(words) > cap:
            assert memo[rid] is None, rid
        elif exact:
            assert memo[rid] == words, rid
        else:
            assert memo[rid] in (None, words), rid


def test_expand_matches_the_reference_on_inferred_grammars():
    rng = random.Random(15)
    for trial in range(300):
        if trial % 2:
            stream, n = random_stream(rng)
            n_words = n
        else:
            stream, n, n_words = pooled_stream(rng)
        grammar = infer_grammar(stream, n, n_words)
        assert expand(grammar) == reference_expand(grammar) == stream, trial
        assert_memo_matches_reference(grammar, rng.choice((2, 5, EXPANSION_CAP)))
        # not parents first: rules a child of theirs follows have no entry,
        # so their users are walked
        if len(grammar.rules) > 2:
            renumbered = shuffled(grammar, rng)
            assert expand(renumbered) == reference_expand(renumbered) == stream, trial
            assert_memo_matches_reference(renumbered, EXPANSION_CAP)


def test_expand_walks_rules_over_the_cap():
    rng = random.Random(16)
    over = EXPANSION_CAP + 40
    block = [rng.randrange(1000) for _ in range(over)]
    short = [rng.randrange(1000) for _ in range(5)]
    stream = block + short + [1000] + short + block + block + [1001] + short
    grammar = infer_grammar(stream, 1002, 1000)
    memo = expansions(grammar.rules, grammar.n_terminals, EXPANSION_CAP)
    root = grammar.rules[0]
    rules = [sym for sym in root if sym >= grammar.n_terminals]
    # the root mixes terminals, rules with an entry and rules over the cap
    assert any(sym < grammar.n_terminals for sym in root)
    assert any(memo[sym] is not None for sym in rules)
    assert any(memo[sym] is None for sym in rules)
    assert expand(grammar) == reference_expand(grammar) == stream
    renumbered = shuffled(grammar, rng)
    assert expand(renumbered) == reference_expand(renumbered) == stream


def test_expand_mixed_hand_built_root():
    cap = EXPANSION_CAP
    # 5: a body longer than the cap; 6: two words; 7: a body within the cap
    # of 2 * cap words; 8: a rule over the cap through its children
    rules = [
        [5, 2, 6, 7, 0, 8, 6, 5],
        [0] * (cap + 1),
        [0, 1],
        [6] * cap,
        [5, 6],
    ]
    grammar = Grammar(4, 3, rules)
    memo = expansions(rules, 4, cap)
    assert memo[5] is None and memo[6] == (0, 1) and memo[7] is None and memo[8] is None
    assert expand(grammar) == reference_expand(grammar)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_expand_raises_where_the_reference_does(rng):
    # an inferred grammar with a few symbols replaced: a dangling id, a
    # negative code, or a reference to any rule, which may close a cycle
    # or break parents-first order
    stream, n, n_words = pooled_stream(rng, max_sentences=10)
    grammar = infer_grammar(stream, n, n_words)
    rules = [list(body) for body in grammar.rules]
    end = n + len(rules)
    for _ in range(rng.randint(1, 3)):
        body = rng.choice(rules)
        if body:
            body[rng.randrange(len(body))] = rng.choice(
                (end + rng.randrange(3), -1 - rng.randrange(end), rng.randrange(n, end))
            )
    mutated = Grammar(n, n_words, rules)
    assert outcome(expand, mutated) == outcome(reference_expand, mutated)


def test_expand_reference_cycle():
    for rules in ([[4]], [[5], [6], [5]], [[5, 0], [0, 6], [1, 5]]):
        with pytest.raises(GrammarError, match="cycle"):
            expand(Grammar(4, 4, rules))


def test_stats_reference_grammar():
    grammar = infer_grammar([0, 1, 2, 0, 1, 3, 0, 1, 2, 0, 1, 3, 0, 1, 0], 4)
    rules, symbols, depth = grammar_stats(grammar)
    assert rules == 3
    assert symbols == 4 + 4 + 2
    assert depth == 3


def test_stats_single_rule():
    grammar = Grammar(3, 3, [[0, 1, 2, 0]])
    assert grammar_stats(grammar) == (1, 4, 1)


def brute_depth(grammar: Grammar, rid: int) -> int:
    children = [sym for sym in grammar.body(rid) if grammar.is_rule(sym)]
    if not children:
        return 1
    return 1 + max(brute_depth(grammar, child) for child in children)


def test_stats_fuzz_against_recount():
    rng = random.Random(3)
    for _ in range(50):
        stream, n = random_stream(rng, max_len=300)
        grammar = infer_grammar(stream, n)
        rules, symbols, depth = grammar_stats(grammar)
        assert rules == len(grammar.rules)
        assert symbols == sum(len(body) for body in grammar.rules)
        assert depth == brute_depth(grammar, grammar.root_id)


def test_compression_monotonic_on_repetition():
    base = [0, 1, 2, 3, 4, 1, 0]
    for k in (2, 3, 8, 50):
        stream = base * k
        grammar = infer_grammar(stream, 5)
        assert sum(len(body) for body in grammar.rules) < len(stream)


def test_determinism():
    rng = random.Random(11)
    stream, n = random_stream(rng)
    assert infer_grammar(stream, n) == infer_grammar(stream, n)


def is_parents_first(grammar: Grammar) -> bool:
    n = grammar.n_terminals
    return all(
        sym > n + index
        for index, body in enumerate(grammar.rules)
        for sym in body
        if sym >= n
    )


@st.composite
def streams_with_separators(draw):
    """(stream, n_terminals, n_words): words drawn from a small vocabulary,
    repeated blocks included, then each separator code once, in order."""
    n_words = draw(st.integers(1, 6))
    files = draw(st.integers(1, 4))
    stream = []
    for sep in range(n_words, n_words + files):
        block = draw(st.lists(st.integers(0, n_words - 1), max_size=8))
        stream += block * draw(st.integers(0, 6))
        stream += draw(st.lists(st.integers(0, n_words - 1), max_size=20))
        stream.append(sep)
    return stream, n_words + files, n_words


@settings(max_examples=200, deadline=None)
@given(streams_with_separators(), st.randoms(use_true_random=False))
def test_inferred_grammars_are_parents_first(case, rng):
    stream, n, n_words = case
    grammar = infer_grammar(stream, n, n_words)
    assert is_parents_first(grammar)
    assert parents_first(grammar) == grammar
    # any other numbering is put back in an order that expands the same
    stored = shuffled(grammar, rng)
    renumbered = parents_first(stored)
    assert is_parents_first(renumbered)
    assert expand(renumbered) == expand(stored) == stream


def test_parents_first_rejects_cycles_and_dangling_rules():
    for rules in ([[4], [0, 3]], [[4], [5, 0], [4, 1]], [[4, 9], [0, 1]], []):
        with pytest.raises(GrammarError):
            parents_first(Grammar(3, 3, rules))


def _golden_cases(source: str, count: int = 500):
    """(stream, n_terminals, n_words) for `count` seeded streams of one kind."""
    rng = random.Random(source)
    for _ in range(count):
        if source == "random_stream":
            stream, n = random_stream(rng)
            yield stream, n, n
        elif source == "random_corpus":
            dictionary, encoded = encode_corpus(random_corpus(rng))
            yield encoded.symbols, dictionary.n_total, dictionary.word_count
        else:
            yield pooled_stream(rng)


# sha256 over repr(grammar.rules) of every case, in order, as computed by
# the plain make-a-rule-then-inline builder: a change that alters any
# inferred grammar, and so any container byte, fails here.
GOLDEN_GRAMMARS = {
    "random_stream": "37e74b4365ee3885cd69f9cfb7a55f88f98f3b61ecf3f7d9917c891c252165a8",
    "random_corpus": "7fe464cb2041bd2fa84698c176180a03c70c369ff80cbcd7cbe6371b953dbb92",
    "pooled_stream": "393b42ec8e58f2ec3a2b3716731d7be16f90f8f24d6928f11ec1938740851c67",
}


@pytest.mark.parametrize("source", sorted(GOLDEN_GRAMMARS))
def test_golden_grammars(source):
    digest = hashlib.sha256()
    for stream, n, n_words in _golden_cases(source):
        digest.update(repr(infer_grammar(stream, n, n_words).rules).encode())
    assert digest.hexdigest() == GOLDEN_GRAMMARS[source]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_pooled_streams_round_trip_with_invariants(rng):
    stream, n, n_words = pooled_stream(rng)
    grammar = infer_grammar(stream, n, n_words)
    assert expand(grammar) == stream
    assert duplicate_digrams(grammar) == []
    for rid, count in rule_reference_counts(grammar).items():
        if rid != grammar.root_id:
            assert count >= 2, rid
    assert is_parents_first(grammar)


def test_inference_leaves_no_reference_cycle():
    stream, n, n_words = pooled_stream(random.Random(7), max_sentences=60)
    gc.collect()
    gc.disable()
    try:
        grammar = infer_grammar(stream, n, n_words)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert expand(grammar) == stream
