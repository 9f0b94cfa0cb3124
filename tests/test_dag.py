import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_dag, random_corpus
from tadoc import kernels
from tadoc.corpus import encode_corpus
from tadoc.dag import coarsen, load_merge_graph
from tadoc.sequitur import Grammar, GrammarError, expand, expansions, infer_grammar


REF_FILES = [("f0", "a b c a b d a b c a b d a b a")]


def test_the_loaded_dag_is_the_checked_grammar():
    rng = random.Random(12)
    for _ in range(20):
        dictionary, encoded = encode_corpus(random_corpus(rng))
        grammar = infer_grammar(
            encoded.symbols, dictionary.n_total, dictionary.word_count
        )
        dag = load_merge_graph(grammar)
        assert isinstance(dag, Grammar)
        assert dag.rules is grammar.rules
        assert (dag.n_terminals, dag.n_words) == (grammar.n_terminals, grammar.n_words)
        assert expand(dag) == encoded.symbols
        # `perfbench/run.py` counts rules as len(dag.nodes)
        assert dag.nodes == dict(enumerate(grammar.rules, grammar.n_terminals))


def test_merged_tables_on_reference_grammar():
    # the paper's merged table of a rule is its body counted: words by code,
    # child rules by multiplicity
    dictionary, encoded, dag = build_dag(REF_FILES)
    n = dag.n_terminals
    assert len(dag.rules) == 3
    (pair_id,) = [rid for rid, body in enumerate(dag.rules, n) if body == [0, 1]]
    (mid_id,) = {n + 1, n + 2} - {pair_id}
    # root: a * 1 plus two children (one referenced twice, one once) and the
    # separator
    assert Counter(dag.body(n)) == {mid_id: 2, pair_id: 1, 0: 1, dag.n_words: 1}
    assert Counter(dag.body(mid_id)) == {pair_id: 2, 2: 1, 3: 1}
    assert [dag.lengths[rid] for rid in (n, mid_id, pair_id)] == [15, 6, 2]
    # root body is [mid, mid, pair, a, separator]: one segment before the separator
    assert dag.segments == [(0, 4)]


def test_single_rule_loc_table():
    grammar = Grammar(2, 2, [[0, 0, 1]])
    dag = load_merge_graph(grammar)
    assert (dag.rules, dag.total_tokens) == ([[0, 0, 1]], 3)
    assert dag.segments == [(0, 3)]


def test_segments_split_at_every_separator_wherever_it_sits():
    n_words, n = 2, 5  # separator codes 2, 3 and 4
    roots = ([0, 2, 1, 3, 0, 4], [2, 3, 4], [0, 4, 1, 3, 0, 2], [1, 3, 1, 2, 0, 4])
    for root in roots:
        dag = load_merge_graph(Grammar(n, n_words, [root]))
        ends = [i for i, sym in enumerate(root) if n_words <= sym < n]
        assert dag.segments == list(zip([0] + [end + 1 for end in ends], ends)), root


def test_each_separator_must_appear_once_in_the_root():
    n_words, n = 2, 5  # separator codes 2, 3 and 4
    for root in ([0, 3, 3, 1, 2, 0, 4], [0, 2, 1, 4], [2, 3, 4, 4], [0, 1]):
        with pytest.raises(GrammarError, match="exactly once"):
            load_merge_graph(Grammar(n, n_words, [root]))
    # a long root is counted by Counter, a short one symbol by symbol
    for copies in (1, 9):
        root = [0, 1] * copies + [2, 3, 2, 4]
        with pytest.raises(GrammarError, match="exactly once"):
            load_merge_graph(Grammar(n, n_words, [root]))


def test_separators_outside_the_root_are_rejected():
    n_words, n = 2, 4  # separator codes 2 and 3
    for body in ([2, 0, 1, 3], [0, 1] * 9 + [3]):
        grammar = Grammar(n, n_words, [[0, n + 1, 1, 2, 3], body])
        with pytest.raises(GrammarError, match="outside the root"):
            load_merge_graph(grammar)


def test_negative_symbols_are_rejected():
    # -1 would otherwise be counted as a word and read as the last one
    with pytest.raises(GrammarError, match="negative symbol -1 in rule 4"):
        load_merge_graph(Grammar(4, 3, [[-1, 0, 3]]))
    n_words, n = 2, 3  # separator code 2
    # in the root and in a rule, short bodies symbol by symbol, long by Counter
    for body in ([0, -2], [0, 1] * 9 + [-2]):
        for rules, rid in (([body + [2]], n), ([[n + 1, 2], body], n + 1)):
            with pytest.raises(GrammarError, match=f"negative symbol -2 in rule {rid}"):
                load_merge_graph(Grammar(n, n_words, rules))


def test_coarsen_inlines_everything_small():
    dictionary, encoded, dag = build_dag(REF_FILES)
    flat = coarsen(dag, threshold=100)
    (root,) = flat.rules
    assert len(root) == 16  # 15 words + 1 separator
    assert [s for s in root if s < flat.n_words] == encoded.symbols[:-1]
    assert flat.segments == [(0, 15)]


def test_coarsen_zero_threshold_is_identity():
    rng = random.Random(13)
    dictionary, encoded, dag = build_dag(random_corpus(rng))
    same = coarsen(dag, threshold=0)
    assert same.rules == dag.rules


def test_coarsen_preserves_expansion():
    rng = random.Random(14)
    for _ in range(30):
        dictionary, encoded, dag = build_dag(random_corpus(rng))
        reference = expand(dag)
        for threshold in (2, 5, 40, 10_000):
            squeezed = coarsen(dag, threshold)
            assert expand(squeezed) == reference
            assert all(len(body) >= threshold for body in squeezed.rules[1:])


def test_frequency_conservation():
    rng = random.Random(15)
    for _ in range(30):
        dictionary, encoded, dag = build_dag(random_corpus(rng))
        # each body counted times its rule's frequency, parents first
        counts = kernels.word_count_preorder(dag, dictionary)
        assert sum(counts.values()) == encoded.total_tokens
        assert dag.total_tokens == encoded.total_tokens


@st.composite
def parents_first_grammars(draw):
    """Small grammars that load: rules stored parents first, every rule but
    the root referenced, each separator once in the root, the last at its end."""
    n_words = draw(st.integers(1, 5))
    n = n_words + draw(st.integers(0, 3))
    n_rules = draw(st.integers(1, 6))
    rules = []
    for index in range(n_rules):
        symbols = st.integers(0, n_words - 1)
        if index + 1 < n_rules:
            symbols |= st.integers(n + index + 1, n + n_rules - 1)
        rules.append(draw(st.lists(symbols, max_size=4)))
    for index in range(1, n_rules):
        if not any(n + index in body for body in rules[:index]):
            parent = rules[draw(st.integers(0, index - 1))]
            parent.insert(draw(st.integers(0, len(parent))), n + index)
    separators = draw(st.permutations(range(n_words, n)))
    root = rules[0]
    for code in separators[:-1]:
        root.insert(draw(st.integers(0, len(root))), code)
    root.extend(separators[-1:])
    return Grammar(n, n_words, rules)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(parents_first_grammars())
def test_load_counts_the_words_of_the_expansion(grammar):
    dag = load_merge_graph(grammar)
    symbols = expand(grammar)
    assert dag.total_tokens == sum(sym < grammar.n_words for sym in symbols)
    n = grammar.n_terminals
    # a rule other than the root holds no separator: its expansion is all words
    memo = expansions(grammar.rules, n, cap=10**9)
    for rid in range(n + 1, n + len(grammar.rules)):
        assert dag.lengths[rid] == len(memo[rid])
    separators = grammar.n_terminals - grammar.n_words
    if separators:
        assert dag.file_count == separators
