import random
from collections import Counter

import pytest

from conftest import build_dag, random_corpus
from tadoc.container import ContainerHeader
from tadoc.corpus import CorpusError, FileEntry
from tadoc.dag import (
    coarsen,
    extract_features,
    load_merge_graph,
    node_frequencies,
    total_tokens,
)
from tadoc.sequitur import Grammar, expand


REF_FILES = [("f0", "a b c a b d a b c a b d a b a")]


def dag_to_grammar(dag):
    bodies = [dag.nodes[rid].elements for rid in sorted(dag.nodes)]
    return Grammar(dag.n_terminals, dag.n_words, bodies)


def test_merged_tables_on_reference_grammar():
    dictionary, encoded, dag = build_dag(REF_FILES)
    root = dag.nodes[dag.root_id]
    # root: a * 1 plus two children (one referenced twice, one once);
    # the separator is excluded from the terminal counts.
    assert dict(root.term_counts) == {0: 1}
    assert sorted(root.child_counts.values()) == [1, 2]
    (pair_id,) = [rid for rid, n in dag.nodes.items() if n.elements == [0, 1]]
    (mid_id,) = [
        rid for rid, n in dag.nodes.items() if rid not in (dag.root_id, pair_id)
    ]
    mid = dag.nodes[mid_id]
    assert dict(mid.term_counts) == {2: 1, 3: 1}
    assert dict(mid.child_counts) == {pair_id: 2}
    assert root.child_counts[mid_id] == 2
    assert root.child_counts[pair_id] == 1
    # root body is [mid, mid, pair, a, separator]: one segment before the separator
    assert dag.segments == [(0, 4)]


def test_single_rule_loc_table():
    grammar = Grammar(2, 2, [[0, 0, 1]])
    dag = load_merge_graph(grammar)
    assert dict(dag.nodes[dag.root_id].term_counts) == {0: 2, 1: 1}
    assert dag.segments == [(0, 3)]


def test_in_edges_match_brute_force_parent_scan():
    rng = random.Random(31)
    for _ in range(40):
        dictionary, encoded, dag = build_dag(random_corpus(rng))
        recount: Counter = Counter()
        for node in dag.nodes.values():
            for sym in node.elements:
                if dag.is_rule(sym):
                    recount[sym] += 1
        for rid, node in dag.nodes.items():
            assert node.in_edges == recount.get(rid, 0)
        # merged view loses only order
        for node in dag.nodes.values():
            ordered = Counter(
                sym for sym in node.elements if dag.is_rule(sym)
            )
            assert ordered == node.child_counts


def test_merged_tables_are_counts_in_first_seen_order():
    rng = random.Random(33)
    n_words, n = 6, 7  # one separator code
    for root_length in (3, 16, 17, 200):
        rules = [
            [rng.randrange(n_words) for _ in range(length)] for length in (2, 16, 17, 40)
        ]
        root = [
            rng.choice([rng.randrange(n_words), n + rng.randrange(1, 5)])
            for _ in range(root_length)
        ]
        root += [n + index for index in range(1, 5)] + [n_words]
        dag = load_merge_graph(Grammar(n, n_words, [root] + rules))
        for index, body in enumerate([root] + rules):
            node = dag.nodes[n + index]
            counts = list(Counter(body).items())
            words = [(sym, c) for sym, c in counts if sym < n_words]
            children = [(sym, c) for sym, c in counts if sym >= n]
            assert list(node.term_counts.items()) == words
            assert list(node.child_counts.items()) == children


def test_coarsen_inlines_everything_small():
    dictionary, encoded, dag = build_dag(REF_FILES)
    flat = coarsen(dag, threshold=100)
    assert len(flat.nodes) == 1
    root = flat.nodes[flat.root_id]
    assert len(root.elements) == 16  # 15 words + 1 separator
    assert [s for s in root.elements if s < flat.n_words] == encoded.symbols[:-1]
    assert flat.segments == [(0, 15)]


def test_coarsen_zero_threshold_is_identity():
    rng = random.Random(13)
    dictionary, encoded, dag = build_dag(random_corpus(rng))
    same = coarsen(dag, threshold=0)
    assert {r: n.elements for r, n in same.nodes.items()} == {
        r: n.elements for r, n in dag.nodes.items()
    }


def test_coarsen_preserves_expansion():
    rng = random.Random(14)
    for _ in range(30):
        dictionary, encoded, dag = build_dag(random_corpus(rng))
        reference = expand(dag_to_grammar(dag))
        for threshold in (2, 5, 40, 10_000):
            squeezed = coarsen(dag, threshold)
            assert expand(dag_to_grammar(squeezed)) == reference
            for rid, node in squeezed.nodes.items():
                if rid != squeezed.root_id:
                    assert len(node.elements) >= threshold


def test_frequency_conservation():
    rng = random.Random(15)
    for _ in range(30):
        dictionary, encoded, dag = build_dag(random_corpus(rng))
        freq = node_frequencies(dag)
        assert freq[dag.root_id] == 1
        total = sum(
            freq[rid] * sum(node.term_counts.values())
            for rid, node in dag.nodes.items()
        )
        assert total == encoded.total_tokens
        assert total_tokens(dag) == encoded.total_tokens


def test_extract_features_from_graph():
    dictionary, encoded, dag = build_dag(REF_FILES)
    features = extract_features(dag)
    assert features.file_count == 1
    assert features.total_tokens == 15
    assert features.avg_file_tokens == 15
    assert features.vocab_size == 4


def test_extract_features_header_passthrough():
    header = ContainerHeader(
        version=1,
        deflate=True,
        n_terminals=6_370_441,
        word_count=6_370_437,
        file_table=[FileEntry(f"f{i}", 10, 6_370_437 + i) for i in range(4)],
        total_tokens=40,
        vocab_size=6_370_437,
        rule_count=2_095_573,
        container_size=123,
    )
    features = extract_features(None, header)
    assert features.file_count == 4
    assert features.vocab_size == 6_370_437
    assert features.rule_count == 2_095_573
    assert features.container_size == 123


def test_extract_features_rejects_empty_file_table():
    header = ContainerHeader(
        version=1, deflate=False, n_terminals=1, word_count=1,
        file_table=[], total_tokens=0, vocab_size=1, rule_count=1,
    )
    with pytest.raises(CorpusError):
        extract_features(None, header)
