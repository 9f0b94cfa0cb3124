"""The benchmark's tracer wraps tadoc functions by name (`perfbench/spans.py`).

`Tracer.install` fails on a name that no longer exists, and then
`perfbench/run.py --trace 1` cannot run; these tests catch that here.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib
import sys

import tadoc.cli  # noqa: F401  (install wraps the modules the CLI imports)

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_in_tadoc():
    spans = _load_spans()
    missing = [
        f"{module}.{function}"
        for module, function in spans.TARGETS
        if not callable(
            getattr(importlib.import_module(f"tadoc.{module}"), function, None)
        )
    ]
    assert missing == []


def test_tracer_installs_and_restores_every_target():
    spans = _load_spans()
    originals = {
        (module, function): getattr(importlib.import_module(f"tadoc.{module}"), function)
        for module, function in spans.TARGETS
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module, function), original in originals.items():
            wrapped = getattr(importlib.import_module(f"tadoc.{module}"), function)
            assert wrapped is not original, f"{module}.{function}"
    finally:
        tracer.uninstall()
    for (module, function), original in originals.items():
        assert getattr(importlib.import_module(f"tadoc.{module}"), function) is original


# the span that each task's kernel records; word count runs preorder
KERNEL_SPANS = {
    "word_count": "kernels.word_count_preorder",
    "sort": "kernels.sort_words",
    "inverted_index": "kernels.inverted_index",
    "term_vector": "kernels.term_vector",
    "sequence_count": "kernels.sequence_count",
    "ranked_inverted_index": "kernels.ranked_inverted_index",
    "tfidf": "kernels.tfidf",
}


def test_every_analyze_job_records_its_layer_spans(capsys, tmp_path):
    """The per-layer rows of `perfbench/run.py --trace 1` come from these
    spans; a job that calls a step the tracer cannot see reads zero there."""
    from tadoc import cli

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "f0.txt").write_text("a b c a b d a b c a b d a b a\n")
    (corpus / "f1.txt").write_text("the quick brown fox a b\n")
    container = str(tmp_path / "c.tdoc")
    assert cli.main(["compress", str(corpus), "--out", container]) == 0
    assert set(KERNEL_SPANS) == set(cli.TASK_NAMES.values())
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, task in cli.TASK_NAMES.items():
            tracer.begin_op(0, task)
            argv = ["analyze", container, name, "--variant", "auto", "--workers", "1"]
            assert cli.main(argv) == 0, task
    finally:
        tracer.uninstall()
    capsys.readouterr()
    recorded = {task: set() for task in KERNEL_SPANS}
    for span in tracer.spans:
        recorded[tracer.ops[span.op][1]].add(span.name)
    for task, names in recorded.items():
        expected = {
            "container.read_container", "dag.load_merge_graph",
            KERNEL_SPANS[task], "cli._emit",
        }
        assert expected <= names, task


def test_benchmark_dag_counts_are_rule_counts():
    """`perfbench/run.py --trace 1` reports `len(dag.nodes)` of the loaded
    DAG and of `coarsen(dag, 100)` as its `dag.nodes` and `dag.coarse_nodes`
    rows: one per rule."""
    import random

    from conftest import random_corpus, repetitive_corpus
    from tadoc.container import read_container, write_container
    from tadoc.corpus import encode_corpus
    from tadoc.dag import coarsen, load_merge_graph
    from tadoc.sequitur import infer_grammar

    corpora = [random_corpus(random.Random(seed)) for seed in range(5)]
    corpora.append(repetitive_corpus(3, 20_000))
    for files in corpora:
        dictionary, encoded = encode_corpus(files)
        grammar = infer_grammar(
            encoded.symbols, dictionary.n_total, dictionary.word_count
        )
        blob = write_container(dictionary, grammar, encoded.file_table)
        loaded = load_merge_graph(read_container(blob)[1])
        assert len(loaded.nodes) == len(loaded.rules) == len(grammar.rules)
        coarse = coarsen(loaded, 100)
        assert len(coarse.nodes) == len(coarse.rules) >= 1
