"""One differential property: `compress` -> `analyze --engine cd` prints what
`analyze --engine baseline` prints on the raw files.

Corpora of 2-6 files over a small alphabet repeat phrases within and across
files, so that files share rules. Every task is run in TSV and JSON, at
`--l` 2, 3 and 5 and with `--top-k` unset and 1. The cd engine runs twice:
with `kernels._SHORT_SEGMENT` at its value, under which every file here is
short and counted over its expanded run, and with it at 0, under which
every file that holds a word is pushed down the grammar, all in one walk.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import tempfile
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from tadoc import kernels
from tadoc.cli import TASK_NAMES, main
from tadoc.container import load_container

FLAGS = [
    ["--output", output, "--l", l, *top_k]
    for output, l, top_k in itertools.product(
        ("tsv", "json"), ("2", "3", "5"), ([], ["--top-k", "1"])
    )
]


@st.composite
def shared_phrase_corpora(draw):
    """2-6 files over 2-4 words, each a run of parts: a phrase from a small
    pool, repeated up to 4 times, or 1-3 fresh words."""
    alphabet = ["a", "b", "c", "d"][: draw(st.integers(2, 4))]
    words = st.sampled_from(alphabet)
    phrase = st.lists(words, min_size=2, max_size=6)
    pool = draw(st.lists(phrase, min_size=1, max_size=4))
    part = st.one_of(
        st.tuples(st.sampled_from(pool), st.integers(1, 4)).map(lambda p: p[0] * p[1]),
        st.lists(words, min_size=1, max_size=3),
    )
    files = draw(st.lists(st.lists(part, max_size=10), min_size=2, max_size=6))
    assume(any(files))
    return [" ".join(itertools.chain.from_iterable(parts)) for parts in files]


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(shared_phrase_corpora())
def test_cd_engine_prints_what_the_baseline_prints(texts):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, "corpus")
        os.mkdir(corpus)
        for index, text in enumerate(texts):
            with open(os.path.join(corpus, f"f{index}.txt"), "w") as handle:
                handle.write(text + "\n")
        container = os.path.join(tmp, "corpus.tdoc")
        _stdout(["compress", corpus, "--out", container])
        with open(container, "rb") as handle:
            _, dag, _ = load_container(handle.read())
        empty = [index for index, text in enumerate(texts) if not text]
        assert list(kernels._short_runs(dag)) == list(range(len(texts)))
        with mock.patch.object(kernels, "_SHORT_SEGMENT", 0):
            assert list(kernels._short_runs(dag)) == empty
        for task, flags in itertools.product(TASK_NAMES, FLAGS):
            baseline = ["analyze", corpus, task, "--engine", "baseline", *flags]
            expected = _stdout(baseline)
            assert _stdout(["analyze", container, task, *flags]) == expected
            with mock.patch.object(kernels, "_SHORT_SEGMENT", 0):
                assert _stdout(["analyze", container, task, *flags]) == expected
