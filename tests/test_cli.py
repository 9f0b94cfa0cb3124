import gc
import gzip
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import random_corpus
from tadoc.cli import TASK_NAMES, main
from tadoc.corpus import tokenize
from tadoc.kernels import select_variant

REF_TEXT = "a b c a b d a b c a b d a b a\n"


@pytest.fixture
def corpus_dir(tmp_path):
    directory = tmp_path / "corpus"
    directory.mkdir()
    (directory / "f0.txt").write_text(REF_TEXT)
    (directory / "f1.txt").write_text("the quick brown fox a b\n")
    return directory


@pytest.fixture
def ref_container(tmp_path):
    directory = tmp_path / "ref"
    directory.mkdir()
    (directory / "f0.txt").write_text(REF_TEXT)
    out = tmp_path / "ref.tdoc"
    assert main(["compress", str(directory), "--out", str(out)]) == 0
    return out


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compress_and_word_count_four_lines(capsys, ref_container):
    code, out, err = run(capsys, ["analyze", str(ref_container), "word-count"])
    assert code == 0
    assert out.splitlines() == ["a\t6", "b\t5", "c\t2", "d\t2"]
    assert "variant auto" in err


def test_analyze_deterministic_output(capsys, corpus_dir, tmp_path):
    out_path = tmp_path / "c.tdoc"
    assert main(["compress", str(corpus_dir), "--out", str(out_path)]) == 0
    results = []
    for _ in range(2):
        code, out, _ = run(capsys, ["analyze", str(out_path), "tfidf", "--output", "json"])
        assert code == 0
        results.append(out)
    assert results[0] == results[1]


def test_no_deflate_is_larger_same_results(capsys, corpus_dir, tmp_path):
    small = tmp_path / "small.tdoc"
    large = tmp_path / "large.tdoc"
    assert main(["compress", str(corpus_dir), "--out", str(small)]) == 0
    assert main(["compress", str(corpus_dir), "--out", str(large), "--no-deflate"]) == 0
    assert os.path.getsize(large) > os.path.getsize(small)
    capsys.readouterr()
    _, out_small, _ = run(capsys, ["analyze", str(small), "inverted-index"])
    _, out_large, _ = run(capsys, ["analyze", str(large), "inverted-index"])
    assert out_small == out_large


def test_empty_directory_is_corpus_error(capsys, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run(capsys, ["compress", str(empty), "--out", str(tmp_path / "x.tdoc")])
    assert code == 4
    assert "error" in err


def test_unknown_task_is_usage_error(capsys, ref_container):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", str(ref_container), "word-frequency"])
    assert excinfo.value.code == 2


def test_malformed_container_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.tdoc"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    code, _, err = run(capsys, ["analyze", str(bad), "word-count"])
    assert code == 3


# three files, "a b a b", "c d" and "e": words a..e are codes 0..4, the
# separators 5, 6 and 7, the root is rule 8; a valid grammar is
# root = R9 R9 sep c d sep e sep, R9 = a b
FAULT_FILES = [("f0", "a b a b"), ("f1", "c d"), ("f2", "e")]
FAULT_GRAMMARS = {
    "cyclic": [[9, 9, 5, 2, 3, 6, 4, 7], [0, 9]],
    "back-edge": [[9, 9, 5, 2, 3, 6, 4, 7], [0, 8]],
    "out-of-order": [[10, 5, 2, 3, 6, 4, 7], [0, 1], [9, 9]],
    "unreachable": [[9, 9, 5, 2, 3, 6, 4, 7], [0, 1], [2, 3]],
    "undefined": [[9, 9, 5, 2, 3, 6, 11, 7], [0, 1]],
    "root-tail": [[9, 9, 5, 2, 3, 6, 7, 4], [0, 1]],
    "separator-in-rule": [[9, 9, 10, 4, 7], [0, 1], [5, 2, 3, 6]],
}
VALID_RULES = [[9, 9, 5, 2, 3, 6, 4, 7], [0, 1]]


def fault_container(rules=VALID_RULES, token_counts=None):
    """A container of FAULT_FILES over `rules`, with its CRC32 intact."""
    from tadoc.container import write_container
    from tadoc.corpus import FileEntry, encode_corpus
    from tadoc.sequitur import Grammar

    dictionary, encoded = encode_corpus(FAULT_FILES)
    table = encoded.file_table
    if token_counts is not None:
        table = [FileEntry(e.name, count) for e, count in zip(table, token_counts)]
    grammar = Grammar(dictionary.n_total, dictionary.word_count, rules)
    return write_container(dictionary, grammar, table, False)


def test_container_faults_exit_3(capsys, tmp_path):
    from conftest import reseal
    from tadoc.container import write_container
    from tadoc.corpus import encode_corpus
    from tadoc.sequitur import Grammar, infer_grammar

    dictionary, encoded = encode_corpus([("zz", "qq a b qq"), ("f1", "c d")])
    grammar = infer_grammar(encoded.symbols, dictionary.n_total, dictionary.word_count)
    blob = write_container(dictionary, grammar, encoded.file_table, False)
    rules = [list(body) for body in grammar.rules]
    rules[0][-2:] = rules[0][-1], rules[0][-2]
    moved = Grammar(grammar.n_terminals, grammar.n_words, rules)
    # file f1's token count, in the low-byte plane after the 20-byte header;
    # W is their sum, so only the grammar's expansion disagrees
    tokens = bytearray(blob)
    tokens[16 + 20 + 1] += 1
    cases = {
        "name": (reseal(blob.replace(b"zz", b"\xff\xfe")), True),
        "tokens": (reseal(bytes(tokens)), False),
        "word": (reseal(blob.replace(b"qq", b"\xff\xfe")), False),
        "root": (write_container(dictionary, moved, encoded.file_table, False), False),
        "feature-mismatch": (fault_container(token_counts=[5, 3, 2]), False),
    }
    for case, rules in FAULT_GRAMMARS.items():
        cases[case] = (fault_container(rules), False)
    for case, (data, header_fault) in cases.items():
        path = tmp_path / f"{case}.tdoc"
        path.write_bytes(data)
        code, _, err = run(capsys, ["analyze", str(path), "word-count"])
        assert (code, err.startswith("error: ")) == (3, True), case
        restored = tmp_path / f"{case}-restored"
        code, _, err = run(capsys, ["decompress", str(path), "--out", str(restored)])
        assert (code, err.startswith("error: "), restored.exists()) == (3, True, False), case
        code, _, _ = run(capsys, ["features", str(path)])
        assert code == (3 if header_fault else 0), case


@pytest.mark.parametrize("task", sorted(TASK_NAMES))
def test_separator_inside_a_rule_exits_3(capsys, tmp_path, task):
    # the expansion is the corpus's, but the root holds one separator of three
    path = tmp_path / "c.tdoc"
    path.write_bytes(fault_container(FAULT_GRAMMARS["separator-in-rule"]))
    code, out, err = run(capsys, ["analyze", str(path), task])
    assert (code, out) == (3, "")
    assert err == "error: separator code 5 in rule 10, outside the root\n"


def test_decompress_checks_each_file_token_count(capsys, tmp_path):
    path = tmp_path / "c.tdoc"
    restored = tmp_path / "restored"
    path.write_bytes(fault_container())
    code, _, _ = run(capsys, ["decompress", str(path), "--out", str(restored)])
    assert code == 0
    assert [len((restored / name).read_text().split()) for name, _ in FAULT_FILES] == [
        4, 2, 1
    ]
    # the same sum over the files, so the header and the grammar still agree
    path.write_bytes(fault_container(token_counts=[3, 3, 1]))
    restored = tmp_path / "restored-again"
    code, _, err = run(capsys, ["decompress", str(path), "--out", str(restored)])
    assert (code, err) == (
        3, "error: file 'f0' holds 4 tokens, the file table says 3\n"
    )
    assert not restored.exists()
    # analyze does not read the per-file counts
    code, out, _ = run(capsys, ["analyze", str(path), "term-vector"])
    assert code == 0
    assert out.splitlines()[-1] == "f2\te\t1"


def test_analyze_pauses_the_cyclic_collector(
    capsys, ref_container, tmp_path, monkeypatch
):
    from tadoc import cli

    seen = []
    run_task = cli.run_task

    def recording_run_task(*args):
        seen.append(gc.isenabled())
        return run_task(*args)

    monkeypatch.setattr(cli, "run_task", recording_run_task)
    bad = tmp_path / "bad.tdoc"
    bad.write_bytes(ref_container.read_bytes()[:-1])
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            if enabled:
                gc.enable()
            else:
                gc.disable()
            code, _, _ = run(capsys, ["analyze", str(ref_container), "word-count"])
            assert (code, gc.isenabled()) == (0, enabled)
            code, _, _ = run(capsys, ["analyze", str(bad), "word-count"])
            assert (code, gc.isenabled()) == (3, enabled)
    finally:
        if was_enabled:
            gc.enable()
    assert seen == [False, False]


def test_bench_runs_repeat_r_of_every_engine_before_repeat_r_plus_1(
    capsys, corpus_dir, tmp_path, monkeypatch
):
    from tadoc import cli

    calls = []
    compute = cli._compute

    def recording_compute(engine, *args):
        calls.append(engine)
        return compute(engine, *args)

    monkeypatch.setattr(cli, "_compute", recording_compute)
    code, out, _ = run(capsys, [
        "bench", str(corpus_dir), "word-count", "--repeat", "3",
        "--engines", "gzip,cd,baseline", "--output", "json",
        "--workdir", str(tmp_path / "bench"),
    ])
    assert code == 0
    assert calls == ["gzip", "cd", "baseline"] * 3
    report = json.loads(out)
    assert list(report["engines"]) == ["gzip", "cd", "baseline"]
    assert all(len(engine["runs"]) == 3 for engine in report["engines"].values())


def test_checksum_mismatch_exit_3(capsys, ref_container, tmp_path):
    blob = bytearray(ref_container.read_bytes())
    blob[-1] ^= 0x01
    bad = tmp_path / "bad.tdoc"
    bad.write_bytes(bytes(blob))
    for argv in (["analyze", str(bad), "word-count"], ["features", str(bad)]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, ""), argv
        assert "checksum" in err, argv


def test_features_output(capsys, ref_container):
    code, out, _ = run(capsys, ["features", str(ref_container)])
    assert code == 0
    rows = dict(line.split("\t") for line in out.splitlines())
    assert rows["files"] == "1"
    assert rows["tokens"] == "15"
    assert rows["vocabulary"] == "4"
    assert rows["outer_layer"] == "deflate"
    code, out, _ = run(capsys, ["features", str(ref_container), "--output", "json"])
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["rules"] == 3


def test_features_rows_come_from_the_header(capsys, ref_container):
    size = ref_container.stat().st_size
    code, out, _ = run(capsys, ["features", str(ref_container)])
    assert code == 0
    assert out == (
        "files\t1\ntokens\t15\navg_file_tokens\t15.0\nvocabulary\t4\nrules\t3\n"
        f"container_bytes\t{size}\nouter_layer\tdeflate\n"
    )
    code, out, _ = run(capsys, ["features", str(ref_container), "--output", "json"])
    assert code == 0
    assert out == (
        '{"schema_version": 1, "files": 1, "tokens": 15, "avg_file_tokens": 15.0, '
        f'"vocabulary": 4, "rules": 3, "container_bytes": {size}, '
        '"outer_layer": "deflate"}\n'
    )


def test_features_help_says_only_the_header_is_checked(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["features", "--help"])
    assert excinfo.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "header and file table" in text
    assert "seen only by a grammar load" in text


def test_zero_file_container_exits_3(capsys, tmp_path):
    from conftest import reseal
    from tadoc.container import MAGIC, VERSION, build_payload
    from tadoc.corpus import Dictionary
    from tadoc.sequitur import Grammar

    payload = build_payload(Dictionary(["a"], 0), Grammar(1, 1, [[]]), [])
    empty = tmp_path / "empty.tdoc"
    empty.write_bytes(reseal(MAGIC + bytes([VERSION, 0]) + bytes(10) + payload))
    for argv in (
        ["features", str(empty)],
        ["analyze", str(empty), "word-count"],
        ["analyze", str(empty), "inverted-index"],
        ["decompress", str(empty), "--out", str(tmp_path / "out")],
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, ""), argv
        assert "the file table holds no files" in err, argv
    assert not (tmp_path / "out").exists()


def test_workers_run_every_task_without_recompressing(
    capsys, corpus_dir, tmp_path, monkeypatch
):
    out_path = tmp_path / "c.tdoc"
    assert main(["compress", str(corpus_dir), "--out", str(out_path)]) == 0

    def no_inference(*args):
        raise AssertionError("analyze inferred a grammar")

    monkeypatch.setattr("tadoc.sequitur._infer", no_inference)
    capsys.readouterr()
    # every task logs the choice, though only inverted-index reads it
    log = f"variant auto: {select_variant(2, 21)} (avg_file_tokens=10.5, files=2)\n"
    for task in TASK_NAMES:
        outputs = []
        for workers in ("1", "2"):
            code, out, err = run(capsys, ["analyze", str(out_path), task, "--workers", workers])
            assert (code, err) == (0, log), (task, workers)
            outputs.append(out)
        assert outputs[1] == outputs[0], task


def test_worker_count_below_one_is_usage_error(capsys, ref_container, monkeypatch):
    for flag in ("0", "-1", "abc"):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(ref_container), "word-count", "--workers", flag])
        assert excinfo.value.code == 2, flag
    assert "must be an integer >= 1" in capsys.readouterr().err
    # the environment sets no worker count
    monkeypatch.setenv("TADOC_WORKERS", "0")
    assert main(["analyze", str(ref_container), "word-count"]) == 0


def test_negative_top_k_is_usage_error(capsys, corpus_dir, tmp_path):
    out_path = tmp_path / "c.tdoc"
    assert main(["compress", str(corpus_dir), "--out", str(out_path)]) == 0
    for argv in (
        ["analyze", str(out_path), "term-vector", "--top-k", "-1"],
        ["analyze", str(out_path), "term-vector", "--top-k", "-1", "--workers", "2"],
        ["analyze", str(corpus_dir), "term-vector", "--top-k", "-1", "--engine", "baseline"],
        ["bench", str(corpus_dir), "term-vector", "--top-k", "-1"],
        ["bench", str(corpus_dir), "word-count", "--repeat", "0"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2, argv
    assert "top-k must be >= 0" in capsys.readouterr().err


def test_bad_bench_engines_are_usage_errors(capsys, corpus_dir, tmp_path):
    for engines in ("foo", "", "cd,,cd", "cd,cd", "cd,baseline,foo"):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "bench", str(corpus_dir), "word-count", "--engines", engines,
                "--repeat", "1", "--workdir", str(tmp_path / "bench"),
            ])
        assert excinfo.value.code == 2, engines
    assert "must be distinct names from cd,baseline,gzip" in capsys.readouterr().err


def test_variant_override_and_log(capsys, ref_container):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", str(ref_container), "word-count", "--variant", "preorder-bitmap"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    code, out, err = run(
        capsys, ["analyze", str(ref_container), "word-count", "--variant", "auto"]
    )
    assert code == 0
    assert err == "variant auto: postorder (avg_file_tokens=15.0, files=1)\n"
    assert out.splitlines()[0] == "a\t6"


def test_gzip_engine(capsys, corpus_dir, tmp_path):
    gz = tmp_path / "f0.txt.gz"
    gz.write_bytes(gzip.compress((corpus_dir / "f0.txt").read_bytes()))
    code, out, _ = run(capsys, ["analyze", str(gz), "word-count", "--engine", "gzip"])
    assert code == 0
    assert out.splitlines() == ["a\t6", "b\t5", "c\t2", "d\t2"]


@pytest.mark.parametrize(
    "blob",
    [
        gzip.compress(REF_TEXT.encode())[:-6],  # truncated
        gzip.compress(b"caf\xe9 au lait\n"),  # Latin-1, not UTF-8
        b"\x1f\x8b\x08\x00" + bytes(6) + b"not deflate",  # corrupt body
    ],
    ids=["truncated", "not-utf8", "corrupt"],
)
def test_malformed_gzip_input_is_corpus_error(capsys, tmp_path, blob):
    gz = tmp_path / "f0.txt.gz"
    gz.write_bytes(blob)
    code, out, err = run(capsys, ["analyze", str(gz), "word-count", "--engine", "gzip"])
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and str(gz) in err


def test_baseline_engine_matches_cd(capsys, corpus_dir, tmp_path):
    out_path = tmp_path / "c.tdoc"
    assert main(["compress", str(corpus_dir), "--out", str(out_path)]) == 0
    capsys.readouterr()
    _, cd_out, _ = run(capsys, ["analyze", str(out_path), "term-vector"])
    _, base_out, _ = run(capsys, ["analyze", str(corpus_dir), "term-vector", "--engine", "baseline"])
    assert cd_out == base_out


@pytest.fixture
def wide(tmp_path):
    """(directory, container) of two files sharing 1,500 words: more output
    rows than one emit chunk, and postings in both files."""
    directory = tmp_path / "wide"
    directory.mkdir()
    (directory / "f0.txt").write_text(" ".join([f"w{i}" for i in range(3000)] * 2))
    (directory / "f1.txt").write_text(" ".join(f"w{i}" for i in range(1500, 4500)))
    container = tmp_path / "wide.tdoc"
    assert main(["compress", str(directory), "--out", str(container)]) == 0
    return directory, container


def test_tsv_output_over_several_chunks_matches_baseline(capsys, wide):
    from tadoc import cli

    directory, container = wide
    capsys.readouterr()
    for task, rows in (
        ("term-vector", 6000),
        ("sequence-count", 5998),
        ("ranked-inverted-index", 5998),
        ("tfidf", 6000),
    ):
        code, cd_out, _ = run(capsys, ["analyze", str(container), task])
        assert code == 0
        lines = cd_out.split("\n")
        assert rows > cli._EMIT_ROWS and len(lines) == rows + 1 and lines[-1] == ""
        assert all(line.count("\t") == 2 for line in lines[:-1])
        _, base_out, _ = run(
            capsys, ["analyze", str(directory), task, "--engine", "baseline"]
        )
        assert cd_out == base_out


def test_json_output_matches_baseline(capsys, wide):
    directory, container = wide
    capsys.readouterr()
    for task in TASK_NAMES:
        code, cd_out, _ = run(capsys, ["analyze", str(container), task, "--output", "json"])
        assert code == 0
        _, base_out, _ = run(
            capsys,
            ["analyze", str(directory), task, "--engine", "baseline", "--output", "json"],
        )
        assert cd_out == base_out, task


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """Containers and every task's output are the same bytes under two
    string-hash seeds, so no output follows set or str-hash order."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, text in random_corpus(random.Random(19), max_files=6, max_sentences=30):
        (corpus / f"{name}.txt").write_text(text)
    tadoc = [sys.executable, "-m", "tadoc.cli"]
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        container = tmp_path / f"seed{seed}.tdoc"
        subprocess.run(
            [*tadoc, "compress", str(corpus), "--out", str(container)],
            env=env, check=True, capture_output=True, timeout=60,
        )
        jobs = [
            subprocess.run(
                [*tadoc, "analyze", str(container), task],
                env=env, check=True, capture_output=True, timeout=60,
            ).stdout
            for task in TASK_NAMES
        ]
        outputs.append([container.read_bytes(), *jobs])
    assert all(outputs[0][1:])
    assert outputs[0] == outputs[1]


def test_decompress_round_trip(capsys, corpus_dir, tmp_path):
    out_path = tmp_path / "c.tdoc"
    restored = tmp_path / "restored"
    assert main(["compress", str(corpus_dir), "--out", str(out_path)]) == 0
    assert main(["decompress", str(out_path), "--out", str(restored)]) == 0
    for name in ("f0.txt", "f1.txt"):
        original = tokenize((corpus_dir / name).read_text())
        round_tripped = tokenize((restored / name).read_text())
        assert round_tripped == original


def test_compress_rejects_a_repeated_file_name(capsys, tmp_path):
    for directory, text in (("d1", "a b c"), ("d2", "d e f")):
        (tmp_path / directory).mkdir()
        (tmp_path / directory / "x.txt").write_text(text)
    out_path = tmp_path / "c.tdoc"
    code, _, err = run(capsys, [
        "compress", str(tmp_path / "d1"), str(tmp_path / "d2"), "--out", str(out_path)
    ])
    assert (code, "x.txt" in err) == (4, True)
    assert not out_path.exists()


@pytest.mark.parametrize(
    "name", ["a,b", "c\td", "e\rf", "g\nh", "i\vj", "k\x85l", "m\u2028n"]
)
@pytest.mark.parametrize("command", ["compress", "baseline", "gzip"])
def test_file_names_that_split_tsv_fields_are_corpus_errors(
    capsys, tmp_path, command, name
):
    # an inverted-index row joins file names with commas, and every row
    # separates fields by tabs and ends at a line break
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for file_name, text in (("ok.txt", "x y\n"), (name, "y z\n")):
        if command == "gzip":
            (corpus / f"{file_name}.gz").write_bytes(gzip.compress(text.encode()))
        else:
            (corpus / file_name).write_text(text)
    out_path = tmp_path / "c.tdoc"
    if command == "compress":
        argv = ["compress", str(corpus), "--out", str(out_path)]
    else:
        argv = ["analyze", str(corpus), "inverted-index", "--engine", command]
    code, out, err = run(capsys, argv)
    # the message names the file as repr() quotes it, control characters escaped
    assert (code, out, repr(name)[1:-1] in err) == (4, "", True)
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["compress", "bench"])
def test_file_names_that_are_not_utf8_are_corpus_errors(capsys, tmp_path, command):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "ok.txt").write_text("x y\n")
    with open(os.path.join(os.fsencode(corpus), b"\xffx.txt"), "wb") as handle:
        handle.write(b"y z\n")
    out_path = tmp_path / "c.tdoc"
    if command == "compress":
        argv = ["compress", str(corpus), "--out", str(out_path)]
    else:
        argv = ["bench", str(corpus), "word-count", "--repeat", "1"]
    code, out, err = run(capsys, argv)
    assert (code, out, repr(os.fsdecode(b"\xffx.txt")) in err) == (4, "", True)
    assert not out_path.exists()


def _container_named(tmp_path, names):
    """A container of one small file per name, written without the writer's
    name check, as earlier writers wrote them."""
    from conftest import reseal
    from tadoc.container import MAGIC, VERSION, build_payload
    from tadoc.corpus import encode_corpus
    from tadoc.sequitur import infer_grammar

    files = [(name, f"w{i} y") for i, name in enumerate(names)]
    dictionary, encoded = encode_corpus(files)
    grammar = infer_grammar(encoded.symbols, dictionary.n_total, dictionary.word_count)
    payload = build_payload(dictionary, grammar, encoded.file_table)
    path = tmp_path / "named.tdoc"
    path.write_bytes(reseal(MAGIC + bytes([VERSION, 0]) + bytes(10) + payload))
    return path


@pytest.mark.parametrize("task", ["inverted-index", "term-vector", "tfidf"])
def test_tsv_output_refuses_names_that_split_its_fields(capsys, tmp_path, task):
    path = _container_named(tmp_path, ["a,b", "c\td"])
    code, out, err = run(capsys, ["analyze", str(path), task])
    assert (code, out) == (3, "")
    assert repr("a,b") in err and "--output json" in err
    # JSON quotes every name
    code, out, _ = run(capsys, ["analyze", str(path), task, "--output", "json"])
    assert (code, json.loads(out)["files"]) == (0, ["a,b", "c\td"])


@pytest.mark.parametrize(
    "names",
    [("x.txt", "x.txt"), ("", "y"), (".", "y"), ("d", "d/x"), ("/y", "../y")],
    ids=["repeated", "empty", "dot", "file-and-directory", "same-output-path"],
)
def test_decompress_checks_every_name_before_writing(capsys, tmp_path, names):
    path = _container_named(tmp_path, names)
    restored = tmp_path / "restored"
    code, _, err = run(capsys, ["decompress", str(path), "--out", str(restored)])
    assert (code, err.startswith("error: ")) == (3, True)
    assert not restored.exists()


def test_absolute_and_parent_names_round_trip_under_out(capsys, tmp_path, monkeypatch):
    # compress keeps the names as given; decompress writes each under --out
    # without its root anchor or leading ".." parts, as tar extracts
    (tmp_path / "f.txt").write_text("a b c\n")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    for name, written in (
        (str(tmp_path / "f.txt"), str(tmp_path / "f.txt").lstrip(os.sep)),
        (os.path.join("..", "f.txt"), "f.txt"),
    ):
        restored = tmp_path / "restored"
        assert main(["compress", name, "--out", "c.tdoc"]) == 0
        code, _, err = run(capsys, ["decompress", "c.tdoc", "--out", str(restored)])
        assert (code, err.startswith("error: ")) == (0, False)
        assert (restored / written).read_text() == "a b c\n"
        shutil.rmtree(restored)


def test_compress_leaves_its_own_container_out_of_the_walk(capsys, tmp_path):
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "f.txt").write_text("a b a b\n")
    out_path = corpus / "self.tdoc"
    blobs = []
    for _ in range(2):
        code, _, err = run(capsys, ["compress", str(corpus), "--out", str(out_path)])
        assert (code, "compressed 1 files" in err) == (0, True)
        blobs.append(out_path.read_bytes())
    assert blobs[0] == blobs[1]


def test_bench_leaves_its_workdir_out_of_the_walk(capsys, tmp_path):
    # the container and the gzip copies of the first run stay in c/w
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "f.txt").write_text("a b a b\n")
    argv = [
        "bench", str(corpus), "word-count", "--repeat", "1", "--output", "json",
        "--workdir", str(corpus / "w"),
    ]
    for _ in range(2):
        code, out, err = run(capsys, argv)
        assert (code, err.startswith("error: ")) == (0, False)
        assert json.loads(out)["corpus"]["files"] == 1
    assert {path.name for path in (corpus / "w").iterdir()} == {"corpus.tdoc", "file0.gz"}


def test_collect_paths_names_each_file_relative_to_its_input(tmp_path, monkeypatch):
    from tadoc.cli import _collect_paths

    monkeypatch.chdir(tmp_path)
    for path in ("c/a.txt", "c/sub/b.txt", "c/sub/deep/c.txt", "c/z/d.txt"):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        Path(path).write_text("a\n")
    expected = ["a.txt", "sub/b.txt", "sub/deep/c.txt", "z/d.txt"]
    for item in ("c", "c/", "./c", "./c/", "c/sub/..", str(tmp_path / "c")):
        pairs = _collect_paths([item], None)
        assert [name for name, _ in pairs] == expected, item
        assert [os.path.relpath(path, item) for _, path in pairs] == expected, item
    assert _collect_paths(["c/sub/"], None) == [
        ("b.txt", "c/sub/b.txt"), ("deep/c.txt", "c/sub/deep/c.txt")
    ]


def test_analyze_imports_no_module_that_only_bench_uses(ref_container):
    """An analyze process holds no module that only bench or the gzip engine
    runs, nor `dataclasses` with the `inspect` it imports: each one imported
    raises the process's peak memory. -S keeps site-packages' start-up hooks
    from importing any of them first."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = f"""
import contextlib, io, json, sys
sys.path.insert(0, {str(src)!r})
from tadoc.cli import TASK_NAMES, main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(["analyze", {str(ref_container)!r}, task]) for task in TASK_NAMES]
modules = ("gzip", "statistics", "tempfile", "concurrent.futures", "dataclasses", "inspect")
print(json.dumps([codes, [name for name in modules if name in sys.modules]]))
"""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        check=True, capture_output=True, text=True, timeout=60,
    )
    assert json.loads(proc.stdout) == [[0] * len(TASK_NAMES), []]


def test_dump_dict(capsys, tmp_path, corpus_dir):
    out_path = tmp_path / "c.tdoc"
    dict_path = tmp_path / "dict.tsv"
    assert main([
        "compress", str(corpus_dir), "--out", str(out_path), "--dump-dict", str(dict_path)
    ]) == 0
    lines = dict_path.read_text().splitlines()
    assert lines[0] == "0\ta"
    assert all("\t" in line for line in lines)


def test_file_list_manifest(capsys, corpus_dir, tmp_path):
    manifest = tmp_path / "list.txt"
    manifest.write_text(f"{corpus_dir / 'f0.txt'}\n")
    out_path = tmp_path / "c.tdoc"
    assert main(["compress", "--file-list", str(manifest), "--out", str(out_path)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, ["analyze", str(out_path), "word-count"])
    assert out.splitlines() == ["a\t6", "b\t5", "c\t2", "d\t2"]


def test_non_utf8_manifest_is_corpus_error(capsys, corpus_dir, tmp_path):
    manifest = tmp_path / "list.txt"
    manifest.write_bytes(str(corpus_dir / "f0.txt").encode() + b"\n\xff\n")
    out_path = tmp_path / "c.tdoc"
    code, _, err = run(capsys, ["compress", "--file-list", str(manifest), "--out", str(out_path)])
    assert code == 4
    assert "not valid UTF-8" in err
    assert not out_path.exists()


def test_bench_smoke(capsys, corpus_dir, tmp_path):
    code, out, err = run(capsys, [
        "bench", str(corpus_dir), "word-count",
        "--repeat", "1", "--output", "json",
        "--workdir", str(tmp_path / "bench"),
    ])
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert set(report["engines"]) == {"cd", "baseline", "gzip"}
    for engine in report["engines"].values():
        for phase in ("io", "init", "compute", "total"):
            assert engine[phase] >= 0
    assert report["sizes"]["raw"] > 0
    assert report["corpus"]["files"] == 2
    assert report["corpus"]["tokens"] == 15 + 6
    container = tmp_path / "bench" / "corpus.tdoc"
    assert report["sizes"]["container"] == container.stat().st_size
    assert "speedups_vs_baseline" in report
    bench_cd = [
        "bench", str(corpus_dir), "inverted-index", "--engines", "cd",
        "--repeat", "1", "--output", "json", "--workdir", str(tmp_path / "bench"),
    ]
    with pytest.raises(SystemExit) as excinfo:
        main([*bench_cd, "--variant", "preorder-bitmap"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, bench_cd)
    assert code == 0
    assert set(json.loads(out)["engines"]) == {"cd"}


# every task's `--output json` on `corpus_dir`, written out so that a fault
# shared by the serializer and both engines still shows
GOLDEN_JSON = {
    "word-count": '[["a", 7], ["b", 6], ["brown", 1], ["c", 2], ["d", 2], '
    '["fox", 1], ["quick", 1], ["the", 1]]',
    "sort": '[["a", 7], ["b", 6], ["brown", 1], ["c", 2], ["d", 2], ["fox", 1], '
    '["quick", 1], ["the", 1]]',
    "inverted-index": '[["a", [0, 1]], ["b", [0, 1]], ["brown", [1]], ["c", [0]], '
    '["d", [0]], ["fox", [1]], ["quick", [1]], ["the", [1]]]',
    "term-vector": '[[["a", 6], ["b", 5], ["c", 2], ["d", 2]], [["a", 1], ["b", 1], '
    '["brown", 1], ["fox", 1], ["quick", 1], ["the", 1]]]',
    "sequence-count": '[{"a_b_a": 1, "a_b_c": 2, "a_b_d": 2, "b_c_a": 2, "b_d_a": 2, '
    '"c_a_b": 2, "d_a_b": 2}, {"brown_fox_a": 1, "fox_a_b": 1, "quick_brown_fox": 1, '
    '"the_quick_brown": 1}]',
    "ranked-inverted-index": '[["a_b_a", [[0, 1]]], ["a_b_c", [[0, 2]]], '
    '["a_b_d", [[0, 2]]], ["b_c_a", [[0, 2]]], ["b_d_a", [[0, 2]]], '
    '["brown_fox_a", [[1, 1]]], ["c_a_b", [[0, 2]]], ["d_a_b", [[0, 2]]], '
    '["fox_a_b", [[1, 1]]], ["quick_brown_fox", [[1, 1]]], '
    '["the_quick_brown", [[1, 1]]]]',
    "tfidf": '[["a", [[0, 0.0], [1, 0.0]]], ["b", [[0, 0.0], [1, 0.0]]], '
    '["brown", [[1, 0.6931471805599453]]], ["c", [[0, 1.3862943611198906]]], '
    '["d", [[0, 1.3862943611198906]]], ["fox", [[1, 0.6931471805599453]]], '
    '["quick", [[1, 0.6931471805599453]]], ["the", [[1, 0.6931471805599453]]]]',
}


def test_json_output_of_every_task_is_the_golden_text(capsys, corpus_dir, tmp_path):
    container = tmp_path / "c.tdoc"
    assert main(["compress", str(corpus_dir), "--out", str(container)]) == 0
    assert set(GOLDEN_JSON) == set(TASK_NAMES)
    for task, result in GOLDEN_JSON.items():
        expected = (
            f'{{"schema_version": 1, "task": "{TASK_NAMES[task]}", '
            f'"files": ["f0.txt", "f1.txt"], "result": {result}}}\n'
        )
        for argv in (
            ["analyze", str(container), task],
            ["analyze", str(corpus_dir), task, "--engine", "baseline"],
        ):
            code, out, _ = run(capsys, [*argv, "--output", "json"])
            assert (code, out) == (0, expected), argv


@pytest.mark.parametrize("task", ["term_vector", "sequence_count"])
def test_emit_writes_a_file_before_the_next_table_is_pulled(task, monkeypatch):
    from collections import Counter

    from tadoc import cli, kernels
    from tadoc.corpus import Dictionary

    dictionary = Dictionary(["a", "b"], 2)
    if task == "term_vector":
        tables = [Counter({0: 2, 1: 1}), Counter({1: 3})]
    else:
        tables = [Counter({"b_a_b": 1, "a_b_a": 2}), Counter({"b_b_b": 1})]
    out = io.StringIO()
    seen = []  # what stdout held as each table was pulled

    def pulled():
        for table in tables:
            seen.append(out.getvalue())
            yield table

    monkeypatch.setattr(sys, "stdout", out)
    # one row per write, so that rows are written as soon as they are made
    monkeypatch.setattr(cli, "_EMIT_ROWS", 1)
    result = kernels.finish(task, pulled(), dictionary)
    cli._emit(task, result, ["f0", "f1"], "tsv")
    rows = out.getvalue().splitlines()
    assert len(rows) == 3
    assert seen == ["", "\n".join(rows[:2]) + "\n"]


def test_bench_times_a_streamed_result_to_its_end(ref_container, monkeypatch):
    # a streamed result is computed as it is pulled: the compute step must
    # pull all of it
    from tadoc import cli

    drained = []
    run_task = cli.run_task

    def streamed_run_task(*args):
        result = run_task(*args)

        def stream():
            yield from result
            drained.append(True)

        return stream()

    monkeypatch.setattr(cli, "run_task", streamed_run_task)
    pairs = [(str(ref_container), str(ref_container))]
    for task in ("term_vector", "sequence_count", "ranked_inverted_index"):
        drained.clear()
        cli._time_steps("cd", task, pairs, 3, None)
        assert drained == [True], task


def test_lowercase_with_the_cd_engine_is_usage_error(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "f0.txt").write_text("A a\n")
    plain, folded = tmp_path / "plain.tdoc", tmp_path / "folded.tdoc"
    assert main(["compress", str(corpus), "--out", str(plain)]) == 0
    assert main(["compress", str(corpus), "--out", str(folded), "--lowercase"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", str(plain), "word-count", "--lowercase"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pass --lowercase to compress" in captured.err
    for argv in (
        ["analyze", str(corpus), "word-count", "--engine", "baseline", "--lowercase"],
        ["analyze", str(folded), "word-count"],
    ):
        assert run(capsys, argv)[:2] == (0, "a\t2\n"), argv
    assert run(capsys, ["analyze", str(plain), "word-count"])[:2] == (0, "A\t1\na\t1\n")


def test_bench_removes_its_temporary_directory(capsys, corpus_dir, tmp_path, monkeypatch):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    code, out, _ = run(capsys, ["bench", str(corpus_dir), "word-count", "--repeat", "1"])
    assert code == 0 and out
    assert list(scratch.iterdir()) == []


def test_bench_tsv_rows_carry_the_json_report(capsys, corpus_dir, tmp_path, monkeypatch):
    from tadoc import cli

    outputs = {}
    for output in ("json", "tsv"):
        # the same step times in both runs, multiples of 1/64 so exact
        ticks = itertools.count(1)
        monkeypatch.setattr(cli, "_timed", lambda fn, *args: (fn(*args), next(ticks) / 64))
        code, outputs[output], _ = run(capsys, [
            "bench", str(corpus_dir), "sequence-count", "--repeat", "2",
            "--output", output, "--workdir", str(tmp_path / "bench"),
        ])
        assert code == 0
    report = json.loads(outputs["json"])
    rows = [line.split("\t") for line in outputs["tsv"].splitlines()]
    assert [row[0] for row in rows] == [
        "engine", "cd", "baseline", "gzip",
        "size_raw", "size_container", "size_container_no_deflate", "size_deflate_of_raw",
        "ratio_raw", "ratio_deflate_of_raw", "ratio_container", "ratio_container_no_deflate",
    ]
    assert rows[0][1:] == ["io_s", "init_s", "compute_s", "total_s"]
    for engine, *cells in rows[1:4]:
        phases = report["engines"][engine]
        assert cells == [f"{phases[p]:.4f}" for p in ("io", "init", "compute", "total")]
    for key, cell in rows[4:8]:
        assert int(cell) == report["sizes"][key.removeprefix("size_")]
    for key, cell in rows[8:]:
        assert cell == f"{report['ratios'][key.removeprefix('ratio_')]:.3f}"


def test_json_output_schema(capsys, ref_container):
    code, out, _ = run(capsys, ["analyze", str(ref_container), "sort", "--output", "json"])
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["task"] == "sort"
    assert payload["files"] == ["f0.txt"]
    assert payload["result"][0] == ["a", 6]
