import gzip
import json
import os

import pytest

from tadoc.cli import main
from tadoc.corpus import tokenize

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


def test_workers_flag_and_env_invariance(capsys, corpus_dir, tmp_path, monkeypatch):
    out_path = tmp_path / "c.tdoc"
    assert main(["compress", str(corpus_dir), "--out", str(out_path)]) == 0
    capsys.readouterr()
    _, sequential, _ = run(capsys, ["analyze", str(out_path), "sequence-count"])
    _, parallel, _ = run(capsys, ["analyze", str(out_path), "sequence-count", "--workers", "4"])
    assert parallel == sequential
    monkeypatch.setenv("TADOC_WORKERS", "3")
    _, via_env, _ = run(capsys, ["analyze", str(out_path), "sequence-count"])
    assert via_env == sequential


def test_negative_top_k_is_usage_error(capsys, corpus_dir, tmp_path):
    out_path = tmp_path / "c.tdoc"
    assert main(["compress", str(corpus_dir), "--out", str(out_path)]) == 0
    for argv in (
        ["analyze", str(out_path), "term-vector", "--top-k", "-1"],
        ["analyze", str(out_path), "term-vector", "--top-k", "-1", "--workers", "2"],
        ["analyze", str(corpus_dir), "term-vector", "--top-k", "-1", "--engine", "baseline"],
        ["bench", str(corpus_dir), "term-vector", "--top-k", "-1"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2, argv
    assert "top-k must be >= 0" in capsys.readouterr().err


def test_variant_override_and_log(capsys, ref_container):
    code, out, err = run(
        capsys, ["analyze", str(ref_container), "word-count", "--variant", "preorder-bitmap"]
    )
    assert code == 0
    assert "variant auto" not in err
    assert out.splitlines()[0] == "a\t6"


def test_gzip_engine(capsys, corpus_dir, tmp_path):
    gz = tmp_path / "f0.txt.gz"
    gz.write_bytes(gzip.compress((corpus_dir / "f0.txt").read_bytes()))
    code, out, _ = run(capsys, ["analyze", str(gz), "word-count", "--engine", "gzip"])
    assert code == 0
    assert out.splitlines() == ["a\t6", "b\t5", "c\t2", "d\t2"]


def test_baseline_engine_matches_cd(capsys, corpus_dir, tmp_path):
    out_path = tmp_path / "c.tdoc"
    assert main(["compress", str(corpus_dir), "--out", str(out_path)]) == 0
    capsys.readouterr()
    _, cd_out, _ = run(capsys, ["analyze", str(out_path), "term-vector"])
    _, base_out, _ = run(capsys, ["analyze", str(corpus_dir), "term-vector", "--engine", "baseline"])
    assert cd_out == base_out


def test_decompress_round_trip(capsys, corpus_dir, tmp_path):
    out_path = tmp_path / "c.tdoc"
    restored = tmp_path / "restored"
    assert main(["compress", str(corpus_dir), "--out", str(out_path)]) == 0
    assert main(["decompress", str(out_path), "--out", str(restored)]) == 0
    for name in ("f0.txt", "f1.txt"):
        original = tokenize((corpus_dir / name).read_text())
        round_tripped = tokenize((restored / name).read_text())
        assert round_tripped == original


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
    code, out, _ = run(capsys, [
        "bench", str(corpus_dir), "inverted-index", "--engines", "cd",
        "--variant", "preorder-bitmap", "--repeat", "1", "--output", "json",
        "--workdir", str(tmp_path / "bench"),
    ])
    assert code == 0
    assert set(json.loads(out)["engines"]) == {"cd"}


def test_json_output_schema(capsys, ref_container):
    code, out, _ = run(capsys, ["analyze", str(ref_container), "sort", "--output", "json"])
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["task"] == "sort"
    assert payload["files"] == ["f0.txt"]
    assert payload["result"][0] == ["a", 6]
