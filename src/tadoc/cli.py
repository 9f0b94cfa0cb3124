"""Command-line surface: compress, decompress, analyze, features, bench.

Analytics results go to stdout (TSV by default, `--output json` for a
versioned schema); logs and summaries go to stderr. Exit codes: 0 ok,
2 usage, 3 malformed container, 4 corpus error.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import sys
import time
import zlib

# gzip, statistics and tempfile are imported where the gzip engine and bench
# use them: each module imported raises an `analyze` process's peak memory

from . import __version__, oracle
from .corpus import CorpusError, decode_stream, encode_corpus, tokenize
from .container import (
    ContainerError,
    FeatureMismatchError,
    check_file_names,
    load_container,
    output_paths,
    read_header,
    write_container,
)
from .kernels import TASKS, run_task, select_variant
from .sequitur import expand, infer_grammar

# command-line names are the library's names with hyphens
TASK_NAMES = {task.replace("_", "-"): task for task in TASKS}
ENGINES = ("cd", "baseline", "gzip")


def _log(message: str) -> None:
    print(message, file=sys.stderr)


# -- input collection ------------------------------------------------------------


def _collect_paths(
    inputs: list[str], file_list: str | None, skip: str = ""
) -> list[tuple[str, str]]:
    """(display name, filesystem path) pairs, deterministic order. A directory
    walk leaves out what is at `skip`'s real path, a file or a whole
    directory, so what a command writes into its own corpus (compress's
    container, bench's work directory) is not read back as text on the next
    run."""
    skip = os.path.realpath(skip) if skip else ""
    skip_dir, skip_name = os.path.split(skip)
    pairs: list[tuple[str, str]] = []
    for item in inputs:
        if os.path.isdir(item):
            for root, dirnames, filenames in os.walk(item):
                if skip:
                    real = os.path.realpath(root)
                    if real == skip:
                        dirnames.clear()
                        continue
                    if real == skip_dir and skip_name in filenames:
                        filenames.remove(skip_name)
                dirnames.sort()
                # a file's name is its directory's path relative to the
                # item plus its own, so relpath runs once per directory
                prefix = os.path.relpath(root, item)
                prefix = "" if prefix == os.curdir else prefix + os.sep
                for filename in sorted(filenames):
                    pairs.append((prefix + filename, os.path.join(root, filename)))
        elif os.path.isfile(item):
            pairs.append((item, item))
        else:
            raise CorpusError(f"no such file or directory: {item}")
    if file_list is not None:
        if file_list == "-":
            lines = sys.stdin.read().splitlines()
        else:
            lines = _read_text(file_list).splitlines()
        for line in lines:
            path = line.strip()
            if not path:
                continue
            if not os.path.isfile(path):
                raise CorpusError(f"no such file: {path}")
            pairs.append((path, path))
    if not pairs:
        raise CorpusError("no input files")
    names = [name for name, _ in pairs]
    check_file_names(names, CorpusError)
    output_paths(names, CorpusError)
    return pairs


def _decode(path: str, raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path} is not valid UTF-8: {exc}") from exc


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _read_text(path: str) -> str:
    return _decode(path, _read_bytes(path))


def _gunzip(path: str, raw: bytes) -> bytes:
    import gzip

    try:
        return gzip.decompress(raw)
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise CorpusError(f"{path} is not a whole gzip file: {exc}") from exc


# -- serialization -----------------------------------------------------------------


def _pairs(result):
    """A keyed result as (key, value) pairs: a dict's items, or the pairs
    that a streaming kernel yields in key order."""
    return result.items() if isinstance(result, dict) else result


def serialize_tsv(task: str, result, names: list[str]):
    """TSV rows of `result`, one at a time, as they are pulled."""
    if task in ("word_count", "sort"):
        for word, count in _pairs(result):
            yield f"{word}\t{count}"
    elif task == "inverted_index":
        for word, ids in result.items():
            yield f"{word}\t" + ",".join(map(names.__getitem__, ids))
    elif task == "term_vector":
        for file_id, ranked in enumerate(result):
            for word, count in ranked:
                yield f"{names[file_id]}\t{word}\t{count}"
    elif task == "sequence_count":
        for file_id, table in enumerate(result):
            for gram, count in table.items():
                yield f"{names[file_id]}\t{gram}\t{count}"
    elif task == "ranked_inverted_index":
        for gram, ranked in _pairs(result):
            for file_id, count in ranked:
                yield f"{gram}\t{names[file_id]}\t{count}"
    elif task == "tfidf":
        # few distinct scores, so each repr is made once. A score is
        # count * ln(files / df) >= +0.0, never the -0.0 or NaN that a
        # float-keyed dict would merge with 0.0 or never find
        reprs: dict[float, str] = {}
        for word, scores in result.items():
            for file_id, score in scores.items():
                text = reprs.get(score)
                if text is None:
                    text = reprs[score] = repr(score)
                yield f"{word}\t{names[file_id]}\t{text}"
    else:
        raise ValueError(f"unknown task {task!r}")


def serialize_json(task: str, result, names: list[str]) -> str:
    # JSON writes a tuple as a list. A result keyed by word or gram goes out
    # as (key, value) pairs, and so do tfidf's scores by file, whose keys
    # would be strings in a JSON object; lists go out as they are
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if task == "tfidf":
        body = [[word, list(scores.items())] for word, scores in result.items()]
    else:
        body = list(_pairs(result))
    return json.dumps(
        {"schema_version": 1, "task": task, "files": names, "result": body},
        ensure_ascii=False,
    )


# TSV rows per write: one write per row costs more than the formatting, and
# joining the whole output at once raises the peak memory of large results
_EMIT_ROWS = 4096


def _emit(task, result, names, output):
    if output == "json":
        print(serialize_json(task, result, names))
        return
    rows = serialize_tsv(task, result, names)
    while chunk := list(itertools.islice(rows, _EMIT_ROWS)):
        chunk.append("")
        sys.stdout.write("\n".join(chunk))


# -- engines -----------------------------------------------------------------------
# An engine runs a job in three steps: read the inputs' bytes, init the state
# that the task runs on (the loaded container, or the token lists of the raw
# or gzipped text), and compute the task. `analyze` runs the steps and
# `bench` times each. They call the library through this module's globals at
# call time, so a wrapper set on one of those sees every job.


def _read(pairs: list[tuple[str, str]]) -> list[bytes]:
    return [_read_bytes(path) for _, path in pairs]


def _init(engine: str, pairs, blobs: list[bytes], lowercase: bool = False):
    """The state that the task runs on, and the file names."""
    if engine == "cd":
        (data,) = blobs
        state = load_container(data)
        return state, [entry.name for entry in state[2].file_table]
    lists, names = [], []
    for (name, path), raw in zip(pairs, blobs):
        if engine == "gzip":
            raw, name = _gunzip(path, raw), name.removesuffix(".gz")
        lists.append(tokenize(_decode(path, raw), lowercase))
        names.append(name)
    return lists, names


def _compute(engine: str, task: str, state, l: int, top_k):
    if engine == "cd":
        dictionary, dag, _ = state
        return run_task(task, dag, dictionary, l, top_k)
    return oracle.run_task(task, state, l, top_k)


def _log_variant(header) -> None:
    """Log the published inverted-index pick for the container's corpus with
    the figures it was chosen from. The line is kept for `perfbench/run.py`'s
    `check_job`; the pick runs on no file (`kernels.select_variant`)."""
    files, tokens = header.file_count, header.total_tokens
    variant = select_variant(files, tokens)
    _log(f"variant auto: {variant} (avg_file_tokens={tokens / files:.1f}, files={files})")


# -- commands --------------------------------------------------------------------


def _compress(pairs, out: str, lowercase: bool = False, deflate: bool = True):
    """Read the files, encode -> infer -> write their container to `out`.

    Returns the dictionary, the encoded corpus, the grammar and the
    container's bytes.
    """
    # the texts live only through the encode, not through inference
    dictionary, encoded = encode_corpus(
        [(name, _read_text(path)) for name, path in pairs], lowercase
    )
    grammar = infer_grammar(encoded.symbols, dictionary.n_total, dictionary.word_count)
    blob = write_container(dictionary, grammar, encoded.file_table, deflate=deflate)
    with open(out, "wb") as handle:
        handle.write(blob)
    return dictionary, encoded, grammar, blob


def cmd_compress(args) -> int:
    pairs = _collect_paths(args.inputs, args.file_list, args.out)
    dictionary, encoded, grammar, blob = _compress(
        pairs, args.out, args.lowercase, deflate=not args.no_deflate
    )
    if args.dump_dict:
        with open(args.dump_dict, "w", encoding="utf-8") as handle:
            for code, word in enumerate(dictionary.words):
                handle.write(f"{code}\t{word}\n")
    _log(
        f"compressed {len(pairs)} files, {encoded.total_tokens} tokens, "
        f"vocabulary {dictionary.word_count}, {len(grammar.rules)} rules "
        f"-> {args.out} ({len(blob)} bytes)"
    )
    return 0


def cmd_decompress(args) -> int:
    dictionary, dag, header = load_container(_read_bytes(args.container))
    paths = output_paths([entry.name for entry in header.file_table], ContainerError)
    decoded = decode_stream(expand(dag), dictionary)
    for (_, tokens), entry in zip(decoded, header.file_table):
        if len(tokens) != entry.token_count:
            raise FeatureMismatchError(
                f"file {entry.name!r} holds {len(tokens)} tokens, the file table "
                f"says {entry.token_count}"
            )
    for (_, tokens), path in zip(decoded, paths):
        path = os.path.join(args.out, path)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(" ".join(tokens))
            if tokens:
                handle.write("\n")
    _log(f"decompressed {len(decoded)} files into {args.out}")
    return 0


def cmd_analyze(args) -> int:
    # The job's tables and postings hold ints, not reference cycles, so
    # reference counting frees them; the cyclic collector's full passes
    # would only re-walk them as they grow.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _analyze(args)
    finally:
        if enabled:
            gc.enable()


def _analyze(args) -> int:
    task = TASK_NAMES[args.task]
    if args.engine == "cd":
        if len(args.inputs) != 1:
            raise CorpusError("engine cd expects exactly one container file")
        pairs = [(args.inputs[0], args.inputs[0])]
    else:
        pairs = _collect_paths(args.inputs, None)
    state, names = _init(args.engine, pairs, _read(pairs), args.lowercase)
    if args.engine == "cd":
        _log_variant(state[2])
        if args.output == "tsv":
            try:
                check_file_names(names, ContainerError)
            except ContainerError as exc:
                raise ContainerError(f"{exc}; use --output json") from None
    result = _compute(args.engine, task, state, args.l, args.top_k)
    _emit(task, result, names, args.output)
    return 0


def cmd_features(args) -> int:
    header = read_header(_read_bytes(args.container))
    rows = [
        ("files", header.file_count),
        ("tokens", header.total_tokens),
        ("avg_file_tokens", round(header.total_tokens / header.file_count, 3)),
        ("vocabulary", header.word_count),
        ("rules", header.rule_count),
        ("container_bytes", header.container_size),
        ("outer_layer", "deflate" if header.deflate else "none"),
    ]
    if args.output == "json":
        print(json.dumps({"schema_version": 1, **dict(rows)}, ensure_ascii=False))
    else:
        for key, value in rows:
            print(f"{key}\t{value}")
    return 0


# -- bench -----------------------------------------------------------------------


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def _drained(fn, *args) -> None:
    """Call `fn` and run an iterator it returns to its end: a result that
    streams to the emit is computed as it is pulled, so a timed step covers
    the whole job only once it is drained."""
    result = fn(*args)
    if iter(result) is result:
        for _ in result:
            pass


def _time_steps(engine, task, pairs, l, top_k) -> dict[str, float]:
    """Seconds taken by each of the engine's steps in one run of the job."""
    blobs, io_s = _timed(_read, pairs)
    (state, _), init_s = _timed(_init, engine, pairs, blobs)
    _, compute_s = _timed(_drained, _compute, engine, task, state, l, top_k)
    return {"io": io_s, "init": init_s, "compute": compute_s}


def _prepare_container(pairs, container_path):
    """Compress the corpus to `container_path`; return its header, the size
    without the deflate layer, and the seconds taken to compress.

    The texts, symbol stream and inferred grammar stay local to this call:
    while they are alive, each full garbage collection during the timed
    runs walks them, and that time lands in whichever phase set it off.
    """
    start = time.perf_counter()
    dictionary, encoded, grammar, blob = _compress(pairs, container_path)
    compress_seconds = time.perf_counter() - start
    plain_size = len(
        write_container(dictionary, grammar, encoded.file_table, deflate=False)
    )
    _log(f"prepared container: {len(blob)} bytes in {compress_seconds:.2f}s")
    return read_header(blob), plain_size, compress_seconds


def cmd_bench(args) -> int:
    """Time the engines on the corpus. The container and the gzip copies go
    to `--workdir` when given, else to a temporary directory that is removed
    afterwards."""
    import tempfile

    if args.workdir:
        os.makedirs(args.workdir, exist_ok=True)
        return _bench(args, args.workdir)
    with tempfile.TemporaryDirectory(prefix="tadoc-bench-") as workdir:
        return _bench(args, workdir)


def _bench(args, workdir: str) -> int:
    import gzip
    import statistics

    task = TASK_NAMES[args.task]
    pairs = _collect_paths([args.corpus], None, workdir)
    raw_size = sum(os.path.getsize(path) for _, path in pairs)

    container_path = os.path.join(workdir, "corpus.tdoc")
    header, plain_size, compress_seconds = _prepare_container(pairs, container_path)
    container_size = header.container_size
    _log_variant(header)

    gz_pairs = []
    gz_size = 0
    for index, (name, path) in enumerate(pairs):
        gz_path = os.path.join(workdir, f"file{index}.gz")
        with open(path, "rb") as src, open(gz_path, "wb") as dst:
            dst.write(gzip.compress(src.read(), 6))
        gz_size += os.path.getsize(gz_path)
        gz_pairs.append((name + ".gz", gz_path))
    inputs = {
        "cd": [(container_path, container_path)], "baseline": pairs, "gzip": gz_pairs
    }

    # repeat r of every engine runs before repeat r + 1, so drift of the
    # host's speed spreads over all engines
    engine_runs: dict[str, list[dict]] = {engine: [] for engine in args.engines}
    for _ in range(args.repeat):
        for engine, runs in engine_runs.items():
            runs.append(_time_steps(engine, task, inputs[engine], args.l, args.top_k))
    results = {}
    for engine, runs in engine_runs.items():
        medians = {
            phase: statistics.median(run[phase] for run in runs)
            for phase in ("io", "init", "compute")
        }
        medians["total"] = medians["io"] + medians["init"] + medians["compute"]
        results[engine] = {"runs": runs, **medians}
        _log(
            f"{engine}: io={medians['io']:.3f}s init={medians['init']:.3f}s "
            f"compute={medians['compute']:.3f}s total={medians['total']:.3f}s"
        )

    report = {
        "schema_version": 1,
        "task": task,
        "repeat": args.repeat,
        "corpus": {
            "files": header.file_count,
            "bytes": raw_size,
            "tokens": header.total_tokens,
        },
        "sizes": {
            "raw": raw_size,
            "container": container_size,
            "container_no_deflate": plain_size,
            "deflate_of_raw": gz_size,
        },
        "ratios": {
            "raw": 1.0,
            "deflate_of_raw": raw_size / gz_size if gz_size else None,
            "container": raw_size / container_size,
            "container_no_deflate": raw_size / plain_size,
        },
        "compress_seconds": compress_seconds,
        "engines": results,
    }
    if "baseline" in results:
        speedups = {}
        for engine in args.engines:
            if engine == "baseline":
                continue
            speedups[engine] = {
                phase: results["baseline"][phase] / results[engine][phase]
                if results[engine][phase] > 0
                else None
                for phase in ("io", "init", "compute", "total")
            }
        report["speedups_vs_baseline"] = speedups

    if args.output == "json":
        print(json.dumps(report, ensure_ascii=False))
        return 0
    print("engine\tio_s\tinit_s\tcompute_s\ttotal_s")
    for engine, r in report["engines"].items():
        print(
            f"{engine}\t{r['io']:.4f}\t{r['init']:.4f}"
            f"\t{r['compute']:.4f}\t{r['total']:.4f}"
        )
    for key, size in report["sizes"].items():
        print(f"size_{key}\t{size}")
    for key, ratio in report["ratios"].items():
        # no ratio to a corpus whose gzip copies hold no bytes
        if ratio is not None:
            print(f"ratio_{key}\t{ratio:.3f}")
    return 0


# -- parser ----------------------------------------------------------------------


def _positive_length(value: str) -> int:
    length = int(value)
    if length < 2:
        raise argparse.ArgumentTypeError("sequence length must be >= 2")
    return length


def _at_least_one(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        number = 0
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value!r}")
    return number


def _engine_list(value: str) -> list[str]:
    engines = [engine.strip() for engine in value.split(",")]
    if not set(engines) <= set(ENGINES) or len(set(engines)) < len(engines):
        raise argparse.ArgumentTypeError(
            f"must be distinct names from {','.join(ENGINES)}, got {value!r}"
        )
    return engines


def _top_k(value: str) -> int:
    top_k = int(value)
    if top_k < 0:
        raise argparse.ArgumentTypeError("top-k must be >= 0")
    return top_k


def _add_compress(sub) -> None:
    p = sub.add_parser("compress", help="build a .tdoc container from text files")
    p.add_argument("inputs", nargs="*", help="input files or directories")
    p.add_argument("--file-list", help="manifest of input paths, or - for stdin")
    p.add_argument("--out", required=True, help="output container path")
    p.add_argument("--no-deflate", action="store_true", help="skip the outer layer")
    p.add_argument("--lowercase", action="store_true", help="NFC + lowercase input")
    p.add_argument("--dump-dict", help="also write code<TAB>word lines here")
    p.set_defaults(func=cmd_compress)


def _add_decompress(sub) -> None:
    p = sub.add_parser("decompress", help="reconstruct token streams from a container")
    p.add_argument("container")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_decompress)


def _add_analyze(sub) -> None:
    p = sub.add_parser("analyze", help="run an analytics task")
    p.add_argument("inputs", nargs="+", help="container (engine cd) or raw inputs")
    p.add_argument("task", choices=sorted(TASK_NAMES))
    p.add_argument(
        "--engine", choices=ENGINES, default="cd",
        help="cd runs on the container; baseline/gzip run on raw/.gz text",
    )
    p.add_argument(
        "--variant", default="auto", choices=["auto"],
        help="accepted for compatibility: only auto, which logs the published "
        "inverted-index pick; one traversal runs whatever it names",
    )
    p.add_argument(
        "--workers", type=_at_least_one, default=1,
        help="accepted for compatibility; every job runs on the loaded grammar "
        "whatever its value",
    )
    p.add_argument("--top-k", type=_top_k, default=None)
    p.add_argument("--l", type=_positive_length, default=3)
    p.add_argument(
        "--lowercase", action="store_true",
        help="NFC + lowercase the text of engines baseline and gzip",
    )
    p.add_argument("--output", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_analyze)


def _add_features(sub) -> None:
    p = sub.add_parser(
        "features", help="print corpus features from a container",
        description="Print corpus features from a container's header and file "
        "table. Only those are checked: a token count that disagrees with the "
        "grammar is seen only by a grammar load (analyze checks the total, "
        "decompress each file).",
    )
    p.add_argument("container")
    p.add_argument("--output", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_features)


def _add_bench(sub) -> None:
    p = sub.add_parser("bench", help="time engines on a corpus directory")
    p.add_argument("corpus", help="directory of text files")
    p.add_argument("task", choices=sorted(TASK_NAMES))
    p.add_argument(
        "--engines", type=_engine_list, default=",".join(ENGINES),
        help="comma-separated engines to time, each at most once",
    )
    p.add_argument("--repeat", type=_at_least_one, default=3)
    p.add_argument("--top-k", type=_top_k, default=None)
    p.add_argument("--l", type=_positive_length, default=3)
    p.add_argument("--workdir", help="artifact directory (default: a temp dir)")
    p.add_argument("--output", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_bench)


# each command adds its own parser, in the order `tadoc --help` lists them
_COMMANDS = {
    "compress": _add_compress,
    "decompress": _add_decompress,
    "analyze": _add_analyze,
    "features": _add_features,
    "bench": _add_bench,
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of `command` alone when it names one, else of every command.

    A command's parser is the same either way, but building the other four
    costs every job about a millisecond. The top-level usage that
    `tadoc --help`, `--version` and a missing or unknown command print lists
    every command, so those get the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="tadoc",
        description="Compress text corpora into grammar containers and run "
        "analytics directly on them.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    adders = [_COMMANDS[command]] if command in _COMMANDS else _COMMANDS.values()
    for add in adders:
        add(sub)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    if args.command == "analyze" and args.engine == "cd" and args.lowercase:
        # the container's words were folded, or not, when it was compressed;
        # the error prints the usage of the full parser
        _build_parser().error(
            "analyze --lowercase applies to engines baseline and gzip; "
            "pass --lowercase to compress to fold a container's words"
        )
    try:
        return args.func(args)
    except ContainerError as exc:
        _log(f"error: {exc}")
        return 3
    except CorpusError as exc:
        _log(f"error: {exc}")
        return 4
    except OSError as exc:
        _log(f"error: {exc}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
