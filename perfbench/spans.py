"""In-memory span tracing around the calls into each tadoc module.

`Tracer.install` replaces the public functions that `cli` and `scheduler`
call into each module with wrappers that record a span per call: name,
start, end, parent span, thread, and the benchmark operation it belongs to.
The replacement is made in every tadoc module that holds the function, so
calls through `from .x import f` names and through `module.f` attributes
are both seen. `uninstall` puts the originals back.

A call made while a span of the same module is open on the thread is not
recorded on its own (`tfidf` calling `inverted_index`, `coarsen` calling
`load_merge_graph`), so its time stays with the outer call; the exception
is `plan_partitions`, a step of `run_parallel` with a metric of its own. A
span opened on a worker thread with nothing open yet takes as parent the
innermost span of the main thread, which is blocked in `run_parallel`
waiting for it.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass

# (module, function) pairs wrapped; the span name is "<module>.<function>"
TARGETS = (
    ("corpus", "encode_corpus"),
    ("corpus", "decode_stream"),
    ("sequitur", "infer_grammar"),
    ("sequitur", "expand"),
    ("container", "write_container"),
    ("container", "read_container"),
    ("dag", "load_merge_graph"),
    ("dag", "coarsen"),
    ("kernels", "word_count_postorder"),
    ("kernels", "word_count_preorder"),
    ("kernels", "sort_words"),
    ("kernels", "inverted_index"),
    ("kernels", "term_vector"),
    ("kernels", "sequence_count"),
    ("kernels", "ranked_inverted_index"),
    ("kernels", "tfidf"),
    ("kernels", "_per_file_code_counts"),
    ("kernels", "rank_gram_files"),
    ("scheduler", "plan_partitions"),
    ("scheduler", "run_parallel"),
    ("cli", "_emit"),
)

# recorded even when a span of the same module is open
OWN_SPANS = ("scheduler.plan_partitions",)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.ops: list[tuple[int, str]] = []  # op id -> (round, op kind)
        self.plans: list[tuple[int, object]] = []  # (op, PartitionPlan)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[tuple[int, str]] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op = -1

    def begin_op(self, round_no: int, kind: str) -> None:
        """Later spans belong to a new benchmark operation of this kind."""
        self.ops.append((round_no, kind))
        self._op = len(self.ops) - 1

    def _stack(self) -> list[tuple[int, str]]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        layer = name.split(".", 1)[0]
        fold = name not in OWN_SPANS
        keep_plan = name == "scheduler.plan_partitions"

        def traced(*args, **kwargs):
            stack = self._stack()
            if fold and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1][0]
            elif self._main_stack and stack is not self._main_stack:
                parent = self._main_stack[-1][0]
            else:
                parent = None
            span_id = next(self._ids)
            op = self._op
            stack.append((span_id, layer))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(span_id, name, start, end, parent, threading.get_ident(), op)
                )
            if keep_plan:
                self.plans.append((op, result))
            return result

        return traced

    def install(self) -> None:
        modules = [
            module
            for key, module in sys.modules.items()
            if key == "tadoc" or key.startswith("tadoc.")
        ]
        for module_name, function in TARGETS:
            original = getattr(sys.modules[f"tadoc.{module_name}"], function)
            wrapper = self._wrap(original, f"{module_name}.{function}")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        out = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for start, end in sorted(children.get(span.id, ())):
                start, end = max(start, cursor), min(end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            out[span.id] = span.end - span.start - covered
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"ops": self.ops, "spans": [asdict(span) for span in self.spans]},
                handle,
            )
