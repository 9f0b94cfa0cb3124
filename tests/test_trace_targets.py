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
