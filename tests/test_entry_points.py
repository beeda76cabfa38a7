"""The benchmark's span tracer finds every layer entry point it wraps, so a
refactor cannot silently drop a traced layer."""

import importlib.util
from pathlib import Path

import sftlift.cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_entry_points_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    main = sftlift.cli.main
    patches = spans.Patches(spans.Tracer())
    try:
        patches.install()
        assert patches.absent == []
    finally:
        patches.remove()
    assert sftlift.cli.main is main
