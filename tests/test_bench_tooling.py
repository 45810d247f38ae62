"""The benchmark's tracing wrapper against the socbench modules it wraps."""

import importlib.util
from pathlib import Path

TRACED_CLI = Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"


def test_every_traced_name_resolves():
    """``--trace 1`` wraps each name in TRACED with getattr on its module, so
    a renamed or deleted function would crash every traced run."""
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    missing = [
        f"{module.__name__}.{name}"
        for module, names in traced_cli.TRACED.items()
        for name in names
        if not callable(getattr(module, name, None))
    ]
    assert traced_cli.TRACED
    assert missing == []
