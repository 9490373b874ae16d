"""The benchmark's tracer must find every function it wraps by name."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall():
    tracing = load_tracing()
    modules = {name: importlib.import_module(name) for name, _ in tracing.LAYERS.values()}
    originals = {(name, f): getattr(modules[name], f) for name, funcs in tracing.LAYERS.values() for f in funcs}
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert all(getattr(modules[name], f) is fn for (name, f), fn in originals.items())
