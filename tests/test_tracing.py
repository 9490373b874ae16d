"""The benchmark's tracer must find every function it wraps by name, and its own tests must pass."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_benchmark_selftest_passes():
    # its pins (mc.draws equal to the demand, bounds.compositions > 0, record coverage) hold on this tree
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
