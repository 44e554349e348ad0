"""Everything the benchmark harness under ``bench/`` uses of ecpsim still exists.

The harness is not part of this suite, so a deleted or renamed function
would otherwise only show up when ``bench/run.py --trace 1`` fails.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import ecpsim

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _resolve(dotted: str):
    module, _, attr = dotted.partition(":")
    obj = importlib.import_module(module)
    for part in filter(None, attr.split(".")):
        obj = getattr(obj, part)
    return obj


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


def _bench_imports() -> list[str]:
    names = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ecpsim"):
                names.extend(f"{node.module}:{a.name}" for a in node.names)
            elif isinstance(node, ast.Import):
                names.extend(a.name for a in node.names if a.name.startswith("ecpsim"))
    return names


def test_every_traced_layer_resolves():
    layers = _tracing().LAYERS
    assert layers
    for layer in layers:
        assert callable(_resolve(f"ecpsim.{layer.module}:{layer.attr}")), layer


def test_every_bench_import_resolves():
    names = _bench_imports()
    assert names
    for name in names:
        _resolve(name)


def test_public_names_resolve():
    # bench/run.py's setup code builds every circuit through these two
    names = {"BUILTIN_NAMES", "builtin_doc", *ecpsim.__all__}
    assert sorted(name for name in names if not hasattr(ecpsim, name)) == []
