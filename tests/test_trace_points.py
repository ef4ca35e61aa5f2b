"""The benchmark tracer's wrap points must all resolve in the package.

perfbench/tracing.py names the functions it wraps by module and attribute;
a refactor that moves or renames one silently drops its span from traced
runs, so every name is checked here against the current package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_resolves():
    tracing = load_tracing()
    names = {point[0] for point in tracing.WRAP_POINTS} | {"adversary"}
    mods = {name: importlib.import_module(f"byzgrad.{name}") for name in names}
    originals = {name: dict(vars(mod)) for name, mod in mods.items()}
    tracer = tracing.Tracer()
    try:
        tracer.install(mods)
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    for name, mod in mods.items():
        for attr, value in originals[name].items():
            assert vars(mod)[attr] is value
