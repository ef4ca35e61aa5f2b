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


def package_modules(tracing) -> dict:
    names = {point[0] for point in tracing.WRAP_POINTS} | {"adversary"}
    return {name: importlib.import_module(f"byzgrad.{name}") for name in names}


def test_every_wrap_point_resolves():
    tracing = load_tracing()
    mods = package_modules(tracing)
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


def test_build_code_context_is_prime_call_is_traced():
    # The tracer wraps is_prime in the field module's namespace, so the code
    # context must look it up there for its check to count as a span.
    tracing = load_tracing()
    mods = package_modules(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install(mods)
        mods["coding"].build_code_context(4, 1, 1, 101)
    finally:
        tracer.uninstall()
    assert [span[3] for span in tracer.spans] == ["field.is_prime"]


def test_every_replay_builds_and_checks_its_instance(tmp_path):
    # Replay keeps nothing between calls: each replay of a file builds its
    # code (testing q for primality) and reads its assignment again.
    tracing = load_tracing()
    mods = package_modules(tracing)
    harness = mods["harness"]
    out = harness.run_simulation(harness.SimulationConfig(
        n=5, s=2, u=1, p=6, d=2, q=101, adversary="tournament-liar", seed=1,
    ))
    path = str(tmp_path / "t.jsonl")
    harness.write_transcript(out.result, path)
    layers = ("assignment.from_text", "coding.build_code_context", "field.is_prime")
    counts = []
    tracer = tracing.Tracer()
    try:
        tracer.install(mods)
        for _ in range(2):
            start = len(tracer.spans)
            assert harness.replay_transcript(path) == out.result.gradient
            spans = [span[3] for span in tracer.spans[start:]]
            counts.append([spans.count(layer) for layer in layers])
    finally:
        tracer.uninstall()
    assert counts == [[1, 1, 1], [1, 1, 1]]
