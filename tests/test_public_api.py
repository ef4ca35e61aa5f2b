"""The names `import byzgrad` offers, and the README's library example.

Helpers that only tests and the benchmark tracer use are imported from the
module that defines them (`byzgrad.linalg`, `byzgrad.protocol`, ...), not
from the package.
"""

import re
import types
from pathlib import Path

import byzgrad

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    # assignment
    "AssignmentMatrix", "assignment_from_text", "assignment_to_text", "make_cyclic",
    "make_fractional", "make_random_regular", "validate_regular",
    # adversary
    "AdversaryStrategy", "honest", "pick_attack_support", "random_corruption",
    "symmetrization", "tournament_liar",
    # coding
    "CodeContext", "EncodingMatrix", "build_code_context", "build_encoding_matrix",
    "combining_vector", "ecc_decode", "response_matrix", "restrict_encoding",
    # field
    "DEFAULT_MODULUS", "is_prime",
    # harness
    "METRICS_HEADER", "RunMetrics", "SimulationConfig", "SweepReport", "grid_configs",
    "replay_transcript", "run_simulation", "run_sweep", "write_transcript",
    # protocol
    "Agreement", "Conflict", "ProtocolResult", "ProtocolRun", "Query",
    "SimulatedResponder", "Transcript", "detect_contradiction", "form_groups",
    "group_response", "run_protocol",
}


def test_package_exports_exactly_the_public_api():
    exported = {
        name for name, value in vars(byzgrad).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks
    exec(compile(blocks[0], "README.md", "exec"), {})
