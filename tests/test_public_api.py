"""The names `import byzgrad` offers, and what the README says of the code.

Helpers that only tests and the benchmark tracer use are imported from the
module that defines them (`byzgrad.linalg`, `byzgrad.protocol`, ...), not
from the package.
"""

import re
import types
from pathlib import Path

import byzgrad
from byzgrad.checks import CHECKS
from byzgrad.harness import SimulationConfig, run_simulation

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    # assignment
    "AssignmentMatrix", "assignment_from_text", "assignment_to_text", "make_cyclic",
    "make_fractional", "make_random_regular", "validate_regular",
    # adversary
    "AdversaryStrategy", "RandomCorruption", "SymmetrizationStrategy",
    "pick_attack_support", "tournament_liar",
    # coding
    "CodeContext", "EncodingMatrix", "build_code_context", "build_encoding_matrix",
    "combining_vector", "ecc_decode", "response_matrix",
    # field
    "DEFAULT_MODULUS", "is_prime",
    # harness
    "METRICS_HEADER", "RunMetrics", "SimulationConfig", "SweepReport", "grid_configs",
    "replay_transcript", "run_simulation", "run_sweep", "write_transcript",
    # protocol
    "ProtocolResult", "ProtocolRun", "Query",
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


def readme_event_fields() -> dict[str, list[str]]:
    """Event -> its fields as the README's transcript table lists them, "[level]" kept.

    Parenthesised notes and a field's bracketed shape, as in "mask [lo, hi]",
    are dropped; an optional field stands alone in brackets.
    """
    table = README.read_text(encoding="utf-8").split("### Transcript", 1)[1]
    fields = {}
    for event, cell in re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.M):
        cell = re.sub(r"(?<=\w) \[[^\]]*\]", "", re.sub(r"\([^)]*\)", "", cell.replace("`", "")))
        fields[event] = [name.strip() for name in cell.split(",") if name.strip()]
    return fields


def test_readme_transcript_table_lists_the_engine_fields_in_order():
    listed = readme_event_fields()
    runs = (
        SimulationConfig(n=4, s=1, u=1, p=4, q=101),  # agreement
        # Two matches, each ending in an elimination, then the ecc decode.
        SimulationConfig(n=6, s=2, u=1, p=8, q=101, adversary="tournament-liar", seed=3),
    )
    seen = set()
    for config in runs:
        for ev in run_simulation(config).result.transcript.events:
            names = listed[ev["event"]]
            match = ev.get("kind") == "match"
            want = [n.strip("[]") for n in names if match or not n.startswith("[")]
            assert list(ev) == ["event", *want], ev
            if ev["event"] == "conflict":
                assert ev["first"] == 1  # every group shares the root: group 1 always disputes
            seen.add((ev["event"], ev.get("kind")))
    assert {event for event, _ in seen} == set(listed)
    assert {kind for event, kind in seen if event == "query"} == {"initial", "match"}
    assert {kind for event, kind in seen if event == "response_set"} == {"initial", "match"}


def test_readme_names_every_verify_check():
    text = README.read_text(encoding="utf-8")
    names = re.search(r"\(or: ([^)]*)\)\nbyzgrad verify all", text).group(1)
    assert [name.strip() for name in names.replace("#", "").split(",")] == list(CHECKS)
