"""The mutant table in tests/mutants.py still matches the source it mutates."""

import re

from mutants import EQUIVALENT, MUTANTS, PACKAGE, ROOT


def test_every_snippet_occurs_once_in_its_module():
    for m in MUTANTS + EQUIVALENT:
        source = (ROOT / PACKAGE / m.module).read_text(encoding="utf-8")
        assert source.count(m.snippet) == 1, m.name
        assert m.replacement != m.snippet, m.name


def test_every_killer_names_a_test():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.killers, m.name
        for node in m.killers:
            path, name = node.split("::")
            source = (ROOT / path).read_text(encoding="utf-8")
            assert re.search(rf"^def {name}\(", source, re.M), node


def test_every_equivalent_mutant_gives_its_reason():
    names = [m.name for m in MUTANTS + EQUIVALENT]
    assert len(set(names)) == len(names)
    for m in EQUIVALENT:
        assert m.reason.strip() and "\n" not in m.reason, m.name
