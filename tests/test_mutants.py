"""The mutant table in tests/mutants.py still matches the source it mutates."""

import re

import mutants
from mutants import EQUIVALENT, MUTANTS, PACKAGE, ROOT, Mutant, missed_killers


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


def _stub_tree(tmp_path, monkeypatch, codes):
    """A tree with one module holding "x = 1", and a _pytest stub reading it.

    The stub passes every test on the unmutated module; on a mutated one it
    returns codes[node id]. Each call's node ids are recorded.
    """
    path = tmp_path / PACKAGE / "mod.py"
    path.parent.mkdir(parents=True)
    path.write_text("x = 1\n", encoding="utf-8")
    calls = []

    def stub(tree, node_ids):
        node_ids = tuple(node_ids)
        calls.append(node_ids)
        if (tree / PACKAGE / "mod.py").read_text(encoding="utf-8") == "x = 1\n":
            return 0
        (node,) = node_ids
        return codes[node]

    monkeypatch.setattr(mutants, "_pytest", stub)
    return path, calls


def test_a_mutant_is_killed_only_when_each_killer_fails_on_its_own(tmp_path, monkeypatch):
    codes = {"t.py::a": 1, "t.py::b": 1, "t.py::c": 1}
    path, calls = _stub_tree(tmp_path, monkeypatch, codes)
    m = Mutant("demo", "mod.py", "x = 1", "x = 2", tuple(codes))
    assert missed_killers(tmp_path, m) == []
    assert calls == [("t.py::a",), ("t.py::b",), ("t.py::c",)]
    assert path.read_text(encoding="utf-8") == "x = 1\n"
    # One killer passing, or erring, is enough for the mutant to survive.
    codes.update({"t.py::b": 0, "t.py::c": 2})
    assert missed_killers(tmp_path, m) == [("t.py::b", 0), ("t.py::c", 2)]
    assert path.read_text(encoding="utf-8") == "x = 1\n"


def test_the_runner_names_each_killer_that_missed(tmp_path, monkeypatch, capsys):
    codes = {"t.py::a": 1, "t.py::b": 0, "t.py::c": 5}
    _stub_tree(tmp_path, monkeypatch, codes)
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    monkeypatch.setattr(mutants, "MUTANTS", (
        Mutant("caught", "mod.py", "x = 1", "x = 2", ("t.py::a",)),
        Mutant("half", "mod.py", "x = 1", "x = 3", ("t.py::a", "t.py::b", "t.py::c")),
    ))
    assert mutants.main([]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "caught: killed",
        "half: SURVIVED t.py::b (passed)",
        "half: SURVIVED t.py::c (pytest exit 5)",
    ]
    assert mutants.main(["caught"]) == 0
    assert capsys.readouterr().out == "caught: killed\n"
