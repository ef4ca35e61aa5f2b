import copy
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

from byzgrad import adversary, coding, harness, protocol
from byzgrad.assignment import AssignmentMatrix, assignment_from_text, validate_regular
from byzgrad.cli import main as cli_main
from byzgrad.errors import InvalidParamsError, TranscriptReplayError
from byzgrad.field import draw_below
from byzgrad.harness import (
    METRICS_HEADER,
    SimulationConfig,
    SkippedRow,
    assignment_feasible,
    grid_configs,
    read_events,
    replay_transcript,
    run_simulation,
    run_sweep,
    write_transcript,
)

from oracles import (
    column_sum,
    dense_response_matrix,
    loop_draw_below,
    row_sum,
    set_is_int_list,
    transpose,
)

ROOT = Path(__file__).resolve().parent.parent


def cfg(**kw):
    base = dict(n=5, s=2, u=1, p=6, d=1, q=101)
    base.update(kw)
    return SimulationConfig(**base)


# configuration -----------------------------------------------------------------


def test_config_validation_errors():
    with pytest.raises(InvalidParamsError):
        cfg(u=4).validate()  # u > s+1
    with pytest.raises(InvalidParamsError):
        cfg(n=2).validate()  # n < s+u
    with pytest.raises(InvalidParamsError):
        cfg(q=100).validate()  # composite
    with pytest.raises(InvalidParamsError):
        cfg(q=5).validate()  # q <= max(n, p)
    with pytest.raises(InvalidParamsError):
        cfg(adversary="nonsense").validate()
    with pytest.raises(InvalidParamsError):
        cfg(assignment="none").validate()
    for unknown in ({"bogus": 1}, {"corruption_offset": 1}):
        with pytest.raises(InvalidParamsError):
            SimulationConfig.from_dict({"n": 5, "s": 2, "u": 1, "p": 6} | unknown)
    # Mistyped values, as a JSON config can carry them.
    for bad in ({"n": "5"}, {"d": 2.0}, {"s": True}, {"seed": "x"}, {"q": 101.0},
                {"d": None}, {"adversary": 1}, {"assignment_path": 3}):
        with pytest.raises(InvalidParamsError):
            SimulationConfig.from_dict(dataclasses.asdict(cfg()) | bad).validate()
    # An explicit controlled set is checked whatever the adversary.
    for adversary in ("honest", "random-always"):
        for controlled in ("a", "9", "1;2;3", "1;x"):
            with pytest.raises(InvalidParamsError):
                cfg(adversary=adversary, controlled=controlled).validate()
    # So is the lie plan.
    for adversary in ("honest", "random-always", "symmetrization"):
        for plan in ("lie,maybe", "always", "Consistent"):
            with pytest.raises(InvalidParamsError, match="bad lie plan"):
                cfg(adversary=adversary, lie_plan=plan).validate()


def test_assignment_feasibility_rules():
    assert assignment_feasible("cyclic", 5, 6, 3) == (True, "")
    ok, reason = assignment_feasible("cyclic", 5, 1, 3)
    assert not ok and "idle" in reason
    ok, _ = assignment_feasible("fractional", 5, 6, 3)
    assert not ok
    ok, _ = assignment_feasible("random", 6, 1, 3)
    assert not ok


def test_controlled_set_rules():
    from byzgrad.harness import resolve_controlled

    assert resolve_controlled(cfg(controlled="first")) == (0, 1)
    assert resolve_controlled(cfg(controlled="last")) == (3, 4)
    assert resolve_controlled(cfg(controlled="2;5")) == (1, 4)
    auto = resolve_controlled(cfg(controlled="random", seed=9))
    assert len(auto) == 2 and all(0 <= j < 5 for j in auto)
    with pytest.raises(InvalidParamsError):
        resolve_controlled(cfg(controlled="1;2;3"))  # more than s
    with pytest.raises(InvalidParamsError):
        resolve_controlled(cfg(controlled="9"))


# single runs --------------------------------------------------------------------


def test_honest_simulation_metrics():
    out = run_simulation(cfg())
    m = out.metrics
    assert m.correct
    assert (m.c, m.c_oh, m.downlink_bits) == (0, 0, 0)
    assert m.eliminated == ()
    assert m.bound_violations() == []


def test_full_redundancy_simulation():
    out = run_simulation(cfg(n=6, s=2, u=3, p=4, adversary="random-always"))
    m = out.metrics
    assert m.correct
    assert (m.rounds, m.c, m.c_oh) == (0, 0, 0)
    assert out.result.outcome == "ecc"


def test_adversarial_simulation_correct_and_bounded():
    for name in ("random-always", "random-initial-only", "random-coin",
                 "tournament-liar", "symmetrization"):
        for seed in range(5):
            out = run_simulation(cfg(adversary=name, seed=seed))
            assert out.metrics.correct, (name, seed)
            assert out.metrics.bound_violations() == [], (name, seed)


def test_simulation_deterministic_bytes(tmp_path):
    c = cfg(adversary="tournament-liar", seed=5)
    paths = []
    for run in range(2):
        out = run_simulation(c)
        path = tmp_path / f"t{run}.jsonl"
        write_transcript(out.result, str(path))
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]
    assert run_simulation(c).metrics == run_simulation(c).metrics


def test_csv_schema():
    assert METRICS_HEADER == (
        "n,s,u,p,d,q,assignment,adversary,seed,correct,c,C_oh,rounds,"
        "downlink_bits,eliminated"
    )
    out = run_simulation(cfg(adversary="random-always", seed=1, controlled="first"))
    row = out.metrics.csv_row()
    fields = row.split(",")
    assert len(fields) == 15
    assert fields[0] == "5" and fields[9] in ("true", "false")


def test_assignment_file_kind(tmp_path):
    from byzgrad.assignment import assignment_to_text, make_cyclic

    path = tmp_path / "a.txt"
    path.write_text(assignment_to_text(make_cyclic(5, 6, 3), 3))
    out = run_simulation(cfg(assignment="file", assignment_path=str(path)))
    assert out.metrics.correct


def test_an_instance_builds_its_encoding_once(tmp_path, monkeypatch):
    # W is fixed by the code and the assignment, so runs of one instance,
    # read from a file or generated, share one build.
    from byzgrad.assignment import assignment_to_text, make_cyclic

    builds = []
    build = coding.build_encoding_matrix

    def counted(*args):
        builds.append(1)
        return build(*args)

    for module in (coding, protocol, harness):
        monkeypatch.setattr(module, "build_encoding_matrix", counted)
    protocol._all_one_encoding.cache_clear()
    path = tmp_path / "a.txt"
    path.write_text(assignment_to_text(make_cyclic(5, 6, 3), 3))
    file_config = cfg(assignment="file", assignment_path=str(path), adversary="tournament-liar")
    for seed in range(5):
        assert run_simulation(dataclasses.replace(file_config, seed=seed)).metrics.correct
    assert len(builds) == 1
    builds.clear()
    for seed in range(2):
        assert run_simulation(cfg(n=6, adversary="tournament-liar", seed=seed)).metrics.correct
    assert len(builds) == 1


def test_grid_skips_infeasible_rows():
    items = list(
        grid_configs(
            ns=[5], ss=[1], us="auto", ps=[1, 6], ds=[1],
            assignments=["cyclic"], adversaries=["honest"], seeds=1, q=101,
        )
    )
    skipped = [i for i in items if not isinstance(i, SimulationConfig)]
    configs = [i for i in items if isinstance(i, SimulationConfig)]
    assert len(skipped) == 2  # p=1 infeasible for rho 2 and 3
    assert all(c.p == 6 for c in configs)


def test_small_sweep_all_correct():
    items = list(
        grid_configs(
            ns=[4, 5], ss=[1], us="auto", ps=[4], ds=[1, 2],
            assignments=["cyclic", "random"],
            adversaries=["honest", "random-always"],
            seeds=3, q=101,
        )
    )
    report = run_sweep(items)
    assert report.rows
    assert report.violations() == []
    assert "violations: 0" in report.summary()


def test_sweep_parallel_matches_sequential():
    items = list(
        grid_configs(
            ns=[5, 6], ss=[1, 2], us="auto", ps=[4], ds=[1],
            assignments=["cyclic"], adversaries=["random-always"],
            seeds=4, q=101,
        )
    )
    seq = run_sweep(items, jobs=1)
    par = run_sweep(items, jobs=2)
    assert [m.csv_row() for m in seq.rows] == [m.csv_row() for m in par.rows]


def test_empty_grid_empty_report():
    report = run_sweep(grid_configs(
        ns=[], ss=[1], us="auto", ps=[4], ds=[1],
        assignments=["cyclic"], adversaries=["honest"], seeds=1, q=101,
    ))
    assert report.rows == [] and report.skipped == []
    assert report.violations() == []


def test_explicit_u_out_of_range_flagged():
    items = list(grid_configs(
        ns=[4], ss=[1], us=[3], ps=[4], ds=[1],
        assignments=["cyclic"], adversaries=["honest"], seeds=1, q=101,
    ))
    assert len(items) == 1
    assert not isinstance(items[0], SimulationConfig)
    assert "u <= s+1" in items[0].reason


def test_auto_u_without_a_feasible_value_flagged():
    # n <= s leaves no u in 1..min(s+1, n-s): the combination is skipped, not dropped.
    items = list(grid_configs(
        ns=[3, 4], ss=[3], us="auto", ps=[4], ds=[1],
        assignments=["cyclic"], adversaries=["honest"], seeds=1, q=101,
    ))
    assert [type(item) for item in items] == [SkippedRow, SimulationConfig]
    assert items[0].params == {"n": 3, "s": 3, "u": 1}
    assert "n >= s+u" in items[0].reason
    assert (items[1].n, items[1].u) == (4, 1)


# transcripts and replay ------------------------------------------------------------


@pytest.mark.parametrize(
    "adversary", ["honest", "random-always", "random-initial-only", "tournament-liar",
                  "symmetrization"]
)
def test_replay_reproduces_gradient(tmp_path, adversary):
    for seed in range(3):
        out = run_simulation(cfg(adversary=adversary, seed=seed, d=2))
        path = tmp_path / f"{adversary}_{seed}.jsonl"
        write_transcript(out.result, str(path))
        assert replay_transcript(str(path)) == out.result.gradient


def test_replay_covers_ecc_path(tmp_path):
    out = run_simulation(cfg(n=6, s=2, u=3, p=4, adversary="random-always"))
    path = tmp_path / "ecc.jsonl"
    write_transcript(out.result, str(path))
    assert replay_transcript(str(path)) == out.result.gradient


def test_replay_covers_shuffled_grouping(tmp_path):
    for seed in range(4):
        out = run_simulation(
            cfg(adversary="random-always", grouping="shuffled", seed=seed)
        )
        assert out.metrics.correct
        path = tmp_path / f"shuffled{seed}.jsonl"
        write_transcript(out.result, str(path))
        assert replay_transcript(str(path)) == out.result.gradient


def test_replay_builds_no_encoding_matrix(tmp_path, monkeypatch):
    # The main node's leaf check reads W's row from the closed form, so
    # replay, which runs only the main node, never builds W.
    outs = {
        "liar": run_simulation(cfg(adversary="tournament-liar", seed=2)),
        "shuffled": run_simulation(
            cfg(adversary="tournament-liar", grouping="shuffled", seed=1)
        ),
        "ecc": run_simulation(cfg(n=6, s=2, u=3, p=4, adversary="random-always")),
    }
    kinds = {name: {ev["event"] for ev in out.result.transcript.events} for name, out in outs.items()}
    assert "match_level" in kinds["liar"] and "match_level" in kinds["shuffled"]
    assert outs["ecc"].result.outcome == "ecc"
    for name, out in outs.items():
        write_transcript(out.result, str(tmp_path / f"{name}.jsonl"))

    def no_build(*args, **kwargs):
        raise AssertionError("replay built the encoding matrix")

    for module in (coding, protocol, harness):
        monkeypatch.setattr(module, "build_encoding_matrix", no_build)
    for name, out in outs.items():
        assert replay_transcript(str(tmp_path / f"{name}.jsonl")) == out.result.gradient


def _jsonl(events) -> str:
    return "".join(json.dumps(ev, separators=(",", ":")) + "\n" for ev in events)


def test_replay_rejects_an_assignment_with_an_idle_worker(tmp_path):
    # Moving each of worker 6's samples to the lowest worker without it keeps
    # every column at s+u = 3 holders but leaves worker 6 idle. No leaf is
    # checked on an honest run, so only the regularity check can refuse it.
    out = run_simulation(cfg(n=6, s=2, u=1, p=12, d=2, seed=5))
    events = copy.deepcopy(out.result.transcript.events)
    a_mat, rho = assignment_from_text(events[0]["assignment"])
    bits = [list(row) for row in a_mat.bits]
    for i in range(a_mat.p):
        if bits[5][i]:
            lowest = next(j for j in range(5) if not bits[j][i])
            bits[lowest][i], bits[5][i] = 1, 0
    moved = AssignmentMatrix(a_mat.n, a_mat.p, tuple(map(tuple, bits)))
    assert all(column_sum(moved, i) == rho for i in range(moved.p))
    assert row_sum(moved, 5) == 0 and not validate_regular(moved, rho)
    events[0]["assignment"] = harness.assignment_to_text(moved, rho)
    path = tmp_path / "idle.jsonl"
    path.write_text(_jsonl(events))
    with pytest.raises(TranscriptReplayError, match="assignment is not regular"):
        replay_transcript(str(path))


@pytest.mark.parametrize(
    "field, value, message",
    [("u", 2, "assignment replication disagrees with header"),  # s+u = 4, not 3
     ("eval_points", [1, 1, 2, 3, 4, 5], "evaluation points must be distinct and nonzero")],
)
def test_replay_rejects_a_header_that_builds_no_instance(tmp_path, field, value, message):
    out = run_simulation(cfg(n=6, s=2, u=1, p=12, d=2, seed=5))
    events = copy.deepcopy(out.result.transcript.events)
    events[0][field] = value
    path = tmp_path / "bad.jsonl"
    path.write_text(_jsonl(events))
    with pytest.raises(TranscriptReplayError, match=message):
        replay_transcript(str(path))


def test_replay_detects_tampering(tmp_path):
    out = run_simulation(cfg(adversary="tournament-liar", seed=2))
    path = tmp_path / "t.jsonl"
    write_transcript(out.result, str(path))
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        ev = json.loads(line)
        if ev["event"] == "response_set" and ev["kind"] == "initial":
            ev["values"][0][0] = (ev["values"][0][0] + 1) % 101
            lines[i] = json.dumps(ev)
            break
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TranscriptReplayError):
        replay_transcript(str(path))


def test_replay_rejects_shuffled_group_of_eliminated_worker(tmp_path):
    out = run_simulation(
        cfg(n=6, s=2, u=1, p=9, adversary="tournament-liar", grouping="shuffled", seed=0)
    )
    events = copy.deepcopy(out.result.transcript.events)
    decodes = [ev for ev in events if ev["event"] == "decode"]
    gone = next(ev for ev in events if ev["event"] == "elimination")["workers"][0]
    assert len(decodes) == 2
    groups = decodes[1]["groups"]
    root = set(groups[0]).intersection(*groups[1:])
    # Swap the last group's satellite for the worker eliminated in round 1.
    groups[-1] = sorted(root | {gone})
    path = tmp_path / "shuffled.jsonl"
    path.write_text("".join(json.dumps(ev) + "\n" for ev in events))
    with pytest.raises(TranscriptReplayError, match="active"):
        replay_transcript(str(path))


def test_read_events_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"event": "start", "n": 5\n')
    with pytest.raises(TranscriptReplayError):
        read_events(str(path))


def test_read_events_rejects_non_ascii(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes('{"event": "start", "label": "\u00e9"}\n'.encode("utf-8"))
    with pytest.raises(TranscriptReplayError):
        read_events(str(path))


def test_read_events_rejects_non_event_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('[1, 2]\n')
    with pytest.raises(TranscriptReplayError):
        read_events(str(path))


def test_replay_accepts_start_label_named_self(tmp_path):
    out = run_simulation(cfg(adversary="tournament-liar", seed=1))
    events = copy.deepcopy(out.result.transcript.events)
    events[0]["self"] = 1
    path = tmp_path / "t.jsonl"
    path.write_text("".join(json.dumps(ev) + "\n" for ev in events))
    assert replay_transcript(str(path)) == out.result.gradient


@pytest.mark.parametrize("depth, leaf", [(600, "true"), (100_000, "1")])
def test_replay_rejects_deeply_nested_label(tmp_path, depth, leaf):
    out = run_simulation(cfg(adversary="tournament-liar", seed=1))
    lines = [json.dumps(ev) for ev in out.result.transcript.events]
    lines[0] = lines[0][:-1] + ', "label": ' + "[" * depth + leaf + "]" * depth + "}"
    path = tmp_path / "t.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(TranscriptReplayError):
        replay_transcript(str(path))


@pytest.mark.parametrize(
    "field, value",
    [("assignment", ["5 6 3"]), ("n", "5"), ("q", 101.0), ("d", True),
     ("eval_points", [1, 2, "3", 4, 5]), ("eval_points", None)],
)
def test_replay_rejects_mistyped_header(tmp_path, field, value):
    out = run_simulation(cfg(adversary="tournament-liar", seed=1))
    events = copy.deepcopy(out.result.transcript.events)
    events[0][field] = value
    path = tmp_path / "t.jsonl"
    path.write_text("".join(json.dumps(ev) + "\n" for ev in events))
    with pytest.raises(TranscriptReplayError):
        replay_transcript(str(path))


@pytest.mark.parametrize("kind, field, value", [("decode", "t", True), ("final", "rounds", 2.0)])
def test_replay_rejects_same_value_retyping(tmp_path, kind, field, value):
    out = run_simulation(cfg(adversary="tournament-liar", seed=1))
    events = copy.deepcopy(out.result.transcript.events)
    ev = next(ev for ev in events if ev["event"] == kind)
    assert ev[field] == value
    ev[field] = value
    path = tmp_path / "t.jsonl"
    path.write_text("".join(json.dumps(ev) + "\n" for ev in events))
    with pytest.raises(TranscriptReplayError):
        replay_transcript(str(path))


# Fields a replay may not pin down: worker answers (which may decide nothing,
# e.g. at a coordinate no match looks at) and the run's descriptive labels.
FREE_FIELDS = {
    ("response_set", "values"),
    ("local_compute", "value"),
    ("start", "adversary"),
    ("start", "assignment_kind"),
    ("start", "seed"),
}


def _paths(value, path=()):
    """Paths to every field, list item and nested item of an event."""
    if path:
        yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for idx, item in enumerate(value):
            yield from _paths(item, path + (idx,))


def _changed(rng, old):
    """A different value of the same JSON type."""
    if isinstance(old, int):
        return old + rng.choice([1, -1, 2, 101, rng.randrange(1, 10**6)])
    if isinstance(old, str):
        bits = [k for k, ch in enumerate(old) if ch in "01"]
        if bits and rng.random() < 0.5:
            k = rng.choice(bits)
            return old[:k] + "10"[int(old[k])] + old[k + 1:]
        return rng.choice([old + "x", ""])
    if old is None:
        return 0
    return old + [old[-1]] if old else [1]


def _mutate(rng, events):
    """One field of one event deleted, changed in value, or changed in type.

    A type change may keep the value: an int becomes the float of the same
    value, and 0/1 may become false/true.
    """
    events = copy.deepcopy(events)
    k = rng.randrange(len(events))
    kind = events[k]["event"]
    path = rng.choice(list(_paths(events[k])))
    parent = events[k]
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    op = rng.randrange(4)
    if op == 0:
        del parent[path[-1]]
    elif op == 1:
        parent[path[-1]] = _changed(rng, old)
    elif op == 3 and type(old) is int:
        parent[path[-1]] = bool(old) if old in (0, 1) and rng.random() < 0.5 else float(old)
    else:
        parent[path[-1]] = [old] if isinstance(old, str) else str(old)
    return events, (kind, path[0])


def test_replay_mutation_fuzz(tmp_path, monkeypatch):
    rng = random.Random(2024)
    path = tmp_path / "m.jsonl"
    outcomes = {"rejected": 0, "accepted": 0}
    touched = set()
    # Every int-list check replay makes must agree with the set-and-min/max form.
    is_int_list, verdicts = harness._is_int_list, []

    def compared(value, length=None, q=None):
        verdict = is_int_list(value, length, q)
        assert verdict == set_is_int_list(value, length, q), (value, length, q)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(harness, "_is_int_list", compared)
    # One run per ending: two liars end in the errors-and-erasures decode,
    # one liar in a second-round agreement; 1,000 mutations of each.
    for controlled in ("random", "1"):
        out = run_simulation(cfg(n=6, s=2, u=1, p=9, d=2, q=101,
                                 adversary="tournament-liar", controlled=controlled))
        recorded = out.result.transcript.events
        for _ in range(1000):
            events, (kind, field) = _mutate(rng, recorded)
            path.write_text(_jsonl(events))
            try:
                gradient = replay_transcript(str(path))
            except TranscriptReplayError:
                outcomes["rejected"] += 1
            else:
                outcomes["accepted"] += 1
                assert gradient == out.result.gradient
                assert (kind, field) in FREE_FIELDS, (kind, field)
            touched.add(kind)
    assert touched >= {
        "start", "query", "response_set", "decode", "conflict", "match_level",
        "local_compute", "elimination", "ecc_decode", "agreement", "final",
    }
    assert outcomes["rejected"] > 1500 and outcomes["accepted"] > 0
    assert verdicts.count(False) > 100 and verdicts.count(True) > 10_000


Q = 101
INT_LIST_CASES = [
    ([1, 2, 3], None, None, True),
    ([], None, None, True),
    ([], 0, Q, True),
    ([], 1, Q, False),
    ([0, Q - 1], 2, Q, True),
    ([0, Q], 2, Q, False),
    ([-1, 5], 2, Q, False),
    ([-1, 5], 2, None, True),
    ([Q, 10**30], None, None, True),
    ([1, True], 2, Q, False),
    ([False], None, None, False),
    ([1, 2.0], 2, Q, False),
    ([1.0], None, None, False),
    ([[1], 2], 2, Q, False),
    ([[1, 2]], None, None, False),
    ([1, "2"], 2, Q, False),
    ([1, None], None, None, False),
    ((1, 2), 2, Q, False),
    ("12", None, None, False),
    (None, None, None, False),
    ([1, 2, 3], 2, Q, False),
    ([Q - 1] * 19, 19, Q, True),
    ([0] * 18 + [Q], 19, Q, False),
    ([0] * 18 + [True], 19, None, False),
]


@pytest.mark.parametrize("value,length,q,verdict", INT_LIST_CASES)
def test_is_int_list_edge_values(value, length, q, verdict):
    assert harness._is_int_list(value, length, q) is verdict
    assert set_is_int_list(value, length, q) is verdict


START, FINAL = b'{"event":"start","n":5}', b'{"event":"final","rounds":2}'

READER_EDGE_CASES = {
    "crlf": START + b"\r\n" + FINAL + b"\r\n",
    "lone cr": START + b"\r" + FINAL + b"\r",
    "crlf, error at the line end": b'{"event":"start",\r\n' + FINAL + b"\r\n",
    "no final newline": START + b"\n" + FINAL,
    "no final newline, error at the end": START + b'\n{"event":"final"',
    "blank lines": b"\n" + START + b"\n\n\n" + FINAL + b"\n\n",
    "whitespace-only lines": b" \n\t\n" + START + b"\n\x0c\n \x0b\x1c \n" + FINAL + b"\n",
    "json whitespace around a value": b" \t" + START + b" \t\n" + FINAL + b"\n",
    "form feed inside a line": b'{"event":\x0c"start"}\n',
    "vertical tab at a line end": START + b"\x0b\n" + FINAL + b"\n",
    "file separator at the file end": START + b"\n" + FINAL + b"\x1c",
    "file separator before a value": b"\x1c" + START + b"\n",
    "extra data": START + b" " + FINAL + b"\n",
    "extra data, no space": START + b"x\n",
    "nan": b'{"event":"start","x":NaN}\n',
    "infinity": b'{"event":"start","x":-Infinity}\n',
    "float": b'{"event":"start","x":1.5}\n',
    "exponent": b'{"event":"start","x":1e3}\n',
    "true nested deep": START + b'\n{"event":"x","y":[[{"z":[1,[true]]}]]}\n',
    "false at the top": START + b'\n{"event":"x","y":false}\n',
    "true inside a string": b'{"event":"true","label":"false, true"}\n',
    "unterminated string": b'{"event":"sta\n',
    "nesting past the recursion limit": b'{"event":"start","x":' + b"[" * 100_000 + b"]" * 100_000
    + b"}\n",
    "non-ascii byte": '{"event":"start","label":"\u00e9"}\n'.encode("utf-8"),
    "non-ascii byte past the first chunk": (START + b"\n") * 1000
    + '{"event":"\u00e9"}\n'.encode("utf-8"),
    "empty file": b"",
    "not an object": b"[1, 2]\n",
    "bad json after a non-object": b"[1]\n{bad\n",
    "no event name": b'{"n":5}\n',
    # As one JSON array these lines would parse to three objects: the first
    # event is split over two lines and the third line holds two.
    "joined array": b'{"event":"start"\n"n":5}\n{"event":"a"},{"event":"b"}\n',
}

READER_ACCEPTS = {
    "crlf", "lone cr", "no final newline", "blank lines", "whitespace-only lines",
    "json whitespace around a value", "true inside a string", "empty file",
}


@pytest.mark.parametrize("name", READER_EDGE_CASES)
def test_read_events_edge_cases(tmp_path, name):
    # Each line holds one JSON object with an event name, and nothing else.
    path = tmp_path / "edge.jsonl"
    path.write_bytes(READER_EDGE_CASES[name])
    if name in READER_ACCEPTS:
        events = read_events(str(path))
        assert all(type(ev) is dict and type(ev["event"]) is str for ev in events)
    else:
        with pytest.raises(TranscriptReplayError):
            read_events(str(path))


def test_joined_lines_would_accept_what_the_reader_rejects():
    text = READER_EDGE_CASES["joined array"].decode("ascii")
    lines = [line for line in text.split("\n") if line.strip()]
    assert len(json.loads("[" + ",".join(lines) + "]")) == len(lines)


# CLI --------------------------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 5, 7, 257, 2**31 - 1, 2**61 - 1, 2**64 + 13])
def test_gradient_draw_matches_randrange(q):
    # The gradient draw and both adversary draws give randrange's values and
    # leave the rng in randrange's state.
    for seed in range(3):
        ref = random.Random(f"{seed}:gradients")
        rng = random.Random(f"{seed}:gradients")
        assert draw_below(rng, q, 500) == [ref.randrange(q) for _ in range(500)]
        assert rng.getstate() == ref.getstate()
        strategy = adversary.AdversaryStrategy(seed=seed)
        strategy.ctx = types.SimpleNamespace(q=q)  # the draws read only q
        ref = random.Random(f"{seed}:adversary")
        for d in (1, 3, 1, 8):
            want = [0] * d
            while not any(want):
                want = [ref.randrange(q) for _ in range(d)]
            assert strategy._nonzero_vector(d) == want
            assert strategy._nonzero_scalar() == ref.randrange(1, q)
        assert strategy.rng.getstate() == ref.getstate()


@pytest.mark.parametrize("p,d", [(6, 1), (16, 3), (16, 4), (64, 5), (4, 4096)])
def test_one_gradient_draw_equals_a_draw_per_row(p, d):
    # run_simulation draws all d·p values at once, below and above the bulk
    # cutover: the rows are those of d draws of p values in turn, as the
    # honest initial responses G @ W and the true gradient show.
    config = SimulationConfig(n=5, s=2, u=1, p=p, d=d, seed=11)
    out = run_simulation(config)
    ref = random.Random(f"{config.seed}:gradients")
    rows = [loop_draw_below(ref, config.q, p) for _ in range(d)]
    ctx = coding.build_code_context(5, 2, 1, config.q)
    enc = coding.build_encoding_matrix(ctx, harness.make_cyclic(5, p, 3))
    initial = next(ev for ev in out.result.transcript.events if ev["event"] == "response_set")
    assert initial["values"] == transpose(dense_response_matrix(ctx, rows, enc))
    assert out.truth == [sum(row) % config.q for row in rows] == out.result.gradient


def test_cli_simulate_writes_outputs(tmp_path, capsys):
    rc = cli_main([
        "simulate", "--n", "3", "--s", "1", "--u", "1", "--p", "3", "--d", "1",
        "--q", "7", "--assignment", "cyclic", "--adversary", "tournament-liar",
        "--controlled", "3", "--seed", "1", "--out", str(tmp_path),
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert METRICS_HEADER in captured.out
    files = os.listdir(tmp_path)
    assert any(f.endswith(".jsonl") for f in files)
    assert any(f.endswith(".csv") for f in files)


def test_cli_simulate_has_a_flag_for_every_config_field(monkeypatch):
    # _build_config reads the argparse values named after SimulationConfig
    # fields, so each field needs a simulate flag with that destination.
    from byzgrad import cli

    seen = []
    monkeypatch.setattr(cli, "cmd_simulate", lambda args: seen.append(args) or 0)
    want = {
        name: i + 2 if name in harness._INT_FIELDS else f"v{i}"
        for i, name in enumerate(SimulationConfig.__dataclass_fields__)
    }
    argv = ["simulate"]
    for name, value in want.items():
        argv += [f"--{name.replace('_', '-')}", str(value)]
    assert cli_main(argv) == 0
    (args,) = seen
    assert {name: getattr(args, name) for name in want} == want
    assert dataclasses.asdict(cli._build_config(args)) == want


def test_cli_simulate_config_file_with_overrides(tmp_path):
    config = {"n": 5, "s": 2, "u": 1, "p": 6, "q": 101, "adversary": "honest"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    rc = cli_main([
        "simulate", "--config", str(cfg_path), "--adversary", "random-always",
        "--seed", "3", "--out", str(tmp_path),
    ])
    assert rc == 0


def test_cli_simulate_invalid_config_errors(capsys):
    rc = cli_main(["simulate", "--n", "3", "--s", "1", "--u", "5", "--p", "3"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_sweep_and_replay(tmp_path, capsys):
    rc = cli_main([
        "sweep", "--n", "4-5", "--s", "1", "--u", "auto", "--p", "4",
        "--d", "1", "--assignments", "cyclic", "--adversaries",
        "honest,random-always", "--seeds", "2", "--q", "101",
        "--jobs", "1", "--out", str(tmp_path),
    ])
    assert rc == 0
    csv_path = tmp_path / "sweep.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) > 1
    capsys.readouterr()
    # replay a fresh simulate transcript through the CLI
    rc = cli_main([
        "simulate", "--n", "5", "--s", "2", "--u", "1", "--p", "6", "--q", "101",
        "--adversary", "random-always", "--seed", "0", "--out", str(tmp_path),
        "--transcript", str(tmp_path / "r.jsonl"),
    ])
    assert rc == 0
    capsys.readouterr()
    rc = cli_main(["replay", str(tmp_path / "r.jsonl")])
    assert rc == 0
    assert "replayed gradient" in capsys.readouterr().out


def test_cli_replay_reports_unreadable_path(tmp_path, capsys):
    rc = cli_main(["replay", str(tmp_path / "missing.jsonl")])
    assert rc == 1
    assert "replay failed:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case", ["bad_json", "json_list", "missing_config", "bad_range", "missing_assignment"]
)
def test_cli_rejects_malformed_input(tmp_path, capsys, case):
    instance = ["--n", "5", "--s", "2", "--u", "1", "--p", "6", "--q", "101"]
    config = tmp_path / "cfg.json"
    if case == "bad_json":
        config.write_text('{"n": 5,')
    elif case == "json_list":
        config.write_text("[5, 2, 1, 6]")
    argv = {
        "bad_json": ["simulate", "--config", str(config)],
        "json_list": ["simulate", "--config", str(config)],
        "missing_config": ["simulate", "--config", str(tmp_path / "none.json")],
        "bad_range": ["sweep", "--n", "4-x", "--s", "1", "--p", "4", "--jobs", "1"],
        "missing_assignment": [
            "simulate", *instance, "--assignment", "file",
            "--assignment-path", str(tmp_path / "none.txt"),
        ],
    }[case]
    rc = cli_main([*argv, "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_rejects_deeply_nested_config(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text('{"n": 5, "s": 2, "u": 1, "p": 6, "seed": ' + "[" * 100_000 + "]" * 100_000 + "}")
    rc = cli_main(["simulate", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config {config}")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--out", "{file}"],
        ["simulate", "--transcript", "{missing}/r.jsonl"],
        ["simulate", "--save-assignment", "{missing}/a.txt"],
        ["sweep", "--n", "5", "--s", "2", "--p", "6", "--seeds", "1", "--jobs", "1",
         "--out", "{file}"],
    ],
    ids=["simulate_out_is_file", "transcript_dir_missing", "save_assignment_dir_missing",
         "sweep_out_is_file"],
)
def test_cli_reports_unwritable_output(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # outputs not named in argv go to the working directory
    instance = ["--n", "5", "--s", "2", "--u", "1", "--p", "6", "--q", "101"]
    (tmp_path / "file").write_text("")
    argv = [a.format(file=tmp_path / "file", missing=tmp_path / "missing") for a in argv]
    if argv[0] == "simulate":
        argv += [*instance, "--metrics", str(tmp_path / "m.csv")]
    else:
        # The sweep checks its output before the grid runs: no run may start.
        def no_run(config):
            raise AssertionError("a sweep run started before --out was checked")

        monkeypatch.setattr(harness, "run_simulation", no_run)
    rc = cli_main(argv)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--adversaries", "honest,nonsens"], "unknown adversary 'nonsens'"),
        (["--d", "1,0"], "need p >= 1 and d >= 1"),
        (["--q", "4"], "q must be prime, got 4"),
        (["--grouping", "bogus"], "unknown grouping mode 'bogus'"),
        (["--assignments", "cyclic,file"], "assignment 'file' needs assignment_path"),
        (["--n", "8-4"], "bad integer list '8-4': descending range 8-4"),
        (["--seeds", "0"], "need --seeds >= 1, got 0"),
        (["--seeds", "-3"], "need --seeds >= 1, got -3"),
    ],
    ids=["adversary", "d", "q", "grouping", "assignment", "descending-range", "no-seeds",
         "negative-seeds"],
)
def test_cli_sweep_rejects_bad_grid_before_writing(tmp_path, capsys, monkeypatch, flags, message):
    def no_run(config):
        raise AssertionError("a sweep run started before the grid was validated")

    monkeypatch.setattr(harness, "run_simulation", no_run)
    previous = tmp_path / "sweep.csv"
    previous.write_bytes(b"an earlier sweep\n")
    rc = cli_main([
        "sweep", "--n", "5", "--s", "2", "--p", "6", "--seeds", "2", "--jobs", "1",
        "--out", str(tmp_path), *flags,
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert previous.read_bytes() == b"an earlier sweep\n"


def test_cli_save_assignment_writes_the_run_assignment(tmp_path, capsys):
    instance = ["--n", "7", "--s", "2", "--u", "1", "--p", "9", "--d", "2", "--q", "101"]
    saved, first, second = tmp_path / "a.txt", tmp_path / "1.jsonl", tmp_path / "2.jsonl"
    rc = cli_main([
        "simulate", *instance, "--assignment", "random", "--adversary", "random-always",
        "--seed", "5", "--out", str(tmp_path), "--transcript", str(first),
        "--save-assignment", str(saved),
    ])
    assert rc == 0
    start = read_events(str(first))[0]
    assert saved.read_text(encoding="ascii") == start["assignment"]
    rc = cli_main([
        "simulate", *instance, "--assignment", "file", "--assignment-path", str(saved),
        "--adversary", "random-always", "--seed", "5", "--out", str(tmp_path),
        "--transcript", str(second),
    ])
    assert rc == 0
    events = read_events(str(second))
    assert events[0]["assignment"] == start["assignment"]
    assert events[-1]["gradient"] == read_events(str(first))[-1]["gradient"]


def test_cli_verify_subcommand(capsys):
    # The two certificates that build a general query's W report exactly this.
    reports = {
        "lemma2": "[PASS] encoding matrix zero pattern and span: 56 cases, 0 failures\n",
        "restriction": "[PASS] mask restriction equals rebuilt encoding: 500 cases, 0 failures\n",
    }
    for which in ("lemma3", *reports):
        rc = cli_main(["verify", which])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("[PASS]")
        assert out == reports.get(which, out)


def test_cli_seed_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BYZGRAD_SEED", "7")
    rc = cli_main([
        "simulate", "--n", "5", "--s", "2", "--u", "1", "--p", "6", "--q", "101",
        "--adversary", "honest", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert ",7,true," in capsys.readouterr().out
    # A malformed default is bad input like any other, not a traceback.
    monkeypatch.setenv("BYZGRAD_SEED", "abc")
    bad_out = tmp_path / "bad"
    rc = cli_main([
        "simulate", "--n", "3", "--s", "1", "--u", "1", "--p", "3", "--q", "7",
        "--out", str(bad_out),
    ])
    assert rc == 2
    assert capsys.readouterr().err == "error: BYZGRAD_SEED must be an integer, got 'abc'\n"
    assert not bad_out.exists()


class ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone, as under `| head`: every write raises."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("violated", [False, True])
def test_cli_sweep_exits_quietly_on_a_closed_stdout(tmp_path, capsys, monkeypatch, violated):
    # p=1 leaves workers idle at n=5..8, so the sweep prints skipped rows first.
    argv = [
        "sweep", "--n", "4-8", "--s", "1-2", "--u", "auto", "--p", "1,4", "--d", "1",
        "--assignments", "cyclic", "--adversaries", "honest", "--seeds", "1", "--jobs", "1",
    ]
    if violated:  # the exit status a failed bound gives must survive the closed pipe
        monkeypatch.setattr(
            harness.SweepReport, "violations", lambda self: [(self.rows[0], "forced")]
        )
    rc_open = cli_main([*argv, "--out", str(tmp_path / "open")])
    assert "skipped" in capsys.readouterr().out
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    rc = cli_main([*argv, "--out", str(tmp_path / "closed")])
    assert rc == rc_open == (1 if violated else 0)
    err = capsys.readouterr().err
    assert all(line.startswith("violation: ") for line in err.splitlines())
    sweeps = [(tmp_path / out / "sweep.csv").read_bytes() for out in ("open", "closed")]
    assert sweeps[0] == sweeps[1]


def run_cli(*argv, hash_seed, **popen):
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "byzgrad.cli", *argv], env=env, **popen)


@pytest.mark.parametrize("command", ["sweep", "simulate", "replay", "verify"])
def test_cli_into_a_closed_pipe_exits_zero(tmp_path, command):
    # The reader closes before the command prints: the child's write fails, its
    # stdout is pointed at /dev/null, and the exit flush does not fail again.
    simulate = [
        "simulate", "--n", "5", "--s", "1", "--u", "1", "--p", "4", "--q", "101",
        "--out", str(tmp_path), "--transcript", str(tmp_path / "run.jsonl"),
    ]
    argv = {
        "sweep": [
            "sweep", "--n", "4-8", "--s", "1-2", "--u", "auto", "--p", "1", "--d", "1",
            "--adversaries", "honest", "--seeds", "1", "--jobs", "1", "--out", str(tmp_path),
        ],
        "simulate": simulate,
        "replay": ["replay", str(tmp_path / "run.jsonl")],
        "verify": ["verify", "lemma3"],
    }[command]
    if command == "replay":
        assert cli_main(simulate) == 0
    proc = run_cli(*argv, hash_seed=0, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_cli_sweep_csv_is_byte_identical_across_hash_seeds_and_jobs(tmp_path):
    # Shuffled grouping, every adversary family and all three assignment kinds.
    grid = [
        "sweep", "--n", "4-6", "--s", "1-2", "--u", "auto", "--p", "1,4,9", "--d", "1,2",
        "--assignments", "cyclic,fractional,random", "--seeds", "2", "--q", "101",
        "--adversaries", "honest,random-always,random-coin,tournament-liar,symmetrization",
        "--grouping", "shuffled",
    ]
    runs = {}
    for hash_seed in (0, 123):
        for jobs in (1, 2):
            out = tmp_path / f"h{hash_seed}-j{jobs}"
            proc = run_cli(*grid, "--jobs", str(jobs), "--out", str(out),
                           hash_seed=hash_seed, stdout=subprocess.DEVNULL)
            assert proc.wait(timeout=120) == 0
            runs[hash_seed, jobs] = (out / "sweep.csv").read_bytes()
    first = runs[0, 1]
    assert first.count(b"\n") == 1461
    assert all(csv == first for csv in runs.values())
