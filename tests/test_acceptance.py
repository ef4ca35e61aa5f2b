"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is exact field arithmetic; all equality assertions are
zero-tolerance. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

from byzgrad.adversary import tournament_liar
from byzgrad.assignment import make_cyclic
from byzgrad.checks import (
    check_cauchy_determinant,
    check_errors_and_erasures,
    check_fewer_groups_attackable,
    check_grouping_agreement_sound,
    check_restriction_equivalence,
    check_vandermonde_closed_form,
)
from byzgrad.coding import build_code_context
from byzgrad.harness import (
    SimulationConfig,
    ceil_log2,
    grid_configs,
    resolve_controlled,
    run_simulation,
    run_sweep,
)
from byzgrad.protocol import Query, run_protocol


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_worked_example_identification():
    t0 = time.monotonic()
    ctx = build_code_context(3, 1, 1, 7)
    a_mat = make_cyclic(3, 3, 2)
    gradients = [[2, 3, 4]]
    # Worker 3 commits to a fake value for sample 1 (nonzero initial error)
    # and answers honestly whenever sample 1 is not queried, in particular on
    # any query for sample 2 alone.
    strat = tournament_liar([2], "consistent", seed=1)
    res = run_protocol(ctx, a_mat, gradients, strat)
    elapsed = time.monotonic() - t0
    assert strat._targets[2] == 0
    honest_probe = strat.match_response(2, Query(1, (1, 2), 0), honest=5)
    truth = [(2 + 3 + 4) % 7]
    tr = res.transcript
    ok = (
        res.eliminated == (2,)
        and res.gradient == truth
        and tr.local_computations == 1
        and tr.comm_overhead <= 6
        and honest_probe == 5
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"identified={tuple(j + 1 for j in res.eliminated)} gradient exact, "
        f"c={tr.local_computations} (<=1), C_oh={tr.comm_overhead} (<=6), "
        f"honest on the sample-2 query, {elapsed:.3f}s",
    )


def test_criterion_2_bound_suite_full_grid():
    t0 = time.monotonic()
    items = list(
        grid_configs(
            ns=[4, 5, 6, 7, 8],
            ss=[1, 2, 3],
            us="auto",
            ps=[1, 4, 9, 16],
            ds=[1, 3],
            assignments=["cyclic", "fractional", "random"],
            adversaries=[
                "honest",
                "random-always",
                "random-initial-only",
                "tournament-liar",
            ],
            seeds=20,
        )
    )
    report = run_sweep(items)
    elapsed = time.monotonic() - t0
    incorrect = sum(not m.correct for m in report.rows)
    violations = [v for m in report.rows for v in m.bound_violations()]
    # The bounds are tight: per shape (n, s, u, p), the consistent tournament
    # liar's runs reach s+1-u local computations and rounds and the full C_oh.
    peaks: dict[tuple[int, ...], tuple[int, ...]] = {}
    for m in report.rows:
        cfg = m.config
        if cfg.adversary == "tournament-liar":
            shape = cfg.n, cfg.s, cfg.u, cfg.p
            peaks[shape] = tuple(map(max, peaks.get(shape, (0, 0, 0)), (m.c, m.rounds, m.c_oh)))
    unattained, c_tight, oh_tight = [], 0, 0
    for (n, s, u, p), (c, rounds, c_oh) in sorted(peaks.items()):
        budget = s + 1 - u
        overhead = (n - (s + u) + 2) * budget * ceil_log2(p)
        if (c, rounds, c_oh) != (budget, budget, overhead):
            unattained.append((n, s, u, p))
        c_tight += budget > 0 and c == rounds == budget
        oh_tight += overhead > 0 and c_oh == overhead
    ok = (
        len(report.rows) > 0
        and incorrect == 0
        and not violations
        and not unattained
        and elapsed < 120.0
    )
    _report(
        2,
        ok,
        f"{len(report.rows)} runs ({len(report.skipped)} infeasible combos flagged), "
        f"incorrect={incorrect}, bound violations={len(violations)}, "
        f"{len(peaks)} shapes: c and rounds budget reached in {c_tight}, C_oh bound in "
        f"{oh_tight}, unattained={unattained}, {elapsed:.1f}s (<120s)",
    )


def test_criterion_2_small_fields_with_q_at_most_p():
    # The code needs only q > n, so p may reach q. At q = 7-13 a nonzero
    # deviation cancels in a group's claim with probability about 1/q, so a
    # group holding a corrupted worker can still decode the true gradient;
    # at the default q that path is practically never taken.
    t0 = time.monotonic()
    runs, incorrect, violations, masked = 0, 0, 0, 0
    outcomes: dict[str, int] = {}
    for q in (7, 11, 13):
        for item in grid_configs(
            ns=[n for n in range(4, 9) if n < q],
            ss=[1, 2, 3],
            us="auto",
            ps=[q, q + 1],
            ds=[1, 3],
            assignments=["cyclic", "fractional", "random"],
            adversaries=["honest", "random-always", "random-initial-only", "tournament-liar"],
            seeds=1,
            q=q,
        ):
            if not isinstance(item, SimulationConfig):
                continue
            out = run_simulation(item)
            m = out.metrics
            runs += 1
            incorrect += not m.correct
            violations += len(m.bound_violations())
            outcome = out.result.outcome
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            if item.adversary == "honest":
                continue
            # Each of the other three corrupts every controlled worker's initial response.
            controlled = {j + 1 for j in resolve_controlled(item)}
            masked += any(
                controlled.intersection(group) and claim == out.truth
                for ev in out.result.transcript.events
                if ev["event"] == "decode"
                for group, claim in zip(ev["groups"], ev["values"])
            )
    elapsed = time.monotonic() - t0
    ok = runs == 3632 and incorrect == 0 and violations == 0 and masked > 0
    _report(
        2,
        ok,
        f"small fields: {runs} runs with n < q <= p, incorrect={incorrect}, "
        f"bound violations={violations}, outcomes {sorted(outcomes.items())}, "
        f"{masked} with a corrupted group decoding the truth, {elapsed:.1f}s",
    )


def test_criterion_3_unanimity_soundness_exhaustive():
    res = check_grouping_agreement_sound()
    # 10 + 15 cases: all malicious sets of size 2 for n=5 and n=6.
    ok = res.report() == "[PASS] unanimous groups cannot all be corrupted: 25 cases, 0 failures"
    _report(
        3,
        ok,
        f"{res.cases} malicious sets certified inconsistent by the pivot flag, "
        f"{len(res.failures)} counterexamples",
    )


def test_criterion_4_fewer_groups_always_attackable():
    res = check_fewer_groups_attackable()
    ok = res.report() == (
        "[PASS] one fewer group admits a unanimous lie: 2 cases, 0 failures\n"
        "    note: n=5 s=2 u=1: fixed-support attack fooled 9/50 randomized groupings\n"
        "    note: n=6 s=2 u=2: fixed-support attack fooled 3/50 randomized groupings"
    )
    _report(
        4,
        ok,
        f"{res.cases}/{res.cases} instances: all group responses identical and wrong "
        f"under the constructed corruption",
    )


def test_criterion_5_vandermonde_closed_form_exact():
    res = check_vandermonde_closed_form()
    # 2 moduli * 8 sizes * 200 point sets.
    ok = res.report() == "[PASS] vandermonde inverse closed form: 3200 cases, 0 failures"
    _report(
        5,
        ok,
        f"{res.cases} random point sets, sizes 1..8, two moduli: closed form equals "
        f"full Gaussian inversion entrywise",
    )


def test_criterion_6_cauchy_block_determinant_nonzero():
    res = check_cauchy_determinant()
    # 1000 random tuples, then 11 + 990 + 55440 exhaustive ones for k = 0, 1, 2.
    ok = res.report() == "[PASS] bordered Cauchy determinant nonzero: 57441 cases, 0 failures"
    _report(
        6,
        ok,
        f"{res.cases} tuples (1000 random plus exhaustive small-field): determinant "
        f"never vanished",
    )


def test_criterion_7_errors_and_erasures_paths():
    res = check_errors_and_erasures()
    # 7 identified workers * 6 error positions * 10 nonzero values.
    ok = res.report() == "[PASS] errors-and-erasures decoding, exhaustive: 420 cases, 0 failures"
    immediate = []
    for s in (1, 2, 3):
        config = SimulationConfig(
            n=2 * s + 2, s=s, u=s + 1, p=4, d=1, q=101,
            assignment="random", adversary="random-always", seed=s,
        )
        out = run_simulation(config)
        m = out.metrics
        immediate.append(
            m.correct and (m.rounds, m.c, m.c_oh) == (0, 0, 0)
        )
    ok = ok and all(immediate)
    _report(
        7,
        ok,
        f"{res.cases} exhaustive single-error decodes exact; full-redundancy runs "
        f"terminate with rounds=0, c=0, C_oh=0",
    )


def test_criterion_8_mask_restriction_matches_rebuild():
    res = check_restriction_equivalence()
    ok = res.report() == "[PASS] mask restriction equals rebuilt encoding: 500 cases, 0 failures"
    _report(
        8,
        ok,
        f"{res.cases} random (instance, 0/1-mask) pairs: restricted encoding equals "
        f"from-scratch construction entrywise",
    )
