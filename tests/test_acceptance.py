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
from byzgrad.harness import ceil_log2, grid_configs, run_simulation, run_sweep, SimulationConfig
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


def test_criterion_3_unanimity_soundness_exhaustive():
    res = check_grouping_agreement_sound(instances=((5, 2, 1), (6, 2, 2)), q=101)
    expected_cases = 10 + 15  # all malicious sets of size 2 for n=5 and n=6
    ok = res.passed and res.cases == expected_cases
    _report(
        3,
        ok,
        f"{res.cases} malicious sets certified inconsistent by the pivot flag, "
        f"{len(res.failures)} counterexamples",
    )


def test_criterion_4_fewer_groups_always_attackable():
    res = check_fewer_groups_attackable(instances=((5, 2, 1), (6, 2, 2)), q=101)
    ok = res.passed and res.cases == 2
    _report(
        4,
        ok,
        f"{res.cases}/{res.cases} instances: all group responses identical and wrong "
        f"under the constructed corruption",
    )


def test_criterion_5_vandermonde_closed_form_exact():
    res = check_vandermonde_closed_form(
        qs=(101, 2**31 - 1), sizes=range(1, 9), trials=200, seed=0
    )
    ok = res.passed and res.cases == 2 * 8 * 200
    _report(
        5,
        ok,
        f"{res.cases} random point sets, sizes 1..8, two moduli: closed form equals "
        f"full Gaussian inversion entrywise",
    )


def test_criterion_6_cauchy_block_determinant_nonzero():
    res = check_cauchy_determinant(
        random_trials=1000, random_q=10007, max_k=5, exhaustive_q=11, exhaustive_max_k=2
    )
    ok = res.passed and res.cases >= 1000 + 11 + 990 + 55440
    _report(
        6,
        ok,
        f"{res.cases} tuples (1000 random plus exhaustive small-field): determinant "
        f"never vanished",
    )


def test_criterion_7_errors_and_erasures_paths():
    res = check_errors_and_erasures(n=7, s=2, u=2, q=11)
    ok = res.passed and res.cases == 7 * 6 * 10
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
    res = check_restriction_equivalence(trials=500, q=101, seed=0)
    ok = res.passed and res.cases == 500
    _report(
        8,
        ok,
        f"{res.cases} random (instance, 0/1-mask) pairs: restricted encoding equals "
        f"from-scratch construction entrywise",
    )
