from byzgrad.checks import (
    CHECKS,
    CheckResult,
    check_encoding_matrix,
    check_fewer_groups_attackable,
)


def test_registry_exposes_expected_tokens():
    assert set(CHECKS) == {
        "lemma2",
        "lemma3",
        "theorem-optimality",
        "vandermonde",
        "cauchy",
        "ecc",
        "restriction",
    }


def test_report_formatting():
    ok = CheckResult("demo", cases=3)
    assert ok.passed
    assert ok.report().startswith("[PASS] demo: 3 cases")
    bad = CheckResult("demo", cases=3, failures=["x=1"])
    assert not bad.passed
    assert "[FAIL]" in bad.report()
    assert "counterexample: x=1" in bad.report()


def test_encoding_check_runs_clean():
    res = check_encoding_matrix()
    assert res.passed
    assert res.cases == 56
    assert res.report() == "[PASS] encoding matrix zero pattern and span: 56 cases, 0 failures"


def test_optimality_check_reports_randomized_grouping_rate():
    res = check_fewer_groups_attackable()
    assert res.passed
    assert res.notes
    assert all("randomized groupings" in note for note in res.notes)
