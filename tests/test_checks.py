import pytest

from byzgrad import checks, coding, linalg
from byzgrad.checks import (
    CHECKS,
    CheckResult,
    check_encoding_matrix,
    check_fewer_groups_attackable,
)

from oracles import row_classes_of_w


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


def _last_group_moves(ctx, groups, controlled):
    # One error on the last group's last satellite: the first group keeps the
    # true value, so the groups neither agree nor are fooled together.
    err = [0] * ctx.n
    err[groups[-1][-1]] = 1
    return err


def _underdetermined(coeffs, rhs, q):
    solution = linalg.solve_linear(coeffs, rhs, q).solution
    return linalg.LinearSolveOutcome("underdetermined", solution)


def _ecc_off_by_one(ctx, z, identified):
    return [(v + 1) % ctx.q for v in coding.ecc_decode(ctx, z, identified)]


def _zero_encoding(ctx, a_mat):
    w = ((0,) * ctx.n,) * a_mat.p
    return coding.EncodingMatrix(w, ctx.q, row_classes_of_w(w))


# The certificate, the name in checks that gets a wrong version, the version,
# and the exact first line of the report.
_WRONG = [
    pytest.param(
        "vandermonde", "_point_weights", lambda q, pts: (0,) * len(pts),
        "[FAIL] vandermonde inverse closed form: 3200 cases, 3200 failures", id="vandermonde",
    ),
    pytest.param(
        "cauchy", "cauchy_like_det", lambda q, zetas, deltas: 0,
        "[FAIL] bordered Cauchy determinant nonzero: 57441 cases, 57441 failures", id="cauchy",
    ),
    pytest.param(
        "lemma2", "sample_row", lambda ctx, column: (1,) * ctx.n,
        "[FAIL] encoding matrix zero pattern and span: 56 cases, 313 failures", id="lemma2",
    ),
    pytest.param(
        "restriction", "build_encoding_matrix", _zero_encoding,
        "[FAIL] mask restriction equals rebuilt encoding: 500 cases, 452 failures",
        id="restriction-zero-encoding",
    ),
    pytest.param(
        "restriction", "solve_linear", _underdetermined,
        "[FAIL] mask restriction equals rebuilt encoding: 500 cases, 500 failures",
        id="restriction-underdetermined",
    ),
    pytest.param(
        "lemma3", "symmetrization_attack", _last_group_moves,
        "[FAIL] unanimous groups cannot all be corrupted: 15264 cases, 15264 failures", id="lemma3",
    ),
    pytest.param(
        "theorem-optimality", "symmetrization_attack", _last_group_moves,
        "[FAIL] one fewer group admits a unanimous lie: 3089 cases, 1956 failures",
        id="optimality-wrong-error",
    ),
    pytest.param(
        "theorem-optimality", "symmetrization_attack", lambda ctx, groups, controlled: None,
        "[FAIL] one fewer group admits a unanimous lie: 3089 cases, 3089 failures",
        id="optimality-no-attack",
    ),
    pytest.param(
        "ecc", "ecc_decode", _ecc_off_by_one,
        "[FAIL] errors-and-erasures decoding, exhaustive: 420 cases, 420 failures", id="ecc",
    ),
]


@pytest.mark.parametrize("token, name, wrong, first", _WRONG)
def test_each_certificate_reports_its_counterexamples(monkeypatch, token, name, wrong, first):
    # A wrong version of what the certificate checks must fail it, through
    # the branch that records a counterexample, and the report must say so.
    monkeypatch.setattr(checks, name, wrong)
    res = CHECKS[token]()
    assert res.passed is False
    lines = res.report().splitlines()
    assert lines[0] == first
    assert any(line.startswith("    counterexample: ") for line in lines[1:])
