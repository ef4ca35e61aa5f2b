"""Hypothesis properties of a general query's closed-form W: zero pattern and group span.

The rows are the certificates' (checks._query_rows): the all-one rows scaled
by the query, checked against the zero-constraint solve.
"""

import pytest

from byzgrad.assignment import make_cyclic, make_fractional, make_random_regular
from byzgrad.checks import _query_rows
from byzgrad.coding import build_code_context, combining_vector
from byzgrad.field import DEFAULT_MODULUS
from byzgrad.harness import assignment_feasible

from oracles import solve_encoding_matrix

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies


@st.composite
def encoders(draw):
    """(ctx, a_mat, a, group): a code, a regular assignment, a query and r+1 workers."""
    q = draw(st.sampled_from((11, 13, 101, DEFAULT_MODULUS)))
    n = draw(st.integers(2, 9))
    s = draw(st.integers(1, n - 1))
    u = draw(st.integers(1, min(s + 1, n - s)))
    ctx = build_code_context(n, s, u, q)
    rho = s + u
    p = draw(st.integers(-(-n // rho), -(-n // rho) + 8))
    kinds = [k for k in ("cyclic", "fractional", "random") if assignment_feasible(k, n, p, rho)[0]]
    kind = draw(st.sampled_from(kinds))
    if kind == "cyclic":
        a_mat = make_cyclic(n, p, rho)
    elif kind == "fractional":
        a_mat = make_fractional(n, p, rho)
    else:
        a_mat = make_random_regular(n, p, rho, draw(st.integers(0, 2**32 - 1)))
    # Zero entries are drawn often, so that masked samples show up in most cases.
    entry = st.one_of(st.just(0), st.integers(0, q - 1))
    a = draw(st.lists(entry, min_size=p, max_size=p))
    group = draw(st.permutations(range(n)))[: ctx.r + 1]
    return ctx, a_mat, a, sorted(group)


@settings(max_examples=200, deadline=None)
@given(encoders())
def test_encoder_zero_pattern_and_group_span(case):
    ctx, a_mat, a, group = case
    q = ctx.q
    w = _query_rows(ctx, a_mat, a)
    assert w == solve_encoding_matrix(ctx, a_mat, a).w
    for i in range(a_mat.p):
        for j in range(ctx.n):
            assert (w[i][j] == 0) == (not a_mat.bits[j][i] or a[i] % q == 0)
    b = combining_vector(ctx, group)
    assert all(b[j] == 0 for j in range(ctx.n) if j not in group)
    for i in range(a_mat.p):
        assert sum(w[i][j] * b[j] for j in group) % q == a[i] % q
