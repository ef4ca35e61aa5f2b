"""Hypothesis properties of the syndrome decoder against its oracles."""

import random

import pytest

from byzgrad.coding import build_code_context, ecc_decode
from byzgrad.field import DEFAULT_MODULUS

from oracles import exhaustive_ecc_decode, gao_ecc_decode
from test_ecc_decoder import corrupt_instance, decode_or_message

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies


@st.composite
def cases(draw, qs, max_n, within_budget):
    """(ctx, received, identified, truth): a code and a corrupted all-one response.

    Within budget, at most s workers are identified or corrupted and at most
    u-1 corrupted; otherwise up to s+2 workers are corrupted.
    """
    q = draw(st.sampled_from(qs))
    n = draw(st.integers(2, min(max_n, q - 1)))
    s = draw(st.integers(1, min(5, n - 1)))
    u = draw(st.integers(1, min(s + 1, n - s)))
    ctx = build_code_context(n, s, u, q)
    identified = draw(st.integers(0, s))
    most = min(u - 1, s - identified) if within_budget else s + 2 - identified
    corrupt = draw(st.integers(0, most))
    p = draw(st.integers(-(-n // (s + u)), 8))
    d = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    received, identified, _, truth = corrupt_instance(rng, ctx, p, d, identified, corrupt)
    return ctx, received, identified, truth


@settings(max_examples=300, deadline=None)
@given(cases((11, 13, 101, DEFAULT_MODULUS), 16, within_budget=False))
def test_syndrome_decoder_agrees_with_gao_everywhere(case):
    ctx, received, identified, _ = case
    assert decode_or_message(ecc_decode, ctx, received, identified) == decode_or_message(
        gao_ecc_decode, ctx, received, identified
    )


@settings(max_examples=150, deadline=None)
@given(cases((11, 13, 101), 9, within_budget=True))
def test_syndrome_decoder_exact_within_budget(case):
    ctx, received, identified, truth = case
    assert ecc_decode(ctx, received, identified) == truth
    assert exhaustive_ecc_decode(ctx, received, identified) == truth
