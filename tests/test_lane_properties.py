"""Hypothesis properties of the lanes that pack field elements into one int."""

import pytest

from byzgrad.coding import lane_bytes, pack, unpack

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

MODULI = (2, 3, 7, 251, 257, 65537, 2**31 - 1, 2**61 - 1, 2**64 + 13, 2**89 - 1)


@st.composite
def lanes(draw):
    """(q, terms, rows, weights): terms rows of field elements and one weight per row."""
    q = draw(st.sampled_from(MODULI))
    elements = st.one_of(st.just(q - 1), st.just(0), st.integers(0, q - 1))
    count = draw(st.integers(1, 12))
    terms = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(elements, min_size=count, max_size=count),
                         min_size=terms, max_size=terms))
    weights = draw(st.lists(elements, min_size=terms, max_size=terms))
    return q, terms, rows, weights


@settings(max_examples=100, deadline=None)
@given(lanes())
def test_pack_unpack_round_trip(case):
    q, terms, rows, _ = case
    width = lane_bytes(q, terms)
    for row in rows:
        assert unpack(pack(row, width), width, len(row), q) == row


@settings(max_examples=100, deadline=None)
@given(lanes())
def test_dot_product_of_packed_rows_is_lanewise(case):
    q, terms, rows, weights = case
    width = lane_bytes(q, terms)
    total = sum(c * pack(row, width) for c, row in zip(weights, rows))
    dense = [sum(c * v for c, v in zip(weights, col)) % q for col in zip(*rows)]
    assert unpack(total, width, len(rows[0]), q) == dense


def test_all_top_elements_fill_the_lane_exactly():
    for q in MODULI:
        for terms in (1, 2, 3, 24, 255, 256, 1000):
            width = lane_bytes(q, terms)
            peak = terms * (q - 1) ** 2
            assert peak < 1 << 8 * width
            assert peak >= 1 << 8 * (width - 1)  # one byte less would carry
            row = [q - 1] * 4
            total = sum((q - 1) * pack(row, width) for _ in range(terms))
            assert unpack(total, width, 4, q) == [peak % q] * 4
