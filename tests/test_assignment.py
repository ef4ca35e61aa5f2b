import random
import re
from itertools import product

import pytest

from byzgrad.assignment import (
    AssignmentMatrix,
    assignment_feasible,
    assignment_from_text,
    assignment_to_text,
    make_cyclic,
    make_fractional,
    make_random_regular,
    validate_regular,
)
from byzgrad.errors import InvalidParamsError
from oracles import (
    column_sum,
    nested_loop_fractional,
    per_bit_cyclic,
    row_sum,
    sample_per_column_random_regular,
    samples_by_bit_scan,
    stdlib_samples,
    validate_regular_by_columns,
    zero_set,
)


def test_cyclic_three_workers_two_replicas():
    a = make_cyclic(3, 3, 2)
    assert a.samples_of(0) == [0, 1]
    assert a.samples_of(1) == [1, 2]
    assert a.samples_of(2) == [0, 2]
    assert validate_regular(a, 2)


def test_cyclic_replication_one_is_permutation():
    a = make_cyclic(4, 4, 1)
    for j in range(4):
        assert a.samples_of(j) == [j]


def test_cyclic_column_and_row_sums():
    a = make_cyclic(5, 7, 3)
    assert all(column_sum(a, i) == 3 for i in range(7))
    assert all(row_sum(a, j) >= 1 for j in range(5))
    assert validate_regular(a, 3)


def test_cyclic_full_replication_all_ones():
    a = make_cyclic(4, 4, 4)
    assert all(all(row) for row in a.bits)


def test_cyclic_idle_worker_rejected():
    with pytest.raises(InvalidParamsError):
        make_cyclic(5, 1, 2)
    with pytest.raises(InvalidParamsError):
        make_cyclic(3, 3, 4)  # rho > n


def test_assignment_feasibility_rules():
    assert assignment_feasible("cyclic", 5, 6, 3) == (True, "")
    ok, reason = assignment_feasible("cyclic", 5, 1, 3)
    assert not ok and "idle" in reason
    ok, _ = assignment_feasible("fractional", 5, 6, 3)
    assert not ok
    ok, _ = assignment_feasible("random", 6, 1, 3)
    assert not ok


@pytest.mark.parametrize("n, rho", [(5, 1), (5, 2), (6, 3), (7, 7)])
def test_cyclic_feasible_exactly_when_windows_wrap(n, rho):
    # Worker p is the last to get a sample: its window of rho reaches
    # sample 0 only by wrapping past n, so p + rho - 1 == n is the edge.
    p = n - rho + 1
    assert assignment_feasible("cyclic", n, p, rho) == (True, "")
    assert validate_regular(make_cyclic(n, p, rho), rho)
    if p > 1:
        ok, reason = assignment_feasible("cyclic", n, p - 1, rho)
        assert not ok and "idle" in reason


@pytest.mark.parametrize(
    "kind, make, args, reason",
    [
        ("cyclic", make_cyclic, (5, 3, 2), "cyclic layout leaves some worker idle"),
        ("fractional", make_fractional, (5, 5, 2), "fractional needs rho | n"),
        ("random", make_random_regular, (5, 1, 2, 0), "rho*p < n leaves some worker idle"),
    ],
)
def test_generators_raise_the_feasibility_reason(kind, make, args, reason):
    # The sweep prints these reasons for its skipped rows.
    assert assignment_feasible(kind, *args[:3]) == (False, reason)
    with pytest.raises(InvalidParamsError) as info:
        make(*args)
    assert str(info.value) == reason


def test_feasibility_rule_equals_the_generators():
    # Where the rule says feasible, each generator returns a regular
    # assignment; every other shape it rejects with the rule's reason.
    for kind, make in (
        ("cyclic", make_cyclic), ("fractional", make_fractional), ("random", make_random_regular),
    ):
        for n, p, rho in product(range(1, 8), range(0, 8), range(0, 9)):
            ok, reason = assignment_feasible(kind, n, p, rho)
            args = (n, p, rho, 1) if kind == "random" else (n, p, rho)
            if ok:
                assert validate_regular(make(*args), rho), (kind, n, p, rho)
            else:
                with pytest.raises(InvalidParamsError, match=f"^{re.escape(reason)}$"):
                    make(*args)


def test_generators_equal_the_per_bit_oracles():
    # Every feasible shape with n <= 12 and p <= 24: the cyclic rows against
    # the rule applied bit by bit, the fractional rows against the slices
    # filled bit by bit, uneven slices (p not a multiple of n/rho) included.
    cyclic = fractional = uneven = 0
    for n, p, rho in product(range(1, 13), range(1, 25), range(1, 13)):
        if assignment_feasible("cyclic", n, p, rho)[0]:
            assert make_cyclic(n, p, rho) == per_bit_cyclic(n, p, rho), (n, p, rho)
            cyclic += 1
        if assignment_feasible("fractional", n, p, rho)[0]:
            assert make_fractional(n, p, rho) == nested_loop_fractional(n, p, rho), (n, p, rho)
            fractional += 1
            uneven += p % (n // rho) != 0
    assert (cyclic, fractional, uneven) == (1586, 748, 308)


def test_validate_regular_cases():
    fig = make_cyclic(3, 3, 2)
    assert validate_regular(fig, 2)
    assert not validate_regular(fig, 3)
    idle = AssignmentMatrix(3, 2, ((1, 1), (1, 1), (0, 0)))
    assert not validate_regular(idle, 2)


def test_validate_regular_equals_the_column_oracle():
    # Every 0/1 matrix with n, p <= 3 against every rho in 0..n+1, then the
    # edge shapes: no rows (whose columns sum to 0), no columns, and rows
    # that disagree with n, p or each other.
    cases = []
    for n, p in product(range(4), repeat=2):
        for flat in product((0, 1), repeat=n * p):
            bits = tuple(tuple(flat[j * p : (j + 1) * p]) for j in range(n))
            cases += [(AssignmentMatrix(n, p, bits), rho) for rho in range(n + 2)]
    for p in (0, 1, 3):
        cases += [(AssignmentMatrix(0, p, ()), rho) for rho in (0, 1, 2)]
    for n, p, bits in (
        (2, 2, ((1, 1), (1,))),
        (2, 2, ((1,), (1, 1))),
        (2, 1, ((1, 1), (1, 1))),
        (2, 3, ((1, 1), (1, 1))),
        (3, 2, ((1, 1), (1, 1))),
        (1, 2, ((1, 1), (1, 1))),
        (0, 2, ((1, 1),)),
        (1, 0, ((),)),
        (2, 0, ((), ())),
    ):
        cases += [(AssignmentMatrix(n, p, bits), rho) for rho in (0, 1, 2)]
    for a, rho in cases:
        assert validate_regular(a, rho) == validate_regular_by_columns(a, rho), (a, rho)
    results = [validate_regular(a, rho) for a, rho in cases]
    assert any(results) and not all(results)
    assert not validate_regular(AssignmentMatrix(0, 1, ()), 1)
    assert validate_regular(AssignmentMatrix(0, 0, ()), 1)


def test_validate_regular_lanes_hold_a_column_sum_of_n():
    # Column 0 held by all 257 workers, column 1 by none: with one-byte lanes
    # the 257 would carry into column 1 and fake two columns of rho = 1.
    bits = (b"\x01\x00",) * 257
    a = AssignmentMatrix(257, 2, bits)
    assert not validate_regular(a, 1)
    assert validate_regular_by_columns(a, 1) is False
    assert validate_regular(AssignmentMatrix(257, 1, (b"\x01",) * 257), 257)
    # Random 0/1 matrices around the one-byte lane limit, against the oracle.
    rng = random.Random(7)
    for n in (255, 256, 257, 300):
        for _ in range(20):
            p = rng.randint(1, 6)
            rho = rng.choice((1, 2, n // 2, n - 1, n))
            rows = [bytes(int(rng.random() < rho / n) for _ in range(p)) for _ in range(n)]
            for i in range(p):  # make some columns sum to rho exactly
                if rng.random() < 0.8:
                    holders = set(rng.sample(range(n), rho))
                    for j in range(n):
                        row = bytearray(rows[j])
                        row[i] = j in holders
                        rows[j] = bytes(row)
            a = AssignmentMatrix(n, p, tuple(rows))
            assert validate_regular(a, rho) == validate_regular_by_columns(a, rho)
    assert validate_regular(make_cyclic(300, 300, 150), 150)
    assert not validate_regular(make_cyclic(300, 300, 150), 150 + 256)


def test_rows_are_bytes():
    for a in (make_cyclic(6, 9, 3), make_fractional(6, 9, 3), make_random_regular(6, 9, 3, 1),
              assignment_from_text("2 3 1\n101\n010\n")[0]):
        assert all(type(row) is bytes and set(row) <= {0, 1} for row in a.bits)
        assert len(a.bits) == a.n and all(len(row) == a.p for row in a.bits)


def test_fractional_two_groups():
    a = make_fractional(4, 4, 2)
    assert a.samples_of(0) == [0, 1]
    assert a.samples_of(1) == [0, 1]
    assert a.samples_of(2) == [2, 3]
    assert a.samples_of(3) == [2, 3]


def test_fractional_single_group_holds_everything():
    a = make_fractional(2, 6, 2)
    assert a.samples_of(0) == list(range(6))
    assert a.samples_of(1) == list(range(6))


def test_fractional_pad_rule():
    a = make_fractional(6, 9, 3)
    assert validate_regular(a, 3)
    sizes = {len(a.samples_of(j)) for j in range(6)}
    assert sizes == {4, 5}
    assert all(column_sum(a, i) == 3 for i in range(9))


def test_fractional_requires_divisibility():
    with pytest.raises(InvalidParamsError):
        make_fractional(5, 5, 2)
    with pytest.raises(InvalidParamsError):
        make_fractional(6, 1, 3)  # fewer samples than groups


def test_random_regular_is_regular():
    a = make_random_regular(5, 10, 3, seed=1)
    assert validate_regular(a, 3)


def test_random_regular_forced_single_column():
    a = make_random_regular(3, 1, 3, seed=0)
    assert a.bits == (b"\x01", b"\x01", b"\x01")


def test_random_regular_deterministic_under_seed():
    a = make_random_regular(6, 8, 3, seed=42)
    b = make_random_regular(6, 8, 3, seed=42)
    assert a == b
    c = make_random_regular(6, 8, 3, seed=43)
    assert a != c


def test_random_regular_infeasible_rejected():
    with pytest.raises(InvalidParamsError):
        make_random_regular(5, 1, 2, seed=0)


def test_random_regular_repairs_empty_rows_many_seeds():
    for seed in range(50):
        a = make_random_regular(7, 4, 2, seed=seed)
        assert validate_regular(a, 2)


def test_random_regular_equals_a_sample_per_column():
    # Every (n, rho) of the acceptance grid (n 4-8, s 1-3, u up to
    # min(s+1, n-s)) at its p of 1, 4, 9 and 16, and p up to 64, against a
    # copy of the generator that draws each column with rng.sample. Small p
    # with rho*p near n leaves a worker idle, and the repair loop then draws
    # from the same rng.
    shapes = [
        (n, p, rho, seed)
        for n in range(4, 9)
        for rho in sorted({s + u for s in range(1, 4) for u in range(1, min(s + 1, n - s) + 1)})
        for p in (1, 2, 3, 4, 5, 9, 16, 17, 32, 64)
        if rho * p >= n
        for seed in range(4)
    ]
    for shape in shapes:
        assert make_random_regular(*shape) == sample_per_column_random_regular(*shape), shape
    # Shapes with two or more idle workers exercise the repair's lowest-first order.
    idle = [
        n - len({j for column in stdlib_samples(random.Random(seed), n, rho, p) for j in column})
        for n, p, rho, seed in shapes
    ]
    one, two = sum(k >= 1 for k in idle), sum(k >= 2 for k in idle)
    assert len(shapes) > 800 and one > 50 and two >= 20, (len(shapes), one, two)


def test_zero_set_size_is_n_minus_rho():
    for maker, args in (
        (make_cyclic, (5, 7, 3)),
        (make_fractional, (6, 9, 3)),
        (make_random_regular, (6, 8, 3, 7)),
    ):
        a = maker(*args)
        rho = 3
        for i in range(a.p):
            assert len(zero_set(a, i)) == a.n - rho


def test_samples_of_equals_a_bit_scan():
    for a in (
        make_cyclic(5, 7, 3), make_cyclic(24, 256, 7), make_fractional(6, 9, 3),
        make_random_regular(6, 8, 3, 7), make_random_regular(12, 40, 2, 3),
    ):
        for j in range(a.n):
            assert a.samples_of(j) == samples_by_bit_scan(a, j)


def test_text_round_trip_bit_exact():
    a = make_random_regular(6, 9, 4, seed=5)
    text = assignment_to_text(a, 4)
    first = text.splitlines()[0]
    assert first == "6 9 4"
    b, rho = assignment_from_text(text)
    assert rho == 4
    assert b == a
    assert assignment_to_text(b, rho) == text


@pytest.mark.parametrize("header", ["3 x 2", "3 4"])
def test_text_rejects_a_bad_header(header):
    with pytest.raises(InvalidParamsError) as info:
        assignment_from_text(f"{header}\n110\n011\n101\n")
    assert str(info.value) == f"bad assignment header: {header!r}"


def test_text_rejects_an_irregular_matrix():
    # Every row is busy, but sample 3 is held twice under rho = 1.
    with pytest.raises(InvalidParamsError) as info:
        assignment_from_text("2 3 1\n101\n011\n")
    assert str(info.value) == "assignment is not regular with replication 1"


def test_text_rejects_malformed():
    with pytest.raises(InvalidParamsError):
        assignment_from_text("")
    with pytest.raises(InvalidParamsError):
        assignment_from_text("2 2 1\n10\n")
    with pytest.raises(InvalidParamsError):
        assignment_from_text("2 2 1\n1x\n01\n")
    with pytest.raises(InvalidParamsError):
        assignment_from_text("2 2 1\n1\u0661\n01\n")  # a non-ASCII digit one
    with pytest.raises(InvalidParamsError):
        assignment_from_text("2 2 1\n1 \n01\n")  # an ASCII space in a row
