import random
from itertools import combinations, permutations

import pytest

from byzgrad.errors import DegenerateInputError, DimensionError, SingularMatrixError
from byzgrad.linalg import (
    cauchy_like_det,
    determinant,
    invert,
    solve_linear,
    vandermonde,
)

from oracles import identity, mat_mul, transpose, vandermonde_inverse_last_column


# independent oracles -------------------------------------------------------


def perm_determinant(rows, q):
    """Leibniz expansion; independent of the elimination code."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total % q


def brute_rank(rows, q):
    """Rank as the largest size of a nonsingular square submatrix."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    for size in range(min(m, n), 0, -1):
        for rsel in combinations(range(m), size):
            for csel in combinations(range(n), size):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                if perm_determinant(sub, q) != 0:
                    return size
    return 0


# dimensions -----------------------------------------------------------------


def test_dimension_errors():
    ragged = [[1, 2], [3]]
    with pytest.raises(DimensionError):
        solve_linear(ragged, [[1], [2]], 7)
    with pytest.raises(DimensionError):
        solve_linear([[1, 2], [3, 4]], [[1], []], 7)
    with pytest.raises(DimensionError):
        solve_linear([[1, 2], [3, 4]], [[1]], 7)
    for op in (invert, determinant):
        with pytest.raises(DimensionError):
            op(ragged, 7)
        with pytest.raises(DimensionError):
            op([[1, 2], [3, 4], [5, 6]], 7)
        with pytest.raises(DimensionError):
            op([[1, 2, 3], [4, 5, 6]], 7)


# solve_linear ---------------------------------------------------------------


def test_solve_identity_case():
    out = solve_linear(identity(2), [[3], [4]], 7)
    assert out.kind == "unique"
    assert out.solution == [[3], [4]]


def test_solve_inconsistent_sets_pivot_flag():
    out = solve_linear([[1, 1], [2, 2]], [[1], [3]], 7)
    assert out.kind == "inconsistent"
    assert out.solution is None


def test_solve_underdetermined_returns_particular():
    coeffs = [[1, 1], [2, 2]]
    rhs = [[1], [2]]
    out = solve_linear(coeffs, rhs, 7)
    assert out.kind == "underdetermined"
    assert mat_mul(coeffs, out.solution, 7) == rhs


def test_solve_multi_column_rhs():
    coeffs = [[2, 1], [1, 3]]
    rhs = [[1, 0], [0, 1]]
    out = solve_linear(coeffs, rhs, 11)
    assert out.kind == "unique"
    assert mat_mul(coeffs, out.solution, 11) == rhs


def test_solve_consistency_matches_independent_rank_oracle():
    rng = random.Random(7)
    q = 11
    for _ in range(300):
        m = rng.randrange(1, 5)
        k = rng.randrange(1, 4)
        rows = [[rng.randrange(q) for _ in range(k)] for _ in range(m)]
        rhs = [[rng.randrange(q)] for _ in range(m)]
        out = solve_linear(rows, rhs, q)
        r_a = brute_rank(rows, q)
        r_aug = brute_rank([row + extra for row, extra in zip(rows, rhs)], q)
        assert (out.kind == "inconsistent") == (r_a < r_aug)
        if out.kind != "inconsistent":
            assert (out.kind == "unique") == (r_a == k)


def test_invert_round_trip_exact():
    rng = random.Random(3)
    for q in (11, 2**31 - 1):
        done = 0
        while done < 20:
            n = rng.randrange(1, 6)
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            try:
                inv = invert(rows, q)
            except SingularMatrixError:
                continue
            assert mat_mul(rows, inv, q) == identity(n)
            assert mat_mul(inv, rows, q) == identity(n)
            done += 1


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        invert([[1, 1], [2, 2]], 7)


def test_determinant_against_leibniz_oracle():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(11) for _ in range(n)] for _ in range(n)]
        assert determinant(rows, 11) == perm_determinant(rows, 11)


# Vandermonde ----------------------------------------------------------------


def test_vandermonde_layout():
    assert vandermonde([1, 2, 3], 7) == [[1, 1, 1], [1, 2, 4], [1, 3, 2]]


def test_vandermonde_inverse_last_column_trivial():
    assert vandermonde_inverse_last_column(7, [1]) == [1]
    assert vandermonde_inverse_last_column(7, [1, 2]) == [6, 1]


def test_vandermonde_inverse_last_column_matches_full_inverse():
    rng = random.Random(11)
    for _ in range(50):
        size = rng.randrange(1, 6)
        pts = rng.sample(range(1, 101), size)
        closed = vandermonde_inverse_last_column(101, pts)
        v = vandermonde(pts, 101)
        assert closed == invert(v, 101)[size - 1]
        assert closed == [row[size - 1] for row in invert(transpose(v), 101)]


def test_vandermonde_repeated_points_raise():
    with pytest.raises(SingularMatrixError):
        vandermonde_inverse_last_column(7, [2, 2])


# Cauchy-like determinant ----------------------------------------------------


def test_cauchy_det_base_case():
    assert cauchy_like_det(7, [], [4]) == 1


def test_cauchy_det_2x2_against_cofactor_oracle():
    # zetas=(2), deltas=(3,5) over q=7
    q = 7
    a11 = pow(2 - 3, q - 2, q)
    a21 = pow(2 - 5, q - 2, q)
    expected = (a11 * 1 - 1 * a21) % q
    assert expected == 4
    assert cauchy_like_det(7, [2], [3, 5]) == expected


def test_cauchy_det_nonzero_randomized():
    rng = random.Random(13)
    for _ in range(200):
        k = rng.randrange(0, 6)
        elems = rng.sample(range(10007), 2 * k + 1)
        assert cauchy_like_det(10007, elems[:k], elems[k:]) != 0


def test_cauchy_det_needs_one_more_delta_than_zetas():
    with pytest.raises(DimensionError) as info:
        cauchy_like_det(11, [1], [2])
    assert str(info.value) == "need exactly one more delta than zetas"


def test_cauchy_det_coincidence_raises():
    with pytest.raises(DegenerateInputError):
        cauchy_like_det(7, [3], [3, 5])
    with pytest.raises(DegenerateInputError):
        cauchy_like_det(7, [1], [2, 2])
