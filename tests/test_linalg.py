import random
from itertools import combinations, permutations

import pytest

from byzgrad.errors import DegenerateInputError, DimensionError, SingularMatrixError
from byzgrad.field import PrimeField
from byzgrad.linalg import (
    Matrix,
    cauchy_like_det,
    determinant,
    invert,
    solve_linear,
    vandermonde,
)

from oracles import vandermonde_inverse_last_column

F7 = PrimeField(7)
F11 = PrimeField(11)
F101 = PrimeField(101)
BIG = PrimeField(2**31 - 1)


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


# matrix basics --------------------------------------------------------------


def test_matmul_and_identity():
    a = Matrix.from_rows(F7, [[1, 2], [3, 4]])
    i2 = Matrix.identity(F7, 2)
    assert a * i2 == a
    assert i2 * a == a
    b = Matrix.from_rows(F7, [[2, 0], [1, 5]])
    ab = a * b
    assert ab.to_rows() == [[(1 * 2 + 2 * 1) % 7, (2 * 5) % 7], [(3 * 2 + 4 * 1) % 7, (4 * 5) % 7]]


def test_add_sub_transpose():
    a = Matrix.from_rows(F7, [[1, 2, 3], [4, 5, 6]])
    assert a.transpose().transpose() == a
    assert a.transpose().to_rows() == [[1, 4], [2, 5], [3, 6]]


def test_take_rows_columns_hstack():
    a = Matrix.from_rows(F7, [[1, 2, 3], [4, 5, 6], [0, 1, 0]])
    assert a.take_columns([1]).col_values(0) == [2, 5, 1]


def test_dimension_errors():
    a = Matrix.from_rows(F7, [[1, 2]])
    b = Matrix.from_rows(F7, [[1, 2]])
    with pytest.raises(DimensionError):
        a * b
    with pytest.raises(DimensionError):
        a * Matrix.from_rows(PrimeField(11), [[1], [2]])


# solve_linear ---------------------------------------------------------------


def test_solve_identity_case():
    out = solve_linear(Matrix.identity(F7, 2), Matrix.column(F7, [3, 4]))
    assert out.kind == "unique"
    assert out.solution.col_values(0) == [3, 4]


def test_solve_inconsistent_sets_pivot_flag():
    coeffs = Matrix.from_rows(F7, [[1, 1], [2, 2]])
    out = solve_linear(coeffs, Matrix.column(F7, [1, 3]))
    assert out.kind == "inconsistent"
    assert out.solution is None


def test_solve_underdetermined_returns_particular():
    coeffs = Matrix.from_rows(F7, [[1, 1], [2, 2]])
    rhs = Matrix.column(F7, [1, 2])
    out = solve_linear(coeffs, rhs)
    assert out.kind == "underdetermined"
    assert coeffs * out.solution == rhs


def test_solve_multi_column_rhs():
    coeffs = Matrix.from_rows(F11, [[2, 1], [1, 3]])
    rhs = Matrix.from_rows(F11, [[1, 0], [0, 1]])
    out = solve_linear(coeffs, rhs)
    assert out.kind == "unique"
    assert coeffs * out.solution == rhs


def test_solve_consistency_matches_independent_rank_oracle():
    rng = random.Random(7)
    q = 11
    for _ in range(300):
        m = rng.randrange(1, 5)
        k = rng.randrange(1, 4)
        rows = [[rng.randrange(q) for _ in range(k)] for _ in range(m)]
        rhs = [[rng.randrange(q)] for _ in range(m)]
        out = solve_linear(Matrix.from_rows(F11, rows), Matrix.from_rows(F11, rhs))
        r_a = brute_rank(rows, q)
        r_aug = brute_rank([row + extra for row, extra in zip(rows, rhs)], q)
        assert (out.kind == "inconsistent") == (r_a < r_aug)
        if out.kind != "inconsistent":
            assert (out.kind == "unique") == (r_a == k)


def test_invert_round_trip_exact():
    rng = random.Random(3)
    for field in (F11, BIG):
        q = field.q
        done = 0
        while done < 20:
            n = rng.randrange(1, 6)
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            mat = Matrix.from_rows(field, rows)
            try:
                inv = invert(mat)
            except SingularMatrixError:
                continue
            assert mat * inv == Matrix.identity(field, n)
            assert inv * mat == Matrix.identity(field, n)
            done += 1


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        invert(Matrix.from_rows(F7, [[1, 1], [2, 2]]))


def test_determinant_against_leibniz_oracle():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(11) for _ in range(n)] for _ in range(n)]
        assert determinant(Matrix.from_rows(F11, rows)) == perm_determinant(rows, 11)


# Vandermonde ----------------------------------------------------------------


def test_vandermonde_layout():
    v = vandermonde(F7, [1, 2, 3], 2)
    assert v.to_rows() == [[1, 1], [1, 2], [1, 3]]


def test_vandermonde_inverse_last_column_trivial():
    assert vandermonde_inverse_last_column(F7, [1]) == [1]
    assert vandermonde_inverse_last_column(F7, [1, 2]) == [6, 1]


def test_vandermonde_inverse_last_column_matches_full_inverse():
    rng = random.Random(11)
    for _ in range(50):
        size = rng.randrange(1, 6)
        pts = rng.sample(range(1, 101), size)
        closed = vandermonde_inverse_last_column(F101, pts)
        v = vandermonde(F101, pts)
        assert closed == invert(v).row_values(size - 1)
        assert closed == invert(v.transpose()).col_values(size - 1)


def test_vandermonde_repeated_points_raise():
    with pytest.raises(SingularMatrixError):
        vandermonde_inverse_last_column(F7, [2, 2])


# Cauchy-like determinant ----------------------------------------------------


def test_cauchy_det_base_case():
    assert cauchy_like_det(F7, [], [4]) == 1


def test_cauchy_det_2x2_against_cofactor_oracle():
    # zetas=(2), deltas=(3,5) over q=7
    q = 7
    a11 = pow(2 - 3, q - 2, q)
    a21 = pow(2 - 5, q - 2, q)
    expected = (a11 * 1 - 1 * a21) % q
    assert expected == 4
    assert cauchy_like_det(F7, [2], [3, 5]) == expected


def test_cauchy_det_nonzero_randomized():
    rng = random.Random(13)
    f = PrimeField(10007)
    for _ in range(200):
        k = rng.randrange(0, 6)
        elems = rng.sample(range(10007), 2 * k + 1)
        assert cauchy_like_det(f, elems[:k], elems[k:]) != 0


def test_cauchy_det_coincidence_raises():
    with pytest.raises(DegenerateInputError):
        cauchy_like_det(F7, [3], [3, 5])
    with pytest.raises(DegenerateInputError):
        cauchy_like_det(F7, [1], [2, 2])
