import random
from fractions import Fraction
from math import lcm

import pytest

from malcev.linalg import (
    Matrix, scalar, format_scalar, rank, det, inverse, kernel_basis,
    solve_affine, echelon_basis, span_contains, spans_equal, coords_in_basis,
    smith_normal_form, vec_is_zero, AffineSolver, integer_row,
)

from oracles import naive_solve, naive_rank


def rand_matrix(rng, m, n, lo=-4, hi=4):
    return Matrix([[Fraction(rng.randint(lo, hi)) for _ in range(n)]
                   for _ in range(m)])


def ratio_row(row):
    """integer_row by its definition: the lcm d of the denominators of
    as_integer_ratio, and each entry times d."""
    ratios = [e.as_integer_ratio() for e in row]
    d = lcm(*[q for _, q in ratios])
    return d, [p * (d // q) for p, q in ratios]


def test_integer_row_matches_its_definition():
    """Rows of Fractions (read from their slots), of ints and bools, and of
    both mixed, with negative entries, integral rows (lcm 1) and the empty
    row; each output entry is an int."""
    rng = random.Random(23)
    rows = [(), (True, False, 3), (Fraction(-4), Fraction(0), Fraction(7)),
            (Fraction(-1, 2), 3, Fraction(5, -6), True)]
    for _ in range(40):
        entries = [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 9]))
                   for _ in range(rng.randint(0, 12))]
        rows.append(tuple(entries))
        rows.append(tuple(int(e) if rng.random() < 0.5 else e for e in entries))
    assert integer_row(()) == (1, [])
    for row in rows:
        d, ints = integer_row(row)
        assert (d, ints) == ratio_row(row)
        assert all(type(c) is int for c in ints)
        assert [Fraction(c, d) for c in ints] == list(row)


def test_scalar_parsing():
    assert scalar("3/4") == Fraction(3, 4)
    assert scalar("-2") == Fraction(-2)
    assert scalar(Fraction(5, 10)) == Fraction(1, 2)
    assert format_scalar(Fraction(3, 4)) == "3/4"
    assert format_scalar(Fraction(-7)) == "-7"
    with pytest.raises((ValueError, TypeError)):
        scalar("not-a-number")


def test_rank_against_oracle():
    rng = random.Random(100)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = rand_matrix(rng, m, n)
        assert rank(A) == naive_rank(A.data)


def test_solve_affine_against_oracle():
    """The particular solution with free variables zero, entry for entry
    that of the Gauss-Jordan oracle, or None exactly when it finds none."""
    rng = random.Random(101)
    agree = 0
    for _ in range(80):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = rand_matrix(rng, m, n)
        b = tuple(Fraction(rng.randint(-4, 4)) for _ in range(m))
        mine = solve_affine(A, b)
        other = naive_solve(A.data, b)
        assert mine == (None if other is None else tuple(other))
        if mine is not None:
            assert A.mul_vec(mine) == b
            agree += 1
    assert 10 < agree < 80  # the random systems hit both solvable and unsolvable


def test_kernel_dimension_rank_nullity():
    rng = random.Random(102)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = rand_matrix(rng, m, n)
        kern = kernel_basis(A)
        assert len(kern) == n - rank(A)
        for v in kern:
            assert vec_is_zero(A.mul_vec(v))


def test_inverse_and_det():
    rng = random.Random(103)
    checked = 0
    for _ in range(40):
        n = rng.randint(1, 5)
        A = rand_matrix(rng, n, n)
        if det(A) == 0:
            continue
        Ai = inverse(A)
        assert A * Ai == Matrix.identity(n)
        assert Ai * A == Matrix.identity(n)
        checked += 1
    assert checked > 5


def test_zero_row_matrices_keep_their_column_count():
    m = Matrix.from_columns([(), ()], rows=0)
    assert (m.rows, m.cols) == (0, 2)
    p = Matrix.zeros(0, 3) * Matrix.zeros(3, 2)
    assert (p.rows, p.cols) == (0, 2)
    assert len(kernel_basis(m)) == 2


def test_from_columns_rejects_ragged_columns():
    with pytest.raises(ValueError):
        Matrix.from_columns([(1, 2), (3,)])
    with pytest.raises(ValueError):
        Matrix.from_columns([(1, 2)], rows=3)
    with pytest.raises(ValueError):
        Matrix.from_columns([(), (1,)])
    assert Matrix.from_columns([(1, 2), (3, 4)], rows=2) == Matrix([[1, 3], [2, 4]])
    assert (Matrix.from_columns([], rows=3).rows, Matrix.from_columns([], rows=3).cols) == (3, 0)


def test_echelon_and_span_utilities():
    v1 = (Fraction(1), Fraction(2), Fraction(0))
    v2 = (Fraction(0), Fraction(0), Fraction(3))
    basis = echelon_basis([v1, v2, v1], 3)
    assert len(basis) == 2
    assert span_contains(basis, (Fraction(2), Fraction(4), Fraction(3)))
    assert not span_contains(basis, (Fraction(1), Fraction(0), Fraction(0)))
    assert spans_equal([v1, v2], [v2, v1])
    coords = coords_in_basis([v1, v2], (Fraction(2), Fraction(4), Fraction(-3)))
    assert coords == (Fraction(2), Fraction(-1))
    assert coords_in_basis([v1], v2) is None
    assert coords_in_basis([], (Fraction(0), Fraction(0))) == ()   # the empty basis
    assert coords_in_basis([], v2) is None
    assert coords_in_basis([], ()) == ()


def test_echelon_basis_checks_vector_lengths():
    with pytest.raises(ValueError):
        echelon_basis([(Fraction(1), Fraction(0))], 3)
    with pytest.raises(ValueError):
        echelon_basis([(Fraction(0),) * 3, (Fraction(1), Fraction(0))], 3)   # zero vectors too
    with pytest.raises(ValueError, match="ragged rows"):
        echelon_basis([(Fraction(1), Fraction(0)), (Fraction(1),)])
    assert echelon_basis([(Fraction(0), Fraction(2), Fraction(1))]) == [
        (Fraction(0), Fraction(1), Fraction(1, 2))]
    assert echelon_basis([], 3) == [] and echelon_basis([]) == []


def test_smith_normal_form_properties():
    rng = random.Random(104)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = rand_matrix(rng, m, n, -6, 6)
        U, D, V = smith_normal_form(A)
        assert U * A * V == D
        assert abs(det(U)) == 1 and abs(det(V)) == 1
        diag = [D.data[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D.data[i][j] == 0
        for i in range(len(diag)):
            assert diag[i] >= 0
            if i and diag[i - 1] != 0:
                assert diag[i] % diag[i - 1] == 0 or diag[i] == 0
        # nonzero diagonal entries must divide the next
        nz = [d for d in diag if d != 0]
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0


def test_smith_normal_form_known():
    # invariant factors by gcds of minors: d1 = 2, d1 d2 = 4, product = det = 624
    A = Matrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    _, D, _ = smith_normal_form(A)
    assert [D.data[i][i] for i in range(3)] == [2, 2, 156]


def test_affine_solver_matches_solve_affine():
    """One AffineSolver per matrix gives the oracle's particular solution
    (free variables zero) entry for entry, or None exactly when the oracle
    finds no solution; solve_affine is the same solve."""
    rng = random.Random(17)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), -2, 2)
        if rng.random() < 0.5 and m.rows:  # make it rank deficient
            m = Matrix(m.data[:-1] + (m.data[0],))
        solver = AffineSolver(m)
        for _ in range(4):
            if rng.random() < 0.5:
                b = m.mul_vec(tuple(Fraction(rng.randint(-3, 3)) for _ in range(m.cols)))
            else:
                b = tuple(Fraction(rng.randint(-3, 3)) for _ in range(m.rows))
            sol = naive_solve(m.data, b, m.cols)
            assert solver.solve(b) == solve_affine(m, b) == (None if sol is None else tuple(sol))
