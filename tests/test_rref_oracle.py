"""linalg.rref, echelon_basis and Matrix.mul_vec against textbook
Gauss-Jordan elimination and the plain Fraction sum."""

import random
from fractions import Fraction

import pytest

from malcev.linalg import Matrix, echelon_basis, rref

from oracles import gauss_jordan


def random_matrix(rng, case):
    """A seeded matrix whose shape and entries depend on case % 8: integer,
    fractional, with zero rows and columns, duplicate and rank-deficient
    rows, wide, tall, and the 0 x n and n x 0 shapes."""
    kind = case % 8
    rows, cols = rng.randint(1, 6), rng.randint(1, 7)
    if kind == 5:
        rows, cols = rng.randint(1, 3), rng.randint(6, 10)   # wide
    elif kind == 6:
        rows, cols = rng.randint(6, 10), rng.randint(1, 3)   # tall
    elif kind == 7:
        rows, cols = (0, rng.randint(0, 5)) if rng.random() < 0.5 else (rng.randint(1, 5), 0)
        return Matrix.zeros(rows, cols)

    def entry():
        if rng.random() < 0.4:
            return Fraction(0)
        if kind == 1:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        return Fraction(rng.randint(-5, 5))

    data = [[entry() for _ in range(cols)] for _ in range(rows)]
    if kind == 2:   # a zero row and a zero column
        data[rng.randrange(rows)] = [Fraction(0)] * cols
        z = rng.randrange(cols)
        for row in data:
            row[z] = Fraction(0)
    elif kind == 3 and rows > 1:   # a duplicate and a scaled row
        data[-1] = list(data[0])
        data[rng.randrange(rows)] = [Fraction(-3, 2) * x for x in data[0]]
    elif kind == 4 and rows > 2:   # rank-deficient: a combination of two rows
        a, b = Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3))
        data[-1] = [a * x + b * y for x, y in zip(data[0], data[1])]
    return Matrix(data)


def test_rref_matches_gauss_jordan():
    rng = random.Random(8)
    for case in range(200):
        m = random_matrix(rng, case)
        R, pivots = rref(m)
        expected, expected_pivots = gauss_jordan(m.data, m.cols)
        assert (pivots, R.data) == (expected_pivots, tuple(expected)), m
        assert (R.rows, R.cols) == (m.rows, m.cols), m
        assert all(isinstance(x, Fraction) for row in R.data for x in row)


def test_echelon_basis_matches_gauss_jordan():
    rng = random.Random(14)
    for case in range(200):
        m = random_matrix(rng, case)
        vectors = list(m.data)
        if vectors and case % 3 == 0:   # zero vectors and a repeated vector
            vectors.insert(rng.randrange(len(vectors) + 1), (Fraction(0),) * m.cols)
            vectors.append(vectors[rng.randrange(len(vectors))])
        basis = echelon_basis(vectors, m.cols)
        expected, pivots = gauss_jordan(vectors, m.cols)
        assert basis == expected[:len(pivots)], vectors
        assert all(isinstance(x, Fraction) for row in basis for x in row)
        assert echelon_basis(vectors) == basis


def test_mul_vec_matches_the_fraction_sum():
    rng = random.Random(15)
    for case in range(200):
        m = random_matrix(rng, case)
        twin = Matrix.of_ints(*m.integer_view(), m.cols)   # never multiplied
        for _ in range(2):
            v = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < 0.6
                      else Fraction(0) for _ in range(m.cols))
            expected = tuple(sum((r[j] * v[j] for j in range(m.cols)), Fraction(0))
                             for r in m.data)
            out = m.mul_vec(v)
            assert out == expected, (m, v)
            assert all(isinstance(x, Fraction) for x in out)
        assert m.mul_vec((Fraction(0),) * m.cols) == (Fraction(0),) * m.rows
        assert m == twin and hash(m) == hash(twin)
        with pytest.raises(ValueError):
            m.mul_vec((Fraction(1),) * (m.cols + 1))
