"""The one stored form of a Matrix: sparse int rows over the least common
denominator of the entries.  A matrix built from Fractions and one built
with ``Matrix.of_ints`` from any multiple of the same int rows are equal,
hash alike and read the same entries; and every matrix the library makes,
whichever way, is stored over the lcm of its entry denominators."""

import random
from fractions import Fraction
from math import lcm

import pytest

from malcev.dga import chevalley_eilenberg
from malcev.lie import heisenberg, lower_central_series, quotient_by_ideal
from malcev.linalg import (
    AffineSolver, Matrix, inverse, right_inverse, rref, smith_normal_form,
)

from test_rref_oracle import random_matrix


def assert_canonical(m):
    """m is stored over the lcm of its entry denominators, as sparse terms
    with nonzero coefficients in column order."""
    D, rows = m.integer_view()
    assert D == lcm(*(e.denominator for row in m.data for e in row))
    assert len(rows) == m.rows
    for terms in rows:
        assert all(type(c) is int and c for _, c in terms)
        assert [j for j, _ in terms] == sorted({j for j, _ in terms})
        assert all(0 <= j < m.cols for j, _ in terms)


def test_fraction_and_int_constructors_give_one_matrix():
    rng = random.Random(29)
    for case in range(200):
        m = random_matrix(rng, case)
        built = Matrix(m.data) if m.rows else m
        assert_canonical(built)
        D, rows = built.integer_view()
        for k in (1, 2, 6, 35):
            twin = Matrix.of_ints(k * D, [tuple((j, k * c) for j, c in terms) for terms in rows],
                                  m.cols)
            assert twin == built and hash(twin) == hash(built)
            assert twin.data == built.data
            assert twin.integer_view() == (D, rows)


def test_library_results_are_stored_over_the_least_denominator():
    rng = random.Random(30)
    made = 0
    for case in range(160):
        m = random_matrix(rng, case)
        for result in (m, rref(m)[0], AffineSolver(m).E, Matrix.zeros(m.rows, m.cols),
                       Matrix.identity(m.cols), m * Matrix.identity(m.cols),
                       Matrix.from_columns(m.columns(), rows=m.rows)):
            assert_canonical(result)
        try:
            s = right_inverse(m)
        except ValueError:
            pass
        else:
            assert_canonical(s)
            assert m * s == Matrix.identity(m.rows)
            made += 1
        if m.rows == m.cols:
            try:
                assert_canonical(inverse(m))
            except ValueError:
                pass
        if m.is_integral():
            for result in smith_normal_form(m):
                assert_canonical(result)
    assert made > 20


def test_derived_matrices_are_stored_over_the_least_denominator():
    L = heisenberg()
    Q, projection = quotient_by_ideal(L, lower_central_series(L)[1])
    assert_canonical(projection)
    for d in chevalley_eilenberg(L).d:
        assert_canonical(d)
    half = Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    assert half.integer_view() == (6, (((0, 3),), ((1, 2),)))
    assert_canonical(half * half)


def test_zero_row_and_zero_column_matrices_keep_their_shape():
    assert Matrix.zeros(0, 2) != Matrix.zeros(0, 3)
    assert Matrix.zeros(2, 0) != Matrix.zeros(2, 3)
    assert Matrix.zeros(0, 2) == Matrix.from_columns([(), ()])
    for rows, cols in ((0, 3), (2, 0)):
        assert Matrix.zeros(rows, cols) - Matrix.zeros(rows, cols) == Matrix.zeros(rows, cols)
    with pytest.raises(ValueError):
        Matrix.zeros(2, 2) - Matrix.zeros(2, 3)
