"""The int paths of the exact solver and of cohomology against the Fraction
oracles: the solver of ``Matrix.of_ints`` with ``solve_int`` and ``refute``
on int systems over D > 1, the integer view of the result of ``inverse``,
and the Betti numbers as row counts."""

import random
from fractions import Fraction

import pytest

from malcev.dga import cohomology
from malcev.linalg import AffineSolver, Matrix, _sparse, inverse, over

from oracles import gauss_jordan, naive_solve
from test_cohomology_integer_rows import NAMES, dgas


def int_systems(seed, count):
    """(rows, cols, D) of seeded int matrices m = rows / D with D > 1, some
    with a row that is a combination of two others (rank-deficient), and
    empty shapes."""
    rng = random.Random(seed)
    for _ in range(count):
        n, cols = rng.randint(0, 5), rng.randint(0, 5)
        rows = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(n)]
        if n > 2 and rng.random() < 0.5:
            rows[-1] = [2 * a - 3 * b for a, b in zip(rows[0], rows[1])]
        yield rows, cols, rng.choice([2, 3, 6, 35])


def dual_rref(m, cols):
    """The RREF of {y : y m = 0}: the rows of the RREF of [m | id] past its
    pivots on the columns of m."""
    red, pivots = gauss_jordan([tuple(row) + tuple(int(i == j) for j in range(len(m)))
                                for i, row in enumerate(m)], cols + len(m))
    return [row[cols:] for row, p in zip(red, pivots) if p >= cols]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_of_rows_solve_int_matches_the_oracle(seed):
    rng = random.Random(seed)
    solved = unsolved = 0
    for rows, cols, D in int_systems(seed, 60):
        m = [[Fraction(a, D) for a in row] for row in rows]
        solver = AffineSolver(Matrix.of_ints(D, [_sparse(r) for r in rows], cols))
        assert solver.m.data == tuple(map(tuple, m))
        dual = dual_rref(m, cols)
        for _ in range(4):
            if rng.random() < 0.5:   # in the image of m: solvable
                x = [rng.randint(-3, 3) for _ in range(cols)]
                b = [sum(a * c for a, c in zip(row, x)) for row in rows]
            else:
                b = [rng.randint(-3, 3) for _ in range(len(rows))]
            expected = naive_solve(m, b, cols)
            sol = solver.solve_int(b)
            assert (sol is None) is (expected is None)
            y = solver.refute(b)
            if sol is None:
                unsolved += 1
                assert y == next(z for z in dual if sum(a * c for a, c in zip(z, b)))
                continue
            solved += 1
            xs, scale = sol
            assert y is None and scale > 0 and all(type(c) is int for c in xs)
            assert over(xs, scale) == tuple(expected)
            assert solver.solve(tuple(map(Fraction, b))) == tuple(expected)
    assert solved and unsolved


def test_of_rows_keeps_its_input_rows():
    rows = [[(0, 2), (1, 4)], [(0, 1), (1, 1), (2, 3)]]
    AffineSolver(Matrix.of_ints(6, rows, 3))
    assert rows == [[(0, 2), (1, 4)], [(0, 1), (1, 1), (2, 3)]]


def test_of_rows_matches_the_matrix_solver():
    """The same E and pivots as the solver of the Fraction matrix."""
    for rows, cols, D in int_systems(7, 40):
        solver = AffineSolver(Matrix.of_ints(D, [_sparse(r) for r in rows], cols))
        m = Matrix([[Fraction(a, D) for a in row] for row in rows]) if rows \
            else Matrix.zeros(0, cols)
        reference = AffineSolver(m)
        assert solver.pivots == reference.pivots
        assert solver.E == reference.E and solver.E_int == reference.E_int


@pytest.mark.parametrize("seed", [4, 5])
def test_inverse_integer_view_is_its_data(seed):
    rng = random.Random(seed)
    seen = 0
    while seen < 25:
        n = rng.randint(1, 5)
        m = Matrix([[Fraction(rng.randint(-3, 3), rng.choice([1, 2, 5])) for _ in range(n)]
                    for _ in range(n)])
        try:
            inv = inverse(m)
        except ValueError:
            continue
        seen += 1
        D, rows = inv.integer_view()
        dense = [[Fraction(0)] * n for _ in range(n)]
        for i, terms in enumerate(rows):
            for j, c in terms:
                dense[i][j] = Fraction(c, D)
        assert tuple(map(tuple, dense)) == inv.data
        assert m * inv == Matrix.identity(n)
        assert naive_solve(m.data, [int(i == 0) for i in range(n)]) == list(inv.column(0))


@pytest.mark.parametrize("name", NAMES)
def test_betti_counts_the_representatives(name):
    H = cohomology(dgas()[name])
    assert H.betti() == [len(reps) for reps in H.representatives]
