"""lie.associated_graded against the dense oracle of tests/oracles.py, on
seeded unipotent basis changes of small nilpotent algebras, plain and with
the rows of the basis matrix shuffled."""

import random
from fractions import Fraction

import pytest

from malcev.lie import LieAlgebra, associated_graded, heisenberg
from malcev.freelie import free_nilpotent
from malcev.present import CupDatum, malcev_model, realize

from oracles import dense_associated_graded, dense_bracket, gauss_jordan


def unipotent_conjugate(L, rng, permute):
    """L in the basis of the columns of a seeded unipotent lower-triangular
    matrix M, with entries in {-1, 0, 1, 1/2} below the diagonal and, if
    permute, its rows shuffled: [f_i, f_j] = M^-1 [M e_i, M e_j], by the
    oracles.  Shuffled rows give the lower central series terms, and so the
    adapted vectors and their inverse, denominators other than 1."""
    n = L.dim
    rows = [[Fraction(1) if r == c else
             (Fraction(rng.choice((-1, 0, 1, 1, Fraction(1, 2)))) if r > c else Fraction(0))
             for c in range(n)] for r in range(n)]
    if permute:
        rng.shuffle(rows)
    cols = [tuple(rows[r][c] for r in range(n)) for c in range(n)]
    inv = [row[n:] for row in gauss_jordan(
        [rows[r] + [Fraction(int(r == c)) for c in range(n)] for r in range(n)], 2 * n)[0]]
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = dense_bracket(n, L.brackets, cols[i], cols[j])
            if any(v):
                table[(i, j)] = tuple(sum((r[k] * v[k] for k in range(n) if v[k]), Fraction(0))
                                      for r in inv)
    return LieAlgebra(n, table)


def genus2_class3():
    """The genus-2 cup model (w = a1^b1 + a2^b2) realized at class 3."""
    m = [[[0]] * 4 for _ in range(4)]
    m[0][1], m[1][0], m[2][3], m[3][2] = [1], [-1], [1], [-1]
    return realize(malcev_model(CupDatum(4, 1, m)), 3)[0]


def check_against_oracle(L):
    G = associated_graded(L)
    vectors, degrees, brackets = dense_associated_graded(L.dim, L.brackets)
    assert [tuple(v) for v in G.from_parent] == vectors
    assert G.algebra.grading == tuple(degrees)
    assert dict(G.algebra.brackets) == brackets
    assert all(isinstance(x, Fraction) for v in G.algebra.brackets.values() for x in v)


@pytest.mark.parametrize("name,make,shuffles", [
    pytest.param("heisenberg", heisenberg, (False, True, False, True), id="heisenberg"),
    pytest.param("F(2,3)", lambda: free_nilpotent(2, 3), (False, True, True), id="F(2,3)"),
    pytest.param("F(3,2)", lambda: free_nilpotent(3, 2), (False, True, True), id="F(3,2)"),
    pytest.param("genus2-class3", genus2_class3, (False,), id="genus2-class3"),
])
def test_associated_graded_matches_oracle(name, make, shuffles):
    L = make()
    check_against_oracle(L)
    rng = random.Random(name)
    for permute in shuffles:
        check_against_oracle(unipotent_conjugate(L, rng, permute))
