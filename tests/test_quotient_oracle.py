"""quotient_by_ideal and the lower central series against dense oracles."""

import random
from fractions import Fraction

import pytest

from malcev.lie import (
    LieAlgebra, LieIdeal, NonNilpotentError, quotient_by_ideal, lower_central_series,
    nilpotency_class, lcs_dims, direct_sum, abelian, heisenberg, _lcs_bases, _generators,
)
from malcev.freelie import free_nilpotent, graded_ideal_closure
from malcev.dgla import lcs_extension
from malcev.linalg import _dense, echelon_basis

from oracles import dense_bracket, dense_quotient, gauss_jordan, naive_lcs

SL2 = LieAlgebra(3, {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)},
                 basis_names=("e", "f", "h"))


def conjugate(L, rng):
    """L in the basis of the columns of a seeded unipotent lower-triangular
    matrix M with its rows permuted: [f_i, f_j] = M^-1 [M e_i, M e_j],
    computed with the oracles."""
    n = L.dim
    rows = [[Fraction(1) if r == c else (Fraction(rng.randint(-1, 1)) if r > c else Fraction(0))
             for c in range(n)] for r in range(n)]
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


def check_against_oracle(L, basis):
    """quotient_by_ideal(L, span(basis)) equals the dense oracle entry for
    entry; returns (Q, projection)."""
    Q, proj = quotient_by_ideal(L, LieIdeal(L, basis))
    comp, brackets, proj_rows = dense_quotient(L.dim, L.brackets, basis)
    assert dict(Q.brackets) == brackets
    assert proj.data == tuple(proj_rows)
    assert (proj.rows, proj.cols) == (len(comp), L.dim)
    assert Q.grading == (None if L.grading is None else tuple(L.grading[c] for c in comp))
    return Q, proj


def random_homogeneous(F, n, rng):
    v = [Fraction(0)] * F.dim
    for i in F.graded_component_indices(n):
        v[i] = Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2)))
    return tuple(v)


@pytest.mark.parametrize("k,c", [(2, 4), (3, 3), (4, 3)])
def test_quotient_by_graded_ideal_closure(k, c):
    F = free_nilpotent(k, c)
    rng = random.Random(10 * k + c)
    for _ in range(3):
        gens = [random_homogeneous(F, 2, rng) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.5:
            gens.append(random_homogeneous(F, 3, rng))
        ideal, _ = graded_ideal_closure(F, gens)
        check_against_oracle(F, ideal.basis)


def test_quotient_by_lcs_terms_of_basis_changes():
    rng = random.Random(33)
    for _ in range(3):
        C = conjugate(free_nilpotent(3, 3), rng)
        for term in lower_central_series(C):
            check_against_oracle(C, term.basis)


def test_lcs_extension_quotients():
    rng = random.Random(34)
    for N in (heisenberg(), conjugate(free_nilpotent(2, 4), rng),
              conjugate(free_nilpotent(3, 3), rng)):
        chain = lower_central_series(N)
        for k in range(1, len(chain)):
            e = lcs_extension(N, k)
            upper, pu = check_against_oracle(N, chain[k].basis)
            assert (dict(e.N.brackets), e.quotient.data) == (dict(upper.brackets), pu.data)
            image, pivots = gauss_jordan([pu.mul_vec(v) for v in chain[k - 1].basis], upper.dim)
            lower, proj = check_against_oracle(upper, image[:len(pivots)])
            assert (dict(e.M.brackets), e.projection.data) == (dict(lower.brackets), proj.data)


def test_quotient_of_non_nilpotent_algebra():
    # in sl2 + Q the complement of [L, L] = sl2 is the Q summand, which
    # generates only itself, so the ideal check runs on every basis vector
    L = direct_sum(SL2, abelian(1))
    assert _generators(L) == (0, 1, 2, 3)
    units = [L.basis_vector(i) for i in range(4)]
    Q, _ = check_against_oracle(L, units[:3])
    assert Q.dim == 1 and not Q.brackets
    # span(e) is normalised by h and by the Q summand, but [f, e] = -h
    with pytest.raises(ValueError, match="not an ideal"):
        quotient_by_ideal(L, LieIdeal(L, units[:1]))


def test_generators_of_nilpotent_algebras():
    F = free_nilpotent(3, 3)
    assert _generators(F) == tuple(F.graded_component_indices(1))
    assert _generators(heisenberg()) == (0, 1)
    assert _generators(abelian(0)) == ()


def test_lcs_of_non_nilpotent_algebras():
    for L in (SL2, direct_sum(SL2, abelian(1))):
        with pytest.raises(NonNilpotentError):
            nilpotency_class(L)


def test_lcs_of_zero_and_abelian_algebras():
    assert nilpotency_class(abelian(0)) == 0
    assert lcs_dims(abelian(0)) == [0]
    assert lcs_dims(abelian(3)) == [3, 0]


def test_lcs_matches_oracle_on_basis_changes():
    rng = random.Random(35)
    for L in (heisenberg(), free_nilpotent(2, 4), free_nilpotent(3, 3)):
        for _ in range(2):
            C = conjugate(L, rng)
            assert [term.basis for term in lower_central_series(C)] == naive_lcs(C.dim, C.brackets)
            # the kept terms are int rows, each a multiple of its RREF row
            for rows, term in zip(_lcs_bases(C), lower_central_series(C)):
                assert all(type(x) is int for r in rows for _, x in r)
                assert echelon_basis([_dense(r, C.dim) for r in rows], C.dim) == term.basis
