"""graded_ideal_closure against a dense oracle, the RREF bases that the lower
central series and the closure keep without a second echelon, and the
integer ideal check of quotient_by_ideal on fractional spans."""

import random
from fractions import Fraction

import pytest

import oracles
from malcev.freelie import free_nilpotent, graded_ideal_closure
from malcev.lie import (
    LieIdeal, direct_sum, heisenberg, lower_central_series, quotient_by_ideal,
)
from malcev.linalg import echelon_basis, span_contains
from malcev.present import QuadraticPresentation, realize

from test_quotient_oracle import conjugate

INTERLEAVED = direct_sum(free_nilpotent(2, 3), free_nilpotent(3, 2))


def random_homogeneous(L, n, rng):
    """A seeded vector of degree n with entries p/q, q in {1, 2, 3, 6}."""
    v = [Fraction(0)] * L.dim
    for i in L.graded_component_indices(n):
        v[i] = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 6)))
    return tuple(v)


def seeded_generators(L, rng):
    """One to three generators, mostly of degree >= 2, sometimes of degree
    1, sometimes with a zero vector among them."""
    top = max(L.grading)
    gens = [random_homogeneous(L, rng.choice([1] + [2, 2, 3, 4][:top - 1] * 2), rng)
            for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.2:
        gens.append((Fraction(0),) * L.dim)
    return gens


def per_degree(L, basis):
    """The basis vectors grouped by the degree of their pivot, degrees 1 to
    the top one: the RREF bases of the pieces when the span is graded."""
    degree = [L.grading[next(t for t, c in enumerate(v) if c)] for v in basis]
    return [[v for v, d in zip(basis, degree) if d == n] for n in range(1, max(L.grading) + 1)]


def check_against_oracle(L, gens):
    ideal, dims = graded_ideal_closure(L, gens)
    basis, oracle_per_degree = oracles.graded_ideal_closure(L.dim, L.brackets, L.grading, gens)
    assert ideal.basis == basis
    assert ideal.basis == echelon_basis(ideal.basis, L.dim)
    assert per_degree(L, ideal.basis) == oracle_per_degree
    assert dims == [len(piece) for piece in oracle_per_degree]
    return ideal


@pytest.mark.parametrize("k,c", [(2, 3), (2, 5), (3, 3), (3, 4), (4, 2), (4, 3)])
def test_closure_matches_oracle_in_free_algebras(k, c):
    F = free_nilpotent(k, c)
    rng = random.Random(100 * k + c)
    for _ in range(4):
        check_against_oracle(F, seeded_generators(F, rng))


def test_closure_matches_oracle_when_components_interleave():
    L = INTERLEAVED
    assert list(L.grading) != sorted(L.grading)
    rng = random.Random(7)
    for _ in range(8):
        check_against_oracle(L, seeded_generators(L, rng))
    # one generator in each summand: pivots of both alternate in the RREF
    x, y = L.graded_component_indices(2)[0], L.graded_component_indices(2)[-1]
    ideal = check_against_oracle(L, [L.basis_vector(x), L.basis_vector(y)])
    assert [L.grading[next(t for t, c in enumerate(v) if c)] for v in ideal.basis] == [2, 3, 3, 2]


def test_closure_of_nothing_and_of_everything():
    F = free_nilpotent(3, 3)
    ideal, dims = graded_ideal_closure(F, [])
    assert ideal.basis == [] and dims == [0, 0, 0]
    ideal, dims = graded_ideal_closure(F, [F.basis_vector(i) for i in range(3)])
    assert ideal.basis == [F.basis_vector(i) for i in range(F.dim)]
    assert dims == [len(piece) for piece in per_degree(F, ideal.basis)] == [3, 3, 8]


def test_closure_rejects_bad_generators():
    F = free_nilpotent(2, 3)
    with pytest.raises(ValueError, match="not homogeneous"):
        graded_ideal_closure(F, [tuple(Fraction(1) for _ in range(F.dim))])
    with pytest.raises(ValueError, match="length"):
        graded_ideal_closure(F, [(Fraction(1),)])
    with pytest.raises(ValueError, match="graded"):
        graded_ideal_closure(heisenberg(), [])


def test_lower_central_series_terms_are_rref():
    rng = random.Random(8)
    algebras = [heisenberg(), free_nilpotent(3, 3), INTERLEAVED,
                conjugate(free_nilpotent(2, 4), rng), conjugate(free_nilpotent(3, 3), rng),
                realize(QuadraticPresentation(3, [[1, 1, 0]]), 4)[0]]
    for L in algebras:
        chain = lower_central_series(L)
        for term, oracle_basis in zip(chain, oracles.naive_lcs(L.dim, L.brackets)):
            assert term.basis == echelon_basis(term.basis, L.dim) == oracle_basis
        # the terms hold fresh lists: changing one leaves the kept chain
        chain[-2].basis.append(L.basis_vector(0))
        assert lower_central_series(L)[-2].basis == chain[-2].basis[:-1]


def test_quotient_rejects_fractional_spans_that_are_not_ideals():
    F = free_nilpotent(3, 3)
    v = [Fraction(0)] * F.dim
    v[F.hall_index[(0, 1)]], v[F.hall_index[(1, 2)]] = Fraction(1, 2), Fraction(-2, 3)
    span = LieIdeal(F, [v])
    assert span.basis[0][F.hall_index[(1, 2)]] == Fraction(-4, 3)
    with pytest.raises(ValueError, match="not an ideal"):
        quotient_by_ideal(F, span)
    # on a table with denominators: one vector of G_2 outside G_3
    C = conjugate(free_nilpotent(2, 3), random.Random(9))
    g2, g3 = (term.basis for term in lower_central_series(C)[1:3])
    w = next(b for b in g2 if not span_contains(g3, b))
    span = LieIdeal(C, [tuple(a + b / 3 for a, b in zip(w, g3[1])), g3[0]])
    assert any(x.denominator > 1 for b in span.basis for x in b)
    with pytest.raises(ValueError, match="not an ideal"):
        quotient_by_ideal(C, span)
    assert quotient_by_ideal(C, LieIdeal(C, [w] + g3))[0].dim == 2
