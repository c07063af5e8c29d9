import json
import random
from fractions import Fraction

import pytest

from malcev.linalg import Matrix, vec_is_zero
from malcev.lie import (
    LieAlgebra, LieIdeal, heisenberg, abelian, NonNilpotentError,
    lower_central_series, nilpotency_class, lcs_dims, associated_graded,
    adapted_basis, direct_sum, check_automorphism, quotient_by_ideal,
)
from malcev.freelie import free_nilpotent
from malcev.present import realized_graded_dims


def test_heisenberg_basics():
    h = heisenberg()
    assert h.dim == 3
    assert h.check_jacobi() == []
    assert h.bracket(h.basis_vector(0), h.basis_vector(1)) == (0, 0, 1)
    assert vec_is_zero(h.bracket(h.basis_vector(0), h.basis_vector(2)))
    assert lcs_dims(h) == [3, 1, 0]
    assert nilpotency_class(h) == 2


def test_jacobi_violation_detected():
    # [e1,e2]=e3, [e1,e3]=e1 violates Jacobi on (e1,e2,e3)
    L = LieAlgebra(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    assert (0, 1, 2) in L.check_jacobi()


def test_grading_validation():
    with pytest.raises(ValueError):
        LieAlgebra(3, {(0, 1): (0, 0, 1)}, grading=[1, 1, 3])
    L = LieAlgebra(3, {(0, 1): (0, 0, 1)}, grading=[1, 1, 2])
    assert L.graded_component_indices(1) == [0, 1]


@pytest.mark.parametrize("grading", [[-1, 1, 0], [0, 1, 1], [0, 0, 0]])
def test_grading_weights_must_be_positive(grading):
    # each grading is additive on [e1, e2] = e3: only positivity rejects it
    with pytest.raises(ValueError, match="grading weights must be positive"):
        LieAlgebra(3, {(0, 1): (0, 0, 1)}, grading=grading)


def test_non_nilpotent_detected():
    # sl2-style: [h,e]=2e, [h,f]=-2f, [e,f]=h
    L = LieAlgebra(3, {(0, 1): (0, 0, 1),
                       (0, 2): (Fraction(-2), 0, 0),
                       (1, 2): (0, Fraction(2), 0)})
    # basis order: e, f, h with [e,f]=h, [e,h]=-2e, [f,h]=2f
    assert L.check_jacobi() == []
    with pytest.raises(NonNilpotentError):
        lower_central_series(L)


def test_json_round_trip():
    h = heisenberg()
    h2 = LieAlgebra.from_json(h.to_json())
    assert h2.dim == h.dim and h2.brackets == h.brackets


def test_brackets_and_json_round_trip_byte_identically():
    F = free_nilpotent(2, 3)
    halves = {key: tuple(c / 2 for c in v) for key, v in F.brackets.items()}
    for L in (heisenberg(), free_nilpotent(3, 3), LieAlgebra(F.dim, halves),
              direct_sum(heisenberg(), F)):
        text = json.dumps(L.to_json(), sort_keys=True)
        again = LieAlgebra.from_json(json.loads(text))
        assert json.dumps(again.to_json(), sort_keys=True) == text
        assert again.brackets == L.brackets
        rebuilt = LieAlgebra(L.dim, L.brackets, L.basis_names, L.grading)
        assert json.dumps(rebuilt.to_json(), sort_keys=True) == text
    with pytest.raises(TypeError):
        L.brackets[(0, 1)] = L.basis_vector(2)


def test_ideal_verification():
    h = heisenberg()
    center = LieIdeal(h, [h.basis_vector(2)])
    assert center.dim == 1 and center.is_ideal()
    assert not LieIdeal(h, [h.basis_vector(0)]).is_ideal()  # span(x) is not an ideal


def test_quotient_is_homomorphism():
    F = free_nilpotent(2, 3)
    chain = lower_central_series(F)
    Q, proj = quotient_by_ideal(F, chain[2])
    assert Q.dim == 3
    # the projection respects brackets by quotient_by_ideal's internal check;
    # spot-check the image algebra is the class-2 free = heisenberg pattern
    assert nilpotency_class(Q) == 2


def test_quotient_rejects_non_ideal():
    h = heisenberg()
    with pytest.raises(ValueError, match="not an ideal"):
        quotient_by_ideal(h, LieIdeal(h, [h.basis_vector(0)]))


def test_associated_graded_of_graded_is_self():
    F = free_nilpotent(2, 3)
    G = associated_graded(F)
    assert realized_graded_dims(G.algebra) == [2, 1, 2]
    # a graded algebra's associated graded has the same structure constants
    assert G.algebra.brackets == F.brackets


def test_associated_graded_filtration():
    rng = random.Random(5)
    # conjugate free_nilpotent(2,3) by a random filtered-unipotent map and
    # check the associated graded still has the free graded dims
    F = free_nilpotent(2, 3)
    n = F.dim
    M = Matrix([[Fraction(1) if i == j else
                 (Fraction(rng.randint(-2, 2)) if i > j else Fraction(0))
                 for j in range(n)] for i in range(n)])
    from malcev.linalg import inverse
    Mi = inverse(M)
    cols = M.columns()
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = Mi.mul_vec(F.bracket(cols[i], cols[j]))
            if not vec_is_zero(v):
                brackets[(i, j)] = v
    L = LieAlgebra(n, brackets)
    assert L.check_jacobi() == []
    G = associated_graded(L)
    assert realized_graded_dims(G.algebra) == [2, 1, 2]
    vectors, degrees = adapted_basis(L)
    assert sorted(degrees) == [1, 1, 2, 3, 3]


def test_direct_sum():
    L = direct_sum(heisenberg(), abelian(2))
    assert L.dim == 5
    assert lcs_dims(L) == [5, 1, 0]
    assert vec_is_zero(L.bracket(L.basis_vector(0), L.basis_vector(3)))


def test_check_automorphism():
    h = heisenberg()
    # (v, w) -> (Av, det(A) w) is an automorphism for any invertible A
    A = Matrix([[2, 3, 0], [1, 2, 0], [0, 0, 1]])
    assert check_automorphism(h, A)
    bad = Matrix([[2, 3, 0], [1, 2, 0], [0, 0, 5]])
    assert not check_automorphism(h, bad)
    singular = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    assert not check_automorphism(h, singular)


def test_ideal_vectors_must_have_the_algebra_dimension():
    with pytest.raises(ValueError):
        LieIdeal(heisenberg(), [(Fraction(0), Fraction(1))])
