import random
from fractions import Fraction

import pytest

from malcev.linalg import Matrix, vec_is_zero, vec_neg
from malcev.lie import heisenberg, abelian, check_automorphism
from malcev.freelie import free_nilpotent
from malcev.bch import (
    bch, bch_universal, SemidirectElement, GroupPresentation,
    evaluate_word, check_representation, lattice_membership_test,
    lattice_closed_under_bch, commutator_index,
)

from oracles import (
    am_exp, am_log, am_mul, envelope_bch, hall_expansion_in_envelope,
)


def test_class2_formula():
    # g . h = g + h + 1/2 [g, h]
    h = heisenberg()
    assert bch(h.basis_vector(0), h.basis_vector(1), h) == (1, 1, Fraction(1, 2))
    assert bch(h.basis_vector(1), h.basis_vector(0), h) == (1, 1, Fraction(-1, 2))


def test_class3_coefficients():
    coeffs = dict(bch_universal(3))
    assert coeffs[0] == 1 and coeffs[1] == 1
    assert coeffs[(0, 1)] == Fraction(1, 2)
    assert coeffs[(0, (0, 1))] == Fraction(1, 12)
    assert coeffs[(1, (0, 1))] == Fraction(-1, 12)


def test_universal_expansion_matches_envelope_oracle():
    for c in (2, 3, 4, 5):
        mine = hall_expansion_in_envelope(bch_universal(c), c)
        theirs = envelope_bch(c)
        assert mine == theirs


def test_bch_matches_envelope_oracle_through_class_6():
    c = 6
    F = free_nilpotent(2, c)

    def envelope(v):
        return hall_expansion_in_envelope(
            [(w, cf) for w, cf in zip(F.hall_words, v) if cf], c)

    z = bch(F.basis_vector(0), F.basis_vector(1), F)
    assert envelope(z) == envelope_bch(c)
    rng = random.Random(6)
    for _ in range(2):
        x, y = (tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                      if rng.random() < 0.4 else Fraction(0) for _ in range(F.dim))
                for _ in range(2))
        X, Y = envelope(x), envelope(y)
        assert envelope(bch(x, y, F)) == am_log(am_mul(am_exp(X, c), am_exp(Y, c), c), c)


def test_identity_and_inverse():
    F = free_nilpotent(2, 4)
    rng = random.Random(3)
    zero = tuple(Fraction(0) for _ in range(F.dim))
    for _ in range(5):
        x = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  for _ in range(F.dim))
        assert bch(x, zero, F) == x
        assert bch(zero, x, F) == x
        assert vec_is_zero(bch(x, vec_neg(x), F))


def test_associativity():
    F = free_nilpotent(2, 4)
    rng = random.Random(4)
    for _ in range(5):
        x, y, z = (tuple(Fraction(rng.randint(-2, 2)) for _ in range(F.dim))
                   for _ in range(3))
        assert bch(bch(x, y, F), z, F) == bch(x, bch(y, z, F), F)


def test_abelian_bch_is_addition():
    A = abelian(3)
    x = (Fraction(1), Fraction(2), Fraction(-1))
    y = (Fraction(0), Fraction(1, 2), Fraction(3))
    assert bch(x, y, A) == (1, Fraction(5, 2), 2)


def test_semidirect_group_axioms():
    h = heisenberg()
    M = Matrix([[2, 3, 0], [1, 2, 0], [0, 0, 1]])
    assert check_automorphism(h, M)
    rng = random.Random(6)
    els = []
    for _ in range(4):
        log = tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
        aut = M if rng.random() < 0.5 else Matrix.identity(3)
        els.append(SemidirectElement(h, log, aut))
    e = SemidirectElement.identity(h)
    for a in els:
        assert (a * a.inverse()).is_identity()
        assert (a.inverse() * a).is_identity()
        assert a * e == a and e * a == a
        for b in els:
            for c in els:
                assert (a * b) * c == a * (b * c)


def test_heisenberg_presentation_holds():
    # generators exp(e1), exp(e2), exp(w/2) with [X,Y] = Z^2
    h = heisenberg()
    p = GroupPresentation(
        ["x", "y", "z"],
        [["x", "y", "x^-1", "y^-1", "z^-1", "z^-1"],
         ["x", "z", "x^-1", "z^-1"],
         ["y", "z", "y^-1", "z^-1"]])
    assign = {
        "x": SemidirectElement(h, (1, 0, 0)),
        "y": SemidirectElement(h, (0, 1, 0)),
        "z": SemidirectElement(h, (0, 0, Fraction(1, 2))),
    }
    assert check_representation(p, assign) == []
    # breaking the center scaling breaks the first relator
    assign["z"] = SemidirectElement(h, (0, 0, 1))
    defects = check_representation(p, assign)
    assert len(defects) == 1
    assert defects[0][0][0] == "x"


def test_evaluate_word_empty_is_identity():
    h = heisenberg()
    assign = {"x": SemidirectElement(h, (1, 0, 0))}
    assert evaluate_word(assign, []).is_identity()


def test_lattice_membership():
    contains = lattice_membership_test(
        [(1, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 2))])
    assert contains((3, -2, Fraction(5, 2)))
    assert not contains((Fraction(1, 2), 0, 0))
    assert not contains((0, 0, Fraction(1, 3)))


def test_lattice_rejects_malformed_bases():
    """Vectors of unequal length, once read as the basis e1, e2 of Z^2
    (so (0, 1) was inside), and an empty list, once an IndexError, both
    raise ValueError; so does the closure scan, whose products no longer
    pass through the length check of bch."""
    for basis in ([(1, 0), (0, 1, 0)], []):
        with pytest.raises(ValueError):
            lattice_membership_test(basis)
        with pytest.raises(ValueError):
            lattice_closed_under_bch(heisenberg(), basis)
    with pytest.raises(ValueError):
        lattice_closed_under_bch(heisenberg(), [(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        lattice_membership_test([(1, 0), (0, 1)])((0, 1, 0))


def test_heisenberg_lattice_closed():
    h = heisenberg()
    good = [(1, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 2))]
    assert lattice_closed_under_bch(h, good) is None
    bad = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    witness = lattice_closed_under_bch(h, bad)
    assert witness is not None
    x, y, z = witness
    assert z[2].denominator == 2  # the half-center coordinate escapes


def test_commutator_index():
    M = Matrix([[2, 3], [1, 2]])
    assert commutator_index(M) == 2
    assert commutator_index(Matrix.identity(2)) is None
    assert commutator_index(Matrix([[2, 0], [0, 2]])) == 1
    assert commutator_index(Matrix([[3, 0], [0, 3]])) == 4
    with pytest.raises(ValueError):
        commutator_index(Matrix([[Fraction(1, 2), 0], [0, 1]]))
