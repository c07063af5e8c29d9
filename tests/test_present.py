import json
import random
from fractions import Fraction

import pytest

from malcev.linalg import Matrix, inverse, vec_is_zero, spans_equal
from malcev.lie import (
    LieAlgebra, heisenberg, abelian, direct_sum, associated_graded,
    lower_central_series,
)
from malcev.freelie import free_nilpotent
from malcev.bch import GroupPresentation, check_representation
from malcev.cli import main
from malcev.present import (
    pair_index, QuadraticPresentation, realize, realized_graded_dims,
    is_quadratically_presented, direct_summand_quadratic, CupDatum,
    malcev_model, lift_representation_criterion,
    lift_one_class, _filtered_iso, _verify_filtered_iso,
)


def torus_cup():
    # one symplectic pair: a ^ b spans H^2
    return CupDatum(2, 1, [[[0], [1]], [[-1], [0]]])


def genus2_cup():
    z, o = [0], [1]
    m = [[z] * 4 for _ in range(4)]
    m[0][1], m[1][0] = [1], [-1]
    m[2][3], m[3][2] = [1], [-1]
    return CupDatum(4, 1, m)


def zero_cup(k):
    return CupDatum(k, 0, [[[] for _ in range(k)] for _ in range(k)])


def test_pair_index_order():
    assert pair_index(3) == [(0, 1), (0, 2), (1, 2)]


def test_presentation_equality_up_to_span():
    p1 = QuadraticPresentation(3, [[1, 0, 0], [0, 1, 0]])
    p2 = QuadraticPresentation(3, [[1, 1, 0], [2, -1, 0]])
    assert p1 == p2
    assert p1 != QuadraticPresentation(3, [[1, 0, 0]])
    assert QuadraticPresentation.from_json(p1.to_json()) == p1


def test_cup_datum_validates_antisymmetry():
    with pytest.raises(ValueError):
        CupDatum(2, 1, [[[1], [1]], [[-1], [0]]])


def test_realize_torus_model():
    qp = malcev_model(torus_cup())
    Q, stabilized = realize(qp, 3)
    assert stabilized
    assert Q.dim == 2 and not Q.brackets


def test_realize_zero_cup_is_free():
    qp = malcev_model(zero_cup(2))
    Q, stabilized = realize(qp, 3)
    assert not stabilized
    assert Q.dim == free_nilpotent(2, 3).dim
    assert realized_graded_dims(Q) == [2, 1, 2]


def test_realize_genus2_model(capsys):
    qp = malcev_model(genus2_cup())
    Q, stabilized = realize(qp, 3)
    assert realized_graded_dims(Q) == [4, 5, 16]
    assert Q.dim == 25
    assert not stabilized  # surface-group models keep growing
    assert main(["malcev-model", json.dumps(genus2_cup().to_json()), "--out", "json"]) == 0
    assert set(json.loads(capsys.readouterr().out)["verdicts"]["weights"]) == {-1, -2, -3}


def test_malcev_model_relations_are_pairing_duals():
    qp = malcev_model(genus2_cup())
    # a single relation a1^b1 + a2^b2 in the canonical pair order
    assert len(qp.relations) == 1
    pairs = pair_index(4)
    r = qp.relations[0]
    assert r[pairs.index((0, 1))] == r[pairs.index((2, 3))]
    assert r[pairs.index((0, 1))] != 0
    assert all(r[pairs.index(p)] == 0 for p in [(0, 2), (0, 3), (1, 2), (1, 3)])


def test_heisenberg_not_quadratic():
    v = is_quadratically_presented(heisenberg())
    assert not v.yes
    assert v.stage == "graded"
    assert v.failing_degree == 3
    assert v.defect_dim == 2


def higher_heisenberg():
    """The 5-dim Heisenberg algebra as a quadratic realization.

    Its relation space is the kernel of the symplectic pairing
    x1^x2 + x3^x4; with two symplectic pairs the quadratic defect of the
    3-dim case disappears.
    """
    pairs = pair_index(4)
    omega = [1 if p in [(0, 1), (2, 3)] else 0 for p in pairs]
    from malcev.linalg import Matrix, kernel_basis
    qp = QuadraticPresentation(4, kernel_basis(Matrix([omega])))
    Q, stabilized = realize(qp, 3)
    assert stabilized
    return qp, Q


def test_abelian_is_quadratic_with_full_relations():
    v = is_quadratically_presented(abelian(3))
    assert v.yes
    assert len(v.W) == 3  # every wedge pair is a relation


def test_higher_heisenberg_is_quadratic():
    qp, Q = higher_heisenberg()
    assert realized_graded_dims(Q) == [4, 1]
    assert Q.brackets  # nonabelian
    v = is_quadratically_presented(Q)
    assert v.yes
    assert spans_equal(v.W, list(qp.relations))


def test_truncated_free_class3_not_quadratic():
    # free_nilpotent(2, 3) is a truncation: no quadratic relations, but the
    # degree-4 component of the free algebra does not vanish
    v = is_quadratically_presented(free_nilpotent(2, 3))
    assert not v.yes
    assert v.stage == "graded"
    assert v.failing_degree == 4


def rand_stabilized(rng):
    """A random stabilized quadratic realization plus its presentation."""
    while True:
        k = rng.choice([2, 3])
        m = len(pair_index(k))
        nrel = rng.randint(1, m)
        rels = [[Fraction(rng.randint(-2, 2)) for _ in range(m)]
                for _ in range(nrel)]
        if all(all(c == 0 for c in r) for r in rels):
            continue
        qp = QuadraticPresentation(k, rels)
        Q, stabilized = realize(qp, 4)
        if stabilized:
            return qp, Q


def test_round_trip_recovers_relations():
    rng = random.Random(21)
    for _ in range(10):
        qp, Q = rand_stabilized(rng)
        v = is_quadratically_presented(Q)
        assert v.yes
        assert spans_equal(v.W, list(qp.relations))


def test_verdict_invariant_under_filtered_basis_change():
    rng = random.Random(22)
    qp, Q = rand_stabilized(rng)
    n = Q.dim
    M = Matrix([[Fraction(1) if i == j else
                 (Fraction(rng.randint(-1, 1)) if i > j else Fraction(0))
                 for j in range(n)] for i in range(n)])
    Mi = inverse(M)
    cols = M.columns()
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = Mi.mul_vec(Q.bracket(cols[i], cols[j]))
            if not vec_is_zero(v):
                brackets[(i, j)] = v
    conj = LieAlgebra(n, brackets)
    v = is_quadratically_presented(conj)
    assert v.yes
    assert spans_equal(v.W, list(qp.relations))


def basis_algebra(dim, products):
    """Brackets [e_i, e_j] = e_k from a dict (i, j) -> k."""
    return LieAlgebra(dim, {(i, j): [1 if t == k else 0 for t in range(dim)]
                            for (i, j), k in products.items()})


def filtered_iso(L):
    G, chain = associated_graded(L), lower_central_series(L)
    theta = _filtered_iso(L, G, chain)
    assert theta is None or _verify_filtered_iso(L, G, chain, theta)
    return theta


MODEL_FILIFORM = {(0, 1): 2, (0, 2): 3, (0, 3): 4}


def test_filtered_iso_none_on_l56():
    # L_{5,6}: the model filiform brackets plus [e1, e2] = e4.  Its gr is the
    # model filiform algebra, but it has no grading derivation, so no theta
    L56 = basis_algebra(5, {**MODEL_FILIFORM, (1, 2): 4})
    gr = associated_graded(L56).algebra
    assert sorted(gr.brackets) == sorted(MODEL_FILIFORM)
    assert filtered_iso(L56) is None


def test_filtered_iso_found_at_class_4():
    assert filtered_iso(basis_algebra(5, MODEL_FILIFORM)) is not None
    # a loose unipotent basis change of the class-4 free algebra on 2
    # generators mixes degrees both ways, so theta needs a real solve
    rng = random.Random(23)
    F = free_nilpotent(2, 4)
    n = F.dim
    M = Matrix([[Fraction(1) if i == j else
                 (Fraction(rng.randint(-1, 1)) if i > j else Fraction(0))
                 for j in range(n)] for i in range(n)])
    Mi = inverse(M)
    cols = M.columns()
    conj = LieAlgebra(n, {(i, j): Mi.mul_vec(F.bracket(cols[i], cols[j]))
                          for i in range(n) for j in range(i + 1, n)})
    G = associated_graded(conj)
    theta = filtered_iso(conj)
    assert theta is not None and theta != Matrix.from_columns(G.from_parent)


def test_direct_summand_quadratic():
    qp, L1 = higher_heisenberg()
    L2 = abelian(2)
    v = is_quadratically_presented(direct_sum(L1, L2))
    assert v.yes
    v1 = direct_summand_quadratic(L1, L2, v)
    assert v1.yes
    assert spans_equal(v1.W, list(qp.relations))
    # and the abelian summand the other way around
    v2 = direct_summand_quadratic(L2, L1, is_quadratically_presented(direct_sum(L2, L1)))
    assert v2.yes


def test_direct_summand_requires_yes_verdict():
    with pytest.raises(ValueError):
        direct_summand_quadratic(abelian(1), abelian(1),
                                 is_quadratically_presented(heisenberg()))


def test_lift_criterion_obstructed_into_free():
    qp = malcev_model(torus_cup())  # one relation [x, y]
    U = free_nilpotent(2, 3)
    e1, e2 = U.basis_vector(0), U.basis_vector(1)
    res = lift_representation_criterion(qp, U, [e1, e2])
    assert not res.lifted
    (rel, val), = res.witness
    assert val == U.bracket(e1, e2) or val == tuple(-c for c in U.bracket(e1, e2))


def test_lift_criterion_succeeds_with_commuting_images():
    qp = malcev_model(torus_cup())
    U = free_nilpotent(2, 3)
    e1 = U.basis_vector(0)
    res = lift_representation_criterion(qp, U, [e1, e1])
    assert res.lifted


def test_lift_criterion_rejects_deep_images():
    qp = malcev_model(torus_cup())
    U = free_nilpotent(2, 3)
    deep = U.basis_vector(U.dim - 1)  # degree 3
    with pytest.raises(ValueError):
        lift_representation_criterion(qp, U, [deep, deep])


HEIS_PRESENTATION = GroupPresentation(
    ["x", "y", "z"],
    [["x", "y", "x^-1", "y^-1", "z^-1", "z^-1"],
     ["x", "z", "x^-1", "z^-1"],
     ["y", "z", "y^-1", "z^-1"]])


def test_lift_one_class_obstructed():
    # the integral Heisenberg group admits no lift into the class-3 free
    # group on its two generator images
    U = free_nilpotent(2, 3)
    assignment = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, Fraction(1, 2))}
    res = lift_one_class(HEIS_PRESENTATION, assignment, U, 3)
    assert not res.lifted
    # every defect lands in the new central degree-3 layer, spanned by the
    # Hall vectors [x,[x,y]] and [y,[x,y]] (coordinates 3 and 4)
    nonzero = [w for w in res.witness if not vec_is_zero(w[1])]
    assert nonzero
    for _, d in nonzero:
        assert all(c == 0 for c in d[:3])


def test_lift_one_class_commutator_defect_is_invariant():
    # Z^2 does not lift into the Heisenberg group: central corrections never
    # move a commutator defect, so the witness is the center generator
    p = GroupPresentation(["a", "b"], [["a", "b", "a^-1", "b^-1"]])
    res = lift_one_class(p, {"a": (1, 0), "b": (0, 1)}, heisenberg(), 2)
    assert not res.lifted
    (_, d), = res.witness
    assert d == (0, 0, 1)


def test_lift_one_class_succeeds():
    # the Heisenberg presentation lifts into its own group: the relator
    # x y x^-1 y^-1 z^-2 has exponent sum -2 in z, so the central correction
    # z -> w/2 is found by the affine solve
    U = heisenberg()
    assignment = {"x": (1, 0), "y": (0, 1), "z": (0, 0)}
    res = lift_one_class(HEIS_PRESENTATION, assignment, U, 2)
    assert res.lifted
    assert check_representation(HEIS_PRESENTATION, res.images) == []
    assert res.images["z"].log == (0, 0, Fraction(1, 2))


def test_lift_one_class_with_ambient_automorphism():
    # H_Z x|_M Z with M = [[2, 1], [1, 1]]: t acts on the Heisenberg group by
    # the automorphism of U = heisenberg() that is M on the generators
    p = GroupPresentation(
        ["x", "y", "z", "t"],
        [["x", "y", "x^-1", "y^-1", "z^-1"],
         ["x", "z", "x^-1", "z^-1"],
         ["y", "z", "y^-1", "z^-1"],
         ["t", "x", "t^-1", "y^-1", "x^-1", "x^-1"],
         ["t", "y", "t^-1", "y^-1", "x^-1"],
         ["t", "z", "t^-1", "z^-1"]])
    assignment = {"x": (1, 0), "y": (0, 1), "z": (0, 0), "t": (0, 0)}
    A = Matrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    res = lift_one_class(p, assignment, heisenberg(), 2, ambient_auts={"t": A})
    assert res.lifted
    assert check_representation(p, res.images) == []
    half = Fraction(1, 2)
    assert {g: el.log for g, el in res.images.items()} == {
        "x": (1, 0, -half), "y": (0, 1, -half), "z": (0, 0, 1), "t": (0, 0, 0)}
    assert res.images["t"].aut == A


def test_lift_one_class_validates_level():
    U = heisenberg()
    p = GroupPresentation(["a", "b"], [["a", "b", "a^-1", "b^-1"]])
    with pytest.raises(ValueError):
        lift_one_class(p, {"a": (1, 0), "b": (0, 1)}, U, 5)


def test_verify_filtered_iso_rejects_a_broken_bracket():
    # F(2,3) is graded, so its adapted basis is the unit vectors.  m adds the
    # degree-3 vector e_3 to the image of e_2 = +-[e_0, e_1]: m is invertible
    # and gr(m) = id, but m[e_0, e_1] != [m e_0, m e_1], and that pair is the
    # only one that fails.
    F = free_nilpotent(2, 3)
    G, chain = associated_graded(F), lower_central_series(F)
    assert [tuple(v) for v in G.from_parent] == [F.basis_vector(i) for i in range(F.dim)]
    assert _verify_filtered_iso(F, G, chain, Matrix.identity(F.dim))
    m = Matrix([[Fraction(int(r == c or (r, c) == (3, 2))) for c in range(F.dim)]
                for r in range(F.dim)])
    assert not _verify_filtered_iso(F, G, chain, m)
