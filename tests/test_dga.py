from fractions import Fraction

import pytest

from malcev.linalg import Matrix, vec_is_zero
from malcev.lie import heisenberg, abelian
from malcev.freelie import free_nilpotent
from malcev.dga import (
    FiniteDGA, cohomology, cohomology_ring, adjoin_acyclic,
    chevalley_eilenberg, massey_triple, MasseyUndefined,
    formality_consequence_report,
)

from oracles import naive_betti


def unit_vec(n, i):
    return tuple(Fraction(1) if t == i else Fraction(0) for t in range(n))


def test_ce_heisenberg_dims_and_betti():
    A = chevalley_eilenberg(heisenberg())
    assert A.dims == [1, 3, 3, 1]
    H = cohomology(A)
    assert H.betti() == [1, 2, 2, 1]
    assert H.betti() == naive_betti(A.dims, A.d)


def test_ce_abelian_betti_is_binomial():
    A = chevalley_eilenberg(abelian(3))
    assert A.dims == [1, 3, 3, 1]
    assert cohomology(A).betti() == [1, 3, 3, 1]


def test_ce_free_nilpotent_euler_characteristic_zero():
    A = chevalley_eilenberg(free_nilpotent(2, 3))
    b = cohomology(A).betti()
    chi = sum((-1) ** n * bn for n, bn in enumerate(b))
    assert chi == 0
    assert b == naive_betti(A.dims, A.d)


def test_validation_rejects_non_square_zero():
    # d then d must vanish; a single nonzero arrow with a bad follow-up fails
    d0 = Matrix([[Fraction(1)]])
    d1 = Matrix([[Fraction(1)]])
    with pytest.raises(ValueError):
        FiniteDGA([1, 1, 1], [d0, d1], {})


def test_validation_rejects_shapes_that_do_not_match_dims():
    zero = Matrix([[Fraction(0)], [Fraction(0)]])
    with pytest.raises(ValueError, match="differentials"):
        FiniteDGA([1, 2], [zero, Matrix([[Fraction(0), Fraction(0)]])], {})
    with pytest.raises(ValueError, match="product table"):
        FiniteDGA([1, 2, 1], [zero], {(1, 1): [[[1]]]})


@pytest.mark.parametrize("dims", [[1, -3, 1, 1], [1, -3, 3, 1], [], [1, 2.0], [1, True]],
                         ids=["negative", "negative-top-3", "empty", "float", "bool"])
def test_dims_must_be_a_nonempty_list_of_nonnegative_ints(dims):
    """A negative dimension made betti() of [1, -3, 1, 1] read [1, 0, 1, 1],
    and empty dims raised IndexError."""
    with pytest.raises(ValueError, match="dims must be a nonempty list of nonnegative ints"):
        FiniteDGA(dims, [], {})


def test_validation_rejects_non_commutative_product():
    A = chevalley_eilenberg(heisenberg())
    products = {k: [list(row) for row in table] for k, table in A.products.items()}
    # spoil one entry of the (1,1) table so x.y != -y.x
    products[(1, 1)][0][1] = unit_vec(A.dims[2], 0)
    products[(1, 1)][1][0] = unit_vec(A.dims[2], 0)
    with pytest.raises(ValueError):
        FiniteDGA(A.dims, A.d, products)


def test_cohomology_ring_of_heisenberg():
    A = chevalley_eilenberg(heisenberg())
    R = cohomology_ring(A)
    assert R.dims == [1, 2, 2, 1]
    a, b = unit_vec(2, 0), unit_vec(2, 1)
    # the cup product H^1 x H^1 -> H^2 vanishes identically
    assert vec_is_zero(R.product(1, a, 1, b))
    assert vec_is_zero(R.product(1, a, 1, a))
    # but H^1 x H^2 -> H^3 pairs perfectly (Poincare duality)
    pairing = Matrix([[R.product(1, unit_vec(2, i), 2, unit_vec(2, j))[0]
                       for j in range(2)] for i in range(2)])
    from malcev.linalg import det
    assert det(pairing) != 0


def test_massey_heisenberg_nonzero():
    A = chevalley_eilenberg(heisenberg())
    H = cohomology(A)
    a, b = H.representatives[1][0], H.representatives[1][1]
    res = massey_triple(A, (1, a), (1, a), (1, b), H=H)
    assert res.degree == 2
    assert not vec_is_zero(res.rep_class)
    assert res.indeterminacy == []
    assert not res.vanishes


def test_massey_vanishes_in_formal_algebra():
    A = chevalley_eilenberg(abelian(2))
    H = cohomology(A)
    a = H.representatives[1][0]
    res = massey_triple(A, (1, a), (1, a), (1, a), H=H)
    assert res.vanishes
    assert vec_is_zero(res.representative)


def test_massey_undefined_when_product_not_exact():
    A = chevalley_eilenberg(abelian(2))
    a, b = unit_vec(2, 0), unit_vec(2, 1)
    with pytest.raises(MasseyUndefined):
        massey_triple(A, (1, a), (1, b), (1, a))


def test_massey_requires_cocycles():
    A = chevalley_eilenberg(free_nilpotent(2, 3))
    # e3^* is not closed: d e3^* = -e1^* ^ e2^*
    v = unit_vec(A.dims[1], 2)
    with pytest.raises(MasseyUndefined):
        massey_triple(A, (1, v), (1, v), (1, v))


def test_formality_report():
    wit_h, _ = formality_consequence_report(chevalley_eilenberg(heisenberg()))
    assert wit_h  # the Heisenberg algebra is not formal
    wit_a, und_a = formality_consequence_report(chevalley_eilenberg(abelian(2)))
    assert wit_a == []
    assert und_a > 0  # nonzero cup products make most triples undefined


def test_adjoin_acyclic_preserves_betti():
    A = chevalley_eilenberg(heisenberg())
    B, inc = adjoin_acyclic(A, deg=1)
    assert B.dims == [1, 4, 4, 1]
    assert cohomology(B).betti() == cohomology(A).betti()
    # the inclusion maps cocycles to cocycles
    H = cohomology(A)
    for v in H.representatives[1]:
        img = inc[1].mul_vec(v)
        assert vec_is_zero(B.diff(1, img))


def test_json_round_trip():
    A = chevalley_eilenberg(heisenberg())
    B = FiniteDGA.from_json(A.to_json())
    assert B.dims == A.dims
    assert all((B.d[n].data == A.d[n].data) for n in range(A.top))
    assert B.products == A.products
