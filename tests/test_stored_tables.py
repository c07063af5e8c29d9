"""One stored form for LieAlgebra and FiniteDGA: the int tables.

``LieAlgebra.of_ints`` and the dense constructor give one algebra (same
table over the least D, same ``brackets`` view, same JSON bytes, same
grading error), and the library's own builders (quotients, gr, free
truncations, A^0 ox N) hand over int tables without the dense constructor.
On the DGA side, ``adjoin_acyclic`` extends the int tables and equals the
dense construction, and ``cohomology_ring`` builds no Fraction view of a
matrix.
"""

import json
import pathlib
import random
from fractions import Fraction
from math import lcm

import pytest

from malcev.bch import commutator_index, lattice_membership_test
from malcev.dga import FiniteDGA, adjoin_acyclic, chevalley_eilenberg, cohomology_ring
from malcev.dgla import TensorDGLA
from malcev.freelie import free_nilpotent
from malcev.lie import (
    LieAlgebra, abelian, associated_graded, check_automorphism, direct_sum, heisenberg,
    is_lie_isomorphism, lower_central_series, quotient_by_ideal,
)
from malcev.linalg import Matrix, unit

from test_dga_table import FILIFORM4, conjugate, fractional_dgas

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "malcev"


@st.composite
def int_tables(draw):
    """(dim, D, pairs, grading): random int terms of D [e_i, e_j], with a
    common factor of D and every entry, and a grading that may or may not
    make every pair homogeneous."""
    dim = draw(st.integers(0, 6))
    base = draw(st.integers(1, 12))
    factor = draw(st.integers(2, 6))
    pairs = {}
    keys = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    for key in draw(st.permutations(keys)):
        if draw(st.booleans()):
            ks = sorted(draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=3)))
            pairs[key] = tuple((k, factor * draw(st.integers(-6, 6).filter(bool))) for k in ks)
    grading = draw(st.none() | st.lists(st.integers(1, 3), min_size=dim, max_size=dim))
    return dim, factor * base, pairs, grading


def dense_of(dim, D, pairs):
    vectors = {}
    for key, terms in pairs.items():
        v = [Fraction(0)] * dim
        for k, c in terms:
            v[k] = Fraction(c, D)
        vectors[key] = tuple(v)
    return vectors


def build(make):
    """(algebra, None) or (None, the ValueError message)."""
    try:
        return make(), None
    except ValueError as e:
        return None, str(e)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(int_tables())
def test_of_ints_is_the_dense_algebra(case):
    dim, D, pairs, grading = case
    dense = dense_of(dim, D, pairs)
    L, error = build(lambda: LieAlgebra.of_ints(dim, D, pairs, grading=grading))
    M, dense_error = build(lambda: LieAlgebra(dim, dense, grading=grading))
    assert error == dense_error
    if error is not None:
        assert "not homogeneous" in error
        return
    least = lcm(*[c.denominator for v in dense.values() for c in v])
    assert L.table == M.table and L.table[0] == least
    assert L.brackets == M.brackets
    assert json.dumps(L.to_json()) == json.dumps(M.to_json())


def test_the_grading_error_names_the_first_pair_in_input_order():
    """Both pairs fail the grading [1, 2, 1]; each constructor names the one
    given first."""
    first, second = ((1, 2), ((0, 3),)), ((0, 1), ((2, 2),))
    for pairs, named in (((first, second), "e1, e2"), ((second, first), "e0, e1")):
        pairs = dict(pairs)
        for make in (lambda: LieAlgebra.of_ints(3, 2, pairs, grading=[1, 2, 1]),
                     lambda: LieAlgebra(3, dense_of(3, 2, pairs), grading=[1, 2, 1])):
            with pytest.raises(ValueError) as e:
                make()
            assert str(e.value) == "bracket [%s] not homogeneous of weight 3" % named
    with pytest.raises(ValueError, match="grading length mismatch"):
        LieAlgebra.of_ints(3, 1, {}, grading=[1, 1])


def test_of_ints_divides_out_the_common_factor():
    L = LieAlgebra.of_ints(3, 6, {(0, 1): ((2, 4),)}, basis_names=["x", "y", "w"])
    assert L.table == (3, ((((1, ((2, 2),)),), ((0, ((2, -2),)),), ())))
    assert L.brackets == {(0, 1): (0, 0, Fraction(2, 3))}
    assert L.basis_names == ("x", "y", "w")
    assert LieAlgebra.of_ints(2, 7, {}).table == (1, ((), ()))


def test_the_brackets_view_is_read_only():
    L = LieAlgebra.of_ints(3, 1, {(0, 1): ((2, 1),)})
    with pytest.raises(TypeError):
        L.brackets[(0, 2)] = (0, 0, 0)
    assert L.brackets is L.brackets


def test_a_map_that_fails_only_on_source_zero_pairs_is_not_an_isomorphism():
    """[e1, e2] = 0 in abelian(3) but e3 in heisenberg: every pair that
    fails brackets to zero in the source."""
    assert not is_lie_isomorphism(abelian(3), heisenberg(), Matrix.identity(3))
    assert not is_lie_isomorphism(heisenberg(), abelian(3), Matrix.identity(3))
    assert check_automorphism(heisenberg(), Matrix.identity(3))
    assert not hasattr(LieAlgebra, "basis_bracket")


@pytest.fixture
def dense_init_calls(monkeypatch):
    """The LieAlgebra.__init__ calls made while the fixture is active."""
    calls, init = [], LieAlgebra.__init__

    def spy(self, *args, **kwargs):
        calls.append(args[0] if args else kwargs["dim"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(LieAlgebra, "__init__", spy)
    return calls


def test_internal_builders_make_no_dense_algebra(dense_init_calls):
    L = conjugate(free_nilpotent(2, 4), random.Random(30))  # made before the spy counts
    A, H = chevalley_eilenberg(heisenberg()), heisenberg()
    dense_init_calls.clear()
    built = [quotient_by_ideal(L, ideal)[0] for ideal in lower_central_series(L)[1:]]
    built.append(associated_graded(L).algebra)
    built.append(free_nilpotent.__wrapped__(3, 3))  # built afresh, not read from the cache
    built.append(TensorDGLA(A, H).degree0_lie_algebra())
    assert dense_init_calls == []
    assert all(B._brackets is None for B in built)  # no dense view until it is read
    assert built[-2].table == free_nilpotent(3, 3).table


def test_builders_match_the_dense_algebra_of_their_brackets():
    L = conjugate(FILIFORM4, random.Random(31))
    A = chevalley_eilenberg(heisenberg())
    built = [quotient_by_ideal(L, ideal)[0] for ideal in lower_central_series(L)[1:]]
    built += [associated_graded(L).algebra, free_nilpotent.__wrapped__(2, 4),
              TensorDGLA(A, FILIFORM4).degree0_lie_algebra(),
              direct_sum(heisenberg(), L)]
    for B in built:
        twin = LieAlgebra(B.dim, B.brackets, B.basis_names, B.grading)
        assert twin.table == B.table
        assert json.dumps(twin.to_json()) == json.dumps(B.to_json())


def dense_adjoin_acyclic(A, deg):
    """adjoin_acyclic written out on dense data, through FiniteDGA(...)."""
    dims = list(A.dims)
    dims[deg] += 1
    dims[deg + 1] += 1

    def pad(rows, n, m):
        return [tuple(r) + (Fraction(0),) * (dims[n] - len(r)) for r in rows] + \
            [(Fraction(0),) * dims[n]] * (dims[m] - len(rows))

    d = [pad(A.d[n].data, n, n + 1) for n in range(A.top)]
    d[deg][-1] = unit(dims[deg], dims[deg] - 1)
    products = {(p, q): [pad(row, p + q, q) for row in table] +
                [[(Fraction(0),) * dims[p + q]] * dims[q]] * (dims[p] - A.dims[p])
                for (p, q), table in A.products.items()}
    inclusions = [Matrix([unit(m, i) for i in range(m)] + [(Fraction(0),) * m] * (dims[n] - m))
                  for n, m in enumerate(A.dims)]
    return FiniteDGA(dims, d, products), inclusions


DGAS = [("ce-heisenberg", lambda: chevalley_eilenberg(heisenberg())),
        ("ce-filiform4-conj", lambda: chevalley_eilenberg(conjugate(FILIFORM4, random.Random(32)))),
        ("ce-abelian2", lambda: chevalley_eilenberg(abelian(2)))] + [
    ("fractional-" + name, lambda name=name: dict(fractional_dgas())[name])
    for name, _ in fractional_dgas()]


@pytest.mark.parametrize("name, make", DGAS, ids=[n for n, _ in DGAS])
def test_adjoin_acyclic_is_the_dense_construction(name, make):
    A = make()
    for deg in range(A.top):
        B, inclusions = adjoin_acyclic(A, deg)
        C, dense_inclusions = dense_adjoin_acyclic(A, deg)
        assert B.dims == C.dims and B.table == C.table and B.dcol == C.dcol
        assert json.dumps(B.to_json()) == json.dumps(C.to_json())
        assert inclusions == dense_inclusions
        assert B.validate() == []


@pytest.mark.parametrize("name, make", DGAS, ids=[n for n, _ in DGAS])
def test_cohomology_ring_without_differentials(name, make):
    H = cohomology_ring(make())
    top = H.top
    zeros = [Matrix.zeros(H.dims[n + 1] if n + 1 <= top else 0, H.dims[n]) for n in range(top)]
    twin = FiniteDGA(H.dims, zeros, H.products)
    assert H.table == twin.table and H.dcol == twin.dcol
    assert json.dumps(H.to_json()) == json.dumps(twin.to_json())


@pytest.fixture
def data_views(monkeypatch):
    """The number of Fraction views Matrix.data builds (reads of a matrix
    whose entries were not given)."""
    built, data = [0], Matrix.data.fget

    def spy(m):
        built[0] += m._data is None
        return data(m)

    monkeypatch.setattr(Matrix, "data", property(spy))
    return built


def test_adjoin_acyclic_and_cohomology_ring_build_no_data_view(data_views):
    for A in (chevalley_eilenberg(heisenberg()), dict(fractional_dgas())["filiform4"]):
        adjoin_acyclic(A, 1)
        cohomology_ring(A)
    assert data_views[0] == 0


def test_lattice_membership_builds_no_data_view(data_views):
    contains = lattice_membership_test([(1, 0, 0), (0, 2, 0), (0, 0, Fraction(1, 2))])
    assert contains((1, 2, Fraction(3, 2))) and not contains((0, 1, 0))
    assert not contains((0, 0, Fraction(1, 4)))
    assert data_views[0] == 0


def test_commutator_index_reads_the_smith_diagonal():
    assert commutator_index(Matrix([[2, 3], [1, 2]])) == 2
    assert commutator_index(Matrix([[3, 0], [0, 5]])) == 8
    assert commutator_index(Matrix([[1, 1], [0, 1]])) is None
    assert commutator_index(Matrix.identity(0)) == 1


def test_no_back_door_constructors_remain():
    for path in SRC.glob("*.py"):
        text = path.read_text()
        assert "FiniteDGA.__new__" not in text and "basis_bracket" not in text, path.name
