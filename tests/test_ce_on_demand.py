"""A Chevalley-Eilenberg complex builds what is read: the product pairs on
their first read, the cohomology degree by degree, and ``betti`` of a
unimodular L from the degrees up to half the dimension (Poincare duality).
Every whole-table reader sees the table a FiniteDGA rebuilt from the JSON
has, and every Betti number equals the full elimination."""

import random

import pytest

from malcev import dga as dga_module
from malcev.dga import (
    CohomologyData, FiniteDGA, chevalley_eilenberg, cohomology,
    formality_consequence_report, massey_triple,
)
from malcev.freelie import free_nilpotent
from malcev.lie import LieAlgebra, abelian, direct_sum, heisenberg
from malcev.linalg import unit

from test_integer_kernels import FILIFORM4, HEISENBERG5, lie_basis_change
from test_quotient_oracle import SL2

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def workload_algebras():
    """The five algebras of the cohomology benchmark, each also in a seeded
    fractional basis."""
    rng = random.Random(31)
    out = []
    for name, L in (("heisenberg", heisenberg()), ("filiform4", FILIFORM4),
                    ("h+Q", direct_sum(heisenberg(), abelian(1))),
                    ("heisenberg5", HEISENBERG5), ("F(2,3)", free_nilpotent(2, 3))):
        out += [(name, L), (name + "-basis", lie_basis_change(L, rng))]
    return out


TABLE_CASES = workload_algebras() + [("F(2,4)", free_nilpotent(2, 4))]


@pytest.mark.parametrize("name, L", TABLE_CASES, ids=[name for name, _ in TABLE_CASES])
def test_whole_table_readers_see_the_rebuilt_table(name, L):
    """products, table and to_json, each read first on a fresh complex,
    equal those of FiniteDGA(dims, d, products) rebuilt from the products
    (and, up to dim 5, from the JSON); so does a table read after some
    pairs were filled by products and the formality report."""
    P = chevalley_eilenberg(L)
    products = P.products
    B = FiniteDGA(P.dims, P.d, products)
    assert products == B.products
    assert chevalley_eilenberg(L).table == B.table
    js = chevalley_eilenberg(L).to_json()
    assert js == B.to_json()
    if L.dim <= 5:
        assert FiniteDGA.from_json(js).table == B.table
    A = chevalley_eilenberg(L)
    e = unit(L.dim, 0)
    assert A.product(1, e, 1, e) == B.product(1, e, 1, e)
    formality_consequence_report(A)
    assert A.table == B.table and A.dcol == B.dcol and A.d == B.d


def full_betti(A):
    """The Betti numbers of A with every degree eliminated."""
    return CohomologyData(A.dims, A.dcol).betti()


BETTI_CASES = workload_algebras() + [
    ("abelian0", abelian(0)), ("abelian1", abelian(1)), ("abelian3", abelian(3)),
    ("sl2", SL2), ("h+sl2", direct_sum(heisenberg(), SL2)),
    ("F(3,2)", free_nilpotent(3, 2)), ("F(2,4)", free_nilpotent(2, 4)),
    ("F(4,2)", free_nilpotent(4, 2)),
    ("F(4,2)+Q2", direct_sum(free_nilpotent(4, 2), abelian(2))),
]


@pytest.mark.parametrize("name, L", BETTI_CASES, ids=[name for name, _ in BETTI_CASES])
def test_betti_by_duality_equals_full_elimination(name, L):
    A = chevalley_eilenberg(L)
    assert A._unimodular
    betti = cohomology(A).betti()
    assert betti == full_betti(A) and betti == betti[::-1]
    assert set(cohomology(A)._rows) == set(range(L.dim // 2 + 1))


def test_sl2_is_unimodular_but_not_nilpotent():
    assert cohomology(chevalley_eilenberg(SL2)).betti() == [1, 0, 0, 1]


def test_a_non_unimodular_algebra_eliminates_every_degree():
    """[x, y] = y: tr ad x = 1, so d into the top degree is not zero, and
    b_2 = 0 != b_0: the fallback path."""
    A = chevalley_eilenberg(LieAlgebra(2, {(0, 1): (0, 1)}))
    assert not A._unimodular
    assert cohomology(A).betti() == [1, 1, 0] == full_betti(A)
    assert set(cohomology(A)._rows) == {0, 1, 2}


@st.composite
def solvable_tables(draw):
    """A Lie algebra with [e_i, e_j] in span(e_k : k >= j) for i < j, so
    tr ad e_i is the sum of the c^j_ij, often nonzero; Jacobi is imposed by
    keeping only the tables that satisfy it."""
    dim = draw(st.integers(2, 5))
    table = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            if draw(st.booleans()):
                v = [0] * j + [draw(st.integers(-2, 2)) for _ in range(dim - j)]
                if any(v):
                    table[(i, j)] = tuple(v)
    L = LieAlgebra(dim, table)
    hypothesis.assume(not L.check_jacobi())
    return L


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(solvable_tables())
def test_betti_matches_full_elimination_on_drawn_algebras(L):
    """Unimodular or not, betti equals the full elimination; the flag is
    tr ad x = 0 for every x."""
    A = chevalley_eilenberg(L)
    traces = [sum(L.bracket(unit(L.dim, i), unit(L.dim, j))[j] for j in range(L.dim))
              for i in range(L.dim)]
    assert A._unimodular == (not any(traces))
    assert cohomology(A).betti() == full_betti(A)


def test_the_dim14_report_builds_only_what_it_reads(monkeypatch):
    """The formality report of F(2,5) (dim 14) fills the product pair
    (1, 1) only and eliminates the cohomology degree 1 only: no degree-2
    cocycle elimination, as it decides classes on the preimage solver."""
    widths, null_rows = [], dga_module._null_rows

    def spy(rows, cols):
        widths.append(cols)
        return null_rows(rows, cols)

    monkeypatch.setattr(dga_module, "_null_rows", spy)
    A = chevalley_eilenberg(free_nilpotent(2, 5))
    # H^2 of F(2, 5) lies in weight 6, so every triple is defined and vanishes
    assert formality_consequence_report(A) == ([], 0)
    assert widths == [A.dims[1]]
    assert set(A._table[1]) == {(1, 1)}
    assert set(cohomology(A)._rows) == {1}


def test_massey_triple_builds_the_degrees_it_reads():
    A = chevalley_eilenberg(free_nilpotent(2, 4))
    e0, e1 = unit(8, 0), unit(8, 1)
    res = massey_triple(A, (1, e0), (1, e0), (1, e1))
    assert res.degree == 2
    assert set(cohomology(A)._rows) <= {1, 2}
    assert set(A._table[1]) <= {(1, 1)}
