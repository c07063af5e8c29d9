"""The formality report decides every class test on the rows Y of the
preimage solver of d^1, which map H^2 injectively, and builds no class
solver and nothing of cohomology degree 2 but that solver.  A witness sets
its degree and verdict and builds its Fraction fields on first read; its
verdicts, and after a read its fields, equal ``massey_triple``'s."""

import random

import pytest

from malcev.dga import (
    CohomologyData, chevalley_eilenberg, cohomology, formality_consequence_report,
)
from malcev.freelie import free_nilpotent
from malcev.lie import LieAlgebra, heisenberg

from test_ce_massey import per_triple
from test_dga_table import conjugate, dga_basis_change

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@pytest.fixture
def class_solvers(monkeypatch):
    """The degrees of every ``CohomologyData.class_solver`` call."""
    calls, build = [], CohomologyData.class_solver

    def spy(self, n):
        calls.append(n)
        return build(self, n)

    monkeypatch.setattr(CohomologyData, "class_solver", spy)
    return calls


@pytest.mark.parametrize("L, has_witnesses", [
    (conjugate(heisenberg(), random.Random(3)), True), (free_nilpotent(2, 5), False),
], ids=["heisenberg-conjugate", "F(2,5)"])
def test_report_builds_no_class_solver_until_a_field_is_read(class_solvers, L, has_witnesses):
    A = chevalley_eilenberg(L)
    witnesses, _ = formality_consequence_report(A)
    H = cohomology(A)
    assert bool(witnesses) == has_witnesses
    assert class_solvers == [] and set(H._rows) <= {0, 1}
    for _, res in witnesses:
        assert res.degree == 2 and res.vanishes is False and res.representative
    assert class_solvers == [] and set(H._rows) <= {0, 1}
    for _, res in witnesses:
        assert res.rep_class and res.indeterminacy is not None
    assert bool(class_solvers) == has_witnesses
    assert [(t, r.to_json()) for t, r in witnesses] == per_triple(A)[0]


@st.composite
def nilpotent_tables(draw):
    """A Lie algebra on generators e_0..e_{g-1} and e_g..e_{dim-1}:
    [e_i, e_j] in span(e_k : k >= g) for i < j < g, and in span(e_k : k > j)
    for i < g <= j, other brackets zero, so nilpotent; Jacobi is imposed by
    keeping only the tables that satisfy it (every 2-step table does)."""
    dim = draw(st.integers(3, 5))
    g = draw(st.integers(2, dim - 1))
    table = {}
    for i in range(g):
        for j in range(i + 1, dim - 1):
            if j + 1 < dim and draw(st.booleans()):
                v = [0] * dim
                for k in draw(st.sets(st.integers(max(g, j + 1), dim - 1), min_size=1)):
                    v[k] = draw(st.sampled_from([1, -1, 2, -2]))
                table[(i, j)] = tuple(v)
    L = LieAlgebra(dim, table)
    hypothesis.assume(not L.check_jacobi())
    return L


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(nilpotent_tables(), st.integers(0, 2 ** 32))
def test_report_verdicts_equal_massey_triple_in_random_dga_bases(L, seed):
    """Witness triples and the undefined count equal the per-triple
    verdicts of ``massey_triple`` before any field is read; after the read,
    every field does too."""
    A = dga_basis_change(chevalley_eilenberg(L), random.Random(seed))
    witnesses, undefined = formality_consequence_report(A)
    expected, expected_undefined = per_triple(A)
    assert [t for t, _ in witnesses] == [t for t, _ in expected]
    assert undefined == expected_undefined
    assert ("class", 2) not in cohomology(A)._solvers
    assert [(t, r.to_json()) for t, r in witnesses] == expected
