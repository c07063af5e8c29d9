"""Every row that the elimination layer stores is in the one row format: a
tuple of terms (j, c), j strictly ascending, c a nonzero int; an echelon
or span row is also primitive, with a positive first coefficient.
Checked on drawn nilpotent algebras, in seeded bases, and on their
Chevalley-Eilenberg complexes."""

import random
from fractions import Fraction
from math import gcd

import pytest

from malcev.dga import _d_rows, chevalley_eilenberg, cohomology
from malcev.freelie import free_nilpotent, graded_ideal_closure
from malcev.lie import (
    LieIdeal, _lcs_bases, abelian, adapted_basis, direct_sum, heisenberg, lower_central_series,
)
from malcev.linalg import IncrementalSpan, _null_rows, hermite_rows

from test_graded_oracle import unipotent_conjugate
from test_integer_kernels import FILIFORM4, HEISENBERG5

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

BASES = [heisenberg(), FILIFORM4, HEISENBERG5, free_nilpotent(2, 3), free_nilpotent(3, 2),
         direct_sum(heisenberg(), abelian(1))]


def is_row(r):
    """A tuple of terms (j, c): j strictly ascending ints, c nonzero ints."""
    return (type(r) is tuple
            and all(type(t) is tuple and len(t) == 2 and type(t[0]) is int
                    and type(t[1]) is int and t[1] != 0 for t in r)
            and all(a[0] < b[0] for a, b in zip(r, r[1:])))


def is_echelon_row(r):
    """A nonzero row of the format, primitive, with a positive first
    coefficient."""
    return is_row(r) and bool(r) and r[0][1] > 0 and gcd(*(c for _, c in r)) == 1


@st.composite
def algebras(draw):
    """A base nilpotent algebra in a seeded unipotent basis, rows of the
    basis matrix shuffled or not."""
    L = draw(st.sampled_from(BASES))
    return unipotent_conjugate(L, random.Random(draw(st.integers(0, 10 ** 6))), draw(st.booleans()))


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(algebras(), st.lists(st.lists(st.integers(-2, 2), min_size=6, max_size=6),
                                       max_size=3))
def test_lie_rows_are_in_the_format(L, vectors):
    """The LCS chain, the ideals of the series and one of drawn vectors,
    ``adapted_basis`` and an IncrementalSpan of its rows."""
    assert all(is_echelon_row(r) for rows in _lcs_bases(L) for r in rows)
    assert all(is_echelon_row(r) for term in lower_central_series(L) for r in term.rows)
    ideal = LieIdeal(L, [[Fraction(c, 2) for c in v[:L.dim]] for v in vectors])
    assert all(is_echelon_row(r) for r in ideal.rows)
    rows, _ = adapted_basis(L)
    assert all(is_echelon_row(r) for r in rows)
    span = IncrementalSpan(rows)
    assert span.dim == L.dim and all(is_echelon_row(r) for r in span.rows)


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(st.sampled_from([(2, 3), (2, 4), (3, 2), (3, 3)]), st.data())
def test_graded_ideal_closure_rows_are_in_the_format(kc, data):
    """The rows of the graded closure of drawn degree-2 generators."""
    F = free_nilpotent(*kc)
    deg2 = F.graded_component_indices(2)
    gens = []
    for _ in range(data.draw(st.integers(0, 3))):
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(deg2), max_size=len(deg2)))
        v = [0] * F.dim
        for g, c in zip(deg2, coeffs):
            v[g] = Fraction(c, 3)
        gens.append(v)
    ideal, dims = graded_ideal_closure(F, gens)
    assert len(ideal.rows) == sum(dims)
    assert all(is_echelon_row(r) for r in ideal.rows)
    assert [r[0][0] for r in ideal.rows] == sorted(r[0][0] for r in ideal.rows)


@hypothesis.settings(max_examples=15, deadline=None)
@hypothesis.given(algebras())
def test_cohomology_rows_are_in_the_format(L):
    """CohomologyData.degree, the representative rows, the Y and E_int of
    its solvers and ``_null_rows`` of the rows of d."""
    A = chevalley_eilenberg(L)
    H = cohomology(A)
    for n in range(A.top + 1):
        S, z, b = H.degree(n)
        assert type(S) is int and S > 0
        assert all(is_row(v) and v for v in z)
        assert all(is_echelon_row(r) for r in b)
        assert all(is_row(v) and v for v in H.representative_rows(n))
        solvers = [H.class_solver(n)] + ([H.preimage_solver(n)] if n else [])
        for solver in solvers:
            assert all(is_row(y) and y for y in solver.Y)
            assert all(is_row(r) for r in solver.E_int[1])
        S, null = _null_rows(_d_rows(A.dims, A.dcol[1], n), A.dims[n])
        assert all(is_row(v) and v for v in null)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.lists(st.lists(st.integers(-4, 4), min_size=5, max_size=5), max_size=7))
def test_hermite_rows_are_in_the_format(vectors):
    """``hermite_rows`` of drawn int rows: rows of the format with a
    positive first coefficient, the pivot, and pivots ascending.  They are
    not primitive: the lattice 2Z gives ((0, 2),)."""
    H = hermite_rows([tuple((j, c) for j, c in enumerate(v) if c) for v in vectors])
    assert all(is_row(r) and r and r[0][1] > 0 for r in H)
    assert all(a[0][0] < b[0][0] for a, b in zip(H, H[1:]))
    assert hermite_rows([((0, 2),)]) == [((0, 2),)] and not is_echelon_row(((0, 2),))
