"""The sparse structure-constant bracket and Matrix.mul_vec against dense
oracles, also on tables with empty partner rows and on zero vectors."""

from fractions import Fraction

import pytest

from malcev.lie import LieAlgebra
from malcev.linalg import Matrix
from malcev.freelie import free_nilpotent

from oracles import conjugated_table, dense_bracket

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SCALARS = [Fraction(0)] * 4 + [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                               Fraction(-3, 2)]
FREE = [(2, 2), (2, 3), (2, 4), (3, 2)]


@st.composite
def nilpotent_tables(draw):
    """(dim, table): a free nilpotent algebra, or a random table with
    [e_i, e_j] in span(e_k : k > j) (nilpotent, Jacobi not imposed: the
    bracket expansion does not use it), optionally in a random basis."""
    if draw(st.booleans()):
        F = free_nilpotent(*draw(st.sampled_from(FREE)))
        dim, table = F.dim, dict(F.brackets)
    else:
        dim = draw(st.integers(2, 7))
        table = {}
        for i in range(dim):
            for j in range(i + 1, dim - 1):
                if draw(st.booleans()):
                    v = [Fraction(0)] * (j + 1) + [draw(st.sampled_from(SCALARS))
                                                   for _ in range(dim - j - 1)]
                    table[(i, j)] = tuple(v)
    if draw(st.booleans()):
        m_rows = [[Fraction(1) if r == c else
                   (draw(st.sampled_from(SCALARS)) if r > c else Fraction(0))
                   for c in range(dim)] for r in range(dim)]
        perm = draw(st.permutations(range(dim)))
        m_rows = [m_rows[p] for p in perm]
        table = conjugated_table(dim, table, m_rows)
    return dim, table


@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(nilpotent_tables(), st.data())
def test_sparse_bracket_matches_dense_oracle(dim_table, data):
    dim, table = dim_table
    L = LieAlgebra(dim, table)
    vectors = st.lists(st.sampled_from(SCALARS), min_size=dim, max_size=dim)
    x, y = tuple(data.draw(vectors)), tuple(data.draw(vectors))
    assert L.bracket(x, y) == dense_bracket(dim, table, x, y)
    assert L.bracket(x, x) == dense_bracket(dim, table, x, x)
    for i in range(dim):
        e = tuple(Fraction(int(k == i)) for k in range(dim))
        assert L.bracket(e, y) == dense_bracket(dim, table, e, y)


@st.composite
def tables_with_empty_rows(draw):
    """(dim, table): a random table (Jacobi not imposed) in which some basis
    vectors bracket to zero with everything, so their partner rows are
    empty."""
    dim = draw(st.integers(1, 7))
    central = draw(st.sets(st.integers(0, dim - 1)))
    table = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            if i not in central and j not in central and draw(st.booleans()):
                v = tuple(draw(st.sampled_from(SCALARS)) for _ in range(dim))
                if any(v):
                    table[(i, j)] = v
    return dim, table


def vectors(dim):
    """Vectors of length dim, often the zero vector."""
    return st.one_of(st.just((Fraction(0),) * dim),
                     st.tuples(*[st.sampled_from(SCALARS)] * dim))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(tables_with_empty_rows(), st.data())
def test_sparse_bracket_matches_dense_oracle_on_empty_rows(dim_table, data):
    dim, table = dim_table
    L = LieAlgebra(dim, table)
    x, y = data.draw(vectors(dim)), data.draw(vectors(dim))
    assert L.bracket(x, y) == dense_bracket(dim, table, x, y)
    assert L.bracket(y, x) == dense_bracket(dim, table, y, x)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_mul_vec_matches_dense_product(rows, cols, data):
    m = [data.draw(vectors(cols)) for _ in range(rows)]
    v = data.draw(vectors(cols))
    assert Matrix(m).mul_vec(v) == tuple(sum((a * b for a, b in zip(r, v)), Fraction(0))
                                         for r in m)
