"""right_inverse against the rank oracle on small generated matrices."""

from fractions import Fraction

import pytest

from malcev.linalg import Matrix, right_inverse, vec_is_zero

from oracles import naive_rank

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def small_matrices(draw):
    """Matrices of 0-4 rows and 0-5 columns, built row by row."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    data = [[Fraction(draw(st.integers(-2, 2))) for _ in range(cols)]
            for _ in range(rows)]
    return Matrix(data) if rows else Matrix.zeros(0, cols)


@hypothesis.given(small_matrices())
def test_right_inverse_against_rank_oracle(m):
    if naive_rank(m.data) < m.rows:
        with pytest.raises(ValueError):
            right_inverse(m)
        return
    s = right_inverse(m)
    assert (s.rows, s.cols) == (m.cols, m.rows)
    assert m * s == Matrix.identity(m.rows)
    # a column that does not raise the rank of the columns before it is free
    for c in range(m.cols):
        if naive_rank([r[:c + 1] for r in m.data]) == naive_rank([r[:c] for r in m.data]):
            assert vec_is_zero(s.data[c])
