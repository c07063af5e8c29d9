"""``_eliminate`` leaves canonical rows: primitive, with a positive pivot,
one multiple of each RREF row, so equal spans give equal rows whatever the
order of the input.  ``Matrix.__sub__`` subtracts on the int rows and
builds no Fraction view."""

from fractions import Fraction

import pytest

from malcev.bch import commutator_index
from malcev.linalg import Matrix, _eliminate, _sparse, echelon_rows

from test_stored_tables import data_views  # noqa: F401 (a fixture)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def eliminated(rows, cols):
    rows = list(rows)
    return rows[:len(_eliminate(rows, cols))]


def test_both_orders_give_the_identity():
    assert eliminated([((0, 1), (1, 1)), ((0, 1), (1, -1))], 2) == [((0, 1),), ((1, 1),)]
    assert eliminated([((0, 1), (1, -1)), ((0, 1), (1, 1))], 2) == [((0, 1),), ((1, 1),)]
    assert eliminated([((0, -2), (1, 4))], 3) == [((0, 1), (1, -2))]


@st.composite
def row_lists(draw):
    cols = draw(st.integers(1, 6))
    row = st.lists(st.integers(-5, 5), min_size=cols, max_size=cols).map(_sparse)
    return cols, draw(st.lists(row, max_size=7))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(row_lists(), st.randoms(use_true_random=False))
def test_shuffled_rows_eliminate_to_identical_rows(case, rng):
    cols, rows = case
    shuffled = list(rows)
    rng.shuffle(shuffled)
    scaled = [tuple((j, -3 * a) for j, a in r) for r in shuffled]
    out = eliminated(rows, cols)
    assert eliminated(shuffled, cols) == out == eliminated(scaled, cols)
    assert echelon_rows(shuffled, cols)[0] == out
    for r in out:
        pivot = r[0][1]
        assert pivot > 0


def test_subtraction_runs_on_int_rows(data_views):
    a = Matrix.of_ints(6, [((0, 3), (1, 2)), ((1, 5),)], 2)
    b = Matrix.of_ints(4, [((0, 2),), ((0, 1), (1, 1))], 2)
    diff = a - b
    assert data_views[0] == 0
    assert diff == Matrix([[0, Fraction(1, 3)], [Fraction(-1, 4), Fraction(7, 12)]])
    assert a - a == Matrix.zeros(2, 2)
    assert commutator_index(Matrix.of_ints(1, [((0, 2), (1, 3)), ((0, 1), (1, 2))], 2)) == 2
    assert data_views[0] == 0
