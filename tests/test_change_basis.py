"""lie.change_basis against the oracle conjugation of tests/oracles.py; the
canonical partner order of LieAlgebra.table, on which is_lie_isomorphism
compares tables; is_lie_isomorphism against the textbook definition; and a
guard that the quadratic stage 2 and check_automorphism run on int tables,
with LieAlgebra.bracket and Matrix.mul_vec made to raise."""

import json
import random
from fractions import Fraction

import pytest

from malcev.freelie import free_nilpotent
from malcev.lie import (
    LieAlgebra, abelian, associated_graded, change_basis, check_automorphism, direct_sum,
    heisenberg, is_lie_isomorphism, lower_central_series,
)
from malcev.linalg import Matrix
from malcev.present import _filtered_iso, is_quadratically_presented

from oracles import conjugated_table, dense_bracket, naive_rank
from test_graded_oracle import unipotent_conjugate
from test_present import higher_heisenberg

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SCALARS = [Fraction(0)] * 3 + [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                               Fraction(-3, 2), Fraction(2, 3)]
FREE = [(2, 2), (2, 3), (2, 4), (3, 2)]


@st.composite
def nilpotent_tables(draw):
    """(dim, table): a free nilpotent algebra, or a random table with
    [e_i, e_j] in span(e_k : k > j), nilpotent (Jacobi is not imposed: a
    change of basis does not use it)."""
    if draw(st.booleans()):
        F = free_nilpotent(*draw(st.sampled_from(FREE)))
        return F.dim, dict(F.brackets)
    dim = draw(st.integers(1, 7))
    table = {}
    for i in range(dim):
        for j in range(i + 1, dim - 1):
            if draw(st.booleans()):
                table[(i, j)] = tuple([Fraction(0)] * (j + 1) + [
                    draw(st.sampled_from(SCALARS)) for _ in range(dim - j - 1)])
    return dim, table


@st.composite
def unipotent_rows(draw, dim):
    """A unipotent lower-triangular matrix with fractional entries below the
    diagonal, its rows permuted: invertible, not triangular."""
    rows = [[Fraction(1) if r == c else
             (draw(st.sampled_from(SCALARS)) if r > c else Fraction(0))
             for c in range(dim)] for r in range(dim)]
    return [rows[p] for p in draw(st.permutations(range(dim)))]


def nonzero(table):
    """The pairs of a dense table with a nonzero value."""
    return {k: tuple(v) for k, v in table.items() if any(v)}


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(nilpotent_tables(), st.data())
def test_change_basis_matches_the_oracle(dim_table, data):
    dim, table = dim_table
    m_rows = data.draw(unipotent_rows(dim))
    L = LieAlgebra(dim, table)
    A = change_basis(L, Matrix(m_rows))
    want = nonzero(conjugated_table(dim, table, m_rows))
    assert dict(A.brackets) == want
    assert A.table == LieAlgebra(dim, want).table
    assert is_lie_isomorphism(A, L, Matrix(m_rows))


def test_change_basis_by_the_identity_keeps_the_table():
    for L in (heisenberg(), free_nilpotent(2, 4), higher_heisenberg()[1]):
        assert change_basis(L, Matrix.identity(L.dim)).table == L.table


def test_change_basis_rejects_a_wrong_shape_and_a_singular_matrix():
    with pytest.raises(ValueError, match="matrix must be 3 x 3"):
        change_basis(heisenberg(), Matrix.identity(4))
    with pytest.raises(ValueError):
        change_basis(heisenberg(), Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))


# ---------------------------------------------------------------------------
# The stored table is canonical

FOUR = {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1), (1, 2): (0, 0, 0, Fraction(1, 2))}


def test_table_rows_do_not_depend_on_insertion_order():
    forward = LieAlgebra(4, FOUR)
    backward = LieAlgebra(4, dict(reversed(list(FOUR.items()))))
    assert forward.table == backward.table
    assert [[j for j, _ in row] for row in forward.table[1]] == [[1, 2], [0, 2], [0, 1], []]
    ints = {k: tuple((t, int(2 * c)) for t, c in enumerate(v) if c) for k, v in FOUR.items()}
    assert LieAlgebra.of_ints(4, 2, dict(reversed(list(ints.items())))).table == forward.table


@pytest.mark.parametrize("seed", range(5))
def test_a_shuffled_json_gives_the_same_table(seed):
    for L in (free_nilpotent(2, 4), free_nilpotent(3, 2), higher_heisenberg()[1]):
        obj = json.loads(json.dumps(L.to_json()))
        random.Random(seed).shuffle(obj["brackets"])
        assert LieAlgebra.from_json(obj).table == L.table


# ---------------------------------------------------------------------------
# is_lie_isomorphism

def textbook_isomorphism(src, dst, m_rows):
    """m has full rank and m [e_i, e_j] = [m e_i, m e_j] for all i < j, on
    the dense oracle brackets."""
    n = src.dim
    cols = [tuple(m_rows[r][c] for r in range(n)) for c in range(n)]

    def image(v):
        return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m_rows)

    zero = (Fraction(0),) * n
    return naive_rank(m_rows) == n and all(
        image(src.brackets.get((i, j), zero)) == dense_bracket(n, dst.brackets, cols[i], cols[j])
        for i in range(n) for j in range(i + 1, n))


SMALL = [heisenberg(), LieAlgebra(4, {(0, 1): (0, 0, 1, 0)}), free_nilpotent(2, 3)]


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(st.sampled_from(SMALL), st.data())
def test_check_automorphism_matches_the_textbook_definition(L, data):
    """Small integer matrices, singular ones included, on the Heisenberg
    algebra, h + Q and F(2,3)."""
    n = L.dim
    entries = st.sampled_from([0, 0, 1, -1, 2])
    m_rows = [[Fraction(data.draw(entries)) for _ in range(n)] for _ in range(n)]
    assert check_automorphism(L, Matrix(m_rows)) == textbook_isomorphism(L, L, m_rows)


def test_is_lie_isomorphism_is_square_only():
    h = heisenberg()
    with pytest.raises(ValueError, match="matrix must be 3 x 3"):
        is_lie_isomorphism(h, h, Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]))
    with pytest.raises(ValueError, match="matrix must be 3 x 3"):
        is_lie_isomorphism(h, h, Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    with pytest.raises(ValueError):
        is_lie_isomorphism(h, abelian(4), Matrix.identity(3))
    with pytest.raises(ValueError):
        check_automorphism(h, Matrix.identity(2))
    assert not check_automorphism(h, Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]]))


# ---------------------------------------------------------------------------
# Stage 2 and check_automorphism run on int tables

def refuse(*args, **kwargs):
    raise AssertionError("a Fraction bracket or matrix-vector product on an int-table path")


def loose(L, seed):
    """L in the basis of the columns of a seeded unipotent matrix with
    entries -1, 0, 1 below the diagonal: the basis mixes degrees."""
    rng, n = random.Random(seed), L.dim
    return change_basis(L, Matrix([[Fraction(1) if i == j else
                                    (Fraction(rng.randint(-1, 1)) if i > j else Fraction(0))
                                    for j in range(n)] for i in range(n)]))


def test_stage_two_and_automorphisms_run_on_int_tables(monkeypatch):
    """Quadratic yes verdicts at class 2; the solve of a filtered
    isomorphism at class 4 that is not the adapted basis (F(2,4) is a
    truncation, so stage 1 would stop it: ``_filtered_iso`` runs alone);
    and check_automorphism on an automorphism, a non-automorphism and a
    singular matrix."""
    H5 = higher_heisenberg()[1]
    yes = [H5, loose(H5, 3), loose(direct_sum(H5, abelian(2)), 4),
           unipotent_conjugate(H5, random.Random(5), True)]
    F = loose(free_nilpotent(2, 4), 23)
    monkeypatch.setattr(LieAlgebra, "bracket", refuse)
    monkeypatch.setattr(Matrix, "mul_vec", refuse)
    for L in yes:
        v = is_quadratically_presented(L)
        assert v.yes and max(v.graded.algebra.grading) == 2
    G = associated_graded(F)
    theta = _filtered_iso(F, G, lower_central_series(F))
    assert theta is not None and theta != Matrix.from_columns(G.from_parent)
    h = heisenberg()
    assert check_automorphism(h, Matrix([[2, 3, 0], [1, 2, 0], [0, 0, 1]]))
    assert not check_automorphism(h, Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
    assert not check_automorphism(h, Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]]))
