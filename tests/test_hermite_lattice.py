"""Every lattice question is answered from one integer Hermite basis
(``linalg.hermite_rows``): membership against the determinant rule of
``oracles.naive_lattice_contains``, ``commutator_index`` against
|det(M - I)| and the GL(n, Z) check of ``lattice-check --matrix`` against
|det M| = 1, all on drawn input; and none of them reaches Smith normal
form."""

import contextlib
import io
import json
from fractions import Fraction

import pytest

import malcev.linalg as linalg
from malcev.bch import commutator_index, lattice_closed_under_bch, lattice_membership_test
from malcev.cli import main
from malcev.lie import heisenberg
from malcev.linalg import Matrix, hermite_rows

from oracles import naive_det, naive_lattice_contains, naive_rank

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3, 4, 6)))


@st.composite
def generating_sets(draw):
    """Rational vectors of one length n: drawn ones, then integer
    combinations of them (dependent vectors), zero vectors and negations;
    at times one coordinate is zero in all of them (rank below n), and
    there may be more vectors than coordinates."""
    n = draw(st.integers(1, 4))
    vectors = draw(st.lists(st.lists(RATIONALS, min_size=n, max_size=n), min_size=1,
                            max_size=n + 1))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("combination", "zero", "negation")))
        if kind == "zero":
            vectors.append([Fraction(0)] * n)
            continue
        u = draw(st.sampled_from(vectors))
        if kind == "negation":
            vectors.append([-a for a in u])
            continue
        w = draw(st.sampled_from(vectors))
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        vectors.append([a * x + b * y for x, y in zip(u, w)])
    if draw(st.booleans()):
        t = draw(st.integers(0, n - 1))
        for v in vectors:
            v[t] = Fraction(0)
    return [tuple(v) for v in draw(st.permutations(vectors))]


@st.composite
def lattices_and_probes(draw):
    """A generating set and probes: an integer combination of it (inside),
    that combination moved by e_t / p or by half a vector of the set (in
    most cases just off the lattice), and a drawn rational vector."""
    basis = draw(generating_sets())
    n = len(basis[0])
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
    inside = [sum((c * v[i] for c, v in zip(coeffs, basis)), Fraction(0)) for i in range(n)]
    t, p = draw(st.integers(0, n - 1)), draw(st.sampled_from((2, 3)))
    nudged = list(inside)
    nudged[t] += Fraction(1, p)
    half = [a + b / 2 for a, b in zip(inside, draw(st.sampled_from(basis)))]
    drawn = draw(st.lists(RATIONALS, min_size=n, max_size=n))
    return basis, [tuple(v) for v in (inside, nudged, half, drawn)]


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(lattices_and_probes())
def test_membership_matches_the_determinant_rule(case):
    basis, probes = case
    contains = lattice_membership_test(basis)
    assert contains(probes[0])
    for v in probes:
        assert contains(v) == naive_lattice_contains(basis, v)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=1, max_size=n + 2)))
def test_hermite_rows_span_the_same_lattice(vectors):
    """Each input row is in the Z-span of the Hermite rows and each Hermite
    row is in the Z-span of the input, by the determinant rule; the pivots
    are as many as the rank."""
    n = len(vectors[0])
    H = hermite_rows([tuple((j, c) for j, c in enumerate(v) if c) for v in vectors])
    dense = [tuple(dict(row).get(j, 0) for j in range(n)) for row in H]
    if not dense:
        assert not any(map(any, vectors))
        return
    assert all(naive_lattice_contains(dense, v) for v in vectors)
    assert all(naive_lattice_contains(vectors, h) for h in dense)
    assert [row[0][0] for row in H] == sorted({row[0][0] for row in H})
    assert len(H) == naive_rank(vectors)


@st.composite
def integral_matrices(draw):
    """A square integral matrix: drawn entries, or a unimodular one (row
    steps from the identity), or one with two equal rows or a zero row."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    kind = draw(st.sampled_from(("drawn", "unimodular", "singular")))
    if kind == "unimodular":
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(draw(st.integers(0, 6))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if i != j:
                q = draw(st.integers(-2, 2))
                rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
            elif draw(st.booleans()):
                rows[i] = [-a for a in rows[i]]
    elif kind == "singular" and n > 1:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i] = list(rows[j]) if i != j else [0] * n
    return rows


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(integral_matrices(), st.booleans())
def test_commutator_index_is_det_of_m_minus_i(rows, shift):
    """commutator_index(M) is |det(M - I)|, None iff M - I is singular;
    with shift, M = I + the drawn rows, so that M - I is the drawn (and at
    times unimodular or singular) matrix."""
    if shift:
        rows = [[a + int(i == j) for j, a in enumerate(row)] for i, row in enumerate(rows)]
    d = naive_det([tuple(a - int(i == j) for j, a in enumerate(row))
                   for i, row in enumerate(rows)])
    assert commutator_index(Matrix(rows)) == (abs(d) if d else None)


def lattice_check_matrix(rows):
    """(exit code, stdout, stderr) of ``malcev lattice-check --matrix``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["lattice-check", "--matrix", json.dumps(rows), "--out", "json"])
    return code, out.getvalue(), err.getvalue()


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(integral_matrices())
def test_gl_n_z_check_is_det_plus_or_minus_one(rows):
    code, out, err = lattice_check_matrix(rows)
    if abs(naive_det([tuple(r) for r in rows])) == 1:
        assert code == 0 and not err
        assert "commutator_index" in json.loads(out)["verdicts"]
    else:
        assert code == 2 and err == (
            "error: the matrix must lie in GL(%d, Z): its determinant is not +1 or -1\n"
            % len(rows))


def test_hermite_rows_merge_by_gcd_and_sign():
    assert hermite_rows([((0, 4),), ((0, -6),)]) == [((0, 2),)]
    assert hermite_rows([(), ((1, -3),)]) == [((1, 3),)]
    assert hermite_rows([]) == []


def refuse(*args, **kwargs):
    raise AssertionError("a lattice question reached Smith normal form or a dense Matrix")


def test_lattice_questions_never_reach_smith_normal_form(monkeypatch):
    h = heisenberg()
    good = [(1, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 2))]
    lattice_closed_under_bch(h, good)   # the expansion of bch, cached once
    monkeypatch.setattr(linalg, "smith_normal_form", refuse)
    monkeypatch.setattr(Matrix, "from_columns", refuse)
    contains = lattice_membership_test(good)
    assert contains((3, -2, Fraction(5, 2))) and not contains((0, 0, Fraction(1, 3)))
    assert lattice_closed_under_bch(h, good) is None
    assert lattice_closed_under_bch(h, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]) is not None
    assert commutator_index(Matrix([[2, 3], [1, 2]])) == 2
    assert commutator_index(Matrix.identity(2)) is None
    assert lattice_check_matrix([[2, 3], [1, 2]])[0] == 0
    assert lattice_check_matrix([[2, 0], [0, 2]])[0] == 2
