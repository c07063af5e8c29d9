"""The cohomology path on integer kernels, against Fraction oracles: the
int IncrementalSpan, AffineSolver.solve, the bilinear formality report, the
DGA generating set, the integer Chevalley-Eilenberg build and the one-class
lift refutation."""

import functools
import json
import math
import random
from fractions import Fraction

import pytest

from malcev.cli import main
from malcev.dga import (
    FiniteDGA, adjoin_acyclic, chevalley_eilenberg, cohomology_ring,
    formality_consequence_report,
)
from malcev.freelie import free_nilpotent
from malcev.lie import LieAlgebra, abelian, direct_sum, heisenberg
from malcev.linalg import AffineSolver, IncrementalSpan, Matrix, _sparse, integer_row
from malcev.present import GroupPresentation, lift_one_class

from oracles import (
    dense_bracket, dga_axiom_failures, dga_product, echelon_insertions, gauss_jordan, naive_solve,
)
from test_ce_massey import per_triple
from test_dga_table import apply, dga_basis_change, inverse_rows, multi_term, unitriangular
from test_dga_validate import corrupt, failures

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FILIFORM4 = LieAlgebra(4, {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1)})
HEISENBERG5 = LieAlgebra(5, {(0, 1): (0, 0, 0, 0, 1), (2, 3): (0, 0, 0, 0, 1)})


# ---------------------------------------------------------------------------
# IncrementalSpan on primitive int rows

@st.composite
def insertions(draw):
    n = draw(st.integers(1, 6))
    entry = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 6, 7]))
    vector = st.lists(entry, min_size=n, max_size=n)
    vectors = draw(st.lists(vector, max_size=8))
    probes = draw(st.lists(vector, max_size=4))
    # combinations of the inserted vectors, so that some probes lie in the span
    for _ in range(draw(st.integers(0, 3)) if vectors else 0):
        coeffs = draw(st.lists(entry, min_size=len(vectors), max_size=len(vectors)))
        probes.append([sum((c * v[k] for c, v in zip(coeffs, vectors)), Fraction(0))
                       for k in range(n)])
    return vectors, probes


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(insertions())
def test_int_span_matches_fraction_elimination(case):
    vectors, probes = case
    span = IncrementalSpan()
    grew = [span.add(_sparse(integer_row(v)[1])) for v in vectors]
    assert (grew, span.pivots, [span.contains(_sparse(integer_row(v)[1])) for v in probes]) == \
        echelon_insertions(vectors, probes)
    assert span.dim == sum(grew)
    for terms, p in zip(span.rows, span.pivots):  # primitive, positive pivot first
        assert terms[0][0] == p and terms[0][1] > 0 and math.gcd(*(c for _, c in terms)) == 1


# ---------------------------------------------------------------------------
# AffineSolver.solve against the Gauss-Jordan oracle

def test_affine_solver_matches_solve_affine_on_fractions():
    """Fractional entries with non-unit denominators, rank-deficient and
    empty shapes: the oracle's particular solution (free variables zero)
    entry for entry, or None; and exactly when None a refutation, the first
    row of the oracle's RREF of {y : y m = 0} that does not vanish on b."""
    rng = random.Random(20)
    dens = [1, 2, 3, 5]
    entry = lambda: Fraction(rng.randint(-3, 3), rng.choice(dens))
    for _ in range(60):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        m = Matrix([[entry() for _ in range(cols)] for _ in range(rows)])
        if m.rows > 1 and rng.random() < 0.5:  # a row that is a combination of two others
            u, v = m.data[0], m.data[-1]
            m = Matrix(m.data[:-1] + (tuple(Fraction(1, 2) * a - 3 * b for a, b in zip(u, v)),))
        solver = AffineSolver(m)
        # the rows past the rank of the RREF of [m | id]: the RREF of {y : y m = 0}
        red, pivots = gauss_jordan([row + tuple(int(i == j) for j in range(m.rows))
                                    for i, row in enumerate(m.data)], m.cols + m.rows)
        dual = [row[m.cols:] for row, p in zip(red, pivots) if p >= m.cols]
        for _ in range(4):
            if rng.random() < 0.5:
                b = m.mul_vec(tuple(entry() for _ in range(m.cols)))
            else:
                b = tuple(entry() for _ in range(m.rows))
            sol = naive_solve(m.data, b, m.cols)
            assert solver.solve(b) == (None if sol is None else tuple(sol))
            y = solver.refute(b)
            assert (y is None) is (sol is not None)
            assert y == next((z for z in dual if sum(a * c for a, c in zip(z, b))), None)
            if y is not None:
                assert not any(sum(a * c for a, c in zip(y, col)) for col in m.columns())
                assert sum(a * c for a, c in zip(y, b))


# ---------------------------------------------------------------------------
# Basis changes with fractional entries

def lie_basis_change(L, rng):
    """L in the basis of the columns of a fractional unitriangular matrix."""
    rows = unitriangular(L.dim, rng)
    cols = [tuple(r[c] for r in rows) for c in range(L.dim)]
    inv = inverse_rows(rows)
    table = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            v = apply(inv, dense_bracket(L.dim, L.brackets, cols[i], cols[j]))
            if any(v):
                table[(i, j)] = v
    return LieAlgebra(L.dim, table)


@functools.lru_cache(maxsize=None)
def report_cases():
    """Seeded fractional basis changes of the five algebras of the cohomology
    benchmark, their CE complexes in a fractional basis (multi-term products),
    and the cohomology ring of one (multi-term products, zero d)."""
    rng = random.Random(2020)
    cases = []
    for name, L in (("heisenberg", heisenberg()), ("filiform4", FILIFORM4),
                    ("h+Q", direct_sum(heisenberg(), abelian(1))),
                    ("heisenberg5", HEISENBERG5), ("F(2,3)", free_nilpotent(2, 3))):
        A = chevalley_eilenberg(lie_basis_change(L, rng))
        cases.append((name, A))
        if L.dim <= 4:
            cases.append((name + "-dga-basis", dga_basis_change(A, rng)))
    cases.append(("ring-h+Q", dga_basis_change(
        cohomology_ring(chevalley_eilenberg(direct_sum(heisenberg(), abelian(1)))), rng)))
    # the decomposables of degree 2 are a proper subspace: a generator there
    cases.append(("acyclic-heisenberg-dga-basis", dga_basis_change(
        adjoin_acyclic(chevalley_eilenberg(heisenberg()), deg=1)[0], rng)))
    return cases


@pytest.mark.parametrize("index", range(len(report_cases())),
                         ids=[name for name, _ in report_cases()])
def test_report_matches_per_triple_massey(index):
    name, A = report_cases()[index]
    if name.endswith("-dga-basis") or name.startswith("ring"):
        assert multi_term(A) and A.table[0] > 1
    witnesses, undefined = formality_consequence_report(A)
    assert ([(t, r.to_json()) for t, r in witnesses], undefined) == per_triple(A)
    for _, r in witnesses:
        assert all(type(c) is Fraction for c in r.representative + r.rep_class)


def test_report_cases_have_witnesses_and_nonunit_denominators():
    reports = {name: formality_consequence_report(A) for name, A in report_cases()}
    assert reports["heisenberg-dga-basis"][0] and reports["h+Q-dga-basis"][1]
    assert any(c.denominator > 1 for _, r in reports["heisenberg-dga-basis"][0]
               for c in r.representative)


# ---------------------------------------------------------------------------
# The generating set of validate, on multi-term tables

def generated_dims(A, gens):
    """Dimensions per degree of the subalgebra generated by the basis vectors
    gens, by products with the oracle until nothing new is spanned."""
    spans = [[] for _ in A.dims]

    def insert(n, v):
        grew = echelon_insertions(spans[n] + [v], [])[0][-1]
        if grew:
            spans[n].append(v)
        return grew

    for n, i in gens:
        insert(n, tuple(Fraction(int(k == i)) for k in range(A.dims[n])))
    grew = True
    while grew:
        grew = False
        for p in range(A.top + 1):
            for q in range(A.top + 1 - p):
                for u in list(spans[p]):
                    for v in list(spans[q]):
                        grew |= insert(p + q, dga_product(A.products, A.dims[p + q], p, u, q, v))
    return [len(s) for s in spans]


@pytest.mark.parametrize("index", [i for i, (name, _) in enumerate(report_cases())
                                   if "-dga-basis" in name or name.startswith("ring")])
def test_generators_generate_multi_term_dga(index):
    name, A = report_cases()[index]
    gens = A._generators()
    expected = [(0, i) for i in range(A.dims[0])]
    for n in range(1, A.top + 1):
        products = [cell for p in range(1, n // 2 + 1) for row in A.products.get((p, n - p), ())
                    for cell in row]
        pivots = echelon_insertions(products, [])[1]
        expected += [(n, k) for k in range(A.dims[n]) if k not in pivots]
    assert gens == expected
    assert generated_dims(A, gens) == A.dims
    assert len(gens) < sum(A.dims)
    if name.startswith("acyclic"):
        assert any(n == 2 for n, _ in gens)


def test_validate_rejects_broken_multi_term_tables():
    """Corruptions of a multi-term DGA: validate names the failures of the
    full-sweep oracle, and rejects some that break associativity or Leibniz
    only."""
    A = dict(report_cases())["heisenberg-dga-basis"]
    rng = random.Random(7)
    rejected = set()
    for _ in range(40):
        d, products = corrupt(A, rng)
        errors = dga_axiom_failures(A.dims, d, products)
        assert failures(A.dims, d, products) == errors
        rejected.update(k for k in ("associativity", "Leibniz", "d^2")
                        if any(k in e for e in errors))
    assert {"associativity", "Leibniz"} <= rejected


# ---------------------------------------------------------------------------
# The integer Chevalley-Eilenberg build

CE_CASES = [i for i, (name, _) in enumerate(report_cases())
            if "-dga-basis" not in name and not name.startswith("ring")]


@pytest.mark.parametrize("index", CE_CASES, ids=[report_cases()[i][0] for i in CE_CASES])
def test_ce_integer_view_matches_the_generic_one(index):
    """The int tables that chevalley_eilenberg builds equal the ones that
    FiniteDGA derives from the same d and tables."""
    A = report_cases()[index][1]
    B = FiniteDGA(A.dims, A.d, {key: A.products[key] for key in A.products})
    assert (A.table, A.dcol) == (B.table, B.dcol)
    assert A.table[1] == B.table[1] and A.d == B.d


# ---------------------------------------------------------------------------
# One-class lift: one solver, and the refutation in the report

DEMO = {
    "mode": "one-class",
    "presentation": {"generators": ["x", "y", "z"],
                     "relators": [["x", "y", "x^-1", "y^-1", "z^-1", "z^-1"],
                                  ["x", "z", "x^-1", "z^-1"], ["y", "z", "y^-1", "z^-1"]]},
    "free": [2, 3],
    "assignment": {"x": ["1", "0", "0"], "y": ["0", "1", "0"], "z": ["0", "0", "1/2"]},
    "k": 3,
}


def test_lift_report_prints_the_refutation(capsys):
    res = lift_one_class(GroupPresentation.from_json(DEMO["presentation"]),
                         {g: [Fraction(c) for c in v] for g, v in DEMO["assignment"].items()},
                         free_nilpotent(2, 3), 3)
    assert not res.lifted and res.refutation is not None
    assert main(["lift", json.dumps(DEMO), "--out", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"]["refutation"] == [str(c) for c in res.refutation]
    assert main(["lift", json.dumps(DEMO)]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[-1] == "  refutation (y M = 0, y . (-d0) != 0): [%s]" % ", ".join(
        out["verdicts"]["refutation"])
