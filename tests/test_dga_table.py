"""FiniteDGA's sparse product table against the dense oracle, and the
readers of that table in the tensor DGLA."""

import functools
import json
import random
from fractions import Fraction

import pytest

from malcev.lie import LieAlgebra, heisenberg
from malcev.freelie import free_nilpotent
from malcev.dga import FiniteDGA, chevalley_eilenberg, adjoin_acyclic
from malcev.dgla import TensorDGLA

from oracles import dga_product, dense_bracket, gauss_jordan, naive_solve, tensor_bracket

FILIFORM4 = LieAlgebra(4, {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1)})
SCALARS = [Fraction(0)] * 3 + [Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)]


def rand_vec(rng, n):
    return tuple(rng.choice(SCALARS) for _ in range(n))


def conjugate(L, rng):
    """L in the basis of the columns of a seeded unipotent lower-triangular
    matrix M: [f_i, f_j] = M^-1 [M e_i, M e_j], computed with the oracles."""
    n = L.dim
    rows = [[Fraction(1) if r == c else (Fraction(rng.randint(-1, 1)) if r > c else Fraction(0))
             for c in range(n)] for r in range(n)]
    cols = [tuple(rows[r][c] for r in range(n)) for c in range(n)]
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = dense_bracket(n, L.brackets, cols[i], cols[j])
            if any(v):
                table[(i, j)] = tuple(naive_solve(rows, v))
    return LieAlgebra(n, table)


def unitriangular(n, rng):
    """A seeded lower unitriangular matrix with fractional entries, as rows."""
    return [[Fraction(1) if r == c else
             (Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3])) if r > c else Fraction(0))
             for c in range(n)] for r in range(n)]


def inverse_rows(rows):
    n = len(rows)
    red = gauss_jordan([list(r) + [Fraction(int(r_ == c)) for c in range(n)]
                        for r_, r in enumerate(rows)], 2 * n)[0]
    return [row[n:] for row in red]


def apply(rows, v):
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in rows)


def dga_basis_change(A, rng):
    """A in the bases f^n_i = P_n e^n_i, P_n fractional unitriangular: the
    products f_i f_j are multi-term, with non-unit denominators.  Built with
    the oracles from A's dense tables."""
    P = [unitriangular(n, rng) for n in A.dims]
    inv = [inverse_rows(p) for p in P]
    cols = [[tuple(r[c] for r in p) for c in range(len(p))] for p in P]
    d = []
    for n in range(A.top):
        image = [apply(inv[n + 1], apply(A.d[n].data, col)) for col in cols[n]]
        d.append([[image[j][i] for j in range(A.dims[n])] for i in range(A.dims[n + 1])])
    products = {(p, q): [[apply(inv[p + q], dga_product(A.products, A.dims[p + q],
                                                         p, a, q, b))
                          for b in cols[q]] for a in cols[p]]
                for p, q in A.products}
    return FiniteDGA(A.dims, d, products)


@functools.lru_cache(maxsize=None)
def dgas():
    rng = random.Random(5)
    out = [chevalley_eilenberg(conjugate(L, rng))
           for L in (heisenberg(), FILIFORM4, free_nilpotent(2, 3))]
    out.append(adjoin_acyclic(out[0], deg=1)[0])
    out.append(half_tables(out[1]))
    out += [A for _, A in fractional_dgas()]
    return out


@functools.lru_cache(maxsize=None)
def fractional_dgas():
    """Seeded fractional basis changes (``dga_basis_change``) of CE
    complexes and of an acyclic extension: multi-term products, D_m, D_d > 1."""
    rng = random.Random(26)
    return [(name, dga_basis_change(A, rng)) for name, A in (
        ("heisenberg", chevalley_eilenberg(heisenberg())),
        ("filiform4", chevalley_eilenberg(FILIFORM4)),
        ("acyclic-heisenberg", adjoin_acyclic(chevalley_eilenberg(heisenberg()), deg=1)[0]))]


def multi_term(A):
    return any(len(terms) > 1 for table in A.table[1].values()
               for row in table for terms in row.values())


def half_tables(A):
    """A given only its tables with p <= q (top degree 4, so the sign
    (-1)^{pq} of the pair (1, 3) is -1)."""
    return FiniteDGA(A.dims, A.d, {(p, q): t for (p, q), t in A.products.items() if p <= q})


NAMES = ["ce-heisenberg", "ce-filiform4", "ce-f23", "adjoin-acyclic", "ce-half-tables",
         "fractional-heisenberg", "fractional-filiform4", "fractional-acyclic-heisenberg"]


@pytest.mark.parametrize("index", range(len(NAMES)), ids=NAMES)
def test_product_matches_dense_oracle(index):
    A = dgas()[index]
    if index >= 5:
        assert multi_term(A) and A.table[0] > 1 and A.dcol[0] > 1
    rng = random.Random(index)
    for p in range(A.top + 1):
        for q in range(A.top + 1 - p):
            for _ in range(4):
                a, b = rand_vec(rng, A.dims[p]), rand_vec(rng, A.dims[q])
                assert A.product(p, a, q, b) == dga_product(A.products, A.dims[p + q],
                                                            p, a, q, b)


@pytest.mark.parametrize("name, A", fractional_dgas(), ids=[n for n, _ in fractional_dgas()])
def test_diff_matches_input_matrices(name, A):
    """diff of a DGA built from explicit fractional matrices, against those
    matrices times the vector."""
    d = [[list(row) for row in m.data] for m in A.d]
    B = FiniteDGA(A.dims, d, dict(A.products))
    assert B.dcol[0] > 1
    rng = random.Random(len(name))
    for n in range(B.top):
        for _ in range(4):
            v = rand_vec(rng, B.dims[n])
            assert B.diff(n, v) == tuple(sum((a * b for a, b in zip(row, v)), Fraction(0))
                                         for row in d[n])
    assert B.diff(B.top, rand_vec(rng, B.dims[B.top])) == ()


@pytest.mark.parametrize("index", range(len(NAMES)), ids=NAMES)
def test_json_round_trip_is_byte_identical(index):
    A = dgas()[index]
    text = json.dumps(A.to_json())
    assert json.dumps(FiniteDGA.from_json(json.loads(text)).to_json()) == text


def test_half_tables_give_the_full_product():
    A = chevalley_eilenberg(FILIFORM4)
    half = half_tables(A)
    assert (3, 1) in A.products and (3, 1) not in half.products
    for p in range(A.top + 1):
        for q in range(A.top + 1 - p):
            assert half.table[1][(p, q)] == A.table[1][(p, q)]


@pytest.mark.parametrize("N", [heisenberg(), FILIFORM4], ids=["heisenberg", "filiform4"])
def test_tensor_bracket_matches_oracle(N):
    m = N.dim
    rng = random.Random(11)
    for A in (dgas()[0], dgas()[1], dgas()[4]):
        t = TensorDGLA(A, N)
        for p in range(A.top + 1):
            for q in range(A.top + 1 - p):
                x, y = rand_vec(rng, t.dim(p)), rand_vec(rng, t.dim(q))
                assert t.bracket(p, x, q, y) == tensor_bracket(
                    A.dims, A.products, m, N.brackets, p, x, q, y)


def test_products_are_read_only():
    A = chevalley_eilenberg(heisenberg())
    with pytest.raises(TypeError):
        A.products[(1, 1)] = A.products[(1, 1)]
    with pytest.raises(TypeError):
        A.products[(1, 1)][0][1] = A.products[(1, 1)][0][0]
