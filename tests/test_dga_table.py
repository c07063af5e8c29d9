"""FiniteDGA's sparse product table against the dense oracle, and the
readers of that table in the tensor DGLA."""

import functools
import random
from fractions import Fraction

import pytest

from malcev.lie import LieAlgebra, heisenberg
from malcev.freelie import free_nilpotent
from malcev.dga import FiniteDGA, chevalley_eilenberg, adjoin_acyclic
from malcev.dgla import TensorDGLA

from oracles import dga_product, dense_bracket, naive_solve, tensor_bracket

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


@functools.lru_cache(maxsize=None)
def dgas():
    rng = random.Random(5)
    out = [chevalley_eilenberg(conjugate(L, rng))
           for L in (heisenberg(), FILIFORM4, free_nilpotent(2, 3))]
    out.append(adjoin_acyclic(out[0], deg=1)[0])
    out.append(half_tables(out[1]))
    return out


def half_tables(A):
    """A given only its tables with p <= q (top degree 4, so the sign
    (-1)^{pq} of the pair (1, 3) is -1)."""
    return FiniteDGA(A.dims, A.d, {(p, q): t for (p, q), t in A.products.items() if p <= q})


@pytest.mark.parametrize("index", range(5), ids=[
    "ce-heisenberg", "ce-filiform4", "ce-f23", "adjoin-acyclic", "ce-half-tables"])
def test_product_matches_dense_oracle(index):
    A = dgas()[index]
    rng = random.Random(index)
    for p in range(A.top + 1):
        for q in range(A.top + 1 - p):
            for _ in range(4):
                a, b = rand_vec(rng, A.dims[p]), rand_vec(rng, A.dims[q])
                assert A.product(p, a, q, b) == dga_product(A.products, A.dims[p + q],
                                                            p, a, q, b)


def test_half_tables_give_the_full_product():
    A = chevalley_eilenberg(FILIFORM4)
    half = half_tables(A)
    assert (3, 1) in A.products and (3, 1) not in half.products
    for p in range(A.top + 1):
        for q in range(A.top + 1 - p):
            assert half.basis_products(p, q) == A.basis_products(p, q)


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
