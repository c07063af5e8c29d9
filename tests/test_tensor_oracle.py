"""The tensor DGLA and the deformation census against the dense oracles of
tests/oracles.py, on DGAs and coefficient algebras whose integer views have
non-unit denominators, so that the scalings D_m, D_d and D_N all matter."""

import random
from fractions import Fraction

import pytest

from malcev.dga import FiniteDGA, adjoin_acyclic, chevalley_eilenberg
from malcev.dgla import (
    TensorDGLA, deformation_census, gauge, is_mc, mc_residual,
)
from malcev.freelie import free_nilpotent
from malcev.lie import LieAlgebra, abelian, direct_sum, heisenberg

from oracles import (
    naive_lcs, naive_rank, tensor_bracket, tensor_diff, tensor_gauge, tensor_mc_residual,
)

FILIFORM4 = LieAlgebra(4, {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1)})


def rand_scale(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 2, 3, 7]))


def rescaled_dga(A, rng):
    """A in the basis a'_i = s_i a_i, s_i random rationals per degree:
    a'_i a'_j = sum (s_i s_j c_k / s_k) a'_k and d a'_i = sum (s_i d_ki / s_k) a'_k."""
    s = [[rand_scale(rng) for _ in range(n)] for n in A.dims]
    d = [[[A.d[n].data[k][i] * s[n][i] / s[n + 1][k] for i in range(A.dims[n])]
          for k in range(A.d[n].rows)] for n in range(A.top)]
    products = {(p, q): [[[c * s[p][i] * s[q][j] / s[p + q][k] for k, c in enumerate(cell)]
                          for j, cell in enumerate(row)] for i, row in enumerate(table)]
                for (p, q), table in A.products.items()}
    return FiniteDGA(A.dims, d, products)


def rescaled_lie(L, rng):
    """L in the basis e'_i = s_i e_i: [e'_i, e'_j] = sum (s_i s_j c_k / s_k) e'_k.
    The last basis vector, a bracket in the algebras used here, gets a factor
    11, which no other scale has, so some structure constant is fractional."""
    s = [rand_scale(rng) for _ in range(L.dim)]
    s[-1] *= 11
    return LieAlgebra(L.dim, {(i, j): [c * s[i] * s[j] / s[k] for k, c in enumerate(v)]
                              for (i, j), v in L.brackets.items()})


def rand_vec(rng, n):
    return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n))


def samples(rng, t, n):
    """Elements of degree n of t = A ox N: two dense random ones, two in
    which each A-block is zero with probability 1/2, and zero."""
    m = t.N.dim
    sparse = [tuple(c for _ in range(t.dga.dim(n))
                    for c in (rand_vec(rng, m) if rng.random() < 0.5 else (Fraction(0),) * m))
              for _ in range(2)]
    return [rand_vec(rng, t.dim(n)) for _ in range(2)] + sparse + [t.zero(n)]


def dense(A, N):
    """The arguments the tensor oracles take for A ox N."""
    return A.dims, A.products, [m.data for m in A.d], N.dim, N.brackets


@pytest.mark.parametrize("source,coeffs", [
    (heisenberg(), heisenberg()),
    (heisenberg(), free_nilpotent(2, 3)),
    (direct_sum(heisenberg(), abelian(1)), FILIFORM4),
], ids=["h-h", "h-F(2,3)", "h+R-filiform4"])
def test_tensor_dgla_matches_dense_oracle(source, coeffs):
    rng = random.Random(15)
    # adjoining a, b with da = b in degrees 0, 1 makes d nonzero on A^0
    A = rescaled_dga(adjoin_acyclic(chevalley_eilenberg(source), deg=0)[0], rng)
    N = rescaled_lie(coeffs, rng)
    D_m, D_d = A.table[0], A.dcol[0]
    assert D_m > 1 and D_d > 1 and N.table[0] > 1
    t = TensorDGLA(A, N)
    dims, products, d, m, table = dense(A, N)
    for p in range(A.top + 1):
        assert t.diff(p, t.zero(p)) == t.zero(p + 1)
        for v in samples(rng, t, p):
            assert t.diff(p, v) == tensor_diff(dims, d, m, p, v)
        for q in range(A.top + 1 - p):
            for x, y in zip(samples(rng, t, p), samples(rng, t, q)):
                assert t.bracket(p, x, q, y) == tensor_bracket(dims, products, m, table,
                                                               p, x, q, y)
    for x, alpha in zip(samples(rng, t, 1), samples(rng, t, 0)):
        want = tensor_mc_residual(dims, products, d, m, table, x)
        assert mc_residual(t, x) == want
        assert is_mc(t, x) == (not any(want))
        y = gauge(t, alpha, x)
        assert y == tensor_gauge(dims, products, d, m, table, alpha, x)
        # the series of the inverse gauge cancels every block that x lacks
        minus = tuple(-c for c in alpha)
        assert gauge(t, minus, y) == x == tensor_gauge(dims, products, d, m, table, minus, y)
    for _ in range(4):
        alpha = rand_vec(rng, t.dim(0))
        # the gauge orbit of 0 lies in the MC set
        y = gauge(t, alpha, t.zero(1))
        assert y == tensor_gauge(dims, products, d, m, table, alpha, t.zero(1))
        assert any(y) and is_mc(t, y)
        assert not any(tensor_mc_residual(dims, products, d, m, table, y))


def census_oracle(A, N):
    """Stage k: dim(A^1 ox gr_k) - rank(d_1 ox id_m) - rank(d_0 ox id_m),
    m = dim gr_k, with the Kronecker products written out and ranked by
    naive_rank."""
    chain = naive_lcs(N.dim, N.brackets)
    dim = lambda n: A.dims[n] if 0 <= n <= A.top else 0

    def kron_rank(n, m):
        if not dim(n) or not dim(n + 1):
            return 0
        rows = [[row[j // m] if j % m == r else 0 for j in range(dim(n) * m)]
                for row in A.d[n].data for r in range(m)]
        return naive_rank(rows)

    out = []
    for k in range(1, len(chain)):
        m = len(chain[k - 1]) - len(chain[k])
        out.append((k, dim(1) * m - kron_rank(1, m) - kron_rank(0, m)))
    return out


def census_sources():
    rng = random.Random(16)
    ces = [chevalley_eilenberg(L) for L in (heisenberg(), abelian(3),
                                             direct_sum(heisenberg(), abelian(1)), FILIFORM4)]
    return ces + [
        adjoin_acyclic(ces[0], deg=0)[0],
        adjoin_acyclic(rescaled_dga(ces[0], rng), deg=1)[0],
        FiniteDGA([1], [], {(0, 0): [[[1]]]}),          # top degree 0
        chevalley_eilenberg(abelian(1)),                 # top degree 1
    ]


@pytest.mark.parametrize("N", [heisenberg(), free_nilpotent(2, 3), FILIFORM4],
                         ids=["heisenberg", "F(2,3)", "filiform4"])
def test_census_matches_explicit_rank_count(N):
    sources = census_sources()
    assert [A.top for A in sources[-2:]] == [0, 1]
    for A in sources:
        assert deformation_census(A, N) == census_oracle(A, N)
