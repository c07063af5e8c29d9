"""FiniteDGA.validate, which proves the axioms on a generating set, against a
full sweep over basis vectors, on small DGAs and seeded corruptions of them:
the verdicts and the error messages that name the failing degrees."""

import functools
import math
import random
from fractions import Fraction

import pytest

from malcev.lie import LieAlgebra, heisenberg, abelian
from malcev.freelie import free_nilpotent
from malcev.dga import (
    FiniteDGA, chevalley_eilenberg, adjoin_acyclic, cohomology, cohomology_ring,
)

from oracles import dga_axiom_failures, naive_betti

FILIFORM4 = LieAlgebra(4, {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1)})
VALUES = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]


@functools.lru_cache(maxsize=None)
def bases():
    ce_h = chevalley_eilenberg(heisenberg())
    return {
        "ce-heisenberg": ce_h,
        "ce-abelian2": chevalley_eilenberg(abelian(2)),
        "ce-filiform4": chevalley_eilenberg(FILIFORM4),
        "adjoin-acyclic-deg0": adjoin_acyclic(ce_h, deg=0)[0],
        "cohomology-ring": cohomology_ring(ce_h),
    }


def corrupt(A, rng):
    """A's dims, d and product tables as lists with one entry changed: an
    entry of d, a product coordinate, or a product coordinate together with
    its mirror under graded commutativity (so that associativity and
    Leibniz, not commutativity, are what break)."""
    d = [[list(row) for row in m.data] for m in A.d]
    products = {key: [[list(cell) for cell in row] for row in table]
                for key, table in A.products.items()}
    kind = rng.choice(["d", "product", "mirrored"])
    if kind == "d":
        n = rng.choice([n for n, m in enumerate(d) if m and m[0]])
        i, j = rng.randrange(len(d[n])), rng.randrange(len(d[n][0]))
        d[n][i][j] = rng.choice([v for v in VALUES if v != d[n][i][j]])
        return d, products
    (p, q) = rng.choice(sorted(k for k, t in products.items() if t and t[0] and t[0][0]))
    table = products[(p, q)]
    i, j, k = (rng.randrange(len(table)), rng.randrange(len(table[0])),
               rng.randrange(len(table[0][0])))
    value = rng.choice([v for v in VALUES if v != table[i][j][k]])
    table[i][j][k] = value
    if kind == "mirrored" and (q, p) in products and (p, q, i) != (q, p, j):
        products[(q, p)][j][i][k] = (-1) ** (p * q) * value
    return d, products


def failures(dims, d, products):
    """The errors of the ValueError that FiniteDGA raises on the tables, or
    [] when it builds."""
    prefix = "DGA axioms violated: "
    try:
        FiniteDGA(dims, d, products)
    except ValueError as e:
        assert str(e).startswith(prefix)
        return str(e)[len(prefix):].split("; ")
    return []


# 100 corruptions; fewer of the largest, whose full sweeps cost the most
@pytest.mark.parametrize("name, count", [
    ("ce-heisenberg", 24), ("ce-abelian2", 20), ("ce-filiform4", 10),
    ("adjoin-acyclic-deg0", 16), ("cohomology-ring", 30)])
def test_validate_agrees_with_full_sweep(name, count):
    A = bases()[name]
    assert dga_axiom_failures(A.dims, [m.data for m in A.d], A.products) == []
    rng = random.Random(name)
    verdicts = []
    for _ in range(count):
        d, products = corrupt(A, rng)
        errors = dga_axiom_failures(A.dims, d, products)
        assert failures(A.dims, d, products) == errors
        verdicts.append(not errors)
    assert not all(verdicts)


def rescaled(A, scales):
    """A in the basis f = s a, with s = scales.get((n, i), 1) for the i-th
    degree-n basis vector a: f_i f_j = sum s_i s_j c_k / s_k f_k, and
    d f_j = sum s_j d_kj / s_k f_k, as dense tables."""
    s = lambda n, i: Fraction(scales.get((n, i), 1))
    d = [[[s(n, j) * c / s(n + 1, k) for j, c in enumerate(row)]
          for k, row in enumerate(m.data)] for n, m in enumerate(A.d)]
    products = {(p, q): [[[s(p, i) * s(q, j) * c / s(p + q, k) for k, c in enumerate(cell)]
                          for j, cell in enumerate(row)] for i, row in enumerate(table)]
                for (p, q), table in A.products.items()}
    return d, products


def test_validate_with_mixed_denominators():
    """f = a/2, a/3 on two degree-1 vectors of CE(filiform4) and f = 7 a on
    x0x2 in degree 2 put denominators 6 and 14 in the products and 7 in d,
    so the integer view scales them by different lcms (42 and 7)."""
    A = bases()["ce-filiform4"]
    d, products = rescaled(A, {(1, 0): Fraction(1, 2), (1, 1): Fraction(1, 3), (2, 1): 7})
    lcm_of = lambda values: math.lcm(*(Fraction(c).denominator for c in values))
    assert lcm_of(c for t in products.values() for row in t for cell in row for c in cell) == 42
    assert lcm_of(c for m in d for row in m for c in row) == 7
    B = FiniteDGA(A.dims, d, products)
    rng = random.Random("mixed")
    verdicts = []
    for _ in range(8):
        d, products = corrupt(B, rng)
        errors = dga_axiom_failures(B.dims, d, products)
        assert failures(B.dims, d, products) == errors
        verdicts.append(not errors)
    assert not all(verdicts)


def test_generating_sets():
    """A CE complex is generated by 1 and degree 1; the cohomology ring of
    Heisenberg has zero cup products on H^1, so H^2 needs generators too."""
    A = bases()["ce-filiform4"]
    assert A._generators() == [(0, 0)] + [(1, i) for i in range(4)]
    R = bases()["cohomology-ring"]
    assert R._generators() == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]
    B = bases()["adjoin-acyclic-deg0"]
    assert B.dims[0] == 2 and B._generators()[:2] == [(0, 0), (0, 1)]


def test_valid_dga_never_calls_product(monkeypatch):
    tables = [(A.dims, A.d, A.products) for A in bases().values()]

    def product(*args):
        raise AssertionError("validate called FiniteDGA.product")

    monkeypatch.setattr(FiniteDGA, "product", product)
    for dims, d, products in tables:
        assert FiniteDGA(dims, d, products).validate() == []
    chevalley_eilenberg(free_nilpotent(2, 3))


def test_ce_free_nilpotent_3_2_end_to_end():
    """The CE complex of F(3,2) (dim 6): Betti numbers by rank-nullity and
    Poincare duality b_n = b_{6-n} of a nilpotent Lie algebra."""
    A = chevalley_eilenberg(free_nilpotent(3, 2))
    b = cohomology(A).betti()
    assert A.dims == [1, 6, 15, 20, 15, 6, 1]
    assert b == naive_betti(A.dims, A.d)
    assert b == b[::-1]
