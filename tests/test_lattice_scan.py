"""The lattice closure test, which takes 2r^2 - 2r of the 4r^2 ordered
pairs of +-generators, against a scan of all of them with membership
decided by naive_solve: the verdict and the witness must be the same."""

import random
import sys
from fractions import Fraction

import pytest

from malcev.bch import bch, lattice_closed_under_bch
from malcev.freelie import free_nilpotent
from malcev.lie import heisenberg

from oracles import naive_solve
from test_bch_fraction_free import pair_closed_lattice

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# the module, which the package's own name bch (the function) hides
BCH_MODULE = sys.modules[lattice_closed_under_bch.__module__]

F23, F24, F33 = free_nilpotent(2, 3), free_nilpotent(2, 4), free_nilpotent(3, 3)
# name -> (algebra, degree of each basis vector, hypothesis examples)
ALGEBRAS = {
    "heisenberg": (heisenberg(), (1, 1, 2), 40),
    "F(2,3)": (F23, F23.grading, 30),
    "F(2,4)": (F24, F24.grading, 15),
    "F(3,3)": (F33, F33.grading, 6),
}


# per degree, the denominators of the scale of e_i; mostly they grow fast
# enough for the lattice to be closed
DENOMINATORS = {1: (1,), 2: (1, 2, 4), 3: (6, 12, 24), 4: (12, 24, 72)}


def seeded_basis(rng, dim, degrees):
    """A lattice basis: s_i e_i for a random scale s_i, plus m s_j e_j for
    some deeper e_j, with m = +-1 (which keeps the lattice of the s_i e_i)
    or 1/2 (which may change it)."""
    scales = [Fraction(rng.choice((1, 1, 2)), rng.choice(DENOMINATORS[d])) for d in degrees]
    basis = []
    for i in range(dim):
        v = [Fraction(0)] * dim
        v[i] = scales[i]
        for j in range(dim):
            if degrees[j] > degrees[i] and rng.random() < 0.3:
                v[j] = rng.choice((-1, 1, Fraction(1, 2))) * scales[j]
        basis.append(tuple(v))
    rng.shuffle(basis)
    return basis


def membership_oracle(basis):
    """v lies in the lattice iff its unique coordinates in the basis, read
    off the inverse from naive_solve, are integers."""
    n = len(basis)
    rows = [tuple(b[c] for b in basis) for c in range(n)]
    inv_cols = [naive_solve(rows, [Fraction(int(r == c)) for r in range(n)])
                for c in range(n)]

    def contains(v):
        coords = [sum((inv_cols[c][t] * v[c] for c in range(n)), Fraction(0))
                  for t in range(n)]
        return all(x.denominator == 1 for x in coords)
    return contains


def full_scan(L, basis):
    """The first of all 4r^2 ordered +-generator pairs whose product leaves
    the lattice, as (x, y, bch(x, y)), or None."""
    contains = membership_oracle(basis)
    gens = [g for v in basis for g in (tuple(v), tuple(-t for t in v))]
    for x in gens:
        for y in gens:
            z = bch(x, y, L)
            if not contains(z):
                return (x, y, z)
    return None


def counted_closure(L, basis):
    """lattice_closed_under_bch and the number of products it took, each
    one call of the int core ``_bch_int``."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)
    inner, BCH_MODULE._bch_int = BCH_MODULE._bch_int, counting
    try:
        witness = lattice_closed_under_bch(L, basis)
    finally:
        BCH_MODULE._bch_int = inner
    return witness, len(calls)


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_half_scan_matches_the_full_scan(name):
    L, degrees, examples = ALGEBRAS[name]

    @hypothesis.settings(max_examples=examples, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(0, 2 ** 32))
    def check(seed):
        basis = seeded_basis(random.Random(seed), L.dim, degrees)
        witness, calls = counted_closure(L, basis)
        assert witness == full_scan(L, basis)
        r = len(basis)
        if witness is None:
            assert calls == 2 * r * r - 2 * r
    check()


@pytest.mark.parametrize("L, basis", [
    (heisenberg(), [(1, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 2))]),
    (F23, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, Fraction(1, 2), 0, 0),
           (0, 0, 0, Fraction(1, 12), 0), (0, 0, 0, 0, Fraction(1, 12))]),
    (F24, [tuple(Fraction(1, (1, 2, 12, 24)[d - 1]) if t == i else 0 for t in range(8))
           for i, d in enumerate(F24.grading)]),
    pair_closed_lattice()[:2],
])
def test_closed_verdict_takes_2r2_minus_2r_products(L, basis):
    basis = [tuple(map(Fraction, v)) for v in basis]
    witness, calls = counted_closure(L, basis)
    r = len(basis)
    assert witness is None and calls == 2 * r * r - 2 * r
