"""The fraction-free BCH product and lattice membership test against
independent Fraction-arithmetic oracles, and the class-3 gap of the lattice
closure test pinned."""

import functools
import random
from fractions import Fraction

import pytest

from malcev.lie import LieAlgebra, abelian, nilpotency_class
from malcev.freelie import free_nilpotent
from malcev.bch import bch, lattice_membership_test, lattice_closed_under_bch

from oracles import dense_bracket, naive_solve
from test_dga_table import FILIFORM4


def rational_conjugate(L, rng):
    """L in the basis of the columns of a seeded lower-triangular M with
    rational diagonal and below-diagonal entries, so its structure constants
    have denominators: [f_i, f_j] = M^-1 [M e_i, M e_j], by the oracles."""
    n = L.dim
    rows = [[Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 5)) if r == c
             else Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if r > c else Fraction(0)
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
def algebras():
    rng = random.Random(10)
    conj = [(name, rational_conjugate(L, rng)) for name, L in (
        ("F(2,3)", free_nilpotent(2, 3)), ("F(2,4)", free_nilpotent(2, 4)),
        ("filiform4", FILIFORM4))]
    return conj + [("abelian0", abelian(0)), ("abelian3", abelian(3))]


NAMES = [name for name, _ in algebras()]


def oracle_bch(L, x, y):
    """x + y + 1/2 [x, y] + 1/12 ([x, [x, y]] - [y, [x, y]])
    - 1/24 [y, [x, [x, y]]], exact at class <= 4, on the dense bracket."""
    def br(u, v):
        return dense_bracket(L.dim, L.brackets, u, v)
    xy = br(x, y)
    terms = [(1, x), (1, y), (Fraction(1, 2), xy), (Fraction(1, 12), br(x, xy)),
             (Fraction(-1, 12), br(y, xy)), (Fraction(-1, 24), br(y, br(x, xy)))]
    return tuple(sum((c * Fraction(v[k]) for c, v in terms), Fraction(0))
                 for k in range(L.dim))


def inputs(rng, n):
    """Seeded (x, y) pairs: small rationals, a zero factor, ints, and
    entries with denominators near 10^6."""
    def small():
        return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n))

    def big():
        return tuple(Fraction(rng.randint(-10 ** 6, 10 ** 6), 10 ** 6 - rng.randint(0, 99))
                     for _ in range(n))
    zero = (Fraction(0),) * n
    x, y = small(), small()
    return [(x, y), (y, x), (zero, y), (x, zero), (zero, zero), (x, tuple(-t for t in x)),
            (tuple(rng.randint(-3, 3) for _ in range(n)), y), (big(), big()), (big(), small())]


@pytest.mark.parametrize("index", range(len(NAMES)), ids=NAMES)
def test_bch_matches_class4_formula(index):
    L = algebras()[index][1]
    assert nilpotency_class(L) <= 4
    if L.brackets:
        assert L.table[0] > 1  # the structure constants have denominators
    rng = random.Random(index)
    for x, y in inputs(rng, L.dim):
        expected = oracle_bch(L, x, y)
        for cls in (None, 4):
            z = bch(x, y, L, cls=cls)
            assert all(type(e) is Fraction for e in z)
            assert z == expected


def test_integer_table_scales_the_structure_constants():
    L = algebras()[0][1]
    D, rows = L.table
    partners = [[] for _ in range(L.dim)]  # the table's rows as Fractions
    for (i, j), v in L.brackets.items():
        terms = [(k, c) for k, c in enumerate(v) if c]
        partners[i].append((j, terms))
        partners[j].append((i, [(k, -c) for k, c in terms]))
    for i, row in enumerate(rows):
        assert [(j, [k for k, _ in t]) for j, t in row] == \
            [(j, [k for k, _ in t]) for j, t in partners[i]]
        for (j, terms), (_, fterms) in zip(row, partners[i]):
            assert all(type(c) is int and c == D * f for (_, c), (_, f) in zip(terms, fterms))
    assert abelian(2).table == (1, ((), ()))


def combination(coeffs, vectors):
    return tuple(sum((a * v[c] for a, v in zip(coeffs, vectors)), Fraction(0))
                 for c in range(len(vectors[0])))


def seeded_lattice(rng, n, r):
    """r independent rational vectors in Q^n (pivots at increasing
    positions), and a generating set of their integer span: the basis plus
    integer combinations of it, shuffled."""
    pivots = sorted(rng.sample(range(n), r))
    basis = [tuple(Fraction(0) if c < p else
                   Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6)) if c == p
                   else Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                   for c in range(n)) for p in pivots]
    extra = [combination([rng.randint(-2, 2) for _ in basis], basis)
             for _ in range(rng.randint(0, 3))]
    gens = basis + extra
    rng.shuffle(gens)
    return basis, gens


def oracle_contains(basis, v):
    """v in the integer span of independent vectors: the unique solution of
    sum n_t b_t = v exists and is integral."""
    n = len(v)
    sol = naive_solve([tuple(b[c] for b in basis) for c in range(n)], v)
    return sol is not None and all(t.denominator == 1 for t in sol)


def test_integer_contains_matches_fraction_membership():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        basis, gens = seeded_lattice(rng, n, rng.randint(1, n))
        contains = lattice_membership_test(gens)
        for t in range(12):
            coeffs = [Fraction(rng.randint(-3, 3), 1 if t % 3 else rng.randint(1, 3))
                      for _ in basis]
            v = combination(coeffs, basis)
            if t % 4 == 3:
                v = tuple(e + Fraction(rng.randint(-1, 1), rng.randint(1, 3)) for e in v)
            assert contains(v) == oracle_contains(basis, v)
        assert contains((Fraction(0),) * n)


# ---------------------------------------------------------------------------
# The closure test checks only products of +-generators, which is incomplete
# above class 2.  Counterexample in free_nilpotent(3, 3), with generators x_i.

def _escape(L, basis, contains):
    """First bch(x, y) over +-generator pairs x, y (in the order the closure
    test takes them) that leaves the lattice, or None."""
    gens = [g for v in basis for g in (v, tuple(-t for t in v))]
    for x in gens:
        for y in gens:
            z = bch(x, y, L, cls=3)
            if not contains(z):
                return z
    return None


@functools.lru_cache(maxsize=None)
def pair_closed_lattice():
    """The integer span of x_i, 1/2 [x_i, x_j] + 1/12 ([x_i, [x_i, x_j]] -
    [x_j, [x_i, x_j]]) and 1/6 [x_i, [x_i, x_j]], 1/6 [x_j, [x_i, x_j]] for
    i < j, and the degree-3 Hall vectors; then escaping pair products are
    appended until every +-generator pair product stays inside (8 times)."""
    L = free_nilpotent(3, 3)
    e = [L.basis_vector(i) for i in range(L.dim)]

    def comb(*terms):
        return tuple(sum((c * v[k] for c, v in terms), Fraction(0)) for k in range(L.dim))
    basis = e[:3]
    for i in range(3):
        for j in range(i + 1, 3):
            xy = L.bracket(e[i], e[j])
            xxy, yxy = L.bracket(e[i], xy), L.bracket(e[j], xy)
            basis += [comb((Fraction(1, 2), xy), (Fraction(1, 12), xxy), (Fraction(-1, 12), yxy)),
                      comb((Fraction(1, 6), xxy)), comb((Fraction(1, 6), yxy))]
    basis += [e[k] for k in range(L.dim) if L.grading[k] == 3]
    added = 0
    while (z := _escape(L, basis, lattice_membership_test(basis))) is not None:
        basis.append(z)
        added += 1
    return L, tuple(basis), added


def test_pair_closed_lattice_is_not_closed():
    L, basis, added = pair_closed_lattice()
    assert added == 8
    x01 = tuple(a + b for a, b in zip(L.basis_vector(0), L.basis_vector(1)))
    assert not lattice_membership_test(basis)(bch(x01, L.basis_vector(2), L))


@pytest.mark.xfail(strict=True, reason="the closure test checks only +-generator "
                   "pairs, which is incomplete at class 3")
def test_closure_test_finds_the_class3_escape():
    L, basis, _ = pair_closed_lattice()
    assert lattice_closed_under_bch(L, list(basis)) is not None
