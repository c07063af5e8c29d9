"""Stage 1 of present.is_quadratically_presented (one graded closure in the
free algebra and a dimension count) against oracles.quadratic_stage1, which
counts dim <W_2>_n in the free associative algebra, on seeded algebras and
seeded basis changes of them: failures at degrees n <= c (filiform algebras,
quadratic realizations cut by a cubic or quartic relation) and at n = c + 1
(truncated realizations), and algebras that pass."""

import random
from fractions import Fraction

import pytest

from malcev.freelie import graded_ideal_closure
from malcev.lie import LieAlgebra, heisenberg, nilpotency_class, quotient_by_ideal
from malcev.present import (
    QuadraticPresentation, is_quadratically_presented, pair_index, realize,
)

from oracles import quadratic_stage1
from test_graded_oracle import unipotent_conjugate


def filiform(n):
    """The model filiform algebra: [e_0, e_i] = e_(i+1) for 0 < i < n - 1."""
    return LieAlgebra(n, {(0, i): [int(t == i + 1) for t in range(n)]
                          for i in range(1, n - 1)})


def random_realization(rng, k, c, nrel):
    m = len(pair_index(k))
    rels = [[Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(nrel)]
    return realize(QuadraticPresentation(k, rels), c)[0]


def cut(rng, Q, d):
    """Q modulo the graded ideal of one random element of degree d."""
    v = [Fraction(0)] * Q.dim
    for i in Q.graded_component_indices(d):
        v[i] = Fraction(rng.randint(-1, 1))
    ideal, _ = graded_ideal_closure(Q, [tuple(v)])
    return quotient_by_ideal(Q, ideal)[0]


def algebras():
    rng = random.Random(17)
    out = [("heisenberg", heisenberg())]
    out += [("filiform%d" % n, filiform(n)) for n in (4, 5, 6)]
    for k, c, nrel in ((2, 2, 0), (2, 3, 0), (2, 4, 0), (3, 3, 1), (3, 4, 2),
                       (4, 3, 5), (2, 4, 1), (3, 2, 3)):
        out.append(("realize(%d,%d,%d)" % (k, c, nrel), random_realization(rng, k, c, nrel)))
    for k, c, nrel, d in ((2, 4, 0, 3), (3, 4, 2, 3), (3, 4, 2, 4), (2, 5, 0, 4),
                          (3, 3, 2, 3)):
        Q = random_realization(rng, k, c, nrel)
        out.append(("cut(%d,%d,%d,%d)" % (k, c, nrel, d), cut(rng, Q, d)))
    return out


CASES = algebras()


@pytest.mark.parametrize("name,L", CASES, ids=[name for name, _ in CASES])
def test_stage1_matches_oracle(name, L):
    rng = random.Random(name)
    for target in (L, unipotent_conjugate(L, rng, True)):
        v = is_quadratically_presented(target)
        got = (v.failing_degree, v.defect_dim) if v.stage == "graded" else None
        assert got == quadratic_stage1(target.dim, target.brackets)


def test_cases_fail_below_and_at_the_top_degree():
    """The cases fail stage 1 in degrees 3, 4 and 5, both at n <= c and at
    n = c + 1, and some pass it."""
    seen = set()
    for _, L in CASES:
        v = is_quadratically_presented(L)
        top = None if v.failing_degree is None else v.failing_degree == nilpotency_class(L) + 1
        seen.add((v.failing_degree, top))
    assert {(3, False), (4, False), (3, True), (4, True), (5, True), (None, None)} <= seen
