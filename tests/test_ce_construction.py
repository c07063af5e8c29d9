"""Chevalley-Eilenberg complexes are DGAs by construction: the exterior table
is associative and graded-commutative, d is the odd derivation extending d
on degree 1, and d^2 = 0 on degree 1 is the Jacobi identity.  Against
``FiniteDGA.validate``, the oracle's full axiom sweep and the oracle's Jacobi
check."""

import random
from fractions import Fraction

import pytest

from malcev.dga import chevalley_eilenberg
from malcev.lie import LieAlgebra

from oracles import ce_dga, dga_axiom_failures, jacobi_violations
from test_ce_massey import NAMES, algebras

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MESSAGE = "Jacobi identity fails; CE differential would not square to zero"
CONSTANTS = [Fraction(0)] * 4 + [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                                 Fraction(-2, 3)]


@pytest.mark.parametrize("index", range(len(NAMES)), ids=NAMES)
def test_ce_complexes_satisfy_the_axioms(index):
    """validate proves the axioms the build no longer checks.  The oracle
    sweeps the oracle's complex, which ``test_ce_matches_oracle`` shows is
    the library's, over every basis triple; at dim 6 that sweep takes about
    11 s, so F(3,2) gets validate only."""
    L = algebras()[index][1]
    assert chevalley_eilenberg(L).validate() == []
    if L.dim <= 5:
        assert dga_axiom_failures(*ce_dga(L.dim, L.brackets)) == []


def seeded_table(seed, dim, upward):
    """An antisymmetric table {(i, j): [e_i, e_j]} for i < j, with constants
    drawn from CONSTANTS by random.Random(seed); when upward, [e_i, e_j] lies
    in the span of the e_k with k > j, so that Jacobi often holds."""
    rng = random.Random(seed)
    table = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            v = tuple(rng.choice(CONSTANTS) if k > j or not upward else Fraction(0)
                      for k in range(dim))
            if any(v):
                table[(i, j)] = v
    return table


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.integers(0, 10 ** 6), st.integers(2, 5), st.booleans())
def test_ce_raises_iff_jacobi_fails(seed, dim, upward):
    table = seeded_table(seed, dim, upward)
    violations = jacobi_violations(dim, table)
    try:
        A = chevalley_eilenberg(LieAlgebra(dim, table))
    except ValueError as e:
        assert violations and str(e) == MESSAGE
    else:
        assert not violations and A.validate() == []


def test_seeded_tables_meet_both_verdicts():
    """The seeded tables of the property test include Lie algebras and
    tables that fail Jacobi, at dim 5 in both kinds of table."""
    verdicts = {(upward, not jacobi_violations(5, seeded_table(seed, 5, upward)))
                for seed in range(40) for upward in (False, True)}
    assert verdicts == {(False, False), (True, False), (True, True)}
