"""LieAlgebra.check_jacobi, which proves Jacobi on the basis triples meeting a
generating set before it sweeps, against a full sweep by dense brackets, on
the algebras of the suite and seeded corruptions of their tables."""

import functools
import random
from fractions import Fraction
from math import comb

import pytest

import malcev.lie
from malcev.lie import LieAlgebra, heisenberg, abelian, direct_sum, _generators
from malcev.freelie import free_nilpotent

from oracles import jacobi_violations
from test_dga_table import FILIFORM4, conjugate
from test_quotient_oracle import SL2

NON_JACOBI_5 = LieAlgebra(5, {(0, 1): (0, 0, 1, 0, 0), (0, 2): (0, 0, 0, 1, 0),
                              (1, 3): (0, 0, 0, 0, 1)})
NON_JACOBI_3 = LieAlgebra(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})


@functools.lru_cache(maxsize=None)
def algebras():
    rng = random.Random(4)
    return {
        "heisenberg": heisenberg(), "abelian3": abelian(3), "filiform4": FILIFORM4,
        "sl2": SL2, "h+sl2": direct_sum(heisenberg(), SL2),
        "F(2,3)": conjugate(free_nilpotent(2, 3), rng), "F(3,2)": free_nilpotent(3, 2),
        "F(2,4)": free_nilpotent(2, 4), "F(3,3)": conjugate(free_nilpotent(3, 3), rng),
        "F(3,3)+sl2": direct_sum(free_nilpotent(3, 3), SL2),
        "non-jacobi-3": NON_JACOBI_3, "non-jacobi-5": NON_JACOBI_5,
        # failing only at (8, 9, 10), which meets just the generators of
        # the second summand
        "F(2,4)+non-jacobi-5": direct_sum(free_nilpotent(2, 4), NON_JACOBI_5),
    }


def corrupted(L, rng):
    """L with one structure constant of its table changed."""
    table = {key: list(v) for key, v in L.brackets.items()}
    i, j = sorted(rng.sample(range(L.dim), 2))
    v = table.setdefault((i, j), [Fraction(0)] * L.dim)
    k = rng.randrange(L.dim)
    v[k] += rng.choice([Fraction(1), Fraction(-2), Fraction(1, 3)])
    return LieAlgebra(L.dim, table)


NAMES = sorted(algebras())


@pytest.mark.parametrize("name", NAMES)
def test_check_jacobi_matches_full_sweep(name):
    L = algebras()[name]
    assert L.check_jacobi() == jacobi_violations(L.dim, L.brackets)


# fewer corruptions of F(3,3), whose oracle sweeps cost the most
@pytest.mark.parametrize("name, count", [
    ("heisenberg", 8), ("abelian3", 8), ("filiform4", 8), ("sl2", 8), ("h+sl2", 8),
    ("F(2,3)", 8), ("F(3,2)", 8), ("F(2,4)", 8), ("F(3,3)", 4)])
def test_corrupted_tables_match_full_sweep(name, count):
    L, rng = algebras()[name], random.Random(name)
    verdicts = []
    for _ in range(count):
        C = corrupted(L, rng)
        expected = jacobi_violations(C.dim, C.brackets)
        assert C.check_jacobi() == expected
        verdicts.append(expected)
    if L.dim >= 4:
        assert any(verdicts)


@pytest.mark.parametrize("name", ["F(2,3)", "F(2,4)", "F(3,3)", "filiform4", "sl2"])
def test_valid_algebra_checks_each_triple_meeting_the_generators_once(name, monkeypatch):
    """A Jacobi algebra costs six brackets per basis triple that meets S,
    and none of the sweep.  For sl2, [L, L] = L, so S is every index."""
    L = algebras()[name]
    L = LieAlgebra(L.dim, dict(L.brackets))  # nothing memoised yet
    S = _generators(L)
    calls = []
    bracket = malcev.lie.sparse_bracket
    monkeypatch.setattr(malcev.lie, "sparse_bracket",
                        lambda *args: calls.append(1) or bracket(*args))
    assert L.check_jacobi() == []
    assert len(calls) == 6 * (comb(L.dim, 3) - comb(L.dim - len(S), 3))
