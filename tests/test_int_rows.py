"""The int-row paths of the lower central series, the associated graded and
the quotient against the dense oracles, on conjugated cup models whose
integer tables have mostly empty partner rows, and the non-nilpotent
verdict of the series."""

import random

import pytest

from malcev.lie import (
    LieAlgebra, NonNilpotentError, _lcs_bases, abelian, direct_sum, heisenberg,
    lower_central_series, nilpotency_class,
)
from malcev.linalg import _dense, echelon_basis
from malcev.present import CupDatum, malcev_model, realize

from oracles import naive_lcs
from test_graded_oracle import check_against_oracle as check_graded, unipotent_conjugate
from test_quotient_oracle import SL2, check_against_oracle as check_quotient

GENUS2 = {(0, 1): 1, (1, 0): -1, (2, 3): 1, (3, 2): -1}


def conjugated_cup_model(rng):
    """realize(malcev_model(CupDatum(4, 1, g^T w g)), 3) for w = e1^e2 +
    e3^e4 and a seeded unipotent g, after a seeded unipotent change of basis
    (rows not shuffled, so the degree-3 vectors stay central)."""
    g = [[1 if r == c else (rng.randint(-1, 1) if r > c else 0) for c in range(4)]
         for r in range(4)]
    pairing = [[[sum(g[a][i] * w * g[b][j] for (a, b), w in GENUS2.items())]
                for j in range(4)] for i in range(4)]
    Q, stabilized = realize(malcev_model(CupDatum(4, 1, pairing)), 3)
    assert not stabilized and Q.dim == 25
    return unipotent_conjugate(Q, rng, permute=False)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_int_paths_match_oracles_on_conjugated_cup_models(seed):
    C = conjugated_cup_model(random.Random(seed))
    # most partner rows are empty: the LCS skips them
    assert sum(not row for row in C.table[1]) >= 16
    chain = lower_central_series(C)
    assert [term.basis for term in chain] == naive_lcs(C.dim, C.brackets)
    assert [len(rows) for rows in _lcs_bases(C)] == [25, 21, 16, 0]
    for rows, term in zip(_lcs_bases(C), chain):
        assert all(type(x) is int for r in rows for _, x in r)
        assert echelon_basis([_dense(r, C.dim) for r in rows], C.dim) == term.basis
    check_graded(C)
    for term in chain:
        check_quotient(C, term.basis)


@pytest.mark.parametrize("L", [
    direct_sum(SL2, abelian(1)),
    direct_sum(heisenberg(), SL2),
    LieAlgebra(2, {(0, 1): (0, 1)}),
], ids=["sl2+Q", "heisenberg+sl2", "[e1,e2]=e2"])
def test_non_nilpotent_parts_are_still_caught(L):
    with pytest.raises(NonNilpotentError):
        lower_central_series(L)
    with pytest.raises(NonNilpotentError):
        nilpotency_class(L)
