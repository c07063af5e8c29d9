"""Chevalley-Eilenberg complexes against the invariant-formula oracle, and
the pairwise formality scan against a per-triple loop of massey_triple."""

import functools
import itertools
import random

import pytest

from malcev.lie import LieAlgebra, heisenberg, abelian, direct_sum
from malcev.freelie import free_nilpotent
from malcev.dga import (
    chevalley_eilenberg, cohomology_ring, adjoin_acyclic,
    formality_consequence_report, massey_triple, MasseyUndefined, CohomologyData,
)

from oracles import ce_dga
from test_dga_table import FILIFORM4, conjugate


@functools.lru_cache(maxsize=None)
def algebras():
    """(name, L): seeded conjugates of five nilpotent algebras, then the
    abelian algebras of dim 0..3."""
    rng = random.Random(9)
    out = [(name, conjugate(L, rng)) for name, L in (
        ("heisenberg", heisenberg()), ("filiform4", FILIFORM4),
        ("h+Q", direct_sum(heisenberg(), abelian(1))),
        ("F(2,3)", free_nilpotent(2, 3)), ("F(3,2)", free_nilpotent(3, 2)))]
    return out + [("abelian%d" % n, abelian(n)) for n in range(4)]


NAMES = [name for name, _ in algebras()]


@pytest.mark.parametrize("index", range(len(NAMES)), ids=NAMES)
def test_ce_matches_oracle(index):
    L = algebras()[index][1]
    A = chevalley_eilenberg(L)
    dims, d, products = ce_dga(L.dim, L.brackets)
    assert A.dims == dims
    assert [[list(row) for row in m.data] for m in A.d[:A.top]] == d
    assert A.d[A.top].rows == 0 and A.d[A.top].cols == dims[A.top]
    assert list(A.products) == [(p, q) for p in range(L.dim + 1) for q in range(L.dim + 1 - p)]
    for key, table in products.items():
        assert A.products[key] == table, key


def test_ce_products_are_read_only():
    A = chevalley_eilenberg(algebras()[4][1])
    assert A.products is A.products
    with pytest.raises(TypeError):
        A.products[(1, 2)] = A.products[(2, 1)]
    with pytest.raises(TypeError):
        A.products[(1, 2)][0][1] = A.products[(1, 2)][0][0]


def test_ce_of_non_jacobi_table_is_rejected():
    N = LieAlgebra(5, {(0, 1): (0, 0, 1, 0, 0), (0, 2): (0, 0, 0, 1, 0),
                       (1, 3): (0, 0, 0, 0, 1)})
    assert N.check_jacobi() == [(0, 1, 2)]
    with pytest.raises(ValueError):
        chevalley_eilenberg(N)


def per_triple(A):
    """(witnesses as JSON, undefined count) by massey_triple on every triple
    of H^1 representatives, with a fresh cohomology (not the one that
    ``cohomology`` keeps on A)."""
    if A.top < 2:
        return [], 0
    H = CohomologyData(A.dims, A.dcol)
    reps = H.representatives[1]
    witnesses, undefined = [], 0
    for i, j, k in itertools.product(range(len(reps)), repeat=3):
        try:
            res = massey_triple(A, (1, reps[i]), (1, reps[j]), (1, reps[k]), H=H)
        except MasseyUndefined:
            undefined += 1
            continue
        if not res.vanishes:
            witnesses.append(((i, j, k), res.to_json()))
    return witnesses, undefined


def dgas():
    for name, L in algebras():
        A = chevalley_eilenberg(L)
        yield name, A
        if A.top >= 2:
            yield name + "-acyclic", adjoin_acyclic(A, deg=1)[0]
        yield name + "-ring", cohomology_ring(A)


@pytest.mark.parametrize("name, A", list(dgas()), ids=[name for name, _ in dgas()])
def test_report_matches_per_triple_loop(name, A):
    witnesses, undefined = formality_consequence_report(A)
    assert ([(t, r.to_json()) for t, r in witnesses], undefined) == per_triple(A)


def test_report_covers_witnesses_and_undefined_triples():
    reports = {name: formality_consequence_report(A) for name, A in dgas()}
    assert reports["heisenberg"][0] and reports["h+Q"][0]
    assert reports["h+Q"][1] and reports["abelian3"][1]
    # a nonzero indeterminacy that does not contain the class
    assert any(r.indeterminacy for _, r in reports["h+Q"][0])


def test_report_heisenberg_by_hand():
    """CE(heisenberg): d x2 = -x0 x1, H^1 = <x0, x1>, degree-2 basis
    x0x1, x0x2, x1x2.  <x0, x1, x0>: x = -x2, y = x2, so
    x0 y + x x0 = 2 x0x2; <x0, x1, x1>: x = -x2, y = 0, so x x1 = x1x2."""
    witnesses = dict(formality_consequence_report(chevalley_eilenberg(heisenberg()))[0])
    assert witnesses[(0, 1, 0)].representative == (0, 2, 0)
    assert witnesses[(0, 1, 1)].representative == (0, 0, 1)
    assert witnesses[(0, 1, 1)].indeterminacy == []


@pytest.mark.parametrize("n, expected", [(0, ([], 0)), (1, ([], 0)), (2, ([], 6))])
def test_report_low_top_degree(n, expected):
    assert formality_consequence_report(chevalley_eilenberg(abelian(n))) == expected

