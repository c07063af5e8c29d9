"""present._relation_space, read off the int rows of the lower central
series, against the kernel of wedge^2 gr_1 -> gr_2 of the dense associated
graded (oracles.dense_relation_space), on yes verdicts, at class 1, on dim 0
and on seeded basis changes; lie.unit_complement against the degree-1 rows
of adapted_basis; and the traffic of is_quadratically_presented: a
stage-"graded" verdict builds no gr L, and a yes still carries it."""

import random

import pytest

from malcev import present
from malcev.freelie import free_nilpotent
from malcev.lie import (
    LieAlgebra, _lcs_bases, abelian, adapted_basis, direct_sum, heisenberg,
    unit_complement,
)
from malcev.present import _relation_space, direct_summand_quadratic, is_quadratically_presented

from oracles import dense_associated_graded, dense_relation_space
from test_graded_oracle import genus2_class3, unipotent_conjugate
from test_present import higher_heisenberg, rand_stabilized
from test_quadratic_stage1 import CASES, filiform

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

BASES = [
    ("dim0", LieAlgebra(0, {})),
    ("abelian1", abelian(1)),
    ("abelian4", abelian(4)),
    ("F(2,3)", free_nilpotent(2, 3)),
    ("F(3,2)", free_nilpotent(3, 2)),
    ("F(2,4)", free_nilpotent(2, 4)),
    ("genus2-class3", genus2_class3()),
    ("F(2,3)+Q", direct_sum(free_nilpotent(2, 3), abelian(1))),
    ("higher-heisenberg", higher_heisenberg()[1]),
    ("higher-heisenberg+Q2", direct_sum(higher_heisenberg()[1], abelian(2))),
] + [("stabilized%d" % i, rand_stabilized(random.Random(i))[1]) for i in range(6)] + CASES


def oracle_W(L):
    _, degrees, brackets = dense_associated_graded(L.dim, L.brackets)
    return dense_relation_space(degrees, brackets)


def targets(name, L):
    """L and seeded basis changes of it, strict (rows kept) and loose (rows
    shuffled); one loose one above dim 12, where the oracle is slow."""
    rng = random.Random(name)
    return [L] + [unipotent_conjugate(L, rng, permute)
                  for permute in ((False, True, True) if L.dim <= 12 else (True,))]


@pytest.mark.parametrize("name,L", BASES, ids=[name for name, _ in BASES])
def test_relation_space_matches_oracle(name, L):
    for target in targets(name, L):
        W = oracle_W(target)
        assert _relation_space(target) == W
        v = is_quadratically_presented(target)
        if v.yes:
            assert v.W == W


def test_cases_cover_yes_class_one_and_dim_zero():
    verdicts = {name: is_quadratically_presented(L) for name, L in BASES}
    assert verdicts["dim0"].yes and verdicts["dim0"].W == [] == _relation_space(BASES[0][1])
    assert verdicts["abelian4"].yes and len(verdicts["abelian4"].W) == 6
    assert sum(v.yes for v in verdicts.values()) >= 8
    assert sum(v.stage == "graded" for v in verdicts.values()) >= 8


def test_direct_summand_relation_space_matches_oracle():
    L1, L2 = higher_heisenberg()[1], abelian(2)
    v1 = direct_summand_quadratic(L1, L2, is_quadratically_presented(direct_sum(L1, L2)))
    assert v1.yes and v1.W == oracle_W(L1)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(st.sampled_from(BASES), st.integers(0, 10 ** 6), st.booleans())
def test_unit_complement_is_the_degree_one_rows_of_adapted_basis(base, seed, permute):
    L = unipotent_conjugate(base[1], random.Random(seed), permute)
    n = L.dim
    G2 = (_lcs_bases(L) + ((),))[1]
    comp = unit_complement(G2, n)[0]
    rows, degrees = adapted_basis(L)
    assert [((c, 1),) for c in comp] == [r for r, d in zip(rows, degrees) if d == 1]


def test_graded_verdict_builds_no_associated_graded(monkeypatch):
    def refuse(L):
        raise AssertionError("associated_graded called before stage 1 passed")
    monkeypatch.setattr(present, "associated_graded", refuse)
    rng = random.Random(3)
    for L in (heisenberg(), filiform(5), free_nilpotent(3, 3),
              unipotent_conjugate(filiform(6), rng, True)):
        v = is_quadratically_presented(L)
        assert not v.yes and v.stage == "graded"


def test_yes_verdict_carries_graded(monkeypatch):
    calls = []
    real = present.associated_graded
    monkeypatch.setattr(present, "associated_graded", lambda L: calls.append(L) or real(L))
    for L in (abelian(3), higher_heisenberg()[1],
              unipotent_conjugate(rand_stabilized(random.Random(7))[1], random.Random(5), True)):
        calls.clear()
        v = is_quadratically_presented(L)
        assert v.yes and calls == [L]
        _, degrees, brackets = dense_associated_graded(L.dim, L.brackets)
        assert v.graded.algebra.grading == tuple(degrees)
        assert dict(v.graded.algebra.brackets) == brackets
