"""The cohomology kept on each FiniteDGA: one CohomologyData per DGA, shared
by every caller, with representatives equal to a greedy choice by ranks."""

import random

import pytest

from malcev.lie import heisenberg, abelian
from malcev.freelie import free_nilpotent
from malcev.dga import (
    CohomologyData, chevalley_eilenberg, adjoin_acyclic, cohomology,
    formality_consequence_report, massey_triple,
)
from malcev.dgla import DGAMorphism, compare_def_along_map

from oracles import greedy_complement
from test_dga_table import conjugate
from test_dga_validate import bases


def dgas():
    out = dict(bases())
    out["ce-F(2,3)-conjugate"] = chevalley_eilenberg(
        conjugate(free_nilpotent(2, 3), random.Random(12)))
    return out


NAMES = sorted(dgas())


@pytest.fixture
def builds(monkeypatch):
    """The list of CohomologyData built while the test runs."""
    built, init = [], CohomologyData.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(CohomologyData, "__init__", counting)
    return built


def test_cohomology_is_kept_and_read_only():
    A = chevalley_eilenberg(heisenberg())
    H = cohomology(A)
    assert cohomology(A) is H
    for field in (H.cocycles, H.coboundaries, H.representatives):
        assert isinstance(field, tuple) and all(isinstance(v, tuple) for v in field)


@pytest.mark.parametrize("name", NAMES)
def test_representatives_are_the_greedy_choice(name):
    """Per degree, the representatives are the cocycles, in order, that
    raise the rank of the coboundaries and the cocycles kept before them."""
    A = dgas()[name]
    H = cohomology(A)
    for n in range(A.top + 1):
        assert list(H.representatives[n]) == greedy_complement(H.coboundaries[n],
                                                               H.cocycles[n])


def test_one_job_builds_one_cohomology(builds):
    """Betti numbers, the formality report and a Massey product of one DGA
    share one CohomologyData."""
    A = chevalley_eilenberg(conjugate(heisenberg(), random.Random(3)))
    betti = cohomology(A).betti()
    formality_consequence_report(A)
    a, b = cohomology(A).representatives[1]
    massey_triple(A, (1, a), (1, a), (1, b))
    assert betti == [1, 2, 2, 1] and len(builds) == 1


def test_comparison_builds_one_cohomology_per_dga(builds):
    A = chevalley_eilenberg(heisenberg())
    B, inc = adjoin_acyclic(A, deg=1)
    phi = DGAMorphism(A, B, inc)
    for _ in range(2):
        assert compare_def_along_map(phi, abelian(1))["isomorphism"]
    assert len(builds) == 2 and {H.dims[1] for H in builds} == {3, 4}
