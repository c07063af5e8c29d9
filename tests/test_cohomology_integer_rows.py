"""CohomologyData read off the integer views of the d[n], against Fraction
oracles: the cocycles are the kernel basis read off the Gauss-Jordan RREF of
d[n], the coboundaries the nonzero RREF rows of the columns of d[n-1], and
the representatives the greedy choice by ranks."""

import functools
import json
import math
from fractions import Fraction

import pytest

from malcev.dga import (
    CohomologyData, FiniteDGA, adjoin_acyclic, chevalley_eilenberg, cohomology,
    cohomology_ring,
)
from malcev.lie import heisenberg

from oracles import gauss_jordan, greedy_complement
from test_ce_massey import algebras
from test_dga_table import FILIFORM4
from test_dga_validate import rescaled


def json_dga():
    """CE(filiform4) with an acyclic piece adjoined in degrees 0, 1 and in
    degrees 3, 4, so that every d[n] is nonzero, in the basis f = s a with
    s = 1, 2, 6, 30, 210 in degrees 0..4, through JSON: d[n] has the entries
    s_n d / s_{n+1}, with denominators 2, 3, 5 and 7."""
    A = adjoin_acyclic(adjoin_acyclic(chevalley_eilenberg(FILIFORM4), deg=0)[0], deg=3)[0]
    s = [1, 2, 6, 30, 210]
    d, products = rescaled(A, {(n, i): s[n] for n in range(5) for i in range(A.dims[n])})
    B = FiniteDGA(A.dims, d, products)
    return FiniteDGA.from_json(json.loads(json.dumps(B.to_json())))


@functools.lru_cache(maxsize=None)
def dgas():
    ce = {name: chevalley_eilenberg(L) for name, L in algebras()}
    h = ce["heisenberg"]
    return {
        **{"ce-" + name: A for name, A in ce.items()},
        "adjoin-acyclic-deg0": adjoin_acyclic(h, deg=0)[0],
        "adjoin-acyclic-deg1": adjoin_acyclic(ce["filiform4"], deg=1)[0],
        "cohomology-ring": cohomology_ring(ce["F(2,3)"]),
        "cohomology-ring-heisenberg": cohomology_ring(chevalley_eilenberg(heisenberg())),
        "json-mixed-denominators": json_dga(),
    }


NAMES = sorted(dgas())


def oracle_kernel(rows, cols):
    """The kernel basis read off the Gauss-Jordan RREF: per free column fc,
    e_fc minus the column fc of the RREF placed at the pivots."""
    red, pivots = gauss_jordan(rows, cols)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(int(c == fc)) for c in range(cols)]
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(tuple(v))
    return basis


@pytest.mark.parametrize("name", NAMES)
def test_cohomology_matches_fraction_oracles(name):
    A = dgas()[name]
    for H in (cohomology(A), CohomologyData(A.dims, A.dcol)):
        for n in range(A.top + 1):
            rows = A.d[n].data
            cocycles = oracle_kernel(rows, A.dims[n])
            columns = [A.d[n - 1].column(j) for j in range(A.dims[n - 1])] if n else []
            red, pivots = gauss_jordan(columns, A.dims[n])
            assert list(H.cocycles[n]) == cocycles, (n, "cocycles")
            assert list(H.coboundaries[n]) == red[:len(pivots)], (n, "coboundaries")
            assert list(H.representatives[n]) == greedy_complement(H.coboundaries[n],
                                                                   H.cocycles[n])


def test_json_dga_has_a_denominator_per_degree():
    A = dgas()["json-mixed-denominators"]
    denominators = [math.lcm(*(c.denominator for row in m.data for c in row)) for m in A.d]
    assert denominators == [2, 3, 5, 7, 1]
    assert cohomology(A).betti() == cohomology(chevalley_eilenberg(FILIFORM4)).betti()
