"""The formality report on one triangle of the cup table.

Degree (1, 1) of a DGA is graded-commutative, so a_j a_i = -a_i a_j and
a_i a_i = 0 for H^1 representatives a_i.  The report forms, maps and solves
the pairs i < j only, and reads x_ji = -x_ij and x_ii = 0; then the
representative of <a_k, a_j, a_i> equals that of <a_i, a_j, a_k>, so a
triple (k, j, i) with i < k takes the verdict and the representative of
(i, j, k), and (i, i, i), whose representative is 0, is never a witness.

The sha256 values pin the witness JSON and the undefined count of the
report, `json.dumps([[t, r.to_json()] for t, r in witnesses] + [undefined])`.
They were recorded before the report moved to one triangle of the cup
table: it must leave every witness, its order, representative, class and
indeterminacy, and the undefined count as they are.  The inputs are built
without randomness or at fixed seeds: the Chevalley-Eilenberg complexes of
the 5-dimensional Heisenberg algebra, h + Q, F(2, 3), F(3, 2) and the
filiform algebra of dim 4, three of them in a seeded rational basis of the
algebra, and three DGAs in seeded fractional bases of every degree
(``dga_basis_change``).
"""

import hashlib
import json
import random

import pytest

from malcev import dga as dga_module
from malcev.dga import chevalley_eilenberg, cohomology, formality_consequence_report
from malcev.freelie import free_nilpotent
from malcev.lie import abelian, direct_sum, heisenberg
from malcev.linalg import AffineSolver, _dense

from test_dga_table import FILIFORM4, conjugate, dga_basis_change
from test_integer_kernels import HEISENBERG5


def h_plus_q():
    return direct_sum(heisenberg(), abelian(1))


COMPLEXES = {
    "heisenberg5": lambda: chevalley_eilenberg(HEISENBERG5),
    "h+Q-conjugate": lambda: chevalley_eilenberg(conjugate(h_plus_q(), random.Random(37))),
    "F(2,3)": lambda: chevalley_eilenberg(free_nilpotent(2, 3)),
    "F(3,2)-conjugate": lambda: chevalley_eilenberg(conjugate(free_nilpotent(3, 2),
                                                              random.Random(37))),
    "filiform4-conjugate": lambda: chevalley_eilenberg(conjugate(FILIFORM4, random.Random(37))),
    "heisenberg-basis-change": lambda: dga_basis_change(chevalley_eilenberg(heisenberg()),
                                                        random.Random(26)),
    "h+Q-basis-change": lambda: dga_basis_change(chevalley_eilenberg(h_plus_q()),
                                                 random.Random(26)),
    "filiform4-basis-change": lambda: dga_basis_change(chevalley_eilenberg(FILIFORM4),
                                                       random.Random(26)),
}

# sha256 of the report JSON, recorded before the report used one triangle
PINNED = {
    "heisenberg5": "b3fdec1080bd5304b17453ce58e9cf4d2e259632d07e23a213a353f15294d602",
    "h+Q-conjugate": "aa5fb824e729ccacb8f2fba7033dd5f3e7801b898eba9f394b9a6196203ab110",
    "F(2,3)": "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    "F(3,2)-conjugate": "f3c752cc636c02e0144f6ad9842f8867f1f58fd1c2a7924d7657abe857ea06dc",
    "filiform4-conjugate": "8e11feb9209b0ae8f5b4333ffb02677393edfb8370c3bf9c2c4b9bcce8920f97",
    "heisenberg-basis-change": "94081ca01753993648189029432c22753f8eb3757a357024ef8a5ff1bbbf1f86",
    "h+Q-basis-change": "501376e57c8da536b2be29ebdc7dbeacbd7b9520b4f2250e65b0fc60e72365ec",
    "filiform4-basis-change": "085e1e39e53d241041e9056d42d5e6dbfa5acb2970ac8c1bac9b4fd7d08940ff",
}

TRIANGLE = ["heisenberg5", "h+Q-conjugate", "F(3,2)-conjugate", "heisenberg-basis-change"]


def report_digest(A):
    witnesses, undefined = formality_consequence_report(A)
    text = json.dumps([[t, r.to_json()] for t, r in witnesses] + [undefined])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_bytes_are_pinned(name):
    assert report_digest(COMPLEXES[name]()) == PINNED[name]


@pytest.mark.parametrize("name", TRIANGLE)
def test_mirror_witnesses_share_the_representative(name):
    witnesses, _ = formality_consequence_report(COMPLEXES[name]())
    found = dict(witnesses)
    for (i, j, k), res in witnesses:
        assert not i == j == k
        if i != k:
            mirror = found[k, j, i]
            assert mirror.representative == res.representative
            assert mirror.to_json() == res.to_json()


def exact_pairs(A):
    """The pairs i < j of H^1 representatives with a_i a_j exact, by the
    preimage of ``cohomology``."""
    H = cohomology(A)
    reps = H.representatives[1]
    return sum(H.preimage(2, A.product(1, reps[i], 1, reps[j])) is not None
               for i in range(len(reps)) for j in range(i + 1, len(reps)))


def spied_report(monkeypatch, A):
    """(solve_int calls, cup products) of one report on A: a cup product is
    a ``sparse_product`` of two H^1 representatives, the others multiply a
    representative by a preimage x_jk."""
    reps = [_dense(r, A.dims[1]) for r in cohomology(A).representative_rows(1)]
    calls = {"solve": 0, "cup": 0}
    solve, product = AffineSolver.solve_int, dga_module.sparse_product

    def solve_spy(self, b):
        calls["solve"] += 1
        return solve(self, b)

    def product_spy(rows, u, v, n, zero):
        calls["cup"] += u in reps and v in reps
        return product(rows, u, v, n, zero)

    with monkeypatch.context() as m:
        m.setattr(AffineSolver, "solve_int", solve_spy)
        m.setattr(dga_module, "sparse_product", product_spy)
        formality_consequence_report(A)
    return calls


@pytest.mark.parametrize("name", TRIANGLE)
def test_report_solves_and_multiplies_one_triangle(monkeypatch, name):
    A = COMPLEXES[name]()
    b = len(cohomology(A).representatives[1])
    exact = exact_pairs(A)
    calls = spied_report(monkeypatch, A)
    assert calls == {"solve": exact, "cup": b * (b - 1) // 2}
    assert exact <= b * (b - 1) // 2
    assert spied_report(monkeypatch, COMPLEXES[name]()) == calls
