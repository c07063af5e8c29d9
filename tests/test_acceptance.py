"""Acceptance suite.

Each criterion is checked exactly (rational arithmetic, no tolerances) and
against an explicit wall-clock budget.  The oracles live in tests/oracles.py
and share no code with the library.
"""

import random
import time
from fractions import Fraction

from malcev.linalg import Matrix, inverse, kernel_basis, vec_is_zero, spans_equal
from malcev.lie import LieAlgebra, heisenberg, abelian, direct_sum, lcs_dims
from malcev.freelie import free_nilpotent, hall_basis
from malcev.bch import bch, bch_universal, commutator_index
from malcev.dga import chevalley_eilenberg, massey_triple, adjoin_acyclic
from malcev.dgla import (
    TensorDGLA, tensor_dgla, is_mc, gauge, lcs_extension, obstruction_class,
    lift_system_solvable, mc_solve, DGAMorphism, compare_def_along_map,
)
from malcev.present import (
    QuadraticPresentation, CupDatum, realize, realized_graded_dims,
    is_quadratically_presented, direct_summand_quadratic, malcev_model,
    pair_index, lift_one_class,
)
from malcev.cli import main as cli_main

from oracles import (
    witt_dim, am_mul, am_add, am_exp, am_log, embed_bracket_word, envelope_bch,
    hall_expansion_in_envelope,
)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()

    def done(self, label):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, \
            "%s took %.2fs (budget %.0fs)" % (label, elapsed, self.seconds)
        print("PASS %s (%.2fs < %.0fs)" % (label, elapsed, self.seconds))


def embed_element(x, F, cutoff):
    """Associative-envelope image of a free-Lie element, via the oracle."""
    out = {}
    for i, c in enumerate(x):
        if c:
            out = am_add(out, {w: c * c2 for w, c2
                               in embed_bracket_word(F.hall_words[i], cutoff).items()})
    return out


def test_criterion_1_bch_envelope_oracle():
    budget = Budget(1)
    # universal coefficients against the envelope's log(exp x exp y)
    for c in (2, 3, 4):
        assert hall_expansion_in_envelope(bch_universal(c), c) == envelope_bch(c)
    # random elements of free_nilpotent(2, c): both routes, exact equality
    rng = random.Random(1001)
    for c in (2, 3, 4):
        F = free_nilpotent(2, c)
        for _ in range(3):
            x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(F.dim))
            y = tuple(Fraction(rng.randint(-2, 2)) for _ in range(F.dim))
            z = bch(x, y, F)
            ex = am_exp(embed_element(x, F, c), c)
            ey = am_exp(embed_element(y, F, c), c)
            assert embed_element(z, F, c) == am_log(am_mul(ex, ey, c), c)
    # class-2 specialization: g . h = g + h + 1/2 [g, h]
    h = heisenberg()
    assert bch(h.basis_vector(0), h.basis_vector(1), h) == (1, 1, Fraction(1, 2))
    budget.done("criterion 1: BCH vs associative-envelope oracle")


def test_criterion_2_hall_witt_agreement():
    budget = Budget(1)
    for k in (2, 3):
        counts = [len(g) for g in hall_basis(k, 6)]
        assert counts == [witt_dim(k, n) for n in range(1, 7)]
    assert [len(g) for g in hall_basis(2, 6)] == [2, 1, 2, 3, 6, 9]
    assert [len(g) for g in hall_basis(3, 6)] == [3, 3, 8, 18, 48, 116]
    budget.done("criterion 2: Hall basis counts vs Witt formula oracle")


def test_criterion_3_heisenberg_pipeline(capsys):
    budget = Budget(5)
    h = heisenberg()
    from malcev.bch import lattice_closed_under_bch
    assert lattice_closed_under_bch(
        h, [(1, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 2))]) is None
    assert lcs_dims(h) == [3, 1, 0]
    v = is_quadratically_presented(h)
    assert not v.yes and v.failing_degree == 3
    assert commutator_index(Matrix([[2, 3], [1, 2]])) == 2
    from malcev.bch import GroupPresentation
    p = GroupPresentation(
        ["x", "y", "z"],
        [["x", "y", "x^-1", "y^-1", "z^-1", "z^-1"],
         ["x", "z", "x^-1", "z^-1"],
         ["y", "z", "y^-1", "z^-1"]])
    lift = lift_one_class(p, {"x": (1, 0, 0), "y": (0, 1, 0),
                              "z": (0, 0, Fraction(1, 2))},
                          free_nilpotent(2, 3), 3)
    assert not lift.lifted
    A = chevalley_eilenberg(h)
    a = (Fraction(1), Fraction(0), Fraction(0))
    b = (Fraction(0), Fraction(1), Fraction(0))
    res = massey_triple(A, (1, a), (1, a), (1, b))
    assert not res.vanishes and res.indeterminacy == []
    # and the packaged demo command agrees end to end
    assert cli_main(["heisenberg-demo", "--out", "json"]) == 0
    out = capsys.readouterr().out
    assert '"excluded_as_kaehler_group": true' in out
    budget.done("criterion 3: Heisenberg worked example end-to-end")


def test_criterion_4_malcev_models():
    budget = Budget(2)
    torus = CupDatum(2, 1, [[[0], [1]], [[-1], [0]]])
    Q, stabilized = realize(malcev_model(torus), 3)
    assert stabilized and Q.dim == 2 and not Q.brackets
    zero = CupDatum(2, 0, [[[], []], [[], []]])
    Qz, stz = realize(malcev_model(zero), 3)
    assert not stz and Qz.dim == free_nilpotent(2, 3).dim
    g2 = [[[0]] * 4 for _ in range(4)]
    g2[0][1], g2[1][0] = [1], [-1]
    g2[2][3], g2[3][2] = [1], [-1]
    Qg, _ = realize(malcev_model(CupDatum(4, 1, g2)), 3)
    assert realized_graded_dims(Qg) == [4, 5, 16]
    budget.done("criterion 4: quadratic models from cup data")


def test_criterion_5_obstruction_completeness():
    budget = Budget(30)
    rng = random.Random(1005)
    total = obstructed = solvable = 0
    A_flat = chevalley_eilenberg(abelian(2))   # d = 0, nonzero products
    A_heis = chevalley_eilenberg(heisenberg())  # nonzero differential
    configs = [
        (A_flat, heisenberg(), 2, 45),
        (A_flat, free_nilpotent(2, 3), 2, 30),
        (A_heis, heisenberg(), 2, 30),
    ]
    for A, N, k, count in configs:
        e = lcs_extension(N, k)
        tm = TensorDGLA(A, e.M)
        # e.M is abelian at stage 2, so MC = closed: sample the kernel of d
        cols = [tm.diff(1, tuple(Fraction(1) if t == i else Fraction(0)
                                 for t in range(tm.dim(1))))
                for i in range(tm.dim(1))]
        if tm.dim(2):
            kern = kernel_basis(Matrix.from_columns(cols, rows=tm.dim(2)))
        else:
            kern = [tuple(Fraction(1) if t == i else Fraction(0)
                          for t in range(tm.dim(1))) for i in range(tm.dim(1))]
        for _ in range(count):
            x = [Fraction(0)] * tm.dim(1)
            for v in kern:
                c = Fraction(rng.randint(-2, 2))
                if c:
                    x = [a + c * b for a, b in zip(x, v)]
            x = tuple(x)
            assert is_mc(tm, x)
            classes, _ = obstruction_class(A, x, e)
            zero_class = all(all(c == 0 for c in cc) for cc in classes)
            assert zero_class == lift_system_solvable(A, x, e)
            total += 1
            if zero_class:
                solvable += 1
            else:
                obstructed += 1
    assert total >= 100 and obstructed > 0 and solvable > 0
    budget.done("criterion 5: obstruction class complete over %d instances"
                % total)


def test_criterion_6_gauge_action_laws():
    budget = Budget(10)
    rng = random.Random(1006)
    checked = 0
    for A, N in ((chevalley_eilenberg(heisenberg()), heisenberg()),
                 (chevalley_eilenberg(abelian(2)), heisenberg())):
        t = tensor_dgla(A, N)
        A0N = t.degree0_lie_algebra()
        x0 = mc_solve(A, N).solution
        for _ in range(50):
            gamma = tuple(Fraction(rng.randint(-2, 2)) for _ in range(t.dim(0)))
            a = tuple(Fraction(rng.randint(-2, 2)) for _ in range(t.dim(0)))
            b = tuple(Fraction(rng.randint(-2, 2)) for _ in range(t.dim(0)))
            x = gauge(t, gamma, x0)
            assert is_mc(t, x)
            assert is_mc(t, gauge(t, a, x))
            assert gauge(t, t.zero(0), x) == x
            assert gauge(t, a, gauge(t, b, x)) == gauge(t, bch(a, b, A0N), x)
            checked += 1
    assert checked >= 100
    budget.done("criterion 6: gauge laws over %d instances" % checked)


def test_criterion_7_quasi_isomorphism_invariance():
    budget = Budget(10)
    A = chevalley_eilenberg(heisenberg())
    B, inc = adjoin_acyclic(A, deg=1)
    phi = DGAMorphism(A, B, inc)
    for N in (abelian(1), abelian(2), heisenberg()):
        out = compare_def_along_map(phi, N)
        assert out["etale"] and out["isomorphism"]
        assert out["census_match"], \
            "census mismatch over coefficients of dim %d" % N.dim
    budget.done("criterion 7: stagewise censuses match along a quasi-isomorphism")


def _random_stabilized(rng):
    while True:
        k = rng.choice([2, 3, 3, 4])
        m = len(pair_index(k))
        nrel = rng.randint(max(1, m - 1), m)
        rels = [[Fraction(rng.randint(-2, 2)) for _ in range(m)]
                for _ in range(nrel)]
        if all(all(c == 0 for c in r) for r in rels):
            continue
        qp = QuadraticPresentation(k, rels)
        c = 3 if k == 4 else 4
        Q, stabilized = realize(qp, c)
        if stabilized:
            return qp, Q


def _conjugate_filtered(L, rng, strict=False):
    """Random unipotent filtered basis change.

    With strict=True the change only adds strictly deeper components, so it
    acts as the identity on the associated graded and the recovered relation
    space must agree literally; otherwise only the verdict is invariant.
    """
    n = L.dim

    def mixes(i, j):
        if i <= j:
            return False
        return L.grading[j] < L.grading[i] if strict else True

    M = Matrix([[Fraction(1) if i == j else
                 (Fraction(rng.randint(-1, 1)) if mixes(i, j) else Fraction(0))
                 for j in range(n)] for i in range(n)])
    Mi = inverse(M)
    cols = M.columns()
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = Mi.mul_vec(L.bracket(cols[i], cols[j]))
            if not vec_is_zero(v):
                brackets[(i, j)] = v
    return LieAlgebra(n, brackets)


def test_criterion_8_quadratic_round_trip():
    budget = Budget(30)
    rng = random.Random(1008)
    for trial in range(50):
        qp, Q = _random_stabilized(rng)
        v = is_quadratically_presented(Q)
        assert v.yes, "round trip failed on %r" % (qp.to_json(),)
        assert spans_equal(v.W, list(qp.relations))
        if trial % 5 == 0:
            strict = is_quadratically_presented(
                _conjugate_filtered(Q, rng, strict=True))
            assert strict.yes
            assert spans_equal(strict.W, list(qp.relations))
            loose = is_quadratically_presented(
                _conjugate_filtered(Q, rng))
            assert loose.yes  # the verdict survives arbitrary basis changes
    budget.done("criterion 8: 50 quadratic round trips with basis-change "
                "invariance")


def test_criterion_9_direct_summand():
    budget = Budget(10)
    rng = random.Random(1009)
    partners = [abelian(1), abelian(2)]
    checked = 0
    while checked < 4:
        qp, L1 = _random_stabilized(rng)
        L2 = partners[checked % len(partners)]
        v = is_quadratically_presented(direct_sum(L1, L2))
        if not v.yes:
            continue
        v1 = direct_summand_quadratic(L1, L2, v)
        assert v1.yes
        assert spans_equal(v1.W, list(qp.relations))
        checked += 1
    budget.done("criterion 9: direct-summand quadraticity over %d sums"
                % checked)
