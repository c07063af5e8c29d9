"""LCS stages (``dgla.lcs_extension``) against the dense oracles of
tests/oracles.py: the central lift correction and the solution count of its
stage in ``mc_solve``, the obstruction classes, and lift solvability, on the
(A, N) families of the deformation benchmark, with acyclic pieces adjoined
in degrees 0 and 1, and two DGAs without a degree-2 part; then one kernel
decomposition per ``mc_solve`` stage, its coordinates against naive solves
on a conjugated N, and the memo of one stage per (N, k), shared and left
unchanged by its callers."""

import random
from fractions import Fraction

import pytest

from malcev import linalg
from malcev.bch import GroupPresentation
from malcev.dga import FiniteDGA, adjoin_acyclic, chevalley_eilenberg, cohomology
from malcev.dgla import (
    SmallExtensionSpec, TensorDGLA, _central_correction, is_mc, lcs_extension,
    lift_system_solvable, mc_solve, obstruction_class,
)
from malcev.freelie import free_nilpotent
from malcev.lie import (
    LieAlgebra, abelian, change_basis, direct_sum, heisenberg, lower_central_series,
    nilpotency_class, quotient_by_ideal,
)
from malcev.present import lift_one_class

from oracles import naive_rank, naive_solve, tensor_diff, tensor_mc_residual

SOURCES = {
    "heisenberg": lambda: chevalley_eilenberg(heisenberg()),
    "abelian3": lambda: chevalley_eilenberg(abelian(3)),
    "h+R": lambda: chevalley_eilenberg(direct_sum(heisenberg(), abelian(1))),
    "filiform4": lambda: chevalley_eilenberg(
        LieAlgebra(4, {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1)})),
    # B^1 != 0 here, so dim Z^1 and b^1 differ
    "heisenberg+acyclic0": lambda: adjoin_acyclic(chevalley_eilenberg(heisenberg()), 0)[0],
    "heisenberg+acyclic1": lambda: adjoin_acyclic(chevalley_eilenberg(heisenberg()), 1)[0],
    "point2": lambda: FiniteDGA([2], [], {}),
    "line": lambda: FiniteDGA([0, 1], [], {}),
}
COEFFS = {
    "heisenberg": heisenberg,
    "F(2,3)": lambda: free_nilpotent(2, 3),
    "F(2,4)": lambda: free_nilpotent(2, 4),
    "F(3,2)": lambda: free_nilpotent(3, 2),
}
PAIRS = [(a, n) for a in SOURCES for n in COEFFS]


def dim(A, n):
    return A.dims[n] if n <= A.top else 0


def dense_d(A):
    """The dense matrices of d, as the tensor oracles take them."""
    return [m.data for m in A.d]


def section_lift(e, A, x):
    """The section of e applied to every coefficient block of x."""
    s, m = e.section().data, e.M.dim
    return tuple(sum(row[j] * x[i * m + j] for j in range(m))
                 for i in range(dim(A, 1)) for row in s)


def residual(A, e, x):
    """The oracle MC residual over A ox N of the section lift of x."""
    N = e.N
    return tensor_mc_residual(A.dims, A.products, dense_d(A), N.dim, N.brackets,
                              section_lift(e, A, x))


def stage1_cocycle(A, M, rng):
    """A random integer combination of the z ox e_r, z a cocycle of A^1."""
    m = M.dim
    x = [Fraction(0)] * (dim(A, 1) * m)
    if A.top < 1:
        return tuple(x)
    for z in cohomology(A).cocycles[1]:
        for r in range(m):
            c = rng.randint(-1, 1)
            for i, zi in enumerate(z):
                x[i * m + r] += c * zi
    return tuple(x)


def mc_points(A, N, rng, count=3):
    """(e, x) with e = lcs_extension(N, k) and x an MC element over A ox M,
    M = N/G_k, for each stage k >= 2 of N: x is the staged solution over M
    from a random stage-1 cocycle, kept when the staging completes."""
    out = []
    for k in range(2, nilpotency_class(N) + 1):
        e = lcs_extension(N, k)
        for _ in range(count):
            M = e.M
            rep = mc_solve(A, M, initial=stage1_cocycle(A, lcs_extension(M, 1).N, rng))
            if rep.completed:
                out.append((e, rep.solution))
    return out


@pytest.mark.parametrize("a_name,n_name", PAIRS)
def test_correction_matches_oracle(a_name, n_name):
    A, N = SOURCES[a_name](), COEFFS[n_name]()
    rng = random.Random(a_name + n_name)
    rank_d1 = naive_rank(A.d[1].data if A.top >= 2 else [])
    rep = mc_solve(A, N)   # from zero: every stage lifts
    counts = {lcs_extension(N, s.level): s.solution_dim for s in rep.stages}
    assert rep.completed and counts[lcs_extension(N, 1)] == \
        lcs_extension(N, 1).N.dim * (dim(A, 1) - rank_d1)
    points = mc_points(A, N, rng)
    assert points
    for e, x in points:
        m, kernel = e.N.dim, e.kernel
        dirs = []
        for i in range(dim(A, 1)):
            for kappa in kernel:
                v = [Fraction(0)] * (dim(A, 1) * m)
                v[i * m:(i + 1) * m] = kappa
                dirs.append(tuple(v))
        cols = [tensor_diff(A.dims, dense_d(A), m, 1, v) for v in dirs]
        rows = [list(r) for r in zip(*cols)]
        h = residual(A, e, x)
        d_h, ih = linalg.integer_row(h)
        parts, scale = e.kernel_parts(ih)
        u = _central_correction(A, e, parts, scale * d_h)
        expected = naive_solve(rows, [-c for c in h], len(dirs))
        assert (u is None) == (expected is None)
        count = counts[e]
        assert count == len(kernel) * (dim(A, 1) - rank_d1)
        assert count == len(dirs) - naive_rank(rows)
        if u is None:
            continue
        u = linalg.over(TensorDGLA(A, e.N)._flat(1, u[1]), u[0])
        oracle_u = [Fraction(0)] * len(u)
        for c, v in zip(expected, dirs):
            oracle_u = [a + c * b for a, b in zip(oracle_u, v)]
        assert u == tuple(oracle_u)


def oracle_classes(A, e, h):
    """The obstruction coordinates from naive solves: the kernel coordinates
    of each A^2 block of h, then the class of each kernel component h_t in
    the representatives of H^2 (completed by the coboundaries)."""
    if A.top < 2:
        return [() for _ in e.kernel]
    m, kernel = e.N.dim, e.kernel
    krows = [list(r) for r in zip(*kernel)]
    coords = [naive_solve(krows, h[i * m:(i + 1) * m]) for i in range(dim(A, 2))]
    assert None not in coords
    H = cohomology(A)
    reps = H.representatives[2]
    basis = list(reps) + list(H.coboundaries[2])
    out = []
    for t in range(len(kernel)):
        ht = [c[t] for c in coords]
        if not basis:
            assert not any(ht)
            out.append(())
            continue
        sol = naive_solve([list(r) for r in zip(*basis)], ht)
        assert sol is not None
        out.append(tuple(sol[:len(reps)]))
    return out


@pytest.mark.parametrize("a_name,n_name", PAIRS)
def test_obstruction_matches_oracle(a_name, n_name):
    A, N = SOURCES[a_name](), COEFFS[n_name]()
    rng = random.Random(n_name + a_name)
    for e, x in mc_points(A, N, rng):
        classes, h = obstruction_class(A, x, e)
        assert h == residual(A, e, x)
        assert classes == oracle_classes(A, e, h)
        zero = all(c == 0 for cc in classes for c in cc)
        assert zero == lift_system_solvable(A, x, e)


@pytest.mark.parametrize("a_name,n_name", PAIRS)
def test_non_mc_input_is_not_liftable(a_name, n_name):
    A, N = SOURCES[a_name](), COEFFS[n_name]()
    rng = random.Random(7)
    e = lcs_extension(N, 2)
    for _ in range(5):
        x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim(A, 1) * e.M.dim))
        base = tensor_mc_residual(A.dims, A.products, dense_d(A), e.M.dim, e.M.brackets, x)
        if not any(base):
            continue   # A^2 = 0 makes every x MC
        assert lift_system_solvable(A, x, e) is False


@pytest.mark.parametrize("a_name,n_name", PAIRS)
def test_obstruction_class_raises_exactly_off_mc(a_name, n_name):
    """obstruction_class reads the MC test of x over A ox M off the kernel
    test of its section lift's residual: on random x (mostly not MC) and on
    MC points, at every stage k = 2..class, it raises exactly when the
    oracle residual over A ox M is nonzero, and lift_system_solvable is
    then False."""
    A, N = SOURCES[a_name](), COEFFS[n_name]()
    rng = random.Random("off-mc" + a_name + n_name)
    points = mc_points(A, N, rng, count=2)
    for k in range(2, nilpotency_class(N) + 1):
        e = lcs_extension(N, k)
        xs = [x for f, x in points if f is e]
        xs += [tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim(A, 1) * e.M.dim))
               for _ in range(4)]
        for x in xs:
            mc = not any(tensor_mc_residual(A.dims, A.products, dense_d(A), e.M.dim,
                                            e.M.brackets, x))
            assert mc == is_mc(TensorDGLA(A, e.M), x)
            if mc:
                obstruction_class(A, x, e)
                continue
            with pytest.raises(ValueError, match="^input is not a Maurer-Cartan "
                                                 "element over the base$"):
                obstruction_class(A, x, e)
            assert lift_system_solvable(A, x, e) is False


@pytest.mark.parametrize("a_name,n_name", PAIRS)
def test_mc_solve_solutions_are_mc(a_name, n_name):
    """mc_solve checks the MC residual of its last stage only; the kernel
    test of stage k + 1 stands in for the check of stage k.  A completed
    solution is MC over N/G_{c+1}, and the solution of a solve obstructed
    at stage k is MC over its base N/G_k, by the oracle residual."""
    A, N = SOURCES[a_name](), COEFFS[n_name]()
    rng = random.Random("solve" + a_name + n_name)
    M1 = lcs_extension(N, 1).N
    for x in [None] + [stage1_cocycle(A, M1, rng) for _ in range(4)]:
        rep = mc_solve(A, N, initial=x)
        e = lcs_extension(N, rep.stages[-1].level)
        base = e.N if rep.completed else e.M
        assert len(rep.solution) == dim(A, 1) * base.dim
        assert not any(tensor_mc_residual(A.dims, A.products, dense_d(A), base.dim,
                                          base.brackets, rep.solution))


@pytest.mark.parametrize("a_name,n_name", PAIRS)
def test_each_mc_stage_splits_its_residual_once(monkeypatch, a_name, n_name):
    """Every mc_solve stage past the first calls ``kernel_parts`` of its
    stage once: the residual is split over the kernel once, and the
    obstruction class and the correction both read that split.  Staged from
    zero (every stage lifts) and from random stage-1 cocycles."""
    A, N = SOURCES[a_name](), COEFFS[n_name]()
    rng = random.Random(n_name + a_name)
    M1 = lcs_extension(N, 1).N
    starts = [None] + [stage1_cocycle(A, M1, rng) for _ in range(3)]
    levels = {id(lcs_extension(N, k)): k for k in range(2, nilpotency_class(N) + 1)}
    calls = []
    kernel_parts = SmallExtensionSpec.kernel_parts

    def counting(self, v):
        calls.append(levels.get(id(self)))
        return kernel_parts(self, v)

    monkeypatch.setattr(SmallExtensionSpec, "kernel_parts", counting)
    for x in starts:
        calls.clear()
        rep = mc_solve(A, N, initial=x)
        assert calls == [s.level for s in rep.stages[1:]]


def kernel_points(e, rng):
    """Int vectors of A^2 ox N blocks, for a test of ``kernel_parts``: each
    block a random combination of the kernel basis scaled to ints, zero with
    probability 1/2."""
    K = linalg.integer_row([c for kappa in e.kernel for c in kappa])[1]
    m = e.N.dim
    out = []
    for blocks in (1, 3, 4):
        v = []
        for _ in range(blocks):
            block = [0] * m
            if rng.random() < 0.5:
                for t in range(len(e.kernel)):
                    c = rng.randint(-3, 3)
                    block = [a + c * b for a, b in zip(block, K[t * m:(t + 1) * m])]
            v.extend(block)
        out.append(v)
    return out


@pytest.mark.parametrize("n_name", ["heisenberg", "F(2,3)", "F(3,2)"])
def test_kernel_parts_matches_naive_solve(monkeypatch, n_name):
    """``kernel_parts`` on a conjugated N, where the kernel basis is not made
    of unit vectors: each nonzero block has the coordinates of
    ``naive_solve`` over the kernel basis, a zero block has zero coordinates
    and no solve, and a block that leaves I gives None."""
    rng = random.Random(n_name)
    L = COEFFS[n_name]()
    n = L.dim
    while True:
        P = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if naive_rank(P) < n:
            continue
        N = change_basis(L, linalg.Matrix(P))
        centre = lower_central_series(N)[-2]   # the last nonzero term, central
        if any(sum(1 for c in kappa if c) > 1 for kappa in centre.basis):
            break
    e = SmallExtensionSpec(N, *quotient_by_ideal(N, centre), centre.basis)
    krows = [list(r) for r in zip(*e.kernel)]
    solves = []
    solve_int = linalg.AffineSolver.solve_int

    def counting(self, b):
        solves.append(tuple(b))
        return solve_int(self, b)

    monkeypatch.setattr(linalg.AffineSolver, "solve_int", counting)
    m = N.dim
    kinds = set()
    for v in kernel_points(e, rng):
        solves.clear()
        blocks = [v[i:i + m] for i in range(0, len(v), m)]
        parts, scale = e.kernel_parts(v)
        assert solves == [tuple(b) for b in blocks if any(b)]
        for i, b in enumerate(blocks):
            kinds.add(any(b))
            want = naive_solve(krows, b) if any(b) else [0] * len(e.kernel)
            assert [Fraction(p[i], scale) for p in parts] == list(want)
    assert kinds == {False, True}
    leaves = next(b for b in ([int(r == j) for r in range(m)] for j in range(m))
                  if naive_solve(krows, b) is None)
    solves.clear()
    assert e.kernel_parts([0] * m + leaves) is None
    assert solves == [tuple(leaves)]


def test_stage_is_memoised_per_algebra_and_level():
    N = free_nilpotent(2, 4)
    for k in range(1, 5):
        assert lcs_extension(N, k) is lcs_extension(N, k)
        assert isinstance(lcs_extension(N, k).kernel, tuple)
    with pytest.raises(ValueError):
        lcs_extension(N, 5)
    # the stage is kept on the algebra object, not looked up by its table
    assert lcs_extension(heisenberg(), 1) is not lcs_extension(heisenberg(), 1)


def test_repeated_solves_on_a_stage_make_no_rref(monkeypatch):
    A = chevalley_eilenberg(heisenberg())
    N = free_nilpotent(2, 3)
    points = [(e, x) for e, x in mc_points(A, N, random.Random(3), count=4)
              if e is lcs_extension(N, 2)]
    assert len(points) >= 2
    (e, x1), (_, x2) = points[0], points[-1]
    obstruction_class(A, x1, e)
    lift_system_solvable(A, x1, e)
    calls = []
    rref = linalg.rref

    def counting(*args, **kwargs):
        calls.append(1)
        return rref(*args, **kwargs)

    monkeypatch.setattr(linalg, "rref", counting)
    obstruction_class(A, x2, e)
    lift_system_solvable(A, x2, e)
    assert calls == []


def snapshot(e):
    return (e.N, e.M, e.projection.data, e.quotient.data, e.section().data, e.kernel)


def test_callers_leave_the_shared_stage_unchanged():
    U = free_nilpotent(2, 3)
    stages = {k: lcs_extension(U, k) for k in (1, 2, 3)}
    before = {k: snapshot(e) for k, e in stages.items()}
    A = chevalley_eilenberg(heisenberg())
    mc_solve(A, U, initial=stage1_cocycle(A, stages[1].N, random.Random(5)))
    p = GroupPresentation(["x", "y", "z"],
                          [["x", "y", "x^-1", "y^-1", "z^-1", "z^-1"],
                           ["x", "z", "x^-1", "z^-1"], ["y", "z", "y^-1", "z^-1"]])
    lift_one_class(p, {"x": [1, 0, 0], "y": [0, 1, 0], "z": [0, 0, Fraction(1, 2)]}, U, 3)
    for k, e in stages.items():
        assert lcs_extension(U, k) is e
        assert snapshot(e) == before[k]
