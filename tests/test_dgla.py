import copy
import random
from fractions import Fraction

import pytest

from malcev.linalg import Matrix, vec, vec_add, vec_scale, kernel_basis
from malcev.lie import heisenberg, abelian, lower_central_series, quotient_by_ideal
from malcev.freelie import free_nilpotent
from malcev.dga import (
    chevalley_eilenberg, cohomology, adjoin_acyclic, FiniteDGA, CohomologyData,
)
from malcev.dgla import (
    TensorDGLA, tensor_dgla, mc_residual, is_mc,
    gauge, SmallExtensionSpec, lcs_extension, obstruction_class,
    lift_system_solvable, mc_solve, gauge_equivalent, DGAMorphism,
    deformation_census, compare_def_along_map,
)
from malcev.bch import bch

from oracles import kron_identity, naive_lcs, tensor_bracket, tensor_diff, tensor_mc_residual


def unit(n, i):
    return tuple(Fraction(1) if t == i else Fraction(0) for t in range(n))


def rand_vec(rng, n, lo=-2, hi=2):
    return tuple(Fraction(rng.randint(lo, hi)) for _ in range(n))


def test_tensor_axioms_verified_on_construction():
    for L in (heisenberg(), abelian(2), free_nilpotent(2, 3)):
        t = tensor_dgla(chevalley_eilenberg(heisenberg()), L)
        assert t.verify() == []


def test_tensor_dgla_rejects_non_jacobi_coefficients():
    from malcev.lie import LieAlgebra
    bad = LieAlgebra(3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]})
    with pytest.raises(ValueError, match="Jacobi"):
        tensor_dgla(chevalley_eilenberg(heisenberg()), bad)


def test_residual_routes_agree():
    A = chevalley_eilenberg(heisenberg())
    N = heisenberg()
    t = tensor_dgla(A, N)
    rng = random.Random(11)
    for _ in range(10):
        x = rand_vec(rng, t.dim(1))
        assert mc_residual(t, x) == tensor_mc_residual(
            A.dims, A.products, [m.data for m in A.d], N.dim, N.brackets, x)


def test_gauge_preserves_mc_and_composes():
    A = chevalley_eilenberg(heisenberg())
    N = heisenberg()
    t = tensor_dgla(A, N)
    A0N = t.degree0_lie_algebra()
    rng = random.Random(12)
    rep = mc_solve(A, N)
    assert rep.completed
    x = rep.solution
    assert is_mc(t, x)
    for _ in range(10):
        a = rand_vec(rng, t.dim(0))
        b = rand_vec(rng, t.dim(0))
        gx = gauge(t, a, x)
        assert is_mc(t, gx)
        # identity and composition law via the BCH product on A^0 ox N
        assert gauge(t, t.zero(0), x) == tuple(x)
        assert gauge(t, a, gauge(t, b, x)) == gauge(t, bch(a, b, A0N), x)


def test_lcs_extension_is_semi_small():
    N = free_nilpotent(2, 3)
    for k in (2, 3):
        e = lcs_extension(N, k)
        # SmallExtensionSpec validates centrality of the kernel on build
        s = e.section()
        assert e.projection * s == Matrix.identity(e.M.dim)


def test_lcs_extension_validates_level():
    N = heisenberg()  # class 2
    for k in (0, 3):
        with pytest.raises(ValueError):
            lcs_extension(N, k)


def test_first_lcs_stage_kernel_is_the_abelianisation():
    e = lcs_extension(heisenberg(), 1)
    assert (e.projection.rows, e.projection.cols) == (0, 2)
    assert len(e.kernel) == 2


def test_lcs_stage_projection_factors_the_direct_quotient():
    for N in (heisenberg(), free_nilpotent(2, 3), free_nilpotent(3, 2)):
        chain = lower_central_series(N)
        for k in range(1, len(chain)):
            e = lcs_extension(N, k)
            direct = quotient_by_ideal(N, chain[k - 1])[1]  # N -> N/G_k
            assert e.projection * e.quotient == direct


def test_projection_that_is_not_onto_rejected():
    proj = Matrix([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        SmallExtensionSpec(abelian(2), abelian(2), proj, [unit(2, 1)])


def test_non_central_kernel_rejected():
    N = free_nilpotent(2, 2)
    chain = lower_central_series(N)
    # pretend the kernel is spanned by a generator: not central
    proj_cols = [unit(1, 0) if i == 1 else (Fraction(0),) for i in range(3)]
    proj = Matrix.from_columns(proj_cols, rows=1)
    with pytest.raises(ValueError):
        SmallExtensionSpec(N, abelian(1), proj, [unit(3, 0)])


def test_obstruction_matches_direct_solver():
    # dual-route check: cohomological obstruction class vanishes exactly when
    # the affine lift system is solvable
    rng = random.Random(13)
    A = chevalley_eilenberg(abelian(2))  # zero differential, nonzero products
    N = heisenberg()
    e = lcs_extension(N, 2)
    tm = TensorDGLA(A, e.M)
    obstructed = solvable = 0
    trials = 0
    while trials < 40:
        x = rand_vec(rng, tm.dim(1))
        if not is_mc(tm, x):
            continue
        trials += 1
        classes, _ = obstruction_class(A, x, e)
        zero_class = all(all(c == 0 for c in cc) for cc in classes)
        direct = lift_system_solvable(A, x, e)
        assert zero_class == direct
        if zero_class:
            solvable += 1
        else:
            obstructed += 1
    assert obstructed > 0 and solvable > 0


def test_obstruction_section_independent():
    A = chevalley_eilenberg(abelian(2))
    N = heisenberg()
    e = lcs_extension(N, 2)
    tm = TensorDGLA(A, e.M)
    rng = random.Random(14)
    found = 0
    while found < 5:
        x = rand_vec(rng, tm.dim(1))
        if not is_mc(tm, x):
            continue
        found += 1
        s1 = e.section()
        # shift the section by a map into the central kernel
        shift = Matrix.from_columns(
            [vec_scale(rng.randint(-2, 2), e.kernel[0]) for _ in range(e.M.dim)],
            rows=e.N.dim)
        s2 = Matrix([[s1.data[i][j] + shift.data[i][j] for j in range(e.M.dim)]
                     for i in range(e.N.dim)])
        assert e.projection * s2 == Matrix.identity(e.M.dim)
        c1, _ = obstruction_class(A, x, e, section=s1)
        c2, _ = obstruction_class(A, x, e, section=s2)
        assert c1 == c2


def test_obstruction_refuses_a_map_that_is_not_a_section():
    """x = xi^0 ox f_0 + xi^1 ox f_1 over the torus T^3 is obstructed by the
    nonzero cup product xi^0 xi^1.  The zero map would lift x to 0 and
    report a zero class, and a map of the wrong shape would be read past
    its blocks: both are refused."""
    A = chevalley_eilenberg(abelian(3))
    e = lcs_extension(heisenberg(), 2)
    x = vec([1, 0, 0, 1, 0, 0])
    assert obstruction_class(A, x, e)[0] == [(1, 0, 0)]
    for bad in (Matrix.zeros(e.N.dim, e.M.dim), Matrix.zeros(e.N.dim, e.M.dim + 1),
                Matrix.zeros(e.N.dim - 1, e.M.dim)):
        with pytest.raises(ValueError):
            obstruction_class(A, x, e, section=bad)


def test_mc_solve_stages_heisenberg_coefficients():
    A = chevalley_eilenberg(heisenberg())
    rep = mc_solve(A, heisenberg())
    assert rep.completed
    assert [s.level for s in rep.stages] == [1, 2]
    assert all(not s.obstructed for s in rep.stages)
    t = tensor_dgla(A, heisenberg())
    assert is_mc(t, rep.solution)


def test_mc_solve_with_obstructed_initial():
    A = chevalley_eilenberg(abelian(2))
    N = heisenberg()
    ext1 = lcs_extension(N, 1)
    t1 = TensorDGLA(A, ext1.N)
    rng = random.Random(15)
    saw_obstructed = saw_completed = False
    for _ in range(30):
        x = rand_vec(rng, t1.dim(1))
        if not is_mc(t1, x):
            continue
        rep = mc_solve(A, N, initial=x)
        if rep.completed:
            saw_completed = True
            assert is_mc(tensor_dgla(A, N), rep.solution)
        else:
            saw_obstructed = True
            assert rep.stages[-1].obstructed
    assert saw_obstructed and saw_completed


def test_mc_solve_rejects_non_mc_initial():
    A = chevalley_eilenberg(heisenberg())  # nonzero differential
    N = heisenberg()
    ext1 = lcs_extension(N, 1)
    t1 = TensorDGLA(A, ext1.N)
    rng = random.Random(16)
    for _ in range(50):
        x = rand_vec(rng, t1.dim(1))
        if not is_mc(t1, x):
            with pytest.raises(ValueError):
                mc_solve(A, N, initial=x)
            return
    pytest.fail("never found a non-MC element")


def assert_refuted(A, N, x, dec):
    """The refutation of a "no" at stage k, against the dense oracles: y
    pairs to zero with every move [e, x] - de over the unit vectors e of
    A^0 ox N and with every a ox g for a unit a of A^1 and g in G_{k+1},
    and pairs nonzero with the residual."""
    y, m = dec.refutation, N.dim
    dims, products, d = A.dims, A.products, [mat.data for mat in A.d]

    def dot(v):
        return sum(a * b for a, b in zip(y, v, strict=True))
    for e in range(A.dims[0] * m):
        u = unit(A.dims[0] * m, e)
        assert not dot(tensor_bracket(dims, products, m, N.brackets, 0, u, 1, x)) - \
            dot(tensor_diff(dims, d, m, 0, u))
    for i in range(A.dims[1]):
        for g in naive_lcs(m, N.brackets)[dec.stage]:
            v = [Fraction(0)] * (A.dims[1] * m)
            v[i * m:(i + 1) * m] = g
            assert not dot(v)
    assert dot(dec.residual)


def test_gauge_equivalent_positive_and_negative():
    A = chevalley_eilenberg(heisenberg())
    N = heisenberg()
    t = tensor_dgla(A, N)
    rng = random.Random(17)
    x = mc_solve(A, N).solution
    for _ in range(5):
        alpha = rand_vec(rng, t.dim(0))
        y = gauge(t, alpha, x)
        dec = gauge_equivalent(A, N, x, y)
        assert dec.status == "yes"
        assert gauge(t, dec.alpha, x) == y
    # an element with nonzero H^1 leading class is not equivalent to zero
    rep = mc_solve(A, N)
    H = cohomology(A)
    lead = [Fraction(0)] * t.dim(1)
    h1 = H.representatives[1][0]
    for i in range(A.dims[1]):
        lead[i * N.dim] = h1[i]
    assert is_mc(t, tuple(lead))
    dec = gauge_equivalent(A, N, tuple(lead), t.zero(1))
    assert (dec.status, dec.stage) == ("no", 1)
    assert_refuted(A, N, tuple(lead), dec)


def test_gauge_equivalent_abelian_coefficients_decisive():
    A = chevalley_eilenberg(heisenberg())
    N = abelian(2)
    t = tensor_dgla(A, N)
    H = cohomology(A)
    # with zero bracket, x ~ y iff x - y is exact
    exact = t.diff(0, unit(t.dim(0), 0))
    dec = gauge_equivalent(A, N, exact, t.zero(1))
    assert dec.status == "yes"
    h1 = H.representatives[1][0]
    closed = [Fraction(0)] * t.dim(1)
    for i in range(A.dims[1]):
        closed[i * N.dim] = h1[i]
    dec = gauge_equivalent(A, N, tuple(closed), t.zero(1))
    assert (dec.status, dec.stage) == ("no", 1)
    assert_refuted(A, N, tuple(closed), dec)


def test_gauge_equivalent_validates_inputs():
    A = chevalley_eilenberg(heisenberg())
    N = heisenberg()
    t = tensor_dgla(A, N)
    bad = list(t.zero(1))
    bad[0] = Fraction(1)
    if not is_mc(t, tuple(bad)):
        with pytest.raises(ValueError):
            gauge_equivalent(A, N, tuple(bad), t.zero(1))


def test_gauge_equivalent_no_at_stage_two_with_h0():
    # dA^0 = 0 on CE(abelian(2)), so every gauge fixes x = 0 and y = e^1 ox z,
    # an MC element with zero leading class, lies in another orbit
    A = chevalley_eilenberg(abelian(2))
    N = heisenberg()
    t = tensor_dgla(A, N)
    y = unit(t.dim(1), 2)  # e^1 ox z, z = [x, y] spanning G_2
    assert is_mc(t, y)
    dec = gauge_equivalent(A, N, t.zero(1), y)
    assert (dec.status, dec.stage) == ("no", 2)
    assert dec.residual == y
    assert_refuted(A, N, t.zero(1), dec)


def seeded_mc_elements(A, N, rng, count):
    """MC elements of A ox N from mc_solve lifts of seeded stage-1 cocycles."""
    t1 = TensorDGLA(A, lcs_extension(N, 1).N)
    cocycles = kernel_basis(Matrix(kron_identity(A.d[1].data, A.dims[1], t1.N.dim)))
    out = []
    while len(out) < count:
        x0 = t1.zero(1)
        for v in cocycles:
            x0 = vec_add(x0, vec_scale(rng.randint(-2, 2), v))
        rep = mc_solve(A, N, initial=x0)
        if rep.completed:
            out.append(rep.solution)
    return out


def test_gauge_equivalent_finds_a_checked_gauge_over_free_nilpotent():
    N = free_nilpotent(2, 3)
    rng = random.Random(18)
    for A in (chevalley_eilenberg(heisenberg()), chevalley_eilenberg(abelian(2))):
        t = tensor_dgla(A, N)
        for x in seeded_mc_elements(A, N, rng, 3):
            y = gauge(t, rand_vec(rng, t.dim(0)), x)
            dec = gauge_equivalent(A, N, x, y)
            assert dec.status == "yes"
            assert gauge(t, dec.alpha, x) == y


def test_gauge_equivalent_is_constant_on_orbits():
    rng = random.Random(19)
    statuses = set()
    for A, N in ((chevalley_eilenberg(heisenberg()), heisenberg()),
                 (chevalley_eilenberg(abelian(2)), heisenberg()),
                 (chevalley_eilenberg(heisenberg()), free_nilpotent(2, 3))):
        t = tensor_dgla(A, N)
        xs = seeded_mc_elements(A, N, rng, 3)
        # x + w for w in A^1 ox (last LCS term) with dw = 0 is MC again,
        # since that term is central
        central = t.tensor_basis(1, lower_central_series(N)[-2].basis)
        pairs = [(xs[0], xs[1]), (xs[1], xs[2])]
        for x in xs:
            w = t.zero(1)
            for u in central:
                w = vec_add(w, vec_scale(rng.randint(-1, 1), u))
            if is_mc(t, vec_add(x, w)):
                pairs.append((x, vec_add(x, w)))
            pairs.append((x, gauge(t, rand_vec(rng, t.dim(0)), x)))
        for x, y in pairs:
            status = gauge_equivalent(A, N, x, y).status
            statuses.add(status)
            beta, gamma = rand_vec(rng, t.dim(0)), rand_vec(rng, t.dim(0))
            moved = gauge_equivalent(A, N, gauge(t, beta, x), gauge(t, gamma, y))
            assert moved.status == status
    assert statuses == {"yes", "no"}


def test_dga_morphism_validation():
    A = chevalley_eilenberg(heisenberg())
    B, inc = adjoin_acyclic(A, deg=1)
    phi = DGAMorphism(A, B, inc)
    assert phi.verify() == []
    bad = [Matrix(m.data) for m in inc]
    bad[1] = Matrix([[Fraction(2) * c for c in row] for row in inc[1].data])
    with pytest.raises(ValueError):
        DGAMorphism(A, B, bad)


def test_census_and_comparison_along_quasi_iso():
    A = chevalley_eilenberg(heisenberg())
    B, inc = adjoin_acyclic(A, deg=1)
    phi = DGAMorphism(A, B, inc)
    for N in (abelian(1), abelian(2), heisenberg()):
        out = compare_def_along_map(phi, N)
        assert out["etale"] and out["isomorphism"]
        assert out["census_match"]
        assert out["census_source"] == deformation_census(A, N)


def test_comparison_ranks_h_of_phi_once(monkeypatch):
    A = chevalley_eilenberg(heisenberg())
    B, inc = adjoin_acyclic(A, deg=1)
    phi = DGAMorphism(A, B, inc)
    first = compare_def_along_map(phi, heisenberg())
    kept = copy.deepcopy(first)
    calls = []
    original = CohomologyData.class_coordinates
    monkeypatch.setattr(CohomologyData, "class_coordinates",
                        lambda self, n, v: calls.append(n) or original(self, n, v))
    second = compare_def_along_map(phi, heisenberg())
    assert second == first and calls == []
    # each call returns fresh dicts: changing one leaves the kept rank data
    second["h_ranks"][1]["rank"] = -1
    second["h_ranks"][2] = {}
    assert compare_def_along_map(phi, heisenberg()) == first == kept


def test_census_values_heisenberg():
    A = chevalley_eilenberg(heisenberg())
    # stage k census = b1 * dim(gr_k) with b1 = 2
    assert deformation_census(A, heisenberg()) == [(1, 4), (2, 2)]
    assert deformation_census(A, abelian(2)) == [(1, 4)]


def test_kronecker_oracle_is_the_columns_of_diff():
    # d ox id as a Kronecker product, entry for entry the columns of diff,
    # including the empty shapes below degree 0 and at and past the top
    dgas = [chevalley_eilenberg(heisenberg()), chevalley_eilenberg(abelian(2)),
            adjoin_acyclic(chevalley_eilenberg(heisenberg()), deg=0)[0],
            FiniteDGA([2], [], {}), FiniteDGA([0, 1], [], {})]
    for A in dgas:
        for N in (heisenberg(), abelian(2), abelian(0)):
            t = TensorDGLA(A, N)
            for n in range(-1, A.top + 2):
                cols = [t.diff(n, unit(t.dim(n), i)) for i in range(t.dim(n))]
                d = A.d[n].data if 0 <= n <= A.top else [[0] * A.dim(n)] * A.dim(n + 1)
                assert kron_identity(d, A.dim(n), N.dim) == \
                    [[c[k] for c in cols] for k in range(t.dim(n + 1))]


def _ce_heisenberg_tensor():
    # dim A^0 ox N = 3, dim A^1 ox N = 9, dim A^2 ox N = 9
    return TensorDGLA(chevalley_eilenberg(heisenberg()), heisenberg())


def test_diff_rejects_a_vector_of_the_wrong_degree():
    t = _ce_heisenberg_tensor()
    for v in (t.zero(1)[:5], t.zero(1) + t.zero(0), t.zero(0)):
        with pytest.raises(ValueError, match="element must live in degree 1"):
            t.diff(1, v)


def test_bracket_rejects_vectors_of_the_wrong_degree():
    t = _ce_heisenberg_tensor()
    x = rand_vec(random.Random(14), t.dim(1))
    with pytest.raises(ValueError, match="element must live in degree 0"):
        t.bracket(0, x, 1, x)
    with pytest.raises(ValueError, match="element must live in degree 1"):
        t.bracket(1, x, 1, x[:5])


def test_gauge_rejects_an_element_of_the_wrong_degree():
    t = _ce_heisenberg_tensor()
    for x in (t.zero(1)[:2], t.zero(1) + (0, 0)):
        with pytest.raises(ValueError, match="element must live in degree 1"):
            gauge(t, t.zero(0), x)
    with pytest.raises(ValueError, match="gauge parameter must live in degree 0"):
        gauge(t, t.zero(1), t.zero(1))
