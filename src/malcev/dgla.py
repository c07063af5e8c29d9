"""Finite DGLAs, Maurer-Cartan sets over nilpotent coefficients, gauge
action, and obstruction classes for central (semi-small) extensions.

The main construction is A tensor N for A a graded-commutative DGA and N a
nilpotent Lie algebra: bracket [a ox m, b ox n] = (a b) ox [m, n],
differential d ox id.  Staging always follows the lower central series of N;
every LCS stage is a semi-small extension because the kernel is central.
The formal symbol d of the gauge formula is realised as an explicit extra
degree-1 coordinate with [d, a] = da.
"""

from functools import cached_property
from math import gcd

from .linalg import (
    Matrix, ZERO, vec_sub, vec_zero, vec_is_zero,
    kernel_basis, echelon_basis, unit, right_inverse, integer_row, AffineSolver,
    over, echelon_rows, _combine, _sparse, _transpose,
)
from .lie import (
    LieAlgebra, LieIdeal, lower_central_series, nilpotency_class, lcs_dims,
    quotient_by_ideal, sparse_bracket,
)
from .dga import FiniteDGA, cohomology
from .bch import bch


class TensorDGLA:
    """The DGLA A(N) = A tensor N for a DGA A and nilpotent Lie algebra N.

    Degree-n basis is (a_i ox n_r) with index i * dim(N) + r.  All DGLA
    axioms (d^2 = 0, graded antisymmetry, graded Jacobi, Leibniz) follow
    from the DGA axioms of A and the Lie axioms of N.  Every FiniteDGA proves
    its axioms on construction and antisymmetry of N holds by construction,
    so verify() checks the one remaining fact: the Jacobi identity of N.

    The bracket and d run on the int tables that A and N build once:
    ``FiniteDGA.table`` (the products times D_m, read one degree pair at a
    time through ``FiniteDGA._pair``), ``FiniteDGA.dcol`` (d times D_d) and
    ``LieAlgebra.table`` (the structure constants of N times D_N).

    The int core works on blocks.  ``_ints`` scales an element u = sum a_i
    ox u_i once to ints over its lcm denominator d and keeps it as the
    block dict {i: u_i}, whose values are int vectors of length dim N and
    which holds only the nonzero u_i.  ``_int_diff`` gives D_d (d ox id)(u)
    and ``_int_bracket`` gives D_m D_N [u, v] as block dicts again, so a
    zero block costs nothing and an empty operand gives {}.  The public
    methods make one Fraction per nonzero output entry, through ``_flat``.
    """

    def __init__(self, dga: FiniteDGA, N: LieAlgebra):
        self.dga = dga
        self.N = N
        self.top = dga.top
        self.dims = [dga.dims[n] * N.dim for n in range(self.top + 1)]

    def dim(self, n):
        return self.dims[n] if 0 <= n <= self.top else 0

    def zero(self, n):
        return vec_zero(self.dim(n))

    def tensor_basis(self, n, vectors):
        """The vectors a_i ox v of A^n ox N, for each basis vector a_i of A^n
        (outer loop) and each v in vectors (inner loop)."""
        m = self.N.dim
        out = []
        for i in range(self.dga.dim(n)):
            for v in vectors:
                u = [ZERO] * self.dim(n)
                u[i * m:(i + 1) * m] = v
                out.append(tuple(u))
        return out

    def _ints(self, n, v):
        """(d, blocks): v, a vector of degree n (ValueError otherwise), as the
        block dict of the int vector over its lcm denominator d."""
        if len(v) != self.dim(n):
            raise ValueError("element must live in degree %d" % n)
        d, u = integer_row(v)
        m = self.N.dim
        return d, {i: b for i in range(self.dga.dim(n))
                   for b in (u[i * m:(i + 1) * m],) if any(b)}

    def _flat(self, n, blocks):
        """The int vector of degree n with the given blocks."""
        m = self.N.dim
        out = [0] * self.dim(n)
        for i, b in blocks.items():
            out[i * m:(i + 1) * m] = b
        return out

    def _scales(self):
        """(D_d, D): the factors D_d of ``_int_diff`` and D = D_m D_N of
        ``_int_bracket``."""
        return self.dga.dcol[0], self.dga._table[0] * self.N.table[0]

    def _int_diff(self, n, u):
        """D_d (d ox id)(u) for the blocks u of degree n: block i of u goes to
        block k with the coefficient D_d d[n][k][i]."""
        if not u or not self.dim(n + 1):
            return {}
        col = self.dga.dcol[1][n]
        out = {}
        for i, block in u.items():
            for k, c in col[i]:
                _add_scaled(out, k, c, block)
        return _nonzero(out)

    def _int_bracket(self, p, u, q, v):
        """D_m D_N [u, v] for the blocks u, v of degrees p, q: the sum over
        the nonzero products a_i a_j = sum c a_k of the integer table of A of
        (a_i a_j) ox [u_i, v_j], each Lie bracket taken on the integer table
        of N."""
        if p + q > self.top or not u or not v:
            return {}
        rows = self.dga._pair(p, q)
        table = self.N.table[1]
        out = {}
        for i, ui in u.items():
            for j, terms in rows[i].items():
                vj = v.get(j)
                if vj is None:
                    continue
                lie = sparse_bracket(table, ui, vj, 0)
                if not any(lie):
                    continue
                for k, c in terms:
                    _add_scaled(out, k, c, lie)
        return _nonzero(out)

    def diff(self, n, v):
        """(d ox id)(v) for v in degree n."""
        d, u = self._ints(n, v)
        return over(self._flat(n + 1, self._int_diff(n, u)), self._scales()[0] * d)

    def bracket(self, p, vp, q, vq):
        """[vp, vq] for vp in degree p and vq in degree q; () past the top."""
        dp, u = self._ints(p, vp)
        dq, v = self._ints(q, vq)
        return over(self._flat(p + q, self._int_bracket(p, u, q, v)),
                    self._scales()[1] * dp * dq)

    def degree0_lie_algebra(self) -> LieAlgebra:
        """A^0 ox N as an honest nilpotent Lie algebra (for the BCH law): the
        int terms of ``_int_bracket`` on unit vectors, over D_m D_N."""
        n0 = self.dim(0)
        e = [self._ints(0, unit(n0, i))[1] for i in range(n0)]
        pairs = {(i, j): v for i in range(n0) for j in range(i + 1, n0)
                 if (v := _sparse(self._flat(0, self._int_bracket(0, e[i], 0, e[j]))))}
        return LieAlgebra.of_ints(n0, self._scales()[1], pairs)

    def verify(self):
        """The DGLA axioms that A and N do not already guarantee: the
        Jacobi failures of N, as a list of errors."""
        return ["Jacobi identity of N fails at basis triple (%d, %d, %d)" % t
                for t in self.N.check_jacobi()]


def _add_scaled(out, k, c, block):
    """Add c times the int vector block to the block k of the dict out."""
    o = out.get(k)
    if o is None:
        out[k] = [c * e for e in block]
    else:
        for r, e in enumerate(block):
            if e:
                o[r] += c * e


def _nonzero(blocks):
    """The block dict without its zero blocks."""
    return {i: b for i, b in blocks.items() if any(b)}


def _reduced(d, blocks):
    """(d / g, blocks / g) for g the gcd of d and the entries of blocks: the
    scale of u / d that ``integer_row`` gives."""
    g = gcd(d, *(e for b in blocks.values() for e in b))
    if g == 1:
        return d, blocks
    return d // g, {i: [e // g for e in b] for i, b in blocks.items()}


def _lincomb(a, u, b, v):
    """a u + b v for the block dicts u, v and nonzero ints a, b, without its
    zero blocks."""
    out = {i: [b * f for f in y] for i, y in v.items() if i not in u}
    for i, x in u.items():
        y = v.get(i)
        w = [a * e for e in x] if y is None else [a * e + b * f for e, f in zip(x, y)]
        if any(w):
            out[i] = w
    return out


def tensor_dgla(dga: FiniteDGA, N: LieAlgebra) -> TensorDGLA:
    """Build A ox N; raises ValueError unless N satisfies Jacobi."""
    t = TensorDGLA(dga, N)
    errors = t.verify()
    if errors:
        raise ValueError("tensor DGLA failed verification: " + "; ".join(errors))
    return t


# ---------------------------------------------------------------------------
# Maurer-Cartan machinery

def _mc_numerators(t: TensorDGLA, d_x, u):
    """(den, nums) with nums / den = dx + 1/2 [x, x] for x = u / d_x, u the
    blocks of degree 1, and nums in blocks: with D = D_m D_N, dx =
    2 D d_x _int_diff(u) / (2 D_d D d_x^2) and 1/2 [x, x] =
    D_d _int_bracket(u, u) / (2 D_d D d_x^2)."""
    D_d, D = t._scales()
    return 2 * D_d * D * d_x * d_x, _lincomb(2 * D * d_x, t._int_diff(1, u),
                                             D_d, t._int_bracket(1, u, 1, u))


def mc_residual(t: TensorDGLA, x):
    """dx + 1/2 [x, x] for a degree-1 element."""
    den, nums = _mc_numerators(t, *t._ints(1, x))
    return over(t._flat(2, nums), den)


def is_mc(t: TensorDGLA, x) -> bool:
    """Whether dx + 1/2 [x, x] = 0, tested on its int numerators."""
    return not _mc_numerators(t, *t._ints(1, x))[1]


def _first_term(t: TensorDGLA, a, d_x, u):
    """The numerator D_d _int_bracket(a, u) - D d_x _int_diff(a), in blocks,
    of T_1 = [alpha, x] - d alpha over D D_d d_a d_x, for alpha = a / d_a
    and x = u / d_x given in blocks, D = D_m D_N."""
    D_d, D = t._scales()
    return _lincomb(D_d, t._int_bracket(0, a, 1, u), -D * d_x, t._int_diff(0, a))


def _gauge_ints(t: TensorDGLA, d_a, a, d_x, u):
    """(den, blocks) with blocks / den = gauge(alpha, x), for alpha = a / d_a
    and x = u / d_x given in blocks; see ``gauge``."""
    D_d, D = t._scales()
    term = _first_term(t, a, d_x, u)
    out, den, step = u, d_x, D * d_a * D_d
    for n in range(1, nilpotency_class(t.N) + 4):
        if not term:
            return den, out
        scale = n * step
        out = _lincomb(scale, out, 1, term)
        den *= scale
        term, step = t._int_bracket(0, a, 1, term), D * d_a
    raise AssertionError("gauge series failed to terminate; N not nilpotent?")


def gauge(t: TensorDGLA, alpha, x):
    """Gauge action exp(ad_alpha)(x + d) - d, a finite sum by nilpotence.

    The series x + sum_{n >= 1} T_n / n!, with T_1 = [alpha, x] - d alpha
    and T_{n+1} = [alpha, T_n], runs on int blocks (see ``TensorDGLA``):
    alpha and x are scaled once, every term holds only its nonzero blocks,
    and the Fractions are made once, from the sum.  With alpha = a / d_a,
    x = u / d_x and D = D_m D_N, T_1 has the numerator
    D_d _int_bracket(a, u) - D d_x _int_diff(a) over D D_d d_a d_x, and each
    later term the numerator _int_bracket(a, .) of the last one over D d_a
    times its denominator.  So the denominator of T_n / n! is that of the
    sum so far times n D d_a (times D_d at n = 1), and the sum is kept as
    one block dict over it.
    """
    if len(alpha) != t.dim(0):
        raise ValueError("gauge parameter must live in degree 0")
    d_x, u = t._ints(1, x)
    den, out = _gauge_ints(t, *t._ints(0, alpha), d_x, u)
    return over(t._flat(1, out), den)


class SmallExtensionSpec:
    """Central extension data 0 -> I -> N -> M -> 0 with [N, I] = 0; ValueError
    unless the projection is onto and the kernel maps to zero and is central.
    quotient is a map from an ambient algebra onto N, or None if unknown.
    The stage keeps its solvers: the section, and one AffineSolver for
    coordinates in the kernel basis, ``kernel_solver``, made on first use."""

    def __init__(self, N: LieAlgebra, M: LieAlgebra, projection: Matrix, kernel_basis_vectors,
                 quotient: Matrix = None):
        self.N = N
        self.M = M
        self.projection = projection
        self.quotient = quotient
        self._section = right_inverse(projection)
        self.kernel = tuple(tuple(v) for v in kernel_basis_vectors)
        for v in self.kernel:
            if not vec_is_zero(projection.mul_vec(v)):
                raise ValueError("kernel basis does not map to zero")
            for i in range(N.dim):
                if not vec_is_zero(N.bracket(N.basis_vector(i), v)):
                    raise ValueError("kernel is not central: extension not semi-small")

    def section(self) -> Matrix:
        """The linear section s of the projection (p s = id), zero on its free
        coordinates."""
        return self._section

    @cached_property
    def kernel_solver(self) -> AffineSolver:
        """The AffineSolver of the kernel basis as columns."""
        return AffineSolver(Matrix.from_columns(self.kernel, rows=self.N.dim))

    def kernel_parts(self, v):
        """(parts, scale) for an int vector v made of b blocks v_i of length
        dim N: the int vectors parts[t] of length b with v_i = sum_t
        (parts[t][i] / scale) kappa_t over the kernel basis kappa, from one
        int solve of ``kernel_solver`` per nonzero block (a zero block has
        zero coordinates); or None when a block leaves I."""
        m, solver = self.N.dim, self.kernel_solver
        zero = [0] * len(self.kernel)
        coords = []
        for i in range(0, len(v), m):
            block = v[i:i + m]
            if not any(block):
                coords.append(zero)
                continue
            sol = solver.solve_int(block)
            if sol is None:
                return None
            coords.append(sol[0])
        return [[c[t] for c in coords] for t in range(len(self.kernel))], solver.E_int[0]


def lcs_extension(N: LieAlgebra, k: int) -> SmallExtensionSpec:
    """The LCS stage N/G_{k+1} -> N/G_k as a semi-small extension, for
    1 <= k <= class of N (ValueError otherwise), whose quotient is the map
    N -> N/G_{k+1}.  Built once per (N, k) and kept on N, like the series
    in ``lie._lcs_bases``: MC staging and one-class lifting of group
    representations share the stage and its solvers."""
    stage = N._stages.get(k)
    if stage is None:
        chain = lower_central_series(N)
        if not 1 <= k < len(chain):
            raise ValueError("LCS stage %d needs 1 <= k <= class %d of the algebra"
                             % (k, len(chain) - 1))
        upper, pu = quotient_by_ideal(N, chain[k])       # N/G_{k+1}
        P = dict(enumerate(_transpose(pu.integer_view()[1], N.dim)))
        image = LieIdeal._of_rows(upper, echelon_rows(
            [_combine(P, r) for r in chain[k - 1].rows], upper.dim)[0])
        lower, proj = quotient_by_ideal(upper, image)    # N/G_k as upper / (G_k/G_{k+1})
        stage = N._stages[k] = SmallExtensionSpec(upper, lower, proj, kernel_basis(proj),
                                                  quotient=pu)
    return stage


def _stage_lift(dga: FiniteDGA, e: SmallExtensionSpec, d_x, u, section: Matrix = None):
    """The one lift of a stage, for x = u / d_x in A^1 ox M given in blocks:
    (y, h, parts) with y = (id ox s)(x) the section lift (s the given
    section, ValueError unless p s = id for the projection p, or e's) and h
    its MC residual over A ox N, each a pair (scale, blocks), and parts the
    ``kernel_parts`` of h over the scale of h (None when h leaves A^2 ox I).
    Each nonzero block of x meets the int rows of the integer view (D_s,
    rows) of s once; s is injective, so no block of y is zero."""
    s = e.section() if section is None else section
    if section is not None and e.projection * s != Matrix.identity(e.M.dim):
        raise ValueError("section is not a right inverse of the projection")
    D_s, rows = s.integer_view()
    y = {i: [sum([c * b[j] for j, c in terms]) for terms in rows] for i, b in u.items()}
    t = TensorDGLA(dga, e.N)
    den, nums = _mc_numerators(t, D_s * d_x, y)
    parts = e.kernel_parts(t._flat(2, nums))
    return (D_s * d_x, y), (den, nums), parts and (parts[0], parts[1] * den)


def _classes(dga: FiniteDGA, parts, scale):
    """The H^2(A)-coordinates of the kernel parts parts[t] / scale of a
    residual, each a cocycle: one int solve of the class solver of
    ``cohomology(dga)`` per part."""
    if dga.top < 2:  # A^2 = 0: nothing obstructs the lift
        return [() for _ in parts]
    H = cohomology(dga)
    solver, b = H.class_solver(2), H.betti_number(2)
    sols = [solver.solve_int(part) for part in parts]
    assert None not in sols, "vector is not a cocycle"
    return [over(xs[:b], D * scale) for xs, D in sols]


def _central_correction(dga: FiniteDGA, e: SmallExtensionSpec, parts, scale):
    """A u in A^1 ox I with du = -h, as a pair (scale, blocks), or None, for
    h = sum_t (parts[t] / scale) ox kappa_t as ``_stage_lift`` splits it.

    Because I is central, a correction u changes the MC residual of a lift
    by du alone, so this solves the lift exactly.  The system d_1 ox id_I
    splits over the kernel basis: for h = sum h_t ox kappa_t, u = sum u_t ox
    kappa_t with d u_t = -h_t.  The pivots of d_1 ox id_I are the (i, t)
    with i a pivot of d_1, so u is its solution with free variables zero, in
    a space of dimension dim I * dim Z^1(A).

    On ints: the int solves of the preimage solver of ``cohomology(dga)``
    give the u_t from the nonzero parts (a zero part has u_t = 0); with
    kappa_t = K_t / d_k, u is one block dict over one scale.
    """
    if dga.top < 2:  # A^2 = 0: every u solves the system
        return 1, {}
    m = e.N.dim
    solver = cohomology(dga).preimage_solver(2)
    d_k, K = integer_row([c for kappa in e.kernel for c in kappa])
    u = {}
    for t, part in enumerate(parts):
        if not any(part):
            continue
        sol = solver.solve_int([-a for a in part])
        if sol is None:
            return None
        kt = K[t * m:(t + 1) * m]
        for i, c in enumerate(sol[0]):
            if c:
                _add_scaled(u, i, c, kt)
    return solver.E_int[0] * scale * d_k, _nonzero(u)


def obstruction_class(dga: FiniteDGA, x, e: SmallExtensionSpec, section: Matrix = None):
    """Class in H^2(A) ox I obstructing a lift of x along the extension.

    x must satisfy MC over A ox M (ValueError otherwise).  Returns
    (class_coords, h) where class_coords has one H^2-coordinate tuple per
    kernel basis vector and h is the MC residual of the section lift
    (id ox s)(x); the class is zero iff a lift to A ox N exists.  id ox p is
    a DGLA map and p s = id, so (id ox p)(h) = dx + 1/2 [x, x]: x is MC iff
    h lies in A^2 ox I, which ``kernel_parts`` decides.
    """
    _, (den, h), parts = _stage_lift(dga, e, *TensorDGLA(dga, e.M)._ints(1, x), section)
    if parts is None:
        raise ValueError("input is not a Maurer-Cartan element over the base")
    return _classes(dga, *parts), over(TensorDGLA(dga, e.N)._flat(2, h), den)


def lift_system_solvable(dga: FiniteDGA, x, e: SmallExtensionSpec) -> bool:
    """Directly solve the affine lift system; True iff a lift to N exists.

    Because the kernel is central the unknown correction u in A^1 ox I
    enters only through du, so solvability is an exact affine question.
    An x that is not MC over A ox M has no lift and gets False: the residual
    of its section lift leaves A^2 ox I (see ``obstruction_class``).
    """
    parts = _stage_lift(dga, e, *TensorDGLA(dga, e.M)._ints(1, x))[2]
    return parts is not None and _central_correction(dga, e, *parts) is not None


class MCStage:
    def __init__(self, level, tangent_dim, solution_dim, obstructed, obstruction):
        self.level = level
        self.tangent_dim = tangent_dim
        self.solution_dim = solution_dim
        self.obstructed = obstructed
        self.obstruction = obstruction


class MCSolveReport:
    def __init__(self, stages, solution, completed):
        self.stages = stages
        self.solution = solution
        self.completed = completed


def mc_solve(dga: FiniteDGA, N: LieAlgebra, initial=None) -> MCSolveReport:
    """Stagewise MC solution along the lower central series of N.

    Stage 1 solves the cocycle condition over gr_1; each later stage lifts
    the current solution through the semi-small LCS extension, recording the
    obstruction class in H^2(A) ox gr_k and, when it vanishes, a particular
    correction.  initial optionally picks the stage-1 cocycle.  N must
    satisfy Jacobi (ValueError otherwise): the LCS quotients assume it.

    The kernel test of stage k + 1 proves the corrected solution of stage k
    MC (see ``obstruction_class``), so only the last stage of a completed
    solve has its MC residual checked on its own.
    """
    bad = N.check_jacobi()
    if bad:
        raise ValueError("input violates the Jacobi identity at triples %s" % bad)
    H = cohomology(dga)
    cls = nilpotency_class(N)
    # stage 1: x in Z^1(A) ox gr_1, of dimension dim gr_1 * dim Z^1(A) since
    # rank(d ox id_m) = m rank d (``deformation_census``)
    t = TensorDGLA(dga, lcs_extension(N, 1).N)  # over N / G_2, the abelianisation
    solution = tuple(initial) if initial is not None else t.zero(1)
    d, u = t._ints(1, solution)
    if _mc_numerators(t, d, u)[1]:
        raise ValueError("initial stage-1 element is not Maurer-Cartan")
    b1, z1 = (H.betti_number(1), len(H.degree(1)[1])) if dga.top >= 1 else (0, 0)
    stages = [MCStage(1, b1 * t.N.dim, z1 * t.N.dim, False, None)]
    # the stages pass the current solution on as u / d in blocks; the
    # Fractions are made once, for the report
    completed = True
    for k in range(2, cls + 1):
        e = lcs_extension(N, k)
        (d_y, y), _, parts = _stage_lift(dga, e, d, u)
        assert parts is not None, "the stage-%d solution is not Maurer-Cartan" % (k - 1)
        classes = _classes(dga, *parts)
        if any(map(any, classes)):
            stages.append(MCStage(k, None, 0, True, classes))
            completed = False
            break
        # solve d c = -h for c in A^1 ox I, in a space of dimension
        # dim I * dim Z^1(A), and correct the section lift by c
        correction = _central_correction(dga, e, *parts)
        assert correction is not None, "zero obstruction class but unsolvable system"
        d_c, c = correction
        t, solution = TensorDGLA(dga, e.N), None
        d, u = _reduced(d_y * d_c, _lincomb(d_c, y, d_y, c))
        stages.append(MCStage(k, None, len(e.kernel) * z1, False, classes))
    if completed and cls > 1:
        assert not _mc_numerators(t, d, u)[1], "the lift is not Maurer-Cartan"
    if solution is None:
        solution = over(t._flat(1, u), d)
    return MCSolveReport(stages, solution, completed)


# ---------------------------------------------------------------------------
# Gauge equivalence

class GaugeDecision:
    def __init__(self, status, alpha=None, residual=None, stage=None, refutation=None):
        self.status = status  # "yes" | "no"
        self.alpha = alpha
        self.residual = residual
        self.stage = stage  # the LCS stage k that decided a "no"
        self.refutation = refutation  # the checked y of a "no"


def gauge_equivalent(dga: FiniteDGA, N: LieAlgebra, x, y) -> GaugeDecision:
    """Decide whether y = gauge(alpha, x) for some alpha, by one exact linear
    solve per LCS stage of N (Goldman-Millson).

    Suppose alpha.x = y mod A^1 ox G_k.  The gauges with that property are
    alpha.s with s.x = x mod G_k.  For s = exp(b), s.x - x = phi(ad_b)(v)
    with v = [b, x] - db and phi(t) = (e^t - 1)/t; phi(ad_b) is unipotent and
    keeps the LCS filtration, so v lies in A^1 ox G_k and s.x - x = v mod
    A^1 ox G_{k+1}, which is linear in b.  Stage k therefore solves
    [b, x] - db = y - alpha.x mod A^1 ox G_{k+1} over all of A^0 ox N and
    sets alpha to alpha.exp(b).  No solution proves "no" at stage k, with
    residual y - alpha.x and a refutation: a y with y . col = 0 for every
    column col of [moves | A^1 ox G_{k+1}] and y . residual != 0, from the
    stage's AffineSolver, which checks it.  A "yes" carries an alpha
    checked with gauge.
    """
    t = TensorDGLA(dga, N)
    d_x, u = t._ints(1, x)
    if _mc_numerators(t, d_x, u)[1] or not is_mc(t, y):
        raise ValueError("both elements must satisfy the Maurer-Cartan equation")
    y = tuple(y)
    chain = lower_central_series(N)
    A0N = t.degree0_lie_algebra()
    D_d, D = t._scales()
    # the column of the unit vector e_i is [e_i, x] - d e_i = T_1 of gauge
    moves = [over(t._flat(1, _first_term(t, t._ints(0, unit(t.dim(0), i))[1], d_x, u)),
                  D * D_d * d_x) for i in range(t.dim(0))]
    alpha = t.zero(0)
    for k in range(1, len(chain)):
        den, moved = _gauge_ints(t, *t._ints(0, alpha), d_x, u)
        target = vec_sub(y, over(t._flat(1, moved), den))
        if vec_is_zero(target):
            break
        cols = moves + t.tensor_basis(1, chain[k].basis)
        solver = AffineSolver(Matrix.from_columns(cols, rows=t.dim(1)))
        sol = solver.solve(target)
        if sol is None:
            return GaugeDecision("no", residual=target, stage=k,
                                 refutation=solver.refute(target))
        alpha = bch(alpha, sol[:len(moves)], A0N)
    if gauge(t, alpha, x) != y:
        raise AssertionError("gauge parameter failed verification")
    return GaugeDecision("yes", alpha=alpha)


# ---------------------------------------------------------------------------
# Comparison along a DGA morphism

class DGAMorphism:
    """Chain map A -> B respecting products, given by per-degree matrices."""

    def __init__(self, source: FiniteDGA, target: FiniteDGA, matrices):
        self.source = source
        self.target = target
        self.matrices = [m if isinstance(m, Matrix) else Matrix(m) for m in matrices]
        self._ranks = None  # rank data of H^i(phi), on demand
        errors = self.verify()
        if errors:
            raise ValueError("not a DGA morphism: " + "; ".join(errors))

    def apply(self, n, v):
        if n >= len(self.matrices):
            return vec_zero(self.target.dims[n] if n <= self.target.top else 0)
        return self.matrices[n].mul_vec(v)

    def verify(self):
        errors = []
        A, B = self.source, self.target
        for n in range(min(A.top, B.top)):
            for i in range(A.dims[n]):
                v = A.basis_vector(n, i)
                if self.apply(n + 1, A.diff(n, v)) != B.diff(n, self.apply(n, v)):
                    errors.append("chain map fails at degree %d" % n)
                    break
        for p in range(A.top + 1):
            for q in range(A.top + 1 - p):
                for i in range(A.dims[p]):
                    for j in range(A.dims[q]):
                        a = A.basis_vector(p, i)
                        b = A.basis_vector(q, j)
                        lhs = self.apply(p + q, A.product(p, a, q, b))
                        rhs = B.product(p, self.apply(p, a), q, self.apply(q, b))
                        if lhs != rhs:
                            errors.append("multiplicativity fails at (%d,%d)" % (p, q))
                            break
        return sorted(set(errors))


def deformation_census(dga: FiniteDGA, N: LieAlgebra):
    """Stagewise dimension count of the deformation space over N: the pairs
    (k, dim gr_k * b^1(A)) for the LCS stages k of N.

    At stage k the lift corrections are the cocycles of A^1 ox gr_k, and the
    new gauge directions are d(A^0 ox gr_k), so the count is
    dim(A^1 ox gr_k) - rank(d_1 ox id_m) - rank(d_0 ox id_m) with
    m = dim gr_k.  In the basis a_i ox e_r, d ox id_m is the Kronecker
    product of d with the identity of gr_k: after reordering rows and
    columns by r it is m diagonal copies of d, so rank(d ox id_m) =
    m rank d.  The count is therefore m (dim A^1 - rank d_1 - rank d_0)
    = m b^1(A), with b^1 read off the memoised ``cohomology(dga)``.
    """
    b1 = cohomology(dga).betti_number(1) if dga.top >= 1 else 0
    dims = lcs_dims(N)
    return [(k, (dims[k - 1] - dims[k]) * b1) for k in range(1, len(dims))]


def compare_def_along_map(phi: DGAMorphism, N: LieAlgebra):
    """Rank data of H^i(phi) plus the deformation censuses over N of its
    source and target (``deformation_census``).  The rank data is computed
    once per phi and kept on it; each call returns fresh dicts."""
    if phi._ranks is None:
        HA, HB, ranks = cohomology(phi.source), cohomology(phi.target), {}
        for i in range(min(phi.source.top, phi.target.top) + 1):
            cols = [HB.class_coordinates(i, phi.apply(i, v)) for v in HA.representatives[i]]
            dims_a = len(HA.representatives[i])
            dims_b = HB.betti_number(i)
            r = len(echelon_basis(cols, dims_b)) if cols else 0
            ranks[i] = {"dim_source": dims_a, "dim_target": dims_b, "rank": r,
                        "injective": r == dims_a, "surjective": r == dims_b}
        phi._ranks = ranks
    ranks = {i: dict(r) for i, r in phi._ranks.items()}
    etale = ranks.get(1, {}).get("injective", False) and \
        ranks.get(1, {}).get("surjective", False) and \
        ranks.get(2, {}).get("injective", True)
    iso = etale and ranks.get(0, {}).get("surjective", True)
    census_a = deformation_census(phi.source, N)
    census_b = deformation_census(phi.target, N)
    return {
        "h_ranks": ranks,
        "etale": etale,
        "isomorphism": iso,
        "census_source": census_a,
        "census_target": census_b,
        "census_match": census_a == census_b,
    }
