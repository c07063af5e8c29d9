"""Quadratic presentations of nilpotent Lie algebras.

A quadratic presentation is L(V)/<W> with every relation of bracket length
exactly 2, i.e. W a subspace of wedge^2 V.  This module realizes such
presentations as finite nilpotent algebras, decides whether a given algebra
admits one, produces the quadratic model attached to a cup-product datum,
and implements the two representation-lifting obstructions: the graded
criterion (theta must annihilate W) and one-class lifting of group
presentations through a central quotient stage.
"""

import itertools
from collections import Counter
from math import lcm
from operator import mul

from .linalg import (
    Matrix, ZERO, scalar, integer, format_scalar, vec_add, vec_neg, vec_scale, vec_sub,
    vec_zero, vec_is_zero, echelon_basis, integer_row, integer_terms, over, over_terms,
    inverse, unit, right_inverse, as_list, AffineSolver, IncrementalSpan, _combine, _dense,
    _int_rows, _null_rows, _sparse, _transpose,
)
from .lie import (
    LieAlgebra, lower_central_series, associated_graded, quotient_by_ideal,
    is_lie_isomorphism, check_automorphism, unit_complement, _lcs_bases,
)
from .freelie import free_nilpotent, graded_ideal_closure
from .bch import (
    SemidirectElement, GroupPresentation, check_representation, _act, _identity,
    _int_inverse, _lowest, _walk,
)
from .dgla import lcs_extension


def pair_index(k):
    """Canonical ordering of the wedge^2 basis x_i ^ x_j, i < j."""
    return list(itertools.combinations(range(k), 2))


class QuadraticPresentation:
    """Generator count k plus a basis of the relation space W in wedge^2 V.

    Relations are coordinate vectors over the canonical pair order; the
    stored basis is echelonized so equality of presentations is equality of
    relation spans.  A string is not read as a list of its characters:
    relations, or a relation, given as a string is a ValueError.
    """

    def __init__(self, k, relations):
        self.k = k
        self.pairs = pair_index(k)
        m = len(self.pairs)
        rels = [tuple(scalar(c) for c in as_list(r, "a relation"))
                for r in as_list(relations, "the relations")]
        for r in rels:
            if len(r) != m:
                raise ValueError("relation has wrong length for k=%d" % k)
        self.relations = [tuple(v) for v in echelon_basis(rels, m)]

    def __eq__(self, other):
        return (isinstance(other, QuadraticPresentation)
                and self.k == other.k and self.relations == other.relations)

    def to_json(self):
        return {"generators": self.k,
                "relations": [[format_scalar(c) for c in r] for r in self.relations]}

    @classmethod
    def from_json(cls, obj):
        return cls(integer(obj["generators"]), obj["relations"])


def _relation_vectors(k, relations, F: LieAlgebra):
    """Embed relation rows over the canonical pair order of k generators into
    the degree-2 Hall component of F."""
    out = []
    for r in relations:
        v = [ZERO] * F.dim
        for (i, j), c in zip(pair_index(k), r):
            if c != 0:
                v[F.hall_index[(i, j)]] = c
        out.append(tuple(v))
    return out


def realize(qp: QuadraticPresentation, c: int):
    """L(V)/<W> truncated at class c.

    Returns (L, stabilized) where stabilized means the degree-c component of
    the quotient is already zero, so the algebra is genuinely
    finite-dimensional rather than merely truncated.  The result carries the
    canonical grading.
    """
    if c < 2:
        raise ValueError("class cutoff must be at least 2")
    F = free_nilpotent(qp.k, c)
    gens = _relation_vectors(qp.k, qp.relations, F)
    Q, _ = quotient_by_ideal(F, graded_ideal_closure(F, gens)[0])
    return Q, Q.grading is not None and c not in Q.grading


def realized_graded_dims(L: LieAlgebra):
    top = max(L.grading, default=0)
    return [len(L.graded_component_indices(n)) for n in range(1, top + 1)]


# ---------------------------------------------------------------------------
# The quadraticity decision

class QuadraticVerdict:
    """yes: relation space W plus a filtered isomorphism theta: gr L -> L.
    no: the first failing degree with the dimension of the defect space."""

    def __init__(self, yes, W=None, theta=None, graded=None,
                 failing_degree=None, defect_dim=None, stage=None):
        self.yes = yes
        self.W = W
        self.theta = theta
        self.graded = graded
        self.failing_degree = failing_degree
        self.defect_dim = defect_dim
        self.stage = stage

    def to_json(self):
        if self.yes:
            return {"quadratic": True,
                    "relations": [[format_scalar(c) for c in r] for r in self.W]}
        return {"quadratic": False, "failing_degree": self.failing_degree,
                "defect_dim": self.defect_dim, "stage": self.stage}


def _relation_space(L):
    """W_2, the kernel of wedge^2 gr_1 -> gr_2 for a nilpotent L, as
    coordinates over the canonical pair order of the k = dim gr_1
    generators, read off the int rows of the lower central series.

    gr_1 has the basis of the unit vectors e_c of ``unit_complement`` of
    G_2, as in ``adapted_basis``.  With r_p the int rows of G_3, a_p the
    pivot of r_p and E their lcm, NF(v) = E v - sum_p v[p] (E / a_p) r_p is
    linear with kernel G_3 (the r_p are RREF rows up to scale).  So the
    columns NF(D [e_a, e_b]), with D [e_a, e_b] from ``L.table``, all
    scaled by D E, have the kernel of wedge^2 V -> gr_2, and
    ``linalg._null_rows`` of their int rows, over their scale, depends only
    on the kernel, so it gives the same vectors as on the brackets of gr L."""
    n, (_, table) = L.dim, L.table
    chain = _lcs_bases(L) + ((), ())
    gens = unit_complement(chain[1], n)[0]
    partners = [dict(table[c]) for c in gens]
    G3 = {r[0][0]: r for r in chain[2]}  # r_p by its pivot p
    E = lcm(*[r[0][1] for r in G3.values()])
    cols = []
    for a, b in pair_index(len(gens)):
        v = partners[a].get(gens[b], ())
        nf = [("v", E)] + [(p, -x * (E // G3[p][0][1])) for p, x in v if p in G3]
        cols.append(_combine({"v": v, **G3}, nf))
    S, null = _null_rows(_transpose(cols, n), len(cols))
    return [over_terms(v, len(cols), S) for v in null]


def is_quadratically_presented(L: LieAlgebra):
    """Decide whether L is isomorphic to some L(V)/<W> with W in wedge^2 V.

    Stage 1 checks the associated graded: with V = gr_1 L and W_2 the kernel
    of wedge^2 V -> gr_2 L, the graded ideal <W_2> must equal the kernel of
    phi: L(V) -> gr L in every degree n = 2..c+1, where gr_{c+1} = 0 (at
    c+1 this rules out truncations such as the Heisenberg algebra at degree
    3).  phi is a Lie map onto gr L (gr L is generated by gr_1) that kills
    W_2, so <W_2>_n lies in ker phi_n, and equality is the dimension count
    dim <W_2>_n = dim F_n - dim gr_n L, read off one graded closure in the
    free algebra F(k, c+1).  Stage 1 reads only the lower central series:
    W_2 from ``_relation_space`` and dim gr_n = dim G_n - dim G_{n+1}; gr L
    itself (``associated_graded``) is built only past it, or at class 1.
    Stage 2 decides whether a filtered isomorphism theta: gr L -> L with
    gr(theta) = id exists by one exact linear solve (see _filtered_iso), so
    a "no" at stage "lift" is a proof and a "yes" carries a verified theta.
    """
    chain = lower_central_series(L)
    c = len(chain) - 1
    if c == 0:
        return QuadraticVerdict(True, W=[], theta=Matrix.identity(0), graded=None)
    W = _relation_space(L)
    if c == 1:
        G = associated_graded(L)
        return QuadraticVerdict(True, W=W, theta=Matrix.from_columns(
            G.from_parent, rows=L.dim), graded=G)
    gr_dims = [a.dim - b.dim for a, b in zip(chain, chain[1:])] + [0]
    k = gr_dims[0]
    # stage 1: dim <W_2>_n == dim F_n - dim gr_n for n = 2..c+1
    F = free_nilpotent(k, c + 1)
    _, dims = graded_ideal_closure(F, _relation_vectors(k, W, F))
    for n in range(2, c + 2):
        defect = len(F.graded_component_indices(n)) - gr_dims[n - 1] - dims[n - 1]
        if defect:
            return QuadraticVerdict(False, failing_degree=n,
                                    defect_dim=defect, stage="graded")

    # stage 2: theta with gr(theta) = id
    G = associated_graded(L)
    theta = _filtered_iso(L, G, chain)
    if theta is None:
        return QuadraticVerdict(False, failing_degree=None, defect_dim=None,
                                stage="lift")
    return QuadraticVerdict(True, W=W, theta=theta, graded=G)


def _filtered_iso(L, G, chain):
    """A Lie isomorphism theta: gr L -> L with gr(theta) = id, or None.

    Such a theta exists iff L has a derivation D that acts on each gr_n as
    multiplication by n: given theta, D = theta deg theta^-1; given D, its
    n-eigenspaces V_n grade L, and theta(e_i) is the projection of the
    adapted vector p_i onto V_{deg i}.  In the adapted basis D = diag(deg)
    + E, where E takes p_i into the span of deeper adapted vectors, and the
    derivation equations are linear in E, so one exact solve decides.  None
    is therefore a proof; a returned theta is verified exactly.  The
    equations are linear in ``G.adapted``, L's int table in the adapted
    basis, so its scale S drops out; E = 0 iff gr L keeps all of it.
    """
    dim, degrees = L.dim, G.algebra.grading
    P = Matrix.from_columns(G.from_parent, rows=dim)
    if G.adapted.table == G.algebra.table:
        return P   # E = 0: the adapted basis already grades L
    ad = G.adapted.table[1]   # ad[a]: (b, S [p_a, p_b] adapted), if nonzero
    # delta(D)(a, b) = D[p_a, p_b] - [D p_a, p_b] - [p_a, D p_b] is linear in
    # D; solve delta(E) = -delta(diag(deg)) on its (a, b, r) entries, a < b
    rhs, at = Counter(), [[] for _ in range(dim)]   # at[r]: (a, b, p_r-coefficient)
    for a in range(dim):
        for b, terms in ad[a]:
            for r, c in terms if a < b else ():
                at[r].append((a, b, c))
                if degrees[r] != degrees[a] + degrees[b]:
                    rhs[a, b, r] = (degrees[a] + degrees[b] - degrees[r]) * c
    unknowns = [(i, j) for i in range(dim) for j in range(dim)
                if degrees[j] > degrees[i]]   # the p_j-coefficient of E p_i
    cols = []
    for i, j in unknowns:
        col = Counter()
        for a, b, c in at[i]:
            col[a, b, j] += c                          # E[p_a, p_b]
        for b, terms in ad[j]:                         # -[E p_i, p_b] = -[p_j, p_b]
            if b != i:
                for r, c in terms:
                    col[min(i, b), max(i, b), r] -= c if i < b else -c
        cols.append(col)
    keys = sorted(set(rhs).union(*cols))
    sol = AffineSolver(Matrix([[col[k] for col in cols] for k in keys])).solve(
        [rhs[k] for k in keys])
    if sol is None:
        return None
    D = [[degrees[i] if r == i else ZERO for i in range(dim)] for r in range(dim)]
    for (i, j), cf in zip(unknowns, sol):
        D[j][i] = cf
    # p_i has no component below degree n = deg i, so the factors
    # (D - m) / (n - m) with m > n already project it onto V_n
    proj = []
    for i, n in enumerate(degrees):
        v = unit(dim, i)
        for m in range(n + 1, max(degrees) + 1):
            v = [(sum(map(mul, row, v)) - m * x) / (n - m) for row, x in zip(D, v)]
        proj.append(v)
    theta = P * Matrix.from_columns(proj)
    if not _verify_filtered_iso(L, G, chain, theta):
        raise AssertionError("filtered isomorphism failed verification")
    return theta


def _verify_filtered_iso(L, G, chain, m: Matrix) -> bool:
    """theta is a Lie isomorphism gr L -> L, and gr(theta) = id."""
    return is_lie_isomorphism(G.algebra, L, m) and all(
        IncrementalSpan(chain[d].rows).contains(_int_rows([vec_sub(col, p)])[1][0])
        for col, p, d in zip(m.columns(), G.from_parent, G.algebra.grading))


def direct_summand_quadratic(L1: LieAlgebra, L2: LieAlgebra,
                             sum_verdict: QuadraticVerdict):
    """Quadraticity certificate for L1 from one for L1 (+) L2.

    The new theta is the composition gr L1 -> gr(L1 (+) L2) -> L1 (+) L2
    -> L1; the graded conditions for L1 are re-derived directly, so the
    output is a fully verified verdict with no search.
    """
    if not sum_verdict.yes:
        raise ValueError("need a yes-verdict for the direct sum")
    from .lie import direct_sum
    L = direct_sum(L1, L2)
    chain = lower_central_series(L)
    GL = sum_verdict.graded
    if GL is None:
        GL = associated_graded(L)
    theta = sum_verdict.theta
    if not _verify_filtered_iso(L, GL, chain, theta):
        raise ValueError("supplied verdict fails verification on the sum")
    chain1 = lower_central_series(L1)
    c1 = len(chain1) - 1
    if c1 == 0:
        return QuadraticVerdict(True, W=[], theta=Matrix.identity(0), graded=None)
    G1 = associated_graded(L1)
    gr = GL.algebra
    # graded embedding gr L1 -> gr L: push each adapted vector of L1 into L
    # and take its class in the matching graded component
    to_gr = inverse(Matrix.from_columns(GL.from_parent))
    emb_cols = []
    for i in range(L1.dim):
        d = G1.algebra.grading[i]
        v = tuple(G1.from_parent[i]) + vec_zero(L2.dim)
        coords = to_gr.mul_vec(v)
        emb_cols.append(tuple(cf if gr.grading[t] == d else ZERO
                              for t, cf in enumerate(coords)))
    proj1 = Matrix([unit(L.dim, i) for i in range(L1.dim)])
    theta1 = proj1 * theta * Matrix.from_columns(emb_cols, rows=L.dim)
    if not _verify_filtered_iso(L1, G1, chain1, theta1):
        raise ValueError("composed map failed verification; summand not recovered")
    # recompute the relation space of L1 for the certificate
    return QuadraticVerdict(True, W=_relation_space(L1), theta=theta1, graded=G1)


# ---------------------------------------------------------------------------
# Cup products and the quadratic model

class CupDatum:
    """Antisymmetric pairing H^1 x H^1 -> H^2 as an exact tensor.

    pairing[i][j] is the H^2-coordinate vector of the cup product of the
    i-th and j-th H^1 basis vectors; antisymmetry is validated on load.
    """

    def __init__(self, h1, h2, pairing):
        self.h1 = h1
        self.h2 = h2
        self.pairing = [[tuple(scalar(c) for c in cell) for cell in row]
                        for row in pairing]
        if len(self.pairing) != h1 or any(len(row) != h1 for row in self.pairing):
            raise ValueError("pairing must be h1 x h1")
        for row in self.pairing:
            for cell in row:
                if len(cell) != h2:
                    raise ValueError("pairing values must have h2 coordinates")
        for i in range(h1):
            for j in range(h1):
                if self.pairing[i][j] != vec_neg(self.pairing[j][i]):
                    raise ValueError("pairing is not antisymmetric at (%d,%d)" % (i, j))

    def to_json(self):
        return {"h1": self.h1, "h2": self.h2,
                "pairing": [[[format_scalar(c) for c in cell] for cell in row]
                            for row in self.pairing]}

    @classmethod
    def from_json(cls, obj):
        return cls(integer(obj["h1"]), integer(obj["h2"]), obj["pairing"])


def malcev_model(cd: CupDatum) -> QuadraticPresentation:
    """The quadratic model L(H_1)/Delta(H_2): V dual to H^1, W the image in
    wedge^2 V of the map dual to the cup pairing."""
    pairs = pair_index(cd.h1)
    rows = []
    for t in range(cd.h2):
        rows.append(tuple(cd.pairing[i][j][t] for (i, j) in pairs))
    return QuadraticPresentation(cd.h1, rows)


# ---------------------------------------------------------------------------
# Representation lifting

class LiftResult:
    """lifted, with the lift in images; or not, with the obstruction in
    witness and, from lift_one_class, a refutation y of its system M x = t
    (rows: per relator a block of U/G_{k+1} coordinates; columns: per
    generator the kernel basis of the stage): y M = 0 and y . t != 0."""

    def __init__(self, lifted, images=None, witness=None, refutation=None):
        self.lifted = lifted
        self.images = images
        self.witness = witness
        self.refutation = refutation


def lift_representation_criterion(qp: QuadraticPresentation, U: LieAlgebra,
                                  rho2) -> LiftResult:
    """Graded lifting criterion for a quadratic source.

    U must be homogeneous (graded, so U = gr U); rho2 assigns each generator
    an image supported in the degree-1 and degree-2 components of U.  The
    induced theta: L(V) -> U annihilates the whole relation ideal iff it
    annihilates W, so a lift of the abelianized map exists iff theta(W) = 0;
    otherwise the nonzero images theta(w) are returned as the obstruction.
    """
    if U.grading is None:
        raise ValueError("target must be graded")
    if len(rho2) != qp.k:
        raise ValueError("need one image per generator")
    images = [tuple(scalar(c) for c in v) for v in rho2]
    if any(len(v) != U.dim for v in images):
        raise ValueError("generator images must have %d coordinates" % U.dim)
    allowed = set(U.graded_component_indices(1)) | set(U.graded_component_indices(2))
    for v in images:
        for t, c in enumerate(v):
            if c != 0 and t not in allowed:
                raise ValueError("generator images must live in degrees 1 and 2")
    witnesses = []
    for r in qp.relations:
        val = vec_zero(U.dim)
        for (i, j), cf in zip(qp.pairs, r):
            if cf != 0:
                val = vec_add(val, vec_scale(cf, U.bracket(images[i], images[j])))
        if not vec_is_zero(val):
            witnesses.append((tuple(r), val))
    if witnesses:
        return LiftResult(False, witness=witnesses)
    return LiftResult(True, images=images)


def lift_one_class(p: GroupPresentation, assignment, U: LieAlgebra, k: int,
                   ambient_auts=None) -> LiftResult:
    """Lift a representation into exp(U/G_k) one central stage, to U/G_{k+1}.

    assignment maps generator names to log coordinates over U/G_k, or to
    SemidirectElements whose automorphism part is the action induced on
    U/G_k by ambient_auts, automorphisms of U (ValueError otherwise).  One
    ``bch._walk`` per relator over the int images of the section lifts
    (s n_g, a_g) in N = U/G_{k+1} gives its value (n, A) and its Fox terms:
    (+1, A before the letter) for g, (-1, A after it) for g^-1.

    Each a_g maps I = G_k/G_{k+1} = ker p into I, so (n, A) -> (p n, p A s)
    is a group map onto the level-k semidirect product that sends each
    section lift to its input: the input satisfies the relators at level k
    iff every n lies in I (``kernel_parts``) and every p A s is the identity.

    A lift is one exact linear system M x = -d0 over corrections in I of the
    generator lifts, d0 being the values n: I is central and (n', A)(c, 1)
    = (A c, 1)(n', A), so the column at (g, v), v in the kernel basis, is
    the sum of sign A v over the Fox terms of g.  It is built as int rows
    over one scale, and ``Matrix.of_ints`` divides out their gcd, so M is
    the canonical Matrix of its entries.  One AffineSolver of M gives the
    lift, re-verified with check_representation, or a refutation y with
    y M = 0 and y . (-d0) != 0, checked against M.  Fractions are built for
    the lift, the witness and the refutation only.
    """
    if k < 2:
        raise ValueError("need 2 <= k <= class of U")
    e = lcs_extension(U, k)
    N, s = e.N, e.section()
    one, auts = _identity(N.dim), {}
    if ambient_auts is not None:
        if not all(check_automorphism(U, a) for a in ambient_auts.values()):
            raise ValueError("ambient_auts must be automorphisms of U")
        lift = right_inverse(e.quotient)   # N -> U, for the action on N
        auts = {g: e.quotient * a * lift for g, a in ambient_auts.items()}
    images = {}
    for g in p.generators:
        if g not in assignment:
            raise ValueError("assignment misses generator %r" % g)
        img = assignment[g]
        log = img.log if isinstance(img, SemidirectElement) else tuple(scalar(c) for c in img)
        if len(log) != e.M.dim:
            raise ValueError("assignment for %r has wrong dimension" % g)
        if isinstance(img, SemidirectElement):
            a = ambient_auts.get(g) if ambient_auts else None
            if a is None and img.aut != Matrix.identity(e.M.dim):
                raise ValueError("assignment for %r has an automorphism part, but "
                                 "ambient_auts gives no action for it" % g)
            if a is not None and (q := e.projection * e.quotient) * a * right_inverse(q) != img.aut:
                raise ValueError("the action of ambient_auts[%r] on U/G_k is not the "
                                 "automorphism part of its assignment" % g)
        images[g] = _lowest(*_act(s, *integer_row(log)), auts.get(g, one))
        images[g + "^-1"] = _int_inverse(images[g], N)
    values, fox = [], [{} for _ in p.relators]   # fox: per relator, {g: [(sign, A)]}
    for rel, terms in zip(p.relators, fox):
        values.append(_walk(N, images.__getitem__, rel, terms) or (1, [0] * N.dim, one))
    d0 = lcm(*[d for d, _, _ in values])
    target = [-a * (d0 // d) for d, n, _ in values for a in n]
    if any(A != one and e.projection * A * s != Matrix.identity(e.M.dim)
           for _, _, A in values) or e.kernel_parts(target) is None:
        raise ValueError("assignment does not satisfy the relators at level k")
    K, kern = integer_terms(map(_sparse, e.kernel))   # the kernel basis: kern / K
    kern = [_dense(v, N.dim) for v in kern]
    E = lcm(*[A.integer_view()[0] for terms in fox for ts in terms.values() for _, A in ts])
    cols = []   # the Fox columns, over E K
    for g in p.generators:
        for v in kern:
            col = []
            for terms in fox:
                dv = [0] * N.dim
                for sign, A in terms.get(g, ()):
                    D_A, Av = _act(A, 1, v)
                    dv = [a + sign * (E // D_A) * b for a, b in zip(dv, Av)]
                col += dv
            cols.append(_sparse(col))
    solver = AffineSolver(Matrix.of_ints(E * K, _transpose(cols, len(target)), len(cols)))
    sol = solver.solve_int(target)
    if sol is None:
        return LiftResult(False, witness=[(list(r), over(n, d))
                                          for r, (d, n, _) in zip(p.relators, values)],
                          refutation=solver.refute(target))
    xs, S = sol[0], sol[1] * d0 * K   # the correction of g is sum_v (xs_v / S) kern_v
    lifted = {}
    for t, g in enumerate(p.generators):
        d, n, A = images[g]
        n = [a * S for a in n]
        for x, v in zip(xs[t * len(kern):], kern):
            n = [a + x * d * b for a, b in zip(n, v)]
        lifted[g] = SemidirectElement(N, over(n, d * S), A)
    if check_representation(p, lifted):
        raise AssertionError("solved lift failed post-hoc verification")
    return LiftResult(True, images=lifted)
