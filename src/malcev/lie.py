"""Finite-dimensional Lie algebras given by exact structure constants.

A ``LieAlgebra`` is immutable and stores the bracket only for basis pairs
(i, j) with i < j; antisymmetry holds by construction, so the only
well-definedness condition left to verify at runtime is the Jacobi identity.
Ideals are explicit lists of coordinate vectors in the parent's basis, which
keeps every downstream computation linear-algebraic.
"""

from types import MappingProxyType

from .linalg import (
    Matrix, ZERO, scalar, format_scalar, vec, vec_add, vec_scale,
    vec_zero, vec_is_zero, echelon_basis, span_contains,
    rank, inverse, unit, IncrementalSpan,
)


class LieAlgebra:
    """Lie algebra over the rationals, by structure constants.

    brackets, a read-only dense view, maps (i, j) with i < j to the
    coordinate vector of [e_i, e_j]; missing pairs bracket to zero.  The
    bracket runs on the sparse table _partners: per index i, the (j, ((k, c),
    ...)) with [e_i, e_j] = sum c e_k != 0.  An optional grading assigns a
    positive integer weight to each basis vector; when present, brackets must
    be additive in the weights.
    """

    def __init__(self, dim, brackets, basis_names=None, grading=None):
        self.dim = dim
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            "e%d" % (i + 1) for i in range(dim))
        table = {}
        partners = [[] for _ in range(dim)]
        for (i, j), v in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError("bad bracket key (%d, %d)" % (i, j))
            v = vec(v)
            if len(v) != dim:
                raise ValueError("bracket value has wrong length")
            terms = tuple((k, c) for k, c in enumerate(v) if c)
            if terms:
                table[(i, j)] = v
                partners[i].append((j, terms))
                partners[j].append((i, tuple((k, -c) for k, c in terms)))
        self.brackets = MappingProxyType(table)
        self._partners = tuple(tuple(p) for p in partners)
        self._lcs = None  # RREF bases of the lower central series, on demand
        self._jacobi = None  # basis triples failing Jacobi, on demand
        self.grading = tuple(grading) if grading is not None else None
        if self.grading is not None:
            if len(self.grading) != dim:
                raise ValueError("grading length mismatch")
            self._check_grading()

    def _check_grading(self):
        for (i, j), v in self.brackets.items():
            w = self.grading[i] + self.grading[j]
            for k, c in enumerate(v):
                if c != 0 and self.grading[k] != w:
                    raise ValueError(
                        "bracket [e%d, e%d] not homogeneous of weight %d" % (i, j, w))

    def basis_bracket(self, i, j):
        if i == j:
            return vec_zero(self.dim)
        if i < j:
            return self.brackets.get((i, j), vec_zero(self.dim))
        return vec_scale(-1, self.brackets.get((j, i), vec_zero(self.dim)))

    def bracket(self, x, y):
        """[x, y] by bilinear expansion over the nonzeros of x and their
        partners.  A pair (i, j) where both x_i y_j and x_j y_i are nonzero
        is expanded once, with coefficient x_i y_j - x_j y_i."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length must equal dim=%d" % self.dim)
        out = [ZERO] * self.dim
        partners = self._partners
        for i, xi in enumerate(x):
            if not xi:
                continue
            yi = y[i]
            for j, terms in partners[i]:
                yj = y[j]
                if not yj:
                    continue
                if yi and x[j]:
                    if j < i:
                        continue  # expanded from j's side
                    c = xi * yj - x[j] * yi
                    if not c:
                        continue
                else:
                    c = xi * yj
                for k, e in terms:
                    out[k] += c * e
        return tuple(out)

    def check_jacobi(self):
        """Return the list of basis triples violating the Jacobi identity.

        The algebra is immutable, so the sweep runs once per algebra; each
        call returns a fresh list of the kept triples."""
        if self._jacobi is None:
            e = [self.basis_vector(i) for i in range(self.dim)]
            br = self.bracket
            bad = []
            for i in range(self.dim):
                for j in range(i + 1, self.dim):
                    for k in range(j + 1, self.dim):
                        s = vec_add(
                            vec_add(br(br(e[i], e[j]), e[k]), br(br(e[j], e[k]), e[i])),
                            br(br(e[k], e[i]), e[j]))
                        if not vec_is_zero(s):
                            bad.append((i, j, k))
            self._jacobi = tuple(bad)
        return list(self._jacobi)

    def basis_vector(self, i):
        return unit(self.dim, i)

    def graded_component_indices(self, n):
        if self.grading is None:
            raise ValueError("algebra carries no grading")
        return [i for i, w in enumerate(self.grading) if w == n]

    def to_json(self):
        out = {
            "dim": self.dim,
            "basis": list(self.basis_names),
            "brackets": [
                {"i": i, "j": j, "value": [format_scalar(c) for c in v]}
                for (i, j), v in sorted(self.brackets.items())
            ],
        }
        if self.grading is not None:
            out["grading"] = list(self.grading)
        return out

    @classmethod
    def from_json(cls, obj):
        brackets = {(b["i"], b["j"]): [scalar(c) for c in b["value"]]
                    for b in obj.get("brackets", [])}
        return cls(obj["dim"], brackets, basis_names=obj.get("basis"),
                   grading=obj.get("grading"))


class LieIdeal:
    """Ideal of a LieAlgebra, by an explicit basis in parent coordinates."""

    def __init__(self, parent, basis, check=True):
        self.parent = parent
        self.basis = [tuple(v) for v in echelon_basis(basis, parent.dim)]
        if check and not self.is_ideal():
            raise ValueError("span is not an ideal")

    @property
    def dim(self):
        return len(self.basis)

    def is_ideal(self):
        span = IncrementalSpan(self.basis)
        for i in range(self.parent.dim):
            e = self.parent.basis_vector(i)
            for v in self.basis:
                if not span.contains(self.parent.bracket(e, v)):
                    return False
        return True

    def contains(self, v):
        return span_contains(self.basis, v)


def heisenberg():
    """The 3-dimensional Heisenberg algebra: [e1, e2] = e3, e3 central."""
    return LieAlgebra(3, {(0, 1): (0, 0, 1)}, basis_names=("x", "y", "w"))


def abelian(n):
    return LieAlgebra(n, {})


class NonNilpotentError(ValueError):
    pass


def lower_central_series(L):
    """Descending chain of ideals G_1 = L, G_{n+1} = [L, G_n], down to zero.

    Raises NonNilpotentError when the chain fails to shrink before reaching
    zero, which characterises non-nilpotent input.
    """
    return [LieIdeal(L, basis, check=False) for basis in _lcs_bases(L)]


def _lcs_bases(L):
    """RREF bases of the lower central series, computed once per algebra.

    G_{n+1} is spanned by the nonzero products [e_i, b] over the basis b of
    G_n.  Only plain tuples are cached on L (ideals would point back at it).
    """
    if L._lcs is None:
        chain = [tuple(L.basis_vector(i) for i in range(L.dim))]
        while chain[-1]:
            span = IncrementalSpan()
            for i in range(L.dim):
                e = L.basis_vector(i)
                for b in chain[-1]:
                    v = L.bracket(e, b)
                    if not vec_is_zero(v):
                        span.add(v)
            if span.dim >= len(chain[-1]):
                raise NonNilpotentError(
                    "algebra is not nilpotent: its lower central series does not shrink")
            chain.append(tuple(echelon_basis(span.rows, L.dim)))
        L._lcs = tuple(chain)
    return L._lcs


def nilpotency_class(L):
    return len(_lcs_bases(L)) - 1


def lcs_dims(L):
    return [len(basis) for basis in _lcs_bases(L)]


class GradedLieAlgebra:
    """Graded Lie algebra: a LieAlgebra with weights, plus filtration data.

    algebra.grading holds the degree of each basis vector; when built from
    associated_graded, from_parent maps the graded basis back to a
    filtration-adapted basis of the original algebra.
    """

    def __init__(self, algebra, from_parent=None):
        if algebra.grading is None:
            raise ValueError("underlying algebra must be graded")
        self.algebra = algebra
        self.from_parent = from_parent  # list of parent-coordinate vectors

    @property
    def dim(self):
        return self.algebra.dim

    def component_dims(self):
        top = max(self.algebra.grading, default=0)
        return [len(self.algebra.graded_component_indices(n))
                for n in range(1, top + 1)]


def adapted_basis(L):
    """Filtration-adapted basis of a nilpotent L.

    Returns (vectors, degrees): vectors form a basis of L where the tail
    vectors of degree >= n span G_n; degrees[i] is the filtration step the
    i-th vector represents.
    """
    chain = lower_central_series(L)
    vectors = []
    degrees = []
    for n in range(len(chain) - 1):
        lower = chain[n + 1].basis
        # extend a basis of G_{n+1} to G_n; the new vectors represent gr_n
        current = IncrementalSpan(lower)
        for v in chain[n].basis:
            if current.add(v):
                vectors.append(v)
                degrees.append(n + 1)
    # order by degree so graded components are contiguous
    order = sorted(range(len(vectors)), key=lambda i: degrees[i])
    return [vectors[i] for i in order], [degrees[i] for i in order]


def associated_graded(L):
    """gr L with gr_n = G_n / G_{n+1} and the induced graded bracket."""
    vectors, degrees = adapted_basis(L)
    basis_matrix = Matrix.from_columns(vectors)
    inv = inverse(basis_matrix)
    dim = L.dim
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            w = degrees[i] + degrees[j]
            b = L.bracket(vectors[i], vectors[j])
            coords = inv.mul_vec(b)
            # quotient by the deeper filtration: keep only degree-w coordinates
            out = tuple(c if degrees[k] == w else ZERO for k, c in enumerate(coords))
            if not vec_is_zero(out):
                brackets[(i, j)] = out
    algebra = LieAlgebra(dim, brackets, grading=degrees)
    return GradedLieAlgebra(algebra, from_parent=vectors)


def direct_sum(L1, L2):
    """L1 + L2 with vanishing cross brackets."""
    d1, d2 = L1.dim, L2.dim
    brackets = {}
    for (i, j), v in L1.brackets.items():
        brackets[(i, j)] = tuple(v) + vec_zero(d2)
    for (i, j), v in L2.brackets.items():
        brackets[(d1 + i, d1 + j)] = vec_zero(d1) + tuple(v)
    grading = None
    if L1.grading is not None and L2.grading is not None:
        grading = L1.grading + L2.grading
    names = tuple("a." + n for n in L1.basis_names) + tuple("b." + n for n in L2.basis_names)
    return LieAlgebra(d1 + d2, brackets, basis_names=names, grading=grading)


def check_automorphism(L, m: Matrix) -> bool:
    """True iff m is invertible and m[x, y] = [mx, my] for all basis pairs."""
    if m.rows != L.dim or m.cols != L.dim:
        raise ValueError("matrix must be %d x %d" % (L.dim, L.dim))
    if rank(m) < L.dim:
        return False
    cols = m.columns()
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            lhs = m.mul_vec(L.basis_bracket(i, j))
            rhs = L.bracket(cols[i], cols[j])
            if lhs != rhs:
                return False
    return True


def quotient_by_ideal(L, ideal):
    """Quotient algebra L / I on a complement basis.

    Returns (Q, projection) where projection is a Matrix sending parent
    coordinates to quotient coordinates.  The projection is verified to be a
    Lie homomorphism, which also proves that the span is an ideal: for v in
    it, proj [v, e_j] = [proj v, proj e_j] = 0.  ValueError otherwise.
    """
    comp = []
    current = IncrementalSpan(ideal.basis)
    for i in range(L.dim):
        v = L.basis_vector(i)
        if current.add(v):
            comp.append(v)
    qdim = len(comp)
    # parent coords -> (ideal, complement) coords; keep the complement block
    basis_matrix = Matrix.from_columns(list(ideal.basis) + comp)
    inv = inverse(basis_matrix)
    proj = Matrix(inv.data[len(ideal.basis):]) if qdim else Matrix.zeros(0, L.dim)
    brackets = {}
    for i in range(qdim):
        for j in range(i + 1, qdim):
            v = proj.mul_vec(L.bracket(comp[i], comp[j]))
            if not vec_is_zero(v):
                brackets[(i, j)] = v
    grading = None
    if L.grading is not None:
        # the quotient inherits a grading only if the complement is homogeneous
        degs = []
        homogeneous = True
        for v in comp:
            ws = {L.grading[k] for k, c in enumerate(v) if c != 0}
            if len(ws) != 1:
                homogeneous = False
                break
            degs.append(ws.pop())
        if homogeneous:
            grading = degs
    Q = LieAlgebra(qdim, brackets, grading=grading)
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            lhs = proj.mul_vec(L.basis_bracket(i, j))
            if lhs != Q.bracket(proj.column(i), proj.column(j)):
                raise ValueError("not an ideal")
    return Q, proj
