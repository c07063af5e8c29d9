"""Finite-dimensional Lie algebras given by exact structure constants.

A ``LieAlgebra`` is immutable and is given the bracket only for basis
pairs (i, j) with i < j; antisymmetry holds by construction, so the only
well-definedness condition left to verify at runtime is the Jacobi identity.
Ideals are explicit lists of coordinate vectors in the parent's basis, which
keeps every downstream computation linear-algebraic.
"""

from itertools import combinations
from math import gcd, lcm
from types import MappingProxyType
from typing import NamedTuple

from .linalg import (
    Matrix, ZERO, scalar, integer, format_scalar, vec, vec_add, echelon_rows,
    rank, inverse, unit, IncrementalSpan, integer_terms, over, over_terms,
    _combine, _dense, _eliminate, _int_rows, _sparse, _transpose,
)


class LieAlgebra:
    """Lie algebra over the rationals, by structure constants.

    The one stored form is the int table (D, rows): D the least common
    denominator of the structure constants, rows[i] the (j, ((k, D c), ...))
    with [e_i, e_j] = sum c e_k != 0, j ascending, so equal structure
    constants give equal tables.  Every bracket runs on it: on int
    vectors, ``sparse_bracket(rows, u, v, 0)`` is D [u, v], and ``bracket``
    takes Fraction vectors as given and divides by D when D > 1.
    ``LieAlgebra(dim, brackets)`` takes dense vectors and keeps them as
    ``brackets``, the read-only view (i, j) -> [e_i, e_j] for i < j (missing
    pairs are zero) that ``to_json`` reads; ``of_ints`` takes int terms, and
    the view is then built on first read.  basis_names is a list of dim
    strings (e1, e2, ... by default).  An optional grading of positive
    weights must make the brackets additive.  ``from_json`` rejects a pair
    given twice.
    """

    def __init__(self, dim, brackets, basis_names=None, grading=None):
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise ValueError("dimension must be a nonnegative integer")
        dense = {}
        for (i, j), v in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError("bad bracket key (%d, %d)" % (i, j))
            v = vec(v)
            if len(v) != dim:
                raise ValueError("bracket value has wrong length")
            if any(v):
                dense[(i, j)] = v
        D, flat = integer_terms([[(k, c) for k, c in enumerate(v) if c] for v in dense.values()])
        self._set(dim, D, zip(dense, flat), basis_names, grading)
        self._brackets = MappingProxyType(dense)

    @classmethod
    def of_ints(cls, dim, D, pairs, grading=None, basis_names=None):
        """The algebra with D [e_i, e_j] = sum c e_k for an int D > 0 and
        pairs[(i, j)] = ((k, c), ...), i < j, c != 0 and k increasing:
        gcd(D, entries) is divided out, which leaves the least D."""
        g = gcd(D, *[c for terms in pairs.values() for _, c in terms])
        L = cls.__new__(cls)
        L._set(dim, D // g, pairs.items() if g == 1 else
               (((i, j), tuple((k, c // g) for k, c in terms)) for (i, j), terms in pairs.items()),
               basis_names, grading)
        return L

    def _set(self, dim, D, pairs, basis_names, grading):
        """The table of pairs ((i, j), terms), grading checked in one pass."""
        if basis_names is None:
            basis_names = ["e%d" % (i + 1) for i in range(dim)]
        elif not (isinstance(basis_names, (list, tuple)) and len(basis_names) == dim
                  and all(isinstance(s, str) for s in basis_names)):
            raise ValueError("basis must be a list of %d names (strings)" % dim)
        self.dim, self.basis_names = dim, tuple(basis_names)
        self.grading = g = tuple(grading) if grading is not None else None
        if g is not None and len(g) != dim:
            raise ValueError("grading length mismatch")
        if g is not None and any(w < 1 for w in g):
            raise ValueError("grading weights must be positive")
        rows = [[] for _ in range(dim)]
        for (i, j), terms in pairs:
            if g is not None and any(g[k] != g[i] + g[j] for k, _ in terms):
                raise ValueError("bracket [e%d, e%d] not homogeneous of weight %d"
                                 % (i, j, g[i] + g[j]))
            rows[i].append((j, terms))
            rows[j].append((i, tuple((k, -c) for k, c in terms)))
        self.table = (D, tuple(tuple(sorted(row)) for row in rows))  # partners ascending
        # on demand: the dense view, the bases of the lower central series,
        # a proven generating set and the basis triples failing Jacobi
        self._brackets = self._lcs = self._gens = self._jacobi = None
        self._stages = {}  # LCS stages (dgla.lcs_extension) by k, on demand

    @property
    def brackets(self):
        if self._brackets is None:
            D, rows = self.table
            self._brackets = MappingProxyType({(i, j): over_terms(terms, self.dim, D)
                                               for i, row in enumerate(rows)
                                               for j, terms in row if i < j})
        return self._brackets

    def bracket(self, x, y):
        """[x, y]: ``sparse_bracket`` on the table, x and y as given, over D."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length must equal dim=%d" % self.dim)
        D, rows = self.table
        out = sparse_bracket(rows, x, y, ZERO)
        return out if D == 1 else over(out, D)

    def check_jacobi(self):
        """Return the list of basis triples violating the Jacobi identity.

        Jacobi at (s, y, z) says ad_s is a derivation at (y, z), and the x
        with ad_x a derivation form a subalgebra: ad_[x,y] = [ad_x, ad_y] is
        a commutator of derivations.  So Jacobi on the basis triples that
        meet the generating set S of ``_generators``, whose iterated brackets
        span L, proves it on L (antisymmetry covers the other orders).  Those
        triples are made lazily, each once, at its first member in S; the
        sweep over all triples runs only to name failures.  Both run on the
        integer table, which scales each Jacobi sum by D^2.  The algebra is
        immutable, so this runs once per algebra; each call returns a fresh
        list of the kept triples."""
        if self._jacobi is None:
            n, rows = self.dim, self.table[1]
            e = [tuple(int(k == i) for k in range(n)) for i in range(n)]
            br = lambda x, y: sparse_bracket(rows, x, y, 0)
            def fails(t):
                x, y, z = (e[i] for i in t)
                return any(vec_add(vec_add(br(br(x, y), z), br(br(y, z), x)), br(br(z, x), y)))
            S = _generators(self)
            meeting = (tuple(sorted((s, j, k))) for m, s in enumerate(S)
                       for j, k in combinations([i for i in range(n)
                                                 if i != s and i not in S[:m]], 2))
            self._jacobi = tuple(filter(fails, combinations(range(n), 3))) if any(
                map(fails, meeting)) else ()
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
        brackets = {}
        for b in obj.get("brackets", []):
            key = (integer(b["i"]), integer(b["j"]))
            if key in brackets:
                raise ValueError("duplicate bracket entry (%d, %d)" % key)
            if not isinstance(b["value"], list):
                raise ValueError("bracket value (%d, %d) is not a list" % key)
            brackets[key] = [scalar(c) for c in b["value"]]
        grading = obj.get("grading")
        return cls(obj["dim"], brackets, basis_names=obj.get("basis"),
                   grading=None if grading is None else [integer(w) for w in grading])


def sparse_bracket(partners, x, y, zero):
    """D [x, y] from the rows of ``LieAlgebra.table``, by bilinear expansion
    over the nonzeros of x and their partners; an empty row is skipped
    before x_i is read.  A pair (i, j) where both x_i y_j and x_j y_i are
    nonzero is expanded once, with coefficient x_i y_j - x_j y_i.  The
    coordinates start at zero, so integer vectors stay integers and
    Fraction vectors (with zero = ZERO) give Fractions."""
    out = [zero] * len(partners)
    for i, row in enumerate(partners):
        if not row:
            continue
        xi = x[i]
        if not xi:
            continue
        yi = y[i]
        for j, terms in row:
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


class LieIdeal:
    """Ideal of a LieAlgebra, by its RREF basis in parent coordinates.

    rows holds the basis as primitive sparse int rows, one per pivot in
    order, each a multiple of an RREF row; basis, the RREF rows as Fraction
    tuples (each row over its pivot), is built from them on first read.  The
    constructor eliminates the spanning vectors it is given; it does not
    prove that their span is an ideal (``is_ideal`` does, and
    ``quotient_by_ideal`` proves it on a generating set).  ``_of_rows``
    takes rows of that form, as ``lower_central_series`` and
    ``graded_ideal_closure`` build them, as is."""

    def __init__(self, parent, basis):
        self.parent = parent
        self.rows = echelon_rows(_int_rows(basis, parent.dim)[1], parent.dim)[0]
        self._basis = None

    @classmethod
    def _of_rows(cls, parent, rows):
        ideal = cls.__new__(cls)
        ideal.parent, ideal.rows, ideal._basis = parent, rows, None
        return ideal

    @property
    def basis(self):
        if self._basis is None:
            self._basis = [over_terms(r, self.parent.dim, r[0][1]) for r in self.rows]
        return self._basis

    @property
    def dim(self):
        return len(self.rows)

    def is_ideal(self):
        span, table = IncrementalSpan(self.rows), map(dict, self.parent.table[1])
        return all(span.contains(_combine(row, r)) for row in table for r in self.rows)


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
    return [LieIdeal._of_rows(L, rows) for rows in _lcs_bases(L)]


def _lcs_bases(L):
    """The lower central series as the rows of ``LieIdeal``, computed once
    per algebra.

    G_2 = [L, L] is the span of the table values (``echelon_rows``);
    G_{n+1} for n >= 2 is spanned by ad(e_i) b over the rows b of G_n, for
    each i whose row of ``L.table`` is not empty (an empty row
    brackets everything to 0).  That table gives int multiples of the
    [e_i, b], so the same span, and ``echelon_rows`` gives the rows of
    G_{n+1}.  Only tuples of rows are cached on L (ideals would point back
    at it).
    """
    if L._lcs is None:
        n = L.dim
        partnered = [dict(row) for row in L.table[1] if row]
        chain = [tuple(((i, 1),) for i in range(n))]
        rows = echelon_rows(_values(L), n)[0]
        while chain[-1]:
            if len(rows) >= len(chain[-1]):
                raise NonNilpotentError(
                    "algebra is not nilpotent: its lower central series does not shrink")
            chain.append(tuple(rows))
            rows = echelon_rows([_combine(row, b) for row in partnered for b in chain[-1]], n)[0]
        L._lcs = tuple(chain)
    return L._lcs


def _values(L):
    """The int rows D [e_i, e_j] of the pairs i < j in ``L.table``."""
    return [terms for i, row in enumerate(L.table[1]) for j, terms in row if i < j]


def nilpotency_class(L):
    return len(_lcs_bases(L)) - 1


def lcs_dims(L):
    return [len(basis) for basis in _lcs_bases(L)]


class GradedLieAlgebra(NamedTuple):
    """gr L from ``associated_graded``: the graded algebra, whose grading
    holds the degree of each basis vector; from_parent, the
    filtration-adapted basis of L (parent coordinates) it maps back to; and
    adapted, L in that basis (``change_basis``)."""
    algebra: LieAlgebra
    from_parent: list
    adapted: LieAlgebra


def adapted_basis(L):
    """Filtration-adapted basis of a nilpotent L, as int rows.

    Returns (rows, degrees): the rows form a basis of L where the tail rows
    of degree >= n span G_n; degrees[i] is the filtration step the i-th row
    represents, ascending, so graded components are contiguous.  Each row is
    a row of the series (``_lcs_bases``) that ``IncrementalSpan`` adds, a
    multiple of an RREF row; the degree-1 rows are the unit vectors of
    ``unit_complement`` of G_2.
    """
    chain = _lcs_bases(L)
    rows, degrees = [], []
    for n in range(len(chain) - 1):
        # extend a basis of G_{n+1} to G_n; the new rows represent gr_{n+1}
        current = IncrementalSpan(chain[n + 1])
        for row in chain[n]:
            if current.add(row):
                rows.append(row)
                degrees.append(n + 1)
    return rows, degrees


def associated_graded(L):
    """gr L with gr_n = G_n / G_{n+1} and the induced graded bracket.

    The rows of ``adapted_basis``, scaled to a common pivot P, are the int
    columns over P of the basis matrix, and ``change_basis`` gives L in
    the adapted basis.  gr L keeps of each [p_i, p_j] its terms of degree
    deg i + deg j: [G_a, G_b] lies in G_{a+b}, so no term of lower degree
    is nonzero."""
    rows, degrees = adapted_basis(L)
    P = lcm(*[r[0][1] for r in rows])
    rows = [tuple((j, a * (P // r[0][1])) for j, a in r) for r in rows]
    A = change_basis(L, Matrix.of_ints(P, _transpose(rows, L.dim), L.dim))
    D, table = A.table
    pairs = {(i, j): kept for i, row in enumerate(table) for j, terms in row if i < j
             and (kept := tuple((k, c) for k, c in terms if degrees[k] == degrees[i] + degrees[j]))}
    algebra = LieAlgebra.of_ints(L.dim, D, pairs, grading=degrees)
    return GradedLieAlgebra(algebra, [over_terms(r, L.dim, P) for r in rows], A)


def change_basis(L, m: Matrix):
    """L in the basis of the columns f_i of an invertible m, as the int
    table of [f_i, f_j] = m^-1 [m e_i, m e_j] (ValueError unless m is
    dim x dim and invertible).  With m = M / D_m and m^-1 = N / D_N on
    their int rows, ``sparse_bracket`` of the int columns of M on
    ``L.table`` gives D D_m^2 [m e_i, m e_j], and the int rows of N take it
    to int terms over D D_N D_m^2 (``LieAlgebra.of_ints``)."""
    n = L.dim
    if (m.rows, m.cols) != (n, n):
        raise ValueError("matrix must be %d x %d" % (n, n))
    D_m, rows = m.integer_view()
    cols = [_dense(c, n) for c in _transpose(rows, n)]
    D_N, inv = inverse(m).integer_view()
    D, table = L.table
    pairs = {}
    for i, u in enumerate(cols):
        for j in range(i + 1, n):
            if any(b := sparse_bracket(table, u, cols[j], 0)) and (
                    terms := _sparse([sum([c * b[t] for t, c in row]) for row in inv])):
                pairs[(i, j)] = terms
    return LieAlgebra.of_ints(n, D * D_N * D_m * D_m, pairs)


def direct_sum(L1, L2):
    """L1 + L2 with vanishing cross brackets, on the int tables over the lcm
    of their D."""
    D = lcm(L1.table[0], L2.table[0])
    pairs = {(o + i, o + j): tuple((o + k, c * (D // Dk)) for k, c in terms)
             for o, (Dk, rows) in ((0, L1.table), (L1.dim, L2.table))
             for i, row in enumerate(rows) for j, terms in row if i < j}
    grading = None if None in (L1.grading, L2.grading) else L1.grading + L2.grading
    names = tuple("a." + n for n in L1.basis_names) + tuple("b." + n for n in L2.basis_names)
    return LieAlgebra.of_ints(L1.dim + L2.dim, D, pairs, grading=grading, basis_names=names)


def is_lie_isomorphism(src, dst, m: Matrix) -> bool:
    """True iff the square m is a Lie isomorphism src -> dst: it has full
    rank and dst in the basis of its columns (``change_basis``) has the
    table of src.  ValueError unless m is n x n for n = src.dim = dst.dim."""
    if (dst.dim, m.rows, m.cols) != (src.dim,) * 3:
        raise ValueError("matrix must be %d x %d, between algebras of that dimension"
                         % (src.dim, src.dim))
    return rank(m) == m.rows and change_basis(dst, m).table == src.table


def check_automorphism(L, m: Matrix) -> bool:
    """True iff m is invertible and m[x, y] = [mx, my] for all basis pairs."""
    return is_lie_isomorphism(L, L, m)


def _generators(L):
    """Indices of unit vectors that generate L, proven once per algebra.

    S is the unit vectors completing [L, L] (the span of the table values).
    The loop spans the ad(S)-closure of S, and each vector it adds is an
    iterated bracket [s_1, [s_2, ..., s_k]] of S, so the closure lies in
    every subalgebra containing S; Jacobi is not used.  It runs on int rows:
    the rows of ``L.table`` give D times each bracket, the same span.
    S is kept if the closure is L, as it is for nilpotent L, and otherwise
    every index is returned.
    """
    if L._gens is None:
        derived = set(echelon_rows(_values(L), L.dim)[1])
        gens = [i for i in range(L.dim) if i not in derived]
        partners = {i: dict(L.table[1][i]) for i in gens}
        span, todo = IncrementalSpan(), [((i, 1),) for i in gens]
        while todo and span.dim < L.dim:
            v = todo.pop()
            if span.add(v):
                todo += [_combine(partners[i], v) for i in gens]
        L._gens = tuple(gens) if span.dim == L.dim else tuple(range(L.dim))
    return L._gens


def unit_complement(rows, n):
    """(comp, last) for sparse int rows spanning a subspace I of Q^n.

    comp lists the unit vectors e_c, ascending, that are not in I plus the
    earlier e_j: the greedy unit complement of I, which ``adapted_basis``
    picks as the degree-1 rows when I = G_2.  They are the non-pivot columns
    of the RREF of I with its columns reversed, as e_c is in I + <e_j : j < c>
    iff some vector of I ends at c; one ``_eliminate`` of the reversed rows
    finds them.  last maps every other column p to (R_p, a_p): R_p the
    sparse int row of that elimination whose last term is (p, a_p), with no
    term at the other keys of last."""
    rev = [tuple((n - 1 - j, a) for j, a in reversed(r)) for r in rows]
    pivots = _eliminate(rev, n)
    last = {n - 1 - p: (tuple((n - 1 - j, a) for j, a in reversed(r)), r[0][1])
            for r, p in zip(rev, pivots)}
    return [c for c in range(n) if c not in last], last


def quotient_by_ideal(L, ideal):
    """Quotient algebra L / I on a complement basis; L must satisfy Jacobi.

    Returns (Q, projection), a Matrix from parent to quotient coordinates.
    The complement is ``unit_complement`` of the int rows of I.  As
    e_p = R_p - sum_c R_p[c] e_c, R_p being the int row of I over its last
    nonzero entry, the projection sends e_c to the unit vector at c and e_p
    to -(R_p on the complement).  It is made of sparse int columns over E,
    the lcm of those last entries, and Q's table is the projection of the
    rows of the complement in ``L.table`` (D times the structure constants):
    int terms over D E (``LieAlgebra.of_ints``).  Q's grading is L's on the
    (homogeneous) unit vectors.

    The ideal check is [s, b] in I for s in a generating set S of L
    (``_generators``) and b in the int rows of I.  That is a proof: by Jacobi
    {x : [x, I] in I} is a subalgebra, and it contains S, so it is L; then Q
    is the quotient algebra by construction.  ValueError otherwise.  The
    projection of D [s, b] over the int columns is D E times the projection
    of [s, b], which is zero iff [s, b] lies in I.
    """
    n = L.dim
    comp, last = unit_complement(ideal.rows, n)
    E = lcm(*[pv for _, pv in last.values()])
    at = {c: q for q, c in enumerate(comp)}
    cols = [((at[c], E),) if c in at else
            tuple((at[k], -x * (E // last[c][1])) for k, x in last[c][0] if k in at)
            for c in range(n)]
    project = dict(enumerate(cols))
    D, table = L.table
    pairs = {(i, at[j]): v for i, a in enumerate(comp) for j, terms in table[a]
             if at.get(j, -1) > i and (v := _combine(project, terms))}
    Q = LieAlgebra.of_ints(len(comp), D * E, pairs,
                           grading=None if L.grading is None else [L.grading[c] for c in comp])
    for s in _generators(L):
        partners = dict(table[s])
        for b in ideal.rows:
            if _combine(project, _combine(partners, b)):
                raise ValueError("not an ideal")
    return Q, Matrix.of_ints(E, _transpose(cols, len(comp)), n)
