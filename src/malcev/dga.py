"""Finite graded-commutative DGAs, cohomology rings, and Massey products.

Degrees run 0..D with dense per-degree bases.  The differential raises
degree by one.  A ``FiniteDGA`` is immutable and keeps one sparse int table
for its products and one for d, each over the lcm of its denominators,
built once; ``products`` and ``d`` are read-only dense views derived from
them.  The Chevalley-Eilenberg functor turns any finite-dimensional Lie
algebra into a test-case DGA whose d^2 = 0 is equivalent to the Jacobi
identity.

Every ``FiniteDGA(...)`` proves the DGA axioms on construction, on a
generating set S of the algebra rather than over all basis triples: the
elements on which associativity holds against everything form a
subalgebra, and given associativity so do the elements that graded-commute,
and those on which d obeys Leibniz; given Leibniz, d^2 is a derivation, so
its kernel is a subalgebra too.  Each axiom that holds on S therefore holds
on all of A (see ``FiniteDGA.validate``), on the int tables.  Only when a
check fails do the same checks run over every basis vector, to name the
failures.  A Chevalley-Eilenberg complex is a DGA by construction and
checks only d^2 = 0 on degree 1, which is Jacobi (the proof is in
``chevalley_eilenberg``), and fills the product rows of a degree pair on
its first read.  ``cohomology``, read off the int columns of d by one
elimination per degree and one echelon span per degree for the
representatives, is made once per DGA and builds each degree on its first
read; it is shared by all its Betti numbers, Massey products and MC stages.
The formality report decides every class in degree 2 on the rows of the
preimage solver of d^1, which map H^2 injectively, so it builds no degree-2
class solver; its witnesses build their class coordinates on first read.
It works on one triangle of the cup table, as degree (1, 1) is
graded-commutative: it multiplies and solves the pairs i < j only, and
decides the triples (i, j, k) with i <= k, as the mirror (k, j, i) has the
same representative and indeterminacy, and (i, i, i) has representative 0.
"""

import itertools
from functools import cached_property
from math import lcm
from types import MappingProxyType

from .linalg import (
    Matrix, ZERO, scalar, format_scalar, vec_scale, vec_sub, vec_is_zero,
    echelon_basis, echelon_rows, span_contains, unit, IncrementalSpan, AffineSolver,
    integer_terms, _combine, _dense, _eliminate, _null_rows, _transpose, over, over_terms, integer,
)


def sparse_product(rows, u, v, n, zero):
    """D_m u v in a degree of dimension n, for rows a degree pair of the
    table of a ``FiniteDGA``, by bilinear expansion over the nonzeros of u
    and their nonzero basis products; int vectors give ints, and Fraction
    vectors (with zero = ZERO) give Fractions."""
    out = [zero] * n
    for i, a in enumerate(u):
        if a:
            for j, terms in rows[i].items():
                b = v[j]
                if b:
                    ab = a * b
                    for k, c in terms:
                        out[k] += ab * c
    return out


def _d_squared(dcol, p, i):
    """Whether d^2 of the i-th basis vector of degree p is nonzero, on the
    int columns dcol of d (the columns of ``FiniteDGA.dcol``)."""
    acc = {}
    for m, e in dcol[p][i]:
        for t, f in dcol[p + 1][m]:
            acc[t] = acc.get(t, 0) + e * f
    return any(acc.values())


def _d_rows(dims, cols, n):
    """The sparse int rows of d[n], from its int columns cols[n]."""
    return _transpose(cols[n], dims[n + 1] if n + 1 < len(dims) else 0)


def _d_matrix(dims, D, cols, n):
    """d[n] as a Matrix, of its int columns cols[n] over D."""
    return Matrix.of_ints(D, _d_rows(dims, cols, n), dims[n])


def _lists(obj, depth):
    """Whether obj is a list, of lists to the given depth."""
    return isinstance(obj, list) and (depth == 1 or all(_lists(x, depth - 1) for x in obj))


def _nonzero(cell):
    """The terms (k, c) of the nonzero entries of a product cell.  An int 0
    or a string "0", most of the entries of a JSON table, is skipped
    without a Fraction; ``scalar`` reads every other entry, so a bool, a
    float or a malformed string is still rejected."""
    terms = []
    for k, x in enumerate(cell):
        if x.__class__ in (int, str) and x in (0, "0"):
            continue
        if c := scalar(x):
            terms.append((k, c))
    return tuple(terms)


class FiniteDGA:
    """Graded-commutative DGA on finite per-degree bases.

    dims[n] is the dimension in degree n; d[n] the matrix of the
    differential degree n -> n+1; products maps (p, q) to the table whose
    [i][j] is the coordinate vector in degree p+q of (i-th degree-p basis) *
    (j-th degree-q basis), for the degree pairs given.  A pair given in one
    order only is read in the other by graded commutativity; pairs given in
    neither order multiply to zero.

    The one stored form is a sparse int table per structure, over the lcm
    D_m or D_d of its denominators: table = (D_m, rows), rows[(p, q)][i] =
    {j: ((k, D_m c), ...)} for a_i a_j = sum c a_k != 0, p + q <= top; dcol =
    (D_d, cols), cols[n][j] the nonzero (k, D_d d[n][k][j]) of column j of
    d[n], read off the integer view of each d[n] (a missing d[n] is zero).
    ``product`` and ``diff`` take Fraction vectors as they are and divide by
    D_m or D_d only when it is > 1.  products and d are read-only views
    derived on first use.  __init__ checks that dims is a nonempty list of
    nonnegative ints, the shapes and the DGA axioms (ValueError otherwise).
    The private ``_of_tables`` takes the tables as stored and runs the same
    ``validate``, except for ``chevalley_eilenberg``, a DGA by construction,
    whose product pairs are filled on first read (``_pair``); ``table``
    reads every pair.  So every FiniteDGA is a DGA.  A zero-row d[n] keeps
    dims[n] columns.
    """

    def __init__(self, dims, d, products):
        dims = list(dims)
        if not dims or any(type(n) is not int or n < 0 for n in dims):
            raise ValueError("dims must be a nonempty list of nonnegative ints, not %r" % (dims,))
        top, image_dims = len(dims) - 1, dims[1:] + [0]
        d = [m if isinstance(m, Matrix) else Matrix(m) for m in d]
        if len(d) > top + 1 or any(m.rows != image_dims[n] or (m.rows and m.cols != dims[n])
                                   for n, m in enumerate(d)):
            raise ValueError("differentials do not match dims %s" % dims)
        D_d = lcm(*[m.integer_view()[0] for m in d])
        cols = [[[] for _ in range(m)] for m in dims]  # missing d[n] are zero
        for col, m in zip(cols, d):
            D, rows = m.integer_view()
            for k, terms in enumerate(rows):
                for j, c in terms:
                    col[j].append((k, c * (D_d // D)))
        for (p, q), table in products.items():
            if (min(p, q) < 0 or p + q > top or len(table) != dims[p]
                    or any(len(row) != dims[q] or
                           any(len(cell) != dims[p + q] for cell in row)
                           for row in table)):
                raise ValueError("product table (%d,%d) does not match dims %s"
                                 % (p, q, dims))
        cells = [(key, i, j, terms) for key, table in products.items()
                 for i, row in enumerate(table) for j, cell in enumerate(row)
                 if (terms := _nonzero(cell))]
        D_m, flat = integer_terms([terms for *_, terms in cells])
        mult = {(p, q): tuple({} for _ in range(dims[p]))
                for p in range(top + 1) for q in range(top + 1 - p)}
        for ((p, q), i, j, _), terms in zip(cells, flat):
            mult[(p, q)][i][j] = terms
            if (q, p) not in products:
                sign = (-1) ** (p * q)
                mult[(q, p)][j][i] = tuple((k, sign * c) for k, c in terms)
        self._set(dims, (D_m, mult), tuple(products),
                  (D_d, tuple(tuple(map(tuple, col)) for col in cols)), True)

    @classmethod
    def _of_tables(cls, dims, table, keys, dcol, check, fill=None):
        """The DGA of the stored tables, with the degree pairs keys in
        ``products``; ``validate`` runs when check is true.  With fill,
        table holds only some degree pairs, and fill(p, q) gives the rows
        of any other (``_pair``)."""
        A = cls.__new__(cls)
        A._set(dims, table, keys, dcol, check, fill)
        return A

    def _set(self, dims, table, keys, dcol, check, fill=None):
        self.dims, self.top = dims, len(dims) - 1
        self._table, self._fill, self.dcol, self._keys = table, fill, dcol, keys
        self._products = self._d = None  # the dense views, on demand
        self._cohomology = None  # the CohomologyData, on demand
        self._unimodular = False  # a CE complex of a unimodular L (``betti``)
        errors = check and self.validate()
        if errors:
            raise ValueError("DGA axioms violated: " + "; ".join(errors))

    @property
    def table(self):
        """(D_m, rows), with the rows of every degree pair p + q <= top."""
        if self._fill is not None:
            for p in range(self.top + 1):
                for q in range(self.top + 1 - p):
                    self._pair(p, q)
            self._fill = None
        return self._table

    def _pair(self, p, q):
        """rows[(p, q)] of the table, filled on its first read when the
        DGA was made with a fill (``chevalley_eilenberg``)."""
        mult = self._table[1]
        rows = mult.get((p, q))
        if rows is None:
            rows = mult[(p, q)] = self._fill(p, q)
        return rows

    @property
    def products(self):
        """The read-only dense tables of the degree pairs given, derived from
        the table on first use and kept."""
        if self._products is None:
            (D_m, mult), dims = self.table, self.dims
            self._products = MappingProxyType({
                (p, q): tuple(tuple(over_terms(row.get(j, ()), dims[p + q], D_m)
                                    for j in range(dims[q])) for row in mult[(p, q)])
                for p, q in self._keys})
        return self._products

    @property
    def d(self):
        """The tuple of the matrices d[n], derived from dcol on first use."""
        if self._d is None:
            self._d = tuple(_d_matrix(self.dims, *self.dcol, n) for n in range(self.top + 1))
        return self._d

    def dim(self, n):
        """The dimension in degree n, 0 outside 0..top."""
        return self.dims[n] if 0 <= n <= self.top else 0

    def diff(self, n, v):
        """d v, on the int columns of d with v as given, over D_d."""
        if self.dim(n + 1) == 0:
            return ()
        D, cols = self.dcol
        out = [ZERO] * self.dims[n + 1]
        for a, col in zip(v, cols[n], strict=True):
            if a:
                for k, c in col:
                    out[k] += a * c
        return tuple(out) if D == 1 else over(out, D)

    def product(self, p, vp, q, vq):
        """vp * vq: ``sparse_product`` on the table, with vp and vq as given,
        over D_m."""
        n = p + q
        if n > self.top:
            return ()
        D = self._table[0]
        out = sparse_product(self._pair(p, q), vp, vq, self.dims[n], ZERO)
        return tuple(out) if D == 1 else over(out, D)

    def basis_vector(self, n, i):
        return unit(self.dims[n], i)

    def validate(self):
        """The DGA axioms: [] for a DGA, else the failing degrees as errors.

        The axioms are proved on a generating set S (``_generators``): every
        basis vector of A^0, and in each degree n >= 1 unit vectors that
        complete the span of the decomposables A^p A^q (p, q >= 1, p + q = n).
        By induction on the degree, S generates A as an algebra.  For every s
        in S and all basis vectors y, z the checks are

        - associativity (s y) z = s (y z);
        - graded commutativity s y = (-1)^{|s||y|} y s;
        - Leibniz d(s y) = ds y + (-1)^{|s|} s dy;
        - d^2 s = 0.

        Each then holds on all of A, because the elements that satisfy it
        form a subalgebra.  The x with (x y) z = x (y z) for all y, z form a
        subspace, closed under products: ((x x') y) z = (x (x' y)) z =
        x ((x' y) z) = x (x' (y z)) = (x x') (y z).  Given associativity,
        the same three steps close the x that graded-commute with every y,
        and the x on which d obeys Leibniz against every y.  Given Leibniz,
        d^2 is an even derivation, d^2(x y) = d^2x y + x d^2y, so its kernel
        is a subalgebra too.  The checks read the sparse table, so they cost
        |S| times the nonzero products of A rather than a sweep over all
        basis triples.

        Only when a check on S fails do the same checks run over every basis
        vector in place of S, to name every failing degree: each is then the
        plain check of its axiom on a basis pair or triple (s, y, z).
        """
        if next(self._axiom_failures(self._generators()), None) is None:
            return []
        return sorted(set(self._axiom_failures(
            (n, i) for n in range(self.top + 1) for i in range(self.dims[n]))))

    def _generators(self):
        """(degree, index) of the generating set S of ``validate``: in
        degree n >= 1, the unit vectors off the pivots of the span of the
        products a_i a_j with |a_i| = p, 1 <= p <= n - p.  On the int
        table, a single-term product is a multiple of e_k, pivot k (the scan
        stops once those fill the degree), and one ``_eliminate`` of the
        multi-term products with those coordinates dropped gives the other
        pivots.  The products with p > n - p are not needed: S generates A
        as long as each product taken has factors of lower degree."""
        mult = self.table[1]
        gens = [(0, i) for i in range(self.dims[0])]
        for n in range(1, self.top + 1):
            units, multi = set(), []
            products = (terms for p in range(1, n // 2 + 1)
                        for row in mult[(p, n - p)] for terms in row.values())
            for terms in products:
                if len(units) == self.dims[n]:
                    break
                if len(terms) == 1:
                    units.add(terms[0][0])
                else:
                    multi.append(terms)
            rows = [tuple((k, c) for k, c in terms if k not in units) for terms in multi]
            units.update(_eliminate(rows, self.dims[n]))
            gens += [(n, k) for k in range(self.dims[n]) if k not in units]
        return gens

    def _axiom_failures(self, gens):
        """The four checks of ``validate`` for s in gens, lazily: the error
        of each failing degree, once per failing (s, y) (and per degree of z
        for associativity).  They read the sparse table and the nonzeros of
        each column of d; each side of an identity is summed into one dict,
        which must come out zero.  They run on the int tables: the products
        scaled by D_m and d by D_d.  Each identity is homogeneous in table
        factors (two products on each side of associativity, one product and
        one d in each Leibniz term, one product in graded commutativity, two
        d's in d^2), so scaling multiplies all its terms by one D_m^2,
        D_m D_d, D_m or D_d^2, and the scaled check is the same check."""
        top, none = self.top, ()
        mult, dcol = self.table[1], self.dcol[1]
        for p, i in gens:
            p_sign = (-1) ** p
            if _d_squared(dcol, p, i):
                yield "d^2 != 0 at degree %d" % p
            for q in range(top + 1 - p):
                sign = (-1) ** (p * q)
                s_row, s_col = mult[(p, q)][i], mult[(q, p)]
                for j in range(self.dims[q]):
                    sy = s_row.get(j, none)
                    if sy != tuple((k, sign * c) for k, c in s_col[j].get(i, none)):
                        yield "graded commutativity fails at (%d,%d)" % (p, q)
                    acc = {}                             # (s y) z - s (y z)
                    for r in range(top + 1 - p - q):
                        for k, c in sy:
                            for z, terms in mult[(p + q, r)][k].items():
                                for t, e in terms:
                                    key = (r, z, t)
                                    acc[key] = acc.get(key, 0) + c * e
                        for z, terms in mult[(q, r)][j].items():
                            for m, e in terms:
                                for t, f in mult[(p, q + r)][i].get(m, none):
                                    key = (r, z, t)
                                    acc[key] = acc.get(key, 0) - e * f
                    if any(acc.values()):
                        for r in sorted({r for (r, _, _), v in acc.items() if v}):
                            yield "associativity fails at (%d,%d,%d)" % (p, q, r)
                    if p + q == top:
                        continue
                    acc = {}                             # d(s y) - ds y - (-1)^p s dy
                    for k, c in sy:
                        for t, e in dcol[p + q][k]:
                            acc[t] = acc.get(t, 0) + c * e
                    for m, e in dcol[p][i]:
                        for t, f in mult[(p + 1, q)][m].get(j, none):
                            acc[t] = acc.get(t, 0) - e * f
                    for m, e in dcol[q][j]:
                        for t, f in mult[(p, q + 1)][i].get(m, none):
                            acc[t] = acc.get(t, 0) - p_sign * e * f
                    if any(acc.values()):
                        yield "Leibniz fails at (%d,%d)" % (p, q)

    def to_json(self):
        return {
            "dims": self.dims,
            "d": [[[format_scalar(c) for c in row] for row in m.data] for m in self.d],
            "product": {
                "%d,%d" % key: [[[format_scalar(c) for c in cell] for cell in row]
                                for row in table]
                for key, table in sorted(self.products.items())
            },
        }

    @classmethod
    def from_json(cls, obj):
        """The DGA of ``to_json``: a product key must be the canonical "p,q",
        a degree pair may appear once, and each product table and d is a list
        of lists of lists, not strings read as characters (ValueError)."""
        products = {}
        for key, table in obj.get("product", {}).items():
            p, q = (int(t) for t in key.split(","))
            if (p, q) in products:
                raise ValueError("duplicate product table (%d,%d)" % (p, q))
            if key != "%d,%d" % (p, q):
                raise ValueError("product key %r is not of the form \"p,q\"" % key)
            if not _lists(table, 3):
                raise ValueError("product table %s is not a list of rows of lists" % key)
            products[(p, q)] = table
        if not _lists(obj["d"], 3):
            raise ValueError("d is not a list of matrices, each a list of rows (lists)")
        return cls([integer(n) for n in obj["dims"]],
                   [Matrix(m) if m else Matrix.zeros(0, 0) for m in obj["d"]],
                   products)


# ---------------------------------------------------------------------------
# Cohomology of a cochain complex

class CohomologyData:
    """Betti numbers and representative bases of a finite cochain complex.

    It is made from dims and the int columns dcol = (D, cols) of d, as
    ``FiniteDGA.dcol`` holds them, and works on sparse int rows.
    ``degree(n)`` builds the rows of degree n on its first read and keeps
    them: (S, cocycle rows, coboundary rows),

    - the cocycle rows: ``_null_rows`` of the int rows of d[n], a kernel
      basis over the one scale S;
    - the coboundary rows: the primitive rows that ``echelon_rows`` leaves
      of the int columns of d[n-1], each a multiple of a row of the RREF of
      the image (the RREF of a span is unique).

    ``representative_rows(n)``, built on its first read, are the cocycle
    rows, in order, that grow one IncrementalSpan seeded with the coboundary
    rows.  So a reader of some degrees eliminates only those, and
    ``betti_number`` counts rows: the coboundary rows are independent
    cocycles, as d^2 = 0 in every FiniteDGA.  ``cocycles``,
    ``coboundaries`` and ``representatives`` are read-only tuples over every
    degree of Fraction vectors built on first read: the cocycle and
    representative rows over S, and each coboundary row over its pivot (its
    RREF row).  The linear systems it answers, class coordinates and
    preimages under d, each get one AffineSolver per degree, of a Matrix
    made with ``Matrix.of_ints`` from these rows and from dcol on first use,
    and kept.  ``cohomology`` shares one CohomologyData per DGA.
    """

    def __init__(self, dims, dcol):
        self.dims = list(dims)
        self.top = len(self.dims) - 1
        self.dcol = dcol
        self._solvers = {}
        self._rows, self._reps = {}, {}
        self._poincare = False  # H^k = H^{top-k}: set by ``cohomology``

    def degree(self, n):
        """The rows (S, cocycles, coboundaries) of degree n, built on first
        read."""
        if n not in self._rows:
            m, cols = self.dims[n], self.dcol[1]
            S, z = _null_rows(_d_rows(self.dims, cols, n), m)
            self._rows[n] = (S, z, echelon_rows(cols[n - 1], m)[0] if n else [])
        return self._rows[n]

    def representative_rows(self, n):
        """The representative rows of degree n, built on first read."""
        if n not in self._reps:
            _, z, b = self.degree(n)
            span = IncrementalSpan(b)
            self._reps[n] = [v for v in z if span.add(v)]
        return self._reps[n]

    def betti_number(self, n):
        """b_n, the cocycle rows of degree n less its coboundary rows."""
        _, z, b = self.degree(n)
        return len(z) - len(b)

    def betti(self):
        """The Betti numbers b_0..b_top.  For the CE complex of a unimodular
        L of dimension N, b_k = b_{N-k}, so only the degrees k <= N/2 are
        eliminated (the proof is in ``chevalley_eilenberg``); every other
        complex eliminates every degree."""
        top = self.top
        return [self.betti_number(min(n, top - n) if self._poincare else n)
                for n in range(top + 1)]

    @cached_property
    def cocycles(self):
        return tuple(tuple(over_terms(v, m, S) for v in z)
                     for m, (S, z, _) in zip(self.dims, map(self.degree, range(self.top + 1))))

    @cached_property
    def coboundaries(self):
        return tuple(tuple(over_terms(r, m, r[0][1]) for r in b)
                     for m, (_, _, b) in zip(self.dims, map(self.degree, range(self.top + 1))))

    @cached_property
    def representatives(self):
        return tuple(map(self._representatives, range(self.top + 1)))

    def _representatives(self, n):
        """The representatives of degree n, without building the others."""
        S = self.degree(n)[0]
        return tuple(over_terms(v, self.dims[n], S) for v in self.representative_rows(n))

    def _solver(self, key, build):
        if key not in self._solvers:
            self._solvers[key] = build()
        return self._solvers[key]

    def class_solver(self, n):
        """The AffineSolver of [representatives | coboundaries] in degree n:
        as every column is a pivot, the first b_n rows of its E are a linear
        map C that gives the class coordinates of every cocycle.  Column j
        is an int row v_j over its scale s_j (S, or the pivot of a
        coboundary row), so the matrix is the int rows (L / s_j) v_j over
        the lcm L of the s_j."""
        def build():
            S, _, b = self.degree(n)
            cols = [(v, S) for v in self.representative_rows(n)] + [(r, r[0][1]) for r in b]
            L = lcm(*(s for _, s in cols))
            cols = [tuple((k, a * (L // s)) for k, a in v) for v, s in cols]
            return AffineSolver(Matrix.of_ints(L, _transpose(cols, self.dims[n]), len(cols)))
        return self._solver(("class", n), build)

    def class_coordinates(self, n, v):
        """Coordinates of a closed vector's class in the representative basis."""
        b, reps = self.degree(n)[2], self.representative_rows(n)
        if not (reps or b):
            assert vec_is_zero(v)
            return ()
        x = self.class_solver(n).solve(v)
        assert x is not None, "vector is not a cocycle"
        return x[:len(reps)]

    def preimage_solver(self, n):
        """The AffineSolver of d[n-1], on its int rows."""
        return self._solver(("d", n - 1), lambda: AffineSolver(
            _d_matrix(self.dims, *self.dcol, n - 1)))

    def preimage(self, n, v):
        """The x in degree n - 1 with d x = v and free variables zero, or
        None when v is not exact."""
        return self.preimage_solver(n).solve(v)


def cohomology(dga: FiniteDGA) -> CohomologyData:
    """The cohomology of dga, computed once per DGA: a FiniteDGA is
    immutable, so every caller shares one CohomologyData and its solvers."""
    if dga._cohomology is None:
        dga._cohomology = CohomologyData(dga.dims, dga.dcol)
        dga._cohomology._poincare = dga._unimodular
    return dga._cohomology


def cohomology_ring(dga: FiniteDGA) -> FiniteDGA:
    """H(A) with the induced product and zero differential."""
    H = cohomology(dga)
    dims = H.betti()
    top = dga.top
    products = {(p, q): [[H.class_coordinates(p + q, dga.product(p, a, q, b)) if dims[p + q]
                          else () for b in H.representatives[q]] for a in H.representatives[p]]
                for p in range(top + 1) for q in range(top + 1 - p)}
    return FiniteDGA(dims, [], products)  # every d[n] is zero


def adjoin_acyclic(dga: FiniteDGA, deg: int = 1):
    """A (+) (acyclic two-step piece a, b with da = b) in degrees deg, deg+1.

    All products touching the new coordinates vanish, so the result is a
    valid graded-commutative DGA and the evident inclusion is a
    quasi-isomorphism.  Returns (B, inclusion_matrices).  B is built on the
    int tables: a and b come last in their degrees, dcol gains the columns
    D_d b of a and () of b, the product table an empty row for each, and
    ``validate`` checks B as ``FiniteDGA(...)`` would.
    """
    if not 0 <= deg < dga.top:
        raise ValueError("need 0 <= deg < top degree")
    dims = list(dga.dims)
    dims[deg] += 1
    dims[deg + 1] += 1
    (D_m, mult), (D_d, cols) = dga.table, dga.dcol
    cols = list(cols)
    cols[deg] += (((dims[deg + 1] - 1, D_d),),)
    cols[deg + 1] += ((),)
    mult = {(p, q): rows + ({},) * (dims[p] - dga.dims[p]) for (p, q), rows in mult.items()}
    return FiniteDGA._of_tables(dims, (D_m, mult), dga._keys, (D_d, tuple(cols)), True), [
        Matrix.of_ints(1, [((i, 1),) for i in range(m)] + [()] * (dims[n] - m), m)
        for n, m in enumerate(dga.dims)]


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg complex

def chevalley_eilenberg(L) -> FiniteDGA:
    """Exterior algebra on the dual of L with the differential dual to the
    bracket: d xi^k = - sum_{i<j} c^k_{ij} xi^i ^ xi^j, extended as an odd
    derivation.  The columns of d are built here; the products go into the
    int table one degree pair (p, q) at a time, on the first read of that
    pair (``FiniteDGA._pair``), one signed entry +-1 per basis pair s, t
    with s ^ t != 0 (D_m = 1).  ``table`` and ``products`` fill every pair
    p + q <= dim L, so every whole-table reader sees the same table.

    It is a DGA by construction, so ``validate`` is not run:

    - the table is the wedge product of Lambda(L*) on sorted monomials
      (xi^S xi^T = 0 if S, T meet, else the shuffle sign of S + T times
      xi^{S u T}), which is associative and graded-commutative;
    - ``d_on_tuple`` sets d 1 = 0 and d(xi^{t_0} ... xi^{t_{k-1}}) =
      sum_pos (-1)^pos xi^{t_0} ... d xi^{t_pos} ... xi^{t_{k-1}}, the
      unique odd derivation extending d on Lambda^1, as Lambda(L*) is free
      graded-commutative on Lambda^1; so d obeys Leibniz;
    - so d^2 = 1/2 [d, d] is an even derivation, d^2(x y) = d^2x y +
      x d^2y (the terms -+ dx dy cancel), and its kernel is a subalgebra
      holding 1: d^2 = 0 iff d^2 xi^k = 0 for every k;
    - on e_a, e_b, e_c, d^2 xi^k is +- the k-th coordinate of the
      Jacobiator [[e_a, e_b], e_c] + [[e_b, e_c], e_a] + [[e_c, e_a], e_b].

    None of this depends on when a pair of the table is filled.  So the one
    check is d^2 = 0 on Lambda^1, which is Jacobi (ValueError otherwise):
    ``_d_squared`` on the int columns dcol, the check ``validate`` makes on
    a degree-1 generator, in place of ``L.check_jacobi()``.

    The columns of d are built on ints over D_d = D of ``L.table``.
    That is the lcm of the denominators of d: d on degree 1 has the entries
    -c, and the higher d[n] are integer combinations of them.

    Poincare duality (Koszul 1950; Hazewinkel 1970).  Let N = dim L and
    omega = xi^0 ^ ... ^ xi^{N-1}.  On Lambda^{N-1}, d(xi^0 ^ .. (no
    xi^i) .. ^ xi^{N-1}) = +- tr(ad e_i) omega, so d into the top degree is
    zero iff L is unimodular (tr ad x = 0 for all x; every nilpotent L is).
    The complex records whether it is (``_unimodular``, read off dcol), and
    then ``CohomologyData.betti`` gives b_k = b_{N-k}: the wedge pairing
    <a, b> omega = a ^ b of Lambda^k and Lambda^{N-k} is perfect (the
    monomials xi^S and xi^{S'} of complementary S pair to +-1, all others
    to 0), and for a in Lambda^k, b in Lambda^{N-k-1}, Leibniz gives
    da ^ b + (-1)^k a ^ db = d(a ^ b) = 0, as a ^ b lies in Lambda^{N-1}.
    So d_k: Lambda^k -> Lambda^{k+1} is, up to sign, the transpose of
    d_{N-k-1} under the pairing, and rank d_k = rank d_{N-k-1}.  With
    dim Lambda^k = dim Lambda^{N-k}, b_k = dim Lambda^k - rank d_k -
    rank d_{k-1} equals b_{N-k} = dim Lambda^{N-k} - rank d_{N-k} -
    rank d_{N-k-1}.
    """
    n = L.dim
    D, partners = L.table
    bases = [list(itertools.combinations(range(n), k)) for k in range(n + 1)]
    index = [{t: i for i, t in enumerate(bs)} for bs in bases]
    dims = [len(bs) for bs in bases]

    # D d on degree-1 generators
    dgen = [{} for _ in range(n)]
    for i, row in enumerate(partners):
        for j, terms in row:
            if i < j:
                for k, c in terms:
                    dgen[k][(i, j)] = -c

    def d_on_tuple(t):
        out = {}
        for pos, g in enumerate(t):
            rest = t[:pos] + t[pos + 1:]
            sign = -1 if pos % 2 else 1
            for pair, c in dgen[g].items():
                if pair[0] not in rest and pair[1] not in rest:
                    # the shuffle sign of pair ^ rest: (-1)^{#{(a, b) in pair x rest : a > b}}
                    w = tuple(sorted(pair + rest))
                    odd = sum(1 for a in pair for b in rest if a > b) % 2
                    out[w] = out.get(w, 0) + (-sign if odd else sign) * c
        return tuple(sorted((index[len(t) + 1][w], c) for w, c in out.items() if c))

    dcol = tuple(tuple(map(d_on_tuple, bases[k])) for k in range(n)) + (((),) * dims[n],)
    if any(_d_squared(dcol, 1, k) for k in range(n)):
        raise ValueError("Jacobi identity fails; CE differential would not square to zero")
    cells = [[(((k, 1),), ((k, -1),)) for k in range(m)] for m in dims]

    def pair(p, q):
        """The rows of the degree pair (p, q): xi^s xi^t = +-xi^{s u t}
        for t off s, of sign (-1)^{#{(a, b) in s x t : a > b}}."""
        rows, out, at = tuple({} for _ in bases[p]), cells[p + q], index[p + q]
        for i, s in enumerate(bases[p]):
            above = [sum(1 for a in s if a > b) for b in range(n)]
            off = [b for b in range(n) if b not in s]
            for t in itertools.combinations(off, q):
                odd = sum(above[b] for b in t) & 1
                rows[i][index[q][t]] = out[at[tuple(sorted(s + t))]][odd]
        return rows

    keys = tuple((p, q) for p in range(n + 1) for q in range(n + 1 - p))
    A = FiniteDGA._of_tables(dims, (1, {}), keys, (D, dcol), False, pair)
    A._unimodular = not any(dcol[n - 1]) if n else True
    return A


# ---------------------------------------------------------------------------
# Massey triple products

class MasseyResult:
    """Triple Massey product: representative class plus indeterminacy.

    The sign convention is <a,b,c> = [a y - (-1)^{|a|} x c] for dx = ab,
    dy = bc; "vanishes" means the representative lies in the indeterminacy
    subspace modulo exact terms, i.e. the full coset meets zero.

    ``massey_triple`` passes every field.  A witness of
    ``formality_consequence_report`` (``_witness``) sets ``degree`` and
    ``vanishes`` and builds ``representative``, ``rep_class`` and
    ``indeterminacy`` on first read, by the route ``massey_triple`` takes,
    so each equals its field there; a caller that reads only the verdict
    builds no class coordinates.
    """

    def __init__(self, degree, representative, rep_class, indeterminacy, vanishes):
        self.degree = degree
        self.representative = representative
        self.rep_class = rep_class
        self.indeterminacy = indeterminacy
        self.vanishes = vanishes

    @classmethod
    def _witness(cls, dga, i, k, rep, K):
        """The nonvanishing <a_i, a_j, a_k> of degree-1 H^1 representatives
        of dga, of representative rep / K (an int vector), its Fraction
        fields built on first read."""
        res = cls.__new__(cls)
        res.degree, res.vanishes, res._source = 2, False, (dga, i, k, rep, K)
        return res

    @cached_property
    def representative(self):
        _, _, _, rep, K = self._source
        return over(rep, K)

    @cached_property
    def rep_class(self):
        return cohomology(self._source[0]).class_coordinates(2, self.representative)

    @cached_property
    def indeterminacy(self):
        """a_i . H^1 + H^1 . a_k, as classes, in its RREF basis."""
        dga, i, k, _, _ = self._source
        H = cohomology(dga)
        reps = H._representatives(1)
        return echelon_basis(
            [H.class_coordinates(2, dga.product(1, reps[i], 1, h)) for h in reps]
            + [H.class_coordinates(2, dga.product(1, h, 1, reps[k])) for h in reps])

    def to_json(self):
        return {
            "degree": self.degree,
            "representative": [format_scalar(c) for c in self.representative],
            "class": [format_scalar(c) for c in self.rep_class],
            "indeterminacy": [[format_scalar(c) for c in v] for v in self.indeterminacy],
            "vanishes": self.vanishes,
        }


class MasseyUndefined(ValueError):
    pass


def massey_triple(dga: FiniteDGA, pa, pb, pc, H=None) -> MasseyResult:
    """Triple Massey product of cocycles a, b, c given as (degree, vector).

    Requires da = db = dc = 0 and both a.b and b.c exact; raises
    MasseyUndefined otherwise.  H defaults to ``cohomology(dga)``, which is
    kept on dga with its eliminations of dx = ab and of class coordinates.
    """
    H = H or cohomology(dga)
    (p, a), (q, b), (r, c) = pa, pb, pc
    for (n, v) in ((p, a), (q, b), (r, c)):
        dv = dga.diff(n, v)
        if dv and not vec_is_zero(dv):
            raise MasseyUndefined("input in degree %d is not a cocycle" % n)
    x = H.preimage(p + q, dga.product(p, a, q, b))
    y = H.preimage(q + r, dga.product(q, b, r, c))
    if x is None or y is None:
        raise MasseyUndefined("products are not exact; Massey product undefined")
    n_out = p + q + r - 1
    # indeterminacy: a . H^{q+r-1} + H^{p+q-1} . c, as classes
    indet = [H.class_coordinates(n_out, dga.product(p, a, q + r - 1, h))
             for h in H._representatives(q + r - 1)]
    indet += [H.class_coordinates(n_out, dga.product(p + q - 1, h, r, c))
              for h in H._representatives(p + q - 1)]
    indet = echelon_basis(indet)
    rep = vec_sub(dga.product(p, a, q + r - 1, y),
                  vec_scale((-1) ** p, dga.product(p + q - 1, x, r, c)))
    rep_class = H.class_coordinates(n_out, rep)
    return MasseyResult(n_out, rep, rep_class, indet, span_contains(indet, rep_class))


def formality_consequence_report(dga: FiniteDGA):
    """Scan degree-1 triple Massey products for formality obstructions.

    Returns (witnesses, undefined_count) where each witness is
    ((i, j, k), MasseyResult), the result of ``massey_triple`` on the H^1
    representatives a_i, a_j, a_k; a triple is undefined when the preimage
    x_ij of a_i a_j or x_jk does not exist.  Below top degree 2 every triple
    is defined and lands in H^2 = 0, so the report is empty.

    Every class test runs on the rows Y of the preimage solver of d x = ab
    (``AffineSolver`` of d[1]): they span {y : y d[1] = 0}, so Y v = 0 iff
    v is in B^2, and Y maps Z^2 / B^2 = H^2 injectively.  Hence a_i a_j is
    exact iff Y (a_i a_j) = 0, and only exact pairs are solved; and a class
    [v] lies in the span of classes [u_m] iff Y v lies in the span of the
    Y u_m.  Y v is summed over the columns of Y at the nonzeros of v, as
    products of H^1 representatives are sparse.  The cup table holds
    Y (a_i a_j); in degree 1, a_i . H^1 is its row i and H^1 . a_k its
    column k, one IncrementalSpan per (i, k), and a triple is a witness iff
    Y rep lies outside it.  No class coordinates
    are needed: the report reads the degree 1 of ``CohomologyData``, the
    preimage solver and the product pair (1, 1), and builds nothing of
    degree 2 but that solver.

    It works on one triangle of the cup table, and by bilinearity on ints
    scaled by common denominators (one scale K for every P; a witness
    divides it out).  The H^1 representatives are the int vectors A_i =
    S a_i of the representative rows of ``CohomologyData``; the x_ij are
    the int solves x_ij = X_ij / s of the preimage solver, one scale s for
    all.  Degree (1, 1) is graded-commutative (by ``validate``, or by
    construction for ``chevalley_eilenberg``), exactly on the int table:
    a_j a_i = -a_i a_j, and a_i a_i = 0 as a_i is odd.  So a_i a_j is
    formed, mapped by Y and solved for i < j only, with cup[j, i] =
    -cup[i, j], cup[i, i] = 0 and, as the solve is linear, x_ji = -x_ij and
    x_ii = 0; P[i, j, k] = a_i x_jk is made for exact pairs j < k, and
    a_i x_kj = -P[i, j, k], a_i x_jj = 0.  The representative a_i x_jk +
    x_ij a_k is rep(i, j, k) = P[i, j, k] - P[k, i, j], by graded
    commutativity again.  Hence rep(k, j, i) = P[k, j, i] - P[i, k, j] =
    -P[k, i, j] + P[i, j, k] = rep(i, j, k), and the indeterminacy
    a_k . H^1 + H^1 . a_i of (k, i) is that of (i, k): the triples with
    i <= k are decided, and the mirror (k, j, i), defined with (i, j, k),
    takes its verdict and its rep.  (i, i, i) is defined and not tested:
    its rep is P[i, i, i] - P[i, i, i] = 0.  The witnesses keep the order
    of ``itertools.product``.  A rep is a cocycle with no check per triple:
    d(a y + x c) = -a (b c) + (a b) c = 0 by Leibniz and associativity,
    proved as above; each witness rep is still checked to have d rep = 0,
    on the ints, once for a triple and its mirror.  A witness holds rep
    and K, and builds its Fraction fields, the class coordinates and the
    indeterminacy basis on their first read (``MasseyResult._witness``).
    """
    if dga.top < 2:
        return [], 0
    H = cohomology(dga)
    d_a, n2 = H.degree(1)[0], dga.dims[2]
    A = [_dense(r, dga.dims[1]) for r in H.representative_rows(1)]
    D_m, T, dcol = dga._table[0], dga._pair(1, 1), dga.dcol[1]
    solver, b = H.preimage_solver(2), len(A)
    Y = dict(enumerate(_transpose(solver.Y, n2)))   # by columns

    def cls(v):
        return _combine(Y, [(k, a) for k, a in enumerate(v) if a])

    cup, x = {}, {}   # x over the exact pairs i < j
    for i in range(b):
        cup[i, i] = ()
        for j in range(i + 1, b):
            v = sparse_product(T, A[i], A[j], n2, 0)
            c = cup[i, j] = cls(v)
            cup[j, i] = tuple((m, -a) for m, a in c)
            if not c:
                x[i, j] = solver.solve_int(v)[0]
    exact = set(x) | {(j, i) for i, j in x} | {(i, i) for i in range(b)}
    d_x = solver.E_int[0]
    P = {(i, j, k): sparse_product(T, A[i], xs, n2, 0) for (j, k), xs in x.items()
         for i in range(b)}
    K = D_m * D_m * d_a ** 3 * d_x   # P = K a_i x_jk
    zero = [0] * n2

    def a_x(i, j, k):
        """K a_i x_jk as (sign, P): x_kj = -x_jk and x_jj = 0."""
        if j == k:
            return 0, zero
        return (1, P[i, j, k]) if j < k else (-1, P[i, k, j])

    witnesses, undefined, indet, mirror = [], 0, {}, {}
    for i, j, k in itertools.product(range(b), repeat=3):
        if (i, j) not in exact or (j, k) not in exact:
            undefined += 1
            continue
        if i > k:   # the mirror of (k, j, i), decided before it
            rep = mirror[k, j, i]
            if rep is not None:
                witnesses.append(((i, j, k), MasseyResult._witness(dga, i, k, rep, K)))
            continue
        if i == j == k:
            continue
        if (i, k) not in indet:
            indet[i, k] = IncrementalSpan([cup[i, m] for m in range(b)]
                                          + [cup[m, k] for m in range(b)])
        (s, u), (r, w) = a_x(i, j, k), a_x(k, i, j)
        rep = [s * p - r * q for p, q in zip(u, w)]
        if indet[i, k].contains(cls(rep)):
            mirror[i, j, k] = None
            continue
        d_rep = {}
        for m, e in enumerate(rep):
            for t, f in dcol[2][m]:
                d_rep[t] = d_rep.get(t, 0) + e * f
        assert not any(d_rep.values()), "Massey representative is not a cocycle"
        mirror[i, j, k] = rep
        witnesses.append(((i, j, k), MasseyResult._witness(dga, i, k, rep, K)))
    return witnesses, undefined
