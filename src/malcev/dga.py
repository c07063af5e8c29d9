"""Finite graded-commutative DGAs, cohomology rings, and Massey products.

Degrees run 0..D with dense per-degree bases.  The differential raises
degree by one.  The products of a ``FiniteDGA`` are immutable: they run on
one sparse table, built once, and ``products`` is a read-only dense view
derived from it for the degree pairs given.  The Chevalley-Eilenberg functor
turns any finite-dimensional Lie algebra into a test-case DGA whose d^2 = 0
is equivalent to the Jacobi identity.

The DGA axioms are proved on construction on a generating set S of the
algebra, not swept over all basis triples: the elements on which
associativity holds against everything form a subalgebra, and given
associativity so do the elements that graded-commute, and those on which d
obeys Leibniz; given Leibniz, d^2 is a derivation, so its kernel is a
subalgebra too.  Each axiom that holds on S therefore holds on all of A (see
``FiniteDGA.validate``), on integer views of the tables.  A full sweep runs
only to name the failures.  ``cohomology``, with one echelon span per degree
for the representatives, is computed once per DGA and shared by all its
Betti numbers, Massey products and MC stages.
"""

import itertools
from fractions import Fraction
from math import lcm
from types import MappingProxyType

from .linalg import (
    Matrix, ZERO, ONE, scalar, format_scalar, vec_add, vec_scale, vec_sub,
    vec_zero, vec_is_zero, kernel_basis, echelon_basis, span_contains, unit,
    IncrementalSpan, AffineSolver, integer_terms,
)


class FiniteDGA:
    """Graded-commutative DGA on finite per-degree bases.

    dims[n] is the dimension in degree n; d[n] the matrix of the
    differential degree n -> n+1; products maps (p, q) to the table whose
    [i][j] is the coordinate vector in degree p+q of (i-th degree-p basis) *
    (j-th degree-q basis), for the degree pairs given.  A pair given in one
    order only is read in the other by graded commutativity; pairs given in
    neither order multiply to zero.  Products run on the one sparse table
    _mult: per degree pair (p, q) with p + q <= D and per degree-p index i,
    {j: ((k, c), ...)} with a_i a_j = sum c a_k != 0.  The dense input is not
    kept: products is a read-only view derived from _mult.  The shapes and
    the DGA axioms are checked on construction (ValueError otherwise), so
    every FiniteDGA is a DGA.  A zero-row d[n] keeps dims[n] columns.
    """

    def __init__(self, dims, d, products):
        products = {key: tuple(tuple(tuple(scalar(c) for c in cell) for cell in row)
                               for row in table) for key, table in products.items()}
        self._set_d(dims, d)
        for (p, q), table in products.items():
            if (min(p, q) < 0 or p + q > self.top or len(table) != self.dims[p]
                    or any(len(row) != self.dims[q] or
                           any(len(cell) != self.dims[p + q] for cell in row)
                           for row in table)):
                raise ValueError("product table (%d,%d) does not match dims %s"
                                 % (p, q, self.dims))
        mult = {(p, q): tuple({} for _ in range(self.dims[p]))
                for p in range(self.top + 1) for q in range(self.top + 1 - p)}
        for (p, q), table in products.items():
            sign = (-1) ** (p * q)
            for i, row in enumerate(table):
                for j, cell in enumerate(row):
                    terms = tuple((k, c) for k, c in enumerate(cell) if c)
                    if terms:
                        mult[(p, q)][i][j] = terms
                        if (q, p) not in products:
                            mult[(q, p)][j][i] = tuple((k, sign * c) for k, c in terms)
        self._set_products(mult, tuple(products))

    @classmethod
    def _from_sparse(cls, dims, d, mult, keys):
        """The DGA whose products are the sparse table mult (the ``_mult``
        shape, every degree pair filled in) and whose ``products`` view
        shows the degree pairs keys."""
        A = cls.__new__(cls)
        A._set_d(dims, d)
        A._set_products(mult, keys)
        return A

    def _set_d(self, dims, d):
        self.dims = list(dims)
        self.top = len(self.dims) - 1
        self.d = [m if isinstance(m, Matrix) else Matrix(m) for m in d]
        while len(self.d) < self.top + 1:
            self.d.append(Matrix.zeros(self.dim(len(self.d) + 1), self.dims[len(self.d)]))
        if len(self.d) > self.top + 1 or any(
                m.rows != self.dim(n + 1) or (m.rows and m.cols != self.dims[n])
                for n, m in enumerate(self.d)):
            raise ValueError("differentials do not match dims %s" % self.dims)
        # a zero-row differential keeps its column count (JSON gives it none)
        self.d = [m if m.rows else Matrix.zeros(0, self.dims[n]) for n, m in enumerate(self.d)]

    def _set_products(self, mult, keys):
        self._mult, self._keys, self._products = mult, keys, None
        self._cohomology = None  # the CohomologyData, on demand
        self._integer = None  # the integer view, on demand
        errors = self.validate()
        if errors:
            raise ValueError("DGA axioms violated: " + "; ".join(errors))

    @property
    def products(self):
        """The read-only dense tables of the degree pairs given, derived from
        _mult on first use and kept."""
        if self._products is None:
            def cells(p, q, row):
                for j in range(self.dims[q]):
                    cell = [ZERO] * self.dims[p + q]
                    for k, c in row.get(j, ()):
                        cell[k] = c
                    yield tuple(cell)
            self._products = MappingProxyType({
                (p, q): tuple(tuple(cells(p, q, row)) for row in self._mult[(p, q)])
                for p, q in self._keys})
        return self._products

    def dim(self, n):
        """The dimension in degree n, 0 outside 0..top."""
        return self.dims[n] if 0 <= n <= self.top else 0

    def diff(self, n, v):
        if self.dim(n + 1) == 0:
            return ()
        return self.d[n].mul_vec(v)

    def basis_products(self, p, q):
        """Per degree-p index i, {j: ((k, c), ...)} with a_i a_j = sum c a_k
        != 0, for p + q <= top."""
        return self._mult[(p, q)]

    def product(self, p, vp, q, vq):
        """vp * vq by bilinear expansion over the nonzeros of vp and the
        nonzero products of their basis vectors."""
        n = p + q
        if n > self.top:
            return ()
        out = [ZERO] * self.dims[n]
        rows = self._mult[(p, q)]
        for i, a in enumerate(vp):
            if not a:
                continue
            for j, terms in rows[i].items():
                b = vq[j]
                if not b:
                    continue
                ab = a * b
                for k, c in terms:
                    out[k] += ab * c
        return tuple(out)

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

        Only when a check on S fails does the sweep over all basis vectors
        run, to name every failing degree.
        """
        if self._axioms_hold_on(self._generators()):
            return []
        return self._sweep()

    def _generators(self):
        """(degree, index) of the generating set S of ``validate``.  In
        degree n >= 1 the products a_i a_j with |a_i| = p, 1 <= p <= n - p,
        go into one echelon span until it is full; the unit vectors off its
        pivots complete it.  The products with p > n - p are not needed: S
        generates A as long as each product taken has factors of lower
        degree."""
        gens = [(0, i) for i in range(self.dims[0])]
        for n in range(1, self.top + 1):
            span = IncrementalSpan()
            products = (terms for p in range(1, n // 2 + 1)
                        for row in self._mult[(p, n - p)] for terms in row.values())
            for terms in products:
                if span.dim == self.dims[n]:
                    break
                v = [ZERO] * self.dims[n]
                for k, c in terms:
                    v[k] = c
                span.add(v)
            pivots = set(span.pivots)
            gens += [(n, k) for k in range(self.dims[n]) if k not in pivots]
        return gens

    def integer_view(self):
        """(D_m, mult, D_d, dcol), built on first use and kept: the DGA is
        immutable.  D_m is the lcm of the denominators of the product table
        and mult the ``_mult`` table with every coefficient c replaced by the
        int D_m c (``integer_terms``).  D_d is the lcm of the denominators of
        all the d[n], and dcol[n][j] the nonzero entries (k, D_d d[n][k][j])
        of column j of d[n], read off ``Matrix.integer_view``."""
        if self._integer is None:
            D_m, flat = integer_terms([terms for table in self._mult.values()
                                       for row in table for terms in row.values()])
            mult = {key: tuple({j: next(flat) for j in row} for row in table)
                    for key, table in self._mult.items()}
            views = [m.integer_view() for m in self.d]
            D_d = lcm(*(D for D, _ in views))
            dcol = []
            for n, (D, rows) in enumerate(views):
                cols = [[] for _ in range(self.dims[n])]
                for k, terms in enumerate(rows):
                    for j, c in terms:
                        cols[j].append((k, c * (D_d // D)))
                dcol.append(tuple(map(tuple, cols)))
            self._integer = (D_m, mult, D_d, tuple(dcol))
        return self._integer

    def _axioms_hold_on(self, gens):
        """The four checks of ``validate`` for s in gens, read off the
        sparse table and the nonzeros of each column of d.  Each side of an
        identity is summed into one dict, which must come out zero.  They
        run on the integer view: the table scaled by D_m and d by D_d.  Each
        identity is homogeneous in table factors (two products on each side
        of associativity, one product and one d in each Leibniz term, one
        product in graded commutativity, two d's in d^2), so scaling
        multiplies all its terms by one D_m^2, D_m D_d, D_m or D_d^2, and the
        scaled check is the same check."""
        top, none = self.top, ()
        _, mult, _, dcol = self.integer_view()
        for p, i in gens:
            p_sign = (-1) ** p
            acc = {}
            for m, e in dcol[p][i]:                      # d^2 s
                for t, f in dcol[p + 1][m]:
                    acc[t] = acc.get(t, 0) + e * f
            if any(acc.values()):
                return False
            for q in range(top + 1 - p):
                sign = (-1) ** (p * q)
                s_row, s_col = mult[(p, q)][i], mult[(q, p)]
                for j in range(self.dims[q]):
                    sy = s_row.get(j, none)
                    if sy != tuple((k, sign * c) for k, c in s_col[j].get(i, none)):
                        return False
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
                        return False
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
                        return False
        return True

    def _sweep(self):
        """Every failing degree of d^2 = 0, graded commutativity,
        associativity and Leibniz, by a sweep over all basis vectors."""
        errors = []
        for n in range(self.top - 1):
            if not (self.d[n + 1] * self.d[n]).is_zero():
                errors.append("d^2 != 0 at degree %d" % n)
        basis = lambda n: [self.basis_vector(n, i) for i in range(self.dims[n])]
        mul, d = self.product, self.diff
        for p in range(self.top + 1):
            for q in range(self.top + 1 - p):
                if any(mul(p, a, q, b) != vec_scale((-1) ** (p * q), mul(q, b, p, a))
                       for a in basis(p) for b in basis(q)):
                    errors.append("graded commutativity fails at (%d,%d)" % (p, q))
                for r in range(self.top + 1 - p - q):
                    if any(mul(p + q, mul(p, a, q, b), r, c) != mul(p, a, q + r, mul(q, b, r, c))
                           for a in basis(p) for b in basis(q) for c in basis(r)):
                        errors.append("associativity fails at (%d,%d,%d)" % (p, q, r))
                if p + q < self.top and any(
                        d(p + q, mul(p, a, q, b)) != vec_add(
                            mul(p + 1, d(p, a), q, b),
                            vec_scale((-1) ** p, mul(p, a, q + 1, d(q, b))))
                        for a in basis(p) for b in basis(q)):
                    errors.append("Leibniz fails at (%d,%d)" % (p, q))
        return sorted(set(errors))

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
        products = {}
        for key, table in obj.get("product", {}).items():
            p, q = (int(t) for t in key.split(","))
            products[(p, q)] = table
        return cls(obj["dims"], [Matrix(m) if m else Matrix.zeros(0, 0) for m in obj["d"]],
                   products)


# ---------------------------------------------------------------------------
# Cohomology of a cochain complex

class CohomologyData:
    """Betti numbers and representative bases of a finite cochain complex.

    Per degree n: a kernel basis of d[n] (cocycles), the echelon basis of
    the image of d[n-1] (coboundaries), and the cocycles, in order, that grow
    one IncrementalSpan seeded with the coboundaries (representatives); all
    tuples, as ``cohomology`` shares one CohomologyData per DGA.  The
    linear systems it answers, class coordinates and preimages under d,
    each get one AffineSolver per degree, made on first use and kept.
    """

    def __init__(self, dims, d_mats):
        self.dims = list(dims)
        self.top = len(self.dims) - 1
        self.d = d_mats
        self._solvers = {}
        cocycles, coboundaries, representatives = [], [], []
        for n in range(self.top + 1):
            dn = d_mats[n] if n < len(d_mats) else None
            if dn is None or dn.rows == 0:
                z = [unit(self.dims[n], i) for i in range(self.dims[n])]
            else:
                z = kernel_basis(dn)
            if n == 0 or self.dims[n] == 0:
                b = []
            else:
                prev = d_mats[n - 1]
                b = echelon_basis(prev.transpose().data, self.dims[n]) if prev.rows else []
            span = IncrementalSpan(b)
            cocycles.append(tuple(z))
            coboundaries.append(tuple(b))
            representatives.append(tuple(v for v in z if span.add(v)))
        self.cocycles, self.coboundaries, self.representatives = map(
            tuple, (cocycles, coboundaries, representatives))

    def betti(self):
        return [len(r) for r in self.representatives]

    def _solver(self, key, matrix):
        if key not in self._solvers:
            self._solvers[key] = AffineSolver(matrix())
        return self._solvers[key]

    def class_coordinates(self, n, v):
        """Coordinates of a closed vector's class in the representative basis."""
        reps = self.representatives[n]
        if not (reps or self.coboundaries[n]):
            assert vec_is_zero(v)
            return ()
        x = self._solver(("class", n), lambda: Matrix.from_columns(
            reps + self.coboundaries[n], rows=self.dims[n])).solve(v)
        assert x is not None, "vector is not a cocycle"
        return x[:len(reps)]

    def preimage(self, n, v):
        """The x in degree n - 1 with d x = v and free variables zero, or
        None when v is not exact."""
        return self._solver(("d", n - 1), lambda: self.d[n - 1]).solve(v)


def cohomology(dga: FiniteDGA) -> CohomologyData:
    """The cohomology of dga, computed once per DGA: a FiniteDGA is
    immutable, so every caller shares one CohomologyData and its solvers."""
    if dga._cohomology is None:
        dga._cohomology = CohomologyData(dga.dims, dga.d)
    return dga._cohomology


def cohomology_ring(dga: FiniteDGA) -> FiniteDGA:
    """H(A) with the induced product and zero differential."""
    H = cohomology(dga)
    dims = H.betti()
    top = dga.top
    products = {}
    for p in range(top + 1):
        for q in range(top + 1 - p):
            table = []
            for a in H.representatives[p]:
                row = []
                for b in H.representatives[q]:
                    ab = dga.product(p, a, q, b)
                    row.append(H.class_coordinates(p + q, ab) if dims[p + q] else ())
                table.append(row)
            products[(p, q)] = table
    d = [Matrix.zeros(dims[n + 1] if n + 1 <= top else 0, dims[n]) for n in range(top)]
    return FiniteDGA(dims, d, products)


def adjoin_acyclic(dga: FiniteDGA, deg: int = 1):
    """A (+) (acyclic two-step piece a, b with da = b) in degrees deg, deg+1.

    All products touching the new coordinates vanish, so the result is a
    valid graded-commutative DGA and the evident inclusion is a
    quasi-isomorphism.  Returns (B, inclusion_matrices).
    """
    if not 0 <= deg < dga.top:
        raise ValueError("need 0 <= deg < top degree")
    dims = list(dga.dims)
    dims[deg] += 1
    dims[deg + 1] += 1
    dmats = []
    for n in range(dga.top):
        rows, cols = (dims[n + 1], dims[n])
        m = [[ZERO] * cols for _ in range(rows)]
        for i in range(dga.dims[n + 1]):
            for j in range(dga.dims[n]):
                m[i][j] = dga.d[n].data[i][j]
        if n == deg:
            m[dims[deg + 1] - 1][dims[deg] - 1] = Fraction(1)
        dmats.append(m)
    products = {}
    for (p, q), table in dga.products.items():
        new_table = []
        for i in range(dims[p]):
            row = []
            for j in range(dims[q]):
                if i < dga.dims[p] and j < dga.dims[q]:
                    cell = table[i][j]
                    row.append(tuple(cell) + (ZERO,) * (dims[p + q] - dga.dims[p + q]))
                else:
                    row.append(vec_zero(dims[p + q]))
            new_table.append(row)
        products[(p, q)] = new_table
    B = FiniteDGA(dims, dmats, products)
    inclusions = []
    for n in range(dga.top + 1):
        m = [[ZERO] * dga.dims[n] for _ in range(dims[n])]
        for i in range(dga.dims[n]):
            m[i][i] = Fraction(1)
        inclusions.append(Matrix(m))
    return B, inclusions


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg complex

def _wedge(s, t):
    """s ^ t for sorted tuples of generators: (sign, sorted union), or None
    when they meet.  Moving each a in s past the b < a of t gives the shuffle
    sign (-1)^{#{(a, b) in s x t : a > b}}."""
    if not set(s).isdisjoint(t):
        return None
    inversions = sum(1 for a in s for b in t if a > b)
    return (-ONE if inversions % 2 else ONE), tuple(sorted(s + t))


def chevalley_eilenberg(L) -> FiniteDGA:
    """Exterior algebra on the dual of L with the differential dual to the
    bracket: d xi^k = - sum_{i<j} c^k_{ij} xi^i ^ xi^j, extended as an odd
    derivation.  d^2 = 0 is equivalent to the Jacobi identity, which is
    verified up front.  The products go straight into the sparse table, one
    signed entry per basis pair s, t with s ^ t != 0; ``products`` shows every
    degree pair p + q <= dim L.
    """
    if L.check_jacobi():
        raise ValueError("Jacobi identity fails; CE differential would not square to zero")
    n = L.dim
    bases = [list(itertools.combinations(range(n), k)) for k in range(n + 1)]
    index = [{t: i for i, t in enumerate(bs)} for bs in bases]
    dims = [len(bs) for bs in bases]

    # d on degree-1 generators
    dgen = {}
    for k in range(n):
        out = {}
        for (i, j), v in L.brackets.items():
            c = v[k]
            if c != 0:
                out[(i, j)] = out.get((i, j), ZERO) - c
        dgen[k] = out

    def d_on_tuple(t):
        out = {}
        for pos, g in enumerate(t):
            rest = t[:pos] + t[pos + 1:]
            sign = -1 if pos % 2 else 1
            for pair, c in dgen[g].items():
                merged = _wedge(pair, rest)
                if merged is None:
                    continue
                sg, w = merged
                out[w] = out.get(w, ZERO) + sign * sg * c
        return out

    d_mats = []
    for k in range(n):
        cols = []
        for t in bases[k]:
            col = [ZERO] * dims[k + 1]
            for w, c in d_on_tuple(t).items():
                col[index[k + 1][w]] = c
            cols.append(tuple(col))
        d_mats.append(Matrix.from_columns(cols, rows=dims[k + 1]))

    mult = {}
    for p in range(n + 1):
        for q in range(n + 1 - p):
            rows = mult[(p, q)] = tuple({} for _ in bases[p])
            for i, s in enumerate(bases[p]):
                off = tuple(g for g in range(n) if g not in s)
                for t in itertools.combinations(off, q):
                    sign, w = _wedge(s, t)
                    rows[i][index[q][t]] = ((index[p + q][w], sign),)
    return FiniteDGA._from_sparse(dims, d_mats, mult, tuple(mult))


# ---------------------------------------------------------------------------
# Massey triple products

class MasseyResult:
    """Triple Massey product: representative class plus indeterminacy.

    The sign convention is <a,b,c> = [a y - (-1)^{|a|} x c] for dx = ab,
    dy = bc; "vanishes" means the representative lies in the indeterminacy
    subspace modulo exact terms, i.e. the full coset meets zero.
    """

    def __init__(self, degree, representative, rep_class, indeterminacy, vanishes):
        self.degree = degree
        self.representative = representative
        self.rep_class = rep_class
        self.indeterminacy = indeterminacy
        self.vanishes = vanishes

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


def _massey(dga, H, pa, q, pc, x, y, indeterminacy):
    """<a, b, c> with |b| = q from the preimages dx = ab, dy = bc and the
    echelon basis of its indeterminacy: the representative
    a y - (-1)^{|a|} x c, its class, and whether the class lies in the
    indeterminacy."""
    (p, a), (r, c) = pa, pc
    n_out = p + q + r - 1
    rep = vec_sub(dga.product(p, a, q + r - 1, y),
                  vec_scale((-1) ** p, dga.product(p + q - 1, x, r, c)))
    rep_class = H.class_coordinates(n_out, rep)
    return MasseyResult(n_out, rep, rep_class, indeterminacy,
                        span_contains(indeterminacy, rep_class))


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
             for h in H.representatives[q + r - 1]]
    indet += [H.class_coordinates(n_out, dga.product(p + q - 1, h, r, c))
              for h in H.representatives[p + q - 1]]
    return _massey(dga, H, pa, q, pc, x, y, echelon_basis(indet))


def formality_consequence_report(dga: FiniteDGA):
    """Scan degree-1 triple Massey products for formality obstructions.

    Returns (witnesses, undefined_count) where each witness is
    ((i, j, k), MasseyResult), the result of ``massey_triple`` on the H^1
    representatives a_i, a_j, a_k.  The scan works on pairs: each a_i is
    checked to be a cocycle once, and per pair a_i a_j, its preimage x_ij
    under d and its class cup[i][j] are computed once.  A triple is undefined
    when x_ij or x_jk does not exist.  In degree 1, a_i . H^1 is the row
    cup[i][.] and H^1 . a_k the column cup[.][k], so the indeterminacy
    depends on (i, k) only.  Below top degree 2 every triple is defined and
    lands in H^2 = 0, so the report is empty.
    """
    if dga.top < 2:
        return [], 0
    H = cohomology(dga)
    reps = H.representatives[1]
    b = len(reps)
    closed = [vec_is_zero(dga.diff(1, a)) for a in reps]
    x, cup = {}, {}
    for i, j in itertools.product(range(b), repeat=2):
        if closed[i] and closed[j]:
            ab = dga.product(1, reps[i], 1, reps[j])
            x[i, j], cup[i, j] = H.preimage(2, ab), H.class_coordinates(2, ab)
    witnesses, undefined, indet = [], 0, {}
    for i, j, k in itertools.product(range(b), repeat=3):
        if x.get((i, j)) is None or x.get((j, k)) is None:
            undefined += 1
            continue
        if (i, k) not in indet:
            indet[i, k] = echelon_basis([cup[i, m] for m in range(b)] +
                                        [cup[m, k] for m in range(b)])
        res = _massey(dga, H, (1, reps[i]), 1, (1, reps[k]), x[i, j], x[j, k], indet[i, k])
        if not res.vanishes:
            witnesses.append(((i, j, k), res))
    return witnesses, undefined
