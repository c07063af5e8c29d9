"""Exact rational linear algebra.

Everything here works over arbitrary-precision rationals
(``fractions.Fraction``), stored in lowest terms with positive denominator,
so equality of results is literal equality and "is this zero" is decidable.
Vectors are tuples of Fractions.  A ``Matrix`` is stored as sparse int rows
over the least common denominator of its entries, the one form that
eliminations, solvers and products read; its Fraction entries are a view.
Results leave as Fractions, built with ``over``.  Integer lattices are
read from the same int rows: ``hermite_rows`` gives a Z-basis of the
lattice they span.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm


def scalar(x) -> Fraction:
    """Coerce ints, strings like "3/4", and Fractions to an exact rational.
    A bool is not a scalar, though Python counts it as an int: JSON true
    and false are rejected, not read as 1 and 0."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError("not an exact scalar: %r" % (x,))


def integer(x) -> int:
    """An int read from JSON: as in ``scalar``, true and false are rejected,
    not read as 1 and 0."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise TypeError("not an integer: %r" % (x,))


def format_scalar(x: Fraction) -> str:
    """Serialize as "p/q", or just "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


ZERO = Fraction(0)
ONE = Fraction(1)


def vec(entries):
    return tuple(scalar(e) for e in entries)


def vec_zero(n):
    return (ZERO,) * n


def unit(n, i):
    """The i-th standard basis vector of length n."""
    v = [ZERO] * n
    v[i] = ONE
    return tuple(v)


def as_list(value, what):
    """list(value), where value is not a string: a string is not read as the
    list of its characters (ValueError naming what it stands for)."""
    if isinstance(value, str):
        raise ValueError("%s must be a list, not the string %r" % (what, value))
    return list(value)


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_scale(c, a):
    c = scalar(c)
    return tuple(c * x for x in a)


def vec_neg(a):
    return tuple(-x for x in a)


def integer_terms(term_lists):
    """(D, scaled) for a list of sparse term lists ((k, c), ...): D is the lcm
    of the denominators of all the c, and scaled an iterator over the same
    lists, in order, with each c replaced by the int D c."""
    ratios = [[(k, c.as_integer_ratio()) for k, c in terms] for terms in term_lists]
    D = lcm(*[q for terms in ratios for _, (_, q) in terms])
    return D, (tuple([(k, p * (D // q)) for k, (p, q) in terms]) for terms in ratios)


def vec_is_zero(a) -> bool:
    return all(x == 0 for x in a)


def over(nums, den):
    """The Fraction vector nums / den, one Fraction per nonzero entry."""
    return tuple(Fraction(s, den) if s else ZERO for s in nums)


def integer_row(row):
    """(d, ints): d is the lcm of the denominators of the entries of row (ints
    or Fractions), and ints the list of the entries times d.  A row of
    Fractions is read from their slots; any other row goes through
    ``as_integer_ratio``."""
    try:
        nums = [e._numerator for e in row]
        dens = [e._denominator for e in row]
    except AttributeError:
        ratios = [e.as_integer_ratio() for e in row]
        nums, dens = [p for p, _ in ratios], [q for _, q in ratios]
    d = lcm(*dens)
    if d == 1:
        return 1, nums
    return d, [p * (d // q) for p, q in zip(nums, dens)]


class Matrix:
    """Immutable matrix of exact rationals, stored as sparse int rows over
    their least common denominator D: row i is the nonzero entries
    (j, D m[i][j]) in column order, and D is the lcm of the denominators of
    the entries (1 for an integral or zero matrix).  So a matrix has one
    stored form, and ``==`` and ``hash`` (equal shape and entries) compare
    it.  ``Matrix(data)`` takes the entries and keeps them as ``data``;
    ``of_ints`` takes int rows.  ``data``, the entries as Fraction row
    tuples, is a read-only view, built on first read when not given."""

    __slots__ = ("rows", "cols", "_ints", "_data")

    def __init__(self, data):
        data = tuple(tuple(scalar(e) for e in row) for row in data)
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
        D, rows = integer_terms(map(_sparse, data))
        self._ints, self._data = (D, tuple(rows)), data

    @classmethod
    def of_ints(cls, D, rows, cols):
        """The matrix rows / D, for an int D > 0 and rows given as sparse
        terms ((j, c), ...) with c != 0 and j increasing, cols columns:
        gcd(D, entries) is divided out, which leaves the least D."""
        g = gcd(D, *[c for terms in rows for _, c in terms])
        m = cls.__new__(cls)
        m.rows, m.cols, m._data = len(rows), cols, None
        m._ints = ((D, tuple(map(tuple, rows))) if g == 1 else
                   (D // g, tuple(tuple((j, c // g) for j, c in terms) for terms in rows)))
        return m

    @classmethod
    def identity(cls, n):
        return cls.of_ints(1, [((i, 1),) for i in range(n)], n)

    @classmethod
    def zeros(cls, rows, cols):
        return cls.of_ints(1, ((),) * rows, cols)

    @classmethod
    def from_columns(cls, columns, rows=None):
        """The matrix with the given columns, each of length rows (of the
        length of the first column when rows is None; ValueError
        otherwise)."""
        columns = [tuple(c) for c in columns]
        if rows is None:
            rows = len(columns[0]) if columns else 0
        if any(len(c) != rows for c in columns):
            raise ValueError("columns must all have length %d" % rows)
        return cls(list(zip(*columns))) if rows and columns else cls.zeros(rows, len(columns))

    @property
    def data(self):
        if self._data is None:
            D, rows = self._ints
            self._data = tuple(over_terms(terms, self.cols, D) for terms in rows)
        return self._data

    def column(self, j):
        return tuple(row[j] for row in self.data)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def integer_view(self):
        """(D, rows), the stored form: D the least common denominator of the
        entries, and rows[i] the sparse terms (j, D m[i][j]) of row i with
        int coefficients."""
        return self._ints

    def mul_vec(self, v):
        """m v on the integer view: v is scaled to ints once, each row takes
        one integer dot product, and each nonzero entry is one Fraction.  A
        zero v gives the zero vector before any scaling."""
        if len(v) != self.cols:
            raise ValueError("dimension mismatch: %d cols, %d entries" % (self.cols, len(v)))
        if not any(v):
            return (ZERO,) * self.rows
        D, rows = self._ints
        d, iv = integer_row(v)
        return over((sum([c * iv[j] for j, c in terms]) for terms in rows), D * d)

    def __mul__(self, other):
        """The product on int rows: (A / D_a)(B / D_b) = A B / (D_a D_b)."""
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("dimension mismatch")
            (D_a, A), (D_b, B) = self._ints, other._ints
            B = dict(enumerate(B))
            return Matrix.of_ints(D_a * D_b, [_combine(B, terms) for terms in A], other.cols)
        return NotImplemented

    def __sub__(self, other):
        """The difference on int rows: A / D_a - B / D_b = (A l / D_a -
        B l / D_b) / l over the lcm l of D_a and D_b."""
        if isinstance(other, Matrix):
            if (self.rows, self.cols) != (other.rows, other.cols):
                raise ValueError("dimension mismatch")
            (D_a, A), (D_b, B) = self._ints, other._ints
            D = lcm(D_a, D_b)
            scales = ((0, D // D_a), (1, -(D // D_b)))   # a D / D_a - b D / D_b
            return Matrix.of_ints(D, [_combine({0: a, 1: b}, scales) for a, b in zip(A, B)],
                                  self.cols)
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, Matrix) and (self.cols, self._ints) == (other.cols, other._ints)

    def __hash__(self):
        return hash((self.cols, self._ints))

    def __repr__(self):
        return "Matrix(%r)" % ([[format_scalar(e) for e in row] for row in self.data],)

    def is_integral(self) -> bool:
        return self._ints[0] == 1


def _dense(terms, n):
    """The int list of length n with the sparse entries terms (k, c)."""
    row = [0] * n
    for k, c in terms:
        row[k] = c
    return row


def _sparse(row):
    """The sparse terms ((k, c), ...) of the nonzero entries of row."""
    return tuple((k, c) for k, c in enumerate(row) if c)


def over_terms(terms, n, den):
    """The Fraction vector of length n with c / den at each term (k, c) of
    a sparse row, as ``over`` gives it."""
    v = [ZERO] * n
    for k, c in terms:
        v[k] = Fraction(c, den)
    return tuple(v)


def _combine(vectors, v):
    """v M = sum_j v_j vectors[j] as a sparse row, for a sparse row v and the
    dict vectors of the sparse rows of M by j (a missing row is zero)."""
    out = {}
    for j, a in v:
        for k, c in vectors.get(j, ()):
            out[k] = out.get(k, 0) + a * c
    return tuple(sorted((k, c) for k, c in out.items() if c))


def _transpose(rows, n):
    """The sparse rows of the transpose of the sparse rows given, n the
    number of columns."""
    out = [[] for _ in range(n)]
    for i, terms in enumerate(rows):
        for j, c in terms:
            out[j].append((i, c))
    return list(map(tuple, out))


def _cross(row, f, terms, pv):
    """pv row - f terms over its gcd, for a dict row (changed) and the
    terms (j, c) of a row with pivot pv: cross multiplication."""
    if pv != 1:
        row = {j: pv * a for j, a in row.items()}
    get = row.get
    for j, c in terms:
        a = get(j, 0) - f * c
        if a:
            row[j] = a
        else:
            del row[j]
    g = gcd(*row.values())
    return {j: a // g for j, a in row.items()} if g > 1 else row


def _eliminate(rows, cols):
    """Fraction-free Gauss-Jordan elimination of a list of sparse int rows,
    in place; returns the pivot columns, all below cols.  rows[:len(pivots)]
    are then primitive rows with a positive pivot, their first term, one per
    pivot in order, each a multiple of the matching row of the RREF.  The
    RREF of a span is unique, so rows that span the same space give the
    same rows, in any order.  Terms at columns >= cols are carried but never
    pivoted: the rows past the pivot rows have no term below cols.

    (Bareiss, Math. Comp. 22, 1968): each pivot row is divided by the gcd of
    its entries, signed as its pivot, and cleared out of the other rows by
    cross multiplication, which keeps the span and the pivots.  A cleared
    row is multiplied by the positive pivot and divided by a positive gcd,
    so the earlier pivots stay positive.  The rows are worked as dicts."""
    n = len(rows)
    work = [dict(r) for r in rows]
    pivots = []
    r = 0
    for c in range(cols):
        if r == n:
            break
        for pr in range(r, n):
            if c in work[pr]:
                break
        else:
            continue
        prow = work[pr]
        g = gcd(*prow.values()) if prow[c] > 0 else -gcd(*prow.values())
        if g != 1:
            prow = {j: a // g for j, a in prow.items()}
        work[pr] = work[r]
        work[r] = prow
        pv, terms = prow[c], tuple(prow.items())
        for i in range(n):
            f = work[i].get(c)
            if f and i != r:
                work[i] = _cross(work[i], f, terms, pv)
        pivots.append(c)
        r += 1
    rows[:] = [tuple(sorted(row.items())) for row in work]
    return pivots


def rref(m: Matrix):
    """Reduced row echelon form.  Returns (R, pivot column list).
    ``echelon_rows`` of the int rows of m are multiples of the RREF rows;
    the RREF is unique, so each pivot row over its pivot gives it.  R is
    those rows over the lcm of the pivots, and zero rows below."""
    rows, pivots = echelon_rows(m.integer_view()[1], m.cols)
    D = lcm(*(row[0][1] for row in rows))
    red = [tuple((j, a * (D // row[0][1])) for j, a in row) for row in rows]
    return Matrix.of_ints(D, red + [()] * (m.rows - len(pivots)), m.cols), pivots


def rank(m: Matrix) -> int:
    """The number of pivots of the elimination of the integer view."""
    return len(_eliminate(list(m.integer_view()[1]), m.cols))


def det(m: Matrix) -> Fraction:
    if m.rows != m.cols:
        raise ValueError("det of non-square matrix")
    rows = [list(r) for r in m.data]
    n = m.rows
    d = ONE
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pr is None:
            return ZERO
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            d = -d
        d *= rows[c][c]
        inv = ONE / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return d


class AffineSolver:
    """m x = b for many right-hand sides b from one elimination of [m | id].

    The elimination pivots on the columns of m only.  Its pivot rows are
    [R | E] with R = E m the RREF of m, and the others [0 | Y],
    where the rows of Y span {y : y m = 0} (the rows of [m | id] are
    independent).  So m x = b is solvable iff Y b = 0, and the solution
    with every free variable zero has x[pivots[i]] = (E b)_i.  This is the
    one exact solver: every m x = b in the library goes through it.

    It runs on the stored form of m, int rows M over D_m: row i goes into
    ``_eliminate`` as [M_i | D_m e_i], D_m times the row of [m | id], so
    the RREF is the same.  It keeps Y (the rows past the pivots) as sparse
    int rows, and E as the sparse int rows E_int over one scale D_E: the lcm
    of the pivots a_i of the primitive rows that ``_eliminate`` leaves, each
    a_i times a row of the RREF.  ``E`` is built on first read.
    """

    def __init__(self, m: Matrix):
        self.m, cols = m, m.cols
        D, rows = m.integer_view()
        self.n = len(rows)
        aug = [(*terms, (cols + i, D)) for i, terms in enumerate(rows)]
        self.pivots = _eliminate(aug, cols)
        k = len(self.pivots)
        D_E = lcm(*(r[0][1] for r in aug[:k]))
        self.E_int = (D_E, tuple(tuple((j - cols, a * (D_E // r[0][1])) for j, a in r if j >= cols)
                                 for r in aug[:k]))
        self.Y = [tuple((j - cols, a) for j, a in r) for r in aug[k:]]

    @cached_property
    def E(self):
        """E as a Matrix, of E_int."""
        return Matrix.of_ints(*self.E_int, self.n)

    def solve_int(self, b):
        """(xs, D_E) with m (xs / D_E) = b, for an int vector b, with every
        free variable zero; or None when m x = b has no solution.  xs holds
        the entries of E_int b on the pivots.  With m = M / D_m, its
        stored form, the solution is checked as M xs = D_m D_E b."""
        if len(b) != self.n:
            raise ValueError("dimension mismatch: %d rows, %d entries" % (self.n, len(b)))
        if any(sum([c * b[j] for j, c in y]) for y in self.Y):
            return None
        D_E, rows = self.E_int
        xs = [0] * self.m.cols
        for pc, terms in zip(self.pivots, rows):
            xs[pc] = sum([c * b[j] for j, c in terms])
        D_m, rows = self.m.integer_view()
        assert all(sum([c * xs[j] for j, c in terms]) == D_m * D_E * t
                   for terms, t in zip(rows, b))
        return xs, D_E

    def solve(self, b):
        """The solution of m x = b with free variables zero, or None:
        b = b_int / d_b goes through ``solve_int``, and x = xs / (D_E d_b)."""
        d_b, ib = integer_row(b)
        sol = self.solve_int(ib)
        return None if sol is None else over(sol[0], sol[1] * d_b)

    def refute(self, b):
        """A y with y m = 0 and y . b != 0, which proves m x = b unsolvable
        (the Fredholm alternative), or None when it is solvable: the first
        row of the RREF of Y that does not vanish on b.  These are the rows
        past the rank of the full RREF of [m | id], as the RREF of a span is
        unique.  y is checked on the int rows M of m, as y M = 0, before it
        is returned."""
        M = self.m.integer_view()[1]
        for y in echelon_rows(self.Y, self.n)[0]:
            if sum([c * b[i] for i, c in y]):
                if _combine(dict(enumerate(M)), y):
                    raise AssertionError("refutation failed verification: y m != 0")
                return over_terms(y, self.n, y[0][1])
        return None


def right_inverse(m: Matrix) -> Matrix:
    """The s with m s = id, for m onto (ValueError otherwise), from one
    AffineSolver: column j solves m x = e_j with every free variable zero,
    so row pivots[i] of s is row i of E: s is made of the int rows of E."""
    solver = AffineSolver(m)
    if len(solver.pivots) < m.rows:
        raise ValueError("matrix is not onto")
    D_E, E = solver.E_int
    rows = [()] * m.cols
    for pc, terms in zip(solver.pivots, E):
        rows[pc] = terms
    return Matrix.of_ints(D_E, rows, m.rows)


def inverse(m: Matrix) -> Matrix:
    """A square matrix is onto iff invertible: its inverse is right_inverse."""
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    return right_inverse(m)


def _null_rows(rows, cols):
    """(S, null) for sparse int rows with cols columns: null holds one
    sparse int row per free column fc of the RREF, S times e_fc minus column
    fc of the RREF placed at the pivots; these span the null space.
    ``echelon_rows`` gives primitive rows r_i, multiples of the RREF rows,
    with pivots a_i at columns p_i; S is the lcm of the
    a_i, so the entry at p_i, -r_i[fc] (S / a_i), is an int: one scale for
    all the rows.  Past its pivot, r_i has terms at free columns only."""
    rows, pivots = echelon_rows(rows, cols)
    S = lcm(*(r[0][1] for r in rows))
    free = {fc: [] for fc in sorted(set(range(cols)).difference(pivots))}
    for r, p in zip(rows, pivots):
        s = S // r[0][1]
        for fc, a in r[1:]:
            free[fc].append((p, -a * s))
    return S, [(*terms, (fc, S)) for fc, terms in free.items()]


def kernel_basis(m: Matrix):
    """Basis of the exact null space {v : m v = 0}, as a list of vectors,
    one per free column of the RREF of the integer view: the rows of
    ``_null_rows`` over their scale.  The RREF is of m alone: the [m | id]
    of ``AffineSolver`` would widen every elimination by m.rows columns."""
    S, null = _null_rows(m.integer_view()[1], m.cols)
    return [over_terms(v, m.cols, S) for v in null]


def solve_affine(m: Matrix, b):
    """The solution of m x = b with free variables zero, or None."""
    return AffineSolver(m).solve(b)


# ---------------------------------------------------------------------------
# Subspace utilities (row-space form; canonical via RREF)

def echelon_rows(rows, cols):
    """(rows, pivots): the primitive rows that ``_eliminate`` leaves, one
    per pivot in order, for the span of the given sparse int rows (not
    changed) with cols columns."""
    rows = [r for r in rows if r]
    pivots = _eliminate(rows, cols)
    return rows[:len(pivots)], pivots


def _int_rows(vectors, dim=None):
    """(dim, rows): vectors of Fractions or ints, each of length dim
    (ValueError otherwise; with dim None, of one common length), as sparse
    int rows over the lcm of their denominators."""
    vectors, cols = list(vectors), dim
    for v in vectors:
        if cols is None:
            cols = len(v)
        if len(v) != cols:
            raise ValueError("ragged rows" if dim is None else
                             "vector of length %d, expected %d" % (len(v), dim))
    return cols or 0, list(integer_terms(map(_sparse, vectors))[1])


def echelon_basis(vectors, dim=None):
    """Canonical (RREF) basis of the span of the given vectors (Fractions
    or ints), each of length dim (as in ``_int_rows``): the rows of
    ``echelon_rows`` over their pivots."""
    dim, rows = _int_rows(vectors, dim)
    return [over_terms(row, dim, row[0][1]) for row in echelon_rows(rows, dim)[0]]


class IncrementalSpan:
    """A growing subspace kept in row echelon form, on primitive int rows.

    Each row is kept as its sparse terms ((j, c), ...), primitive with a
    positive pivot.  Vectors are sparse int rows, taken as given, and
    reduced by cross multiplication, v <- r_p v - v_p r over its gcd: a
    positive multiple of the Fraction step v <- v - (v_p / r_p) r.  So the
    verdicts and pivots are those over Fractions.  Membership queries and
    insertions both cost one reduction pass against the current rows, which
    is much cheaper than re-echelonizing from scratch when the same span is
    probed many times.
    """

    def __init__(self, vectors=()):
        self.rows = []    # sparse primitive echelon rows, sorted by pivot column
        self.pivots = []
        for v in vectors:
            self.add(v)

    @property
    def dim(self):
        return len(self.rows)

    def _reduced(self, v):
        """The sparse int row v (not changed) reduced against the rows, as a
        dict of its nonzero terms (``_cross`` drops the zeros)."""
        v = dict(v)
        for terms, p in zip(self.rows, self.pivots):
            f = v.get(p)
            if f:
                v = _cross(v, f, terms, terms[0][1])
        return v

    def reduce(self, v):
        """The sparse int row v (not changed) reduced against the rows, as a
        new sparse row."""
        return tuple(sorted(self._reduced(v).items()))

    def contains(self, v) -> bool:
        return not self._reduced(v)

    def add(self, v) -> bool:
        """Insert the sparse int row v if independent of the span; True when
        the span grew."""
        v = self.reduce(v)
        if not v:
            return False
        p, g = v[0][0], gcd(*(a for _, a in v))
        if v[0][1] < 0:
            g = -g
        at = next((t for t, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(at, tuple((j, a // g) for j, a in v))
        self.pivots.insert(at, p)
        return True


def span_contains(basis, v) -> bool:
    """Whether v is in the span of basis (Fractions or ints)."""
    rows = _int_rows([*basis, v])[1]
    return IncrementalSpan(rows[:-1]).contains(rows[-1])


def spans_equal(basis_a, basis_b) -> bool:
    return echelon_basis(basis_a) == echelon_basis(basis_b)


def coords_in_basis(basis, v):
    """Coefficients of v in the given (independent) spanning list, or None."""
    return AffineSolver(Matrix.from_columns(basis, rows=len(v))).solve(v)


# ---------------------------------------------------------------------------
# Integer lattices

def _xgcd(a, b):
    """(g, s, t) with s a + t b = g, where |g| = gcd(a, b)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s0, s1, t0, t1 = b, r, s1, s0 - q * s1, t1, t0 - q * t1
    return a, s0, t0


def hermite_rows(rows):
    """Hermite rows of the lattice that the given sparse int rows (not
    changed) span over Z: a Z-basis of it, one row per pivot, the pivots
    ascending, each row's first term its pivot, which is positive.  A row
    has no term before its pivot, so v lies in the lattice iff, row by row
    in order, q = v_p / a at the row's pivot (p, a) is an int and v - q h
    replaces v, and the v left at the end is zero.  With n rows of n
    columns, n pivots mean full rank, and their product is |det|.  The
    rows are neither primitive nor reduced above the pivots: the lattice
    2Z gives ((0, 2),).

    (Kannan-Bachem, SIAM J. Comput. 8, 1979): the rows that start at the
    least column c are merged into one by unimodular steps, r <- r - q p
    when p_c divides r_c, and else (p, r) <- (s p + t r, (a/g) r - (b/g) p)
    for a = p_c, b = r_c and s a + t b = g = +-gcd(a, b), of determinant
    1; each r then starts past c.  A merged row of negative pivot is
    negated.  So the rows span the same lattice at every step."""
    work = [r for r in rows if r]
    out = []
    while work:
        c = min(r[0][0] for r in work)
        hits = sorted((r for r in work if r[0][0] == c), key=lambda r: abs(r[0][1]))
        work = [r for r in work if r[0][0] != c]
        p = hits[0]
        for r in hits[1:]:
            pr, a, b = {0: p, 1: r}, p[0][1], r[0][1]
            if b % a:
                g, s, t = _xgcd(a, b)
                p, r = _combine(pr, ((0, s), (1, t))), _combine(pr, ((0, -b // g), (1, a // g)))
            else:
                r = _combine(pr, ((0, -(b // a)), (1, 1)))
            if r:
                work.append(r)
        out.append(p if p[0][1] > 0 else tuple((j, -a) for j, a in p))
    return out


def smith_normal_form(m: Matrix):
    """Smith normal form of an integer matrix.

    Returns (U, D, V) with U m V = D, U and V unimodular, D diagonal with
    nonnegative entries satisfying d_i | d_{i+1}.  It runs on the int rows
    of m and makes each result of int rows.  The library answers its
    lattice questions from ``hermite_rows``; no library code calls this.
    """
    if not m.is_integral():
        raise ValueError("smith_normal_form requires integral entries")
    a = [_dense(terms, m.cols) for terms in m.integer_view()[1]]
    nr, nc = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):  # row dst += q * row src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nr, nc):
        # locate a pivot of minimal absolute value in the trailing block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        # clear row and column t by euclidean steps
        dirty = False
        for i in range(t + 1, nr):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                add_row(t, i, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, nc):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                add_col(t, j, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block by the pivot
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    return tuple(Matrix.of_ints(1, [_sparse(r) for r in x], cols)
                 for x, cols in ((u, nr), (a, nc), (v, nc)))
