"""Independent oracles for the test suite.

Everything here is written from scratch against the textbook definitions and
deliberately shares no code with the library, so that each check compares
two genuinely different routes to the same value.
"""

import functools
import itertools
import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# Witt dimension formula

def _mobius(n):
    if n == 1:
        return 1
    result = 1
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def witt_dim(k, n):
    """Dimension of the degree-n part of the free Lie algebra on k letters."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _mobius(d) * k ** (n // d)
    assert total % n == 0
    return total // n


# ---------------------------------------------------------------------------
# Truncated free associative algebra on named letters (independent of the
# library's envelope): elements are dicts word-tuple -> Fraction.

def am_mul(a, b, cutoff):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) <= cutoff:
                w = wa + wb
                out[w] = out.get(w, Fraction(0)) + ca * cb
    return {w: c for w, c in out.items() if c}


def am_add(a, b):
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, Fraction(0)) + c
    return {w: c for w, c in out.items() if c}


def am_exp(x, cutoff):
    out = {(): Fraction(1)}
    term = {(): Fraction(1)}
    fact = 1
    for n in range(1, cutoff + 1):
        term = am_mul(term, x, cutoff)
        if not term:
            break
        fact *= n
        out = am_add(out, {w: c / fact for w, c in term.items()})
    return out


def am_log(x, cutoff):
    z = dict(x)
    z[()] = z.get((), Fraction(0)) - 1
    z = {w: c for w, c in z.items() if c}
    out = {}
    term = {(): Fraction(1)}
    for n in range(1, cutoff + 1):
        term = am_mul(term, z, cutoff)
        if not term:
            break
        sign = Fraction((-1) ** (n + 1), n)
        out = am_add(out, {w: sign * c for w, c in term.items()})
    return out


def embed_bracket_word(w, cutoff):
    """Associative image of a nested bracket word via [a,b] = ab - ba."""
    if isinstance(w, int):
        return {(w,): Fraction(1)}
    a = embed_bracket_word(w[0], cutoff)
    b = embed_bracket_word(w[1], cutoff)
    ab = am_mul(a, b, cutoff)
    ba = am_mul(b, a, cutoff)
    return am_add(ab, {w2: -c for w2, c in ba.items()})


def envelope_bch(cutoff):
    """log(exp x0 . exp x1) in the associative envelope, as a word dict."""
    x = {(0,): Fraction(1)}
    y = {(1,): Fraction(1)}
    return am_log(am_mul(am_exp(x, cutoff), am_exp(y, cutoff), cutoff), cutoff)


@functools.lru_cache(maxsize=None)
def _envelope_terms(cutoff):
    return tuple(envelope_bch(cutoff).items())


def dynkin_bch(dim, table, x, y, cutoff):
    """log(exp x . exp y) in a nilpotent Lie algebra of class <= cutoff,
    given by its dense table (as in dense_bracket).  The envelope series is
    a Lie series whose degree-n part P satisfies theta(P) = n P for the
    Dynkin-Specht-Wever map theta(a_1 ... a_n) = [a_1, [a_2, ... a_n]], so
    each word w of coefficient c_w contributes c_w / |w| times its
    right-nested bracket, with x for the letter 0 and y for the letter 1."""
    letters = (tuple(map(Fraction, x)), tuple(map(Fraction, y)))
    out = [Fraction(0)] * dim
    for w, c in _envelope_terms(cutoff):
        v = letters[w[-1]]
        for a in reversed(w[:-1]):
            if not any(v):
                break
            v = dense_bracket(dim, table, letters[a], v)
        for k in range(dim):
            out[k] += c / len(w) * v[k]
    return tuple(out)


def hall_expansion_in_envelope(coeffs, cutoff):
    """Associative image of a Hall-coordinate Lie series."""
    out = {}
    for w, c in coeffs:
        out = am_add(out, {w2: c * c2
                           for w2, c2 in embed_bracket_word(w, cutoff).items()})
    return out


# ---------------------------------------------------------------------------
# Brute-force exact linear algebra (fraction-free forward elimination plus
# back substitution; no shared code with the library's rref).

def naive_solve(rows, rhs, cols=None):
    """One solution of A x = b, or None; A given as a list of row tuples of
    cols entries each.  cols may be left out when there is a row; a system
    with no rows needs it, as its solution x = 0 has cols entries."""
    m = len(rows)
    n = len(rows[0]) if m else cols
    if n is None:
        raise ValueError("a system with no rows needs its width")
    if cols not in (None, n):
        raise ValueError("rows of length %d, not %d" % (n, cols))
    aug = [list(map(Fraction, rows[i])) + [Fraction(rhs[i])] for i in range(m)]
    piv_cols = []
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, m):
            if aug[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = Fraction(1) / aug[r][col]
        aug[r] = [e * inv for e in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_cols.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, col in enumerate(piv_cols):
        x[col] = aug[i][n]
    for i in range(m):
        if sum(Fraction(rows[i][j]) * x[j] for j in range(n)) != Fraction(rhs[i]):
            return None
    return x


def naive_rank(rows):
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(map(Fraction, row)) for row in rows]
    rank = 0
    for col in range(n):
        piv = None
        for i in range(rank, m):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(m):
            if i != rank and a[i][col] != 0:
                f = a[i][col] / a[rank][col]
                a[i] = [u - f * v for u, v in zip(a[i], a[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Integer lattices by determinants (the textbook rule, no elimination over
# Z and no shared code with the library's Hermite rows).

def naive_det(rows):
    """det of a square matrix (a list of row tuples), by Laplace expansion
    along the first row; 1 for the 0 x 0 matrix."""
    if not rows:
        return Fraction(1)
    return sum(((-1) ** j * Fraction(a) * naive_det([r[:j] + r[j + 1:] for r in rows[1:]])
                for j, a in enumerate(rows[0]) if a), Fraction(0))


def minor_gcd(cols, k):
    """The gcd of the k x k minors of the integer matrix with the given
    columns (0 when they all vanish)."""
    g = 0
    for cs in itertools.combinations(range(len(cols)), k):
        for rs in itertools.combinations(range(len(cols[0])), k):
            g = math.gcd(g, int(naive_det([tuple(cols[c][r] for c in cs) for r in rs])))
    return g


def naive_lattice_contains(basis, v):
    """Whether v lies in the Z-span of the rational vectors basis.  All are
    scaled by one common denominator to integers; with B the basis as
    columns and k = rank B, v is in the span iff rank [B | v] = k and the
    gcd of the k x k minors of B equals that of [B | v], because then the
    lattice of B has index d_k(B) / d_k([B | v]) in that of [B | v]."""
    D = math.lcm(*(Fraction(e).denominator for u in [*basis, v] for e in u))
    B = [tuple(int(Fraction(e) * D) for e in u) for u in basis]
    w = tuple(int(Fraction(e) * D) for e in v)
    k = naive_rank(B)
    if naive_rank(B + [w]) != k:
        return False
    return k == 0 or minor_gcd(B, k) == minor_gcd(B + [w], k)


def greedy_complement(base, vectors):
    """The vectors, in order, that raise the rank of base plus the vectors
    kept before them (ranks by naive_rank)."""
    kept, rows = [], [tuple(v) for v in base]
    for v in vectors:
        if naive_rank(rows + [tuple(v)]) > naive_rank(rows):
            kept.append(tuple(v))
            rows.append(tuple(v))
    return kept


def naive_betti(dims, d_mats):
    """Betti numbers of a cochain complex by rank-nullity."""
    top = len(dims) - 1
    ranks = []
    for n in range(top):
        rows = [tuple(r) for r in d_mats[n].data] if dims[n] and dims[n + 1] else []
        ranks.append(naive_rank(rows) if rows else 0)
    ranks.append(0)
    out = []
    for n in range(top + 1):
        below = ranks[n - 1] if n else 0
        out.append(dims[n] - ranks[n] - below)
    return out


# ---------------------------------------------------------------------------
# Dense bracket from structure constants (the textbook double sum over all
# ordered basis pairs; no sparsity, no shared code with the library).

def dense_bracket(dim, table, x, y):
    """[x, y] = sum_{i, j} x_i y_j [e_i, e_j], where table[(i, j)] is the
    dense coordinate vector of [e_i, e_j] for i < j, [e_j, e_i] = -[e_i, e_j],
    and pairs missing from the table bracket to zero."""
    out = [Fraction(0)] * dim
    for i in range(dim):
        for j in range(dim):
            if not x[i] or not y[j]:
                continue
            if i < j:
                v, sign = table.get((i, j)), 1
            elif j < i:
                v, sign = table.get((j, i)), -1
            else:
                continue
            if v is None:
                continue
            c = sign * Fraction(x[i]) * Fraction(y[j])
            for k in range(dim):
                out[k] += c * Fraction(v[k])
    return tuple(out)


def jacobi_violations(dim, table):
    """The basis triples i < j < k with [[e_i, e_j], e_k] + [[e_j, e_k], e_i]
    + [[e_k, e_i], e_j] != 0, by dense_bracket."""
    e = [tuple(Fraction(int(t == i)) for t in range(dim)) for i in range(dim)]

    def br(x, y):
        return dense_bracket(dim, table, x, y)

    return [(i, j, k) for i in range(dim) for j in range(i + 1, dim) for k in range(j + 1, dim)
            if any(a + b + c for a, b, c in zip(br(br(e[i], e[j]), e[k]),
                                                br(br(e[j], e[k]), e[i]),
                                                br(br(e[k], e[i]), e[j])))]


def conjugated_table(dim, table, m_rows):
    """Structure constants in the basis given by the columns of m_rows:
    [f_i, f_j] = M^-1 [M e_i, M e_j], computed with the oracles only."""
    cols = [tuple(m_rows[r][c] for r in range(dim)) for c in range(dim)]
    out = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            v = dense_bracket(dim, table, cols[i], cols[j])
            if any(v):
                out[(i, j)] = tuple(naive_solve(m_rows, v))
    return out


# ---------------------------------------------------------------------------
# DGA product from dense per-degree-pair tables (the textbook double sum;
# a pair given in one order only is read in the other by graded
# commutativity, a_j a_i = (-1)^{pq} a_i a_j).

def dga_product(products, dim_out, p, vp, q, vq):
    """vp * vq = sum_{i, j} vp_i vq_j (a_i a_j) in degree p + q, where
    products[(p, q)][i][j] is the dense coordinate vector of a_i a_j and
    pairs given in neither order multiply to zero."""
    out = [Fraction(0)] * dim_out
    for i in range(len(vp)):
        for j in range(len(vq)):
            if not vp[i] or not vq[j]:
                continue
            if (p, q) in products:
                cell, sign = products[(p, q)][i][j], 1
            elif (q, p) in products:
                cell, sign = products[(q, p)][j][i], (-1) ** (p * q)
            else:
                continue
            c = sign * Fraction(vp[i]) * Fraction(vq[j])
            for k in range(dim_out):
                out[k] += c * Fraction(cell[k])
    return tuple(out)


# ---------------------------------------------------------------------------
# The DGA axioms by a full sweep over basis vectors (products by dga_product,
# the differential by dense matrix-vector products), naming every failure.

def dga_axiom_failures(dims, d, products):
    """The failing degrees of d^2 = 0, graded commutativity, associativity
    and Leibniz, each checked on every tuple of basis vectors, as the sorted
    error strings that ``FiniteDGA`` reports.  d[n] is the dense matrix (a
    list of rows) of d from degree n to n + 1; a missing or empty d[n] is
    zero."""
    top = len(dims) - 1

    def dim(n):
        return dims[n] if 0 <= n <= top else 0

    def basis(n):
        return [tuple(Fraction(int(t == i)) for t in range(dims[n])) for i in range(dims[n])]

    def diff(n, v):
        rows = d[n] if n < len(d) else []
        if not rows or not dim(n + 1):
            return (Fraction(0),) * dim(n + 1)
        return tuple(sum((Fraction(row[j]) * v[j] for j in range(len(v))), Fraction(0))
                     for row in rows)

    def mul(p, a, q, b):
        return dga_product(products, dim(p + q), p, a, q, b)

    def add(u, v, c=1):
        return tuple(x + c * y for x, y in zip(u, v))

    errors = set()
    for n in range(top + 1):
        if any(any(diff(n + 1, diff(n, a))) for a in basis(n)):
            errors.add("d^2 != 0 at degree %d" % n)
    for p in range(top + 1):
        for q in range(top + 1 - p):
            pairs = [(a, b) for a in basis(p) for b in basis(q)]
            if any(any(add(mul(p, a, q, b), mul(q, b, p, a), -(-1) ** (p * q)))
                   for a, b in pairs):
                errors.add("graded commutativity fails at (%d,%d)" % (p, q))
            if p + q < top and any(
                    any(add(diff(p + q, mul(p, a, q, b)),
                            add(mul(p + 1, diff(p, a), q, b),
                                mul(p, a, q + 1, diff(q, b)), (-1) ** p), -1))
                    for a, b in pairs):
                errors.add("Leibniz fails at (%d,%d)" % (p, q))
            for r in range(top + 1 - p - q):
                if any(any(add(mul(p + q, mul(p, a, q, b), r, c),
                               mul(p, a, q + r, mul(q, b, r, c)), -1))
                       for a, b in pairs for c in basis(r)):
                    errors.add("associativity fails at (%d,%d,%d)" % (p, q, r))
    return sorted(errors)


# ---------------------------------------------------------------------------
# Reduced row echelon form by textbook Gauss-Jordan elimination over Fraction
# (first nonzero entry of a column as pivot, pivot row divided by the pivot,
# the column cleared in every other row).

def gauss_jordan(rows, ncols):
    """(R, pivots): the RREF of the matrix with the given rows and ncols
    columns, as a list of row tuples, and its pivot columns."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(a)):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][col]
        a[r] = [x / p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    return [tuple(row) for row in a], pivots


def null_space(rows, ncols):
    """A basis of {v : m v = 0} for the matrix with the given rows and
    ncols columns, one vector per free column fc of the RREF, ascending:
    e_fc minus column fc of the RREF placed at the pivots."""
    red, pivots = gauss_jordan(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [Fraction(int(j == fc)) for j in range(ncols)]
            for row, p in zip(red, pivots):
                v[p] = -row[fc]
            basis.append(tuple(v))
    return basis


def echelon_insertions(vectors, probes):
    """Insert vectors one by one into a span kept as Fraction rows in row
    echelon form, each scaled to pivot 1 (textbook elimination): returns
    the list of "the span grew" verdicts, the sorted pivot columns, and for
    each probe whether it lies in the final span."""
    rows = {}  # pivot column -> row with a 1 there

    def reduce(v):
        v = [Fraction(x) for x in v]
        for p in sorted(rows):
            if v[p] != 0:
                f = v[p]
                v = [a - f * b for a, b in zip(v, rows[p])]
        return v

    grew = []
    for v in vectors:
        v = reduce(v)
        p = next((j for j, x in enumerate(v) if x != 0), None)
        grew.append(p is not None)
        if p is not None:
            rows[p] = [x / v[p] for x in v]
    return grew, sorted(rows), [not any(reduce(v)) for v in probes]


# ---------------------------------------------------------------------------
# Quotient of a Lie algebra by an ideal, densely: a greedy complement of unit
# vectors, the inverse of the basis matrix [ideal | complement], and the
# quotient bracket as the projection of the table values.

def dense_quotient(dim, table, ideal_basis):
    """(complement, brackets, projection rows) of L / I, where L is given as
    for dense_bracket and I by any basis.  The complement takes e_i, for i
    ascending, unless it lies in I plus the unit vectors taken before; the
    projection is the complement block of the inverse basis matrix; brackets
    maps (i, j), i < j, to the projection of [e_ci, e_cj] = table[(ci, cj)]
    when nonzero."""
    units = [tuple(Fraction(int(t == i)) for t in range(dim)) for i in range(dim)]
    echelon = []  # (pivot, row): each row is 1 at its pivot, 0 at earlier ones

    def insert(v):
        v = list(v)
        for p, row in echelon:
            if v[p] != 0:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        p = next((k for k in range(dim) if v[k] != 0), None)
        if p is not None:
            echelon.append((p, [a / v[p] for a in v]))
        return p is not None

    for v in ideal_basis:
        insert(v)
    comp = [i for i in range(dim) if insert(units[i])]
    cols = [tuple(v) for v in ideal_basis] + [units[i] for i in comp]
    aug = [tuple(c[r] for c in cols) + units[r] for r in range(dim)]
    red, _ = gauss_jordan(aug, 2 * dim)
    proj = [row[dim:] for row in red[len(ideal_basis):]]

    def apply(v):
        nz = [k for k in range(dim) if v[k]]
        return tuple(sum((row[k] * v[k] for k in nz), Fraction(0)) for row in proj)

    brackets = {}
    for i in range(len(comp)):
        for j in range(i + 1, len(comp)):
            v = apply(table.get((comp[i], comp[j]), (Fraction(0),) * dim))
            if any(v):
                brackets[(i, j)] = v
    return comp, brackets, proj


# ---------------------------------------------------------------------------
# Lower central series by its definition: G_1 = L, G_{n+1} = [L, G_n] as the
# RREF of all brackets of a unit vector with a basis vector of G_n.

def naive_lcs(dim, table):
    """RREF bases of G_1, G_2, ... down to the first zero term (assumes L
    nilpotent), each a list of row tuples."""
    units = [tuple(Fraction(int(t == i)) for t in range(dim)) for i in range(dim)]
    chain = [units]
    while chain[-1]:
        rows = [dense_bracket(dim, table, e, b) for e in units for b in chain[-1]]
        red, pivots = gauss_jordan([v for v in rows if any(v)], dim)
        chain.append(red[:len(pivots)])
    return chain


# ---------------------------------------------------------------------------
# The ideal generated by homogeneous elements of a graded Lie algebra, by its
# definition: the span of the generators closed under ad(e_i) for every unit
# vector e_i (not only those of degree 1), densely, until the rank stops
# growing.  The ideal is graded, so its degree-n piece is the projection of
# the ideal onto the coordinates of degree n.

def graded_ideal_closure(dim, table, grading, generators):
    """(ideal, per_degree): the RREF basis of the ideal generated by the
    generators in L, given as for dense_bracket, and for n = 1..max grading
    the RREF basis of its degree-n piece, each a list of row tuples."""
    units = [tuple(Fraction(int(t == i)) for t in range(dim)) for i in range(dim)]
    red, pivots = gauss_jordan([v for v in generators if any(v)], dim)
    basis = red[:len(pivots)]
    while True:
        rows = basis + [dense_bracket(dim, table, e, b) for e in units for b in basis]
        red, pivots = gauss_jordan([v for v in rows if any(v)], dim)
        if len(pivots) == len(basis):
            break
        basis = red[:len(pivots)]
    per_degree = []
    for n in range(1, max(grading, default=0) + 1):
        part = [tuple(x if grading[t] == n else Fraction(0) for t, x in enumerate(v))
                for v in basis]
        red, pivots = gauss_jordan([v for v in part if any(v)], dim)
        per_degree.append(red[:len(pivots)])
    return basis, per_degree


# ---------------------------------------------------------------------------
# Associated graded of a nilpotent Lie algebra by its definition: an adapted
# basis (for each n, the RREF rows of G_n that complete G_{n+1}, greedily),
# the inverse of its basis matrix by Gauss-Jordan on [P | id], and [p_i, p_j]
# in the adapted basis, keeping the coordinates of degree deg i + deg j.

def dense_associated_graded(dim, table):
    """(vectors, degrees, brackets): the adapted basis, the degree of each
    vector and the graded table, mapping (i, j) with i < j to the nonzero
    coordinate vector of [p_i, p_j] in gr L."""
    chain = naive_lcs(dim, table)
    vectors, degrees = [], []
    for n in range(len(chain) - 1):
        for v in greedy_complement(chain[n + 1], chain[n]):
            vectors.append(v)
            degrees.append(n + 1)
    aug = [[vectors[c][r] for c in range(dim)] + [Fraction(int(r == c)) for c in range(dim)]
           for r in range(dim)]
    inv = [row[dim:] for row in gauss_jordan(aug, 2 * dim)[0]]
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            v = dense_bracket(dim, table, vectors[i], vectors[j])
            coords = tuple(sum((inv[k][t] * v[t] for t in range(dim)), Fraction(0))
                           if degrees[k] == degrees[i] + degrees[j] else Fraction(0)
                           for k in range(dim))
            if any(coords):
                brackets[(i, j)] = coords
    return vectors, degrees, brackets


# ---------------------------------------------------------------------------
# Stage 1 of the quadraticity test by dimension count in the free associative
# algebra: with V = gr_1 (k generators) and W_2 the kernel of the bracket
# wedge^2 V -> gr_2 of the dense associated graded, <W_2>_n is spanned by the
# iterated brackets [x_i1, [x_i2, ..., [x_i(n-2), w]]] with w in W_2.  The
# free Lie algebra embeds into the free associative algebra (PBW), so
# dim <W_2>_n is the rank of their associative images, and the stage holds in
# degree n iff witt_dim(k, n) - dim <W_2>_n = dim gr_n.

def dense_relation_space(degrees, brackets):
    """W_2 for the degrees and graded table of dense_associated_graded: the
    kernel of the bracket wedge^2 gr_1 -> gr_2 over the pairs (a, b), a < b,
    of gr_1 = e_0 .. e_(k-1), in lexicographic order, one vector per free
    column f of the Gauss-Jordan form: 1 there, -red[r][f] at pivot r."""
    dim, k = len(degrees), degrees.count(1)
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    zero = (Fraction(0),) * dim
    cols = [brackets.get(p, zero) for p in pairs]
    red, pivots = gauss_jordan([[col[r] for col in cols] for r in range(dim)], len(pairs))
    W = []
    for f in range(len(pairs)):
        if f not in pivots:
            w = [Fraction(0)] * len(pairs)
            w[f] = Fraction(1)
            for r, p in enumerate(pivots):
                w[p] = -red[r][f]
            W.append(tuple(w))
    return W


def quadratic_stage1(dim, table):
    """(failing degree, defect dim) of stage 1 for a nilpotent algebra of
    class c >= 2 given as for dense_bracket, or None when the count holds in
    every degree n = 2..c+1 (gr_{c+1} = 0); the defect is witt_dim(k, n) -
    dim gr_n - dim <W_2>_n."""
    _, degrees, brackets = dense_associated_graded(dim, table)
    k, c = degrees.count(1), max(degrees)
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    level = []
    for vec in dense_relation_space(degrees, brackets):
        w = {p: x for p, x in zip(pairs, vec) if x}
        elt = {}
        for p, cf in w.items():
            elt = am_add(elt, {u: cf * x for u, x in embed_bracket_word(p, 2).items()})
        level.append(elt)
    gens = [{(i,): Fraction(1)} for i in range(k)]
    for n in range(2, c + 2):
        if n > 2:
            level = [am_add(am_mul(x, e, n), {u: -cf for u, cf in am_mul(e, x, n).items()})
                     for x in gens for e in level]
        words = sorted({u for e in level for u in e})
        red, pivots = gauss_jordan([[e.get(u, Fraction(0)) for u in words] for e in level],
                                   len(words))
        level = [{u: x for u, x in zip(words, row) if x} for row in red[:len(pivots)]]
        defect = witt_dim(k, n) - degrees.count(n) - len(pivots)
        if defect:
            return n, defect
    return None


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg complex by the invariant formula: forms on L evaluated
# on basis vectors (determinant convention, xi^T(e_T) = 1), the wedge sign as
# the parity of a permutation by its cycles, and
# (d w)(x_0, ..., x_k) = sum_{a<b} (-1)^{a+b} w([x_a, x_b], x_0, ..^a..^b.., x_k).

def _parity(seq):
    """+1 or -1: the sign of the permutation that sorts seq (distinct)."""
    order = sorted(range(len(seq)), key=lambda i: seq[i])
    seen, sign = set(), 1
    for start in range(len(seq)):
        length = 0
        i = start
        while i not in seen:
            seen.add(i)
            i = order[i]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def ce_dga(dim, brackets):
    """(dims, d, products) of the CE complex of the Lie algebra with
    structure constants brackets (as for dense_bracket): bases of k-forms are
    the k-subsets of range(dim) in lexicographic order, d[k] is the dense
    matrix (rows) of d from degree k to k + 1, and products[(p, q)] the
    dense table of xi^S ^ xi^T for every p + q <= dim."""
    from itertools import combinations
    bases = [list(combinations(range(dim), k)) for k in range(dim + 1)]
    index = [{t: i for i, t in enumerate(b)} for b in bases]
    dims = [len(b) for b in bases]
    units = [tuple(Fraction(int(t == i)) for t in range(dim)) for i in range(dim)]

    def evaluate(T, vectors):
        """xi^T(v_0, ..., v_{k-1}) = det of the T-rows of the v's."""
        if not vectors:
            return Fraction(1)
        total = Fraction(0)
        for m, c in enumerate(vectors[0]):
            if c and m in T:
                rest = tuple(t for t in T if t != m)
                total += c * _parity((m,) + rest) * evaluate(rest, vectors[1:])
        return total

    d = []
    for k in range(dim):
        rows = [[Fraction(0)] * dims[k] for _ in range(dims[k + 1])]
        for col, T in enumerate(bases[k]):
            for row, W in enumerate(bases[k + 1]):
                val = Fraction(0)
                for a in range(k + 1):
                    for b in range(a + 1, k + 1):
                        xab = dense_bracket(dim, brackets, units[W[a]], units[W[b]])
                        rest = [units[w] for i, w in enumerate(W) if i not in (a, b)]
                        val += (-1) ** (a + b) * evaluate(T, [xab] + rest)
                rows[row][col] = val
        d.append(rows)

    products = {}
    for p in range(dim + 1):
        for q in range(dim + 1 - p):
            table = []
            for S in bases[p]:
                row = []
                for T in bases[q]:
                    cell = [Fraction(0)] * dims[p + q]
                    if not set(S) & set(T):
                        cell[index[p + q][tuple(sorted(S + T))]] = Fraction(_parity(S + T))
                    row.append(tuple(cell))
                table.append(tuple(row))
            products[(p, q)] = tuple(table)
    return dims, d, products


# ---------------------------------------------------------------------------
# The tensor DGLA A ox N from dense data: products of A by dga_product,
# brackets of N by dense_bracket, d as dense matrices.  A degree-n vector
# sum_i a_i ox v_i has the coordinates of v_0, v_1, ... in order, so v_i
# is the i-th block of m = dim N coordinates.

def _tensor_blocks(v, m):
    return [tuple(v[i * m:(i + 1) * m]) for i in range(len(v) // m)]


def tensor_bracket(dims, products, m, table, p, vp, q, vq):
    """[vp, vq] = sum_{i, j} (a_i a_j) ox [v_i, w_j] in degree p + q, for
    A with per-degree dims and dense product tables products, and N of
    dimension m with the bracket table table (as for dense_bracket)."""
    dim_out = dims[p + q] if p + q < len(dims) else 0
    out = [Fraction(0)] * (dim_out * m)
    if not dim_out:
        return tuple(out)
    for i, v in enumerate(_tensor_blocks(vp, m)):
        for j, w in enumerate(_tensor_blocks(vq, m)):
            a = tuple(Fraction(int(t == i)) for t in range(dims[p]))
            b = tuple(Fraction(int(t == j)) for t in range(dims[q]))
            ab = dga_product(products, dim_out, p, a, q, b)
            lie = dense_bracket(m, table, v, w)
            for k in range(dim_out):
                for r in range(m):
                    out[k * m + r] += ab[k] * lie[r]
    return tuple(out)


def tensor_diff(dims, d, m, n, v):
    """(d ox id)(v) for v of degree n, with d[n] the dense matrix (a list of
    rows) of d from degree n to n + 1; a missing or empty d[n] is zero."""
    dim_out = dims[n + 1] if n + 1 < len(dims) else 0
    rows = d[n] if n < len(d) else []
    out = [Fraction(0)] * (dim_out * m)
    for k, row in enumerate(rows):
        for i, v_i in enumerate(_tensor_blocks(v, m)):
            for r in range(m):
                out[k * m + r] += Fraction(row[i]) * v_i[r]
    return tuple(out)


def kron_identity(d, cols, m):
    """d ox id_m as a dense matrix (a list of rows), for d a list of rows
    with cols columns: the Kronecker product, with d[k][i] at row k m + r
    and column i m + r for r < m."""
    return [[Fraction(d[k][j // m]) if j % m == r else Fraction(0) for j in range(cols * m)]
            for k in range(len(d)) for r in range(m)]


def tensor_mc_residual(dims, products, d, m, table, x):
    """dx + 1/2 [x, x] for x of degree 1."""
    dx = tensor_diff(dims, d, m, 1, x)
    xx = tensor_bracket(dims, products, m, table, 1, x, 1, x)
    return tuple(a + Fraction(1, 2) * b for a, b in zip(dx, xx))


def tensor_gauge(dims, products, d, m, table, alpha, x, cap=100):
    """exp(ad_alpha)(x + d) - d = x + sum_{n >= 1} T_n / n!, where
    T_1 = [alpha, x] - d alpha and T_{n+1} = [alpha, T_n], summed until a
    term vanishes (AssertionError after cap terms)."""
    def ad(v):
        return tensor_bracket(dims, products, m, table, 0, alpha, 1, v)

    total = [Fraction(c) for c in x]
    term = [b - c for b, c in zip(ad(x), tensor_diff(dims, d, m, 0, alpha))]
    n, fact = 1, 1
    while any(term):
        assert n <= cap, "gauge series did not vanish"
        total = [s + c / fact for s, c in zip(total, term)]
        term = ad(term)
        n += 1
        fact *= n
    return tuple(total)
