"""Unipotent group arithmetic via the Campbell-Baker-Hausdorff formula.

The BCH product is computed by the associative-envelope method: multiply the
exponentials of two formal generators in the class-truncated free associative
algebra, take the logarithm, and express the resulting Lie series in Hall
coordinates by solving the embedding system degree by degree.  The universal
expansion is cached per class and then evaluated in any nilpotent algebra by
substituting structure constants, so the same code is correct for every
class bound.
"""

import functools
from fractions import Fraction
from math import gcd, lcm, prod

from .linalg import (
    Matrix, ZERO, vec_neg, vec_zero, vec_is_zero, inverse, hermite_rows,
    integer_row, integer_terms, over, AffineSolver, _sparse,
)
from .lie import LieAlgebra, nilpotency_class, sparse_bracket
from .freelie import hall_basis, evaluate_hall_words


# ---------------------------------------------------------------------------
# Truncated free associative algebra on two symbols

def _assoc_mul(a, b, c):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) <= c:
                w = wa + wb
                out[w] = out.get(w, ZERO) + ca * cb
    return {w: v for w, v in out.items() if v != 0}


def _assoc_exp(x, c):
    # x must have no constant term; the series terminates at class c
    out = {(): Fraction(1)}
    term = {(): Fraction(1)}
    fact = 1
    for n in range(1, c + 1):
        term = _assoc_mul(term, x, c)
        if not term:
            break
        fact *= n
        for w, v in term.items():
            out[w] = out.get(w, ZERO) + v / fact
    return {w: v for w, v in out.items() if v != 0}


def _assoc_log(x, c):
    # x must have constant term 1
    z = dict(x)
    z[()] = z.get((), ZERO) - 1
    z = {w: v for w, v in z.items() if v != 0}
    out = {}
    term = {(): Fraction(1)}
    sign = 1
    for n in range(1, c + 1):
        term = _assoc_mul(term, z, c)
        if not term:
            break
        for w, v in term.items():
            out[w] = out.get(w, ZERO) + sign * v / n
        sign = -sign
    return {w: v for w, v in out.items() if v != 0}


@functools.lru_cache(maxsize=None)
def bch_universal(c):
    """Hall coordinates of log(exp X . exp Y) on two generators, class c.

    Returns a list of (hall_word, coefficient) pairs; the class-2 truncation
    is X + Y + 1/2 [X, Y], and at class 0 (the zero algebra) it is empty.
    The Hall words are expanded by ``evaluate_hall_words`` with [a, b] =
    ab - ba, and each degree of the logarithm is solved for in them.
    """
    X = {(0,): Fraction(1)}
    Y = {(1,): Fraction(1)}
    z = _assoc_log(_assoc_mul(_assoc_exp(X, c), _assoc_exp(Y, c), c), c)
    groups = hall_basis(2, c) if c else ()

    def commutator(a, b):
        ab, ba = _assoc_mul(a, b, c), _assoc_mul(b, a, c)
        return {w: v for w in ab.keys() | ba.keys()
                if (v := ab.get(w, ZERO) - ba.get(w, ZERO))}

    coeffs = []
    for n in range(1, c + 1):
        words = groups[n - 1]
        assoc_words = sorted({w for w in z if len(w) == n})
        target = [z.get(w, ZERO) for w in assoc_words]
        cols = [tuple(emb.get(w, ZERO) for w in assoc_words)
                for emb in evaluate_hall_words(words, (X, Y), commutator)]
        if not assoc_words:
            continue
        sol = AffineSolver(Matrix.from_columns(cols, rows=len(assoc_words))).solve(target)
        assert sol is not None, "logarithm failed to be a Lie element"
        for hw, cf in zip(words, sol):
            if cf != 0:
                coeffs.append((hw, cf))
    return tuple(coeffs)


@functools.lru_cache(maxsize=None)
def _bch_terms(c):
    """bch_universal(c) split for integer evaluation: the Hall words, and per
    word (numerator, denominator, x-letters, y-letters) of its term."""
    def letters(w):
        if isinstance(w, int):
            return (1 - w, w)
        (a0, b0), (a1, b1) = letters(w[0]), letters(w[1])
        return (a0 + a1, b0 + b1)

    terms = bch_universal(c)
    return (tuple(w for w, _ in terms),
            tuple((cf.numerator, cf.denominator) + letters(w) for w, cf in terms))


def _bch_int(dx, X, dy, Y, L: LieAlgebra, c):
    """(Z, T) with bch(X / dx, Y / dy) = Z / T at class c, for int vectors X,
    Y and ints dx, dy > 0: the int body of ``bch``, Z a list of ints."""
    words, terms = _bch_terms(c)
    D, rows = L.table
    values = evaluate_hall_words(words, (X, Y),
                                 lambda u, v: sparse_bracket(rows, u, v, 0))
    denoms = [q * dx ** a * dy ** b * D ** (a + b - 1) for _, q, a, b in terms]
    T = lcm(*denoms)
    out = [0] * L.dim
    for (p, _, _, _), t, v in zip(terms, denoms, values):
        m = p * (T // t)
        for k, e in enumerate(v):
            if e:
                out[k] += m * e
    return out, T


def bch(x, y, L: LieAlgebra, cls=None):
    """Group product log(exp x . exp y) in a nilpotent Lie algebra.

    Evaluated fraction-free by ``_bch_int``: x = X / dx and y = Y / dy with
    X, Y integer, and the Hall words of ``bch_universal`` are evaluated on
    X, Y with the int table (D, D c) of the structure constants.  A word
    with a letters x and b letters y, of degree n = a + b, then has the
    integer value V_w = w(x, y) dx^a dy^b D^(n-1).  Each coordinate sums
    p_w (T / t_w) V_w over T, the lcm of the term denominators t_w = q_w
    dx^a dy^b D^(n-1) (the coefficient being p_w / q_w), and one Fraction
    per coordinate is built.
    """
    if len(x) != L.dim or len(y) != L.dim:
        raise ValueError("vector length must equal dim=%d" % L.dim)
    c = cls if cls is not None else nilpotency_class(L)
    return over(*_bch_int(*integer_row(x), *integer_row(y), L, c))


# ---------------------------------------------------------------------------
# Semidirect products exp(u) x| G

@functools.lru_cache(maxsize=None)
def _identity(n):
    return Matrix.identity(n)


class SemidirectElement:
    """Element (n, g) of exp(u) x| G: unipotent log part plus an automorphism.

    The action convention is fixed as (n1, g1)(n2, g2) = (bch(n1, g1 n2), g1 g2),
    i.e. the automorphism part acts on the left.
    """

    def __init__(self, L, log, aut=None, cls=None):
        self.L = L
        self.log = tuple(log)
        self.aut = aut if aut is not None else _identity(L.dim)
        self.cls = cls if cls is not None else nilpotency_class(L)

    @classmethod
    def identity(cls, L, nilp_cls=None):
        return cls(L, vec_zero(L.dim), cls=nilp_cls)

    def __mul__(self, other):
        """An identity automorphism part is neither applied nor multiplied."""
        if not isinstance(other, SemidirectElement):
            return NotImplemented
        one = _identity(self.L.dim)
        if self.aut == one:
            log, aut = other.log, other.aut
        else:
            log = self.aut.mul_vec(other.log)
            aut = self.aut if other.aut == one else self.aut * other.aut
        return SemidirectElement(self.L, bch(self.log, log, self.L, cls=self.cls), aut,
                                 cls=self.cls)

    def inverse(self):
        neg = vec_neg(self.log)
        if self.aut == _identity(self.L.dim):
            return SemidirectElement(self.L, neg, self.aut, cls=self.cls)
        ai = inverse(self.aut)
        return SemidirectElement(self.L, ai.mul_vec(neg), ai, cls=self.cls)

    def __eq__(self, other):
        return (isinstance(other, SemidirectElement) and self.log == other.log
                and self.aut == other.aut)

    def is_identity(self):
        return vec_is_zero(self.log) and self.aut == _identity(self.L.dim)

    def __repr__(self):
        return "SemidirectElement(log=%r)" % (self.log,)


class GroupPresentation:
    """Finite group presentation: generator names plus relator words.

    Relators are lists of letters "g" or "g^-1" over the generator names.
    """

    def __init__(self, generators, relators):
        self.generators = list(generators)
        self.relators = [list(r) for r in relators]
        for r in self.relators:
            for letter in r:
                if _base_letter(letter) not in self.generators:
                    raise ValueError("relator uses unknown generator %r" % letter)

    def to_json(self):
        return {"generators": self.generators, "relators": self.relators}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["generators"], obj["relators"])


def _base_letter(letter):
    return letter[:-3] if letter.endswith("^-1") else letter


def evaluate_word(assignment, word, L=None, cls=None):
    """Left-to-right product of assigned generator images over a word."""
    result = None
    for letter in word:
        base = _base_letter(letter)
        if base not in assignment:
            raise KeyError("letter %r not assigned" % letter)
        g = assignment[base]
        if letter.endswith("^-1"):
            g = g.inverse()
        result = g if result is None else result * g
    if result is None:
        if L is None:
            some = next(iter(assignment.values()))
            L, cls = some.L, some.cls
        result = SemidirectElement.identity(L, nilp_cls=cls)
    return result


def check_representation(presentation: GroupPresentation, assignment):
    """Verdict: [] when all relators map to the identity, else a defect list.

    Each defect is (relator, log part, automorphism deviation from identity).
    """
    defects = []
    for rel in presentation.relators:
        val = evaluate_word(assignment, rel)
        if not val.is_identity():
            dev = val.aut - Matrix.identity(val.L.dim)
            defects.append((rel, val.log, dev))
    return defects


# ---------------------------------------------------------------------------
# Lattices

def _lattice_member(basis_vectors):
    """(n, member) for the integer span of rational vectors, each of length
    n (ValueError when there are none or their lengths differ): member(w, d)
    tells whether w / d lies in the span, for an int list w and an int
    d > 0, in integer arithmetic only.

    The vectors, scaled by denom (the lcm of their denominators), are the
    sparse int rows whose ``hermite_rows`` H are a Z-basis of denom times
    the lattice.  With g = gcd(d, w), w / d = (w / g) / (d / g) in lowest
    terms, so denom w / d is integral iff d / g divides denom; then it is
    in the span of H iff it reduces to zero at the pivots of H, each
    division exact."""
    vectors = [tuple(v) for v in basis_vectors]
    if not vectors:
        raise ValueError("a lattice needs at least one vector")
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise ValueError("lattice vectors must all have length %d" % n)
    denom, rows = integer_terms(map(_sparse, vectors))
    hermite = hermite_rows(rows)

    def member(w, d):
        g = gcd(d, *w)
        d //= g
        if denom % d:
            return False
        s = denom // d
        w = [a // g * s for a in w]
        for row in hermite:
            p, a = row[0]
            if w[p]:
                q, r = divmod(w[p], a)
                if r:
                    return False
                for j, c in row:
                    w[j] -= q * c
        return not any(w)

    return n, member


def lattice_membership_test(basis_vectors):
    """Exact membership test for the integer span of rational vectors, each
    of the same length (ValueError when there are none or their lengths
    differ): the returned contains(v) scales v to ints once and asks
    ``_lattice_member``, which divides exactly at the pivots of one Hermite
    basis of the lattice."""
    n, member = _lattice_member(basis_vectors)

    def contains(v):
        if len(v) != n:
            raise ValueError("vector of length %d, expected %d" % (len(v), n))
        d, w = integer_row(v)
        return member(w, d)

    return contains


def lattice_closed_under_bch(L: LieAlgebra, basis_vectors):
    """Check closure of a lattice under the BCH product on the products of
    its +-generators v_1, -v_1, v_2, -v_2, ...; returns None when closed,
    else the witness (x, y, bch(x, y)) of the first escaping pair.

    Of the 4r^2 ordered pairs it takes 2r^2 - 2r: it skips y = +-x (the
    products 2x and 0 lie in the lattice) and a pair whose mirror (-y, -x)
    came earlier (bch(-y, -x) = -bch(x, y), and the lattice is closed under
    negation).  So a skipped pair escapes only after an earlier one does,
    and verdict and witness are those of the full scan.  Pair closure is
    closure at class 2; from class 3 on a "closed" verdict is not a proof.

    Each generator is scaled to ints once and negated on ints; a product
    is one ``_bch_int``, and its Z / T is tested by ``_lattice_member``.
    Fractions are built for the witness only.  The vectors must have length
    L.dim (ValueError otherwise).
    """
    vectors = list(basis_vectors)
    n, member = _lattice_member(vectors)
    if n != L.dim:
        raise ValueError("vector length must equal dim=%d" % L.dim)
    c = nilpotency_class(L)
    gens = []
    for v in vectors:
        d, V = integer_row(v)
        gens += [(d, V), (d, [-a for a in V])]
    for i, x in enumerate(gens):
        for j in range(i + 2 - i % 2, len(gens)):
            Z, T = _bch_int(*x, *gens[j], L, c)
            if not member(Z, T):
                x, y = (tuple(vectors[k // 2]) if k % 2 == 0 else vec_neg(vectors[k // 2])
                        for k in (i, j))
                return (x, y, over(Z, T))
    return None


def lattice_index(M: Matrix):
    """The index of the lattice of the rows of a square integral M in Z^n,
    |det M|: the product of the pivots of its ``hermite_rows`` at full rank
    n, and None (infinite) below it."""
    if M.rows != M.cols:
        raise ValueError("matrix must be square")
    if not M.is_integral():
        raise ValueError("matrix must be integral")
    rows = hermite_rows(M.integer_view()[1])
    return prod(row[0][1] for row in rows) if len(rows) == M.rows else None


def commutator_index(M: Matrix):
    """Index of the image lattice of M - I, ``lattice_index(M - I)``: its
    columns and its rows span lattices of the same index |det(M - I)|;
    None means infinite."""
    if M.rows != M.cols:
        raise ValueError("matrix must be square")
    return lattice_index(M - Matrix.identity(M.rows))
