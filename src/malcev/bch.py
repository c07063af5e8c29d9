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
from math import lcm, prod

from .linalg import (
    Matrix, ZERO, vec_neg, vec_zero, vec_is_zero, inverse,
    smith_normal_form, integer_row, over, AffineSolver,
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


def bch(x, y, L: LieAlgebra, cls=None):
    """Group product log(exp x . exp y) in a nilpotent Lie algebra.

    Evaluated fraction-free: x = X / dx and y = Y / dy with X, Y integer, and
    the Hall words of ``bch_universal`` are evaluated on X, Y with the
    int table (D, D c) of the structure constants.  A word with a letters
    x and b letters y, of degree n = a + b, then has the integer value V_w =
    w(x, y) dx^a dy^b D^(n-1).  Each coordinate sums p_w (T / t_w) V_w over
    T, the lcm of the term denominators t_w = q_w dx^a dy^b D^(n-1) (the
    coefficient being p_w / q_w), and one Fraction per coordinate is built.
    """
    if len(x) != L.dim or len(y) != L.dim:
        raise ValueError("vector length must equal dim=%d" % L.dim)
    c = cls if cls is not None else nilpotency_class(L)
    words, terms = _bch_terms(c)
    D, rows = L.table
    dx, X = integer_row(x)
    dy, Y = integer_row(y)
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
    return over(out, T)


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

def lattice_membership_test(basis_vectors):
    """Exact membership test for the integer span of rational vectors.

    The vectors, scaled by denom (the lcm of their denominators), are the
    integer columns of B; with U B V = diag(d) in Smith normal form, v lies
    in the span iff w = denom v is integral, (U w)_i is divisible by d_i
    below the rank r, and (U w)_i = 0 from r on.  The rows of U are kept as
    sparse int rows, so a test is integer arithmetic only."""
    cols = [tuple(v) for v in basis_vectors]
    n = len(cols[0])
    denom, flat = integer_row([e for v in cols for e in v])
    B = Matrix.from_columns([flat[t * n:t * n + n] for t in range(len(cols))], rows=n)
    U, D, V = smith_normal_form(B)
    diag = _diagonal(D)
    r = sum(1 for d in diag if d != 0)
    rows = U.integer_view()[1]

    def contains(v):
        if len(v) != n:
            raise ValueError("vector of length %d, expected %d" % (len(v), n))
        d, w = integer_row(v)  # denom v = (denom / d) w is integral iff d | denom
        if denom % d:
            return False
        for i, row in enumerate(rows):
            s = sum([a * w[j] for j, a in row]) * (denom // d)
            if s % diag[i] if i < r else s:
                return False
        return True

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
    """
    contains = lattice_membership_test(basis_vectors)
    c = nilpotency_class(L)
    gens = []
    for v in basis_vectors:
        gens.append(tuple(v))
        gens.append(vec_neg(v))
    for i, x in enumerate(gens):
        for y in gens[i + 2 - i % 2:]:
            z = bch(x, y, L, cls=c)
            if not contains(z):
                return (x, y, z)
    return None


def commutator_index(M: Matrix):
    """Index of the image lattice of M - I, via SNF; None means infinite."""
    if M.rows != M.cols:
        raise ValueError("matrix must be square")
    if not M.is_integral():
        raise ValueError("matrix must be integral")
    diag = _diagonal(smith_normal_form(M - Matrix.identity(M.rows))[1])
    return None if 0 in diag else prod(diag)


def _diagonal(D):
    """The diagonal of a Smith form D: its int row i is () or ((i, d_i),)."""
    return [terms[0][1] if terms else 0 for terms in D.integer_view()[1][:D.cols]]
