"""Unipotent group arithmetic via the Campbell-Baker-Hausdorff formula.

The universal BCH series log(e^X e^Y) on two generators is computed once per
class c: its word coefficients come from log(1 + z) with z = e^X e^Y - 1,
and the Dynkin-Specht-Wever projection turns them into Hall coordinates of
the free nilpotent algebra F(2, c), with no solve.  The cached expansion is
then evaluated in any nilpotent algebra by substituting structure constants,
so the same code is correct for every class bound.
"""

import functools
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod

from .linalg import (
    Matrix, vec_neg, vec_zero, vec_is_zero, inverse, hermite_rows,
    integer_row, integer_terms, over, as_list, _sparse,
)
from .lie import LieAlgebra, nilpotency_class, sparse_bracket
from .freelie import evaluate_hall_words, free_nilpotent, word_program


@functools.lru_cache(maxsize=None)
def bch_universal(c):
    """Hall coordinates of log(exp X . exp Y) on two generators, class c.

    A tuple of (hall_word, coefficient) pairs in Hall-index order: X + Y +
    1/2 [X, Y] at class 2, and () at class 0 (the zero algebra).  Two exact
    identities give it, on ints:

    - The words.  log(1 + z) = sum_k (-1)^(k-1) z^k / k for z = e^X e^Y - 1,
      the sum of the blocks X^r Y^s / (r! s!) over r + s >= 1, and z^(k+1)
      is z^k times one block.  n! times the coefficient of a word of length
      n in z^k is an int (a sum of multinomials), and a block of length l
      with r letters X multiplies it by C(n + l, l) C(l, r).  So with M =
      lcm(1..c), a word w of length n has coefficient c_w = S_w / (M n!).
    - Dynkin-Specht-Wever (Dynkin 1947; Specht 1948, Wever 1949).  The
      series is a Lie element, so its degree-n part P has theta(P) = n P
      for theta(a_1 ... a_n) = [a_1, [a_2, ... a_n]]: it is the sum of
      c_w / n theta(w).  ``evaluate_hall_words`` evaluates each theta(w), a
      right-nested word, on the int table of F(2, c) (D = 1), in Hall
      coordinates; theta(w) = 0 when w ends in two equal letters.  So a
      Hall coordinate of degree n is one int sum over M n! n.
    """
    if not c:
        return ()
    blocks = [[((0,) * r + (1,) * (l - r), comb(n + l, l) * comb(l, r))
               for l in range(1, c - n + 1) for r in range(l + 1)] for n in range(c + 1)]
    M = lcm(*range(1, c + 1))
    sums, power = {}, {(): 1}
    for k in range(1, c + 1):
        nxt = {}
        for w, a in power.items():
            for b, q in blocks[len(w)]:
                nxt[w + b] = nxt.get(w + b, 0) + a * q
        power = nxt
        for w, a in power.items():
            sums[w] = sums.get(w, 0) + (a if k % 2 else -a) * (M // k)
    theta = {functools.reduce(lambda v, a: (a, v), w[-2::-1], w[-1]): s  # right-nested
             for w, s in sums.items() if s and w[-2:] not in ((0, 0), (1, 1))}
    F = free_nilpotent(2, c)
    rows = F.table[1]
    x, y = ((0,) * i + (1,) + (0,) * (F.dim - i - 1) for i in (0, 1))
    out = [0] * F.dim
    for s, v in zip(theta.values(), evaluate_hall_words(
            theta, (x, y), lambda u, v: sparse_bracket(rows, u, v, 0))):
        for i, e in enumerate(v):
            if e:
                out[i] += s * e
    return tuple((w, Fraction(s, M * factorial(n) * n))
                 for w, s, n in zip(F.hall_words, out, F.grading) if s)


@functools.lru_cache(maxsize=None)
def _bch_terms(c):
    """bch_universal(c) compiled once: (terms, steps, groups).  terms[i] is
    (numerator, denominator, x-letters, y-letters) of the i-th word; steps
    are the inner steps of its ``word_program`` on the slots x, y; groups
    maps a left factor u to the (i, v) of the top-level words (u, v), and
    None to the (i, slot) of the letters and proper subwords."""
    def letters(w):
        if isinstance(w, int):
            return (1 - w, w)
        (a0, b0), (a1, b1) = letters(w[0]), letters(w[1])
        return (a0 + a1, b0 + b1)

    terms = bch_universal(c)
    where, steps, inner = word_program([w for w, _ in terms], 2)
    groups = {}
    for i, s in enumerate(where):
        u, v = (None, s) if s < 2 + inner else steps[s - 2]
        groups.setdefault(u, []).append((i, v))
    return (tuple((cf.numerator, cf.denominator) + letters(w) for w, cf in terms),
            tuple(steps[:inner]), tuple((u, tuple(parts)) for u, parts in groups.items()))


def _bch_int(dx, X, dy, Y, L: LieAlgebra, c):
    """(Z, T) with bch(X / dx, Y / dy) = Z / T at class c, for int vectors X,
    Y and ints dx, dy > 0, Z a list of ints.  On the int table (D, D c) of
    L, a word with a letters x and b letters y has the int value V_w = w(x,
    y) dx^a dy^b D^(a+b-1); with coefficient p_w / q_w and t_w = q_w dx^a
    dy^b D^(a+b-1), T is the lcm of the t_w and Z = sum m_w V_w, m_w = p_w T
    / t_w.  ``_bch_terms`` makes one ``sparse_bracket`` per step and one per
    left factor u: [u, sum m_w v] = sum m_w V_(u, v) by bilinearity."""
    terms, steps, groups = _bch_terms(c)
    D, rows = L.table
    values = [X, Y]
    for a, b in steps:
        values.append(sparse_bracket(rows, values[a], values[b], 0))
    denoms = [q * dx ** a * dy ** b * D ** (a + b - 1) for _, q, a, b in terms]
    T = lcm(*denoms)
    out = [0] * L.dim
    for u, parts in groups:
        acc = out if u is None else [0] * L.dim
        for i, v in parts:
            _accumulate(acc, terms[i][0] * (T // denoms[i]), values[v])
        if u is not None:
            _accumulate(out, 1, sparse_bracket(rows, values[u], acc, 0))
    return out, T


def _accumulate(out, m, v):
    for k, e in enumerate(v):
        if e:
            out[k] += m * e


def bch(x, y, L: LieAlgebra, cls=None):
    """Group product log(exp x . exp y) in a nilpotent Lie algebra: x and y
    are scaled to ints once, and ``_bch_int`` gives Z / T, one Fraction per
    coordinate."""
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

    def __init__(self, L, log, aut=None):
        self.L = L
        self.log = tuple(log)
        self.aut = aut if aut is not None else _identity(L.dim)

    @classmethod
    def identity(cls, L):
        return cls(L, vec_zero(L.dim))

    def __mul__(self, other):
        """``_int_product`` of the int images in self.L."""
        if not isinstance(other, SemidirectElement):
            return NotImplemented
        return _element(self.L, _int_product(self.L, _int_image(self), _int_image(other)))

    def inverse(self):
        return _element(self.L, _int_inverse(_int_image(self), self.L))

    def __eq__(self, other):
        return (isinstance(other, SemidirectElement) and self.log == other.log
                and self.aut == other.aut)

    def is_identity(self):
        return vec_is_zero(self.log) and self.aut == _identity(self.L.dim)

    def __repr__(self):
        return "SemidirectElement(log=%r)" % (self.log,)


class GroupPresentation:
    """Finite group presentation: generator names plus relator words.

    Relators are lists of letters "g" or "g^-1" over distinct generator
    names.  A string is not read as a list of its characters: generators,
    relators or a relator given as a string is a ValueError.
    """

    def __init__(self, generators, relators):
        self.generators = as_list(generators, "the generators")
        if len(set(self.generators)) < len(self.generators):
            raise ValueError("generator names must be distinct")
        for g in self.generators:
            if isinstance(g, str) and g.endswith("^-1"):
                raise ValueError("generator name %r ends in ^-1" % g)
        self.relators = [as_list(r, "a relator") for r in as_list(relators, "the relators")]
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


def _lowest(d, n, A):
    g = gcd(d, *n)   # n / d in lowest terms, as integer_row(over(n, d)) gives it
    return (d, n, A) if g == 1 else (d // g, [a // g for a in n], A)


def _int_image(el):
    """The int image (d, n, A) of a SemidirectElement: its log part n / d by
    ``integer_row``, and its automorphism part A."""
    return (*integer_row(el.log), el.aut)


def _element(L, image):
    return SemidirectElement(L, over(image[1], image[0]), image[2])


def _act(A, d, n):
    """A (n / d) as (D d, N n), N / D the int rows of A (ValueError as in
    ``Matrix.mul_vec`` unless n has A.cols entries)."""
    if len(n) != A.cols:
        raise ValueError("dimension mismatch: %d cols, %d entries" % (A.cols, len(n)))
    D, rows = A.integer_view()
    return D * d, [sum([x * n[j] for j, x in terms]) for terms in rows]


def _int_inverse(image, L):
    """(n, A)^-1 = (A^-1 (-n), A^-1) on an int image, A^-1 n applied unless
    A is the identity of L."""
    d, n, A = image
    if A == _identity(L.dim):
        return d, [-a for a in n], A
    Ai = inverse(A)
    return _lowest(*_act(Ai, d, [-a for a in n]), Ai)


def _int_product(L, a, b):
    """(n1, A1)(n2, A2) = (bch(n1, A1 n2), A1 A2) on int images in exp(L) x| G:
    one ``_bch_int`` at the class of L, then Z / T in lowest terms.  As on
    Fractions, an identity A1 or A2 of L is neither applied nor multiplied,
    and errors come in the order of ``Matrix.mul_vec``, ``Matrix.__mul__``
    and ``bch``."""
    (d1, n1, A1), (d2, n2, A2) = a, b
    one = _identity(L.dim)
    if A1 != one:
        d2, n2 = _act(A1, d2, n2)
        A2 = A1 if A2 == one else A1 * A2
    if len(n1) != L.dim or len(n2) != L.dim:
        raise ValueError("vector length must equal dim=%d" % L.dim)
    Z, T = _bch_int(d1, n1, d2, n2, L, nilpotency_class(L))
    return _lowest(T, Z, A2)


def _walk(L, image, word, fox=None):
    """The value (d, n, A) of a word, the left-to-right ``_int_product`` of
    the int images image(letter); None for the empty word.  fox, if given,
    collects the Fox terms of each generator g: (1, A before the letter)
    for g and (-1, A after it) for g^-1."""
    val = None
    for letter in word:
        inv = letter.endswith("^-1")
        if fox is not None and not inv:
            fox.setdefault(letter, []).append((1, val[2] if val else _identity(L.dim)))
        val = image(letter) if val is None else _int_product(L, val, image(letter))
        if fox is not None and inv:
            fox.setdefault(letter[:-3], []).append((-1, val[2]))
    return val


def evaluate_word(assignment, word, L=None):
    """Left-to-right product of assigned generator images over a word: one
    ``_walk`` over their int images in the algebra of the first one.  The
    empty word is the identity of L, or of the algebra of an assigned image
    when L is None (ValueError when there is neither)."""
    word = list(word)
    if word and _base_letter(word[0]) in assignment:
        L = assignment[_base_letter(word[0])].L

    def image(letter):
        if _base_letter(letter) not in assignment:
            raise KeyError("letter %r not assigned" % letter)
        g = assignment[_base_letter(letter)]
        return _int_inverse(_int_image(g), g.L) if letter.endswith("^-1") else _int_image(g)

    value = _walk(L, image, word)
    if value is not None:
        return _element(L, value)
    if L is None and not assignment:
        raise ValueError("the empty word needs L or an assigned generator")
    return SemidirectElement.identity(next(iter(assignment.values())).L if L is None else L)


def check_representation(presentation: GroupPresentation, assignment):
    """Verdict: [] when all relators map to the identity, else a defect list.

    Each defect is (relator, log part, automorphism deviation from identity).
    An empty relator is the identity and is skipped, with no algebra needed.
    """
    defects = []
    for rel in filter(None, presentation.relators):
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
