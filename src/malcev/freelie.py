"""Class-truncated free nilpotent Lie algebras via Hall bases.

Hall words are nested tuples over generator indices: an int is a generator,
a pair (u, v) is the bracket [u, v].  The Hall set uses the classical
convention with a degree-first order (ties broken left-to-right
lexicographically on subtree keys), fixed once and for all so serialized
coordinates are stable:

    (u, v) is a Hall word  iff  u < v, u and v are Hall words, and
    either v is a generator or v = (a, b) with a <= u.

The degree-2 Hall words are then (i, j) with i < j, and the degree-3 words
on two generators are (0, (0, 1)) and (1, (0, 1)), matching the serialized
form [[0, 1], 0] ~ [[x, y], x] rewriting to -[x, [x, y]].
"""

import functools

from .linalg import echelon_rows, integer_terms, _combine
from .lie import LieAlgebra, LieIdeal


def degree(w) -> int:
    return 1 if isinstance(w, int) else degree(w[0]) + degree(w[1])


@functools.lru_cache(maxsize=None)
def _key(w):
    if isinstance(w, int):
        return (1, (w,))
    kl, kr = _key(w[0]), _key(w[1])
    return (kl[0] + kr[0], (kl, kr))


def hall_less(u, v) -> bool:
    return _key(u) < _key(v)


def is_hall_word(w) -> bool:
    if isinstance(w, int):
        return w >= 0
    u, v = w
    if not (is_hall_word(u) and is_hall_word(v) and hall_less(u, v)):
        return False
    return _is_standard_pair(u, v)


def _is_standard_pair(u, v) -> bool:
    """Whether (u, v) is a Hall word given u, v are Hall words with u < v."""
    return isinstance(v, int) or not hall_less(u, v[0])


def hall_basis(k, c):
    """Hall words on k generators grouped by degree 1..c, in canonical order."""
    if k < 1 or c < 1:
        raise ValueError("need k >= 1 and c >= 1")
    by_degree = [sorted(range(k), key=_key)]
    for n in range(2, c + 1):
        words = []
        for du in range(1, n):
            for u in by_degree[du - 1]:
                for v in by_degree[n - du - 1]:
                    if hall_less(u, v) and _is_standard_pair(u, v):
                        words.append((u, v))
        by_degree.append(sorted(words, key=_key))
    return by_degree


def word_program(words, k):
    """(where, steps, inner): a straight-line program for nested bracket
    words over the generators 0..k-1.  Slot i < k holds generator i, slot
    k + t the bracket of the slots steps[t] = (a, b); each distinct bracket
    subword is one step, after those of its factors.  The first inner steps
    are the proper subwords of the words, the others the top-level words
    (subwords of no other word); words[i] is in slot where[i]."""
    slot, steps = {}, []

    def visit(w):
        if not isinstance(w, int) and w not in slot:
            steps.append((visit(w[0]), visit(w[1])))
            slot[w] = k + len(steps) - 1
        return slot.get(w, w)

    for u in [u for w in words if not isinstance(w, int) for u in w]:
        visit(u)
    inner = len(steps)
    return [visit(w) for w in words], steps, inner


def evaluate_hall_words(words, generators, bracket):
    """Values of nested bracket words, Hall words or any other, with generator
    i -> generators[i] and [u, v] -> bracket(u, v), by ``word_program``."""
    where, steps, _ = word_program(words, len(generators))
    values = list(generators)
    for a, b in steps:
        values.append(bracket(values[a], values[b]))
    return [values[s] for s in where]


def word_to_json(w):
    return w if isinstance(w, int) else [word_to_json(w[0]), word_to_json(w[1])]


def word_from_json(obj):
    if isinstance(obj, int):
        return obj
    a, b = obj
    return (word_from_json(a), word_from_json(b))


def word_str(w, names=None):
    if isinstance(w, int):
        return names[w] if names else "x%d" % w
    return "[%s,%s]" % (word_str(w[0], names), word_str(w[1], names))


class HallRewriter:
    """Rewrites brackets of Hall words into Hall coordinates, which are
    integers.

    Memoized on word pairs; truncation class is fixed per instance.  The
    rewriting uses antisymmetry plus the Jacobi identity in the standard
    collection pattern: for u < v = (a, b) with a > u,
        [u, [a, b]] = [[u, a], b] + [a, [u, b]].
    """

    def __init__(self, c):
        self.c = c
        self._cache = {}

    def bracket(self, u, v):
        """Hall coordinates of [u, v], as a dict word -> int coefficient."""
        if degree(u) + degree(v) > self.c:
            return {}
        if u == v:
            return {}
        if hall_less(v, u):
            return {w: -cf for w, cf in self.bracket(v, u).items()}
        key = (u, v)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if _is_standard_pair(u, v):
            out = {(u, v): 1}
        else:
            a, b = v
            out = {}
            for w, cf in self.bracket(u, a).items():
                for w2, cf2 in self.bracket(w, b).items():
                    out[w2] = out.get(w2, 0) + cf * cf2
            for w, cf in self.bracket(u, b).items():
                for w2, cf2 in self.bracket(a, w).items():
                    out[w2] = out.get(w2, 0) + cf * cf2
            out = {w: cf for w, cf in out.items() if cf != 0}
        self._cache[key] = out
        return out


@functools.lru_cache(maxsize=None)
def free_nilpotent(k, c) -> LieAlgebra:
    """Free nilpotent Lie algebra on k generators of class c, on a Hall basis.

    Carries the canonical grading by bracket degree; basis vectors follow the
    Hall order, generators first.  The structure constants are the int
    Hall coordinates of ``HallRewriter``, so the table has D = 1.
    """
    groups = hall_basis(k, c)
    words = [w for grp in groups for w in grp]
    index = {w: i for i, w in enumerate(words)}
    dim = len(words)
    grading = [degree(w) for w in words]
    rw = HallRewriter(c)
    pairs = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            if grading[i] + grading[j] > c:
                continue
            coords = rw.bracket(words[i], words[j])
            if coords:
                pairs[(i, j)] = tuple(sorted((index[w], cf) for w, cf in coords.items()))
    L = LieAlgebra.of_ints(dim, 1, pairs, grading=grading,
                           basis_names=[word_str(w) for w in words])
    L.hall_words = words
    L.hall_index = index
    return L


def graded_ideal_closure(L: LieAlgebra, generators):
    """Smallest graded ideal of a degree-1-generated graded L containing the
    given homogeneous generators (ValueError for one that is not).

    Returns (ideal, dims) where dims[n] is the dimension of the degree-(n+1)
    piece.  Uses the recursion I_n = span(S_n) + [L_1, I_{n-1}], valid
    because L is generated in degree 1.  Degree n runs on sparse int rows
    over the coordinates of L_n, from ``graded_component_indices(n)``: ad of
    each degree-1 generator is read off ``L.table`` (int multiples, so the
    same span), ``echelon_rows`` gives the primitive RREF rows, and they
    feed degree n+1.  The columns outside L_n are zero, so each row, its
    columns mapped back to L, is a multiple of a row of the RREF of I_n in
    L.  The pieces have disjoint supports, so their rows ordered by pivot
    column are the rows of the RREF of the ideal, also when components
    interleave; the ideal keeps them as built.
    """
    if L.grading is None:
        raise ValueError("ambient algebra must be graded")
    comps = [L.graded_component_indices(n) for n in range(1, max(L.grading, default=0) + 1)]
    terms_of = [[] for _ in comps]
    for v in generators:
        if len(v) != L.dim:
            raise ValueError("vector of length %d, expected %d" % (len(v), L.dim))
        degs = {L.grading[i] for i, c in enumerate(v) if c != 0}
        if len(degs) > 1:
            raise ValueError("vector is not homogeneous")
        for d in degs:
            terms_of[d - 1].append([(p, v[g]) for p, g in enumerate(comps[d - 1]) if v[g]])
    table = L.table[1]
    dims, pivoted, prev, below = [], [], [], {}
    for idx, terms in zip(comps, terms_of):
        rows = list(integer_terms(terms)[1])
        at = {g: p for p, g in enumerate(idx)}
        for i in comps[0]:
            ad = {below[j]: [(at[k], c) for k, c in terms] for j, terms in table[i] if j in below}
            rows += [_combine(ad, v) for v in prev]
        (prev, pivots), below = echelon_rows(rows, len(idx)), at
        pivoted += [(idx[p], tuple((idx[j], x) for j, x in r)) for r, p in zip(prev, pivots)]
        dims.append(len(pivots))
    pivoted.sort(key=lambda t: t[0])
    return LieIdeal._of_rows(L, [v for _, v in pivoted]), dims
