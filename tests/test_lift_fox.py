"""One-class lifting against finite differences of an independent group law.

The oracle multiplies semidirect elements (n, A) with ``oracles.dynkin_bch``
and dense matrices, evaluates every relator at the zero correction (the
defects d0) and at each single correction (g, v), v in the kernel basis of
the stage, and takes the differences as the columns of M.  The matrix that
``lift_one_class`` hands to its AffineSolver must equal them column for
column, its verdict must be that of ``naive_solve`` on M x = -d0, a lift
must kill every relator under the oracle, and a refutation y must satisfy
y M = 0 and y . (-d0) != 0.  On seeded random presentations the library
must raise its level-k ValueError exactly when the oracle, evaluating the
relators in U/G_k itself, finds one that is not the identity.
"""

import random
from fractions import Fraction

import pytest

from malcev import present
from malcev.bch import GroupPresentation
from malcev.dgla import lcs_extension
from malcev.freelie import free_nilpotent
from malcev.lie import heisenberg
from malcev.linalg import Matrix
from malcev.present import lift_one_class

from oracles import dense_bracket, dynkin_bch, naive_solve


def identity(n):
    return [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]


def mat_vec(m, v):
    return tuple(sum((a * b for a, b in zip(row, v) if a and b), Fraction(0)) for row in m)


def mat_mul(a, b):
    return [[sum((a[r][t] * b[t][c] for t in range(len(b)) if a[r][t] and b[t][c]),
                 Fraction(0))
             for c in range(len(b[0]))] for r in range(len(a))]


def mat_inv(m):
    n = len(m)
    cols = [naive_solve(m, [Fraction(int(r == c)) for r in range(n)]) for c in range(n)]
    return [[cols[c][r] for c in range(n)] for r in range(n)]


def oracle_word(dim, table, cls, images, word):
    """Left-to-right product of the (log, aut, aut^-1) images over a relator
    word, with (n1, A1)(n2, A2) = (bch(n1, A1 n2), A1 A2) and (n, A)^-1 =
    (A^-1 (-n), A^-1)."""
    n, A = (Fraction(0),) * dim, identity(dim)
    for letter in word:
        inverse = letter.endswith("^-1")
        m, B, B_inv = images[letter[:-3] if inverse else letter]
        if inverse:
            B = B_inv
            m = mat_vec(B, tuple(-e for e in m))
        n, A = dynkin_bch(dim, table, n, mat_vec(A, m), cls), mat_mul(A, B)
    return n, A


@pytest.fixture
def systems(monkeypatch):
    """The matrices that lift_one_class hands to its AffineSolver."""
    seen, real = [], present.AffineSolver

    def spy(m):
        seen.append(m)
        return real(m)

    monkeypatch.setattr(present, "AffineSolver", spy)
    return seen


def check_against_oracle(systems, U, cls, k, gens, relators, assignment, ambient=None):
    """Run lift_one_class and check it against the oracle; returns lifted."""
    p = GroupPresentation(gens, relators)
    systems.clear()
    res = lift_one_class(p, assignment, U, k, ambient_auts=ambient)
    e = lcs_extension(U, k)
    N = e.N
    dim, table = N.dim, dict(N.brackets)
    if ambient:   # the oracle acts with the ambient matrices on U/G_{k+1} = U
        assert e.quotient == Matrix.identity(U.dim)
    auts = {g: [list(r) for r in ambient[g].data] if ambient and g in ambient
            else identity(dim) for g in gens}
    inverses = {g: mat_inv(A) for g, A in auts.items()}
    section = e.section().data
    base = {g: (mat_vec(section, tuple(map(Fraction, assignment[g]))), auts[g], inverses[g])
            for g in gens}

    def defects(images):
        return [oracle_word(dim, table, cls, images, rel)[0] for rel in relators]

    d0 = defects(base)
    cols = []
    for g in gens:
        for v in e.kernel:
            moved = dict(base)
            moved[g] = (tuple(a + b for a, b in zip(base[g][0], v)), auts[g], inverses[g])
            cols.append([c - c0 for d, dz in zip(defects(moved), d0)
                         for c, c0 in zip(d, dz)])
    # the library's Fox columns are the finite differences, entry for entry
    [M] = systems
    assert (M.rows, M.cols) == (len(d0) * dim, len(cols))
    assert list(M.columns()) == [tuple(c) for c in cols]
    t = [-c for d in d0 for c in d]
    rows = [tuple(col[i] for col in cols) for i in range(len(t))]
    assert res.lifted == (naive_solve(rows, t) is not None)
    if res.lifted:
        images = {g: (el.log, [list(r) for r in el.aut.data], inverses[g])
                  for g, el in res.images.items()}
        assert all(images[g][1] == auts[g] for g in gens)
        for rel in relators:
            assert oracle_word(dim, table, cls, images, rel) == (
                (Fraction(0),) * dim, identity(dim))
    else:
        assert [tuple(d) for _, d in res.witness] == d0
        y = res.refutation
        assert all(sum(a * b for a, b in zip(y, col)) == 0 for col in cols)
        assert sum(a * b for a, b in zip(y, t)) != 0
    return res.lifted


HEISENBERG_GROUP = [["x", "y", "x^-1", "y^-1", "z^-1"],
                    ["x", "z", "x^-1", "z^-1"], ["y", "z", "y^-1", "z^-1"]]


def test_demo_lattice_is_obstructed(systems):
    # exponent sum -2 of z in the first relator
    relators = [["x", "y", "x^-1", "y^-1", "z^-1", "z^-1"],
                ["x", "z", "x^-1", "z^-1"], ["y", "z", "y^-1", "z^-1"]]
    assert not check_against_oracle(
        systems, free_nilpotent(2, 3), 3, 3, ["x", "y", "z"], relators,
        {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, Fraction(1, 2))})


def test_heisenberg_group_lifts_to_class2_and_not_to_class3(systems):
    gens = ["x", "y", "z"]
    assert check_against_oracle(systems, free_nilpotent(2, 3), 3, 2, gens, HEISENBERG_GROUP,
                                {"x": (1, 0), "y": (0, 1), "z": (0, 0)})
    assert not check_against_oracle(systems, free_nilpotent(2, 4), 4, 3, gens,
                                    HEISENBERG_GROUP,
                                    {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)})


SWAP = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, -1]])   # x <-> y, so z -> -z


@pytest.mark.parametrize("tz, lifted", [
    (["t", "z", "t^-1", "z"], True),        # t z t^-1 = z^-1, as the swap says
    (["t", "z", "t^-1", "z^-1"], False),    # t commutes with z: 2z = 0
])
def test_swap_acting_by_minus_one_on_the_center(systems, tz, lifted):
    relators = [["t", "t"], ["t", "x", "t^-1", "y^-1"],
                ["x", "y", "x^-1", "y^-1", "z^-1"], tz]
    assert check_against_oracle(
        systems, heisenberg(), 2, 2, ["t", "x", "y", "z"], relators,
        {"t": (0, 0), "x": (1, 0), "y": (0, 1), "z": (0, 0)}, {"t": SWAP}) == lifted


def permutation_automorphism(L, perm):
    """The automorphism of free_nilpotent(3, 2) that permutes the generators."""
    n = L.dim
    e = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    cols = [None] * n
    for i in range(3):
        cols[i] = e[perm[i]]
    for w, h in L.hall_index.items():
        if not isinstance(w, int):
            cols[h] = dense_bracket(n, L.brackets, e[perm[w[0]]], e[perm[w[1]]])
    return Matrix([[cols[c][r] for c in range(n)] for r in range(n)])


S3_RELATORS = [["s", "s", "s"], ["t", "t"], ["s", "t", "s", "t"]]
# one word for each element of S3 = <s, t>
S3_WORDS = [[], ["s"], ["s", "s"], ["t"], ["s", "t"], ["s", "s", "t"]]


def trivial_word(rng, auts):
    """A random word in s, t and their inverses, completed by a word of
    S3_WORDS to one whose automorphism part is the identity."""
    inverses = {g: mat_inv(A) for g, A in auts.items()}

    def product(word):
        A = identity(len(auts["s"]))
        for letter in word:
            A = mat_mul(A, (inverses if letter.endswith("^-1") else auts)[letter[0]])
        return A
    word = [rng.choice(("s", "t", "s^-1", "t^-1")) for _ in range(rng.randint(3, 7))]
    one = identity(len(auts["s"]))
    return next(word + tail for tail in S3_WORDS if product(word + tail) == one)


@pytest.mark.parametrize("seed", range(6))
def test_symmetric_group_acting_on_free_class2(systems, seed):
    """s and t act on F(3, 2) by the 3-cycle (0 1 2) and the transposition
    (0 1), which do not commute on the 3-dimensional kernel, so the prefix
    order and the place of a_g^-1 in the inverse-letter term both matter.
    The logs w - a_g w (g = s, t) of level 2 are a coboundary, so every word
    that is trivial in S3 is a relator at level 2."""
    rng = random.Random(seed)
    L = free_nilpotent(3, 2)
    ambient = {"s": permutation_automorphism(L, (1, 2, 0)),
               "t": permutation_automorphism(L, (1, 0, 2))}
    auts = {g: [list(r) for r in m.data] for g, m in ambient.items()}
    w = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
    assignment = {g: tuple(a - b for a, b in zip(w, mat_vec([r[:3] for r in A[:3]], w)))
                  for g, A in auts.items()}
    gens = ["s", "t"]
    relators = S3_RELATORS + [trivial_word(rng, auts) for _ in range(3)]
    if seed % 2:   # a central generator z that can absorb s- and t-defects
        gens.append("z")
        relators += [["s", "z", "s^-1", "z^-1"], ["t", "z", "t^-1", "z"]]
        assignment["z"] = (0, 0, 0)
    assert check_against_oracle(systems, L, 2, 2, gens, relators, assignment, ambient)


def test_oracle_bch_matches_the_library():
    from malcev.bch import bch
    rng = random.Random(3)
    for k, c in ((2, 3), (3, 2), (2, 4)):
        L = free_nilpotent(k, c)
        for _ in range(4):
            x, y = (tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(L.dim)) for _ in range(2))
            assert dynkin_bch(L.dim, dict(L.brackets), x, y, c) == bch(x, y, L)


def oracle_level_k_fails(U, k, gens, relators, assignment, ambient=None):
    """Whether some relator is not the identity in U/G_k under the oracle
    group law, each generator acting by p a_g s (p the projection and s the
    section of the stage, a_g its ambient matrix or the identity)."""
    e = lcs_extension(U, k)
    M = e.M
    P, S = e.projection.data, e.section().data
    images = {}
    for g in gens:
        A = mat_mul(mat_mul(P, ambient[g].data), S) if ambient and g in ambient \
            else identity(M.dim)
        images[g] = (tuple(map(Fraction, assignment[g])), A, mat_inv(A))
    one = ((Fraction(0),) * M.dim, identity(M.dim))
    return any(oracle_word(M.dim, dict(M.brackets), k - 1, images, rel) != one
               for rel in relators)


def random_relator(rng, gens):
    """A commutator of two generators (trivial at level 2 without an
    action), or a random word of one to five letters."""
    if rng.random() < 0.5:
        a, b = rng.sample(gens, 2)
        return [a, b, a + "^-1", b + "^-1"]
    return [rng.choice(gens) + rng.choice(("", "^-1")) for _ in range(rng.randint(1, 5))]


RANDOM_CASES = [   # (U, its class, k, ambient action)
    (heisenberg, 2, 2, None), (lambda: free_nilpotent(2, 3), 3, 2, None),
    (lambda: free_nilpotent(2, 3), 3, 3, None), (lambda: free_nilpotent(2, 4), 4, 3, None),
    (heisenberg, 2, 2, {"t": SWAP}),
]


@pytest.mark.parametrize("case", range(len(RANDOM_CASES)))
def test_level_k_verdict_on_random_presentations(systems, case):
    """lift_one_class reads the level-k verdict off the relator values in
    U/G_{k+1}; it must raise exactly when the oracle's own evaluation in
    U/G_k finds a relator that is not the identity, and otherwise agree
    with the oracle on the system and the verdict.  Both outcomes occur."""
    make, cls, k, ambient = RANDOM_CASES[case]
    U = make()
    dim_k = lcs_extension(U, k).M.dim
    gens = ["t", "x", "y", "z"]
    outcomes = set()
    for seed in range(24):
        rng = random.Random(1000 * case + seed)
        relators = [random_relator(rng, gens) for _ in range(rng.randint(1, 3))]
        if ambient and rng.random() < 0.5:   # relators the swap respects
            relators += [["t", "t"], ["t", "x", "t^-1", "y^-1"]]
        assignment = {g: tuple(rng.randint(-1, 1) * rng.randint(0, 1) for _ in range(dim_k))
                      for g in gens}
        if ambient:   # t acts by the swap, with a zero log
            assignment["t"] = (0,) * dim_k
        fails = oracle_level_k_fails(U, k, gens, relators, assignment, ambient)
        outcomes.add(fails)
        if fails:
            with pytest.raises(ValueError, match="^assignment does not satisfy the "
                                                 "relators at level k$"):
                lift_one_class(GroupPresentation(gens, relators), assignment, U, k,
                               ambient_auts=ambient)
        else:
            check_against_oracle(systems, U, cls, k, gens, relators, assignment, ambient)
    assert outcomes == {True, False}


@pytest.mark.parametrize("bad", [
    Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]),   # keeps x and y, doubles z
    Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]]),   # singular
], ids=["not-a-homomorphism", "singular"])
def test_ambient_non_automorphism_is_rejected(bad):
    """The Fox columns assume that every action maps the central kernel into
    itself; a matrix that is not an automorphism of U is refused."""
    p = GroupPresentation(["t", "x"], [["t", "x", "t^-1", "x^-1"]])
    with pytest.raises(ValueError, match="^ambient_auts must be automorphisms of U$"):
        lift_one_class(p, {"t": (0, 0), "x": (1, 0)}, heisenberg(), 2,
                       ambient_auts={"t": bad})
