"""Group words on the int core.

``bch._bch_int`` runs the program that ``_bch_terms(c)`` compiles once per
class: one ``sparse_bracket`` per proper subword of the BCH words and one
per left factor of the top-level words.  It is checked against the
independent Dynkin oracle for c = 1..8, on zero operands, denominators
dx, dy > 1 and a table with D > 1.  The relator walkers (``lift_one_class``,
``evaluate_word``, ``check_representation``) multiply on int images and
make no ``bch`` and no ``vec_add``/``vec_sub`` call.  A SemidirectElement
input to ``lift_one_class`` must carry the action that ``ambient_auts``
induces, and a generator name may not end in ^-1.
"""

import importlib
import sys
from fractions import Fraction

import pytest

from malcev.bch import GroupPresentation, SemidirectElement
from malcev.dgla import lcs_extension
from malcev.freelie import free_nilpotent
from malcev.lie import change_basis, heisenberg
from malcev.linalg import Matrix
from malcev.present import lift_one_class

from oracles import dynkin_bch
from test_cli import run_error
from test_lift_fox import HEISENBERG_GROUP, SWAP

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
BCH = importlib.import_module("malcev.bch")

# sparse_bracket calls per product: the proper subwords of the BCH words
# plus the left factors of the top-level words
BRACKETS = {1: 0, 2: 1, 3: 3, 4: 3, 5: 9, 6: 12, 7: 22, 8: 30}


def conjugate(c):
    """F(2, c) in the basis of a lower triangular matrix with fractional
    entries: a table with D > 1 from c = 2 on."""
    L = free_nilpotent(2, c)
    n = L.dim
    rows = [[Fraction((i + 1) * (i == j)) for j in range(n)] for i in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = Fraction(i % 3 - 1, 2 + i % 2)
    return change_basis(L, Matrix(rows))


ALGEBRAS = {c: [free_nilpotent(2, c)] + ([conjugate(c)] if c <= 4 else []) for c in range(1, 9)}


@st.composite
def operands(draw, c):
    """(L, dx, X, dy, Y): an int vector has at most 3 nonzero entries from
    class 6 on (the oracle brackets densely), and may be zero."""
    L = draw(st.sampled_from(ALGEBRAS[c]))
    support = st.lists(st.integers(0, L.dim - 1), max_size=3 if c >= 6 else L.dim)
    vecs = []
    for _ in range(2):
        v = [0] * L.dim
        for i in draw(support):
            v[i] = draw(st.integers(-4, 4))
        vecs += [draw(st.integers(1, 6)), v]
    return (L, *vecs)


@pytest.mark.parametrize("c", range(1, 9))
def test_bch_int_against_the_dynkin_oracle(monkeypatch, c):
    calls = []
    real = BCH.sparse_bracket

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(BCH, "sparse_bracket", counting)
    assert c < 2 or c > 4 or ALGEBRAS[c][1].table[0] > 1
    _, steps, groups = BCH._bch_terms(c)
    assert len(steps) + sum(u is not None for u, _ in groups) == BRACKETS[c]

    @hypothesis.settings(max_examples=12 if c >= 7 else 25, deadline=None)
    @hypothesis.given(operands(c))
    def check(args):
        L, dx, X, dy, Y = args
        calls.clear()
        Z, T = BCH._bch_int(dx, X, dy, Y, L, c)
        assert len(calls) == BRACKETS[c]
        x = [Fraction(a, dx) for a in X]
        y = [Fraction(a, dy) for a in Y]
        assert tuple(Fraction(z, T) for z in Z) == dynkin_bch(L.dim, dict(L.brackets), x, y, c)

    check()


def spies(monkeypatch):
    """Patch bch.bch and every malcev binding of vec_add and vec_sub with a
    function that records its name."""
    seen = []
    for name, mod in list(sys.modules.items()):
        if name == "malcev" or name.startswith("malcev."):
            for fn in ("bch", "vec_add", "vec_sub"):
                real = getattr(mod, fn, None)
                if callable(real) and (fn != "bch" or mod is BCH):
                    monkeypatch.setattr(mod, fn, lambda *a, _f=fn, _r=real, **k:
                                        seen.append(_f) or _r(*a, **k))
    return seen


def test_walkers_make_no_fraction_products(monkeypatch):
    seen = spies(monkeypatch)
    U = free_nilpotent(2, 4)
    p = GroupPresentation(["x", "y", "z"], HEISENBERG_GROUP)
    assert not lift_one_class(p, {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}, U, 3).lifted
    res = lift_one_class(p, {"x": (1, 0), "y": (0, 1), "z": (0, 0)}, free_nilpotent(2, 3), 2)
    assert res.lifted
    H = heisenberg()
    swapped = {"t": SemidirectElement(H, (1, 0, Fraction(1, 2)), SWAP),
               "x": SemidirectElement(H, (1, 0, 0)), "y": SemidirectElement(H, (0, 1, 0))}
    word = ["t", "x", "t^-1", "y^-1", "x^-1", "t", "t"]
    value = BCH.evaluate_word(swapped, word)
    assert BCH.check_representation(GroupPresentation(["t", "x", "y"], [word]), swapped)
    assert seen == []
    product = swapped["t"]
    for letter in word[1:]:
        g = swapped[letter[0]]
        product = product * (g.inverse() if letter.endswith("^-1") else g)
    assert product == value


SWAP2 = Matrix([[0, 1], [1, 0]])   # the action SWAP induces on U/G_2 = Q^2
SWAP_RELATORS = [["t", "x", "t^-1", "y^-1"], ["t", "t"]]


def test_automorphism_part_needs_its_ambient_action():
    U, p = heisenberg(), GroupPresentation(["t", "x", "y"], SWAP_RELATORS)
    M = lcs_extension(U, 2).M   # U/G_2
    assignment = {"t": SemidirectElement(M, (0, 0), SWAP2), "x": (1, 0), "y": (0, 1)}
    with pytest.raises(ValueError, match="^assignment for 't' has an automorphism part, "
                                         "but ambient_auts gives no action for it$"):
        lift_one_class(p, assignment, U, 2)
    res = lift_one_class(p, assignment, U, 2, ambient_auts={"t": SWAP})
    plain = lift_one_class(p, dict(assignment, t=(0, 0)), U, 2, ambient_auts={"t": SWAP})
    assert res.lifted and res.images == plain.images
    assert res.images["t"].aut == SWAP
    # an identity part must be induced too: SWAP does not induce it
    with pytest.raises(ValueError, match="^the action of ambient_auts\\['t'\\] on U/G_k is "
                                         "not the automorphism part of its assignment$"):
        lift_one_class(p, dict(assignment, t=SemidirectElement(M, (0, 0))), U, 2,
                       ambient_auts={"t": SWAP})


@pytest.mark.parametrize("gens", [["x", "x^-1"], ["x^-1"]])
def test_generator_names_may_not_end_in_inverse(capsys, gens):
    with pytest.raises(ValueError, match="^generator name 'x\\^-1' ends in \\^-1$"):
        GroupPresentation(gens, [["x^-1"]])
    data = ('{"mode":"one-class","presentation":{"generators":%s,"relators":[["x^-1"]]},'
            '"free":[2,3],"assignment":{"x":["1","0"]},"k":2}' % str(gens).replace("'", '"'))
    assert run_error(capsys, "lift", data) == (
        2, "error: bad one-class input: generator name 'x^-1' ends in ^-1\n")
