import random
from fractions import Fraction

from malcev.linalg import unit, vec_add, vec_neg
from malcev.lie import lcs_dims, quotient_by_ideal
from malcev.freelie import (
    hall_basis, is_hall_word, word_to_json, word_from_json,
    free_nilpotent, graded_ideal_closure,
)

from oracles import witt_dim


def test_hall_counts_match_witt():
    for k in (1, 2, 3):
        groups = hall_basis(k, 6)
        assert [len(g) for g in groups] == [witt_dim(k, n) for n in range(1, 7)]


def test_known_counts():
    assert [len(g) for g in hall_basis(2, 6)] == [2, 1, 2, 3, 6, 9]
    assert [len(g) for g in hall_basis(3, 6)] == [3, 3, 8, 18, 48, 116]


def test_hall_words_are_hall():
    for grp in hall_basis(3, 5):
        for w in grp:
            assert is_hall_word(w)


def test_degree_two_and_three_words():
    groups = hall_basis(2, 3)
    assert groups[1] == [(0, 1)]
    assert groups[2] == [(0, (0, 1)), (1, (0, 1))]


def test_word_json_round_trip():
    w = (0, (0, 1))
    assert word_to_json(w) == [0, [0, 1]]
    assert word_from_json([0, [0, 1]]) == w
    assert word_from_json(1) == 1


def test_left_normed_rewrite():
    # [[x,y],x] is not a Hall word; it rewrites to -[x,[x,y]]
    F = free_nilpotent(2, 3)
    x, y = unit(F.dim, 0), unit(F.dim, 1)
    assert F.bracket(F.bracket(x, y), x) == vec_neg(unit(F.dim, F.hall_index[(0, (0, 1))]))


def test_rewriter_antisymmetry_and_jacobi():
    rng = random.Random(2)
    F = free_nilpotent(3, 5)
    low = [i for i, d in enumerate(F.grading) if d <= 3]

    def rand_el():
        v = [Fraction(0)] * F.dim
        for i in rng.sample(low, 4):
            v[i] = Fraction(rng.randint(-2, 2))
        return tuple(v)

    zero = (Fraction(0),) * F.dim
    for _ in range(10):
        x, y, z = rand_el(), rand_el(), rand_el()
        assert F.bracket(x, y) == vec_neg(F.bracket(y, x))
        jac = vec_add(vec_add(F.bracket(F.bracket(x, y), z),
                              F.bracket(F.bracket(y, z), x)),
                      F.bracket(F.bracket(z, x), y))
        assert jac == zero
        assert F.bracket(x, x) == zero


def test_free_nilpotent_structure():
    F = free_nilpotent(2, 3)
    assert F.dim == 5
    assert F.check_jacobi() == []
    assert F.grading == (1, 1, 2, 3, 3)
    assert lcs_dims(F) == [5, 3, 2, 0]
    F3 = free_nilpotent(3, 3)
    assert F3.dim == 14
    assert F3.check_jacobi() == []


def test_free_nilpotent_larger_jacobi():
    assert free_nilpotent(2, 5).check_jacobi() == []


def test_graded_ideal_closure_full_degree2():
    F = free_nilpotent(2, 3)
    # the ideal generated by [x,y] is everything in degrees >= 2
    gen = unit(F.dim, F.hall_index[(0, 1)])
    ideal, dims = graded_ideal_closure(F, [gen])
    assert dims == [0, 1, 2]
    assert [F.grading[next(t for t, c in enumerate(v) if c)] for v in ideal.basis] == [2, 3, 3]
    Q, _ = quotient_by_ideal(F, ideal)
    assert Q.dim == 2
    assert not Q.brackets  # abelian quotient


def test_graded_ideal_closure_empty():
    F = free_nilpotent(2, 3)
    ideal, dims = graded_ideal_closure(F, [])
    assert ideal.dim == 0 and ideal.basis == []
    assert dims == [0, 0, 0]
