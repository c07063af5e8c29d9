"""The sparse-row kernels of linalg against the independent dense oracles:
``_eliminate``, ``echelon_rows``, ``_null_rows`` and ``IncrementalSpan`` on
sparse int rows that are shuffled, rescaled and partly zero, some with
terms past cols (the [m | D_m id] rows of ``AffineSolver``), checked
against the Fraction RREF and null space of ``oracles``."""

from fractions import Fraction
from math import gcd

import pytest

from malcev.linalg import IncrementalSpan, _eliminate, _null_rows, echelon_rows

from oracles import echelon_insertions, gauss_jordan, null_space

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ENTRY = st.sampled_from([0] * 6 + [1, -1, 2, -2, 3, -5, 6])


def terms(row):
    return tuple((j, c) for j, c in enumerate(row) if c)


def dense(row, n):
    out = [0] * n
    for j, c in row:
        out[j] = c
    return out


def over_first(row):
    """A dense row over its first nonzero entry; a zero row as it is."""
    first = next((c for c in row if c), 1)
    return tuple(Fraction(c) / first for c in row)


def restricted(row, cols):
    """over_first of the entries of a sparse row below cols."""
    return over_first(dense([(j, c) for j, c in row if j < cols], cols))


@st.composite
def systems(draw):
    """(rows, cols, width, shuffled): dense int rows of width cols + extra
    columns, the last ones carried but never pivoted, some a combination of
    two others; and the sparse rows of the same span, shuffled and each
    multiplied by a nonzero int."""
    cols, extra = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    width = cols + extra
    rows = draw(st.lists(st.lists(ENTRY, min_size=width, max_size=width), max_size=7))
    if len(rows) > 2 and draw(st.booleans()):
        rows.append([2 * a - 3 * b for a, b in zip(rows[0], rows[1])])
    factors = draw(st.lists(st.sampled_from([1, -1, 2, -3, 7]),
                            min_size=len(rows), max_size=len(rows)))
    order = draw(st.permutations(range(len(rows))))
    shuffled = [terms([factors[i] * a for a in rows[i]]) for i in order]
    return rows, cols, width, shuffled


def primitive(row):
    return row[0][1] > 0 and gcd(*(c for _, c in row)) == 1


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(systems())
def test_eliminate_matches_the_dense_rref(case):
    """The same pivots, swaps and rows, up to scale, as the Fraction
    Gauss-Jordan of the same rows in the same order (extra columns
    carried); primitive pivot rows with the pivot first, rows past the
    pivots with no term below cols, and the span of all the rows kept.  On
    the first cols columns the pivot rows are the RREF of the span, so the
    unshuffled, unscaled rows give them too."""
    rows, cols, width, shuffled = case
    red, pivots = gauss_jordan([dense(r, width) for r in shuffled], cols)
    out = list(shuffled)
    assert _eliminate(out, cols) == pivots
    assert [over_first(dense(r, width)) for r in out] == [over_first(r) for r in red]
    k = len(pivots)
    assert all(primitive(r) and r[0][0] == p for r, p in zip(out, pivots))
    assert all(j >= cols for r in out[k:] for j, _ in r)
    assert all(all(a[0] < b[0] for a, b in zip(r, r[1:])) and all(c for _, c in r)
               for r in out)
    assert gauss_jordan([dense(r, width) for r in out], width) == gauss_jordan(rows, width)
    canonical = gauss_jordan([r[:cols] for r in rows], cols)[0][:k]
    assert [restricted(r, cols) for r in out[:k]] == canonical
    plain = [terms(r) for r in rows]
    _eliminate(plain, cols)
    assert [restricted(r, cols) for r in plain[:k]] == canonical


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(systems())
def test_echelon_rows_and_null_rows_match_the_oracles(case):
    rows, cols, width, shuffled = case
    given = list(shuffled)
    echelon, pivots = echelon_rows(shuffled, cols)
    assert shuffled == given                    # the input is not changed
    # echelon_rows drops the zero rows first, which can change the swaps
    red, oracle_pivots = gauss_jordan([dense(r, width) for r in shuffled if r], cols)
    assert pivots == oracle_pivots
    assert [over_first(dense(r, width)) for r in echelon] == red[:len(pivots)]
    # the null space of the first cols columns
    narrow = [tuple((j, c) for j, c in r if j < cols) for r in shuffled]
    S, null = _null_rows(narrow, cols)
    assert [tuple(Fraction(c, S) for c in dense(v, cols)) for v in null] == \
        null_space([r[:cols] for r in rows], cols)
    assert all(type(c) is int and c for v in null for _, c in v)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(systems(), st.lists(st.lists(ENTRY, min_size=9, max_size=9), max_size=4))
def test_incremental_span_matches_the_oracle(case, probes):
    rows, cols, width, shuffled = case
    probes = [p[:width] for p in probes]
    probes += [[a + b for a, b in zip(u, v)] for u, v in zip(rows, rows[1:])]
    span = IncrementalSpan()
    grew = [span.add(r) for r in shuffled]
    vectors = [dense(r, width) for r in shuffled]
    assert (grew, span.pivots, [span.contains(terms(p)) for p in probes]) == \
        echelon_insertions(vectors, probes)
    assert all(primitive(r) and r[0][0] == p for r, p in zip(span.rows, span.pivots))
    assert all(not span.reduce(r) for r in shuffled)
