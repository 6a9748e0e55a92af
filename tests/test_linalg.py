"""Exact elimination kernels against a plain Fraction / modular reference."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverdias.linalg import PrimeField, RationalField, mat_mul, reduce_mod_rows, rref

Q = 32003

# unreduced residues on purpose: negatives, q itself, 2q + 3
PRIME_ENTRIES = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1, Q, -Q, 2 * Q + 3, Q - 1]),
    st.integers(-3 * Q, 3 * Q),
)
# ints, integral Fractions and non-integral Fractions
RATIONAL_ENTRIES = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1, Fraction(2), Fraction(-3, 1)]),
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
)
FIELDS = {
    "prime": (PrimeField(Q), PRIME_ENTRIES),
    "rational": (RationalField(), RATIONAL_ENTRIES),
}


def ref_norm(kind, x):
    return x % Q if kind == "prime" else Fraction(x)


def ref_rank(kind, rows):
    """Rank by forward elimination on Fractions, or on residues mod Q."""
    mat = [[ref_norm(kind, x) for x in row] for row in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        p = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if p is None:
            continue
        mat[rank], mat[p] = mat[p], mat[rank]
        pivot = mat[rank][c]
        inv = pow(pivot, -1, Q) if kind == "prime" else 1 / pivot
        for i in range(rank + 1, len(mat)):
            f = mat[i][c] * inv
            mat[i] = [ref_norm(kind, x - f * y) for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def ref_mat_mul(kind, a, b):
    return [
        [ref_norm(kind, sum(x * y for x, y in zip(arow, bcol))) for bcol in zip(*b)]
        for arow in a
    ]


def is_normalized(kind, v) -> bool:
    if kind == "prime":
        return type(v) is int and 0 <= v < Q
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


@st.composite
def matrices(draw, entries, rows=(0, 6), cols=(1, 7)):
    nrows = draw(st.integers(*rows))
    ncols = draw(st.integers(*cols))
    mat = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if 2 <= nrows < rows[1] and draw(st.booleans()):
        # a dependent row, its entries left unreduced
        mat.append([x - 3 * y for x, y in zip(mat[0], mat[1])])
    return mat


@pytest.mark.parametrize("kind", FIELDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_rref_reduced_echelon_form_and_rank(kind, data):
    field, entries = FIELDS[kind]
    rows = data.draw(matrices(entries))
    red, pivots = rref(field, rows)
    assert len(red) == len(pivots) == ref_rank(kind, rows)
    assert pivots == sorted(set(pivots))
    for r, (row, c) in enumerate(zip(red, pivots)):
        assert all(is_normalized(kind, v) for v in row)
        assert row[c] == 1
        assert all(v == 0 for v in row[:c])
        assert all(other[c] == 0 for s, other in enumerate(red) if s != r)


@pytest.mark.parametrize("kind", FIELDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_input_rows_reduce_to_zero(kind, data):
    field, entries = FIELDS[kind]
    rows = data.draw(matrices(entries))
    red, pivots = rref(field, rows)
    for row in rows:
        reduced = reduce_mod_rows(field, row, red, pivots)
        assert reduced == [0] * len(row)
        assert all(type(v) is int for v in reduced)


@pytest.mark.parametrize("kind", FIELDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mat_mul_matches_reference(kind, data):
    field, entries = FIELDS[kind]
    inner = data.draw(st.integers(1, 6))
    a = data.draw(matrices(entries, rows=(1, 6), cols=(inner, inner)))
    b = data.draw(matrices(entries, rows=(inner, inner), cols=(1, 7)))
    prod = mat_mul(field, a, b)
    assert prod == ref_mat_mul(kind, a, b)
    assert all(is_normalized(kind, v) for row in prod for v in row)


@pytest.mark.parametrize(
    "kind, x, y, want",
    [
        ("prime", Q + 1, -1, Q - 1),
        ("prime", -1, -1, 1),
        ("prime", Q, 5, 0),
        ("rational", Fraction(3, 7), Fraction(7, 3), 1),
        ("rational", Fraction(3, 7), 0, 0),
    ],
)
def test_one_by_one_mat_mul(kind, x, y, want):
    prod = mat_mul(FIELDS[kind][0], [[x]], [[y]])
    assert prod == ref_mat_mul(kind, [[x]], [[y]]) == [[want]]
    assert type(prod[0][0]) is int


def test_rational_norm_and_inverse():
    F = RationalField()
    assert type(F.norm(Fraction(6, 3))) is int
    assert F.norm(Fraction(3, 7)) == Fraction(3, 7)
    assert F.inv(-1) == -1 and type(F.inv(-1)) is int
    assert F.inv(Fraction(1, 4)) == 4 and type(F.inv(Fraction(1, 4))) is int
    assert F.inv(Fraction(3, 7)) == Fraction(7, 3)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        PrimeField(Q).inv(Q)
