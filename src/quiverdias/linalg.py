"""Exact dense linear algebra over the rationals or a prime field.

Matrices are lists of row lists of field elements.  The vertexwise spaces
handled by the module oracle are tiny, so plain Gaussian elimination is all
that is needed; what matters is that every step is exact.
"""

from __future__ import annotations

from fractions import Fraction


class RationalField:
    """Arithmetic on fractions; elements are fractions.Fraction."""

    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash(self.name)


class PrimeField:
    """Arithmetic modulo a prime; elements are ints reduced to [0, q)."""

    def __init__(self, q: int):
        self.q = q
        self.name = f"gf({q})"
        self.zero = 0
        self.one = 1 % q

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def inv(self, a):
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.q)

    def is_zero(self, a) -> bool:
        return a % self.q == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.q))


Matrix = list[list]


def zeros(field, rows: int, cols: int) -> Matrix:
    return [[field.zero] * cols for _ in range(rows)]


def mat_mul(field, a: Matrix, b: Matrix) -> Matrix:
    """Product of conformant nonempty matrices."""
    cols = len(b[0])
    inner = len(b)
    out = zeros(field, len(a), cols)
    for r, arow in enumerate(a):
        orow = out[r]
        for k in range(inner):
            v = arow[k]
            if field.is_zero(v):
                continue
            brow = b[k]
            for c in range(cols):
                orow[c] = field.add(orow[c], field.mul(v, brow[c]))
    return out


def rref(field, rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form.

    Returns the nonzero reduced rows and their pivot columns; pivots are
    normalized to one and cleared above and below.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for p in range(r, len(mat)):
            if not field.is_zero(mat[p][c]):
                pivot_row = p
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        scale = field.inv(mat[r][c])
        mat[r] = [field.mul(scale, v) for v in mat[r]]
        for p in range(len(mat)):
            if p != r and not field.is_zero(mat[p][c]):
                coef = mat[p][c]
                mat[p] = [field.sub(x, field.mul(coef, y)) for x, y in zip(mat[p], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def reduce_mod_rows(field, vec: list, rref_rows: list[list], pivots: list[int]) -> list:
    """Reduce a vector modulo the row space given in reduced echelon form."""
    v = list(vec)
    for row, c in zip(rref_rows, pivots):
        coef = v[c]
        if not field.is_zero(coef):
            v = [field.sub(x, field.mul(coef, y)) for x, y in zip(v, row)]
    return v
