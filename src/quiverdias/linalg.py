"""Exact dense linear algebra over the rationals or a prime field.

Matrices are lists of row lists of field elements.  The vertexwise spaces
handled by the module oracle are tiny, so plain Gaussian elimination is all
that is needed; what matters is that every step is exact.

The kernels bind the field's ``norm`` once and work with the native
``+ - *`` of Python numbers, normalizing once per produced entry (delayed
reduction); zero operands are skipped.  Normalized elements are falsy
exactly when they are zero.
"""

from __future__ import annotations

from fractions import Fraction


class RationalField:
    """Exact rationals; elements are ints while integral, Fractions otherwise."""

    name = "rational"
    zero = 0
    one = 1

    @staticmethod
    def norm(x):
        """Turn an integral Fraction back into an int."""
        if type(x) is Fraction and x.denominator == 1:
            return x.numerator
        return x

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if type(a) is int:
            return a if a in (1, -1) else Fraction(1, a)
        return self.norm(1 / a)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash(self.name)


class PrimeField:
    """Arithmetic modulo a prime; normalized elements are ints in [0, q)."""

    def __init__(self, q: int):
        self.q = q
        self.name = f"gf({q})"
        self.zero = 0
        self.one = 1 % q

    def norm(self, x):
        return x % self.q

    def inv(self, a):
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.q)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.q))


Matrix = list[list]


def mat_mul(field, a: Matrix, b: Matrix) -> Matrix:
    """Product of conformant nonempty matrices."""
    norm = field.norm
    out = []
    for arow in a:
        acc = [0] * len(b[0])
        for v, brow in zip(arow, b):
            if v:
                for c, y in enumerate(brow):
                    if y:
                        acc[c] += v * y
        out.append([norm(x) for x in acc])
    return out


def rref(field, rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form.

    Returns the nonzero reduced rows and their pivot columns; pivots are
    normalized to one and cleared above and below.  Input entries need not
    be normalized.
    """
    norm, inv = field.norm, field.inv
    mat = [[norm(v) for v in r] for r in rows]
    if not mat:
        return [], []
    pivots: list[int] = []
    r = 0
    for c in range(len(mat[0])):
        for pivot_row in range(r, len(mat)):
            if mat[pivot_row][c]:
                break
        else:
            continue
        prow = mat[pivot_row]
        mat[pivot_row] = mat[r]
        scale = inv(prow[c])
        if scale != 1:
            prow = [norm(scale * v) if v else 0 for v in prow]
        mat[r] = prow
        for p, row in enumerate(mat):
            coef = row[c]
            if coef and p != r:
                mat[p] = [norm(x - coef * y) if y else x for x, y in zip(row, prow)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def reduce_mod_rows(field, vec: list, rref_rows: list[list], pivots: list[int]) -> list:
    """Reduce a vector modulo the row space given in reduced echelon form."""
    norm = field.norm
    v = [norm(x) for x in vec]
    for row, c in zip(rref_rows, pivots):
        coef = v[c]
        if coef:
            v = [norm(x - coef * y) if y else x for x, y in zip(v, row)]
    return v
