"""Concrete support families and the four identity verifiers.

s_support(m, i, n) is the support of the bimodule realizing insertion of an
n-slot at position i among m inputs; n_support(n) is the triangle computing
the Nakayama equivalence.  The verifiers below contract and reverse these
families and compare the outcomes against independently coded clause sets,
reporting witness points on any disagreement.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .reports import Report, compare_supports
from .supports import (
    OP,
    PREDECESSOR,
    SUCCESSOR,
    Axis,
    Shape,
    Support,
    contract,
    fiber_reversal,
    permute_axes,
)

# a predicate takes one coordinate per axis, as ints or as broadcasting integer
# arrays, so clauses are written with & | and np.where, not and / or / if
Predicate = Callable[..., bool]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _from_predicate(shape: Shape, *clauses: Predicate) -> Support:
    """The box points satisfying any of the clauses, each evaluated once on
    the 1-based coordinate grids of the box."""
    grids = [g + 1 for g in np.indices(shape.lengths, sparse=True)]
    mask = functools.reduce(np.logical_or, (member(*grids) for member in clauses))
    return Support(shape, np.broadcast_to(mask, shape.lengths))


def triple_shape(m: int, n: int) -> Shape:
    """The shape [(m+n-1)-op, m, n] carrying the slot-insertion families."""
    return Shape((Axis(m + n - 1, OP), Axis(m), Axis(n)))


@functools.lru_cache(maxsize=1024)
def s_support(m: int, i: int, n: int) -> Support:
    """Slot-insertion support on [(m+n-1)-op, m, n].

    A triple (g, mu, nu) belongs to it when g <= mu below slot i, when
    g <= i+nu-1 on the slot itself, and when g <= mu+n-1 above it.  Cached:
    a Support is immutable, so callers share one object per argument triple.
    """
    _require(1 <= i <= m, f"need 1 <= i <= m, got i={i}, m={m}")
    _require(n >= 1, f"need n >= 1, got n={n}")

    def member(g, mu, nu):
        return np.where(mu <= i - 1, g <= mu, np.where(mu == i, g <= i + nu - 1, g <= mu + n - 1))

    return _from_predicate(triple_shape(m, n), member)


def s_support_alt_clauses(m: int, i: int, n: int) -> list[Predicate]:
    """The four clauses of the equivalent description, split by g-range."""
    return [
        lambda g, mu, nu: (g <= i) & (g <= mu),
        lambda g, mu, nu: (i + 1 <= g) & (g <= i + n - 1) & (g <= i + nu - 1) & (i <= mu),
        lambda g, mu, nu: (i + 1 <= g) & (g <= i + n - 1) & (i + nu <= g) & (i + 1 <= mu),
        lambda g, mu, nu: (i + n <= g) & (g - n + 1 <= mu),
    ]


def s_support_alt(m: int, i: int, n: int) -> Support:
    """Same set as s_support, built from the alternative clause system."""
    _require(1 <= i <= m, f"need 1 <= i <= m, got i={i}, m={m}")
    _require(n >= 1, f"need n >= 1, got n={n}")
    return _from_predicate(triple_shape(m, n), *s_support_alt_clauses(m, i, n))


def n_support(n: int) -> Support:
    """The Nakayama triangle {(a, b) : a >= b} on [n-op, n]."""
    _require(n >= 1, f"need n >= 1, got n={n}")
    shape = Shape((Axis(n, OP), Axis(n)))
    return _from_predicate(shape, lambda a, b: a >= b)


def regular_support(m: int) -> Support:
    """The regular bimodule support {(g, mu) : g <= mu} on [m-op, m]."""
    _require(m >= 1, f"need m >= 1, got m={m}")
    shape = Shape((Axis(m, OP), Axis(m)))
    return _from_predicate(shape, lambda g, mu: g <= mu)


def interval_support(n: int, kind: str, j: int) -> Support:
    """Projective [j, n], injective [1, j] or simple {j} support on a plain line."""
    _require(1 <= j <= n, f"need 1 <= j <= n, got j={j}, n={n}")
    if kind == "projective":
        lo, hi = j, n
    elif kind == "injective":
        lo, hi = 1, j
    elif kind == "simple":
        lo, hi = j, j
    else:
        raise ValueError(f"kind must be projective, injective or simple, got {kind!r}")
    mask = np.zeros(n, dtype=bool)
    mask[lo - 1 : hi] = True
    return Support(Shape((Axis(n),)), mask)


def quad_shape(m: int, n: int, p: int) -> Shape:
    return Shape((Axis(m + n + p - 2, OP), Axis(m), Axis(n), Axis(p)))


def commutativity_clauses(m: int, n: int, p: int, i: int, j: int) -> list[Predicate]:
    """The five mu-disjoint clauses predicted for parallel composition."""
    return [
        lambda g, mu, nu, pi: (mu <= i - 1) & (g <= mu),
        lambda g, mu, nu, pi: (mu == i) & (g <= i + nu - 1),
        lambda g, mu, nu, pi: (i + 1 <= mu) & (mu <= j - 1) & (g <= mu + n - 1),
        lambda g, mu, nu, pi: (mu == j) & (g <= j + n + pi - 2),
        lambda g, mu, nu, pi: (j + 1 <= mu) & (g <= mu + n + p - 2),
    ]


def reference_commutativity_set(m: int, n: int, p: int, i: int, j: int) -> Support:
    """Expected support of both parallel compositions, on axes (g, mu, nu, pi)."""
    _require(1 <= i < j <= m, f"need 1 <= i < j <= m, got i={i}, j={j}, m={m}")
    _require(n >= 1 and p >= 1, f"need n, p >= 1, got n={n}, p={p}")
    return _from_predicate(quad_shape(m, n, p), *commutativity_clauses(m, n, p, i, j))


def associativity_clauses(m: int, n: int, p: int, i: int, j: int) -> list[Predicate]:
    return [
        lambda g, mu, nu, pi: (mu <= i - 1) & (g <= mu),
        lambda g, mu, nu, pi: (mu == i) & (nu <= j - 1) & (g <= i + nu - 1),
        lambda g, mu, nu, pi: (mu == i) & (nu == j) & (g <= i + j + pi - 2),
        lambda g, mu, nu, pi: (mu == i) & (j + 1 <= nu) & (g <= i + nu + p - 2),
        lambda g, mu, nu, pi: (i + 1 <= mu) & (g <= mu + n + p - 2),
    ]


def reference_associativity_set(m: int, n: int, p: int, i: int, j: int) -> Support:
    """Expected support of both nested compositions, on axes (g, mu, nu, pi)."""
    _require(1 <= i <= m, f"need 1 <= i <= m, got i={i}, m={m}")
    _require(1 <= j <= n, f"need 1 <= j <= n, got j={j}, n={n}")
    _require(p >= 1, f"need p >= 1, got p={p}")
    return _from_predicate(quad_shape(m, n, p), *associativity_clauses(m, n, p, i, j))


def verify_commutativity(m: int, n: int, p: int, i: int, j: int) -> Report:
    """Contract the two parallel-composition pairs and compare everything.

    Both contractions are permuted to the canonical axis order
    (g, mu, nu, pi) and compared to each other and to the reference clause
    set; the permutations are certified by that agreement.
    """
    _require(1 <= i < j <= m, f"need 1 <= i < j <= m, got i={i}, j={j}, m={m}")
    _require(n >= 1 and p >= 1, f"need n, p >= 1, got n={n}, p={p}")
    left = permute_axes(
        contract(s_support(m + p - 1, i, n), 1, s_support(m, j, p), 0), (0, 2, 1, 3)
    )
    right = permute_axes(
        contract(s_support(m + n - 1, j + n - 1, p), 1, s_support(m, i, n), 0), (0, 2, 3, 1)
    )
    ref = reference_commutativity_set(m, n, p, i, j)
    witnesses = (
        compare_supports("left_vs_right", left, right)
        + compare_supports("left_vs_reference", left, ref)
        + compare_supports("right_vs_reference", right, ref)
    )
    params = {"m": m, "n": n, "p": p, "i": i, "j": j}
    return Report("commutativity", params, left.size, right.size, witnesses)


def verify_associativity(m: int, n: int, p: int, i: int, j: int) -> Report:
    """Contract the two nested-composition pairs and compare everything."""
    _require(1 <= i <= m, f"need 1 <= i <= m, got i={i}, m={m}")
    _require(1 <= j <= n, f"need 1 <= j <= n, got j={j}, n={n}")
    _require(p >= 1, f"need p >= 1, got p={p}")
    left = contract(s_support(m, i, n + p - 1), 2, s_support(n, j, p), 0)
    right = permute_axes(
        contract(s_support(m + n - 1, j + i - 1, p), 1, s_support(m, i, n), 0), (0, 2, 3, 1)
    )
    ref = reference_associativity_set(m, n, p, i, j)
    witnesses = (
        compare_supports("left_vs_right", left, right)
        + compare_supports("left_vs_reference", left, ref)
        + compare_supports("right_vs_reference", right, ref)
    )
    params = {"m": m, "n": n, "p": p, "i": i, "j": j}
    return Report("associativity", params, left.size, right.size, witnesses)


def border_reversal_reference(m: int, n: int) -> Support:
    """Displayed form of the op-axis reversal of s_support(m, 1, n)."""
    return _from_predicate(
        triple_shape(m, n),
        lambda g, mu, nu: ((mu == 1) & (g >= nu)) | (g >= mu + n - 1),
    )


def border_intermediate_reference(m: int, n: int) -> Support:
    """Displayed reversal of s_support(n, n, m) along its length-m axis.

    Coordinates are the template axes (g, a, b) with a in [1, n] and
    b in [1, m].
    """
    return _from_predicate(
        triple_shape(n, m),
        lambda g, a, b: ((b == 1) & (g <= a)) | ((a == n) & (g >= n + b - 1)),
    )


def verify_border(m: int, n: int) -> Report:
    """Check the boundary compatibility of reversal with contraction slots.

    Left: the op-axis successor reversal of s_support(m, 1, n).  Right: the
    length-m then length-n predecessor reversals of s_support(n, n, m),
    flipped back onto the left shape.  Both displayed intermediate clause
    sets are checked as well.  When m = n the two plain axes are told apart
    by template position: axis 2 carries length m, axis 1 length n.
    """
    _require(m >= 1 and n >= 1, f"need m, n >= 1, got m={m}, n={n}")
    left = fiber_reversal(s_support(m, 1, n), 0, SUCCESSOR)
    mid = fiber_reversal(s_support(n, n, m), 2, PREDECESSOR)
    right = permute_axes(fiber_reversal(mid, 1, PREDECESSOR), (0, 2, 1))
    witnesses = (
        compare_supports("left_vs_displayed", left, border_reversal_reference(m, n))
        + compare_supports(
            "intermediate_vs_displayed", mid, border_intermediate_reference(m, n)
        )
        + compare_supports("right_vs_left", right, left)
    )
    params = {"m": m, "n": n}
    return Report("border", params, left.size, right.size, witnesses)


def inner_reversal_reference(m: int, n: int, i: int) -> Support:
    """Displayed form of the op-axis reversal of s_support(m, i, n)."""
    def member(g, mu, nu):
        return np.where(mu <= i - 1, g >= mu, np.where(mu == i, g >= i + nu - 1, g >= mu + n - 1))

    return _from_predicate(triple_shape(m, n), member)


def inner_shift_reference(m: int, n: int, i: int) -> Support:
    """Displayed length-m reversal of s_support(m, i-1, n)."""
    def member(g, mu, nu):
        return (
            ((g <= i - 1) & (g >= mu))
            | ((i <= g) & (g <= i + n - 2) & (g <= i + nu - 2) & (mu <= i - 1))
            | ((i <= g) & (g <= i + n - 2) & (g >= i + nu - 1) & (mu <= i))
            | ((g >= i + n - 1) & (mu <= g - n + 1))
        )

    return _from_predicate(triple_shape(m, n), member)


def verify_inner(m: int, n: int, i: int) -> Report:
    """Check the inner compatibility: op-axis reversal at slot i equals the
    length-m reversal at slot i-1, with both displayed sets matched."""
    _require(2 <= i <= m, f"need 2 <= i <= m, got i={i}, m={m}")
    _require(n >= 1, f"need n >= 1, got n={n}")
    left = fiber_reversal(s_support(m, i, n), 0, SUCCESSOR)
    right = fiber_reversal(s_support(m, i - 1, n), 1, PREDECESSOR)
    witnesses = (
        compare_supports("left_vs_displayed", left, inner_reversal_reference(m, n, i))
        + compare_supports("right_vs_displayed", right, inner_shift_reference(m, n, i))
        + compare_supports("right_vs_left", right, left)
    )
    params = {"m": m, "n": n, "i": i}
    return Report("inner", params, left.size, right.size, witnesses)
